//! Checksum and CRC implementations used by packet fixups.
//!
//! All algorithms are implemented from scratch (no external crates): IEEE
//! CRC-32, CRC-16/Modbus, the DNP3 link-layer CRC, the Modbus ASCII LRC,
//! plain summation checksums and the one's-complement internet checksum.

/// The byte-at-a-time lookup table of a reflected CRC with polynomial
/// `poly`: entry `i` is `i` put through the eight shift steps of the
/// bitwise algorithm. A 16-bit polynomial keeps every entry below `2¹⁶`.
const fn reflected_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut step = 0;
        while step < 8 {
            crc = (crc >> 1) ^ (poly & (crc & 1).wrapping_neg());
            step += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = reflected_table(0xedb8_8320);
static CRC16_MODBUS_TABLE: [u32; 256] = reflected_table(0xa001);
static CRC16_DNP_TABLE: [u32; 256] = reflected_table(0xa6bc);

/// Runs a reflected CRC from register value `crc` over `data`, one table
/// lookup per byte. With a 16-bit table the register stays below `2¹⁶`.
fn reflected_crc(table: &[u32; 256], mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`, init/final xor `0xFFFFFFFF`).
///
/// This is the algorithm behind Peach's `Crc32Fixup` used in Figure 1 of the
/// paper.
///
/// ```
/// // Well-known check value for the ASCII string "123456789".
/// assert_eq!(peachstar_datamodel::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !reflected_crc(&CRC32_TABLE, 0xffff_ffff, data)
}

/// CRC-16/Modbus (reflected polynomial `0xA001`, init `0xFFFF`, no final xor).
///
/// Used by the Modbus RTU frame check sequence.
///
/// ```
/// assert_eq!(peachstar_datamodel::checksum::crc16_modbus(b"123456789"), 0x4B37);
/// ```
#[must_use]
pub fn crc16_modbus(data: &[u8]) -> u16 {
    reflected_crc(&CRC16_MODBUS_TABLE, 0xffff, data) as u16
}

/// DNP3 link-layer CRC-16 (reflected polynomial `0xA6BC`, init `0x0000`,
/// output complemented).
///
/// ```
/// assert_eq!(peachstar_datamodel::checksum::crc16_dnp(b"123456789"), 0xEA82);
/// ```
#[must_use]
pub fn crc16_dnp(data: &[u8]) -> u16 {
    !(reflected_crc(&CRC16_DNP_TABLE, 0, data) as u16)
}

/// Longitudinal redundancy check as used by Modbus ASCII: the two's
/// complement of the modulo-256 sum of the bytes.
///
/// ```
/// assert_eq!(peachstar_datamodel::checksum::lrc8(&[0x01, 0x03, 0x00, 0x00, 0x00, 0x01]), 0xFB);
/// ```
#[must_use]
pub fn lrc8(data: &[u8]) -> u8 {
    let sum = data
        .iter()
        .fold(0u8, |acc, &byte| acc.wrapping_add(byte));
    sum.wrapping_neg()
}

/// Modulo-256 sum of all bytes.
///
/// ```
/// assert_eq!(peachstar_datamodel::checksum::sum8(&[0xff, 0x02]), 0x01);
/// ```
#[must_use]
pub fn sum8(data: &[u8]) -> u8 {
    data.iter().fold(0u8, |acc, &byte| acc.wrapping_add(byte))
}

/// Modulo-65536 sum of all bytes.
///
/// ```
/// assert_eq!(peachstar_datamodel::checksum::sum16(&[0xff, 0xff, 0x02]), 0x0200);
/// ```
#[must_use]
pub fn sum16(data: &[u8]) -> u16 {
    data.iter()
        .fold(0u16, |acc, &byte| acc.wrapping_add(u16::from(byte)))
}

/// One's-complement 16-bit internet checksum (RFC 1071 style), over the data
/// interpreted as big-endian 16-bit words, padded with a zero byte if the
/// length is odd.
///
/// ```
/// // Complementing the checksum of data that already includes it yields 0.
/// let data = [0x45u8, 0x00, 0x00, 0x1c];
/// let sum = peachstar_datamodel::checksum::internet16(&data);
/// assert_ne!(sum, 0);
/// ```
#[must_use]
pub fn internet16(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let Some(&last) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Appends the DNP3 per-block CRC to `block`, returning the framed bytes.
///
/// DNP3 link frames attach a little-endian CRC after the 8-byte header and
/// after every (up to) 16-byte body block; this helper is used by the DNP3
/// target's data model and emitter.
///
/// ```
/// let framed = peachstar_datamodel::checksum::dnp_block_with_crc(&[0x05, 0x64]);
/// assert_eq!(framed.len(), 4);
/// ```
#[must_use]
pub fn dnp_block_with_crc(block: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(block.len() + 2);
    framed.extend_from_slice(block);
    framed.extend_from_slice(&crc16_dnp(block).to_le_bytes());
    framed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise form of a reflected CRC, eight dependent shift steps per
    /// byte: the oracle the table-driven CRCs must equal.
    fn bitwise_crc(poly: u32, mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (poly & mask);
            }
        }
        crc
    }

    proptest! {
        #[test]
        fn table_driven_crcs_equal_the_bitwise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            prop_assert_eq!(crc32(&data), !bitwise_crc(0xedb8_8320, 0xffff_ffff, &data));
            prop_assert_eq!(crc16_modbus(&data), bitwise_crc(0xa001, 0xffff, &data) as u16);
            prop_assert_eq!(crc16_dnp(&data), !(bitwise_crc(0xa6bc, 0, &data) as u16));
        }
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        assert_eq!(crc32(&[0x00]), 0xd202_ef8d);
    }

    #[test]
    fn crc16_modbus_known_vectors() {
        assert_eq!(crc16_modbus(b"123456789"), 0x4b37);
        // Read-holding-registers request: addr 1, fc 3, start 0, count 1.
        assert_eq!(crc16_modbus(&[0x01, 0x03, 0x00, 0x00, 0x00, 0x01]), 0x0a84);
        assert_eq!(crc16_modbus(&[]), 0xffff);
    }

    #[test]
    fn crc16_dnp_known_vector() {
        assert_eq!(crc16_dnp(b"123456789"), 0xea82);
    }

    #[test]
    fn lrc_of_frame_plus_lrc_is_zero() {
        let frame = [0x11u8, 0x03, 0x00, 0x6b, 0x00, 0x03];
        let lrc = lrc8(&frame);
        let mut with_lrc = frame.to_vec();
        with_lrc.push(lrc);
        assert_eq!(sum8(&with_lrc), 0);
    }

    #[test]
    fn sums_wrap() {
        assert_eq!(sum8(&[0xff, 0x01]), 0);
        assert_eq!(sum16(&[0xff; 1024]), (0xffu16.wrapping_mul(1024)) );
    }

    #[test]
    fn internet16_detects_flip() {
        let data = [0x12u8, 0x34, 0x56, 0x78];
        let mut flipped = data;
        flipped[2] ^= 0x01;
        assert_ne!(internet16(&data), internet16(&flipped));
    }

    #[test]
    fn internet16_odd_length_uses_zero_pad() {
        assert_eq!(internet16(&[0xab]), internet16(&[0xab, 0x00]));
    }

    #[test]
    fn dnp_block_frame_appends_two_bytes() {
        let block = [0x05u8, 0x64, 0x05, 0xc9, 0x03, 0x00, 0x04, 0x00];
        let framed = dnp_block_with_crc(&block);
        assert_eq!(framed.len(), block.len() + 2);
        assert_eq!(&framed[..block.len()], &block);
    }
}
