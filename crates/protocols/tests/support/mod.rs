//! Scalar header predicates of the six built-in wire framings: a test
//! oracle, independent of the decoders, for what a well-framed packet of
//! each target looks like.

use peachstar_datamodel::checksum::crc16_dnp;

/// The wire framings of the built-in targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSpec {
    /// Modbus/TCP MBAP: protocol id 0, declared length, unit id 0/1.
    Mbap,
    /// IEC 60870-5-104 APCI (shared by the iec104 and lib60870 targets):
    /// 0x68 start byte and a declared length covering the whole APDU.
    Apci,
    /// DNP3 link layer: 0x05 0x64 sync, length field, header CRC.
    Dnp3Link,
    /// ICCP/TASE.2 transport header: "T2" magic and declared payload length.
    Iccp,
    /// RFC 1006 TPKT + COTP data TPDU (the IEC 61850 MMS transport): TPKT
    /// version/length and a COTP DT header.
    TpktCotp,
}

impl FrameSpec {
    /// `true` when `packet`'s framing passes every stateless header check
    /// of this spec.
    #[must_use]
    pub fn check(self, packet: &[u8]) -> bool {
        let len = packet.len();
        match self {
            FrameSpec::Mbap => {
                len >= 8
                    && packet[2] == 0
                    && packet[3] == 0
                    && usize::from(u16::from_be_bytes([packet[4], packet[5]])) + 6 == len
                    && packet[6] <= 1
            }
            FrameSpec::Apci => {
                len >= 6 && packet[0] == 0x68 && packet[1] >= 4 && usize::from(packet[1]) + 2 == len
            }
            FrameSpec::Dnp3Link => {
                len >= 10
                    && packet[0] == 0x05
                    && packet[1] == 0x64
                    && packet[2] >= 5
                    && crc16_dnp(&packet[..8]) == u16::from_le_bytes([packet[8], packet[9]])
            }
            FrameSpec::Iccp => {
                len >= 5
                    && packet[0] == 0x54
                    && packet[1] == 0x32
                    && usize::from(u16::from_be_bytes([packet[3], packet[4]])) + 5 == len
            }
            FrameSpec::TpktCotp => {
                len >= 7
                    && packet[0] == 0x03
                    && packet[1] == 0x00
                    && usize::from(u16::from_be_bytes([packet[2], packet[3]])) == len
                    && packet[4] >= 2
                    && usize::from(packet[4]) + 5 <= len
                    && packet[5] == 0xF0
            }
        }
    }
}
