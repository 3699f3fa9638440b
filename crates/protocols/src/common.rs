//! Shared infrastructure for the protocol targets: point/register databases
//! and small parsing helpers.

use std::collections::HashMap;

/// A bank of 16-bit holding/input registers plus single-bit coils, shared by
/// the Modbus, IEC 60870 and DNP3 targets as their simulated process image.
#[derive(Debug, Clone)]
pub struct PointDatabase {
    registers: Vec<u16>,
    coils: Vec<bool>,
    /// Named analogue values addressed by object reference (used by the MMS
    /// and ICCP targets).
    named_points: HashMap<String, f64>,
}

impl PointDatabase {
    /// Creates a database with the given number of registers and coils,
    /// initialised to a deterministic ramp pattern.
    #[must_use]
    pub fn new(registers: usize, coils: usize) -> Self {
        Self {
            registers: (0..registers).map(|i| (i as u16).wrapping_mul(3)).collect(),
            coils: (0..coils).map(|i| i % 3 == 0).collect(),
            named_points: HashMap::new(),
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Number of coils.
    #[must_use]
    pub fn coil_count(&self) -> usize {
        self.coils.len()
    }

    /// Reads register `address`, if in range.
    #[must_use]
    pub fn register(&self, address: usize) -> Option<u16> {
        self.registers.get(address).copied()
    }

    /// Writes register `address`; returns `false` when out of range.
    pub fn set_register(&mut self, address: usize, value: u16) -> bool {
        match self.registers.get_mut(address) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Reads coil `address`, if in range.
    #[must_use]
    pub fn coil(&self, address: usize) -> Option<bool> {
        self.coils.get(address).copied()
    }

    /// Writes coil `address`; returns `false` when out of range.
    pub fn set_coil(&mut self, address: usize, value: bool) -> bool {
        match self.coils.get_mut(address) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Reads a named point.
    #[must_use]
    pub fn named_point(&self, reference: &str) -> Option<f64> {
        self.named_points.get(reference).copied()
    }

    /// Writes a named point, creating it if necessary. Returns the previous
    /// value, if any.
    pub fn set_named_point(&mut self, reference: impl Into<String>, value: f64) -> Option<f64> {
        self.named_points.insert(reference.into(), value)
    }

    /// Number of named points currently defined.
    #[must_use]
    pub fn named_point_count(&self) -> usize {
        self.named_points.len()
    }
}

impl Default for PointDatabase {
    fn default() -> Self {
        Self::new(128, 64)
    }
}

/// Reads a big-endian `u16` at `offset`, if the slice is long enough.
#[must_use]
pub fn read_u16_be(data: &[u8], offset: usize) -> Option<u16> {
    let bytes = data.get(offset..offset + 2)?;
    Some(u16::from_be_bytes([bytes[0], bytes[1]]))
}

/// Reads a little-endian `u16` at `offset`, if the slice is long enough.
#[must_use]
pub fn read_u16_le(data: &[u8], offset: usize) -> Option<u16> {
    let bytes = data.get(offset..offset + 2)?;
    Some(u16::from_le_bytes([bytes[0], bytes[1]]))
}

/// Reads a big-endian `u32` at `offset`, if the slice is long enough.
#[must_use]
pub fn read_u32_be(data: &[u8], offset: usize) -> Option<u32> {
    let bytes = data.get(offset..offset + 4)?;
    Some(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Reads a 24-bit little-endian unsigned integer at `offset` (IEC 60870
/// information object addresses).
#[must_use]
pub fn read_u24_le(data: &[u8], offset: usize) -> Option<u32> {
    let bytes = data.get(offset..offset + 3)?;
    Some(u32::from(bytes[0]) | (u32::from(bytes[1]) << 8) | (u32::from(bytes[2]) << 16))
}

/// The outcome and the trace of one packet, for the targets' unit tests:
/// a target answers with its outcome class only, so tests read the branch
/// a packet took from its trace.
#[cfg(test)]
pub(crate) fn traced(
    target: &mut dyn crate::Target,
    packet: &[u8],
) -> (crate::Outcome, peachstar_coverage::SparseTrace) {
    let mut ctx = peachstar_coverage::TraceContext::new();
    let outcome = target.process(packet, &mut ctx);
    (outcome, ctx.trace().to_sparse())
}

/// Every hit of `trace`: one per edge a packet took, loops counted.
#[cfg(test)]
pub(crate) fn total_hits(trace: &peachstar_coverage::SparseTrace) -> u32 {
    trace.hits().iter().map(|&(_, count)| u32::from(count)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bank_bounds() {
        let mut db = PointDatabase::new(4, 2);
        assert_eq!(db.register_count(), 4);
        assert!(db.register(3).is_some());
        assert!(db.register(4).is_none());
        assert!(db.set_register(2, 0xbeef));
        assert_eq!(db.register(2), Some(0xbeef));
        assert!(!db.set_register(100, 1));
    }

    #[test]
    fn coil_bank_bounds() {
        let mut db = PointDatabase::new(1, 3);
        assert!(db.set_coil(2, true));
        assert_eq!(db.coil(2), Some(true));
        assert!(!db.set_coil(3, true));
        assert_eq!(db.coil(5), None);
    }

    #[test]
    fn named_points_insert_and_lookup() {
        let mut db = PointDatabase::default();
        assert_eq!(db.named_point("ld0/MMXU1.TotW"), None);
        assert_eq!(db.set_named_point("ld0/MMXU1.TotW", 42.5), None);
        assert_eq!(db.named_point("ld0/MMXU1.TotW"), Some(42.5));
        assert_eq!(db.set_named_point("ld0/MMXU1.TotW", 1.0), Some(42.5));
        assert_eq!(db.named_point_count(), 1);
    }

    #[test]
    fn byte_readers_handle_bounds() {
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9a];
        assert_eq!(read_u16_be(&data, 0), Some(0x1234));
        assert_eq!(read_u16_le(&data, 0), Some(0x3412));
        assert_eq!(read_u32_be(&data, 1), Some(0x3456789a));
        assert_eq!(read_u24_le(&data, 2), Some(0x9a7856));
        assert_eq!(read_u16_be(&data, 4), None);
        assert_eq!(read_u32_be(&data, 2), None);
        assert_eq!(read_u24_le(&data, 3), None);
    }

    #[test]
    fn default_database_has_ramp_pattern() {
        let db = PointDatabase::default();
        assert_eq!(db.register(0), Some(0));
        assert_eq!(db.register(1), Some(3));
        assert_eq!(db.coil(0), Some(true));
        assert_eq!(db.coil(1), Some(false));
    }
}
