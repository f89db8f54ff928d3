//! Interned opcode identifiers.
//!
//! [`OpId`] is a dense `u16` id covering every possible instruction byte: the
//! 144 Shanghai opcodes occupy ids `0..144` (their index in
//! [`SHANGHAI_OPCODES`]) and the 112 unassigned byte values map to
//! `144 + byte`, so the full id space has [`OpId::CARDINALITY`] = 400 slots.
//! Feature encoders index plain arrays by [`OpId::index`] instead of hashing
//! heap-allocated mnemonic strings, which is what makes the single-pass
//! featurization pipeline allocation-free on its hot path.
//!
//! The string-ish [`Mnemonic`] type remains the *display layer*: convert
//! with [`OpId::mnemonic`] only when rendering.
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::opid::OpId;
//!
//! let mstore = OpId::from_byte(0x52);
//! assert!(mstore.is_known());
//! assert_eq!(mstore.byte(), 0x52);
//! assert_eq!(mstore.gas(), Some(3));
//! assert_eq!(mstore.mnemonic().name(), "MSTORE");
//!
//! let gap = OpId::from_byte(0x0C); // unassigned in Shanghai
//! assert!(!gap.is_known());
//! assert_eq!(gap.byte(), 0x0C);
//! assert_eq!(gap.gas(), None);
//! ```

use crate::disasm::Mnemonic;
use crate::opcodes::{OpcodeInfo, SHANGHAI_OPCODES, SHANGHAI_OPCODE_COUNT};
use std::fmt;

/// Interned id of one instruction byte (defined opcode or unassigned byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(u16);

/// Byte → id lookup table, built at compile time.
static BYTE_TO_ID: [u16; 256] = {
    let mut lut = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        lut[b] = (SHANGHAI_OPCODE_COUNT + b) as u16;
        b += 1;
    }
    let mut i = 0usize;
    while i < SHANGHAI_OPCODES.len() {
        lut[SHANGHAI_OPCODES[i].byte as usize] = i as u16;
        i += 1;
    }
    lut
};

impl OpId {
    /// Total number of distinct ids: 144 defined opcodes + 256 raw byte
    /// slots for the unassigned values.
    pub const CARDINALITY: usize = SHANGHAI_OPCODE_COUNT + 256;

    /// Interns an instruction byte.
    #[inline]
    pub fn from_byte(byte: u8) -> OpId {
        OpId(BYTE_TO_ID[byte as usize])
    }

    /// Reconstructs an id from its dense index.
    ///
    /// Inverse of [`OpId::index`]: accepts only indices that
    /// [`OpId::from_byte`] can produce. Out-of-range indices *and* the 144
    /// raw-byte slots shadowed by defined opcodes (which no byte ever
    /// interns to) return `None`, so a reconstructed id always satisfies
    /// `OpId::from_byte(id.byte()) == id`.
    pub fn from_index(index: usize) -> Option<OpId> {
        if index >= Self::CARDINALITY {
            return None;
        }
        let id = OpId(index as u16);
        if !id.is_known() && crate::opcodes::is_defined(id.byte()) {
            return None; // aliased slot: this byte interns to its table index
        }
        Some(id)
    }

    /// Dense index in `0..CARDINALITY`, suitable for direct array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` when this id names a Shanghai-defined opcode.
    #[inline]
    pub const fn is_known(self) -> bool {
        (self.0 as usize) < SHANGHAI_OPCODE_COUNT
    }

    /// The registry entry, for defined opcodes.
    #[inline]
    pub fn info(self) -> Option<&'static OpcodeInfo> {
        if self.is_known() {
            Some(&SHANGHAI_OPCODES[self.0 as usize])
        } else {
            None
        }
    }

    /// The raw instruction byte this id was interned from.
    #[inline]
    pub fn byte(self) -> u8 {
        match self.info() {
            Some(info) => info.byte,
            None => (self.0 as usize - SHANGHAI_OPCODE_COUNT) as u8,
        }
    }

    /// Static gas cost (`None` for `INVALID` and unassigned bytes).
    #[inline]
    pub fn gas(self) -> Option<u32> {
        self.info().and_then(|i| i.gas)
    }

    /// Display-layer view of this id.
    #[inline]
    pub fn mnemonic(self) -> Mnemonic {
        Mnemonic::from_byte(self.byte())
    }
}

impl From<u8> for OpId {
    fn from(byte: u8) -> Self {
        OpId::from_byte(byte)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcodes::{is_defined, opcode_info};

    #[test]
    fn byte_round_trips_for_all_256_values() {
        for b in 0..=255u8 {
            let id = OpId::from_byte(b);
            assert_eq!(id.byte(), b, "byte 0x{b:02X} did not round-trip");
            assert_eq!(id.is_known(), is_defined(b));
            assert_eq!(OpId::from_index(id.index()), Some(id));
        }
    }

    #[test]
    fn mnemonic_round_trips_for_all_256_values() {
        for b in 0..=255u8 {
            let id = OpId::from_byte(b);
            let m = id.mnemonic();
            assert_eq!(m.byte(), b);
            match opcode_info(b) {
                Some(info) => {
                    assert_eq!(m.name(), info.mnemonic);
                    assert_eq!(id.gas(), info.gas);
                    assert_eq!(id.info(), Some(info));
                }
                None => {
                    assert_eq!(m.name(), format!("UNKNOWN_0x{b:02X}"));
                    assert_eq!(id.gas(), None);
                    assert_eq!(id.info(), None);
                }
            }
        }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let mut seen = [false; OpId::CARDINALITY];
        for b in 0..=255u8 {
            let idx = OpId::from_byte(b).index();
            assert!(idx < OpId::CARDINALITY);
            // Known opcodes and raw bytes never collide: a defined byte maps
            // below SHANGHAI_OPCODE_COUNT, leaving its raw slot unused.
            if seen[idx] {
                panic!("id collision at index {idx}");
            }
            seen[idx] = true;
        }
        assert_eq!(
            seen.iter().filter(|&&s| s).count(),
            256,
            "every byte claims exactly one id"
        );
    }

    #[test]
    fn known_ids_match_registry_order() {
        for (i, info) in SHANGHAI_OPCODES.iter().enumerate() {
            let id = OpId::from_byte(info.byte);
            assert_eq!(id.index(), i);
            assert!(id.is_known());
        }
    }

    #[test]
    fn out_of_range_index_rejected() {
        assert_eq!(OpId::from_index(OpId::CARDINALITY), None);
        // CARDINALITY - 1 is the raw slot of 0xFF (SELFDESTRUCT): in range
        // but aliased, so it is rejected too; 0xFC's raw slot is the highest
        // reconstructible index.
        assert_eq!(OpId::from_index(OpId::CARDINALITY - 1), None);
        assert_eq!(
            OpId::from_index(SHANGHAI_OPCODE_COUNT + 0xFC),
            Some(OpId::from_byte(0xFC))
        );
    }

    #[test]
    fn aliased_raw_slots_rejected() {
        // The raw-byte slot of a defined opcode (e.g. MSTORE, 0x52) is never
        // produced by interning; from_index must refuse to fabricate it.
        assert!(OpId::from_byte(0x52).is_known());
        assert_eq!(OpId::from_index(SHANGHAI_OPCODE_COUNT + 0x52), None);
        // But the raw slot of a genuinely unassigned byte round-trips.
        let gap = OpId::from_byte(0x0C);
        assert_eq!(OpId::from_index(gap.index()), Some(gap));
        // Every reconstructible id satisfies the interning round trip.
        for idx in 0..OpId::CARDINALITY {
            if let Some(id) = OpId::from_index(idx) {
                assert_eq!(OpId::from_byte(id.byte()), id);
            }
        }
    }
}
