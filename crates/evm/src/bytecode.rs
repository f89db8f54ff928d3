//! Deployed contract bytecode: parsing, hex formatting and hashing.
//!
//! [`Bytecode`] is the unit the whole pipeline operates on — what the paper's
//! bytecode extraction module (BEM) pulls from the chain via `eth_getCode`.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error produced when parsing a hex string into [`Bytecode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseBytecodeError {
    /// The hex string (after stripping `0x`) had an odd number of digits.
    OddLength {
        /// Number of hex digits found.
        digits: usize,
    },
    /// A character was not a hexadecimal digit.
    InvalidDigit {
        /// Byte offset of the offending character within the digit stream.
        index: usize,
        /// The offending character.
        found: char,
    },
}

impl fmt::Display for ParseBytecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBytecodeError::OddLength { digits } => {
                write!(f, "odd number of hex digits ({digits})")
            }
            ParseBytecodeError::InvalidDigit { index, found } => {
                write!(f, "invalid hex digit {found:?} at index {index}")
            }
        }
    }
}

impl Error for ParseBytecodeError {}

/// Immutable, cheaply-clonable deployed bytecode of a smart contract.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::Bytecode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let code = Bytecode::from_hex("0x6080604052")?;
/// assert_eq!(code.len(), 5);
/// assert_eq!(code.to_hex(), "0x6080604052");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bytecode(Arc<[u8]>);

impl Bytecode {
    /// Creates bytecode from raw bytes.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        Bytecode(bytes.into())
    }

    /// Parses a hex string, with or without a leading `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBytecodeError`] if the digit count is odd or a
    /// non-hexadecimal character is present.
    pub fn from_hex(hex: &str) -> Result<Self, ParseBytecodeError> {
        let digits = hex.strip_prefix("0x").unwrap_or(hex);
        if !digits.len().is_multiple_of(2) {
            return Err(ParseBytecodeError::OddLength {
                digits: digits.len(),
            });
        }
        let mut out = Vec::with_capacity(digits.len() / 2);
        let bytes = digits.as_bytes();
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = hex_val(pair[0]).ok_or(ParseBytecodeError::InvalidDigit {
                index: i * 2,
                found: pair[0] as char,
            })?;
            let lo = hex_val(pair[1]).ok_or(ParseBytecodeError::InvalidDigit {
                index: i * 2 + 1,
                found: pair[1] as char,
            })?;
            out.push((hi << 4) | lo);
        }
        Ok(Bytecode(out.into()))
    }

    /// Returns the bytecode as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for an empty account (no code).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Lower-case hex rendering with a `0x` prefix, as returned by
    /// `eth_getCode`.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(2 + self.0.len() * 2);
        s.push_str("0x");
        for b in self.0.iter() {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xF) as usize] as char);
        }
        s
    }

    /// A 64-bit FNV-1a content hash, used for bit-by-bit deduplication of
    /// minimal-proxy clones (the paper's 17,455 → 3,458 reduction).
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        for &b in self.0.iter() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Display for Bytecode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<Vec<u8>> for Bytecode {
    fn from(v: Vec<u8>) -> Self {
        Bytecode(v.into())
    }
}

impl From<&[u8]> for Bytecode {
    fn from(v: &[u8]) -> Self {
        Bytecode(v.into())
    }
}

impl AsRef<[u8]> for Bytecode {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_and_without_prefix() {
        let a = Bytecode::from_hex("0x6080604052").unwrap();
        let b = Bytecode::from_hex("6080604052").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.as_bytes(), &[0x60, 0x80, 0x60, 0x40, 0x52]);
    }

    #[test]
    fn rejects_odd_length() {
        assert_eq!(
            Bytecode::from_hex("0x608"),
            Err(ParseBytecodeError::OddLength { digits: 3 })
        );
    }

    #[test]
    fn rejects_bad_digit() {
        let err = Bytecode::from_hex("0x60zz").unwrap_err();
        assert_eq!(
            err,
            ParseBytecodeError::InvalidDigit {
                index: 2,
                found: 'z'
            }
        );
        assert!(err.to_string().contains("invalid hex digit"));
    }

    #[test]
    fn hex_round_trip_mixed_case() {
        let code = Bytecode::from_hex("0xDeadBEEF").unwrap();
        assert_eq!(code.to_hex(), "0xdeadbeef");
        let again = Bytecode::from_hex(&code.to_hex()).unwrap();
        assert_eq!(code, again);
    }

    #[test]
    fn empty_code() {
        let code = Bytecode::from_hex("0x").unwrap();
        assert!(code.is_empty());
        assert_eq!(code.to_hex(), "0x");
    }

    #[test]
    fn content_hash_detects_clones_and_differences() {
        let a = Bytecode::from_hex("0x6080604052").unwrap();
        let b = Bytecode::from_hex("0x6080604052").unwrap();
        let c = Bytecode::from_hex("0x6080604053").unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
    }
}
