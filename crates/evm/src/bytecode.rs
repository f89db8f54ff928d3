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
        let bytes = digits.as_bytes();
        let mut out = vec![0u8; bytes.len() / 2];
        // One table lookup per digit and no branch: an invalid digit sets
        // the high bit, which survives the OR and is checked once at the end.
        let mut invalid = 0u8;
        for (byte, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
            let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
            invalid |= hi | lo;
            *byte = (hi << 4) | lo;
        }
        if invalid & INVALID != 0 {
            return Err(first_invalid_digit(bytes));
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

/// Marks a non-hex byte in [`NIBBLE`]; no digit value has this bit.
const INVALID: u8 = 0x80;

/// Digit value of every byte: `0..=15` for `0-9`, `a-f` and `A-F`,
/// [`INVALID`] for everything else.
const NIBBLE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// The error for the first non-hex byte of `digits`, which holds one.
fn first_invalid_digit(digits: &[u8]) -> ParseBytecodeError {
    let index = digits
        .iter()
        .position(|&c| NIBBLE[c as usize] & INVALID != 0)
        .expect("the decode loop saw an invalid digit");
    ParseBytecodeError::InvalidDigit {
        index,
        found: digits[index] as char,
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

    /// The branchy per-digit decoder `from_hex` replaced, kept as the
    /// reference its results and errors must match exactly.
    fn from_hex_reference(hex: &str) -> Result<Vec<u8>, ParseBytecodeError> {
        fn hex_val(c: u8) -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        }
        let digits = hex.strip_prefix("0x").unwrap_or(hex);
        if !digits.len().is_multiple_of(2) {
            return Err(ParseBytecodeError::OddLength {
                digits: digits.len(),
            });
        }
        let mut out = Vec::with_capacity(digits.len() / 2);
        for (i, pair) in digits.as_bytes().chunks_exact(2).enumerate() {
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
        Ok(out)
    }

    fn assert_matches_reference(text: &str) {
        let got = Bytecode::from_hex(text).map(|c| c.as_bytes().to_vec());
        assert_eq!(got, from_hex_reference(text), "{text:?}");
    }

    /// Non-hex characters of one to four UTF-8 bytes.
    const NOT_HEX: [char; 10] = [
        'g',
        'G',
        'x',
        'z',
        ' ',
        '\0',
        '\u{7f}',
        '\u{e9}',
        '€',
        '\u{1F600}',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Mixed-case digit strings, with or without `0x`, cut to an odd
        /// length or given one bad character anywhere, decode to the
        /// reference's bytes or to its exact error.
        #[test]
        fn from_hex_matches_the_reference_decoder(
            raw in proptest::collection::vec(proptest::any::<u8>(), 0..300),
            prefix in proptest::any::<bool>(),
            odd in proptest::any::<bool>(),
            bad_at in proptest::any::<u64>(),
            bad in 0usize..NOT_HEX.len() + 1,
        ) {
            const DIGITS: &[u8; 22] = b"0123456789abcdefABCDEF";
            let mut text: String = raw
                .iter()
                .map(|&b| DIGITS[b as usize % DIGITS.len()] as char)
                .collect();
            if odd {
                text.pop();
            }
            if let Some(&c) = NOT_HEX.get(bad) {
                if !text.is_empty() {
                    let at = (bad_at % text.len() as u64) as usize;
                    text.replace_range(at..at + 1, c.encode_utf8(&mut [0; 4]));
                }
            }
            if prefix {
                text.insert_str(0, "0x");
            }
            assert_matches_reference(&text);
            // The same bytes read as arbitrary (lossily decoded) text.
            assert_matches_reference(&String::from_utf8_lossy(&raw));
        }
    }

    #[test]
    fn from_hex_matches_the_reference_on_edge_cases() {
        for text in [
            "",
            "0x",
            "0",
            "0x0",
            "00",
            "0x0x00",
            "0X00",
            "x0",
            "ff",
            "FF",
            "fG",
            "Gf",
            "0x\u{e9}",
            "\u{e9}",
            "a\u{e9}a",
            "0xaa\u{1F600}",
            "00000000000000000z",
            "0123456789abcdefABCDEF",
        ] {
            assert_matches_reference(text);
        }
        // Every byte value in both digit positions.
        for c in 0u8..=0x7f {
            let c = c as char;
            assert_matches_reference(&format!("{c}0"));
            assert_matches_reference(&format!("0x0{c}"));
        }
    }

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
