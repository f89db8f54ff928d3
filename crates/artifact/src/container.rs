//! The sectioned artifact container: magic, format version, named
//! checksummed sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "PHKA"            magic, 4 bytes
//! u32               FORMAT_VERSION
//! u32               section count
//! per section:
//!   u32             name length    ∥ name bytes (UTF-8)
//!   u64             payload length
//!   u64             FNV-1a 64 checksum of the payload
//!   payload bytes
//! ```
//!
//! Section names are unique within a container; payload schemas are owned
//! by the domain codecs that write them.

use crate::cursor::{ByteReader, ByteWriter};
use crate::error::ArtifactError;
use std::path::Path;

/// Artifact file magic: **P**hishing**H**oo**K** **A**rtifact.
pub const MAGIC: [u8; 4] = *b"PHKA";

/// Current container format version. Readers reject anything else.
pub const FORMAT_VERSION: u32 = 1;

/// Builds an artifact as an ordered list of named sections.
#[derive(Debug, Clone, Default)]
pub struct ArtifactWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl ArtifactWriter {
    /// Creates an empty container.
    pub fn new() -> Self {
        ArtifactWriter::default()
    }

    /// Appends a named section.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already added — duplicate names would make
    /// [`ArtifactReader::section`] ambiguous, so this is a writer bug.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate artifact section {name:?}"
        );
        self.sections.push((name.to_string(), payload));
        self
    }

    /// Serializes the container.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.put_str(name);
            w.put_usize(payload.len());
            w.put_u64(crate::checksum(payload));
            w.put_raw(payload);
        }
        w.into_bytes()
    }

    /// Serializes the container straight to a file.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure, as [`ArtifactError::Io`].
    pub fn write_file(self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.into_bytes())?;
        Ok(())
    }
}

/// A parsed artifact: header verified, every section checksummed.
///
/// Section payloads are *borrowed* slices of the input buffer — parsing a
/// multi-megabyte model artifact allocates only the section index, never a
/// second copy of the tensors. Keep the source bytes alive for the
/// reader's lifetime (the `Detector`/`CascadeDetector` load paths do).
#[derive(Debug, Clone)]
pub struct ArtifactReader<'a> {
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and verifies a serialized container.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Format`] on bad magic or an unsupported version,
    /// [`ArtifactError::Corrupt`] on truncation, and
    /// [`ArtifactError::Checksum`] when a section's payload does not hash
    /// to its stored checksum.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let magic = r
            .take_raw(4)
            .map_err(|_| ArtifactError::Format("shorter than the 4-byte magic".into()))?;
        if magic != MAGIC {
            return Err(ArtifactError::Format(format!(
                "bad magic {magic:02X?}, expected {MAGIC:02X?} (\"PHKA\")"
            )));
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::Format(format!(
                "format version {version} not supported (reader knows {FORMAT_VERSION})"
            )));
        }
        let count = r.take_u32()?;
        let mut sections: Vec<(String, &'a [u8])> = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let name = r.take_str()?;
            let len = r.take_usize()?;
            let stored = r.take_u64()?;
            let payload = r.take_raw(len)?;
            if crate::checksum(payload) != stored {
                return Err(ArtifactError::Checksum(format!("section {name:?}")));
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(ArtifactError::Format(format!("duplicate section {name:?}")));
            }
            sections.push((name, payload));
        }
        r.expect_exhausted("artifact container")?;
        Ok(ArtifactReader { sections })
    }

    /// Section names, in container order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Consumes the reader into its `(name, payload)` list, in container
    /// order — the seam the owning container
    /// ([`OwnedArtifact`](crate::OwnedArtifact)) converts into byte ranges
    /// so both parse paths share one validation implementation.
    pub fn into_sections(self) -> Vec<(String, &'a [u8])> {
        self.sections
    }

    /// A required section's payload.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&'a [u8], ArtifactError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .ok_or_else(|| ArtifactError::MissingSection(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.section("meta", b"hello".to_vec());
        w.section("model", vec![0u8; 64]);
        w.into_bytes()
    }

    #[test]
    fn container_round_trips() {
        let bytes = sample();
        let r = ArtifactReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.section_names(), vec!["meta", "model"]);
        assert_eq!(r.section("meta").unwrap(), b"hello");
        assert_eq!(r.section("model").unwrap().len(), 64);
        assert!(matches!(
            r.section("absent"),
            Err(ArtifactError::MissingSection(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            ArtifactReader::from_bytes(&bytes),
            Err(ArtifactError::Format(_))
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[4] = 0xFF; // version little-endian low byte
        assert!(matches!(
            ArtifactReader::from_bytes(&bytes),
            Err(ArtifactError::Format(_))
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = sample();
        let last = bytes.len() - 1; // inside the "model" payload
        bytes[last] ^= 0x01;
        assert!(matches!(
            ArtifactReader::from_bytes(&bytes),
            Err(ArtifactError::Checksum(_))
        ));
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample();
        for cut in [0, 3, 7, 11, bytes.len() - 1] {
            assert!(
                ArtifactReader::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate artifact section")]
    fn duplicate_sections_are_a_writer_bug() {
        let mut w = ArtifactWriter::new();
        w.section("meta", Vec::new());
        w.section("meta", Vec::new());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("phk_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.phk");
        let mut w = ArtifactWriter::new();
        w.section("s", vec![9, 9, 9]);
        w.write_file(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let r = ArtifactReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.section("s").unwrap(), &[9, 9, 9]);
        std::fs::remove_file(&path).ok();
    }
}
