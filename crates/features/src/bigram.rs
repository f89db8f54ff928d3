//! SCSGuard's n-gram representation.
//!
//! "Each hexadecimal string within the bytecode is read as a bigram
//! (sequences of 6 characters). These bigrams are numerically encoded to
//! create a vocabulary (i.e., a list of integers), and the sequences are
//! padded to uniform lengths." (§IV-B)
//!
//! Six hex characters = three bytes; consecutive non-overlapping 3-byte
//! chunks are mapped to integer ids via a vocabulary built on the training
//! split. Id 0 is reserved for padding and 1 for out-of-vocabulary chunks.
//! The encoder reads the raw bytes of the shared [`DisasmCache`].

use crate::featurizer::{FeatureVec, Featurizer};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::DisasmCache;
use std::collections::HashMap;

/// Reserved padding token id.
pub const PAD: u32 = 0;
/// Reserved out-of-vocabulary token id.
pub const UNK: u32 = 1;

/// Default vocabulary cap used by the [`Featurizer`] impl.
pub const DEFAULT_VOCAB: usize = 2048;
/// Default padded sequence length used by the [`Featurizer`] impl.
pub const DEFAULT_LEN: usize = 48;

/// Fitted bigram vocabulary plus sequence geometry.
#[derive(Debug, Clone)]
pub struct BigramEncoder {
    vocab: HashMap<[u8; 3], u32>,
    max_len: usize,
}

/// Ranks chunks most-frequent-first (ties by chunk bytes, matching the
/// canonical fit order) and assigns the contiguous id range `[2, n + 2)`.
fn rank_vocab(counts: &HashMap<[u8; 3], u64>, max_vocab: usize) -> HashMap<[u8; 3], u32> {
    let mut ranked: Vec<([u8; 3], u64)> = counts.iter().map(|(&k, &v)| (k, v)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(max_vocab)
        .enumerate()
        .map(|(i, (chunk, _))| (chunk, i as u32 + 2)) // 0 = PAD, 1 = UNK
        .collect()
}

impl BigramEncoder {
    /// Builds the vocabulary from the training caches, keeping the
    /// `max_vocab` most frequent chunks, and fixes the padded length.
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0` or `max_vocab == 0`.
    pub fn fit(training: &[DisasmCache], max_vocab: usize, max_len: usize) -> Self {
        assert!(max_len > 0, "max_len must be positive");
        assert!(max_vocab > 0, "max_vocab must be positive");
        let mut counts: HashMap<[u8; 3], u64> = HashMap::new();
        for cache in training {
            for chunk in cache.bytes().chunks_exact(3) {
                *counts.entry([chunk[0], chunk[1], chunk[2]]).or_insert(0) += 1;
            }
        }
        BigramEncoder {
            vocab: rank_vocab(&counts, max_vocab),
            max_len,
        }
    }

    /// Vocabulary size including the PAD and UNK slots (the embedding-table
    /// size a downstream model needs).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len() + 2
    }

    /// Padded sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Serializes the fitted vocabulary (sorted by chunk, so identical
    /// encoders serialize identically) plus the padded length.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.max_len);
        let mut entries: Vec<([u8; 3], u32)> = self.vocab.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_by_key(|(k, _)| *k);
        w.put_usize(entries.len());
        for (chunk, id) in entries {
            w.put_raw(&chunk);
            w.put_u32(id);
        }
    }

    /// Rebuilds a fitted encoder from [`BigramEncoder::write_state`] bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation, a zero length, a reserved
    /// (PAD/UNK) id, or a duplicate chunk.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let max_len = r.take_usize()?;
        if max_len == 0 {
            return Err(ArtifactError::Corrupt("max_len must be positive".into()));
        }
        // Each entry occupies 7 bytes on the wire; the bounded count
        // keeps a crafted payload from forcing a huge pre-allocation.
        let len = r.take_count(7)?;
        let mut vocab = HashMap::with_capacity(len);
        // Fitting assigns the contiguous id range [2, len + 2); anything
        // else would let a reloaded encoder emit ids past the embedding
        // table a downstream model sizes from `vocab_size()`.
        let mut seen_ids = vec![false; len];
        for _ in 0..len {
            let raw = r.take_raw(3)?;
            let chunk = [raw[0], raw[1], raw[2]];
            let id = r.take_u32()?;
            let rank = (id as usize).wrapping_sub(2);
            if id < 2 || rank >= len {
                return Err(ArtifactError::Corrupt(format!(
                    "bigram id {id} outside the contiguous [2, {}) range",
                    len + 2
                )));
            }
            if std::mem::replace(&mut seen_ids[rank], true) {
                return Err(ArtifactError::Corrupt(format!("duplicate bigram id {id}")));
            }
            if vocab.insert(chunk, id).is_some() {
                return Err(ArtifactError::Corrupt(format!(
                    "duplicate bigram chunk {chunk:02X?}"
                )));
            }
        }
        Ok(BigramEncoder { vocab, max_len })
    }

    /// Encodes one contract as a fixed-length id sequence: truncated at
    /// `max_len`, right-padded with [`PAD`].
    pub fn encode(&self, contract: &DisasmCache) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.max_len);
        for chunk in contract.bytes().chunks_exact(3).take(self.max_len) {
            let key = [chunk[0], chunk[1], chunk[2]];
            out.push(self.vocab.get(&key).copied().unwrap_or(UNK));
        }
        out.resize(self.max_len, PAD);
        out
    }
}

impl Featurizer for BigramEncoder {
    const NAME: &'static str = "scsguard_bigram";

    fn fit(training: &[DisasmCache]) -> Self {
        BigramEncoder::fit(training, DEFAULT_VOCAB, DEFAULT_LEN)
    }

    fn encode(&self, contract: &DisasmCache) -> FeatureVec {
        FeatureVec::Ids(self.encode(contract))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn cache(bytes: &[u8]) -> DisasmCache {
        DisasmCache::build(&Bytecode::new(bytes.to_vec()))
    }

    #[test]
    fn ids_start_after_reserved() {
        let train = vec![cache(&[1, 2, 3, 1, 2, 3, 9, 9, 9])];
        let enc = BigramEncoder::fit(&train, 100, 8);
        let ids = enc.encode(&train[0]);
        // Most frequent chunk [1,2,3] gets id 2.
        assert_eq!(ids[0], 2);
        assert_eq!(ids[1], 2);
        assert_eq!(ids[2], 3);
        assert_eq!(ids[3], PAD);
    }

    #[test]
    fn unknown_chunks_map_to_unk() {
        let train = vec![cache(&[1, 2, 3])];
        let enc = BigramEncoder::fit(&train, 10, 4);
        let ids = enc.encode(&cache(&[7, 7, 7]));
        assert_eq!(ids[0], UNK);
    }

    #[test]
    fn sequences_are_uniform_length() {
        let train = vec![cache(&[1, 2, 3, 4, 5, 6])];
        let enc = BigramEncoder::fit(&train, 10, 5);
        assert_eq!(enc.encode(&cache(&[])).len(), 5);
        assert_eq!(enc.encode(&cache(&[1u8; 300])).len(), 5);
    }

    #[test]
    fn vocab_capped() {
        let bytes: Vec<u8> = (0..=255u8).flat_map(|b| [b, b, b]).collect();
        let enc = BigramEncoder::fit(&[cache(&bytes)], 16, 8);
        assert_eq!(enc.vocab_size(), 18);
    }

    #[test]
    fn trailing_partial_chunk_is_dropped() {
        let train = vec![cache(&[1, 2, 3, 4, 5])]; // 5 bytes: one chunk + tail
        let enc = BigramEncoder::fit(&train, 10, 4);
        let ids = enc.encode(&train[0]);
        assert_eq!(ids, vec![2, PAD, PAD, PAD]);
    }
}
