//! Opcode-occurrence histograms — the HSC representation.
//!
//! "For each contract bytecode, a histogram of the occurrences of opcodes is
//! created. It builds a vector of length equal to the number of unique
//! opcodes inside the training set. The vector is directly served as input
//! (i.e., without normalized nor standardized steps)." (§IV-B)
//!
//! The vocabulary is interned: fitting records the distinct [`OpId`]s seen
//! in the training caches (first-seen order) and encoding is a dense
//! array-indexed count — no string hashing anywhere on the hot path.

use crate::featurizer::{FeatureVec, Featurizer};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::{DisasmCache, OpId};

/// Sentinel for "op id not in vocabulary" in the dense index table.
const ABSENT: i32 = -1;

/// Histogram encoder over a vocabulary fitted on the training set.
///
/// # Examples
///
/// ```
/// use phishinghook_evm::{Bytecode, DisasmCache};
/// use phishinghook_features::HistogramEncoder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let train = vec![DisasmCache::build(&Bytecode::from_hex("0x6080604052")?)];
/// let encoder = HistogramEncoder::fit(&train);
/// // Vocabulary: PUSH1 and MSTORE.
/// assert_eq!(encoder.vocab_len(), 2);
/// let features = encoder.encode(&train[0]);
/// assert_eq!(features.iter().sum::<f32>(), 3.0); // raw counts
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HistogramEncoder {
    /// Distinct training-set op ids, in first-seen order.
    vocab: Vec<OpId>,
    /// Dense `OpId::index() -> feature column` table (`ABSENT` = not in
    /// vocabulary).
    index: Vec<i32>,
}

impl HistogramEncoder {
    /// Builds the vocabulary from the distinct op ids observed in the
    /// training caches, in order of first appearance.
    pub fn fit(training: &[DisasmCache]) -> Self {
        let mut vocab = Vec::new();
        let mut index = vec![ABSENT; OpId::CARDINALITY];
        for cache in training {
            for id in cache.op_ids() {
                if index[id.index()] == ABSENT {
                    index[id.index()] = vocab.len() as i32;
                    vocab.push(id);
                }
            }
        }
        HistogramEncoder { vocab, index }
    }

    /// Number of features (distinct training-set op ids).
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Display-layer vocabulary: mnemonic names in feature-column order.
    pub fn vocabulary(&self) -> Vec<String> {
        self.vocab
            .iter()
            .map(|id| id.mnemonic().name().into_owned())
            .collect()
    }

    /// Encodes one contract as raw opcode counts over the vocabulary.
    /// Op ids unseen at fit time are ignored, as with any fixed vocabulary.
    pub fn encode(&self, contract: &DisasmCache) -> Vec<f32> {
        let mut hist = vec![0.0f32; self.vocab.len()];
        for id in contract.op_ids() {
            let col = self.index[id.index()];
            if col != ABSENT {
                hist[col as usize] += 1.0;
            }
        }
        hist
    }

    /// Encodes a batch into row-major `(n, vocab)` features.
    pub fn encode_batch(&self, batch: &[DisasmCache]) -> Vec<Vec<f32>> {
        batch.iter().map(|c| self.encode(c)).collect()
    }

    /// Serializes the fitted vocabulary (interned op indices, in
    /// feature-column order) — the only state this encoder carries.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.vocab.len());
        for id in &self.vocab {
            w.put_u16(id.index() as u16);
        }
    }

    /// Rebuilds a fitted encoder from [`HistogramEncoder::write_state`]
    /// bytes; the dense index table is rederived from the vocabulary.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation, an index no byte interns
    /// to, or a duplicate vocabulary entry.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let len = r.take_usize()?;
        let mut vocab = Vec::with_capacity(len.min(OpId::CARDINALITY));
        let mut index = vec![ABSENT; OpId::CARDINALITY];
        for _ in 0..len {
            let raw = r.take_u16()? as usize;
            let id = OpId::from_index(raw).ok_or_else(|| {
                ArtifactError::Corrupt(format!("op index {raw} is not an internable opcode id"))
            })?;
            if index[id.index()] != ABSENT {
                return Err(ArtifactError::Corrupt(format!(
                    "duplicate vocabulary entry {}",
                    id.mnemonic().name()
                )));
            }
            index[id.index()] = vocab.len() as i32;
            vocab.push(id);
        }
        Ok(HistogramEncoder { vocab, index })
    }
}

impl Featurizer for HistogramEncoder {
    const NAME: &'static str = "histogram";

    fn fit(training: &[DisasmCache]) -> Self {
        HistogramEncoder::fit(training)
    }

    fn encode(&self, contract: &DisasmCache) -> FeatureVec {
        FeatureVec::Dense(self.encode(contract))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn cache(hex: &str) -> DisasmCache {
        DisasmCache::build(&Bytecode::from_hex(hex).unwrap())
    }

    /// Feature column of a display-layer mnemonic.
    fn column(enc: &HistogramEncoder, mnemonic: &str) -> usize {
        enc.vocabulary().iter().position(|m| m == mnemonic).unwrap()
    }

    #[test]
    fn counts_are_raw_not_normalized() {
        let train = vec![cache("0x60806040526080")]; // PUSH1 x3, MSTORE
        let enc = HistogramEncoder::fit(&train);
        let h = enc.encode(&train[0]);
        let push1 = column(&enc, "PUSH1");
        let mstore = column(&enc, "MSTORE");
        assert_eq!(h[push1], 3.0);
        assert_eq!(h[mstore], 1.0);
    }

    #[test]
    fn unseen_mnemonics_are_ignored() {
        let train = vec![cache("0x6080")]; // only PUSH1
        let enc = HistogramEncoder::fit(&train);
        let h = enc.encode(&cache("0x01")); // ADD, not in vocab
        assert_eq!(h, vec![0.0]);
    }

    #[test]
    fn vocabulary_is_deduplicated_first_seen_order() {
        let train = vec![cache("0x6080604052"), cache("0x52020202")];
        let enc = HistogramEncoder::fit(&train);
        assert_eq!(
            enc.vocabulary(),
            vec!["PUSH1".to_string(), "MSTORE".to_string(), "MUL".to_string()]
        );
    }

    #[test]
    fn empty_bytecode_gives_zero_vector() {
        let train = vec![cache("0x6080")];
        let enc = HistogramEncoder::fit(&train);
        assert_eq!(enc.encode(&cache("0x")), vec![0.0]);
    }

    #[test]
    fn batch_matches_single() {
        let train = vec![cache("0x6080604052"), cache("0x0102")];
        let enc = HistogramEncoder::fit(&train);
        let batch = enc.encode_batch(&train);
        assert_eq!(batch[0], enc.encode(&train[0]));
        assert_eq!(batch[1], enc.encode(&train[1]));
    }

    #[test]
    fn unknown_bytes_are_first_class_vocabulary_entries() {
        let train = vec![cache("0x0c0c01")]; // UNKNOWN_0x0C x2, ADD
        let enc = HistogramEncoder::fit(&train);
        let h = enc.encode(&train[0]);
        let unk = column(&enc, "UNKNOWN_0x0C");
        assert_eq!(h[unk], 2.0);
        assert_eq!(enc.vocabulary()[unk], "UNKNOWN_0x0C");
    }

    #[test]
    fn trait_path_matches_inherent_path() {
        let train = vec![cache("0x6080604052")];
        let enc = <HistogramEncoder as Featurizer>::fit(&train);
        let via_trait = Featurizer::encode(&enc, &train[0]);
        assert_eq!(
            via_trait.as_dense().unwrap(),
            enc.encode(&train[0]).as_slice()
        );
    }
}
