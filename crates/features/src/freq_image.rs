//! Frequency-encoded RGB images of disassembled bytecode — the ViT+Freq
//! representation.
//!
//! "A lookup table encodes each opcode and operand of the disassembled
//! bytecode to a numerical value which corresponds to their frequency of
//! appearance in the training set. [...] The concept relies on assigning
//! higher pixel intensity values in the R, G, and B channels to the most
//! frequently encountered mnemonics, operands and gas consumptions."
//! (§IV-B)
//!
//! One decoded instruction becomes one pixel: R from the op's training-set
//! frequency (a dense [`OpId`]-indexed table), G from the operand's, B from
//! the gas value's. The lookup tables are built exactly once, on the
//! training split's [`DisasmCache`]s; encoding reads the shared cache and
//! allocates nothing but the output image.

use crate::featurizer::{FeatureVec, Featurizer};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_evm::{DisasmCache, OpId};
use std::collections::HashMap;

/// Default image side used by the [`Featurizer`] impl.
pub const DEFAULT_SIDE: usize = 32;

/// Fitted frequency tables plus the output image geometry.
#[derive(Debug, Clone)]
pub struct FreqImageEncoder {
    side: usize,
    /// Dense `OpId::index() -> intensity` table.
    mnemonic_freq: Vec<f32>,
    operand_freq: HashMap<Vec<u8>, f32>,
    gas_freq: HashMap<Option<u32>, f32>,
}

impl FreqImageEncoder {
    /// Fits the three lookup tables (op id, operand, gas) on the training
    /// caches and fixes the image side.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    pub fn fit(training: &[DisasmCache], side: usize) -> Self {
        assert!(side > 0, "image side must be positive");
        let mut mnemonic_counts = vec![0u64; OpId::CARDINALITY];
        let mut operand_counts: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut gas_counts: HashMap<Option<u32>, u64> = HashMap::new();
        for cache in training {
            for op in cache.ops() {
                mnemonic_counts[op.id.index()] += 1;
                // Look up by slice; only an operand's first sighting
                // allocates its key.
                match operand_counts.get_mut(op.operand) {
                    Some(count) => *count += 1,
                    None => {
                        operand_counts.insert(op.operand.to_vec(), 1);
                    }
                }
                *gas_counts.entry(op.gas()).or_insert(0) += 1;
            }
        }
        FreqImageEncoder {
            side,
            mnemonic_freq: normalize_dense(&mnemonic_counts),
            operand_freq: normalize(&operand_counts),
            gas_freq: normalize(&gas_counts),
        }
    }

    /// Image side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Length of the produced feature vector (`3 · side²`).
    pub fn len(&self) -> usize {
        3 * self.side * self.side
    }

    /// Always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes the three fitted lookup tables plus the image side.
    /// Hash-map tables are written in sorted key order so identical
    /// encoders always serialize to identical bytes.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.side);
        w.put_f32_slice(&self.mnemonic_freq);

        let mut operands: Vec<(&Vec<u8>, f32)> =
            self.operand_freq.iter().map(|(k, &v)| (k, v)).collect();
        operands.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(operands.len());
        for (key, v) in operands {
            w.put_bytes(key);
            w.put_f32(v);
        }

        // Option<u32> keys sort None first, then by gas value.
        let mut gas: Vec<(Option<u32>, f32)> =
            self.gas_freq.iter().map(|(&k, &v)| (k, v)).collect();
        gas.sort_by_key(|(k, _)| *k);
        w.put_usize(gas.len());
        for (key, v) in gas {
            match key {
                None => w.put_u8(0),
                Some(g) => {
                    w.put_u8(1);
                    w.put_u32(g);
                }
            }
            w.put_f32(v);
        }
    }

    /// Rebuilds a fitted encoder from [`FreqImageEncoder::write_state`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on truncation, a zero side, or a
    /// mnemonic table that does not cover the opcode id space.
    pub fn read_state(r: &mut ByteReader<'_>) -> Result<Self, ArtifactError> {
        let side = r.take_usize()?;
        if side == 0 {
            return Err(ArtifactError::Corrupt("image side must be positive".into()));
        }
        let mnemonic_freq = r.take_f32_slice()?;
        if mnemonic_freq.len() != OpId::CARDINALITY {
            return Err(ArtifactError::Corrupt(format!(
                "mnemonic table holds {} entries, expected {}",
                mnemonic_freq.len(),
                OpId::CARDINALITY
            )));
        }
        let n_ops = r.take_usize()?;
        let mut operand_freq = HashMap::with_capacity(n_ops.min(1 << 16));
        for _ in 0..n_ops {
            let key = r.take_bytes()?.to_vec();
            let v = r.take_f32()?;
            if operand_freq.insert(key, v).is_some() {
                return Err(ArtifactError::Corrupt("duplicate operand table key".into()));
            }
        }
        let n_gas = r.take_usize()?;
        let mut gas_freq = HashMap::with_capacity(n_gas.min(1 << 16));
        for _ in 0..n_gas {
            let key = match r.take_u8()? {
                0 => None,
                1 => Some(r.take_u32()?),
                tag => {
                    return Err(ArtifactError::Corrupt(format!(
                        "gas key tag {tag} (expected 0 or 1)"
                    )))
                }
            };
            let v = r.take_f32()?;
            if gas_freq.insert(key, v).is_some() {
                return Err(ArtifactError::Corrupt(format!(
                    "duplicate gas table key {key:?}"
                )));
            }
        }
        Ok(FreqImageEncoder {
            side,
            mnemonic_freq,
            operand_freq,
            gas_freq,
        })
    }

    /// Encodes one contract: instruction `k` becomes pixel `k` with channel
    /// intensities given by the fitted frequency tables (unseen entries get
    /// intensity 0, like any out-of-vocabulary element).
    pub fn encode(&self, contract: &DisasmCache) -> Vec<f32> {
        let pixels = self.side * self.side;
        let mut out = vec![0.0f32; 3 * pixels];
        for (k, op) in contract.ops().take(pixels).enumerate() {
            out[k] = self.mnemonic_freq[op.id.index()];
            out[pixels + k] = self.operand_freq.get(op.operand).copied().unwrap_or(0.0);
            out[2 * pixels + k] = self.gas_freq.get(&op.gas()).copied().unwrap_or(0.0);
        }
        out
    }
}

impl Featurizer for FreqImageEncoder {
    const NAME: &'static str = "freq_image";

    fn fit(training: &[DisasmCache]) -> Self {
        FreqImageEncoder::fit(training, DEFAULT_SIDE)
    }

    fn encode(&self, contract: &DisasmCache) -> FeatureVec {
        FeatureVec::Dense(self.encode(contract))
    }
}

/// Log-scaled max-normalization: the most frequent entry gets intensity 1.
fn normalize<K: std::hash::Hash + Eq + Clone>(counts: &HashMap<K, u64>) -> HashMap<K, f32> {
    let max = counts.values().copied().max().unwrap_or(1) as f32;
    counts
        .iter()
        .map(|(k, &c)| (k.clone(), (1.0 + c as f32).ln() / (1.0 + max).ln()))
        .collect()
}

/// Dense-table variant of [`normalize`]; zero counts stay at intensity 0.
fn normalize_dense(counts: &[u64]) -> Vec<f32> {
    let max = counts.iter().copied().max().unwrap_or(1).max(1) as f32;
    let denom = (1.0 + max).ln();
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0.0
            } else {
                (1.0 + c as f32).ln() / denom
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::Bytecode;

    fn cache(hex: &str) -> DisasmCache {
        DisasmCache::build(&Bytecode::from_hex(hex).unwrap())
    }

    #[test]
    fn most_frequent_mnemonic_gets_highest_red() {
        // PUSH1 appears twice, MSTORE once.
        let train = vec![cache("0x6080604052")];
        let enc = FreqImageEncoder::fit(&train, 4);
        let img = enc.encode(&train[0]);
        let push1_red = img[0];
        let mstore_red = img[2];
        assert!(push1_red > mstore_red, "{push1_red} vs {mstore_red}");
        assert!((push1_red - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unseen_instruction_is_dark() {
        let train = vec![cache("0x6080")];
        let enc = FreqImageEncoder::fit(&train, 4);
        let img = enc.encode(&cache("0x01")); // ADD never seen
                                              // Gas 3 was seen (PUSH1 has gas 3, ADD also gas 3) so blue may fire,
                                              // but the red (mnemonic) channel must be zero.
        assert_eq!(img[0], 0.0);
    }

    #[test]
    fn output_dimensions() {
        let enc = FreqImageEncoder::fit(&[cache("0x6080")], 8);
        assert_eq!(enc.encode(&cache("0x6080")).len(), 3 * 64);
        assert_eq!(enc.len(), 192);
    }

    #[test]
    fn intensities_in_unit_range() {
        let train: Vec<DisasmCache> = vec![cache("0x6080604052"), cache("0x010203")];
        let enc = FreqImageEncoder::fit(&train, 8);
        for c in &train {
            assert!(enc.encode(c).iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn empty_code_is_black() {
        let enc = FreqImageEncoder::fit(&[cache("0x6080")], 4);
        assert!(enc.encode(&cache("0x")).iter().all(|&v| v == 0.0));
    }
}
