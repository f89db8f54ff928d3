//! The common featurizer protocol.
//!
//! Every encoder in this crate implements [`Featurizer`]: it is *fitted* on
//! a slice of per-contract [`DisasmCache`]s (the training split, decoded
//! exactly once) and then *encodes* individual caches into a
//! [`FeatureVec`]. Because all six encoders share the same decoded stream,
//! a dataset pass disassembles each contract once, no matter how many
//! representations are extracted from it.
//!
//! # Examples
//!
//! ```
//! use phishinghook_evm::{Bytecode, DisasmCache};
//! use phishinghook_features::{Featurizer, HistogramEncoder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let caches = vec![DisasmCache::build(&Bytecode::from_hex("0x6080604052")?)];
//! let encoder = <HistogramEncoder as Featurizer>::fit(&caches);
//! let features = Featurizer::encode(&encoder, &caches[0]);
//! assert_eq!(features.as_dense().unwrap().iter().sum::<f32>(), 3.0);
//! # Ok(())
//! # }
//! ```

use phishinghook_evm::DisasmCache;

/// The output of one encoder for one contract.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureVec {
    /// A dense real-valued vector (histograms, images, embeddings).
    Dense(Vec<f32>),
    /// A fixed-length integer id sequence (SCSGuard bigrams).
    Ids(Vec<u32>),
    /// One or more fixed-length id windows (language-model tokens).
    Windows(Vec<Vec<u32>>),
}

/// A borrowed view of one sample's features inside a column store — the
/// zero-copy counterpart of [`FeatureVec`] that
/// [`FeatureMatrix::row`](crate::store::FeatureMatrix::row) hands out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureRow<'a> {
    /// Dense real-valued row.
    Dense(&'a [f32]),
    /// Fixed-length id row.
    Ids(&'a [u32]),
    /// Per-sample window list.
    Windows(&'a [Vec<u32>]),
}

impl FeatureRow<'_> {
    /// Total scalar count across the representation.
    pub fn len(&self) -> usize {
        match self {
            FeatureRow::Dense(v) => v.len(),
            FeatureRow::Ids(v) => v.len(),
            FeatureRow::Windows(w) => w.iter().map(Vec::len).sum(),
        }
    }

    /// `true` when the view holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FeatureVec {
    /// Total scalar count across the representation.
    pub fn len(&self) -> usize {
        match self {
            FeatureVec::Dense(v) => v.len(),
            FeatureVec::Ids(v) => v.len(),
            FeatureVec::Windows(w) => w.iter().map(Vec::len).sum(),
        }
    }

    /// `true` when the representation holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense accessor.
    pub fn as_dense(&self) -> Option<&[f32]> {
        match self {
            FeatureVec::Dense(v) => Some(v),
            _ => None,
        }
    }

    /// Id-sequence accessor.
    pub fn as_ids(&self) -> Option<&[u32]> {
        match self {
            FeatureVec::Ids(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed view of this vector.
    pub fn as_row(&self) -> FeatureRow<'_> {
        match self {
            FeatureVec::Dense(v) => FeatureRow::Dense(v),
            FeatureVec::Ids(v) => FeatureRow::Ids(v),
            FeatureVec::Windows(w) => FeatureRow::Windows(w),
        }
    }
}

/// Fit-then-encode protocol shared by all six encoders.
///
/// `fit` sees only the training split (the paper constructs every lookup
/// table "exactly once on the entire contract training set") and the
/// returned encoder is immutable thereafter. Encoders with geometry knobs
/// (image side, vocabulary caps, context length) expose richer constructors;
/// the trait methods use their documented defaults so generic pipelines can
/// drive any encoder uniformly.
pub trait Featurizer: Sized {
    /// Short stable name, used in benches and reports.
    const NAME: &'static str;

    /// Builds the encoder from the training split.
    fn fit(training: &[DisasmCache]) -> Self;

    /// Encodes one contract.
    fn encode(&self, contract: &DisasmCache) -> FeatureVec;

    /// Encodes a batch, preserving order.
    fn encode_all(&self, batch: &[DisasmCache]) -> Vec<FeatureVec> {
        batch.iter().map(|c| self.encode(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_vec_lengths() {
        assert_eq!(FeatureVec::Dense(vec![0.0; 7]).len(), 7);
        assert_eq!(FeatureVec::Ids(vec![1, 2, 3]).len(), 3);
        assert_eq!(FeatureVec::Windows(vec![vec![0; 4], vec![0; 4]]).len(), 8);
        assert!(FeatureVec::Dense(vec![]).is_empty());
    }

    #[test]
    fn accessors_are_exclusive() {
        let d = FeatureVec::Dense(vec![1.0]);
        assert!(d.as_dense().is_some());
        assert!(d.as_ids().is_none());
    }
}
