//! Feature encoders: every representation the paper feeds its sixteen
//! models, unified behind the [`Featurizer`] trait over shared
//! [`DisasmCache`](phishinghook_evm::DisasmCache)s.
//!
//! | Encoder | Models | Paper description |
//! |---------|--------|-------------------|
//! | [`histogram::HistogramEncoder`] | the seven HSCs | opcode-occurrence vector over the training vocabulary, *raw counts, no normalization* |
//! | [`image::R2d2Encoder`] | ViT+R2D2, ECA+EfficientNet | bytecode bytes read as RGB pixel channels, zero-padded square image |
//! | [`freq_image::FreqImageEncoder`] | ViT+Freq | per-instruction (mnemonic, operand, gas) frequencies from the training set mapped to channel intensities |
//! | [`bigram::BigramEncoder`] | SCSGuard | 6-hex-character "bigrams" numerically encoded over a training vocabulary, padded to uniform length |
//! | [`tokens::OpcodeTokenizer`] | GPT-2, T5 | opcode token sequences, truncated (α) or sliding-window chunked (β) |
//! | [`escort::EscortEmbedder`] | ESCORT | hashed byte-trigram embedding of the raw bytecode |
//!
//! All stateful encoders follow a *fit on the training split, then encode*
//! protocol so that no test-set information leaks into the representation
//! (the paper constructs its lookup tables "exactly once on the entire
//! contract training set").
//!
//! # Single-pass featurization
//!
//! Every encoder consumes a per-contract
//! [`DisasmCache`](phishinghook_evm::DisasmCache): the bytecode is decoded
//! once, and all six representations are derived from that cached stream.
//! Opcode-level encoders index dense tables by interned
//! [`OpId`](phishinghook_evm::OpId) rather than hashing mnemonic strings,
//! so the hot path allocates nothing beyond its output vector.
//!
//! On top of the per-contract protocol, [`store::FeatureStore`] fits and
//! packs each encoding of a whole dataset on first use into a
//! fold-sliceable [`store::FeatureMatrix`] column store, so repeated
//! cross-validation trials gather pre-featurized rows instead of re-running
//! the encoders.

#![warn(missing_docs)]

pub mod bigram;
pub mod escort;
pub mod featurizer;
pub mod freq_image;
pub mod histogram;
pub mod image;
pub mod store;
pub mod tokens;

pub use bigram::BigramEncoder;
pub use escort::EscortEmbedder;
pub use featurizer::{FeatureRow, FeatureVec, Featurizer};
pub use freq_image::FreqImageEncoder;
pub use histogram::HistogramEncoder;
pub use image::R2d2Encoder;
pub use store::{Encoding, FeatureMatrix, FeatureStore, FittedEncoders, StoreConfig};
pub use tokens::{OpcodeTokenizer, SequenceVariant};

// NOTE: the six-encoders-one-decode acceptance test lives in the
// single-test integration binary `tests/single_pass.rs` — the decode
// counter is process-global, so exact-delta assertions would race with the
// encoder unit tests in this library, which also build caches.
#[cfg(test)]
mod single_pass {
    use super::*;

    #[test]
    fn featurizer_names_are_distinct() {
        let names = [
            <HistogramEncoder as Featurizer>::NAME,
            <FreqImageEncoder as Featurizer>::NAME,
            <R2d2Encoder as Featurizer>::NAME,
            <BigramEncoder as Featurizer>::NAME,
            <OpcodeTokenizer as Featurizer>::NAME,
            <EscortEmbedder as Featurizer>::NAME,
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
