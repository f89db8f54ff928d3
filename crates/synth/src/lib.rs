//! Synthetic Ethereum contract corpus generator.
//!
//! The paper's dataset is built from real chain data (BigQuery + Etherscan
//! `Phish/Hack` flags), which is unavailable offline; this crate provides a
//! substitute: a generative model of benign and phishing bytecode families
//! that preserves the statistical properties the detection models key on —
//!
//! * a shared solc-like skeleton (prologue, `PUSH4` dispatcher, CBOR
//!   metadata trailer) so the classes overlap heavily in opcode space
//!   (Fig. 3's regime);
//! * family-specific *snippet mixes* (drainer idioms vs SafeMath/OpenZeppelin
//!   idioms) so the classes remain separable at roughly the paper's ≈90%;
//! * bit-identical clone deployments (EIP-1167 minimal proxies, factories)
//!   reproducing the 17,455 → 3,458 deduplication of Fig. 2;
//! * a monthly deployment timeline with family drift, enabling the
//!   time-resistance study (Fig. 8).
//!
//! # Examples
//!
//! ```
//! use phishinghook_synth::{generate_corpus, CorpusConfig};
//!
//! let corpus = generate_corpus(&CorpusConfig::small(42));
//! let unique = corpus.dedup();
//! assert!(unique.len() < corpus.len());
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod corpus;
pub mod families;
pub mod month;
pub mod snippets;

pub use corpus::{generate_corpus, Corpus, CorpusConfig, SynthContract};
pub use families::{generate_contract, minimal_proxy, ContractClass, Difficulty, Family};
pub use month::{Month, STUDY_MONTHS};

#[cfg(test)]
mod proptests {
    use super::*;
    use phishinghook_evm::disasm::disassemble;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// Any family/seed/month combination yields decodable, non-truncated
        /// bytecode with a plausible size.
        #[test]
        fn generated_code_is_wellformed(
            seed in 0u64..10_000,
            family_idx in 0usize..Family::ALL.len(),
            month in 0u8..13,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let code = generate_contract(
                Family::ALL[family_idx],
                Month(month),
                &Difficulty::default(),
                &mut rng,
            );
            prop_assert!(!code.is_empty());
            prop_assert!(code.len() < 16_384, "unreasonably large: {}", code.len());
            let instrs = disassemble(code.as_bytes());
            // The CBOR trailer is data, not code, so truncation can only be
            // reported inside the final data region; decoding must not panic
            // and instruction sizes must tile the blob.
            let total: usize = instrs.iter().map(|i| i.size()).sum();
            prop_assert_eq!(total, code.len());
        }
    }
}
