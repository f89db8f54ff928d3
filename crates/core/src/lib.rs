//! # PhishingHook
//!
//! A from-scratch Rust reproduction of *“PhishingHook: Catching Phishing
//! Ethereum Smart Contracts leveraging EVM Opcodes”* (DSN 2025): a framework
//! that detects phishing smart contracts from their deployed bytecode alone,
//! comparing sixteen machine-learning models across four categories
//! (histogram classifiers, vision models, language models and a
//! vulnerability-detection model).
//!
//! The crate wires the paper's four core modules over the substrate crates:
//!
//! * **BEM** ([`bem`]) — bytecode extraction: scan → label scrape →
//!   `eth_getCode` → dedup → balance;
//! * **BDM** — bytecode disassembly (re-exported from
//!   [`phishinghook_evm::disasm`]);
//! * **MEM** ([`mem`]) — training/evaluation of all sixteen models with
//!   10-fold × 3-run cross-validation and timing, dispatched through the
//!   unified [`Model`] trait;
//! * **PAM** ([`pam`]) — Shapiro–Wilk / Kruskal–Wallis / Dunn post hoc
//!   statistics;
//!
//! plus the serving layer — persistent trained [`Detector`]s
//! ([`detector`]) and two-stage [`CascadeDetector`]s ([`cascade`]) scoring
//! fresh contracts straight off `eth_getCode` — and the paper's dedicated
//! experiments: [`scalability`] (Fig. 5–7), [`time_resistance`] (Fig. 8),
//! [`shap_analysis`](mod@shap_analysis) (Fig. 9) and [`opcode_stats`]
//! (Fig. 3).
//!
//! # Quickstart
//!
//! ```
//! use phishinghook::prelude::*;
//!
//! // 1. Simulate a chain and extract a balanced dataset (BEM).
//! let corpus = generate_corpus(&CorpusConfig::small(42));
//! let chain = SimulatedChain::from_corpus(&corpus);
//! let (dataset, report) = extract_dataset(&chain, &BemConfig::default());
//! assert!(report.unique > 0);
//!
//! // 2. Decode + featurize once, then evaluate the paper's best model on
//! //    one stratified fold (MEM).
//! let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
//! let folds = dataset.stratified_folds(3, 0);
//! let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
//! let outcome = evaluate_trial(&ctx, ModelKind::RandomForest, &train_idx, &test_idx, 0);
//! assert!(outcome.metrics.accuracy > 0.6);
//!
//! // 3. Keep a trained artifact and screen a fresh deployment (serving).
//! let detector = Detector::train(&ctx, ModelKind::RandomForest, 0);
//! let rpc = RpcProvider::new(&chain);
//! let p = detector.score_address(&rpc, &chain.records()[0].address).unwrap();
//! assert!((0.0..=1.0).contains(&p));
//! ```

#![warn(missing_docs)]

pub mod bem;
pub mod cascade;
pub mod dataset;
pub mod detector;
pub mod drift;
pub mod evalstore;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod opcode_stats;
pub mod pam;
/// The workspace worker pool, re-exported from `phishinghook-linalg`.
pub use phishinghook_linalg::par;
pub mod scalability;
pub mod shap_analysis;
pub mod time_resistance;

pub use bem::{extract_dataset, BemConfig, BemReport, ExtractionStream, StreamStats};
pub use cascade::{pick_band, CascadeConfig, CascadeDetector, CascadeVerdict, StageScore};
pub use dataset::{Dataset, Sample};
pub use detector::{CodeScorer, Detector, PHISHING_THRESHOLD};
pub use drift::{DriftConfig, DriftSignal, DriftWatcher, RollingWindow};
pub use evalstore::EvalContext;
pub use mem::{
    cross_validate_on, evaluate_models, evaluate_trial, trial_plan, EvalProfile, ModelCategory,
    ModelKind, TrialOutcome, TrialSpec,
};
pub use metrics::{auc, Confusion, Metrics, UnknownMetric, METRIC_NAMES};
pub use pam::{posthoc_analysis, PosthocReport};
pub use phishinghook_artifact::ArtifactError;
pub use phishinghook_models::Model;
pub use phishinghook_retry as retry;
pub use scalability::{run_scalability, ScalabilityStudy, SCALABILITY_MODELS, SPLIT_RATIOS};
pub use shap_analysis::{shap_analysis, ShapAnalysis};
pub use time_resistance::{run_time_resistance, TimeResistance};

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::bem::{extract_dataset, BemConfig, BemReport, ExtractionStream};
    pub use crate::cascade::{CascadeConfig, CascadeDetector, CascadeVerdict, StageScore};
    pub use crate::dataset::{Dataset, Sample};
    pub use crate::detector::{CodeScorer, Detector};
    pub use crate::drift::{DriftConfig, DriftSignal, DriftWatcher};
    pub use crate::evalstore::EvalContext;
    pub use crate::mem::{
        cross_validate_on, evaluate_models, evaluate_trial, trial_plan, EvalProfile, ModelCategory,
        ModelKind, TrialOutcome, TrialSpec,
    };
    pub use crate::metrics::{auc, Metrics, METRIC_NAMES};
    pub use crate::opcode_stats::{opcode_usage, FIG3_OPCODES};
    pub use crate::pam::posthoc_analysis;
    pub use crate::scalability::{run_scalability, SCALABILITY_MODELS, SPLIT_RATIOS};
    pub use crate::shap_analysis::shap_analysis;
    pub use crate::time_resistance::run_time_resistance;
    pub use phishinghook_artifact::ArtifactError;
    pub use phishinghook_chain::{Explorer, QueryService, RpcProvider, SimulatedChain};
    pub use phishinghook_evm::{disassemble_bytecode, Bytecode};
    pub use phishinghook_synth::{generate_corpus, CorpusConfig, Month};
}
