//! The Model Evaluation Module (MEM): trains and evaluates all sixteen
//! models of Table II on a dataset, with the paper's 10-fold × 3-run
//! cross-validation protocol and the training/inference timing used by the
//! cost analysis (Fig. 7).
//!
//! The module is built on the decode-once [`EvalContext`]: a dataset is
//! disassembled and featurized exactly once, every (model, run, fold)
//! trial gathers pre-featurized row slices from the shared
//! [`FeatureStore`](phishinghook_features::FeatureStore), and the trial
//! matrix itself is sharded across the worker pool with per-trial seeds
//! fixed up front — parallel results are bit-identical to the sequential
//! trial order.
//!
//! All sixteen kinds dispatch through the unified [`Model`] trait:
//! [`ModelKind::build`] is the single factory and [`ModelKind::encoding`]
//! names the one [`Encoding`] a kind consumes, so a trial is always
//! *gather rows → build → fit → predict_proba* regardless of category.
//! The same factory powers the persistent serving layer
//! ([`Detector`](crate::detector::Detector)).

use crate::dataset::Dataset;
use crate::evalstore::{store_config, EvalContext};
use crate::metrics::Metrics;
use crate::par::parallel_map;
use phishinghook_features::{Encoding, FittedEncoders};
use phishinghook_ml::forest::ForestParams;
use phishinghook_ml::gbdt::BoostParams;
use phishinghook_ml::tree::TreeParams;
use phishinghook_ml::{
    CatBoostClassifier, KnnClassifier, LgbmClassifier, LinearSvm, LogisticRegression, RandomForest,
    XgbClassifier,
};
use phishinghook_models::eca_net::EcaNetConfig;
use phishinghook_models::escort::EscortConfig;
use phishinghook_models::gpt2::Gpt2Config;
use phishinghook_models::scsguard::ScsGuardConfig;
use phishinghook_models::t5::T5Config;
use phishinghook_models::vit::ViTConfig;
use phishinghook_models::{
    DenseClassifier, EcaEfficientNet, EscortNet, Gpt2Classifier, Model, ScsGuard, T5Classifier,
    TrainConfig, ViT,
};
use std::time::Instant;

/// The four model categories of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelCategory {
    /// Histogram Similarity Classifiers (†).
    Histogram,
    /// Vision models (‡).
    Vision,
    /// Language models (*).
    Language,
    /// Vulnerability detection models (§).
    Vulnerability,
}

/// The sixteen models of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ModelKind {
    RandomForest,
    Knn,
    Svm,
    LogisticRegression,
    Xgboost,
    Lightgbm,
    Catboost,
    EcaEfficientNet,
    VitR2d2,
    VitFreq,
    ScsGuard,
    Gpt2Alpha,
    T5Alpha,
    Gpt2Beta,
    T5Beta,
    Escort,
}

impl ModelKind {
    /// All sixteen models in Table II's row order.
    pub const ALL: [ModelKind; 16] = [
        ModelKind::RandomForest,
        ModelKind::Knn,
        ModelKind::Svm,
        ModelKind::LogisticRegression,
        ModelKind::Xgboost,
        ModelKind::Lightgbm,
        ModelKind::Catboost,
        ModelKind::EcaEfficientNet,
        ModelKind::VitR2d2,
        ModelKind::VitFreq,
        ModelKind::ScsGuard,
        ModelKind::Gpt2Alpha,
        ModelKind::T5Alpha,
        ModelKind::Gpt2Beta,
        ModelKind::T5Beta,
        ModelKind::Escort,
    ];

    /// The thirteen models retained by the post hoc analysis (ESCORT and
    /// the β variants are excluded, as in §IV-E).
    pub fn posthoc_set() -> Vec<ModelKind> {
        ModelKind::ALL
            .into_iter()
            .filter(|k| {
                !matches!(
                    k,
                    ModelKind::Escort | ModelKind::Gpt2Beta | ModelKind::T5Beta
                )
            })
            .collect()
    }

    /// Display name, matching Table II.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest => "Random Forest",
            ModelKind::Knn => "k-NN",
            ModelKind::Svm => "SVM",
            ModelKind::LogisticRegression => "Logistic Regression",
            ModelKind::Xgboost => "XGBoost",
            ModelKind::Lightgbm => "LightGBM",
            ModelKind::Catboost => "CatBoost",
            ModelKind::EcaEfficientNet => "ECA+EfficientNet",
            ModelKind::VitR2d2 => "ViT+R2D2",
            ModelKind::VitFreq => "ViT+Freq",
            ModelKind::ScsGuard => "SCSGuard",
            ModelKind::Gpt2Alpha => "GPT-2a",
            ModelKind::T5Alpha => "T5a",
            ModelKind::Gpt2Beta => "GPT-2b",
            ModelKind::T5Beta => "T5b",
            ModelKind::Escort => "ESCORT",
        }
    }

    /// Stable machine-readable identifier, used by the JSON artifacts the
    /// regeneration binaries exchange.
    pub fn id(&self) -> &'static str {
        match self {
            ModelKind::RandomForest => "random_forest",
            ModelKind::Knn => "knn",
            ModelKind::Svm => "svm",
            ModelKind::LogisticRegression => "logistic_regression",
            ModelKind::Xgboost => "xgboost",
            ModelKind::Lightgbm => "lightgbm",
            ModelKind::Catboost => "catboost",
            ModelKind::EcaEfficientNet => "eca_efficientnet",
            ModelKind::VitR2d2 => "vit_r2d2",
            ModelKind::VitFreq => "vit_freq",
            ModelKind::ScsGuard => "scsguard",
            ModelKind::Gpt2Alpha => "gpt2_alpha",
            ModelKind::T5Alpha => "t5_alpha",
            ModelKind::Gpt2Beta => "gpt2_beta",
            ModelKind::T5Beta => "t5_beta",
            ModelKind::Escort => "escort",
        }
    }

    /// Inverse of [`ModelKind::id`].
    pub fn from_id(id: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.id() == id)
    }

    /// The model's category.
    pub fn category(&self) -> ModelCategory {
        match self {
            ModelKind::RandomForest
            | ModelKind::Knn
            | ModelKind::Svm
            | ModelKind::LogisticRegression
            | ModelKind::Xgboost
            | ModelKind::Lightgbm
            | ModelKind::Catboost => ModelCategory::Histogram,
            ModelKind::EcaEfficientNet | ModelKind::VitR2d2 | ModelKind::VitFreq => {
                ModelCategory::Vision
            }
            ModelKind::ScsGuard
            | ModelKind::Gpt2Alpha
            | ModelKind::T5Alpha
            | ModelKind::Gpt2Beta
            | ModelKind::T5Beta => ModelCategory::Language,
            ModelKind::Escort => ModelCategory::Vulnerability,
        }
    }

    /// The single [`Encoding`] this model consumes. Evaluation gathers
    /// store rows by this key; serving featurizes fresh contracts under
    /// exactly this encoding.
    pub fn encoding(&self) -> Encoding {
        match self {
            ModelKind::RandomForest
            | ModelKind::Knn
            | ModelKind::Svm
            | ModelKind::LogisticRegression
            | ModelKind::Xgboost
            | ModelKind::Lightgbm
            | ModelKind::Catboost => Encoding::Histogram,
            ModelKind::EcaEfficientNet | ModelKind::VitR2d2 => Encoding::R2d2,
            ModelKind::VitFreq => Encoding::FreqImage,
            ModelKind::ScsGuard => Encoding::Bigram,
            ModelKind::Gpt2Alpha | ModelKind::T5Alpha => Encoding::TokensTruncate,
            ModelKind::Gpt2Beta | ModelKind::T5Beta => Encoding::TokensWindows,
            ModelKind::Escort => Encoding::Escort,
        }
    }

    /// The single model factory: constructs this kind as an untrained
    /// [`Model`], ready to `fit` on rows of [`ModelKind::encoding`].
    ///
    /// `profile` sets the capacity knobs (tree counts, epochs, widths);
    /// `encoders` supplies the fitted feature geometry the embedding-table
    /// models must agree with (bigram and token vocabulary sizes) — the
    /// lookup tables alone, so a serialized serving artifact can rebuild
    /// its model without a `FeatureStore`; `seed` fixes initialisation and
    /// shuffling.
    pub fn build(
        &self,
        encoders: &FittedEncoders,
        profile: &EvalProfile,
        seed: u64,
    ) -> Box<dyn Model> {
        let nn_train = |learning_rate: f32| TrainConfig {
            epochs: profile.nn_epochs,
            learning_rate,
            batch_size: 16,
            seed,
        };
        match self {
            ModelKind::RandomForest => {
                Box::new(DenseClassifier::new(Box::new(RandomForest::with_params(
                    ForestParams {
                        n_trees: profile.n_trees,
                        tree: TreeParams {
                            max_depth: 14,
                            ..TreeParams::default()
                        },
                        subsample: 1.0,
                    },
                    seed,
                ))))
            }
            ModelKind::Knn => Box::new(DenseClassifier::new(Box::new(KnnClassifier::new(
                profile.knn_k,
            )))),
            ModelKind::Svm => Box::new(DenseClassifier::new(Box::new(LinearSvm::with_epochs(
                profile.linear_epochs,
            )))),
            ModelKind::LogisticRegression => Box::new(DenseClassifier::new(Box::new(
                LogisticRegression::with_epochs(profile.linear_epochs / 2),
            ))),
            ModelKind::Xgboost => Box::new(DenseClassifier::new(Box::new(XgbClassifier::new(
                BoostParams {
                    n_rounds: profile.boost_rounds,
                    ..BoostParams::default()
                },
            )))),
            ModelKind::Lightgbm => Box::new(DenseClassifier::new(Box::new(LgbmClassifier::new(
                BoostParams {
                    n_rounds: profile.boost_rounds,
                    ..BoostParams::default()
                },
                48,
            )))),
            ModelKind::Catboost => {
                Box::new(DenseClassifier::new(Box::new(CatBoostClassifier::new(
                    BoostParams {
                        n_rounds: profile.boost_rounds,
                        max_depth: 5,
                        ..BoostParams::default()
                    },
                    48,
                ))))
            }
            ModelKind::EcaEfficientNet => Box::new(EcaEfficientNet::new(EcaNetConfig {
                side: profile.image_side,
                train: nn_train(0.02),
                ..EcaNetConfig::default()
            })),
            ModelKind::VitR2d2 | ModelKind::VitFreq => Box::new(ViT::new(ViTConfig {
                side: profile.image_side,
                patch: 8.min(profile.image_side),
                dim: profile.nn_dim,
                heads: 4,
                depth: 2,
                train: nn_train(0.02),
            })),
            ModelKind::ScsGuard => Box::new(ScsGuard::new(ScsGuardConfig {
                vocab: encoders.bigram_vocab_size(),
                train: nn_train(0.01),
                ..ScsGuardConfig::default()
            })),
            ModelKind::Gpt2Alpha | ModelKind::Gpt2Beta => {
                Box::new(Gpt2Classifier::new(Gpt2Config {
                    vocab: encoders.token_vocab_size(),
                    context: profile.context,
                    dim: profile.nn_dim,
                    heads: 4,
                    depth: 2,
                    max_train_windows: 3,
                    train: nn_train(0.01),
                }))
            }
            ModelKind::T5Alpha | ModelKind::T5Beta => Box::new(T5Classifier::new(T5Config {
                vocab: encoders.token_vocab_size(),
                context: profile.context,
                dim: profile.nn_dim,
                heads: 4,
                depth: 2,
                max_train_windows: 3,
                train: nn_train(0.01),
            })),
            ModelKind::Escort => Box::new(EscortNet::new(EscortConfig {
                input_dim: profile.escort_dim,
                train: TrainConfig {
                    epochs: profile.nn_epochs.max(2),
                    learning_rate: 0.01,
                    batch_size: 16,
                    seed,
                },
                ..EscortConfig::default()
            })),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Capacity/scale profile for one evaluation run. `full()` approximates the
/// paper's settings at CPU-feasible sizes; `quick()` is for smoke tests and
/// CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalProfile {
    /// Image side for the vision encoders.
    pub image_side: usize,
    /// Deep-model training epochs.
    pub nn_epochs: usize,
    /// Transformer width.
    pub nn_dim: usize,
    /// Language-model context length (tokens).
    pub context: usize,
    /// SCSGuard padded sequence length.
    pub bigram_len: usize,
    /// SCSGuard vocabulary cap.
    pub bigram_vocab: usize,
    /// Random-Forest tree count.
    pub n_trees: usize,
    /// Boosting rounds for the GBDT trio.
    pub boost_rounds: usize,
    /// k for k-NN.
    pub knn_k: usize,
    /// Epochs for the linear models.
    pub linear_epochs: usize,
    /// ESCORT embedding dimension.
    pub escort_dim: usize,
}

impl EvalProfile {
    /// CPU-scale approximation of the paper's full settings.
    pub fn full() -> Self {
        EvalProfile {
            image_side: 32,
            nn_epochs: 6,
            nn_dim: 32,
            context: 64,
            bigram_len: 48,
            bigram_vocab: 2048,
            n_trees: 100,
            boost_rounds: 80,
            knn_k: 5,
            linear_epochs: 800,
            escort_dim: 128,
        }
    }

    /// Small settings for tests and `--quick` bench runs.
    pub fn quick() -> Self {
        EvalProfile {
            image_side: 16,
            nn_epochs: 4,
            nn_dim: 16,
            context: 32,
            bigram_len: 24,
            bigram_vocab: 512,
            n_trees: 40,
            boost_rounds: 25,
            knn_k: 5,
            linear_epochs: 250,
            escort_dim: 64,
        }
    }
}

/// The outcome of one train/evaluate trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Test-set metrics.
    pub metrics: Metrics,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Wall-clock inference time over the test set in seconds.
    pub infer_seconds: f64,
}

/// Runs one (model, fold) trial against a shared [`EvalContext`]: gathers
/// the pre-featurized train/test rows by index, trains `kind`, and times
/// both phases. No disassembly or featurization happens here.
///
/// # Panics
///
/// Panics on an empty train or test index slice.
pub fn evaluate_trial(
    ctx: &EvalContext,
    kind: ModelKind,
    train_idx: &[usize],
    test_idx: &[usize],
    seed: u64,
) -> TrialOutcome {
    evaluate_trial_with(ctx, kind, train_idx, test_idx, ctx.profile(), seed)
}

/// [`evaluate_trial`] with model-capacity knobs overridden: `profile` may
/// change training budgets (tree counts, boosting rounds, epochs, `k`) but
/// must agree with the context's store on feature geometry — the store is
/// immutable, so image sides, context lengths and vocabulary caps are fixed
/// at [`EvalContext::new`] time. This is the hyper-parameter-search entry
/// point: one store, many capacity configurations.
///
/// Timing note: `train_seconds`/`infer_seconds` cover the trait-dispatched
/// `fit`/`predict_proba` calls, which *include* materializing the model's
/// owned inputs from the store's borrowed rows (the pre-trait engine built
/// those copies outside its timers, so timings shifted up slightly across
/// the refactor; metrics are unchanged).
///
/// # Panics
///
/// Panics on an empty index slice or a feature-geometry mismatch.
pub fn evaluate_trial_with(
    ctx: &EvalContext,
    kind: ModelKind,
    train_idx: &[usize],
    test_idx: &[usize],
    profile: &EvalProfile,
    seed: u64,
) -> TrialOutcome {
    assert!(!train_idx.is_empty() && !test_idx.is_empty(), "empty split");
    let (model, train_seconds) = fit_kind(ctx, kind, train_idx, profile, seed);
    let y_test = ctx.gather_labels(test_idx);
    // Layout-agnostic gather: borrowed views from a resident store, owned
    // window lists read back from disk when the block is spilled.
    let gathered = ctx.store().matrix(kind.encoding()).gather(test_idx);
    let rows_test = gathered.rows();
    let t1 = Instant::now();
    let probs = model.predict_proba(&rows_test);
    let infer_seconds = t1.elapsed().as_secs_f64();
    outcome_from_probs(&probs, &y_test, train_seconds, infer_seconds)
}

/// The one trait-dispatched training sequence shared by evaluation
/// ([`evaluate_trial_with`]) and serving ([`Detector`](crate::Detector),
/// [`ModelZoo`](crate::ModelZoo)): gather store rows for
/// [`ModelKind::encoding`], build through [`ModelKind::build`], run the
/// optional pre-training phase, fit. Keeping it in one place is what makes
/// "serving scores are bit-identical to the eval path" a structural
/// guarantee rather than a copy-paste discipline. Returns the fitted model
/// and the wall-clock training seconds.
///
/// # Panics
///
/// Panics on an empty training set or a feature-geometry mismatch between
/// `profile` and the context's store.
pub(crate) fn fit_kind(
    ctx: &EvalContext,
    kind: ModelKind,
    train_idx: &[usize],
    profile: &EvalProfile,
    seed: u64,
) -> (Box<dyn Model>, f64) {
    assert!(!train_idx.is_empty(), "empty training set");
    assert_eq!(
        store_config(profile),
        store_config(ctx.profile()),
        "profile feature geometry must match the context's store"
    );
    let store = ctx.store();
    let gathered = store.matrix(kind.encoding()).gather(train_idx);
    let rows = gathered.rows();
    let labels = ctx.gather_labels(train_idx);
    let mut model = kind.build(store.encoders(), profile, seed);
    let aux = model
        .wants_pretraining()
        .then(|| ctx.gather_vuln(train_idx));
    let t0 = Instant::now();
    if let Some(aux) = &aux {
        model.pretrain(&rows, aux);
    }
    model.fit(&rows, &labels);
    (model, t0.elapsed().as_secs_f64())
}

fn outcome_from_probs(
    probs: &[f32],
    y_test: &[u8],
    train_seconds: f64,
    infer_seconds: f64,
) -> TrialOutcome {
    let pred: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
    TrialOutcome {
        metrics: Metrics::from_predictions(&pred, y_test),
        train_seconds,
        infer_seconds,
    }
}

/// One scheduled (run, fold) trial of the cross-validation matrix: the
/// index split plus the RNG seed fixed at planning time, so trials can be
/// executed in any order (or in parallel) without changing results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// Zero-based repetition index.
    pub run: usize,
    /// Zero-based fold index within the run.
    pub fold: usize,
    /// The trial's model seed, derived from (study seed, run, fold).
    pub seed: u64,
    /// Training sample indices.
    pub train_idx: Vec<usize>,
    /// Held-out sample indices.
    pub test_idx: Vec<usize>,
}

/// Plans the paper's protocol — `runs` repetitions of stratified
/// `folds`-fold cross-validation — as a flat trial list in (run, fold)
/// order. All randomness (fold assignment, per-trial seeds) is resolved
/// here, which is what makes the trial matrix shardable.
pub fn trial_plan(data: &Dataset, folds: usize, runs: usize, seed: u64) -> Vec<TrialSpec> {
    let mut plan = Vec::with_capacity(folds * runs);
    for run in 0..runs {
        let run_seed = seed ^ (run as u64).wrapping_mul(0x9E37_79B9);
        let assignment = data.stratified_folds(folds, run_seed);
        for k in 0..folds {
            let (train_idx, test_idx) = Dataset::fold_indices(&assignment, k);
            plan.push(TrialSpec {
                run,
                fold: k,
                seed: run_seed ^ k as u64,
                train_idx,
                test_idx,
            });
        }
    }
    plan
}

/// Executes a trial plan for one model against a shared [`EvalContext`],
/// sharding the trials across the worker pool. Output order matches plan
/// order and *metrics* are bit-identical to executing the plan
/// sequentially: every trial's seed and split were fixed at planning time,
/// and the pool concatenates shard results in input order. The wall-clock
/// `train_seconds`/`infer_seconds` fields are measured while sibling
/// trials share the cores — use a sequential executor (the scalability
/// study does) when timings are the deliverable.
pub fn cross_validate_on(
    ctx: &EvalContext,
    kind: ModelKind,
    plan: &[TrialSpec],
) -> Vec<TrialOutcome> {
    cross_validate_on_with(ctx, kind, plan, ctx.profile())
}

/// [`cross_validate_on`] with model-capacity knobs overridden (see
/// [`evaluate_trial_with`] for the geometry contract).
pub fn cross_validate_on_with(
    ctx: &EvalContext,
    kind: ModelKind,
    plan: &[TrialSpec],
    profile: &EvalProfile,
) -> Vec<TrialOutcome> {
    parallel_map(plan, |spec| {
        evaluate_trial_with(
            ctx,
            kind,
            &spec.train_idx,
            &spec.test_idx,
            profile,
            spec.seed,
        )
    })
}

/// Executes one shared trial plan for several models over one context —
/// the shape Table II/III and the PAM consume. The dataset is decoded and
/// featurized exactly once for the entire model zoo.
pub fn evaluate_models(
    ctx: &EvalContext,
    models: &[ModelKind],
    plan: &[TrialSpec],
) -> Vec<(ModelKind, Vec<TrialOutcome>)> {
    models
        .iter()
        .map(|&kind| (kind, cross_validate_on(ctx, kind, plan)))
        .collect()
}

/// The paper's protocol: `runs` repetitions of stratified `folds`-fold
/// cross-validation (§IV-D uses 10 folds × 3 runs = 30 trials per model).
///
/// Builds a one-shot [`EvalContext`] (a single decode+featurize pass) and
/// runs the sharded plan over it. Multi-model studies should build the
/// context once and call [`cross_validate_on`] / [`evaluate_models`].
pub fn cross_validate(
    kind: ModelKind,
    data: &Dataset,
    folds: usize,
    runs: usize,
    profile: &EvalProfile,
    seed: u64,
) -> Vec<TrialOutcome> {
    let ctx = EvalContext::new(data, profile);
    cross_validate_on(&ctx, kind, &trial_plan(data, folds, runs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use phishinghook_chain::SimulatedChain;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn small_dataset() -> Dataset {
        let corpus = generate_corpus(&CorpusConfig::small(77));
        let chain = SimulatedChain::from_corpus(&corpus);
        extract_dataset(&chain, &BemConfig::default()).0
    }

    #[test]
    fn sixteen_models_with_table_ii_names() {
        assert_eq!(ModelKind::ALL.len(), 16);
        assert_eq!(ModelKind::RandomForest.name(), "Random Forest");
        assert_eq!(ModelKind::posthoc_set().len(), 13);
    }

    #[test]
    fn categories_partition_the_models() {
        let count = |c: ModelCategory| ModelKind::ALL.iter().filter(|k| k.category() == c).count();
        assert_eq!(count(ModelCategory::Histogram), 7);
        assert_eq!(count(ModelCategory::Vision), 3);
        assert_eq!(count(ModelCategory::Language), 5);
        assert_eq!(count(ModelCategory::Vulnerability), 1);
    }

    #[test]
    fn random_forest_beats_chance_on_synthetic_corpus() {
        let data = small_dataset();
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        let folds = data.stratified_folds(3, 5);
        let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
        let outcome = evaluate_trial(&ctx, ModelKind::RandomForest, &train_idx, &test_idx, 3);
        assert!(
            outcome.metrics.accuracy > 0.7,
            "RF accuracy = {}",
            outcome.metrics.accuracy
        );
        assert!(outcome.train_seconds > 0.0);
    }

    #[test]
    fn every_kind_builds_through_the_factory() {
        let data = small_dataset();
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        for kind in ModelKind::ALL {
            let model = kind.build(ctx.store().encoders(), ctx.profile(), 1);
            // Only ESCORT carries the two-phase transfer protocol.
            assert_eq!(
                model.wants_pretraining(),
                kind == ModelKind::Escort,
                "{kind}"
            );
            // Classical models report 0 parameters; NN kinds report > 0.
            assert_eq!(
                model.parameter_count() > 0,
                kind.category() != ModelCategory::Histogram,
                "{kind}"
            );
        }
    }

    #[test]
    fn encodings_follow_categories() {
        use phishinghook_features::Encoding;
        assert_eq!(ModelKind::RandomForest.encoding(), Encoding::Histogram);
        assert_eq!(ModelKind::VitFreq.encoding(), Encoding::FreqImage);
        assert_eq!(ModelKind::VitR2d2.encoding(), Encoding::R2d2);
        assert_eq!(ModelKind::ScsGuard.encoding(), Encoding::Bigram);
        assert_eq!(ModelKind::Gpt2Alpha.encoding(), Encoding::TokensTruncate);
        assert_eq!(ModelKind::T5Beta.encoding(), Encoding::TokensWindows);
        assert_eq!(ModelKind::Escort.encoding(), Encoding::Escort);
    }

    #[test]
    fn cross_validation_trial_count() {
        let data = small_dataset();
        let trials = cross_validate(ModelKind::Knn, &data, 3, 2, &EvalProfile::quick(), 11);
        assert_eq!(trials.len(), 6);
        for t in &trials {
            assert!((0.0..=1.0).contains(&t.metrics.accuracy));
        }
    }

    #[test]
    fn trial_plan_is_deterministic_and_partitions() {
        let data = small_dataset();
        let plan = trial_plan(&data, 3, 2, 7);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan, trial_plan(&data, 3, 2, 7));
        for spec in &plan {
            assert_eq!(spec.train_idx.len() + spec.test_idx.len(), data.len());
            assert!(spec.train_idx.iter().all(|i| !spec.test_idx.contains(i)));
        }
        // Seeds differ across folds and runs.
        let seeds: std::collections::HashSet<u64> = plan.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), plan.len());
    }

    #[test]
    fn evaluate_models_shares_one_context() {
        let data = small_dataset();
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        let plan = trial_plan(&data, 3, 1, 2);
        let results = evaluate_models(&ctx, &[ModelKind::Knn, ModelKind::Svm], &plan);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|(_, trials)| trials.len() == 3));
    }
}
