//! Seeded determinism: the paper ships "the full set of instructions to
//! reproduce our experiments"; this reproduction goes further and makes
//! every stage bit-deterministic given its seed.

use phishinghook::prelude::*;

#[test]
fn corpus_chain_and_dataset_are_deterministic() {
    let cfg = CorpusConfig::small(314);
    let d1 = {
        let chain = SimulatedChain::from_corpus(&generate_corpus(&cfg));
        extract_dataset(&chain, &BemConfig::default()).0
    };
    let d2 = {
        let chain = SimulatedChain::from_corpus(&generate_corpus(&cfg));
        extract_dataset(&chain, &BemConfig::default()).0
    };
    assert_eq!(d1, d2);
}

#[test]
fn model_evaluation_is_deterministic() {
    let corpus = generate_corpus(&CorpusConfig::small(159));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let folds = dataset.stratified_folds(3, 42);
    let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
    let profile = EvalProfile::quick();
    // Two independently built contexts: featurization and trait-dispatched
    // training must both be seed-deterministic.
    let ctx_a = EvalContext::new(&dataset, &profile);
    let ctx_b = EvalContext::new(&dataset, &profile);

    for kind in [
        ModelKind::RandomForest,
        ModelKind::Xgboost,
        ModelKind::ScsGuard,
    ] {
        let a = evaluate_trial(&ctx_a, kind, &train_idx, &test_idx, 42);
        let b = evaluate_trial(&ctx_b, kind, &train_idx, &test_idx, 42);
        assert_eq!(a.metrics, b.metrics, "{kind} must be seed-deterministic");
    }
}

#[test]
fn different_seeds_change_the_folds() {
    let corpus = generate_corpus(&CorpusConfig::small(159));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let a = dataset.stratified_folds(5, 1);
    let b = dataset.stratified_folds(5, 2);
    assert_ne!(a, b);
}
