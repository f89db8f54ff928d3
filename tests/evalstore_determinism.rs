//! Determinism of the trial-sharded evaluation engine: executing a trial
//! plan across the worker pool must produce results bit-identical to
//! walking the same plan sequentially, and repeated runs must agree.

use phishinghook::prelude::*;

fn dataset(seed: u64) -> Dataset {
    let corpus = generate_corpus(&CorpusConfig::small(seed));
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(&chain, &BemConfig::default()).0
}

#[test]
fn sharded_trials_are_bit_identical_to_sequential_order() {
    let data = dataset(57);
    let ctx = EvalContext::new(&data, &EvalProfile::quick());
    let plan = trial_plan(&data, 3, 2, 13);

    for kind in [ModelKind::LogisticRegression, ModelKind::RandomForest] {
        let sharded = cross_validate_on(&ctx, kind, &plan);
        let sequential: Vec<TrialOutcome> = plan
            .iter()
            .map(|spec| evaluate_trial(&ctx, kind, &spec.train_idx, &spec.test_idx, spec.seed))
            .collect();
        assert_eq!(sharded.len(), sequential.len());
        for (i, (a, b)) in sharded.iter().zip(&sequential).enumerate() {
            // Metrics must match bit-for-bit; wall-clock timings of course
            // differ between executions.
            assert_eq!(
                a.metrics, b.metrics,
                "{kind}: trial {i} diverged between sharded and sequential execution"
            );
        }
    }
}

#[test]
fn repeated_cross_validation_is_reproducible() {
    let data = dataset(63);
    // Each run plans and featurizes from scratch.
    let run = || {
        let ctx = EvalContext::new(&data, &EvalProfile::quick());
        cross_validate_on(&ctx, ModelKind::Svm, &trial_plan(&data, 3, 1, 21))
    };
    let (a, b) = (run(), run());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.metrics, y.metrics, "same seed, same plan, same metrics");
    }
}

#[test]
fn fresh_context_reproduces_trials() {
    // Two independently built contexts over the same dataset and profile
    // must featurize identically (parallel store construction is ordered).
    let data = dataset(69);
    let profile = EvalProfile::quick();
    let plan = trial_plan(&data, 3, 1, 2);
    let ctx_a = EvalContext::new(&data, &profile);
    let ctx_b = EvalContext::new(&data, &profile);
    let a = cross_validate_on(&ctx_a, ModelKind::Knn, &plan);
    let b = cross_validate_on(&ctx_b, ModelKind::Knn, &plan);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.metrics, y.metrics);
    }
}
