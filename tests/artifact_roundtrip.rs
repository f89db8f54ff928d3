//! Cold-start parity acceptance test: for every one of the sixteen
//! `ModelKind`s, a detector serialized to its artifact form and
//! reconstructed from bytes alone (as a fresh process would) produces
//! scores bit-identical to the detector that trained it.

use phishinghook::prelude::*;
use phishinghook_evm::DisasmCache;

fn fixture() -> (Dataset, EvalContext) {
    let corpus = generate_corpus(&CorpusConfig::small(808));
    let chain = SimulatedChain::from_corpus(&corpus);
    let dataset = extract_dataset(&chain, &BemConfig::default()).0;
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    (dataset, ctx)
}

#[test]
fn every_model_kind_reloads_with_bit_identical_scores() {
    let (dataset, ctx) = fixture();
    let folds = dataset.stratified_folds(3, 21);
    let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
    let held_out: Vec<DisasmCache> = test_idx.iter().map(|&i| ctx.caches()[i].clone()).collect();

    for kind in ModelKind::ALL {
        let trained = Detector::train_on(&ctx, kind, &train_idx, 21);
        let expected = trained.score_batch(&held_out);

        // The artifact is the only thing that crosses the process
        // boundary: reconstruct from bytes, never from the context.
        let reloaded = Detector::from_bytes(&trained.to_bytes())
            .unwrap_or_else(|e| panic!("{kind}: reload failed: {e}"));
        assert_eq!(reloaded.kind(), kind);
        assert_eq!(reloaded.encoding(), kind.encoding());
        assert_eq!(reloaded.parameter_count(), trained.parameter_count());
        let served = reloaded.score_batch(&held_out);
        assert_eq!(
            served, expected,
            "{kind}: cold-start scores must be bit-identical to the training process"
        );
        // Single-contract scoring agrees too (separate encode path).
        assert_eq!(
            reloaded.score_cache(&held_out[0]),
            expected[0],
            "{kind}: single-contract cold-start score"
        );
    }
}
