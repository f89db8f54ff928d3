//! Batch-invariance of inference: for every one of the sixteen
//! `ModelKind`s, scoring the whole test slice with one `predict_proba`
//! call must be **bit-identical** to scoring each row alone. This is the
//! contract that lets the evaluation engine and the serving `Detector`
//! hand a model whole batches (and the serving queue coalesce requests)
//! without changing a single score.

use phishinghook::prelude::*;

#[test]
fn batched_inference_is_bit_identical_for_all_sixteen_kinds() {
    let corpus = generate_corpus(&CorpusConfig::small(77));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let folds = dataset.stratified_folds(3, 8);
    let (train_idx, test_idx) = Dataset::fold_indices(&folds, 0);
    let store = ctx.store();

    for kind in ModelKind::ALL {
        // Train through the same factory + gather sequence as the engine.
        let train_rows = store.matrix(kind.encoding()).gather_rows(&train_idx);
        let labels: Vec<u8> = train_idx.iter().map(|&i| ctx.labels()[i]).collect();
        let mut model = kind.build(store.encoder(kind.encoding()), ctx.profile(), 8);
        if model.wants_pretraining() {
            model.pretrain(&train_rows, &ctx.gather_vuln(&train_idx));
        }
        model.fit(&train_rows, &labels);

        let test_rows = store.matrix(kind.encoding()).gather_rows(&test_idx);
        let batched = model.predict_proba(&test_rows);
        assert_eq!(batched.len(), test_rows.len(), "{kind}: one score per row");
        // A sample's score is invariant to the batch it rides in.
        for (i, row) in test_rows.iter().enumerate() {
            let solo = model.predict_proba(std::slice::from_ref(row));
            assert_eq!(
                solo[0].to_bits(),
                batched[i].to_bits(),
                "{kind}: row {i} changed with its batch"
            );
        }
    }
}
