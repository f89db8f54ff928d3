//! Criterion bench: the fused single-pass featurization pipeline vs the
//! naive per-encoder path, plus the decode-once feature store vs per-trial
//! re-extraction.
//!
//! *Naive* replicates the pre-refactor behavior: each of the six encoders
//! re-disassembles every contract on its own, sequentially — 6 decodes per
//! contract per dataset pass. *Fused* is one parallel decode pass building
//! shared [`DisasmCache`]s, then all six encoders consuming them across the
//! worker pool. *Store* goes one level up: a [`FeatureStore`] is built once
//! per dataset and a simulated cross-validation trial matrix gathers
//! pre-featurized row slices, against the old per-trial
//! re-decode-and-re-encode loop.
//!
//! Besides the criterion timings, the bench writes machine-readable
//! baselines — `BENCH_pipeline.json` (fused vs naive) and
//! `BENCH_evalstore.json` (store vs per-trial) — so future PRs can
//! regression-check both layers. Setting `PHISHINGHOOK_BENCH_SMOKE=1`
//! shrinks the corpus and sample counts to CI size and the run fails fast
//! if either fast path stops beating its baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use phishinghook::par::parallel_map;
use phishinghook_bench::json::Value;
use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_features::store::{FeatureStore, StoreConfig};
use phishinghook_features::{
    BigramEncoder, EscortEmbedder, FreqImageEncoder, HistogramEncoder, OpcodeTokenizer,
    R2d2Encoder, SequenceVariant,
};
use phishinghook_synth::{generate_contract, Difficulty, Family, Month};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Simulated (model, fold) trials for the store-vs-per-trial comparison.
const TRIAL_FOLDS: usize = 5;

fn smoke_mode() -> bool {
    std::env::var_os("PHISHINGHOOK_BENCH_SMOKE").is_some()
}

fn contract_count() -> usize {
    if smoke_mode() {
        48
    } else {
        96
    }
}

fn timing_samples() -> usize {
    if smoke_mode() {
        3
    } else {
        10
    }
}

fn contracts(n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..n)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(3),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect()
}

/// All six encoders, fitted once on shared caches (fitting cost is common
/// to both paths; the bench isolates the per-pass encode cost).
struct Encoders {
    hist: HistogramEncoder,
    freq: FreqImageEncoder,
    r2d2: R2d2Encoder,
    bigram: BigramEncoder,
    tokens: OpcodeTokenizer,
    escort: EscortEmbedder,
}

impl Encoders {
    fn fit(caches: &[DisasmCache]) -> Self {
        Encoders {
            hist: HistogramEncoder::fit(caches),
            freq: FreqImageEncoder::fit(caches, 32),
            r2d2: R2d2Encoder::new(32),
            bigram: BigramEncoder::fit(caches, 2048, 48),
            tokens: OpcodeTokenizer::new(64),
            escort: EscortEmbedder::new(128),
        }
    }
}

/// Pre-refactor shape: every encoder decodes every contract afresh, one
/// contract at a time, on one thread.
fn naive_pass(enc: &Encoders, codes: &[Bytecode]) -> usize {
    let mut scalars = 0usize;
    scalars += codes
        .iter()
        .map(|c| enc.hist.encode(&DisasmCache::build(c)).len())
        .sum::<usize>();
    scalars += codes
        .iter()
        .map(|c| enc.freq.encode(&DisasmCache::build(c)).len())
        .sum::<usize>();
    scalars += codes
        .iter()
        .map(|c| enc.r2d2.encode(&DisasmCache::build(c)).len())
        .sum::<usize>();
    scalars += codes
        .iter()
        .map(|c| enc.bigram.encode(&DisasmCache::build(c)).len())
        .sum::<usize>();
    scalars += codes
        .iter()
        .map(|c| {
            enc.tokens
                .encode(&DisasmCache::build(c), SequenceVariant::SlidingWindow)
                .len()
        })
        .sum::<usize>();
    scalars += codes
        .iter()
        .map(|c| enc.escort.encode(&DisasmCache::build(c)).len())
        .sum::<usize>();
    scalars
}

/// Six-encoder pass over already-decoded caches, fanned across the pool.
fn encode_six(enc: &Encoders, caches: &[DisasmCache]) -> usize {
    let mut scalars = 0usize;
    scalars += parallel_map(caches, |c| enc.hist.encode(c).len())
        .iter()
        .sum::<usize>();
    scalars += parallel_map(caches, |c| enc.freq.encode(c).len())
        .iter()
        .sum::<usize>();
    scalars += parallel_map(caches, |c| enc.r2d2.encode(c).len())
        .iter()
        .sum::<usize>();
    scalars += parallel_map(caches, |c| enc.bigram.encode(c).len())
        .iter()
        .sum::<usize>();
    scalars += parallel_map(caches, |c| {
        enc.tokens.encode(c, SequenceVariant::SlidingWindow).len()
    })
    .iter()
    .sum::<usize>();
    scalars += parallel_map(caches, |c| enc.escort.encode(c).len())
        .iter()
        .sum::<usize>();
    scalars
}

/// The refactored pipeline: one parallel decode pass, six encoders over the
/// shared caches, each batch fanned across the worker pool.
fn fused_pass(enc: &Encoders, codes: &[Bytecode]) -> usize {
    let caches: Vec<DisasmCache> = parallel_map(codes, DisasmCache::build);
    encode_six(enc, &caches)
}

/// Round-robin fold plan over contract indices: trial `k` tests on indices
/// `i % folds == k` and trains on the rest (class labels are irrelevant to
/// featurization cost).
fn trial_splits(n: usize, folds: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    (0..folds)
        .map(|k| {
            let (test, train): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % folds == k);
            (train, test)
        })
        .collect()
}

fn store_geometry() -> StoreConfig {
    StoreConfig {
        image_side: 32,
        context: 64,
        bigram_vocab: 2048,
        bigram_len: 48,
        escort_dim: 128,
    }
}

/// What the CV loop did before the store: every trial re-decodes its
/// train/test splits, re-fits the encoders on the training fold and
/// re-encodes both folds.
fn per_trial_pass(codes: &[Bytecode], plan: &[(Vec<usize>, Vec<usize>)]) -> usize {
    let mut scalars = 0usize;
    for (train_idx, test_idx) in plan {
        let train: Vec<Bytecode> = train_idx.iter().map(|&i| codes[i].clone()).collect();
        let test: Vec<Bytecode> = test_idx.iter().map(|&i| codes[i].clone()).collect();
        let train_caches: Vec<DisasmCache> = parallel_map(&train, DisasmCache::build);
        let test_caches: Vec<DisasmCache> = parallel_map(&test, DisasmCache::build);
        let enc = Encoders::fit(&train_caches);
        scalars += encode_six(&enc, &train_caches);
        scalars += encode_six(&enc, &test_caches);
    }
    scalars
}

/// The store path: one decode pass, one featurization pass, then every
/// trial gathers pre-featurized rows by index. Store construction is
/// counted inside the timing — amortization has to beat it.
fn store_pass(codes: &[Bytecode], plan: &[(Vec<usize>, Vec<usize>)]) -> usize {
    let caches: Vec<DisasmCache> = parallel_map(codes, DisasmCache::build);
    let store = FeatureStore::build(&caches, &caches, &store_geometry());
    let mut scalars = 0usize;
    for (train_idx, test_idx) in plan {
        for idx in [train_idx, test_idx] {
            scalars += store.histogram().gather_dense_flat(idx).len();
            scalars += store.freq_image().gather_dense_flat(idx).len();
            scalars += store.r2d2().gather_dense_flat(idx).len();
            scalars += store
                .bigram()
                .gather_ids(idx)
                .iter()
                .map(Vec::len)
                .sum::<usize>();
            scalars += store
                .tokens_windows()
                .gather_windows(idx)
                .iter()
                .flatten()
                .map(Vec::len)
                .sum::<usize>();
            scalars += store.escort().gather_dense_flat(idx).len();
        }
    }
    scalars
}

fn best_of(samples: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..samples {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn write_baseline(codes: &[Bytecode], enc: &Encoders) {
    let total_bytes: usize = codes.iter().map(Bytecode::len).sum();
    let (naive_ms, naive_scalars) = best_of(timing_samples(), || naive_pass(enc, codes));
    let (fused_ms, fused_scalars) = best_of(timing_samples(), || fused_pass(enc, codes));
    assert_eq!(
        naive_scalars, fused_scalars,
        "fused path must produce identical output volume"
    );
    assert!(
        fused_ms < naive_ms,
        "fused regression: fused {fused_ms:.2} ms vs naive {naive_ms:.2} ms"
    );
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("featurization_pipeline".into())),
        ("contracts".into(), Value::Num(codes.len() as f64)),
        ("total_bytes".into(), Value::Num(total_bytes as f64)),
        ("encoders".into(), Value::Num(6.0)),
        (
            "workers".into(),
            Value::Num(phishinghook::par::pool_size(codes.len()) as f64),
        ),
        ("naive_ms".into(), Value::Num(naive_ms)),
        ("fused_ms".into(), Value::Num(fused_ms)),
        ("speedup".into(), Value::Num(naive_ms / fused_ms)),
        ("scalars_per_pass".into(), Value::Num(fused_scalars as f64)),
    ]);
    // Benches run with the package as cwd; anchor the baseline at the
    // workspace root. Smoke runs assert but never overwrite the committed
    // baselines (their corpus is smaller).
    if !smoke_mode() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
        std::fs::write(path, doc.render()).expect("write BENCH_pipeline.json");
    }
    println!(
        "  baseline: naive {naive_ms:.2} ms vs fused {fused_ms:.2} ms \
         ({:.2}x) -> BENCH_pipeline.json",
        naive_ms / fused_ms
    );
}

fn write_evalstore_baseline(codes: &[Bytecode]) {
    let plan = trial_splits(codes.len(), TRIAL_FOLDS);
    let (per_trial_ms, per_trial_scalars) =
        best_of(timing_samples(), || per_trial_pass(codes, &plan));
    let (store_ms, store_scalars) = best_of(timing_samples(), || store_pass(codes, &plan));
    assert!(per_trial_scalars > 0 && store_scalars > 0);
    assert!(
        store_ms < per_trial_ms,
        "store regression: store {store_ms:.2} ms vs per-trial {per_trial_ms:.2} ms"
    );
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("evalstore".into())),
        ("contracts".into(), Value::Num(codes.len() as f64)),
        ("trials".into(), Value::Num(plan.len() as f64)),
        (
            "workers".into(),
            Value::Num(phishinghook::par::pool_size(codes.len()) as f64),
        ),
        ("per_trial_ms".into(), Value::Num(per_trial_ms)),
        ("store_ms".into(), Value::Num(store_ms)),
        ("speedup".into(), Value::Num(per_trial_ms / store_ms)),
        (
            "store_scalars_gathered".into(),
            Value::Num(store_scalars as f64),
        ),
    ]);
    if !smoke_mode() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_evalstore.json");
        std::fs::write(path, doc.render()).expect("write BENCH_evalstore.json");
    }
    println!(
        "  baseline: per-trial {per_trial_ms:.2} ms vs store {store_ms:.2} ms over {} trials \
         ({:.2}x) -> BENCH_evalstore.json",
        plan.len(),
        per_trial_ms / store_ms
    );
}

fn bench_pipeline(c: &mut Criterion) {
    let codes = contracts(contract_count());
    let caches = DisasmCache::build_batch(&codes);
    let enc = Encoders::fit(&caches);
    drop(caches);

    let mut group = c.benchmark_group("featurization_pipeline");
    group.bench_function("naive_per_encoder", |b| b.iter(|| naive_pass(&enc, &codes)));
    group.bench_function("fused_single_pass", |b| b.iter(|| fused_pass(&enc, &codes)));
    let plan = trial_splits(codes.len(), TRIAL_FOLDS);
    group.bench_function("per_trial_reextraction", |b| {
        b.iter(|| per_trial_pass(&codes, &plan))
    });
    group.bench_function("evalstore_gather", |b| b.iter(|| store_pass(&codes, &plan)));
    group.finish();

    write_baseline(&codes, &enc);
    write_evalstore_baseline(&codes);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
