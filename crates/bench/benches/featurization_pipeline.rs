//! Bench: the fused single-pass featurization pipeline vs the
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
//! The bench writes two baselines — `BENCH_pipeline.json` (fused vs
//! naive) and `BENCH_evalstore.json` (store vs per-trial) — and fails if
//! either fast path stops beating its baseline. Setting
//! `PHISHINGHOOK_BENCH_SMOKE=1` shrinks the corpus and sample counts to CI
//! size.

use phishinghook::json::Value;
use phishinghook::par::parallel_map;
use phishinghook_bench::harness::{best_of, pick, write_baseline};
use phishinghook_evm::{Bytecode, CacheBatch, DisasmCache};
use phishinghook_features::store::{Encoding, FeatureStore, StoreConfig};
use phishinghook_features::{
    BigramEncoder, EscortEmbedder, FreqImageEncoder, HistogramEncoder, OpcodeTokenizer,
    R2d2Encoder, SequenceVariant,
};
use phishinghook_synth::{generate_contract, Difficulty, Family, Month};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated (model, fold) trials for the store-vs-per-trial comparison.
const TRIAL_FOLDS: usize = 5;

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
    let store = FeatureStore::new(CacheBatch::from_caches(caches), None, &store_geometry());
    let mut scalars = 0usize;
    for (train_idx, test_idx) in plan {
        for idx in [train_idx, test_idx] {
            scalars += store
                .matrix(Encoding::Histogram)
                .gather_dense_flat(idx)
                .len();
            scalars += store
                .matrix(Encoding::FreqImage)
                .gather_dense_flat(idx)
                .len();
            scalars += store.matrix(Encoding::R2d2).gather_dense_flat(idx).len();
            scalars += store
                .matrix(Encoding::Bigram)
                .gather_ids(idx)
                .iter()
                .map(Vec::len)
                .sum::<usize>();
            scalars += store
                .matrix(Encoding::TokensWindows)
                .gather_windows(idx)
                .iter()
                .flatten()
                .map(Vec::len)
                .sum::<usize>();
            scalars += store.matrix(Encoding::Escort).gather_dense_flat(idx).len();
        }
    }
    scalars
}

fn main() {
    let codes = contracts(pick(96, 48));
    let samples = pick(10, 3);
    let enc = Encoders::fit(&DisasmCache::build_batch(&codes));

    let total_bytes: usize = codes.iter().map(Bytecode::len).sum();
    let [(naive_s, naive_scalars), (fused_s, fused_scalars)] = best_of(
        1,
        samples,
        [&mut || naive_pass(&enc, &codes), &mut || {
            fused_pass(&enc, &codes)
        }],
    );
    let (naive_ms, fused_ms) = (naive_s * 1e3, fused_s * 1e3);
    assert_eq!(
        naive_scalars, fused_scalars,
        "fused path must produce identical output volume"
    );
    println!(
        "featurization_pipeline: naive {naive_ms:.2} ms vs fused {fused_ms:.2} ms ({:.2}x)",
        naive_ms / fused_ms
    );
    assert!(
        fused_ms < naive_ms,
        "fused regression: fused {fused_ms:.2} ms vs naive {naive_ms:.2} ms"
    );
    write_baseline(
        "BENCH_pipeline.json",
        "featurization_pipeline",
        vec![
            ("contracts", Value::Num(codes.len() as f64)),
            ("total_bytes", Value::Num(total_bytes as f64)),
            ("encoders", Value::Num(6.0)),
            ("naive_ms", Value::Num(naive_ms)),
            ("fused_ms", Value::Num(fused_ms)),
            ("speedup", Value::Num(naive_ms / fused_ms)),
            ("scalars_per_pass", Value::Num(fused_scalars as f64)),
        ],
    );

    let plan = trial_splits(codes.len(), TRIAL_FOLDS);
    let [(per_trial_s, per_trial_scalars), (store_s, store_scalars)] = best_of(
        1,
        samples,
        [&mut || per_trial_pass(&codes, &plan), &mut || {
            store_pass(&codes, &plan)
        }],
    );
    let (per_trial_ms, store_ms) = (per_trial_s * 1e3, store_s * 1e3);
    assert!(per_trial_scalars > 0 && store_scalars > 0);
    println!(
        "evalstore: per-trial {per_trial_ms:.2} ms vs store {store_ms:.2} ms over {} trials \
         ({:.2}x)",
        plan.len(),
        per_trial_ms / store_ms
    );
    assert!(
        store_ms < per_trial_ms,
        "store regression: store {store_ms:.2} ms vs per-trial {per_trial_ms:.2} ms"
    );
    write_baseline(
        "BENCH_evalstore.json",
        "featurization_pipeline",
        vec![
            ("contracts", Value::Num(codes.len() as f64)),
            ("trials", Value::Num(plan.len() as f64)),
            ("per_trial_ms", Value::Num(per_trial_ms)),
            ("store_ms", Value::Num(store_ms)),
            ("speedup", Value::Num(per_trial_ms / store_ms)),
            ("store_scalars_gathered", Value::Num(store_scalars as f64)),
        ],
    );
}
