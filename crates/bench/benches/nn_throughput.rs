//! Bench: the batched NN compute path. The shared trainer used to build
//! a fresh tape and run a full forward/backward **per sample**; it now
//! records one arena-reused tape per mini-batch over a `(B, d)` GEMM.
//! This bench times both loops — the retired per-sample loop is kept in
//! `phishinghook_models::trainer::train_binary_per_sample` precisely as
//! this baseline — on the ESCORT-shaped dense network at quick-profile
//! sizes, plus batched vs. row-wise inference.
//!
//! A second section times the transformer's row kernels: the owned GELU
//! over a `(32, 64)` activation block (one GPT-2 window's MLP at the
//! quick profile) and causal softmax rows of widths 1–32 (one head's
//! attention), against the same loops over libm's `f32::tanh` /
//! `f32::exp`, which are kept here only as that baseline.
//!
//! The bench writes `BENCH_nn.json` (train/predict samples-per-sec,
//! per-sample vs. batched, and the row-kernel times) and enforces the
//! speedup floors: batched training must be ≥3× per-sample and batched
//! inference ≥5× row-wise on the full run (≥1.5× / ≥2× under
//! `PHISHINGHOOK_BENCH_SMOKE=1`, the single-core CI noise band), and
//! each owned row kernel ≥2× its libm loop (≥1.3× on smoke) when a SIMD
//! tier is active — a regression fails the build.

use phishinghook::json::Value;
use phishinghook_bench::harness::{best_of, pick, write_baseline};
use phishinghook_linalg::gemm::active_simd_name;
use phishinghook_models::trainer::{
    batch_input, predict_binary, predict_binary_batch, train_binary, train_binary_per_sample,
    TrainConfig, PREDICT_BATCH,
};
use phishinghook_nn::kernels::{gelu_in_place, softmax_rows_in_place};
use phishinghook_nn::{Linear, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ESCORT-trunk-shaped MLP at quick-profile width: 64 → 64 → 32 → 1.
const INPUT_DIM: usize = 64;
const HIDDEN1: usize = 64;
const HIDDEN2: usize = 32;

struct Mlp {
    store: ParamStore,
    l1: Linear,
    l2: Linear,
    head: Linear,
}

impl Mlp {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let l1 = Linear::new(&mut store, INPUT_DIM, HIDDEN1, &mut rng);
        let l2 = Linear::new(&mut store, HIDDEN1, HIDDEN2, &mut rng);
        let head = Linear::new(&mut store, HIDDEN2, 1, &mut rng);
        Mlp {
            store,
            l1,
            l2,
            head,
        }
    }

    fn logit(&self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let h = self.l1.forward(t, s, x);
        let h = t.relu(h);
        let h = self.l2.forward(t, s, h);
        let h = t.relu(h);
        self.head.forward(t, s, h)
    }
}

fn synthetic_task(n: usize) -> (Vec<Vec<f32>>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let bias = if i % 2 == 0 { 0.4 } else { -0.4 };
            (0..INPUT_DIM)
                .map(|_| rng.gen_range(-1.0f32..=1.0) + bias)
                .collect()
        })
        .collect();
    let ys: Vec<u8> = (0..n).map(|i| (i % 2 == 0) as u8).collect();
    (xs, ys)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        learning_rate: 0.01,
        batch_size: 16,
        seed: 0x5EED,
    }
}

fn train_per_sample(xs: &[Vec<f32>], ys: &[u8]) -> f32 {
    let mlp = Mlp::new(1);
    let mut store = mlp.store;
    let (l1, l2, head) = (mlp.l1, mlp.l2, mlp.head);
    train_binary_per_sample(
        &mut store,
        xs,
        ys,
        &train_cfg(),
        &[],
        |t, s, x: &Vec<f32>| {
            let xv = t.input(Tensor::from_vec(&[1, INPUT_DIM], x.clone()));
            let h = l1.forward(t, s, xv);
            let h = t.relu(h);
            let h = l2.forward(t, s, h);
            let h = t.relu(h);
            head.forward(t, s, h)
        },
    )
}

fn train_batched(xs: &[Vec<f32>], ys: &[u8]) -> f32 {
    let mlp = Mlp::new(1);
    let mut store = mlp.store;
    let (l1, l2, head) = (mlp.l1, mlp.l2, mlp.head);
    train_binary(
        &mut store,
        xs,
        ys,
        &train_cfg(),
        &[],
        |t, s, batch: &[&Vec<f32>]| {
            let xv = batch_input(t, batch);
            let h = l1.forward(t, s, xv);
            let h = t.relu(h);
            let h = l2.forward(t, s, h);
            let h = t.relu(h);
            head.forward(t, s, h)
        },
    )
}

/// GELU over libm's `tanhf`: the baseline for [`gelu_in_place`].
fn gelu_libm(xs: &mut [f32]) {
    const C: f32 = 0.797_884_6;
    for x in xs {
        *x = 0.5 * *x * (1.0 + (C * (*x + 0.044715 * *x * *x * *x)).tanh());
    }
}

/// Softmax row by row over libm's `expf`, exponentiating and summing in
/// one loop: the baseline for [`softmax_rows_in_place`], on rows of the
/// given widths laid end to end.
fn softmax_rows_libm(packed: &mut [f32], widths: impl Iterator<Item = usize>) {
    let mut rest = packed;
    for w in widths {
        let (row, tail) = rest.split_at_mut(w);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
        rest = tail;
    }
}

/// `reps` passes of `kernel`, each on a fresh copy of `input`; returns
/// one output so the work cannot be optimized away.
fn passes(reps: usize, input: &[f32], kernel: impl Fn(&mut [f32])) -> f32 {
    let mut work = input.to_vec();
    for _ in 0..reps {
        work.copy_from_slice(input);
        kernel(&mut work);
    }
    work[0]
}

/// Owned vs. libm row kernels: `(gelu_owned_s, gelu_libm_s,
/// softmax_owned_s, softmax_libm_s)` for `reps` passes, best of
/// `samples`.
fn row_kernels(reps: usize, samples: usize) -> (f64, f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x6E1);
    let block: Vec<f32> = (0..32 * 64).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    // One head's causal score triangle at context 32: rows of width 1..=32.
    let scores: Vec<f32> = (0..32 * 33 / 2)
        .map(|_| rng.gen_range(-6.0f32..6.0))
        .collect();
    let [(gelu_owned, _), (gelu_libm, _)] = best_of(
        1,
        samples,
        [&mut || passes(reps, &block, gelu_in_place), &mut || {
            passes(reps, &block, gelu_libm)
        }],
    );
    let [(softmax_owned, _), (softmax_libm, _)] = best_of(
        1,
        samples,
        [
            &mut || passes(reps, &scores, |s| softmax_rows_in_place(s, 1..=32)),
            &mut || passes(reps, &scores, |s| softmax_rows_libm(s, 1..=32)),
        ],
    );
    (gelu_owned, gelu_libm, softmax_owned, softmax_libm)
}

fn main() {
    let (xs, ys) = synthetic_task(pick(256, 128));
    let samples = pick(10, 5);
    let cfg = train_cfg();
    let [(per_sample_s, _), (batched_s, _)] = best_of(
        1,
        samples,
        [&mut || train_per_sample(&xs, &ys), &mut || {
            train_batched(&xs, &ys)
        }],
    );
    let epoch_samples = (xs.len() * cfg.epochs) as f64;
    let per_sample_tps = epoch_samples / per_sample_s;
    let batched_tps = epoch_samples / batched_s;
    let train_speedup = per_sample_s / batched_s;

    let mlp = Mlp::new(1);
    let rowwise_fn = |t: &mut Tape, s: &ParamStore, x: &Vec<f32>| {
        let xv = t.input(Tensor::from_vec(&[1, INPUT_DIM], x.clone()));
        mlp.logit(t, s, xv)
    };
    let batched_fn = |t: &mut Tape, s: &ParamStore, batch: &[&Vec<f32>]| {
        let xv = batch_input(t, batch);
        mlp.logit(t, s, xv)
    };
    let [(row_s, rowwise), (bat_s, batched)] = best_of(
        1,
        samples,
        [
            &mut || predict_binary(&mlp.store, &xs, rowwise_fn),
            &mut || predict_binary_batch(&mlp.store, &xs, PREDICT_BATCH, batched_fn),
        ],
    );
    assert_eq!(
        rowwise.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        batched.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "batched inference must be bit-identical to row-wise"
    );
    let predict_speedup = row_s / bat_s;

    println!(
        "nn_throughput: train {per_sample_tps:.0} -> {batched_tps:.0} samples/s \
         ({train_speedup:.2}x), predict {predict_speedup:.2}x"
    );
    let (train_floor, predict_floor) = (pick(3.0, 1.5), pick(5.0, 2.0));
    assert!(
        train_speedup >= train_floor,
        "batched-training regression: {train_speedup:.2}x per-sample \
         (floor {train_floor:.1}x)"
    );
    assert!(
        predict_speedup >= predict_floor,
        "batched-inference regression: {predict_speedup:.2}x row-wise \
         (floor {predict_floor:.1}x)"
    );

    let reps = pick(400, 100);
    let (gelu_owned, gelu_libm, softmax_owned, softmax_libm) = row_kernels(reps, samples);
    let (gelu_speedup, softmax_speedup) = (gelu_libm / gelu_owned, softmax_libm / softmax_owned);
    let per_pass_ns = |s: f64| s * 1e9 / reps as f64;
    let simd = active_simd_name();
    println!(
        "nn_throughput: row kernels on {simd}: gelu (32, 64) {:.0} -> {:.0} ns ({gelu_speedup:.2}x), \
         causal softmax rows 1..=32 {:.0} -> {:.0} ns ({softmax_speedup:.2}x) vs libm",
        per_pass_ns(gelu_libm),
        per_pass_ns(gelu_owned),
        per_pass_ns(softmax_libm),
        per_pass_ns(softmax_owned),
    );
    let row_floor = pick(2.0, 1.3);
    if simd != "scalar" {
        assert!(
            gelu_speedup >= row_floor && softmax_speedup >= row_floor,
            "row-kernel regression: gelu {gelu_speedup:.2}x, softmax {softmax_speedup:.2}x \
             the libm loops (floor {row_floor:.1}x)"
        );
    }

    write_baseline(
        "BENCH_nn.json",
        "nn_throughput",
        vec![
            ("network", Value::Str("mlp_64_64_32_1".into())),
            ("samples", Value::Num(xs.len() as f64)),
            ("epochs", Value::Num(cfg.epochs as f64)),
            ("batch_size", Value::Num(cfg.batch_size as f64)),
            (
                "per_sample_train_samples_per_sec",
                Value::Num(per_sample_tps),
            ),
            ("batched_train_samples_per_sec", Value::Num(batched_tps)),
            ("train_speedup", Value::Num(train_speedup)),
            (
                "rowwise_predict_samples_per_sec",
                Value::Num(xs.len() as f64 / row_s),
            ),
            (
                "batched_predict_samples_per_sec",
                Value::Num(xs.len() as f64 / bat_s),
            ),
            ("predict_speedup", Value::Num(predict_speedup)),
            ("gelu_block", Value::Str("32x64".into())),
            ("gelu_libm_ns", Value::Num(per_pass_ns(gelu_libm))),
            ("gelu_owned_ns", Value::Num(per_pass_ns(gelu_owned))),
            ("gelu_speedup", Value::Num(gelu_speedup)),
            ("softmax_rows", Value::Str("causal 1..=32".into())),
            ("softmax_libm_ns", Value::Num(per_pass_ns(softmax_libm))),
            ("softmax_owned_ns", Value::Num(per_pass_ns(softmax_owned))),
            ("softmax_speedup", Value::Num(softmax_speedup)),
            ("row_kernel_floor", Value::Num(row_floor)),
        ],
    );
}
