//! Bench: the batched NN compute path. The shared trainer used to build
//! a fresh tape and run a full forward/backward **per sample**; it now
//! records one arena-reused tape per mini-batch over a `(B, d)` GEMM.
//! This bench times both loops — the retired per-sample loop is kept in
//! `phishinghook_models::trainer::train_binary_per_sample` precisely as
//! this baseline — on the ESCORT-shaped dense network at quick-profile
//! sizes, plus batched vs. row-wise inference.
//!
//! The bench writes `BENCH_nn.json` (train/predict samples-per-sec,
//! per-sample vs. batched) and enforces the speedup floors: batched
//! training must be ≥3× per-sample and batched inference ≥5× row-wise on
//! the full run (≥1.5× / ≥2× under `PHISHINGHOOK_BENCH_SMOKE=1`, the
//! single-core CI noise band) — a batched-path regression fails the
//! build.

use phishinghook_bench::harness::{best_of, pick, write_baseline};
use phishinghook_bench::json::Value;
use phishinghook_models::trainer::{
    batch_input, predict_binary, predict_binary_batch, train_binary, train_binary_per_sample,
    TrainConfig, PREDICT_BATCH,
};
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
        ],
    );
}
