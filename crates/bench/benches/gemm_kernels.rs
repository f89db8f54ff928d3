//! Bench: the GEMM micro-kernel tiers. `phishinghook_linalg::gemm` runs
//! runtime-detected SIMD inner loops (AVX-512F/AVX2/NEON, scalar reference
//! kept bit-exact) and row-sharded multi-threading; this bench times
//! scalar vs SIMD vs SIMD+threads on a serving-shaped product (one
//! `PREDICT_BATCH`-ish dense layer) and a training-shaped one (large
//! enough to clear the row-sharding thresholds), and enforces the speedup
//! floors: SIMD ≥ 2× scalar on the serving shape and SIMD+threads ≥ 3×
//! scalar on the training shape on the full run (≥ 1.3× / 1.5× under
//! `PHISHINGHOOK_BENCH_SMOKE=1`, the single-core CI noise band). The
//! floors only apply when runtime dispatch actually selected a SIMD tier —
//! on scalar-only hardware (or under `PHISHINGHOOK_FORCE_SCALAR=1`) the
//! bench still runs and records, but skips the asserts with a message.
//!
//! The full run writes `BENCH_gemm.json` with GFLOP/s per tier and the
//! two speedups.

use phishinghook::json::Value;
use phishinghook_bench::harness::{best_of, obj, pick, write_baseline};
use phishinghook_linalg::gemm::{active_simd_name, matmul_into_dispatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// One dense layer of a `PREDICT_BATCH`-sized serving batch.
const SERVING: (usize, usize, usize) = (64, 64, 64);
/// A training-scale product, big enough to engage row-sharding.
const TRAINING: (usize, usize, usize) = (512, 256, 256);

struct Shape {
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    out: RefCell<Vec<f32>>,
}

impl Shape {
    fn new((m, k, n): (usize, usize, usize), reps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(0x6E44);
        let mut rand_vec =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0f32..=1.0)).collect() };
        let a = rand_vec(m * k);
        let b = rand_vec(k * n);
        Shape {
            m,
            k,
            n,
            reps,
            a,
            b,
            out: RefCell::new(vec![0.0; m * n]),
        }
    }

    /// `reps` products into the output buffer all tiers share; allocated
    /// once up front, so no tier times a differently placed buffer.
    fn run(&self, simd: bool, max_threads: usize) -> f32 {
        let (m, k, n) = (self.m, self.k, self.n);
        let mut out = self.out.borrow_mut();
        for _ in 0..self.reps {
            matmul_into_dispatch(simd, max_threads, m, k, n, &self.a, &self.b, &mut out);
        }
        out[0]
    }

    fn product_bits(&self, simd: bool, max_threads: usize) -> Vec<u32> {
        self.run(simd, max_threads);
        self.out.borrow().iter().map(|v| v.to_bits()).collect()
    }

    /// Checks both fast tiers bit-identical to scalar (which doubles as
    /// warmup), then times the three tiers interleaved. Returns
    /// (scalar_s, simd_s, simd_mt_s) per rep.
    fn time_tiers(&self, samples: usize) -> (f64, f64, f64) {
        let reference = self.product_bits(false, 1);
        assert_eq!(
            self.product_bits(true, 1),
            reference,
            "SIMD result must be bit-identical to scalar"
        );
        assert_eq!(
            self.product_bits(true, 0),
            reference,
            "threaded result must be bit-identical to scalar"
        );
        let [(scalar, _), (simd, _), (simd_mt, _)] = best_of(
            0,
            samples,
            [
                &mut || self.run(false, 1),
                &mut || self.run(true, 1),
                &mut || self.run(true, 0),
            ],
        );
        let r = self.reps as f64;
        (scalar / r, simd / r, simd_mt / r)
    }

    fn gflops(&self, secs: f64) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64 / secs / 1e9
    }

    fn report(&self, scalar: f64, simd: f64, simd_mt: f64) -> Value {
        obj(vec![
            ("m", Value::Num(self.m as f64)),
            ("k", Value::Num(self.k as f64)),
            ("n", Value::Num(self.n as f64)),
            ("scalar_gflops", Value::Num(self.gflops(scalar))),
            ("simd_gflops", Value::Num(self.gflops(simd))),
            ("simd_mt_gflops", Value::Num(self.gflops(simd_mt))),
            ("simd_speedup", Value::Num(scalar / simd)),
            ("simd_mt_speedup", Value::Num(scalar / simd_mt)),
        ])
    }
}

fn main() {
    let samples = pick(15, 7);
    let serving = Shape::new(SERVING, pick(50, 20));
    let training = Shape::new(TRAINING, pick(2, 1));
    let (sv_scalar, sv_simd, sv_mt) = serving.time_tiers(samples);
    let (tr_scalar, tr_simd, tr_mt) = training.time_tiers(samples);

    let serving_speedup = sv_scalar / sv_simd;
    let training_speedup = tr_scalar / tr_mt;
    let simd = active_simd_name();
    println!(
        "gemm_kernels [{simd}]: serving {:.1} -> {:.1} GFLOP/s ({serving_speedup:.2}x), \
         training {:.1} -> {:.1} GFLOP/s ({training_speedup:.2}x)",
        serving.gflops(sv_scalar),
        serving.gflops(sv_simd),
        training.gflops(tr_scalar),
        training.gflops(tr_mt),
    );
    if simd == "scalar" {
        // Scalar-only hardware (or PHISHINGHOOK_FORCE_SCALAR): there is no
        // SIMD tier to hold to a floor; record the timings and move on.
        println!("  gemm floors skipped: runtime dispatch selected the scalar tier");
    } else {
        let (serving_floor, training_floor) = (pick(2.0, 1.3), pick(3.0, 1.5));
        assert!(
            serving_speedup >= serving_floor,
            "SIMD ({simd}) serving-shape regression: {serving_speedup:.2}x scalar \
             (floor {serving_floor:.1}x)"
        );
        assert!(
            training_speedup >= training_floor,
            "SIMD+threads ({simd}) training-shape regression: {training_speedup:.2}x scalar \
             (floor {training_floor:.1}x)"
        );
    }

    write_baseline(
        "BENCH_gemm.json",
        "gemm_kernels",
        vec![
            ("serving", serving.report(sv_scalar, sv_simd, sv_mt)),
            ("training", training.report(tr_scalar, tr_simd, tr_mt)),
        ],
    );
}
