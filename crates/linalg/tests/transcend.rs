//! Accuracy, edge values and tier parity of the owned transcendentals.
//!
//! Runs on whichever tier the host dispatches to; CI also runs it under
//! `PHISHINGHOOK_FORCE_SCALAR=1`, where the slice kernels take the scalar
//! loop.

use phishinghook_linalg::transcend::{exp, map_in_place, sigmoid, tanh};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every `step`-spaced point of `[lo, hi]`, plus `hi`.
fn sweep(lo: f32, hi: f32, step: f64) -> impl Iterator<Item = f32> {
    let n = ((hi - lo) as f64 / step) as usize;
    (0..=n)
        .map(move |i| (lo as f64 + i as f64 * step) as f32)
        .chain([hi])
}

fn exp_rel_err(x: f32) -> f64 {
    let want = (x as f64).exp();
    (exp(x) as f64 - want).abs() / want
}

fn tanh_abs_err(x: f32) -> f64 {
    (tanh(x) as f64 - (x as f64).tanh()).abs()
}

fn sigmoid_abs_err(x: f32) -> f64 {
    (sigmoid(x) as f64 - 1.0 / (1.0 + (-(x as f64)).exp())).abs()
}

#[test]
fn exp_relative_error_is_bounded_over_the_normal_range() {
    let worst = sweep(-87.0, 88.0, 1.0 / 2048.0)
        .map(exp_rel_err)
        .fold(0.0, f64::max);
    assert!(worst <= 4e-7, "max relative error {worst:e}");
}

#[test]
fn tanh_and_sigmoid_absolute_error_is_bounded() {
    let (mut t, mut s) = (0.0f64, 0.0f64);
    for x in sweep(-20.0, 20.0, 1.0 / 8192.0) {
        t = t.max(tanh_abs_err(x));
        s = s.max(sigmoid_abs_err(x));
    }
    assert!(t <= 2e-7, "tanh max absolute error {t:e}");
    assert!(s <= 2e-7, "sigmoid max absolute error {s:e}");
}

#[test]
fn edge_values_are_exact() {
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(-0.0), 1.0);
    assert_eq!(exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(exp(89.0), f32::INFINITY);
    // Every x ≤ −104 is exactly +0: the tape's −1e9 causal mask must give
    // softmax weights of exactly zero.
    for x in sweep(-200.0, -104.0, 1.0 / 64.0).chain([-1e9, f32::MIN, f32::NEG_INFINITY]) {
        assert_eq!(exp(x).to_bits(), 0, "exp({x})");
    }
    assert_eq!(tanh(f32::INFINITY), 1.0);
    assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(sigmoid(f32::INFINITY), 1.0);
    assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
    assert_eq!(sigmoid(0.0), 0.5);
    for f in [exp, tanh, sigmoid] {
        assert!(f(f32::NAN).is_nan());
        assert!(f(-f32::NAN).is_nan());
    }
}

#[test]
fn tanh_is_odd_bitwise() {
    for x in sweep(-12.0, 12.0, 1.0 / 512.0) {
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh({x})");
    }
}

/// A slice mixing the ranges the nn kernels feed in (masked scores, GELU
/// arguments, gate pre-activations) with the special values.
fn random_slice(len: usize, rng: &mut StdRng) -> Vec<f32> {
    const SPECIAL: [f32; 7] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -1e9,
        -104.0,
    ];
    (0..len)
        .map(|_| match rng.gen_range(0u32..10) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1..=3 => rng.gen_range(-120.0f32..100.0),
            _ => rng.gen_range(-8.0f32..8.0),
        })
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(0.797_884_6 * (x + 0.044715 * x * x * x)))
}

/// The dispatched kernel equals the scalar loop bit for bit at every
/// length up to four 16-lane vectors plus a tail.
#[test]
fn map_in_place_matches_the_scalar_loop_at_every_tail_length() {
    let mut rng = StdRng::seed_from_u64(7);
    let kernels = [
        ("exp", exp as fn(f32) -> f32),
        ("tanh", tanh),
        ("sigmoid", sigmoid),
        ("gelu", gelu),
    ];
    for len in 0..=67 {
        for _ in 0..8 {
            let xs = random_slice(len, &mut rng);
            for (name, f) in kernels {
                let mut got = xs.clone();
                map_in_place(&mut got, f);
                let want: Vec<f32> = xs.iter().map(|&x| f(x)).collect();
                assert!(same_bits(&got, &want), "{name} differs at len {len}");
            }
        }
    }
}

proptest! {
    /// Random inputs, away from the sweep grids.
    #[test]
    fn random_inputs_stay_within_bounds(x in -87.0f32..88.0, y in -20.0f32..20.0) {
        prop_assert!(exp_rel_err(x) <= 4e-7, "exp({}) rel err {:e}", x, exp_rel_err(x));
        prop_assert!(tanh_abs_err(y) <= 2e-7, "tanh({}) abs err {:e}", y, tanh_abs_err(y));
        prop_assert!(sigmoid_abs_err(y) <= 2e-7, "sigmoid({}) abs err {:e}", y, sigmoid_abs_err(y));
    }
}
