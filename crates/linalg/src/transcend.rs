//! Libm-free `exp`, `tanh` and `sigmoid`, plus the element-wise slice
//! kernel that runs them on the runtime-selected SIMD tier.
//!
//! **Why owned.** libm's `expf`/`tanhf` are opaque calls: they cannot be
//! vectorized, and their last bit differs between glibc, musl and macOS.
//! These functions are built only from IEEE `+ − × ÷`, compare/select,
//! sign-bit and exponent-bit manipulation, so every host computes the same
//! bits. Rust never contracts a multiply and an add into an FMA, so a
//! vector lane performs exactly the scalar sequence too.
//!
//! **Method.** [`exp`] uses a Cody–Waite reduction `x = k·ln2 + r`,
//! `|r| ≤ ln2/2`: `k` is rounded by the magic-number trick (adding
//! `1.5·2²³` leaves `k` in the low mantissa bits), `ln2` is split into a
//! short high part (so `k·ln2_hi` is exact) and a low correction, and
//! `e^r` is a degree-6 minimax polynomial (fit error 3.1e-9, far below an
//! `f32` ulp). `2^k` is assembled from exponent bits in two halves so
//! subnormal results round once. The measured maximum relative error over
//! `[−87, 88]` is 8.1e-8 (the tests bound it at 4e-7); every `x ≤ −104`
//! gives exactly `0.0`, so a `−1e9` attention mask yields softmax weights
//! of exactly zero. [`tanh`] is `sign(x)·(1−e)/(1+e)` with
//! `e = exp(−2|x|)` and [`sigmoid`] is `1/(1+exp(−x))`; both measure
//! 8.9e-8 maximum absolute error over `[−20, 20]` (bound 2e-7).
//!
//! **SIMD tiers.** The slice kernel [`map_in_place`] dispatches on the
//! tier [`gemm`](crate::gemm) resolves once per process (so
//! `PHISHINGHOOK_FORCE_SCALAR=1` pins it too). Each tier is the *same
//! scalar loop body* compiled under `#[target_feature]` and left to the
//! auto-vectorizer — there are no hand-written intrinsics — so every tier
//! is bit-identical to the scalar loop by construction.

use crate::gemm::{active_simd, Simd};

/// `log2(e)`, for the reduction's `k = round(x·log2 e)`.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// High part of `ln 2` (`0x3f318000`, 9 significant bits): `k·LN2_HI` is
/// exact for every reachable `|k| ≤ 150`.
const LN2_HI: f32 = 0.693_359_4;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5·2²³`: adding it rounds to an integer held in the low mantissa bits.
const MAGIC: f32 = 12_582_912.0;
/// Inputs above this overflow to `+∞` (`exp` passes `f32::MAX` near 88.72).
const EXP_HI: f32 = 88.8;
/// Inputs at or below this give exactly `0.0` (`e^−104` is under half the
/// smallest subnormal).
const EXP_LO: f32 = -104.0;
// Minimax coefficients of `e^r ≈ 1 + r + r²·(C2 + C3·r + … + C6·r⁴)` on
// `|r| ≤ ln2/2`.
const C2: f32 = 0.5;
const C3: f32 = 0.166_665_2;
const C4: f32 = 0.041_666_206;
const C5: f32 = 0.008_368_882;
const C6: f32 = 0.001_395_047_9;

/// `2^k` for `k` in `[−126, 127]`, built from exponent bits.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// `e^x` in single precision: relative error below 4e-7 wherever the
/// result is normal, exactly `0.0` for `x ≤ −104`, `+∞` past the overflow
/// threshold, `exp(0) = 1` and NaN for NaN. Bit-identical on every host.
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::transcend::exp;
///
/// assert_eq!(exp(0.0), 1.0);
/// assert_eq!(exp(-1e9), 0.0);
/// assert!((exp(1.0) - std::f32::consts::E).abs() < 1e-6);
/// ```
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Clamp (two compare/selects; NaN passes through) so the exponent
    // arithmetic below stays in range.
    let xc = x.clamp(EXP_LO, EXP_HI);
    let t = xc * LOG2E + MAGIC;
    let k = t - MAGIC;
    let r = (xc - k * LN2_HI) - k * LN2_LO;
    let q = C2 + r * (C3 + r * (C4 + r * (C5 + r * C6)));
    let p = 1.0 + (r + r * r * q);
    // `k` as an integer, straight from the rounded sum's mantissa bits;
    // split in two so `2^k` down to `2^−150` is two normal factors.
    let ki = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let k1 = ki >> 1;
    let y = p * pow2(k1) * pow2(ki.wrapping_sub(k1));
    if x <= EXP_LO {
        0.0
    } else {
        y
    }
}

/// Hyperbolic tangent, `sign(x)·(1−e)/(1+e)` with `e = exp(−2|x|)`:
/// absolute error below 2e-7, `tanh(±∞) = ±1`, `tanh(−0) = −0`, NaN for
/// NaN. Bit-identical on every host.
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::transcend::tanh;
///
/// assert_eq!(tanh(f32::INFINITY), 1.0);
/// assert!((tanh(0.5) - 0.5f32.tanh()).abs() < 2e-7);
/// ```
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let e = exp(-2.0 * x.abs());
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

/// Logistic sigmoid `1/(1+exp(−x))`: absolute error below 2e-7, exactly
/// `0` and `1` at `∓∞`. Bit-identical on every host.
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::transcend::sigmoid;
///
/// assert_eq!(sigmoid(0.0), 0.5);
/// ```
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// The scalar loop every tier compiles.
#[inline(always)]
fn map_loop<F: Fn(f32) -> f32>(xs: &mut [f32], f: F) {
    for v in xs {
        *v = f(*v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_avx2<F: Fn(f32) -> f32>(xs: &mut [f32], f: F) {
    map_loop(xs, f);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_avx512<F: Fn(f32) -> f32>(xs: &mut [f32], f: F) {
    map_loop(xs, f);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn map_neon<F: Fn(f32) -> f32>(xs: &mut [f32], f: F) {
    map_loop(xs, f);
}

/// `xs[i] = f(xs[i])` for every element, on the runtime-selected SIMD
/// tier. Each tier compiles the same scalar loop, so the result is
/// bit-identical to `for v in xs { *v = f(*v) }`; it is fast when `f` is
/// inlinable straight-line arithmetic, such as [`exp`], [`tanh`] and
/// [`sigmoid`].
#[inline]
pub fn map_in_place<F: Fn(f32) -> f32>(xs: &mut [f32], f: F) {
    match active_simd() {
        Simd::Scalar => map_loop(xs, f),
        // Safety: each tier is selected only after runtime detection.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { map_avx2(xs, f) },
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { map_avx512(xs, f) },
        #[cfg(target_arch = "aarch64")]
        Simd::Neon => unsafe { map_neon(xs, f) },
    }
}
