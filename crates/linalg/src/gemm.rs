//! Blocked dense kernels over raw `f32` slices.
//!
//! These are the shared compute primitives under both [`Matrix`] and the
//! autodiff tape in `phishinghook-nn`: a cache-blocked GEMM with packed
//! B-panels, a tiled transpose, and `dot`/`axpy` inner loops. Keeping them
//! slice-shaped (no owning type) lets both layers call straight into one
//! kernel and lets callers reuse output storage across calls
//! (`matmul_into` / `transpose_into`).
//!
//! **SIMD tiers.** The GEMM micro-kernel and `axpy` dispatch at runtime
//! (`is_x86_feature_detected!`, cached per process) to AVX-512F, AVX2 or
//! NEON lane-parallel inner loops, with the scalar loop kept as the
//! bit-exact reference (on x86-64 the compiler auto-vectorizes it to the
//! SSE2 baseline). Vector lanes map to *distinct output columns* — the `n`
//! dimension — so each `C[i][j]` still receives exactly one rounded
//! multiply and one rounded add per `k` step, in strictly increasing `k`
//! order; no tier uses a fused multiply-add (FMA skips the product's
//! rounding and would change bits). `PHISHINGHOOK_FORCE_SCALAR=1` pins the
//! scalar reference for A/B runs; CI runs this crate's tests both ways.
//! The element-wise row kernels of [`transcend`](crate::transcend) (the
//! nn crate's GELU, softmax `exp`, `tanh` and sigmoid) dispatch on the
//! same once-resolved tier, so one knob pins them too; their tiers are
//! the scalar loop recompiled under `#[target_feature]`, not intrinsics.
//!
//! **Threading.** Large products shard A's row blocks across scoped
//! threads ([`par::pool_size`](crate::par), overridable with
//! `PHISHINGHOOK_THREADS`). Workers own disjoint output-row ranges and
//! share nothing but the read-only inputs — each row's computation is
//! identical to the single-threaded one, so the result is bit-identical at
//! every worker count, deterministic by construction.
//!
//! **Accumulation-order contract:** for every output element, products are
//! accumulated in strictly increasing `k` order, independent of blocking,
//! SIMD tier and thread count — so `C[i][j]` is bit-identical whether the
//! row arrived alone (a GEMV-shaped call) or inside a larger batch. The
//! batched training/inference paths rely on this for their bit-parity
//! guarantees.
//!
//! [`Matrix`]: crate::Matrix

use crate::par;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// k-dimension block: one packed B-panel spans `KC` rows of B.
const KC: usize = 256;
/// n-dimension block: columns per packed B-panel. `KC × NC` f32s is 64 KiB
/// — sized so the packed panel stays (mostly) L1-resident while the
/// register-tiled micro-kernel streams it once per four-row group.
const NC: usize = 64;
/// Transpose tile side.
const TC: usize = 32;
/// Below this `k·n` footprint (f32s) the direct loop beats packing.
const SMALL_B: usize = 16 * 1024;
/// Row-sharding engages only at or above this `m·k·n` multiply-accumulate
/// count: smaller products finish faster than the scoped-thread spawns.
const MT_MIN_MACS: usize = 4 << 20;
/// Minimum output rows per worker, so a shard amortizes its spawn.
const MT_MIN_ROWS: usize = 32;

thread_local! {
    /// Per-thread packing arena so steady-state GEMMs never allocate.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// SIMD tier selection
// ---------------------------------------------------------------------------

/// Micro-kernel tier, resolved once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

#[cfg(target_arch = "x86_64")]
fn best_simd() -> Simd {
    // avx512f gating also requires avx2 so the tier can assume 256-bit ops.
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
        Simd::Avx512
    } else if is_x86_feature_detected!("avx2") {
        Simd::Avx2
    } else {
        Simd::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn best_simd() -> Simd {
    // NEON is part of the aarch64 baseline.
    Simd::Neon
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn best_simd() -> Simd {
    Simd::Scalar
}

#[allow(clippy::disallowed_methods)] // a process-wide test hook, read where it acts
fn detect_simd() -> Simd {
    let forced =
        std::env::var_os("PHISHINGHOOK_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    if forced {
        Simd::Scalar
    } else {
        best_simd()
    }
}

const SIMD_UNINIT: u8 = 0;

fn simd_code(s: Simd) -> u8 {
    match s {
        Simd::Scalar => 1,
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => 2,
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => 3,
        #[cfg(target_arch = "aarch64")]
        Simd::Neon => 4,
    }
}

fn simd_from_code(c: u8) -> Simd {
    match c {
        #[cfg(target_arch = "x86_64")]
        2 => Simd::Avx2,
        #[cfg(target_arch = "x86_64")]
        3 => Simd::Avx512,
        #[cfg(target_arch = "aarch64")]
        4 => Simd::Neon,
        _ => Simd::Scalar,
    }
}

pub(crate) fn active_simd() -> Simd {
    static CACHE: AtomicU8 = AtomicU8::new(SIMD_UNINIT);
    let c = CACHE.load(Ordering::Relaxed);
    if c != SIMD_UNINIT {
        return simd_from_code(c);
    }
    let s = detect_simd();
    CACHE.store(simd_code(s), Ordering::Relaxed);
    s
}

/// Name of the runtime-selected micro-kernel tier — `"scalar"`, `"avx2"`,
/// `"avx512f"` or `"neon"`. Benches record it and skip SIMD-speedup floors
/// when only the scalar reference is available.
pub fn active_simd_name() -> &'static str {
    match active_simd() {
        Simd::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => "avx512f",
        #[cfg(target_arch = "aarch64")]
        Simd::Neon => "neon",
    }
}

// ---------------------------------------------------------------------------
// Lane-parallel inner loops
// ---------------------------------------------------------------------------
//
// Every vector op below is a separate multiply and add (`mul_ps` then
// `add_ps`, never an FMA): the scalar reference rounds each product before
// accumulating, and a fused multiply-add would skip that rounding and
// change bits. Lanes are distinct `j` columns, so each lane performs
// exactly the scalar per-element sequence.
//
// The panel kernels are register-tiled: a tile of C accumulators is
// loaded once, accumulated in registers across the whole `kk` loop, and
// stored once. Where the C value lives (register vs memory) cannot change
// an f32 rounding, so the result stays bit-identical to the scalar
// reference — but the inner loop stops being store-bound, which is where
// the SIMD speedup actually comes from.

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use std::arch::x86_64::*;

    /// Four-row register-tiled panel kernel, AVX2:
    /// `r?[j] += Σ_kk a?[kk] · panel[kk·nc + j]`. Tiles of 16 columns hold
    /// eight accumulators (eight independent dependency chains to cover
    /// the `add` latency); per element the accumulation is one rounded
    /// multiply and one rounded add per `kk`, `kk` ascending — the exact
    /// scalar sequence.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2`; the `a?` slices share one length
    /// `kc`, `panel` holds at least `kc·nc` elements and every `r?` at
    /// least `nc`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn quad_panel_avx2(
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        nc: usize,
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
    ) {
        let kc = a0.len();
        let bp = panel.as_ptr();
        let (p0, p1) = (r0.as_mut_ptr(), r1.as_mut_ptr());
        let (p2, p3) = (r2.as_mut_ptr(), r3.as_mut_ptr());
        let mut j = 0;
        while j + 16 <= nc {
            let mut c00 = _mm256_loadu_ps(p0.add(j));
            let mut c01 = _mm256_loadu_ps(p0.add(j + 8));
            let mut c10 = _mm256_loadu_ps(p1.add(j));
            let mut c11 = _mm256_loadu_ps(p1.add(j + 8));
            let mut c20 = _mm256_loadu_ps(p2.add(j));
            let mut c21 = _mm256_loadu_ps(p2.add(j + 8));
            let mut c30 = _mm256_loadu_ps(p3.add(j));
            let mut c31 = _mm256_loadu_ps(p3.add(j + 8));
            for kk in 0..kc {
                let b0 = _mm256_loadu_ps(bp.add(kk * nc + j));
                let b1 = _mm256_loadu_ps(bp.add(kk * nc + j + 8));
                let va0 = _mm256_set1_ps(a0[kk]);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(va0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(va0, b1));
                let va1 = _mm256_set1_ps(a1[kk]);
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(va1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(va1, b1));
                let va2 = _mm256_set1_ps(a2[kk]);
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(va2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(va2, b1));
                let va3 = _mm256_set1_ps(a3[kk]);
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(va3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(va3, b1));
            }
            _mm256_storeu_ps(p0.add(j), c00);
            _mm256_storeu_ps(p0.add(j + 8), c01);
            _mm256_storeu_ps(p1.add(j), c10);
            _mm256_storeu_ps(p1.add(j + 8), c11);
            _mm256_storeu_ps(p2.add(j), c20);
            _mm256_storeu_ps(p2.add(j + 8), c21);
            _mm256_storeu_ps(p3.add(j), c30);
            _mm256_storeu_ps(p3.add(j + 8), c31);
            j += 16;
        }
        while j + 8 <= nc {
            let mut c0 = _mm256_loadu_ps(p0.add(j));
            let mut c1 = _mm256_loadu_ps(p1.add(j));
            let mut c2 = _mm256_loadu_ps(p2.add(j));
            let mut c3 = _mm256_loadu_ps(p3.add(j));
            for kk in 0..kc {
                let b0 = _mm256_loadu_ps(bp.add(kk * nc + j));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[kk]), b0));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[kk]), b0));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[kk]), b0));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[kk]), b0));
            }
            _mm256_storeu_ps(p0.add(j), c0);
            _mm256_storeu_ps(p1.add(j), c1);
            _mm256_storeu_ps(p2.add(j), c2);
            _mm256_storeu_ps(p3.add(j), c3);
            j += 8;
        }
        super::quad_panel_tail(j, a0, a1, a2, a3, panel, nc, r0, r1, r2, r3);
    }

    /// [`quad_panel_avx2`] at 16 lanes: tiles of 32 columns, eight
    /// accumulators.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f`; same slice preconditions as
    /// [`quad_panel_avx2`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn quad_panel_avx512(
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        nc: usize,
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
    ) {
        let kc = a0.len();
        let bp = panel.as_ptr();
        let (p0, p1) = (r0.as_mut_ptr(), r1.as_mut_ptr());
        let (p2, p3) = (r2.as_mut_ptr(), r3.as_mut_ptr());
        let mut j = 0;
        while j + 32 <= nc {
            let mut c00 = _mm512_loadu_ps(p0.add(j));
            let mut c01 = _mm512_loadu_ps(p0.add(j + 16));
            let mut c10 = _mm512_loadu_ps(p1.add(j));
            let mut c11 = _mm512_loadu_ps(p1.add(j + 16));
            let mut c20 = _mm512_loadu_ps(p2.add(j));
            let mut c21 = _mm512_loadu_ps(p2.add(j + 16));
            let mut c30 = _mm512_loadu_ps(p3.add(j));
            let mut c31 = _mm512_loadu_ps(p3.add(j + 16));
            for kk in 0..kc {
                let b0 = _mm512_loadu_ps(bp.add(kk * nc + j));
                let b1 = _mm512_loadu_ps(bp.add(kk * nc + j + 16));
                let va0 = _mm512_set1_ps(a0[kk]);
                c00 = _mm512_add_ps(c00, _mm512_mul_ps(va0, b0));
                c01 = _mm512_add_ps(c01, _mm512_mul_ps(va0, b1));
                let va1 = _mm512_set1_ps(a1[kk]);
                c10 = _mm512_add_ps(c10, _mm512_mul_ps(va1, b0));
                c11 = _mm512_add_ps(c11, _mm512_mul_ps(va1, b1));
                let va2 = _mm512_set1_ps(a2[kk]);
                c20 = _mm512_add_ps(c20, _mm512_mul_ps(va2, b0));
                c21 = _mm512_add_ps(c21, _mm512_mul_ps(va2, b1));
                let va3 = _mm512_set1_ps(a3[kk]);
                c30 = _mm512_add_ps(c30, _mm512_mul_ps(va3, b0));
                c31 = _mm512_add_ps(c31, _mm512_mul_ps(va3, b1));
            }
            _mm512_storeu_ps(p0.add(j), c00);
            _mm512_storeu_ps(p0.add(j + 16), c01);
            _mm512_storeu_ps(p1.add(j), c10);
            _mm512_storeu_ps(p1.add(j + 16), c11);
            _mm512_storeu_ps(p2.add(j), c20);
            _mm512_storeu_ps(p2.add(j + 16), c21);
            _mm512_storeu_ps(p3.add(j), c30);
            _mm512_storeu_ps(p3.add(j + 16), c31);
            j += 32;
        }
        while j + 16 <= nc {
            let mut c0 = _mm512_loadu_ps(p0.add(j));
            let mut c1 = _mm512_loadu_ps(p1.add(j));
            let mut c2 = _mm512_loadu_ps(p2.add(j));
            let mut c3 = _mm512_loadu_ps(p3.add(j));
            for kk in 0..kc {
                let b0 = _mm512_loadu_ps(bp.add(kk * nc + j));
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(a0[kk]), b0));
                c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(a1[kk]), b0));
                c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(a2[kk]), b0));
                c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(a3[kk]), b0));
            }
            _mm512_storeu_ps(p0.add(j), c0);
            _mm512_storeu_ps(p1.add(j), c1);
            _mm512_storeu_ps(p2.add(j), c2);
            _mm512_storeu_ps(p3.add(j), c3);
            j += 16;
        }
        super::quad_panel_tail(j, a0, a1, a2, a3, panel, nc, r0, r1, r2, r3);
    }

    /// `out[j] += alpha * x[j]`, 8 lanes at a time.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2`; slice lengths must match.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(alpha: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let va = _mm256_set1_ps(alpha);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let s = _mm256_add_ps(
                _mm256_loadu_ps(op.add(j)),
                _mm256_mul_ps(va, _mm256_loadu_ps(xp.add(j))),
            );
            _mm256_storeu_ps(op.add(j), s);
            j += 8;
        }
        while j < n {
            out[j] += alpha * x[j];
            j += 1;
        }
    }

    /// [`axpy_avx2`] at 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f`; slice lengths must match.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_avx512(alpha: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let va = _mm512_set1_ps(alpha);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let s = _mm512_add_ps(
                _mm512_loadu_ps(op.add(j)),
                _mm512_mul_ps(va, _mm512_loadu_ps(xp.add(j))),
            );
            _mm512_storeu_ps(op.add(j), s);
            j += 16;
        }
        while j < n {
            out[j] += alpha * x[j];
            j += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod lanes_neon {
    use std::arch::aarch64::*;

    /// Four-row register-tiled panel kernel, NEON: tiles of 8 columns hold
    /// eight accumulators, C stays in registers across the `kk` loop. Same
    /// per-element rounding sequence as the scalar reference.
    ///
    /// # Safety
    ///
    /// The `a?` slices share one length `kc`, `panel` holds at least
    /// `kc·nc` elements and every `r?` at least `nc` (NEON itself is part
    /// of the aarch64 baseline).
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn quad_panel_neon(
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        nc: usize,
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
    ) {
        let kc = a0.len();
        let bp = panel.as_ptr();
        let (p0, p1) = (r0.as_mut_ptr(), r1.as_mut_ptr());
        let (p2, p3) = (r2.as_mut_ptr(), r3.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= nc {
            let mut c00 = vld1q_f32(p0.add(j));
            let mut c01 = vld1q_f32(p0.add(j + 4));
            let mut c10 = vld1q_f32(p1.add(j));
            let mut c11 = vld1q_f32(p1.add(j + 4));
            let mut c20 = vld1q_f32(p2.add(j));
            let mut c21 = vld1q_f32(p2.add(j + 4));
            let mut c30 = vld1q_f32(p3.add(j));
            let mut c31 = vld1q_f32(p3.add(j + 4));
            for kk in 0..kc {
                let b0 = vld1q_f32(bp.add(kk * nc + j));
                let b1 = vld1q_f32(bp.add(kk * nc + j + 4));
                let va0 = vdupq_n_f32(a0[kk]);
                c00 = vaddq_f32(c00, vmulq_f32(va0, b0));
                c01 = vaddq_f32(c01, vmulq_f32(va0, b1));
                let va1 = vdupq_n_f32(a1[kk]);
                c10 = vaddq_f32(c10, vmulq_f32(va1, b0));
                c11 = vaddq_f32(c11, vmulq_f32(va1, b1));
                let va2 = vdupq_n_f32(a2[kk]);
                c20 = vaddq_f32(c20, vmulq_f32(va2, b0));
                c21 = vaddq_f32(c21, vmulq_f32(va2, b1));
                let va3 = vdupq_n_f32(a3[kk]);
                c30 = vaddq_f32(c30, vmulq_f32(va3, b0));
                c31 = vaddq_f32(c31, vmulq_f32(va3, b1));
            }
            vst1q_f32(p0.add(j), c00);
            vst1q_f32(p0.add(j + 4), c01);
            vst1q_f32(p1.add(j), c10);
            vst1q_f32(p1.add(j + 4), c11);
            vst1q_f32(p2.add(j), c20);
            vst1q_f32(p2.add(j + 4), c21);
            vst1q_f32(p3.add(j), c30);
            vst1q_f32(p3.add(j + 4), c31);
            j += 8;
        }
        while j + 4 <= nc {
            let mut c0 = vld1q_f32(p0.add(j));
            let mut c1 = vld1q_f32(p1.add(j));
            let mut c2 = vld1q_f32(p2.add(j));
            let mut c3 = vld1q_f32(p3.add(j));
            for kk in 0..kc {
                let b0 = vld1q_f32(bp.add(kk * nc + j));
                c0 = vaddq_f32(c0, vmulq_f32(vdupq_n_f32(a0[kk]), b0));
                c1 = vaddq_f32(c1, vmulq_f32(vdupq_n_f32(a1[kk]), b0));
                c2 = vaddq_f32(c2, vmulq_f32(vdupq_n_f32(a2[kk]), b0));
                c3 = vaddq_f32(c3, vmulq_f32(vdupq_n_f32(a3[kk]), b0));
            }
            vst1q_f32(p0.add(j), c0);
            vst1q_f32(p1.add(j), c1);
            vst1q_f32(p2.add(j), c2);
            vst1q_f32(p3.add(j), c3);
            j += 4;
        }
        super::quad_panel_tail(j, a0, a1, a2, a3, panel, nc, r0, r1, r2, r3);
    }

    /// `out[j] += alpha * x[j]`, 4 lanes at a time.
    ///
    /// # Safety
    ///
    /// Slice lengths must match.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_neon(alpha: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let va = vdupq_n_f32(alpha);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            vst1q_f32(
                op.add(j),
                vaddq_f32(vld1q_f32(op.add(j)), vmulq_f32(va, vld1q_f32(xp.add(j)))),
            );
            j += 4;
        }
        while j < n {
            out[j] += alpha * x[j];
            j += 1;
        }
    }
}

/// Scalar per-column tail of the quad-row panel kernels: columns `j0..nc`,
/// each accumulated over `kk` in increasing order — the same per-element
/// sequence as the vector tiles and the scalar reference.
#[allow(clippy::too_many_arguments, dead_code)]
fn quad_panel_tail(
    j0: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
) {
    for j in j0..nc {
        let (mut s0, mut s1) = (r0[j], r1[j]);
        let (mut s2, mut s3) = (r2[j], r3[j]);
        for kk in 0..a0.len() {
            let bv = panel[kk * nc + j];
            s0 += a0[kk] * bv;
            s1 += a1[kk] * bv;
            s2 += a2[kk] * bv;
            s3 += a3[kk] * bv;
        }
        r0[j] = s0;
        r1[j] = s1;
        r2[j] = s2;
        r3[j] = s3;
    }
}

/// The scalar reference for the quad-row panel kernel: `kk` outer,
/// per element one rounded multiply then one rounded add, `kk` ascending.
/// Every SIMD tier reproduces this per-element sequence exactly; only the
/// loop nesting and where C lives (register vs memory) differ, neither of
/// which affects f32 rounding.
#[allow(clippy::too_many_arguments)]
fn quad_panel_scalar(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
) {
    for kk in 0..a0.len() {
        let brow = &panel[kk * nc..kk * nc + nc];
        let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
        for j in 0..nc {
            let bv = brow[j];
            r0[j] += v0 * bv;
            r1[j] += v1 * bv;
            r2[j] += v2 * bv;
            r3[j] += v3 * bv;
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn quad_panel(
    simd: Simd,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
) {
    let kc = a0.len();
    debug_assert!(a1.len() == kc && a2.len() == kc && a3.len() == kc);
    debug_assert!(panel.len() >= kc * nc);
    debug_assert!(r0.len() >= nc && r1.len() >= nc && r2.len() >= nc && r3.len() >= nc);
    match simd {
        Simd::Scalar => quad_panel_scalar(a0, a1, a2, a3, panel, nc, r0, r1, r2, r3),
        // Safety: each tier is selected only after runtime feature
        // detection, and the slice-length preconditions are asserted above.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe {
            lanes_x86::quad_panel_avx2(a0, a1, a2, a3, panel, nc, r0, r1, r2, r3)
        },
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe {
            lanes_x86::quad_panel_avx512(a0, a1, a2, a3, panel, nc, r0, r1, r2, r3)
        },
        #[cfg(target_arch = "aarch64")]
        Simd::Neon => unsafe {
            lanes_neon::quad_panel_neon(a0, a1, a2, a3, panel, nc, r0, r1, r2, r3)
        },
    }
}

#[inline(always)]
fn axpy_dispatch(simd: Simd, alpha: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    match simd {
        Simd::Scalar => axpy_scalar_impl(alpha, x, out),
        // Safety: tier selected after runtime detection, lengths equal.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { lanes_x86::axpy_avx2(alpha, x, out) },
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { lanes_x86::axpy_avx512(alpha, x, out) },
        #[cfg(target_arch = "aarch64")]
        Simd::Neon => unsafe { lanes_neon::axpy_neon(alpha, x, out) },
    }
}

/// The scalar `axpy` loop, 4-way unrolled. Element-wise, so neither the
/// unroll nor any lane width can change a result bit.
fn axpy_scalar_impl(alpha: f32, x: &[f32], out: &mut [f32]) {
    let chunks = x.len() / 4;
    let (x4, xt) = x.split_at(chunks * 4);
    let (o4, ot) = out.split_at_mut(chunks * 4);
    for (xc, oc) in x4.chunks_exact(4).zip(o4.chunks_exact_mut(4)) {
        oc[0] += alpha * xc[0];
        oc[1] += alpha * xc[1];
        oc[2] += alpha * xc[2];
        oc[3] += alpha * xc[3];
    }
    for (o, &v) in ot.iter_mut().zip(xt) {
        *o += alpha * v;
    }
}

/// `out[..n] += alpha * x[..n]` on the runtime-selected SIMD tier.
///
/// Element-wise (each element gets exactly one rounded multiply and one
/// rounded add), so every tier is bit-identical to [`axpy_scalar`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    axpy_dispatch(active_simd(), alpha, x, out);
}

/// The scalar reference for [`axpy`] — the path `PHISHINGHOOK_FORCE_SCALAR`
/// pins, kept public so parity tests and benches can call it explicitly.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy_scalar(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    axpy_scalar_impl(alpha, x, out);
}

/// Dot product with four independent accumulators (final reduction
/// `(s0 + s1) + (s2 + s3)`), unrolled 4-way.
///
/// This is deliberately **not** widened beyond four accumulators: the
/// accumulator count is part of the result's bit pattern, and every caller
/// (`vecops::dot` delegates here — there is exactly one dot kernel) relies
/// on it staying stable across hardware tiers.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let chunks = a.len() / 4;
    let (a4, at) = a.split_at(chunks * 4);
    let (b4, bt) = b.split_at(chunks * 4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (ac, bc) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        s0 += ac[0] * bc[0];
        s1 += ac[1] * bc[1];
        s2 += ac[2] * bc[2];
        s3 += ac[3] * bc[3];
    }
    let mut tail = 0.0f32;
    for (&x, &y) in at.iter().zip(bt) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

// ---------------------------------------------------------------------------
// Blocked GEMM
// ---------------------------------------------------------------------------

/// The register-blocked inner kernel: multiplies the `k0..k0+kc` columns
/// of `m` rows of `A` (row stride `lda`) by a contiguous `kc × nc` B-panel
/// into the `j0..j0+nc` columns of `m` output rows (row stride `ldo`),
/// accumulating in place.
///
/// Output rows are processed **four at a time**, so each loaded B element
/// feeds four accumulating rows — the batch dimension is what pays for the
/// register blocking, which is why one batched `(B, d)` GEMM beats `B`
/// separate GEMV calls on identical FLOPs. The `j` loop runs on the
/// selected SIMD tier with lanes mapped to output columns. Per output
/// element the `kk` order is strictly increasing, and the tail-row path
/// accumulates in the same order, so every row's bits are independent of
/// how many rows ride alongside it and of the lane width.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    simd: Simd,
    m: usize,
    kc: usize,
    nc: usize,
    a: &[f32],
    lda: usize,
    k0: usize,
    panel: &[f32],
    out: &mut [f32],
    ldo: usize,
    j0: usize,
) {
    let mut i = 0;
    let mut rest = out;
    while i + 4 <= m {
        let (block, tail) = rest.split_at_mut(4 * ldo);
        rest = tail;
        let (r0, b1) = block.split_at_mut(ldo);
        let (r1, b2) = b1.split_at_mut(ldo);
        let (r2, r3) = b2.split_at_mut(ldo);
        let r0 = &mut r0[j0..j0 + nc];
        let r1 = &mut r1[j0..j0 + nc];
        let r2 = &mut r2[j0..j0 + nc];
        let r3 = &mut r3[j0..j0 + nc];
        let a0 = &a[i * lda + k0..i * lda + k0 + kc];
        let a1 = &a[(i + 1) * lda + k0..(i + 1) * lda + k0 + kc];
        let a2 = &a[(i + 2) * lda + k0..(i + 2) * lda + k0 + kc];
        let a3 = &a[(i + 3) * lda + k0..(i + 3) * lda + k0 + kc];
        quad_panel(simd, a0, a1, a2, a3, &panel[..kc * nc], nc, r0, r1, r2, r3);
        i += 4;
    }
    for (ti, row) in rest.chunks_exact_mut(ldo).enumerate() {
        let ri = i + ti;
        let out_row = &mut row[j0..j0 + nc];
        for kk in 0..kc {
            axpy_dispatch(
                simd,
                a[ri * lda + k0 + kk],
                &panel[kk * nc..kk * nc + nc],
                out_row,
            );
        }
    }
}

/// One worker's share of a product: `out = A · B` for `m` rows of `A`,
/// with `out` already zeroed. Small products feed B straight into the
/// register-blocked kernel; larger ones block over `k` and `n` with the
/// current B-panel packed contiguously into a per-thread arena, so the
/// inner loops stream cache-resident memory regardless of `n`'s stride.
fn matmul_rows(simd: Simd, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if k * n <= SMALL_B {
        // B is already one contiguous k×n panel.
        block_kernel(simd, m, k, n, a, k, 0, b, out, n, 0);
        return;
    }
    PACK_BUF.with(|cell| {
        let mut pack = cell.borrow_mut();
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let mut k0 = 0;
            while k0 < k {
                let kc = KC.min(k - k0);
                // Pack B[k0..k0+kc, j0..j0+nc] row-contiguously.
                pack.clear();
                pack.reserve(kc * nc);
                for kk in 0..kc {
                    pack.extend_from_slice(&b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + nc]);
                }
                block_kernel(simd, m, kc, nc, a, k, k0, &pack, out, n, j0);
                k0 += kc;
            }
            j0 += nc;
        }
    });
}

/// Worker count for row-sharding an `(m, k, n)` product under a cap
/// (`0` = the shared pool policy, including `PHISHINGHOOK_THREADS`).
fn gemm_workers(m: usize, k: usize, n: usize, max_threads: usize) -> usize {
    let macs = m.saturating_mul(k).saturating_mul(n);
    if macs < MT_MIN_MACS {
        return 1;
    }
    let cap = if max_threads == 0 {
        par::pool_size(m)
    } else {
        max_threads.min(m).max(1)
    };
    cap.min(m / MT_MIN_ROWS).max(1)
}

/// `out = A · B` for row-major `A (m×k)`, `B (k×n)`, `out (m×n)`, on the
/// runtime-selected SIMD tier, row-sharded across the worker pool when the
/// product is large enough to amortize the spawns.
///
/// `out` is fully overwritten (no read of its prior contents). The dense
/// path has no per-element zero test: a uniformly-predictable inner loop
/// beats skipping the occasional zero, and adding a `±0.0` product never
/// changes a finite accumulation bit.
///
/// **Accumulation-order contract:** panels advance n-major then k-major
/// and the kernel walks `kk` upward, so for every output element the
/// products arrive in strictly increasing `k` order regardless of shape,
/// SIMD tier or thread count — `C[i][j]` is bit-identical whether row `i`
/// is multiplied alone or inside a batch.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` shape.
pub fn matmul_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    matmul_into_dispatch(true, 0, m, k, n, a, b, out);
}

/// The scalar-reference, single-threaded twin of [`matmul_into`] — the
/// path `PHISHINGHOOK_FORCE_SCALAR=1` pins process-wide, kept public so
/// parity tests and benches can call it explicitly.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` shape.
pub fn matmul_into_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    matmul_into_dispatch(false, 1, m, k, n, a, b, out);
}

/// Test/bench seam under [`matmul_into`] with the kernel tier and thread
/// cap explicit: `simd == false` forces the scalar reference kernel
/// (`true` uses the best runtime-detected tier, which may still be
/// scalar); `max_threads` caps the row-sharded fan-out (`0` = the shared
/// pool policy, `1` = single-threaded). Every combination produces
/// bit-identical output — the proptests assert it.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `(m, k, n)` shape.
#[allow(clippy::too_many_arguments)]
pub fn matmul_into_dispatch(
    simd: bool,
    max_threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul lhs shape mismatch");
    assert_eq!(b.len(), k * n, "matmul rhs shape mismatch");
    assert_eq!(out.len(), m * n, "matmul out shape mismatch");
    out.fill(0.0);
    // Degenerate shapes: nothing to accumulate (and the kernel's row
    // chunking cannot take a zero stride).
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let simd = if simd { active_simd() } else { Simd::Scalar };
    let workers = gemm_workers(m, k, n, max_threads);
    if workers <= 1 {
        matmul_rows(simd, m, k, n, a, b, out);
        return;
    }
    // Contiguous row shards: worker `w` owns output rows
    // `w·rows_per .. min((w+1)·rows_per, m)` and the matching rows of A.
    // Shards share only the read-only inputs, and each row's computation
    // is exactly the single-threaded one, so the result is bit-identical
    // at every worker count.
    let rows_per = m.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, out_chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let rows = out_chunk.len() / n;
            let a_chunk = &a[w * rows_per * k..w * rows_per * k + rows * k];
            scope.spawn(move || matmul_rows(simd, rows, k, n, a_chunk, b, out_chunk));
        }
    });
}

/// `out = Aᵀ` for row-major `A (rows×cols)`, `out (cols×rows)`, written in
/// `TC×TC` tiles so both the read and the write stay within a few cache
/// lines per step. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with the shape.
pub fn transpose_into(rows: usize, cols: usize, a: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), rows * cols, "transpose input shape mismatch");
    assert_eq!(out.len(), rows * cols, "transpose output shape mismatch");
    let mut r0 = 0;
    while r0 < rows {
        let rt = TC.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let ct = TC.min(cols - c0);
            for r in r0..r0 + rt {
                for c in c0..c0 + ct {
                    out[c * rows + r] = a[r * cols + c];
                }
            }
            c0 += ct;
        }
        r0 += rt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..=1.0)).collect()
    }

    fn reference_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        // Shapes straddling the packing threshold and block boundaries.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (16, 64, 1),
            (2, 300, 200),
            (5, 513, 131),
        ] {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut out = vec![f32::NAN; m * n];
            matmul_into(m, k, n, &a, &b, &mut out);
            let want = reference_matmul(m, k, n, &a, &b);
            assert_eq!(bits(&out), bits(&want), "({m},{k},{n})");
        }
    }

    #[test]
    fn row_in_batch_matches_row_alone_bitwise() {
        // The contract the batched NN paths rely on: a sample's output row
        // is invariant to the batch it rides in.
        let mut rng = StdRng::seed_from_u64(11);
        let (b_rows, k, n) = (9usize, 310usize, 150usize);
        let a = random_vec(b_rows * k, &mut rng);
        let w = random_vec(k * n, &mut rng);
        let mut batched = vec![0.0f32; b_rows * n];
        matmul_into(b_rows, k, n, &a, &w, &mut batched);
        for i in 0..b_rows {
            let mut solo = vec![0.0f32; n];
            matmul_into(1, k, n, &a[i * k..(i + 1) * k], &w, &mut solo);
            assert_eq!(bits(&solo), bits(&batched[i * n..(i + 1) * n]), "row {i}");
        }
    }

    #[test]
    fn simd_tiers_match_scalar_on_fixed_shapes() {
        // Deterministic complement to the proptests below: both the
        // SMALL_B direct path and the packed path, with every lane-tail
        // residue class for the widest (16-lane) tier.
        let mut rng = StdRng::seed_from_u64(23);
        for &(m, k, n) in &[
            (1usize, 7usize, 3usize),
            (4, 16, 16),
            (5, 33, 17),   // quad tail row + ragged lanes
            (6, 129, 100), // SMALL_B boundary region
            (9, 300, 141), // packed path, ragged panel edges
        ] {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut scalar = vec![f32::NAN; m * n];
            matmul_into_scalar(m, k, n, &a, &b, &mut scalar);
            let mut simd = vec![f32::NAN; m * n];
            matmul_into_dispatch(true, 1, m, k, n, &a, &b, &mut simd);
            assert_eq!(bits(&scalar), bits(&simd), "({m},{k},{n})");
        }
    }

    #[test]
    fn threaded_matmul_matches_single_thread_at_every_pool_size() {
        // Big enough to clear MT_MIN_MACS and MT_MIN_ROWS, so the shards
        // genuinely engage; every worker count must be bit-identical.
        let (m, k, n) = (320usize, 160usize, 96usize);
        assert!(m * k * n >= MT_MIN_MACS && m / MT_MIN_ROWS >= 4);
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut single = vec![0.0f32; m * n];
        matmul_into_dispatch(true, 1, m, k, n, &a, &b, &mut single);
        for workers in [2usize, 3, 4, 5, 8] {
            let mut multi = vec![f32::NAN; m * n];
            matmul_into_dispatch(true, workers, m, k, n, &a, &b, &mut multi);
            assert_eq!(bits(&single), bits(&multi), "workers {workers}");
            // The scalar kernel must also be thread-count-invariant.
            let mut multi_scalar = vec![f32::NAN; m * n];
            matmul_into_dispatch(false, workers, m, k, n, &a, &b, &mut multi_scalar);
            let mut single_scalar = vec![0.0f32; m * n];
            matmul_into_scalar(m, k, n, &a, &b, &mut single_scalar);
            assert_eq!(
                bits(&single_scalar),
                bits(&multi_scalar),
                "scalar workers {workers}"
            );
        }
    }

    #[test]
    fn transpose_tiles_cover_ragged_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(r, c) in &[(1usize, 1usize), (33, 65), (32, 32), (100, 7)] {
            let a = random_vec(r * c, &mut rng);
            let mut out = vec![0.0f32; r * c];
            transpose_into(r, c, &a, &mut out);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(out[j * r + i], a[i * c + j]);
                }
            }
        }
    }

    #[test]
    fn unrolled_dot_and_axpy_handle_tails() {
        for len in 0..9usize {
            let a: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let b: Vec<f32> = (0..len).map(|i| 2.0 * i as f32 - 3.0).collect();
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b), want, "len {len}");
            let mut out = vec![1.0f32; len];
            axpy(0.5, &a, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 1.0 + 0.5 * a[i]);
            }
        }
    }

    #[test]
    fn simd_name_is_reported() {
        let name = active_simd_name();
        assert!(["scalar", "avx2", "avx512f", "neon"].contains(&name));
    }

    #[test]
    #[should_panic(expected = "matmul out shape mismatch")]
    fn matmul_into_checks_out_shape() {
        matmul_into(2, 2, 2, &[0.0; 4], &[0.0; 4], &mut [0.0; 3]);
    }

    #[test]
    fn degenerate_shapes_are_empty_or_zero() {
        // Zero-column, zero-row and zero-inner products must not panic.
        matmul_into(2, 3, 0, &[1.0; 6], &[], &mut []);
        matmul_into(0, 3, 2, &[], &[1.0; 6], &mut []);
        let mut out = [f32::NAN; 4];
        matmul_into(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, [0.0; 4]);
    }

    proptest! {
        /// SIMD and scalar GEMM are bit-identical over random shapes,
        /// covering non-multiple-of-lane tails, quad-row tails and both
        /// sides of the SMALL_B packing threshold (k·n spans ≈16..60k).
        #[test]
        fn simd_matmul_matches_scalar_bitwise(
            m in 1usize..12,
            k in 1usize..300,
            n in 1usize..200,
            seed in 0u64..1_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut scalar = vec![f32::NAN; m * n];
            matmul_into_scalar(m, k, n, &a, &b, &mut scalar);
            let mut simd = vec![f32::NAN; m * n];
            matmul_into_dispatch(true, 1, m, k, n, &a, &b, &mut simd);
            prop_assert_eq!(bits(&scalar), bits(&simd));
        }

        /// SIMD and scalar axpy are bit-identical, tails included.
        #[test]
        fn simd_axpy_matches_scalar_bitwise(
            alpha in -2.0f32..2.0,
            xs in proptest::collection::vec(-1e3f32..1e3, 0..70),
            seed in 0u64..1_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = random_vec(xs.len(), &mut rng);
            let mut scalar = base.clone();
            axpy_scalar(alpha, &xs, &mut scalar);
            let mut simd = base;
            axpy(alpha, &xs, &mut simd);
            prop_assert_eq!(bits(&scalar), bits(&simd));
        }
    }
}
