//! Special functions: log-gamma, regularized incomplete gamma, error
//! function, normal and chi-square distributions.
//!
//! Everything the test statistics need, implemented from scratch in `f64`.
//! Accuracy targets are those of the classic Numerical-Recipes-style
//! algorithms (absolute error well below `1e-10` in the regions used),
//! validated in unit tests against externally published values.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Examples
///
/// ```
/// let lg = phishinghook_stats::special::ln_gamma(5.0);
/// assert!((lg - 24.0f64.ln()).abs() < 1e-12); // Γ(5) = 4! = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of `P(a, x)`, valid for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction expansion of `Q(a, x)` (modified Lentz), valid for
/// `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 - Φ(x)`, computed without
/// cancellation for large `x`.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal quantile function `Φ⁻¹(p)` (Acklam's approximation plus
/// one Newton refinement; absolute error far below `1e-12`).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// # Examples
///
/// ```
/// use phishinghook_stats::special::normal_quantile;
/// assert!((normal_quantile(0.975) - 1.959963984540054).abs() < 1e-9);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires 0 < p < 1, got {p}"
    );
    // Acklam's rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Newton step against the high-precision CDF.
    let e = normal_cdf(x) - p;
    x - e / normal_pdf(x)
}

/// Chi-square survival function `P(X > x)` with `k` degrees of freedom.
///
/// # Panics
///
/// Panics if `k == 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use phishinghook_stats::special::chi2_sf;
/// // qchisq(0.95, df = 1) = 3.841458820694124
/// assert!((chi2_sf(3.841458820694124, 1) - 0.05).abs() < 1e-10);
/// ```
pub fn chi2_sf(x: f64, k: usize) -> f64 {
    assert!(k > 0, "chi2_sf requires k > 0");
    assert!(x >= 0.0, "chi2_sf requires x >= 0, got {x}");
    gamma_q(k as f64 / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|i| i as f64).product();
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn erfc_reference_values() {
        // Abramowitz & Stegun table values of erf = 1 − erfc.
        let cases = [
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
        ];
        for (x, want) in cases {
            assert!((erfc(x) - (1.0 - want)).abs() < 1e-12, "erfc({x})");
            assert!((erfc(-x) - (1.0 + want)).abs() < 1e-12, "erfc(-{x})");
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((normal_cdf(1.959963984540054) - 0.975).abs() < 1e-12);
        assert!((normal_sf(3.0) - 0.0013498980316300933).abs() < 1e-12);
        // Far tail is representable thanks to erfc-based SF.
        assert!(normal_sf(10.0) > 0.0 && normal_sf(10.0) < 1e-22);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-10, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1.0 - 1e-4] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn chi2_reference_values() {
        // From R: pchisq(q, df, lower.tail = FALSE)
        assert!((chi2_sf(3.841458820694124, 1) - 0.05).abs() < 1e-10);
        assert!((chi2_sf(5.991464547107979, 2) - 0.05).abs() < 1e-10);
        assert!((chi2_sf(21.02606981748307, 12) - 0.05).abs() < 1e-10);
        assert!((chi2_sf(0.0, 3) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gamma_pq_sum_to_one() {
        for &a in &[0.5, 1.0, 3.7, 10.0] {
            for &x in &[0.1, 1.0, 5.0, 20.0] {
                assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "normal_quantile requires")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }
}
