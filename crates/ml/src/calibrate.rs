//! Probability calibration: monotone maps from raw classifier scores to
//! calibrated phishing probabilities.
//!
//! Different model families emit scores on different scales — a forest's
//! vote fraction, a margin squashed through a fixed sigmoid, a deep
//! model's learned probability — so their raw outputs are not
//! threshold-comparable. A [`Calibrator`] is fitted on *held-out* (score,
//! label) pairs and maps every subsequent score onto one common
//! probability scale, which is what lets a cascade route a contract by a
//! cheap stage-1 score and still report a probability comparable to the
//! deep stage's.
//!
//! The one fitter is Platt scaling (Platt 1999, with the numerically robust
//! formulation of Lin, Lu and Weng 2007): `p = σ(a·s + b)` fitted by
//! Newton's method on the regularized log-likelihood. It is smooth and
//! strictly monotone in the score, with two parameters — the right fit for
//! the small calibration folds a cascade holds out.
//!
//! The fit is deterministic (no RNG, fixed iteration order) and its
//! application is a pure `f64` pipeline truncated to `f32` at the end, so
//! calibrated probabilities are bit-reproducible across processes — the
//! property the cascade artifact round-trip tests pin down.

use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};

/// A fitted Platt map `p = σ(a·s + b)`, with `(a, b)` maximizing the
/// held-out log-likelihood under Platt's label smoothing (targets
/// `(n₊+1)/(n₊+2)` and `1/(n₋+2)` instead of hard 1/0, which keeps the
/// fit from diverging on separable folds).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibrator {
    /// Slope on the raw score (negative when the score anti-correlates
    /// with the positive class; the fit follows the data).
    pub a: f64,
    /// Intercept.
    pub b: f64,
}

impl Calibrator {
    /// The method id a cascade artifact records beside its calibrators.
    pub const ID: &'static str = "platt";

    /// The tag byte that heads [`Calibrator::export_state`].
    const TAG: u8 = 0;

    /// Fits `(a, b)` by damped Newton iteration — the Lin–Lu–Weng
    /// formulation of Platt's algorithm, ≤100 iterations, deterministic.
    ///
    /// # Panics
    ///
    /// Panics on empty or length-mismatched inputs.
    pub fn fit(scores: &[f32], labels: &[u8]) -> Calibrator {
        assert_eq!(scores.len(), labels.len(), "score/label length mismatch");
        assert!(!scores.is_empty(), "empty calibration fold");
        let n_pos = labels.iter().filter(|&&y| y == 1).count() as f64;
        let n_neg = scores.len() as f64 - n_pos;
        let hi = (n_pos + 1.0) / (n_pos + 2.0);
        let lo = 1.0 / (n_neg + 2.0);
        let targets: Vec<f64> = labels
            .iter()
            .map(|&y| if y == 1 { hi } else { lo })
            .collect();

        // Parameterized as p_i = σ(a·s_i + b); minimize the cross-entropy
        // against the smoothed targets by Newton with step halving.
        let (mut a, mut b) = (1.0f64, 0.0f64);
        let nll = |a: f64, b: f64| -> f64 {
            scores
                .iter()
                .zip(&targets)
                .map(|(&s, &t)| {
                    let z = a * s as f64 + b;
                    // log(1+e^z) - t·z, computed stably for either sign.
                    let softplus = if z > 0.0 {
                        z + (-z).exp().ln_1p()
                    } else {
                        z.exp().ln_1p()
                    };
                    softplus - t * z
                })
                .sum()
        };
        let mut best = nll(a, b);
        for _ in 0..100 {
            // Gradient and Hessian of the NLL in (a, b).
            let (mut ga, mut gb) = (0.0f64, 0.0f64);
            let (mut haa, mut hab, mut hbb) = (0.0f64, 0.0f64, 0.0f64);
            for (&s, &t) in scores.iter().zip(&targets) {
                let s = s as f64;
                let p = sigmoid(a * s + b);
                let d = p - t;
                let w = (p * (1.0 - p)).max(1e-12);
                ga += d * s;
                gb += d;
                haa += w * s * s;
                hab += w * s;
                hbb += w;
            }
            if ga.abs() < 1e-10 && gb.abs() < 1e-10 {
                break;
            }
            // Solve the 2×2 Newton system (ridge-damped so a degenerate
            // fold — all scores equal — still inverts).
            let det = haa * hbb - hab * hab + 1e-12;
            let da = (hbb * ga - hab * gb) / det;
            let db = (haa * gb - hab * ga) / det;
            // Backtracking line search, first on the Newton step, then —
            // when the near-singular Hessian of a degenerate fold (all
            // scores equal) makes that direction useless — on the raw
            // gradient.
            let mut advanced = false;
            'dirs: for (da, db) in [(da, db), (ga, gb)] {
                let mut step = 1.0f64;
                for _ in 0..30 {
                    let cand = nll(a - step * da, b - step * db);
                    if cand < best {
                        a -= step * da;
                        b -= step * db;
                        best = cand;
                        advanced = true;
                        break 'dirs;
                    }
                    step *= 0.5;
                }
            }
            if !advanced {
                break;
            }
        }
        Calibrator { a, b }
    }

    /// Calibrated probability of one raw score.
    pub fn apply(&self, score: f32) -> f32 {
        sigmoid(self.a * score as f64 + self.b) as f32
    }

    /// [`Calibrator::apply`] over a batch, in input order.
    pub fn apply_all(&self, scores: &[f32]) -> Vec<f32> {
        scores.iter().map(|&s| self.apply(s)).collect()
    }

    /// Serializes the fitted state: tag byte `0`, then `a` and `b`.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(Self::TAG);
        w.put_f64(self.a);
        w.put_f64(self.b);
        w.into_bytes()
    }

    /// Inverse of [`Calibrator::export_state`].
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes or a tag other than `0` — a corrupt
    /// artifact is a typed error, never a panic at apply time.
    pub fn import_state(bytes: &[u8]) -> Result<Calibrator, ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let tag = r.take_u8()?;
        if tag != Self::TAG {
            return Err(ArtifactError::Corrupt(format!(
                "calibrator tag {tag} (expected {})",
                Self::TAG
            )));
        }
        let cal = Calibrator {
            a: r.take_f64()?,
            b: r.take_f64()?,
        };
        r.expect_exhausted("calibrator state")?;
        Ok(cal)
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fold where high scores mean phishing, with noise.
    fn noisy_fold(n: usize) -> (Vec<f32>, Vec<u8>) {
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Deterministic pseudo-noise, no RNG dependency.
            let jitter = ((i * 2654435761) % 1000) as f32 / 1000.0;
            let label = u8::from(i % 3 != 0);
            let score = 0.15 + 0.5 * label as f32 + 0.35 * jitter;
            scores.push(score.min(1.0));
            labels.push(label);
        }
        (scores, labels)
    }

    #[test]
    fn platt_is_monotone_and_tracks_the_fold() {
        let (scores, labels) = noisy_fold(300);
        let cal = Calibrator::fit(&scores, &labels);
        // Higher score ⇒ higher probability (a > 0 on correlated data).
        assert!(cal.a > 0.0, "slope {}", cal.a);
        assert!(cal.apply(0.9) > cal.apply(0.2));
        // Calibrated outputs are probabilities.
        for s in [-5.0f32, 0.0, 0.3, 0.7, 5.0] {
            assert!((0.0..=1.0).contains(&cal.apply(s)));
        }
        // The fold's high-score region should calibrate well above its
        // low-score region.
        assert!(cal.apply(0.9) > 0.6);
        assert!(cal.apply(0.2) < 0.5);
    }

    #[test]
    fn platt_survives_a_degenerate_constant_fold() {
        let cal = Calibrator::fit(&[0.5; 20], &[1; 20]);
        let p = cal.apply(0.5);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        // All-positive smoothed target is (n+1)/(n+2) ≈ 0.954.
        assert!(p > 0.8, "p = {p}");
    }

    #[test]
    fn calibrator_round_trips_bit_exactly() {
        let (scores, labels) = noisy_fold(200);
        let cal = Calibrator::fit(&scores, &labels);
        let reloaded = Calibrator::import_state(&cal.export_state()).unwrap();
        for &s in &scores {
            assert_eq!(
                cal.apply(s).to_bits(),
                reloaded.apply(s).to_bits(),
                "diverged at {s}"
            );
        }
    }

    #[test]
    fn malformed_calibrator_state_is_a_typed_error() {
        assert!(Calibrator::import_state(&[]).is_err());
        assert!(Calibrator::import_state(&[9]).is_err());
        // Truncated payload.
        assert!(Calibrator::import_state(&[0, 1, 2, 3]).is_err());
        // Tag 1 was the isotonic step table; it no longer decodes.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_f32_slice(&[0.1, 0.5]);
        w.put_f32_slice(&[0.2, 0.8]);
        assert!(matches!(
            Calibrator::import_state(&w.into_bytes()),
            Err(ArtifactError::Corrupt(_))
        ));
        // Trailing bytes after a valid state.
        let mut bytes = Calibrator { a: 1.0, b: 0.0 }.export_state();
        bytes.push(0);
        assert!(Calibrator::import_state(&bytes).is_err());
    }
}
