//! Summary statistics shared by every workload: the tail-percentile rule,
//! medians, verdict AUC and span self-time arithmetic.

/// Percentiles a latency summary may report, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile in [`PERCENTILES`] with at least
/// [`TAIL_SAMPLES`] samples beyond it, given `n` samples; `None` when even
/// the median has too few (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9)
}

/// The `p`-th percentile (0–100) of `values` by the nearest-rank rule:
/// the smallest value with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values on an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Latency summary of one sample set: count, median and the tail
/// percentile the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The percentile reported as the tail (see [`tail_percentile`]).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are too few for a median.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let tail_p = tail_percentile(values.len())?;
        Some(Summary {
            count: values.len(),
            p50: percentile(values, 50.0),
            tail_p,
            tail: percentile(values, tail_p),
        })
    }
}

/// Median and `p`-th percentile over `windows` equal consecutive slices
/// of `values` (in arrival order): each slice is summarised on its own
/// and the slice figures are combined by their median, so a burst of
/// host noise moves one slice rather than the run's figure. Returns
/// `(p50, p_th)`; `None` when a slice holds fewer than [`TAIL_SAMPLES`]
/// samples beyond the `p`-th percentile.
pub fn windowed(values: &[f64], windows: usize, p: f64) -> Option<(f64, f64)> {
    let size = values.len() / windows.max(1);
    if (size as f64) * (1.0 - p / 100.0) < TAIL_SAMPLES as f64 - 1e-9 {
        return None;
    }
    let slices: Vec<&[f64]> = values.chunks(size).take(windows.max(1)).collect();
    let p50s: Vec<f64> = slices.iter().map(|w| percentile(w, 50.0)).collect();
    let tails: Vec<f64> = slices.iter().map(|w| percentile(w, p)).collect();
    Some((median(&p50s), median(&tails)))
}

/// Tie-aware ROC AUC of served probabilities against 0/1 labels: tied
/// scores share their mean rank, so a run of equal probabilities counts
/// each positive–negative pair inside it as half concordant.
pub fn verdict_auc(probabilities: &[f32], labels: &[u8]) -> f64 {
    phishinghook::auc(probabilities, labels)
}

/// One timed interval of the traced run. `parent` indexes the span that
/// caused it, in the same list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, such as `serve.http.read`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent's
/// interval and their overlaps merged, so concurrent children are not
/// subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sums self times by layer name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += t,
            None => out.push((s.name, t)),
        }
    }
    out
}
