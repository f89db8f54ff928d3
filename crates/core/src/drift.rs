//! Score-drift statistics: rolling calibration windows over a replayed
//! chain and the typed signal that trips a retrain.
//!
//! The paper's time-resistance study (§V, Fig. 8) measures offline how a
//! model trained on the first months decays as the chain moves past its
//! training window. This module turns that one-shot measurement into an
//! always-on signal: a [`DriftWatcher`] consumes `(probability, label)`
//! pairs in chain order against a *fixed* artifact, maintains a rolling
//! [Brier score](https://en.wikipedia.org/wiki/Brier_score) and accuracy
//! window, captures the first full window as its calibration baseline,
//! and emits a [`DriftSignal`] the moment the rolling Brier degrades past
//! `baseline + margin`. The ingestion pipeline reacts by retraining on a
//! sliding window and re-publishing the artifact; [`DriftWatcher::rearm`]
//! then restarts the watch against the fresh model.

use phishinghook_synth::Month;
use std::collections::VecDeque;

/// Probability threshold separating predicted-benign from
/// predicted-phishing in the rolling accuracy (the serving threshold).
const THRESHOLD: f32 = crate::detector::PHISHING_THRESHOLD;

/// Fixed-capacity rolling window of `(probability, label)` pairs with
/// calibration statistics.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    capacity: usize,
    samples: VecDeque<(f32, u8)>,
}

impl RollingWindow {
    /// An empty window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window capacity must be positive");
        RollingWindow {
            capacity,
            samples: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends one scored sample, evicting the oldest when full.
    pub fn push(&mut self, prob: f32, label: u8) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((prob, label));
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum samples held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` once `capacity` samples are held.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Mean squared calibration error `mean((p - y)²)` over the window —
    /// lower is better-calibrated. `0.0` on an empty window.
    pub fn brier(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|&(p, y)| {
                let d = p as f64 - y as f64;
                d * d
            })
            .sum();
        sum / self.samples.len() as f64
    }

    /// Fraction of window samples whose thresholded verdict matches the
    /// label. `1.0` on an empty window.
    pub fn accuracy(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let correct = self
            .samples
            .iter()
            .filter(|&&(p, y)| (p >= THRESHOLD) == (y == 1))
            .count();
        correct as f64 / self.samples.len() as f64
    }
}

/// Knobs of a [`DriftWatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Rolling-window size in samples; the first full window becomes the
    /// calibration baseline.
    pub window: usize,
    /// How far the rolling Brier score may degrade past the baseline
    /// before a [`DriftSignal`] fires.
    pub brier_margin: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 128,
            brier_margin: 0.05,
        }
    }
}

/// Typed drift event: the rolling calibration window degraded past the
/// configured margin over its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSignal {
    /// Samples observed (across the watcher's lifetime) when the signal
    /// fired.
    pub position: usize,
    /// Deployment month of the sample that tripped the signal.
    pub month: Month,
    /// Rolling Brier score at the trip point.
    pub window_brier: f64,
    /// Baseline Brier score (first full window after the last rearm).
    pub baseline_brier: f64,
    /// Rolling thresholded accuracy at the trip point.
    pub window_accuracy: f64,
    /// The margin that was exceeded.
    pub brier_margin: f64,
}

/// Watches a stream of scored samples for calibration drift against a
/// fixed model.
///
/// Life cycle: observe → (window fills) baseline captured → observe →
/// Brier exceeds `baseline + margin` → one [`DriftSignal`] → latched (no
/// further signals) until [`DriftWatcher::rearm`] — the caller retrains,
/// hot-swaps the artifact, and rearms the watch against the new model.
#[derive(Debug, Clone)]
pub struct DriftWatcher {
    config: DriftConfig,
    window: RollingWindow,
    baseline_brier: Option<f64>,
    observed: usize,
    latched: bool,
}

impl DriftWatcher {
    /// A fresh watcher; no baseline until the first window fills.
    ///
    /// # Panics
    ///
    /// Panics if `config.window == 0`.
    pub fn new(config: DriftConfig) -> Self {
        DriftWatcher {
            window: RollingWindow::new(config.window),
            config,
            baseline_brier: None,
            observed: 0,
            latched: false,
        }
    }

    /// Feeds one scored sample in chain order. Returns a [`DriftSignal`]
    /// at most once per arm cycle — the first time the rolling Brier
    /// exceeds `baseline + margin` on a full window.
    pub fn observe(&mut self, prob: f32, label: u8, month: Month) -> Option<DriftSignal> {
        self.observed += 1;
        self.window.push(prob, label);
        if self.latched || !self.window.is_full() {
            return None;
        }
        let brier = self.window.brier();
        match self.baseline_brier {
            None => {
                self.baseline_brier = Some(brier);
                None
            }
            Some(baseline) if brier > baseline + self.config.brier_margin => {
                self.latched = true;
                Some(DriftSignal {
                    position: self.observed,
                    month,
                    window_brier: brier,
                    baseline_brier: baseline,
                    window_accuracy: self.window.accuracy(),
                    brier_margin: self.config.brier_margin,
                })
            }
            Some(_) => None,
        }
    }

    /// Restarts the watch after a retrain: clears the window, drops the
    /// baseline (the next full window of *new-model* scores becomes the
    /// fresh baseline) and unlatches the signal.
    pub fn rearm(&mut self) {
        self.window = RollingWindow::new(self.config.window);
        self.baseline_brier = None;
        self.latched = false;
    }

    /// Samples observed across the watcher's lifetime.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// The active calibration baseline, once the first window has filled.
    pub fn baseline_brier(&self) -> Option<f64> {
        self.baseline_brier
    }

    /// The live rolling window.
    pub fn window(&self) -> &RollingWindow {
        &self.window
    }

    /// The watcher's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, margin: f64) -> DriftConfig {
        DriftConfig {
            window,
            brier_margin: margin,
        }
    }

    #[test]
    fn rolling_window_statistics() {
        let mut w = RollingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.brier(), 0.0);
        assert_eq!(w.accuracy(), 1.0);
        w.push(1.0, 1);
        w.push(0.0, 0);
        assert_eq!(w.brier(), 0.0);
        assert_eq!(w.accuracy(), 1.0);
        w.push(0.0, 1); // confidently wrong
        assert!(w.is_full());
        assert!((w.brier() - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        // Eviction: pushing a fourth sample drops the first.
        w.push(1.0, 1);
        assert_eq!(w.len(), 3);
        assert!((w.brier() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_is_the_first_full_window() {
        let mut watcher = DriftWatcher::new(config(4, 0.1));
        for _ in 0..3 {
            assert!(watcher.observe(0.9, 1, Month(0)).is_none());
            assert!(watcher.baseline_brier().is_none());
        }
        assert!(watcher.observe(0.9, 1, Month(0)).is_none());
        let base = watcher.baseline_brier().unwrap();
        assert!((base - 0.01).abs() < 1e-6);
    }

    #[test]
    fn degradation_past_margin_fires_once_until_rearmed() {
        let mut watcher = DriftWatcher::new(config(4, 0.1));
        // Calibrated phase: baseline ≈ 0.
        for _ in 0..4 {
            assert!(watcher.observe(1.0, 1, Month(0)).is_none());
        }
        // Distribution shift: the fixed model scores true phishing low.
        let mut signal = None;
        for i in 0..8 {
            if let Some(s) = watcher.observe(0.0, 1, Month(6)) {
                signal = Some((i, s));
                break;
            }
        }
        let (_, s) = signal.expect("drift must fire");
        assert_eq!(s.month, Month(6));
        assert!(s.window_brier > s.baseline_brier + s.brier_margin);
        assert!(s.window_accuracy < 1.0);
        // Latched: no repeat signals.
        for _ in 0..8 {
            assert!(watcher.observe(0.0, 1, Month(6)).is_none());
        }
        // Rearm: fresh baseline from the new model's scores, can fire again.
        watcher.rearm();
        assert!(watcher.baseline_brier().is_none());
        for _ in 0..4 {
            assert!(watcher.observe(1.0, 1, Month(7)).is_none());
        }
        assert!(watcher.baseline_brier().is_some());
        let mut refired = false;
        for _ in 0..8 {
            if watcher.observe(0.0, 1, Month(8)).is_some() {
                refired = true;
                break;
            }
        }
        assert!(refired);
    }

    #[test]
    fn well_calibrated_stream_never_fires() {
        let mut watcher = DriftWatcher::new(config(8, 0.05));
        for i in 0..256 {
            let label = (i % 2) as u8;
            let prob = if label == 1 { 0.93 } else { 0.04 };
            assert!(watcher.observe(prob, label, Month(1)).is_none());
        }
        assert_eq!(watcher.observed(), 256);
    }
}
