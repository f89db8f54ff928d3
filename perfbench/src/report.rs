//! What a run reports: the environment, each workload metric by name with
//! its unit, the checks made, and the final one-line JSON result.

use crate::client::{healthz, Conn};
use crate::replica::{Replica, SetupSample};
use crate::stats::median;
use phishinghook::json::Value;
use std::time::Duration;

/// The replica's set-up time and configuration, as it reports it.
#[derive(Debug, Clone)]
pub struct SetupInfo {
    /// Median over spawns of the replica's CPU time from spawn to its
    /// first `200` on `/healthz`, seconds.
    pub setup_s: f64,
    /// Median over spawns of the wall time from spawn to first `200`.
    pub setup_wall_s: f64,
    /// Spawns measured.
    pub spawns: usize,
    /// `max_batch` from `/healthz`.
    pub max_batch: f64,
    /// `workers` from `/healthz`.
    pub workers: f64,
    /// `model` from `/healthz`.
    pub model: String,
}

impl SetupInfo {
    /// Reads the live replica's configuration from `/healthz`.
    ///
    /// # Errors
    ///
    /// A replica that does not answer `/healthz`.
    pub fn read(replica: &Replica, setups: &[SetupSample]) -> Result<SetupInfo, String> {
        let health = Conn::connect(replica.addr, Duration::from_secs(5))
            .and_then(|mut c| healthz(&mut c))
            .map_err(|e| format!("healthz: {e}"))?;
        let num = |k: &str| health.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        Ok(SetupInfo {
            setup_s: median(&setups.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
            setup_wall_s: median(&setups.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
            spawns: setups.len(),
            max_batch: num("max_batch"),
            workers: num("workers"),
            model: health
                .get("model")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
        })
    }
}

/// The workload-independent end-to-end figures of the final JSON line.
///
/// Wall-clock latency and throughput are printed by name for every
/// workload but kept out of this line: on a shared 2-core host the
/// hypervisor steals 15–45% of vCPU time in episodes lasting minutes,
/// which doubles a run's latencies and halves its throughput, far past
/// any regression bound. CPU time excludes stolen time, so the cost of
/// an operation moves far less through those episodes.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// CPU time of the system under test per operation, µs.
    pub cpu_us_per_op: f64,
    /// AUC of served probabilities against labels.
    pub auc: f64,
    /// Peak RSS of the serving replica, MB.
    pub rss_mb: f64,
}

/// The end-to-end metric names of the final JSON line, with units; see
/// `perfbench/README.md` for what each means on each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("verdict_auc", "auc"),
    ("server_rss_mb", "MB"),
];

/// One workload's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Replica set-up.
    pub setup: SetupInfo,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, parity mismatches included.
    pub failed: usize,
    /// Replies that disagreed with in-process scoring.
    pub mismatched: usize,
    /// False when the load generator itself fell behind its bound.
    pub valid: bool,
    /// Named metrics with units, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Asserted conditions and whether they held.
    pub checks: Vec<(String, bool)>,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// The figures behind the end-to-end JSON metrics.
    pub headline: Option<Headline>,
}

impl Outcome {
    /// An outcome with its counts and no metrics yet.
    pub fn new(
        workload: &'static str,
        setup: SetupInfo,
        attempted: usize,
        failed: usize,
        mismatched: usize,
    ) -> Outcome {
        Outcome {
            workload,
            setup,
            attempted,
            failed,
            mismatched,
            valid: true,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            headline: None,
        }
    }

    /// Records a named metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an asserted condition.
    pub fn check(&mut self, what: impl Into<String>, held: bool) {
        self.checks.push((what.into(), held));
    }

    /// Records a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Sets the end-to-end figures.
    pub fn headline(&mut self, cpu_us_per_op: f64, auc: f64, rss_mb: f64) {
        self.headline = Some(Headline {
            cpu_us_per_op,
            auc,
            rss_mb,
        });
    }

    /// Whether every reply matched, every check held and the generator
    /// kept up.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.valid && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let h = self.headline.expect("workload set its headline figures");
        let values = [self.setup.setup_s, h.cpu_us_per_op, h.auc, h.rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Prints the human-readable report to stdout.
    pub fn print(&self) {
        println!("workload {}", self.workload);
        println!(
            "  replica: model={} max_batch={} workers={}; set-up medians of {} spawns",
            self.setup.model, self.setup.max_batch, self.setup.workers, self.setup.spawns
        );
        let succeeded = self.attempted - self.failed;
        println!(
            "  attempted={} succeeded={} failed={} mismatched={}",
            self.attempted, succeeded, self.failed, self.mismatched
        );
        println!("  setup_s = {:.6} s", self.setup.setup_s);
        println!("  setup_wall_s = {:.6} s", self.setup.setup_wall_s);
        println!(
            "  failed_frac = {:.6} ratio",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name} = {value:.6} {unit}");
        }
        for (what, held) in &self.checks {
            println!("  check {}: {what}", if *held { "ok" } else { "FAILED" });
        }
        if !self.valid {
            println!("  INVALID: the load generator fell behind its bound");
        }
        for line in &self.notes {
            println!("  {line}");
        }
    }
}

/// Renders the final result line.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                Value::Num(*value).render()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    )
}
