//! The environment record every run prints first, so runs from different
//! commits and hosts compare: cores, SIMD tier, pool size, source
//! revision, seed and the offered rates.

use crate::{adapt, serving};
use phishinghook::json::Value;

/// The `HEAD` commit when the checkout is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// The environment line, as JSON prefixed with `env `.
pub fn record(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let num = |v: f64| Value::Num(v);
    let rates: Vec<Value> = serving::SCREEN_LADDER.iter().map(|&r| num(r)).collect();
    let fields = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".into(), num(seed as f64)),
        ("seconds".into(), num(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("nproc".into(), num(nproc as f64)),
        (
            "simd".into(),
            Value::Str(phishinghook_linalg::gemm::active_simd_name().into()),
        ),
        (
            "linalg_pool".into(),
            num(phishinghook_linalg::par::pool_size(usize::MAX) as f64),
        ),
        ("load_conns".into(), num(serving::load_conns() as f64)),
        ("git_rev".into(), Value::Str(git_rev())),
        ("screen_rate_per_s".into(), num(serving::SCREEN_RATE)),
        ("screen_ladder_per_s".into(), Value::Arr(rates)),
        ("screen_slo_ms".into(), num(serving::SCREEN_SLO_MS)),
        ("journal_rate_per_s".into(), num(adapt::JOURNAL_RATE)),
        ("adapt_read_rate_per_s".into(), num(adapt::READ_RATE)),
    ];
    format!("env {}", Value::Obj(fields).render())
}
