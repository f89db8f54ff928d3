//! The harness every `benches/*.rs` main shares: run size by mode,
//! interleaved best-of-N timing, and the baseline writer.
//!
//! `PHISHINGHOOK_BENCH_SMOKE=1` selects the CI-sized run: smaller inputs,
//! fewer samples, the relaxed floors, and no baseline rewrite. Without it
//! a bench runs at full size and rewrites its committed `BENCH_*.json` at
//! the workspace root.

use phishinghook::json::Value;
use phishinghook_linalg::gemm::active_simd_name;
use phishinghook_linalg::par::pool_size;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version of the baseline header written by [`baseline_doc`].
pub const SCHEMA: u32 = 1;

/// Whether this is a CI-sized smoke run.
pub fn smoke() -> bool {
    std::env::var_os("PHISHINGHOOK_BENCH_SMOKE").is_some()
}

/// `full` on a full run, `small` on a smoke run.
pub fn pick<T>(full: T, small: T) -> T {
    choose(smoke(), full, small)
}

fn choose<T>(smoke: bool, full: T, small: T) -> T {
    if smoke {
        small
    } else {
        full
    }
}

/// Interleaved best-of-N: every path runs `warmup` times, then `samples`
/// rounds call each path once in order, so clock drift and frequency
/// scaling hit all paths alike. Returns each path's fastest round in
/// seconds, with its output from the last round.
pub fn best_of<T, const N: usize>(
    warmup: usize,
    samples: usize,
    mut paths: [&mut dyn FnMut() -> T; N],
) -> [(f64, T); N] {
    assert!(samples > 0, "best-of needs at least one sample");
    for _ in 0..warmup {
        for path in paths.iter_mut() {
            std::hint::black_box(path());
        }
    }
    let mut best = [f64::INFINITY; N];
    let mut last: [Option<T>; N] = std::array::from_fn(|_| None);
    for _ in 0..samples {
        for (i, path) in paths.iter_mut().enumerate() {
            let t0 = Instant::now();
            let out = std::hint::black_box(path());
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
            last[i] = Some(out);
        }
    }
    std::array::from_fn(|i| (best[i], last[i].take().expect("at least one sample")))
}

/// A JSON object from `&str` keys.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A baseline document: the header (`schema`, `bench`, and the host
/// fields perfbench also records) followed by the bench's own `fields`.
pub fn baseline_doc(bench: &str, fields: Vec<(&str, Value)>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut doc = vec![
        ("schema", Value::Num(SCHEMA as f64)),
        ("bench", Value::Str(bench.into())),
        ("nproc", Value::Num(nproc as f64)),
        ("simd", Value::Str(active_simd_name().into())),
        ("linalg_pool", Value::Num(pool_size(usize::MAX) as f64)),
    ];
    doc.extend(fields);
    obj(doc)
}

/// The workspace root, where the committed baselines live. Benches run
/// with the package as cwd, so every baseline path is anchored here.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes `file` at the workspace root from [`baseline_doc`]. Smoke runs
/// assert their floors but never overwrite a committed baseline.
pub fn write_baseline(file: &str, bench: &str, fields: Vec<(&str, Value)>) {
    if smoke() {
        return;
    }
    let path = workspace_root().join(file);
    let text = baseline_doc(bench, fields).render();
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  -> {file}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::json::parse;

    #[test]
    fn pick_chooses_by_mode() {
        assert_eq!(choose(false, 256, 64), 256);
        assert_eq!(choose(true, 256, 64), 64);
        assert_eq!(pick(256, 64), if smoke() { 64 } else { 256 });
    }

    #[test]
    fn best_of_keeps_each_paths_last_output() {
        let (mut a, mut b) = (0, 100);
        let [(ta, ra), (tb, rb)] = best_of(
            2,
            3,
            [
                &mut || {
                    a += 1;
                    a
                },
                &mut || {
                    b += 1;
                    b
                },
            ],
        );
        assert_eq!((ra, rb), (5, 105));
        assert!(ta.is_finite() && tb.is_finite());
    }

    #[test]
    fn baseline_doc_round_trips_with_its_header() {
        let doc = baseline_doc("demo", vec![("speedup", Value::Num(2.5))]);
        let back = parse(&doc.render()).expect("baseline parses");
        assert_eq!(
            back.get("schema").and_then(Value::as_f64),
            Some(SCHEMA as f64)
        );
        assert_eq!(back.get("bench").and_then(Value::as_str), Some("demo"));
        assert!(back.get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
        assert!(back.get("simd").and_then(Value::as_str).is_some());
        assert!(back.get("linalg_pool").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(back.get("speedup").and_then(Value::as_f64), Some(2.5));
    }

    #[test]
    fn committed_baselines_carry_the_header() {
        let mut seen = 0;
        for entry in std::fs::read_dir(workspace_root()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let doc = parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|| panic!("{name} does not parse"));
            assert_eq!(
                doc.get("schema").and_then(Value::as_f64),
                Some(SCHEMA as f64),
                "{name}"
            );
            assert!(doc.get("bench").and_then(Value::as_str).is_some(), "{name}");
            seen += 1;
        }
        assert!(seen > 0, "no BENCH_*.json at the workspace root");
    }
}
