//! The repository benchmark. One command runs one workload against real
//! `phishinghook-served --watch` replicas over loopback TCP, checks every
//! reply against in-process scoring, and prints each metric by name with
//! its unit, ending with one JSON result line.
//!
//! ```text
//! bash perfbench/run.sh --workload <wallet_screen|chain_backfill|drift_adapt>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures end to end with no instrumentation; `--trace 1`
//! replays the same inputs through each layer's public functions in
//! process and reports the per-layer breakdown instead.

use perfbench::report::{result_line, Outcome};
use perfbench::{adapt, env, serving, trace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    build_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut build_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--build-dir" => build_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        build_dir: build_dir.ok_or("--build-dir is required")?,
    })
}

/// A finished run: the end-to-end outcome or the traced breakdown.
enum Finished {
    EndToEnd(Outcome),
    Traced(trace::Traced),
}

fn run(args: &Args) -> Result<Finished, String> {
    let server_bin = args.build_dir.join("release").join("phishinghook-served");
    if !server_bin.is_file() {
        return Err(format!("server binary {} is missing", server_bin.display()));
    }
    let work = args.build_dir.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let result = if args.trace {
        trace::run(&args.workload, &server_bin, &work, args.seed, args.seconds)
            .map(Finished::Traced)
    } else {
        match args.workload.as_str() {
            "wallet_screen" => serving::wallet_screen(&server_bin, &work, args.seed, args.seconds),
            "chain_backfill" => {
                serving::chain_backfill(&server_bin, &work, args.seed, args.seconds)
            }
            "drift_adapt" => adapt::drift_adapt(&server_bin, &work, args.seed, args.seconds),
            other => Err(format!("unknown workload {other}")),
        }
        .map(Finished::EndToEnd)
    };
    std::fs::remove_dir_all(&work).ok();
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        env::record(&args.workload, args.seed, args.seconds, args.trace)
    );
    match run(&args) {
        Ok(finished) => {
            let (metrics, correct, attempted, failed) = match &finished {
                Finished::EndToEnd(o) => {
                    o.print();
                    (o.end_to_end(), o.correct(), o.attempted, o.failed)
                }
                Finished::Traced(t) => {
                    println!("traced {}", args.workload);
                    for (name, value, unit) in &t.metrics {
                        println!("  {name} = {value:.6} {unit}");
                    }
                    for (what, held) in &t.checks {
                        println!("  check {}: {what}", if *held { "ok" } else { "FAILED" });
                    }
                    for line in &t.findings {
                        println!("  finding: {line}");
                    }
                    let held = t.checks.iter().all(|(_, ok)| *ok);
                    (t.metrics.clone(), held, 1, 0)
                }
            };
            let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
            let correct = correct && finite;
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
