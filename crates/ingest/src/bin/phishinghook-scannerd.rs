//! `phishinghook-scannerd <codelog> [seed] [--resume]`
//!
//! The scanner role of the multi-process fleet: replays a deterministic
//! drifted chain ([`DriftScenario`]) in time order and appends every
//! labeled deployment to the append-only CodeLog journal that a separate
//! `phishinghook-ingestd tail` process follows. The two processes share
//! nothing but the journal file.
//!
//! `--resume` reopens an existing journal the way a restarted (or
//! crashed) scanner would: [`CodeLogWriter::resume`] truncates any torn
//! tail a `kill -9` left behind, and the scan skips the records that
//! already survived — the journal ends up with the exact same content a
//! never-killed scanner would have written.
//!
//! Environment knobs, read once at start-up (a malformed knob or argument
//! exits with code 2):
//!
//! * `PHISHINGHOOK_SCAN_THROTTLE_US` — per-record pause, so a tailer
//!   visibly follows a *live* journal (default 0)
//! * `PHISHINGHOOK_FAULT_CODELOG_TORN_APPEND` — abort mid-append on the
//!   N-th record, leaving a torn tail (the fault-injection harness)

use phishinghook::retry::knob;
use phishinghook::ExtractionStream;
use phishinghook_evm::CodeLogWriter;
use phishinghook_ingest::DriftScenario;
use phishinghook_synth::Month;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: phishinghook-scannerd <codelog> [seed] [--resume]";

/// Records appended between fsyncs.
const SYNC_EVERY: u64 = 32;

/// Prints `complaint` and the usage, then exits with the usage code 2.
fn usage_exit(complaint: &str) -> ! {
    eprintln!("phishinghook-scannerd: {complaint}\n{USAGE}");
    std::process::exit(2)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let resume = args.iter().any(|a| a == "--resume");
    let (path, seed) = match args.iter().filter(|a| *a != "--resume").collect::<Vec<_>>()[..] {
        [path] => (path, 42),
        [path, seed] => (
            path,
            seed.parse()
                .unwrap_or_else(|_| usage_exit(&format!("invalid seed {seed:?}"))),
        ),
        [] => usage_exit("missing arguments"),
        [.., extra] => usage_exit(&format!("unexpected argument {extra:?}")),
    };
    let throttle =
        Duration::from_micros(knob::read_or_exit("PHISHINGHOOK_SCAN_THROTTLE_US").unwrap_or(0));

    let mut writer = if resume {
        CodeLogWriter::resume(path)?
    } else {
        CodeLogWriter::create(path)?
    };
    let skip = writer.records();
    if resume {
        println!("phishinghook-scannerd: resumed {path} past {skip} surviving records");
    }

    // The same seed always replays the same chain, so a resumed scan
    // deterministically re-generates — and skips — what already landed.
    let scenario = DriftScenario::small(seed);
    let chain = scenario.build();
    let stream = ExtractionStream::new(&chain, Month::FIRST, Month::LAST);
    let mut written = 0u64;
    for (i, sample) in stream.enumerate() {
        if (i as u64) < skip {
            continue;
        }
        writer.append_labeled(&sample.bytecode, sample.label, sample.month.0 as u16)?;
        written += 1;
        if writer.records() % SYNC_EVERY == 0 {
            writer.sync()?;
        }
        if !throttle.is_zero() {
            std::thread::sleep(throttle);
        }
    }
    writer.sync()?;
    println!(
        "phishinghook-scannerd: {} records in {path} ({written} new)",
        writer.records()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("phishinghook-scannerd: {e}");
            ExitCode::FAILURE
        }
    }
}
