//! The serving tier, end to end over real TCP:
//!
//! ```bash
//! cargo run --release --example serve_and_query
//! ```
//!
//! Trains a detector, saves it, reopens the artifact through the
//! zero-copy path (`OwnedArtifact` → `Detector::from_artifact`), starts
//! the micro-batching HTTP server on an ephemeral port, and then queries
//! it like any client would — `POST /predict` per contract and one
//! `POST /predict_batch` — verifying every probability that came back
//! over the wire against `Detector::score_code` **bit-for-bit**. The
//! JSON codec round-trips f32 through its shortest f64 decimal form, so
//! serving loses nothing to the wire format; the process exits non-zero
//! if even one bit differs.

use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook_artifact::OwnedArtifact;
use phishinghook_evm::Bytecode;
use phishinghook_serve::{QueueConfig, Server, ServerConfig};
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCREEN_COUNT: usize = 24;

fn screening_batch() -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(0x5E12);
    (0..SCREEN_COUNT)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(6),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect()
}

/// Minimal HTTP client: POST `body` to `path`, return (status, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("parsable status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        if header.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = header.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).expect("response body");
    (status, String::from_utf8(buf).expect("utf-8 body"))
}

fn main() {
    // 1. Train and save, exactly like the offline pipeline would.
    let t0 = Instant::now();
    let corpus = generate_corpus(&CorpusConfig::small(1337));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let trained = Detector::train(&ctx, ModelKind::RandomForest, 7);
    let dir = std::env::temp_dir().join(format!("phk_serve_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact_path = dir.join("detector.phk");
    trained.save(&artifact_path).expect("save artifact");
    println!(
        "[train] {} trained and saved in {:.2}s",
        trained.kind(),
        t0.elapsed().as_secs_f64()
    );

    // 2. Reopen zero-copy: one read, one decode, one Arc the whole
    //    worker pool shares.
    let t1 = Instant::now();
    let artifact = OwnedArtifact::open(&artifact_path).expect("reopen artifact");
    let detector = Arc::new(Detector::from_artifact(&artifact).expect("decode artifact"));
    println!(
        "[serve] artifact reopened ({} sections, one {}-byte buffer) in {:.1} ms",
        artifact.section_names().len(),
        artifact.bytes().len(),
        t1.elapsed().as_secs_f64() * 1e3
    );

    // 3. Serve on an ephemeral port, with the daemon's queue workers
    //    (PHISHINGHOOK_SERVE_WORKERS).
    let cfg = ServerConfig {
        queue: QueueConfig::from_env(),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&detector), 0, "127.0.0.1:0", cfg).expect("start server");
    let addr = server.local_addr();
    println!(
        "[serve] listening on http://{addr} (max_batch={}, batch_wait={}us, workers={})",
        cfg.queue.max_batch,
        cfg.queue.batch_wait.as_micros(),
        cfg.queue.workers
    );

    // 4. Query over real TCP and diff against in-process scoring.
    let contracts = screening_batch();
    let expected: Vec<f32> = contracts.iter().map(|c| detector.score_code(c)).collect();
    let mut mismatches = 0usize;

    for (i, code) in contracts.iter().enumerate().take(8) {
        let (status, body) = post(
            addr,
            "/predict",
            &format!("{{\"bytecode\":\"{}\"}}", code.to_hex()),
        );
        assert_eq!(status, 200, "/predict failed: {body}");
        let doc = phishinghook::json::parse(&body).expect("JSON response");
        let served = doc
            .get("probability")
            .and_then(Value::as_f64)
            .expect("probability") as f32;
        if served.to_bits() != expected[i].to_bits() {
            eprintln!(
                "[query] MISMATCH on contract {i}: served {served} vs local {}",
                expected[i]
            );
            mismatches += 1;
        }
    }
    println!("[query] 8 solo /predict calls returned bit-identical probabilities");

    let hexes: Vec<String> = contracts
        .iter()
        .map(|c| format!("\"{}\"", c.to_hex()))
        .collect();
    let (status, body) = post(
        addr,
        "/predict_batch",
        &format!("{{\"contracts\":[{}]}}", hexes.join(",")),
    );
    assert_eq!(status, 200, "/predict_batch failed: {body}");
    let doc = phishinghook::json::parse(&body).expect("JSON response");
    let served: Vec<f32> = doc
        .get("probabilities")
        .and_then(Value::as_arr)
        .expect("probabilities")
        .iter()
        .map(|v| v.as_f64().expect("number") as f32)
        .collect();
    assert_eq!(served.len(), expected.len());
    for (i, (s, e)) in served.iter().zip(&expected).enumerate() {
        if s.to_bits() != e.to_bits() {
            eprintln!("[query] MISMATCH in batch at {i}: served {s} vs local {e}");
            mismatches += 1;
        }
    }
    println!(
        "[query] /predict_batch returned {} probabilities, all bit-identical",
        served.len()
    );

    let stats = server.queue_stats();
    println!(
        "[serve] queue scored {} contracts in {} batches (deepest {})",
        stats.scored, stats.batches, stats.max_batch_seen
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    if mismatches > 0 {
        eprintln!("[query] PARITY FAILURE: {mismatches} mismatched probabilities");
        std::process::exit(1);
    }
    println!("[query] served scores match in-process scoring bit-for-bit ✓");
}
