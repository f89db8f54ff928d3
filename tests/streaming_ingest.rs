//! End-to-end streaming ingestion & online adaptation: the injected
//! drift scenario runs shift → `DriftSignal` → sliding-window retrain →
//! atomic republish → live hot-swap, with client traffic in flight the
//! whole time and zero dropped requests.

use phishinghook::drift::DriftConfig;
use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::EvalProfile;
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_ingest::{baseline_detector, DriftScenario, IngestConfig, OnlinePipeline};
use phishinghook_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join("phk_streaming_ingest")
        .join(format!("{tag}_{}", std::process::id()))
}

/// Reads one HTTP response off `r`: status code and body text.
fn read_response(r: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    r.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length value");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One-shot request on a fresh connection.
fn send(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(raw).expect("send request");
    read_response(&mut BufReader::new(stream))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: ingest-e2e\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: ingest-e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn json_num(body: &str, field: &str) -> f64 {
    phishinghook::json::parse(body)
        .expect("JSON body")
        .get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing {field:?} in {body}"))
}

#[test]
fn drift_retrain_republish_hot_swap_with_zero_dropped_requests() {
    let scenario = DriftScenario::small(42);
    let chain = scenario.build();
    let kind = ModelKind::LogisticRegression;
    let initial = baseline_detector(&chain, kind, &EvalProfile::quick(), 7);

    let dir = temp_dir("e2e");
    std::fs::remove_dir_all(&dir).ok();
    let mut publisher = ArtifactPublisher::open(&dir).unwrap();
    let first = publisher.publish(initial.to_bytes()).unwrap();
    assert_eq!(first.generation, 1);

    let server = Arc::new(
        Server::start(
            Arc::clone(&initial),
            first.generation,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap(),
    );
    let addr = server.local_addr();

    // Satellite: /healthz reports generation, model kind, and uptime.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json_num(&body, "generation"), 1.0);
    assert!(json_num(&body, "uptime_seconds") >= 0.0);
    assert!(
        body.contains(&format!("\"model\":\"{}\"", kind.id())),
        "{body}"
    );

    // Client traffic stays in flight across every swap.
    let stop = Arc::new(AtomicBool::new(false));
    let attempts = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));
    let probe_hex = chain.records()[0].bytecode.to_hex();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let (stop, attempts, delivered) = (
                Arc::clone(&stop),
                Arc::clone(&attempts),
                Arc::clone(&delivered),
            );
            let request = format!("{{\"bytecode\":\"{probe_hex}\"}}");
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    let (status, body) = post(addr, "/predict", &request);
                    assert_eq!(status, 200, "in-flight request failed: {body}");
                    delivered.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    // Replay the drifted chain; each retrain republishes atomically and
    // the server picks the new generation up FROM DISK — the full seam.
    let mut pipeline = OnlinePipeline::new(
        Arc::clone(&initial),
        IngestConfig {
            drift: DriftConfig {
                window: 64,
                brier_margin: 0.15,
            },
            retrain_window: 256,
            kind,
            profile: EvalProfile::quick(),
            seed: 7,
        },
    );
    for sample in ExtractionStream::new(&chain, Month::FIRST, Month::LAST) {
        if let Some(event) = pipeline.observe(sample, &mut publisher).unwrap() {
            let bytes = std::fs::read(&event.published.path).unwrap();
            let decoded = Arc::new(Detector::from_bytes(&bytes).unwrap());
            let replaced = server.install(decoded, event.published.generation);
            assert!(replaced < event.published.generation, "monotone swap");
        }
    }
    let report = pipeline.report();
    assert!(
        report.retrains >= 1,
        "injected shift must retrain: {report:?}"
    );

    stop.store(true, Ordering::SeqCst);
    for c in clients {
        c.join().unwrap();
    }
    // Zero dropped: every request issued across the swaps was answered.
    let (attempted, answered) = (
        attempts.load(Ordering::SeqCst),
        delivered.load(Ordering::SeqCst),
    );
    assert!(attempted > 0);
    assert_eq!(attempted, answered, "dropped in-flight requests");

    // The live generation is the publish directory's CURRENT pointer.
    let current = ArtifactPublisher::current(&dir).unwrap().unwrap();
    assert_eq!(server.generation(), current.generation);
    assert_eq!(current.generation, *report.generations.last().unwrap());
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json_num(&body, "generation"), current.generation as f64);

    // Bit parity within the live generation: a served score equals the
    // decoded artifact's solo score exactly.
    let probe = &chain.records()[0].bytecode;
    let (status, body) = post(
        addr,
        "/predict",
        &format!("{{\"bytecode\":\"{probe_hex}\"}}"),
    );
    assert_eq!(status, 200);
    let served = json_num(&body, "probability") as f32;
    let solo = Detector::from_bytes(&std::fs::read(&current.path).unwrap())
        .unwrap()
        .score_code(probe);
    assert_eq!(served.to_bits(), solo.to_bits());

    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("server still shared"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
