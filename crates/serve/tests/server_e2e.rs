//! End-to-end serving: train → save → reopen zero-copy → serve over real
//! TCP → every score bit-identical to the in-process detector. Also pins
//! the error surface a client actually sees: 400s for malformed bodies,
//! 404/405 for unknown routes, and honest JSON error envelopes.

use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook_artifact::OwnedArtifact;
use phishinghook_evm::Bytecode;
use phishinghook_serve::{Limits, QueueConfig, Server, ServerConfig};
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn fresh_contracts(n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(0xE2E);
    (0..n)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(5),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect()
}

/// Pulls `probability` out of a `/predict` response and casts it back to
/// the served f32 (the JSON codec round-trips f32 via f64 bit-exactly).
fn probability_of(body: &str) -> f32 {
    let doc = phishinghook::json::parse(body).expect("response is JSON");
    doc.get("probability")
        .and_then(Value::as_f64)
        .expect("probability field") as f32
}

#[test]
fn served_scores_match_the_detector_bit_for_bit() {
    // Train once, save, reopen through the zero-copy path: ONE buffer
    // read from disk, decoded once, shared by the whole worker pool.
    let corpus = generate_corpus(&CorpusConfig::small(77));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let trained = Detector::train(&ctx, ModelKind::Svm, 11);

    let path = std::env::temp_dir().join(format!("phk-serve-e2e-{}.phk", std::process::id()));
    trained.save(&path).expect("save artifact");
    let artifact = OwnedArtifact::open(&path).expect("reopen artifact");
    assert_eq!(artifact.buffer_refs(), 1, "one freshly-read buffer");
    let detector = Arc::new(Detector::from_artifact(&artifact).expect("decode artifact"));

    let server = Server::start(
        Arc::clone(&detector),
        0,
        "127.0.0.1:0",
        ServerConfig {
            queue: QueueConfig {
                max_batch: 8,
                batch_wait: Duration::from_micros(200),
                capacity: 64,
                workers: 2,
            },
            limits: Limits::default(),
            read_timeout: Duration::from_secs(30),
            max_request_contracts: 8,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Health first: the server reports the model it serves.
    let (status, body) = send(addr, b"GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n");
    assert_eq!(status, 200, "healthz: {body}");
    let health = phishinghook::json::parse(&body).unwrap();
    assert_eq!(health.get("model").and_then(Value::as_str), Some("svm"));

    // Solo predictions over real TCP are bit-identical to score_code.
    let contracts = fresh_contracts(6);
    for code in &contracts {
        let (status, body) = post(
            addr,
            "/predict",
            &format!("{{\"bytecode\":\"{}\"}}", code.to_hex()),
        );
        assert_eq!(status, 200, "predict: {body}");
        assert_eq!(
            probability_of(&body),
            detector.score_code(code),
            "served probability must be bit-identical to in-process scoring"
        );
    }

    // Each pass below starts from an empty verdict memo, so its contracts
    // go through the queue rather than being answered by the last pass.
    assert_eq!(server.install(Arc::clone(&detector), 1), 0);

    // Batch endpoint: order-preserving, bit-identical to score_codes.
    let hexes: Vec<String> = contracts
        .iter()
        .map(|c| format!("\"{}\"", c.to_hex()))
        .collect();
    let (status, body) = post(
        addr,
        "/predict_batch",
        &format!("{{\"contracts\":[{}]}}", hexes.join(",")),
    );
    assert_eq!(status, 200, "predict_batch: {body}");
    let doc = phishinghook::json::parse(&body).unwrap();
    let served: Vec<f32> = doc
        .get("probabilities")
        .and_then(Value::as_arr)
        .expect("probabilities array")
        .iter()
        .map(|v| v.as_f64().unwrap() as f32)
        .collect();
    assert_eq!(served, detector.score_codes(&contracts));

    // Concurrent clients coalesce through the queue; each still gets its
    // own exact score back.
    assert_eq!(server.install(Arc::clone(&detector), 2), 1);
    let direct = detector.score_codes(&contracts);
    std::thread::scope(|s| {
        let handles: Vec<_> = contracts
            .iter()
            .zip(&direct)
            .map(|(code, &want)| {
                s.spawn(move || {
                    let (status, body) = post(
                        addr,
                        "/predict",
                        &format!("{{\"bytecode\":\"{}\"}}", code.to_hex()),
                    );
                    assert_eq!(status, 200);
                    assert_eq!(probability_of(&body), want);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // Keep-alive: two exchanges on one connection.
    {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let body = format!("{{\"bytecode\":\"{}\"}}", contracts[0].to_hex());
        let req = format!(
            "POST /predict HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        for _ in 0..2 {
            writer.write_all(req.as_bytes()).unwrap();
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(probability_of(&body), direct[0]);
        }
    }

    // The client-facing error surface.
    let cases: Vec<(&str, &str, u16)> = vec![
        ("/predict", "{not json", 400),
        ("/predict", "{\"bytecode\":\"0xZZ\"}", 400),
        ("/predict", "{\"nothing\":1}", 400),
        ("/predict_batch", "{\"contracts\":[]}", 400),
        ("/predict_batch", "{\"contracts\":[42]}", 400),
        ("/nope", "{}", 404),
    ];
    for (path, body, want) in cases {
        let (status, reply) = post(addr, path, body);
        assert_eq!(status, want, "POST {path} {body} -> {reply}");
        assert!(
            phishinghook::json::parse(&reply)
                .and_then(|v| v.get("error").map(|_| ()))
                .is_some(),
            "error responses carry a JSON error envelope: {reply}"
        );
    }
    // More contracts than the per-request cap (8) is an explicit 413.
    let too_many = ["\"0x00\""; 9].join(",");
    let (status, _) = post(
        addr,
        "/predict_batch",
        &format!("{{\"contracts\":[{too_many}]}}"),
    );
    assert_eq!(status, 413);
    // Wrong method on a real route.
    let (status, _) = send(addr, b"DELETE /predict HTTP/1.1\r\nHost: e2e\r\n\r\n");
    assert_eq!(status, 405);
    // A malformed wire request (no Content-Length on POST) gets 411.
    let (status, _) = send(addr, b"POST /predict HTTP/1.1\r\nHost: e2e\r\n\r\n");
    assert_eq!(status, 411);

    // Every contract of the solo, batched and concurrent passes went
    // through the queue; the two keep-alive repeats were answered from
    // the memo. Together that is every accepted contract.
    let (stats, reuse) = (server.queue_stats(), server.reuse_stats());
    assert_eq!(
        stats.scored,
        3 * contracts.len() as u64,
        "every pass went through the queue: {stats:?} {reuse:?}"
    );
    assert_eq!(
        reuse.hits, 2,
        "the keep-alive repeats were reused: {reuse:?}"
    );

    // Shutdown finishes in-flight work and stops accepting.
    server.shutdown();
    let refused = TcpStream::connect(addr)
        .map(|s| {
            // If the OS raced us into a half-open socket, the server side
            // is gone: the read must fail or hit EOF immediately.
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1];
            matches!((&s).read(&mut buf), Ok(0) | Err(_))
        })
        .unwrap_or(true);
    assert!(refused, "the listener must be gone after shutdown");

    let _ = std::fs::remove_file(&path);
}
