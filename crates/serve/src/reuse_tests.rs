//! The verdict memo through a real [`Server`]: reuse is bit-exact, each
//! distinct code is scored once per generation, an install starts over,
//! a miss that straddles an install is filed nowhere, the cap holds, a
//! scorer panic files nothing, and a hit during the drain is answered.

use crate::memo::MEMO_CAP;
use crate::{QueueConfig, ServedModel, Server, ServerConfig};
use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::{CascadeVerdict, CodeScorer, EvalProfile, StageScore};
use phishinghook_evm::Bytecode;
use phishinghook_synth::{generate_corpus, CorpusConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The code a [`Stub`] panics on.
const BOMB: &[u8] = &[0xde, 0xad];

/// A scripted scorer: a verdict from the code's first byte plus `tag`, a
/// log of every code it scored, an optional gate on its first call, and
/// a panic on [`BOMB`].
struct Stub {
    tag: f32,
    scored: Mutex<Vec<Vec<u8>>>,
    /// `(entered, release)`: the first call waits on both in turn.
    gate: Mutex<Option<(Arc<Barrier>, Arc<Barrier>)>>,
}

impl Stub {
    fn new(tag: f32) -> Arc<Stub> {
        Arc::new(Stub {
            tag,
            scored: Mutex::new(Vec::new()),
            gate: Mutex::new(None),
        })
    }

    fn gated(tag: f32, entered: &Arc<Barrier>, release: &Arc<Barrier>) -> Arc<Stub> {
        let stub = Stub::new(tag);
        *stub.gate.lock().unwrap() = Some((Arc::clone(entered), Arc::clone(release)));
        stub
    }

    fn verdict(&self, code: &[u8]) -> CascadeVerdict {
        let p = self.tag + f32::from(code.first().copied().unwrap_or(0)) / 1024.0;
        CascadeVerdict {
            probability: p,
            escalated: false,
            screen: StageScore {
                kind: ModelKind::LogisticRegression,
                raw: p,
                calibrated: p,
            },
            confirm: None,
        }
    }

    fn times_scored(&self, code: &[u8]) -> usize {
        self.scored
            .lock()
            .unwrap()
            .iter()
            .filter(|c| *c == code)
            .count()
    }
}

impl CodeScorer for Stub {
    type Output = CascadeVerdict;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<CascadeVerdict> {
        let gate = self.gate.lock().unwrap().take();
        if let Some((entered, release)) = gate {
            entered.wait();
            release.wait();
        }
        assert!(codes.iter().all(|c| c.as_bytes() != BOMB), "stub bomb");
        codes
            .iter()
            .map(|code| {
                self.scored.lock().unwrap().push(code.as_bytes().to_vec());
                self.verdict(code.as_bytes())
            })
            .collect()
    }
}

fn stub_model(stub: &Arc<Stub>) -> ServedModel {
    ServedModel::Stub(Arc::clone(stub) as Arc<dyn CodeScorer<Output = CascadeVerdict>>)
}

fn serve(stub: &Arc<Stub>, cfg: ServerConfig) -> Server {
    Server::start(stub_model(stub), 1, "127.0.0.1:0", cfg).expect("start server")
}

fn code(bytes: &[u8]) -> Bytecode {
    Bytecode::new(bytes.to_vec())
}

/// One exchange on an open connection: status, whether the server closes
/// the connection after it, and the JSON body.
fn exchange(conn: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, bool, Value) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).expect("send request");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    let (mut length, mut close) = (0, false);
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            length = value.trim().parse().unwrap();
        }
        close |= header == "connection: close";
    }
    let mut text = vec![0u8; length];
    reader.read_exact(&mut text).expect("body");
    let doc = phishinghook::json::parse(std::str::from_utf8(&text).unwrap()).expect("JSON body");
    (status, close, doc)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn
}

fn predict(addr: SocketAddr, code: &Bytecode) -> (u16, Value) {
    let (status, _, doc) = exchange(
        &mut connect(addr),
        "POST",
        "/predict",
        &format!("{{\"bytecode\":\"{}\"}}", code.to_hex()),
    );
    (status, doc)
}

fn predict_batch(addr: SocketAddr, codes: &[Bytecode]) -> (u16, Value) {
    let hexes: Vec<String> = codes
        .iter()
        .map(|c| format!("\"{}\"", c.to_hex()))
        .collect();
    let (status, _, doc) = exchange(
        &mut connect(addr),
        "POST",
        "/predict_batch",
        &format!("{{\"contracts\":[{}]}}", hexes.join(",")),
    );
    (status, doc)
}

fn probability(doc: &Value) -> f32 {
    doc.get("probability").and_then(Value::as_f64).unwrap() as f32
}

fn column(doc: &Value, field: &str) -> Vec<Value> {
    doc.get(field).and_then(Value::as_arr).unwrap().to_vec()
}

fn healthz_num(addr: SocketAddr, field: &str) -> f64 {
    let (status, _, doc) = exchange(&mut connect(addr), "GET", "/healthz", "");
    assert_eq!(status, 200);
    doc.get(field).and_then(Value::as_f64).unwrap()
}

#[test]
fn reused_verdicts_are_bit_identical_and_each_code_is_scored_once() {
    let corpus = generate_corpus(&CorpusConfig::small(42));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let cascade = Arc::new(CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        &CascadeConfig::default(),
        7,
    ));
    let fresh = generate_corpus(&CorpusConfig::small(83));
    let records = SimulatedChain::from_corpus(&fresh);
    let mut distinct: Vec<Bytecode> = Vec::new();
    for record in records.records() {
        if distinct.len() < 6 && !distinct.contains(&record.bytecode) {
            distinct.push(record.bytecode.clone());
        }
    }
    let server = Server::start(
        Arc::clone(&cascade),
        0,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // In-batch duplicates, then cross-request repeats mixed with misses.
    let requests: [&[usize]; 3] = [&[0, 1, 0, 2, 1], &[2, 3, 0, 3, 4], &[4, 5, 1, 5]];
    let mut served = 0;
    for picks in requests {
        let codes: Vec<Bytecode> = picks.iter().map(|&i| distinct[i].clone()).collect();
        let want = cascade.score_codes(&codes);
        let (status, doc) = predict_batch(addr, &codes);
        assert_eq!(status, 200);
        let (probs, escalated) = (column(&doc, "probabilities"), column(&doc, "escalated"));
        for (i, v) in want.iter().enumerate() {
            let got = probs[i].as_f64().unwrap() as f32;
            assert_eq!(got.to_bits(), v.probability.to_bits(), "{picks:?}[{i}]");
            assert_eq!(escalated[i], Value::Bool(v.escalated));
        }
        served += codes.len() as u64;
    }
    // A solo repeat.
    let (status, doc) = predict(addr, &distinct[3]);
    assert_eq!(status, 200);
    let want = cascade.score_code(&distinct[3]);
    assert_eq!(probability(&doc).to_bits(), want.probability.to_bits());
    served += 1;

    let n = distinct.len() as u64;
    assert_eq!(
        server.queue_stats().scored,
        n,
        "each distinct code scored once"
    );
    let reuse = server.reuse_stats();
    assert_eq!(
        (reuse.hits, reuse.misses, reuse.entries),
        (served - n, n, 6)
    );
    assert_eq!(reuse.hits + server.queue_stats().scored, served);
    // The routing counters count every served verdict, reused or not.
    let escalated_served: u64 = requests
        .iter()
        .flat_map(|picks| picks.iter())
        .chain([&3])
        .map(|&i| u64::from(cascade.score_code(&distinct[i]).escalated))
        .sum();
    assert_eq!(server.routing_counters(), (served, escalated_served));
    assert_eq!(healthz_num(addr, "reuse_hits"), (served - n) as f64);
    assert_eq!(healthz_num(addr, "reuse_misses"), n as f64);
    assert_eq!(healthz_num(addr, "reuse_entries"), 6.0);
    server.shutdown();
}

#[test]
fn an_install_starts_an_empty_memo() {
    let (a, b) = (Stub::new(0.0), Stub::new(0.5));
    let server = serve(&a, ServerConfig::default());
    let addr = server.local_addr();
    let x = code(&[7, 1, 2]);
    for _ in 0..2 {
        let (status, doc) = predict(addr, &x);
        assert_eq!(status, 200);
        assert_eq!(probability(&doc), a.verdict(x.as_bytes()).probability);
    }
    assert_eq!(a.times_scored(x.as_bytes()), 1);

    server.install(stub_model(&b), 2);
    assert_eq!(server.reuse_stats().entries, 0);
    let (status, doc) = predict(addr, &x);
    assert_eq!(status, 200);
    assert_eq!(probability(&doc), b.verdict(x.as_bytes()).probability);
    assert_eq!(
        (a.times_scored(x.as_bytes()), b.times_scored(x.as_bytes())),
        (1, 1)
    );
    assert_eq!(server.reuse_stats().entries, 1);
    server.shutdown();
}

#[test]
fn a_miss_that_straddles_an_install_is_filed_under_neither_generation() {
    let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let a = Stub::gated(0.0, &entered, &release);
    let b = Stub::new(0.5);
    let server = serve(
        &a,
        ServerConfig {
            queue: QueueConfig {
                workers: 1,
                batch_wait: Duration::ZERO,
                ..QueueConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let gen_a_memo = server.slot().live().memo;
    let (y, x) = (code(&[1]), code(&[2]));

    std::thread::scope(|s| {
        // Y holds the only worker inside generation A's scorer.
        let on_a = s.spawn(|| predict(addr, &y));
        entered.wait();
        // X is planned against A's memo and waits in the queue.
        let on_b = s.spawn(|| predict(addr, &x));
        let deadline = Instant::now() + Duration::from_secs(30);
        while healthz_num(addr, "queue_depth") < 1.0 {
            assert!(Instant::now() < deadline, "X never reached the queue");
            std::thread::sleep(Duration::from_millis(2));
        }
        server.install(stub_model(&b), 2);
        release.wait();

        // Y was scored by A but returns after the install; X was planned
        // under A but scored by B. Neither is filed anywhere.
        let (status, doc) = on_a.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(probability(&doc), a.verdict(y.as_bytes()).probability);
        let (status, doc) = on_b.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(probability(&doc), b.verdict(x.as_bytes()).probability);
    });
    assert!(gen_a_memo.is_empty(), "B's verdict filed under A");
    assert_eq!(server.reuse_stats().entries, 0, "A's verdict filed under B");

    // B scores Y afresh, and now files it.
    let (_, doc) = predict(addr, &y);
    assert_eq!(probability(&doc), b.verdict(y.as_bytes()).probability);
    assert_eq!(b.times_scored(y.as_bytes()), 1);
    assert_eq!(server.reuse_stats().entries, 1);
    server.shutdown();
}

#[test]
fn the_cap_holds_under_more_distinct_codes_than_it_allows() {
    let stub = Stub::new(0.0);
    let server = serve(&stub, ServerConfig::default());
    let addr = server.local_addr();
    let total = MEMO_CAP + 300;
    let codes: Vec<Bytecode> = (0..total as u32)
        .map(|i| code(&i.to_be_bytes()[1..]))
        .collect();
    for chunk in codes.chunks(256) {
        assert_eq!(predict_batch(addr, chunk).0, 200);
        assert!(server.reuse_stats().entries <= MEMO_CAP);
    }
    // Reset when full: the memo holds what was filed since the reset.
    let reuse = server.reuse_stats();
    assert_eq!(reuse.entries, total - MEMO_CAP);
    assert_eq!((reuse.hits, reuse.misses), (0, total as u64));
    // The latest codes are hits; the first ones were evicted.
    assert_eq!(predict(addr, &codes[total - 1]).0, 200);
    assert_eq!(predict(addr, &codes[0]).0, 200);
    assert_eq!(stub.times_scored(codes[total - 1].as_bytes()), 1);
    assert_eq!(stub.times_scored(codes[0].as_bytes()), 2);
    server.shutdown();
}

#[test]
fn a_scorer_panic_files_nothing_and_answers_worker_lost() {
    let stub = Stub::new(0.0);
    let server = serve(&stub, ServerConfig::default());
    let addr = server.local_addr();
    let (good, bomb) = (code(&[9, 9]), code(BOMB));
    for _ in 0..2 {
        let (status, doc) = predict_batch(addr, &[good.clone(), bomb.clone()]);
        assert_eq!(status, 500);
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("scoring worker lost")
        );
        assert_eq!(server.reuse_stats().entries, 0);
    }
    let reuse = server.reuse_stats();
    assert_eq!((reuse.hits, reuse.misses), (0, 0));
    // The good code was never filed: alone, it is scored now.
    let (status, doc) = predict(addr, &good);
    assert_eq!(status, 200);
    assert_eq!(probability(&doc), stub.verdict(good.as_bytes()).probability);
    assert_eq!(stub.times_scored(good.as_bytes()), 1);
    assert_eq!(server.reuse_stats().entries, 1);
    server.shutdown();
}

/// While the server drains, a request already on an open connection is
/// still answered: a hit from the memo without a queue job, a miss by
/// the queue, which drains only after the last connection handler
/// exits. Either reply closes its connection.
#[test]
fn while_draining_a_hit_is_answered_from_the_memo() {
    let stub = Stub::new(0.0);
    let server = serve(&stub, ServerConfig::default());
    let addr = server.local_addr();
    let (x, y) = (code(&[3, 3]), code(&[4, 4]));
    let (mut hit_conn, mut miss_conn) = (connect(addr), connect(addr));
    let body = |c: &Bytecode| format!("{{\"bytecode\":\"{}\"}}", c.to_hex());
    let (status, close, _) = exchange(&mut hit_conn, "POST", "/predict", &body(&x));
    assert_eq!((status, close), (200, false));

    std::thread::scope(|s| {
        let draining = s.spawn(move || server.shutdown());
        // The listener goes once shutdown has begun.
        let deadline = Instant::now() + Duration::from_secs(30);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "the listener never closed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let (status, close, doc) = exchange(&mut hit_conn, "POST", "/predict", &body(&x));
        assert_eq!((status, close), (200, true));
        assert_eq!(probability(&doc), stub.verdict(x.as_bytes()).probability);
        let (status, close, doc) = exchange(&mut miss_conn, "POST", "/predict", &body(&y));
        assert_eq!((status, close), (200, true));
        assert_eq!(probability(&doc), stub.verdict(y.as_bytes()).probability);
        draining.join().unwrap();
    });
    assert_eq!(stub.times_scored(x.as_bytes()), 1);
    assert_eq!(stub.times_scored(y.as_bytes()), 1);
}
