//! Properties of `phishinghook::json`, the codec every serving request and
//! reply goes through: rendering then parsing any value gives it back,
//! parsing any bytes returns without panicking, parse time stays linear in
//! the body, and the rendered `/predict_batch` reply is byte-stable.
//!
//! The vendored proptest has no string or recursive strategies, so value
//! trees are built with `rand` from an `any::<u64>()` seed.

use phishinghook::json::{parse, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A character from every class the escaper treats differently: quote,
/// backslash, C0 controls, DEL, ASCII, the rest of the BMP and the astral
/// planes.
fn random_char(rng: &mut StdRng) -> char {
    loop {
        let code = match rng.gen_range(0..6u32) {
            0 => *[b'"', b'\\', b'/', 0x7f]
                .get(rng.gen_range(0..4usize))
                .unwrap() as u32,
            1 => rng.gen_range(0..0x20u32),
            2 => rng.gen_range(0x20..0x7fu32),
            3 => rng.gen_range(0x80..0x1_0000u32),
            _ => rng.gen_range(0x1_0000..0x11_0000u32),
        };
        // Surrogate code points are not chars; draw again.
        if let Some(c) = char::from_u32(code) {
            return c;
        }
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| random_char(rng)).collect()
}

/// A finite `f64`: small integers, `f32` probabilities as the server
/// sends them, or arbitrary bit patterns (subnormals and extremes
/// included).
fn random_number(rng: &mut StdRng) -> f64 {
    loop {
        let n = match rng.gen_range(0..3u32) {
            0 => rng.gen_range(-1000i64..1000) as f64,
            1 => rng.gen::<f32>() as f64,
            _ => f64::from_bits(rng.gen()),
        };
        if n.is_finite() {
            return n;
        }
    }
}

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let kinds = if depth >= 4 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Num(random_number(rng)),
        3 => Value::Str(random_string(rng)),
        4 => Value::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn hex(rng: &mut StdRng, bytes: usize) -> String {
    let mut s = String::from("0x");
    for _ in 0..bytes {
        s.push_str(&format!("{:02x}", rng.gen::<u8>()));
    }
    s
}

/// A `/predict_batch` request body as clients render it.
fn batch_body(rng: &mut StdRng, contracts: usize, bytes: impl Fn(&mut StdRng) -> usize) -> String {
    let codes = (0..contracts)
        .map(|_| {
            let n = bytes(rng);
            Value::Str(hex(rng, n))
        })
        .collect();
    Value::Obj(vec![("contracts".into(), Value::Arr(codes))]).render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_the_identity(seed in any::<u64>()) {
        let value = random_value(&mut StdRng::seed_from_u64(seed), 0);
        let text = value.render();
        prop_assert_eq!(parse(&text), Some(value), "{}", text);
    }

    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Byte soup over the JSON alphabet reaches far deeper into the
    /// grammar than uniform bytes do.
    #[test]
    fn json_alphabet_soup_never_panics(picks in vec(any::<u8>(), 0..256)) {
        const ALPHABET: &[u8] = b"{}[]\",:\\/ubnrtf0123456789abcdefABCDEF.eE+-xnulltrue \n\x01";
        let text: String = picks
            .iter()
            .map(|&p| ALPHABET[p as usize % ALPHABET.len()] as char)
            .collect();
        let _ = parse(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One byte of a rendered 64-contract request replaced by any other:
    /// the parser returns without panicking, whatever the byte breaks.
    #[test]
    fn corrupted_batch_bodies_never_panic(
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = batch_body(&mut rng, 64, |rng| rng.gen_range(1..64usize));
        let clean = parse(&body).expect("the rendered body is valid");
        prop_assert_eq!(clean.get("contracts").and_then(Value::as_arr).map(<[_]>::len), Some(64));
        let mut bytes = body.into_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}

/// Long unescaped runs of one- to four-byte UTF-8 that end, and restart,
/// right at a `\"`, `\\`, `\/`, `\u` or surrogate-pair escape decode to
/// exactly the characters they spell, in values and keys alike.
#[test]
fn multibyte_runs_beside_escapes_decode_exactly() {
    let run = "a\u{e9}\u{20ac}\u{1F600}".repeat(300);
    let escapes: [(&str, char); 6] = [
        (r#"\""#, '"'),
        (r"\\", '\\'),
        (r"\/", '/'),
        (r"\u00e9", '\u{e9}'),
        (r"\u20AC", '\u{20ac}'),
        (r"\ud83d\ude00", '\u{1F600}'),
    ];
    let mut text = String::from("\"");
    let mut expected = String::new();
    for (escape, c) in escapes {
        text.push_str(&run);
        text.push_str(escape);
        expected.push_str(&run);
        expected.push(c);
        // Two escapes back to back leave an empty run between them.
        text.push_str(escape);
        expected.push(c);
    }
    text.push_str(&run);
    text.push('"');
    expected.push_str(&run);
    assert_eq!(parse(&text), Some(Value::Str(expected.clone())));

    let doc = parse(&format!("{{{text}:[{text}]}}")).expect("valid object");
    let Value::Obj(fields) = &doc else {
        panic!("not an object: {doc:?}")
    };
    assert_eq!(fields[0].0, expected);
    assert_eq!(fields[0].1, Value::Arr(vec![Value::Str(expected)]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random runs of multibyte characters joined by random escapes decode
    /// to the string spelled out beside them.
    #[test]
    fn runs_and_escapes_decode_to_what_they_spell(seed in any::<u64>()) {
        const RUN_CHARS: [char; 6] = ['a', '\u{7f}', '\u{e9}', '\u{7ff}', '\u{20ac}', '\u{10FFFF}'];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::from("\"");
        let mut expected = String::new();
        for _ in 0..rng.gen_range(0..8usize) {
            for _ in 0..rng.gen_range(0..200usize) {
                let c = RUN_CHARS[rng.gen_range(0..RUN_CHARS.len())];
                text.push(c);
                expected.push(c);
            }
            let (escape, c) = match rng.gen_range(0..4u32) {
                0 => ("\\\"".to_string(), '"'),
                1 => ("\\\\".to_string(), '\\'),
                2 => {
                    let c = RUN_CHARS[rng.gen_range(0..RUN_CHARS.len() - 1)];
                    (format!("\\u{:04x}", c as u32), c)
                }
                _ => ("\\ud83d\\ude00".to_string(), '\u{1F600}'),
            };
            text.push_str(&escape);
            expected.push(c);
        }
        text.push('"');
        prop_assert_eq!(parse(&text), Some(Value::Str(expected)), "{}", text);
    }
}

/// Parses `text` and returns the time it took; the document must be valid.
fn timed_parse(text: &str) -> (Value, Duration) {
    let start = Instant::now();
    let value = parse(text).expect("valid document");
    (value, start.elapsed())
}

/// Guards the linear bound: each document holds about a megabyte of
/// string and parses in milliseconds in a debug build. A parser that
/// revalidates the rest of the input for every string character (the
/// codec before it copied unescaped runs whole) took 39 s and 33 s on
/// these two documents in a debug build on a 2-vCPU AVX-512F VM.
#[test]
fn parse_time_is_linear_in_the_body() {
    let limit = Duration::from_secs(2);

    let one_string = format!("{{\"bytecode\":\"0x{}\"}}", "ab".repeat(512 * 1024));
    let (value, took) = timed_parse(&one_string);
    assert_eq!(
        value.get("bytecode").and_then(Value::as_str).map(str::len),
        Some(2 + 1024 * 1024)
    );
    assert!(took < limit, "a 1 MiB string took {took:?}");

    let mut rng = StdRng::seed_from_u64(7);
    let batch = batch_body(&mut rng, 256, |_| 2048);
    let (value, took) = timed_parse(&batch);
    let contracts = value.get("contracts").and_then(Value::as_arr).unwrap();
    assert_eq!(contracts.len(), 256);
    assert!(contracts
        .iter()
        .all(|c| c.as_str().map(str::len) == Some(2 + 4096)));
    assert!(took < limit, "256 x 4 KiB of hex took {took:?}");
}

/// The rendered bytes of a `/predict_batch` reply (the server's
/// `verdicts_json` shape: model label, then per-contract columns) and of a
/// string full of escapes, pinned byte for byte.
#[test]
fn rendered_replies_are_byte_stable() {
    let probabilities = [0.12345678f32, 1.0, 0.0, f32::MIN_POSITIVE, 0.9999999, 0.5];
    let reply = Value::Obj(vec![
        ("model".into(), Value::Str("cascade".into())),
        (
            "probabilities".into(),
            Value::Arr(
                probabilities
                    .iter()
                    .map(|&p| Value::Num(p as f64))
                    .collect(),
            ),
        ),
        (
            "escalated".into(),
            Value::Arr(
                [true, false, false, true, false, true]
                    .map(Value::Bool)
                    .to_vec(),
            ),
        ),
        (
            "phishing".into(),
            Value::Arr(
                [false, true, false, false, true, true]
                    .map(Value::Bool)
                    .to_vec(),
            ),
        ),
    ]);
    assert_eq!(
        reply.render(),
        "{\"model\":\"cascade\",\"probabilities\":[0.12345678359270096,1,0,\
         0.000000000000000000000000000000000000011754943508222875,\
         0.9999998807907104,0.5],\"escalated\":[true,false,false,true,false,true],\
         \"phishing\":[false,true,false,false,true,true]}"
    );

    let awkward = "q\"b\\s/\n\r\t\u{0}\u{1f}\u{7f}\u{e9}\u{1F600}";
    let doc = Value::Obj(vec![
        (awkward.into(), Value::Str(awkward.into())),
        (
            "n".into(),
            Value::Arr(vec![
                Value::Num(-0.0),
                Value::Num(1e21),
                Value::Num(f64::NAN),
                Value::Null,
            ]),
        ),
    ]);
    let escaped = "\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u001f\u{7f}\u{e9}\u{1F600}\"";
    assert_eq!(
        doc.render(),
        format!("{{{escaped}:{escaped},\"n\":[-0,1000000000000000000000,null,null]}}")
    );
}

/// Every JSON document committed at the repository root is still accepted
/// by the strict grammar.
#[test]
fn committed_json_documents_still_parse() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                parse(&text).is_some(),
                "{} no longer parses",
                path.display()
            );
            seen += 1;
        }
    }
    assert!(seen > 0, "no JSON documents at the repository root");
}
