//! Dependency-free JSON encoding/decoding.
//!
//! The offline build has no `serde`, so every JSON surface in the
//! workspace — the bench baselines (`BENCH_*.json`), the reproduction
//! report (`REPRO.json`) and the serving tier's request/response bodies —
//! goes through this one module: a generic [`Value`] tree with a
//! depth-capped recursive-descent parser.
//!
//! The parser is total and linear: any malformed input, trailing garbage,
//! or pathological nesting returns `None` — it never panics, and it looks
//! at each input byte a bounded number of times (a string's unescaped runs
//! are copied whole), which is what lets the serving tier run it on
//! untrusted request bodies behind the HTTP layer's length caps. The
//! `parse_time_is_linear_in_the_body` guard in `tests/json_codec.rs` pins
//! the linear bound on megabyte-sized documents.
//!
//! It accepts RFC 8259 JSON and nothing looser: numbers follow
//! `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, a `\u` escape takes
//! exactly four hex digits, a UTF-16 surrogate pair decodes to one scalar
//! (a lone surrogate to U+FFFD), and raw control characters inside strings
//! are rejected.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Numeric accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object-field accessor.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact JSON rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    // Writing into a `String` cannot fail.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\` and control characters
/// are escaped, everything else is copied in runs.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting depth the parser accepts. The recursive
/// descent uses one stack frame per nesting level, so an unbounded depth
/// would let a pathologically nested document overflow the stack; beyond
/// this limit [`parse`] returns `None` like any other malformed input. The
/// documents the workspace exchanges nest three or four levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns `None` on any syntax error, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Option<Value> {
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos == input.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Option<Value> {
    if depth > MAX_DEPTH {
        return None;
    }
    let b = s.as_bytes();
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => parse_lit(b, pos, "null", Value::Null),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'"' => parse_string(s, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                fields.push((key, parse_value(s, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Option<Value> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_string(s: &str, pos: &mut usize) -> Option<String> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one step. Every stop byte is ASCII, so both ends of the run are
        // char boundaries of `s` and the slice needs no UTF-8 re-check.
        let run = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
            *pos += 1;
        }
        out.push_str(&s[run..*pos]);
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low one is
                        // a pair; any other surrogate decodes to U+FFFD.
                        if (0xd800..0xdc00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            if let Some(low @ 0xdc00..=0xdfff) = hex4(b, *pos + 3) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            // A raw control character.
            _ => return None,
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)?
        .iter()
        .try_fold(0, |code, &d| Some(code << 4 | (d as char).to_digit(16)?))
}

/// Advances past a run of ASCII digits and returns how many there were.
fn digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match *b.get(*pos)? {
        b'0' => *pos += 1,
        b'1'..=b'9' => {
            digits(b, pos);
        }
        _ => return None,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return None;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return None;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let text = r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        let again = parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("[1,]").is_none());
        assert!(parse("123 456").is_none());
        assert!(parse("").is_none());
    }

    #[test]
    fn f32_probabilities_survive_a_round_trip_bit_exactly() {
        // The serving tier ships f32 scores as JSON numbers: f32 → f64 is
        // exact, Display prints the shortest round-trip decimal, and the
        // reparse restores the same f64, so the f32 cast back is bit-exact.
        for p in [0.0f32, 1.0, 0.5, 0.12345678, f32::MIN_POSITIVE, 0.9999999] {
            let rendered = Value::Num(p as f64).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), p.to_bits(), "{p} via {rendered}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u004a""#), Some(Value::Str("J".into())));
        assert_eq!(parse(r#""\u00E9x""#), Some(Value::Str("\u{e9}x".into())));
        for bad in [
            r#""\u+04a""#,
            r#""\u-04a""#,
            r#""\u 04a""#,
            r#""\u04a""#,
            r#""\u04g1""#,
            r#""\u""#,
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |text: &str| Some(Value::Str(text.into()));
        assert_eq!(parse(r#""\ud83d\ude00""#), s("\u{1F600}"));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#), s("a\u{1F600}b"));
        // Lone high, lone low, a reversed pair, and a high surrogate
        // followed by a plain character or a non-surrogate escape.
        assert_eq!(parse(r#""\ud83d""#), s("\u{fffd}"));
        assert_eq!(parse(r#""\ude00x""#), s("\u{fffd}x"));
        assert_eq!(parse(r#""\ude00\ud83d""#), s("\u{fffd}\u{fffd}"));
        assert_eq!(parse(r#""\ud83dA""#), s("\u{fffd}A"));
        assert_eq!(parse(r#""\ud83d\u0041""#), s("\u{fffd}A"));
        assert_eq!(parse(r#""\ud83d\u004""#), None);
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for c in (0u8..0x20).map(char::from) {
            assert_eq!(parse(&format!("\"a{c}b\"")), None, "{:#x}", c as u32);
            assert_eq!(parse(&format!("{{\"k{c}\":1}}")), None, "{:#x}", c as u32);
        }
        // DEL and everything above it is plain text; escaped controls parse.
        assert_eq!(parse("\"\u{7f}\""), Some(Value::Str("\u{7f}".into())));
        assert_eq!(parse(r#""\u0001\n""#), Some(Value::Str("\u{1}\n".into())));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, value) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.5", 0.5),
            ("10.25", 10.25),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("-2.5e-3", -2.5e-3),
            ("0e0", 0.0),
        ] {
            let parsed = parse(text).and_then(|v| v.as_f64());
            assert_eq!(parsed.map(f64::to_bits), Some(value.to_bits()), "{text}");
        }
        for bad in [
            "+1",
            ".5",
            "5.",
            "01",
            "-01",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "--1",
            "1.5.2",
            "0x10",
            "1_000",
            "inf",
            "NaN",
            "[01]",
            "[1.]",
            "{\"a\":+1}",
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Far deeper than any artifact, and deep enough to overflow the
        // stack without the cap.
        let deep = "[".repeat(200_000);
        assert!(parse(&deep).is_none());
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).is_none());
        // A document at a reasonable depth still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_some());
        // One past the limit fails cleanly.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_none());
    }
}
