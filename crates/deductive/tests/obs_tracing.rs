//! End-to-end tests for the gom-obs JSONL trace: a full fixpoint
//! evaluation under tracing emits a stream every line of which parses
//! with a hand-rolled JSON parser (and survives a serialize → re-parse
//! round trip), carries the expected span names, and the disabled fast
//! path records nothing at all.

mod common;

use common::{build, derived};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// gom-obs state is process-global; tests in this binary must not
/// interleave their enable/disable toggles.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An in-memory JSONL sink.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    fn take_string(&self) -> String {
        let b = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(b.clone()).expect("trace is valid UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// A tiny hand-rolled JSON parser — the consumer side of the hand-rolled
// writer in gom-obs, deliberately independent of it.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Serialize back to JSON text (the round-trip half).
    fn emit(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            Json::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::emit).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).emit(), v.emit()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return Err(format!("bad number at byte {start}"));
        }
        // gom-obs traces contain only integers; a fraction/exponent here is
        // a schema violation worth failing on.
        if self.peek().is_some_and(|b| matches!(b, b'.' | b'e' | b'E')) {
            return Err(format!("non-integer number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i128>().ok())
            .map(Json::Int)
            .ok_or_else(|| format!("unparseable number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// A full fixpoint evaluation under tracing produces a JSONL stream where
/// every line parses, round-trips, and carries the expected structure.
#[test]
fn full_eval_trace_is_valid_jsonl() {
    let _g = lock();
    // Find a seed whose random EDB actually derives facts (obs still off,
    // so this scan records nothing).
    gom_obs::set_enabled(false);
    let seed = (0..60u64)
        .find(|&s| {
            let mut db = build(s);
            derived(&mut db).iter().any(|rel| !rel.is_empty())
        })
        .expect("some seed derives facts");

    gom_obs::reset();
    let buf = SharedBuf::new();
    gom_obs::set_trace_writer(Box::new(buf.clone()));
    gom_obs::set_enabled(true);

    let mut db = build(seed);
    let idb = derived(&mut db);
    assert!(idb.iter().any(|rel| !rel.is_empty()));

    gom_obs::flush_trace();
    gom_obs::set_enabled(false);
    gom_obs::clear_trace();

    let text = buf.take_string();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "expected a header, spans and totals");

    let mut parsed = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let v =
            Parser::parse(line).unwrap_or_else(|e| panic!("line {i} does not parse: {e}\n{line}"));
        // Round trip: serialize the parsed value and parse it again.
        let emitted = v.emit();
        let again = Parser::parse(&emitted)
            .unwrap_or_else(|e| panic!("line {i} does not round-trip: {e}\n{emitted}"));
        assert_eq!(again, v, "line {i} round-trip changed the value");
        parsed.push(v);
    }

    // Header first.
    assert_eq!(
        parsed[0].get("ev").and_then(Json::as_str),
        Some("trace_start")
    );
    assert_eq!(
        parsed[0].get("schema").and_then(Json::as_str),
        Some("gom-obs/trace/v1")
    );

    // Span lines: unique ids, sane durations, the expected names.
    let span_names: Vec<&str> = parsed
        .iter()
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("span"))
        .filter_map(|v| v.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        span_names.contains(&"eval.fixpoint"),
        "no eval.fixpoint span in {span_names:?}"
    );
    assert!(
        span_names.iter().any(|n| n.starts_with("eval.stratum")),
        "no per-stratum span in {span_names:?}"
    );
    let mut ids: Vec<i128> = parsed
        .iter()
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("span"))
        .filter_map(|v| v.get("id").and_then(Json::as_int))
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "span ids are not unique");

    // The flushed totals: counters include the derivation volume, span
    // totals include the fixpoint.
    let counters = parsed
        .iter()
        .find(|v| v.get("ev").and_then(Json::as_str) == Some("counters"))
        .and_then(|v| v.get("counters").cloned())
        .expect("a counters line");
    assert!(
        counters
            .get("eval.tuples.derived")
            .and_then(Json::as_int)
            .is_some_and(|n| n > 0),
        "eval.tuples.derived missing from {counters:?}"
    );
    let spans = parsed
        .iter()
        .find(|v| v.get("ev").and_then(Json::as_str) == Some("spans"))
        .and_then(|v| v.get("spans").cloned())
        .expect("a spans line");
    assert!(
        spans
            .get("eval.fixpoint")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_int)
            .is_some_and(|n| n > 0),
        "eval.fixpoint missing from span totals"
    );
}

/// With the collector disabled, a full evaluation records nothing: no
/// counters, no spans, no histograms, and no trace lines beyond the
/// header the sink writes on attach.
#[test]
fn disabled_path_records_nothing_end_to_end() {
    let _g = lock();
    gom_obs::reset();
    let buf = SharedBuf::new();
    gom_obs::set_trace_writer(Box::new(buf.clone()));
    gom_obs::set_enabled(false);

    let mut db = build(7);
    let _ = derived(&mut db);

    let snap = gom_obs::snapshot();
    assert!(snap.counters.is_empty(), "counters: {:?}", snap.counters);
    assert!(snap.spans.is_empty(), "spans: {:?}", snap.spans.keys());
    assert!(snap.hists.is_empty(), "hists: {:?}", snap.hists.keys());

    let text = buf.take_string();
    assert_eq!(
        text.lines().count(),
        1,
        "disabled run traced beyond the header:\n{text}"
    );
    gom_obs::clear_trace();
}
