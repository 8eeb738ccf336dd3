//! `gom-obs` — structured observability for the GOM engine.
//!
//! The paper's thesis is that consistency control should *explain itself*
//! (derivation trees for repairs, §3); this crate applies the same
//! philosophy to the runtime: every evaluation can account for its own
//! cost. It provides three primitives behind one global switch:
//!
//! * **spans** — RAII wall-clock timers with parent/child nesting
//!   (per-thread stack), e.g. `eval.stratum`, `session.ees`;
//! * **counters** — monotonic `u64` sums, e.g. `eval.tuples.derived`,
//!   `journal.fsyncs`;
//! * **histograms** — fixed power-of-two buckets (no allocation after
//!   creation), e.g. `eval.worker.busy_ns`.
//!
//! Two sinks consume them:
//!
//! * an **in-memory aggregator** ([`snapshot`]) for end-of-run summaries
//!   (`gomsh stats`, `ees --timing`, microbench rows), and
//! * a **JSONL trace writer** ([`set_trace_path`]) emitting one hand-rolled
//!   JSON object per span/event plus a counters snapshot at every flush,
//!   for offline analysis (same serde-free style as `gom-lint`'s JSON).
//!
//! **Disabled fast path.** Observability is off by default. Every probe
//! starts with a relaxed atomic load ([`enabled`]); when it returns
//! `false` no clock is read, no lock is taken, and no allocation happens —
//! the instrumented hot paths stay within noise of the uninstrumented
//! build (enforced by the ≤2% microbench gate in `scripts/check.sh`).
//!
//! The crate is dependency-free and fully offline, like the rest of the
//! workspace. Because nearly every crate already depends on it, it also
//! hosts [`SplitMix64`], the workspace's one seedable PRNG.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

mod hist;
mod rng;
mod table;

pub use hist::{bucket_index, bucket_lower_bound, Hist, BUCKETS};
pub use rng::SplitMix64;
pub use table::render_table;

// ---------------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is observability collection on? One relaxed atomic load — the whole
/// cost of an instrumentation point in the disabled configuration. Hot
/// loops may hoist this into a local.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process epoch for trace timestamps (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

/// Aggregate statistics of one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

#[derive(Default)]
struct Agg {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
    hists: BTreeMap<String, Hist>,
}

fn agg() -> &'static Mutex<Agg> {
    static AGG: OnceLock<Mutex<Agg>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(Agg::default()))
}

fn with_agg<R>(f: impl FnOnce(&mut Agg) -> R) -> R {
    f(&mut agg().lock().unwrap_or_else(PoisonError::into_inner))
}

/// Clear all aggregated statistics (the trace sink is left attached).
pub fn reset() {
    with_agg(|a| {
        a.counters.clear();
        a.spans.clear();
        a.hists.clear();
    });
}

/// Add `n` to counter `name`. No-op (one relaxed load) when disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    counter_add_always(name, n);
}

fn counter_add_always(name: &str, n: u64) {
    with_agg(|a| match a.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            a.counters.insert(name.to_string(), n);
        }
    });
}

/// Record `v` into histogram `name`. No-op when disabled.
#[inline]
pub fn record(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    record_always(name, v);
}

fn record_always(name: &str, v: u64) {
    with_agg(|a| a.hists.entry(name.to_string()).or_default().record(v));
}

// ---------------------------------------------------------------------------
// Vitals — always-on probes
// ---------------------------------------------------------------------------

/// Add `n` to counter `name` **regardless of [`enabled`]** — the vitals
/// path. The server's liveness counters (requests served, frames shed,
/// leases expired) must be reportable from a production daemon that never
/// turned profiling on; routing them through the same aggregator as the
/// profiled counters means `gomsh stats`, the `Metrics` verb, and JSONL
/// traces all read one source of truth instead of a parallel atomics
/// struct. Keep vitals to rare events (per-request at most): each call
/// takes the aggregator lock.
#[inline]
pub fn vital_add(name: &str, n: u64) {
    counter_add_always(name, n);
}

/// Record `v` into histogram `name` regardless of [`enabled`] — the
/// histogram counterpart of [`vital_add`], used for the server's per-verb
/// latency vitals. Callers on a hot path should pass a pre-interned
/// `&'static str` name so no per-call formatting happens.
#[inline]
pub fn vital_record(name: &str, v: u64) {
    record_always(name, v);
}

/// Credit an externally measured duration to span `name` (aggregation
/// only; no trace line, no nesting). Used where the span boundary does not
/// map to a scope, e.g. per-constraint timing inside a parallel scan.
#[inline]
pub fn record_span_dur(name: &str, dur: Duration) {
    if !enabled() {
        return;
    }
    let ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
    with_agg(|a| {
        let s = a.spans.entry(name.to_string()).or_default();
        s.count += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Stable small integer id for the current thread (assigned on first use;
/// `ThreadId` itself has no stable integer form on stable Rust).
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD_ID.with(|c| {
        let mut id = c.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

struct ActiveSpan {
    name: String,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_us: u64,
    thread: u64,
}

/// RAII span guard: measures from construction to drop. Inert (no clock
/// read) when collection was disabled at construction.
pub struct SpanGuard(Option<ActiveSpan>);

/// Open a span. When collection is off this costs one relaxed load and
/// returns an inert guard.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_always(name.to_string())
}

/// Open a span with a dynamic label appended as `name:label` — the
/// aggregation key and trace name both carry the label (per-stratum,
/// per-constraint, per-rule breakdowns).
#[inline]
pub fn span_labeled(name: &str, label: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_always(format!("{name}:{label}"))
}

fn span_always(name: String) -> SpanGuard {
    let id = SPAN_SEQ.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    SpanGuard(Some(ActiveSpan {
        name,
        id,
        parent,
        start,
        start_us,
        thread: thread_ordinal(),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(sp) = self.0.take() else {
            return;
        };
        let dur = sp.start.elapsed();
        let ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            if st.last() == Some(&sp.id) {
                st.pop();
            } else {
                // Out-of-order drop (guards held across scopes): remove
                // wherever it is, keeping the stack usable.
                st.retain(|&x| x != sp.id);
            }
        });
        with_agg(|a| {
            let s = a.spans.entry(sp.name.clone()).or_default();
            s.count += 1;
            s.total_ns += ns;
            s.max_ns = s.max_ns.max(ns);
        });
        trace_span_line(&sp, ns);
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A field value of an [`event`].
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// String value.
    Str(&'a str),
    /// Unsigned value.
    U64(u64),
    /// Boolean value.
    Bool(bool),
}

/// Emit a point-in-time event: counted in the aggregator (counter
/// `event.<name>`) and written to the trace when one is attached.
pub fn event(name: &str, fields: &[(&str, Field)]) {
    if !enabled() {
        return;
    }
    counter_add_always(&format!("event.{name}"), 1);
    let mut line = String::with_capacity(96);
    line.push_str("{\"ev\":\"event\",\"name\":");
    push_json_str(&mut line, name);
    line.push_str(&format!(
        ",\"t_us\":{},\"thread\":{}",
        Instant::now().duration_since(epoch()).as_micros(),
        thread_ordinal()
    ));
    for (k, v) in fields {
        line.push(',');
        push_json_str(&mut line, k);
        line.push(':');
        match v {
            Field::Str(s) => push_json_str(&mut line, s),
            Field::U64(n) => line.push_str(&n.to_string()),
            Field::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push('}');
    trace_write_line(&line);
}

// ---------------------------------------------------------------------------
// Trace sink (JSONL)
// ---------------------------------------------------------------------------

fn trace() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static TRACE: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    TRACE.get_or_init(|| Mutex::new(None))
}

/// Attach a JSONL trace sink writing to `path` (truncates). Implies
/// nothing about [`enabled`] — callers usually also call
/// `set_enabled(true)`.
pub fn set_trace_path(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    set_trace_writer(Box::new(std::io::BufWriter::new(f)));
    Ok(())
}

/// Attach an arbitrary trace sink (tests use in-memory buffers).
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    let mut t = trace().lock().unwrap_or_else(PoisonError::into_inner);
    *t = Some(w);
    drop(t);
    let mut head = String::from("{\"ev\":\"trace_start\",\"schema\":\"gom-obs/trace/v1\"}");
    head.push('\n');
    trace_write_raw(&head);
}

/// Detach the trace sink (flushing it first).
pub fn clear_trace() {
    flush_trace();
    let mut t = trace().lock().unwrap_or_else(PoisonError::into_inner);
    *t = None;
}

/// Is a trace sink attached?
pub fn trace_attached() -> bool {
    trace()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some()
}

fn trace_write_line(line: &str) {
    let mut s = String::with_capacity(line.len() + 1);
    s.push_str(line);
    s.push('\n');
    trace_write_raw(&s);
}

fn trace_write_raw(s: &str) {
    let mut t = trace().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(w) = t.as_mut() {
        // A failing trace sink must never take the engine down; drop the
        // line and keep going.
        let _ = w.write_all(s.as_bytes());
    }
}

fn trace_span_line(sp: &ActiveSpan, dur_ns: u64) {
    if !trace_attached() {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str("{\"ev\":\"span\",\"name\":");
    push_json_str(&mut line, &sp.name);
    line.push_str(&format!(",\"id\":{}", sp.id));
    match sp.parent {
        Some(p) => line.push_str(&format!(",\"parent\":{p}")),
        None => line.push_str(",\"parent\":null"),
    }
    line.push_str(&format!(
        ",\"thread\":{},\"start_us\":{},\"dur_ns\":{}}}",
        sp.thread, sp.start_us, dur_ns
    ));
    trace_write_line(&line);
}

/// Write an aggregator snapshot (`counters` + `hists` lines) to the trace
/// and flush the sink. Called at session boundaries and on shell exit so
/// offline traces always end with totals.
pub fn flush_trace() {
    let mut t = trace().lock().unwrap_or_else(PoisonError::into_inner);
    let Some(w) = t.as_mut() else {
        return;
    };
    let snap = snapshot();
    let mut line = String::from("{\"ev\":\"counters\",\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, k);
        line.push_str(&format!(":{v}"));
    }
    line.push_str("}}\n");
    let _ = w.write_all(line.as_bytes());
    let mut line = String::from("{\"ev\":\"spans\",\"spans\":{");
    for (i, (k, s)) in snap.spans.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, k);
        line.push_str(&format!(
            ":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            s.count, s.total_ns, s.max_ns
        ));
    }
    line.push_str("}}\n");
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time copy of the aggregator, for rendering and diffing.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Span statistics by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
}

impl Snapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The statistics accumulated *since* `earlier` (counters and span
    /// stats subtract; histograms subtract bucket-wise). `earlier` must be
    /// an actual earlier snapshot of the same process.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(k));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, s) in &self.spans {
            let e = earlier.spans.get(k).cloned().unwrap_or_default();
            let count = s.count.saturating_sub(e.count);
            if count > 0 {
                out.spans.insert(
                    k.clone(),
                    SpanStat {
                        count,
                        total_ns: s.total_ns.saturating_sub(e.total_ns),
                        // max over the window is not recoverable from two
                        // cumulative snapshots; keep the cumulative max.
                        max_ns: s.max_ns,
                    },
                );
            }
        }
        for (k, h) in &self.hists {
            match earlier.hists.get(k) {
                Some(e) => {
                    let d = h.since(e);
                    if d.count() > 0 {
                        out.hists.insert(k.clone(), d);
                    }
                }
                None => {
                    if h.count() > 0 {
                        out.hists.insert(k.clone(), h.clone());
                    }
                }
            }
        }
        out
    }
}

/// Copy the aggregator.
pub fn snapshot() -> Snapshot {
    with_agg(|a| Snapshot {
        counters: a.counters.clone(),
        spans: a.spans.clone(),
        hists: a.hists.clone(),
    })
}

/// Render a snapshot as one hand-rolled JSON object (schema
/// `gom-obs/stats/v1`): counters as a flat map, span stats, and histograms
/// with derived percentiles plus the sparse bucket export — enough to
/// reconstruct and [`Hist::merge`] histograms across processes. Single
/// line, serde-free, same style as the JSONL trace sink.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"schema\":\"gom-obs/stats/v1\",\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push_str(&format!(":{v}"));
    }
    out.push_str("},\"spans\":{");
    for (i, (k, s)) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            s.count, s.total_ns, s.max_ns
        ));
    }
    out.push_str("},\"hists\":{");
    for (i, (k, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push_str(&format!(
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.mean(),
            h.p50(),
            h.p95(),
            h.p99(),
        ));
        for (j, (b, c)) in h.sparse_buckets().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{b},{c}]"));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_fast_path_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        counter_add("t.counter", 7);
        record("t.hist", 42);
        record_span_dur("t.span", Duration::from_millis(5));
        {
            let _sp = span("t.scope");
        }
        event("t.event", &[("k", Field::U64(1))]);
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.spans.is_empty(), "{:?}", snap.spans);
        assert!(snap.hists.is_empty(), "{:?}", snap.hists);
    }

    #[test]
    fn enabled_counters_spans_hists_aggregate() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("t.counter", 7);
        counter_add("t.counter", 3);
        record("t.hist", 8);
        {
            let _sp = span("t.scope");
        }
        record_span_dur("t.labeled", Duration::from_micros(10));
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("t.counter"), 10);
        assert_eq!(snap.hists["t.hist"].count(), 1);
        assert_eq!(snap.spans["t.scope"].count, 1);
        assert_eq!(snap.spans["t.labeled"].total_ns, 10_000);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("t.c", 5);
        record("t.h", 100);
        let s0 = snapshot();
        counter_add("t.c", 2);
        counter_add("t.new", 1);
        record("t.h", 100);
        let s1 = snapshot();
        set_enabled(false);
        let d = s1.since(&s0);
        assert_eq!(d.counter("t.c"), 2);
        assert_eq!(d.counter("t.new"), 1);
        assert_eq!(d.hists["t.h"].count(), 1);
        assert!(!d.counters.contains_key("t.unchanged"));
    }

    #[test]
    fn vitals_bypass_the_enabled_switch() {
        let _g = lock();
        set_enabled(false);
        reset();
        // Regular probes no-op while disabled…
        counter_add("t.off", 1);
        record("t.off.h", 9);
        // …but vitals always land.
        vital_add("t.vital", 2);
        vital_add("t.vital", 3);
        vital_record("t.vital.h", 40);
        let snap = snapshot();
        assert_eq!(snap.counter("t.off"), 0);
        assert!(!snap.hists.contains_key("t.off.h"));
        assert_eq!(snap.counter("t.vital"), 5);
        assert_eq!(snap.hists["t.vital.h"].count(), 1);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_complete() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("t.\"quoted\"", 3);
        record("t.lat", 100);
        record("t.lat", 100);
        record("t.lat", 5000);
        record_span_dur("t.sp", Duration::from_micros(7));
        let snap = snapshot();
        set_enabled(false);
        let json = snapshot_json(&snap);
        assert!(
            json.starts_with("{\"schema\":\"gom-obs/stats/v1\""),
            "{json}"
        );
        assert!(json.contains("\"t.\\\"quoted\\\"\":3"), "{json}");
        assert!(
            json.contains("\"t.sp\":{\"count\":1,\"total_ns\":7000"),
            "{json}"
        );
        // Histogram block carries percentiles and the sparse buckets.
        let h = &snap.hists["t.lat"];
        assert!(
            json.contains(&format!(
                "\"p50\":{},\"p95\":{},\"p99\":{}",
                h.p50(),
                h.p95(),
                h.p99()
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!("[{},2]", bucket_index(100))),
            "{json}"
        );
        // One line, balanced braces/brackets, no raw control chars.
        assert!(!json.contains('\n'));
        let bal = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(bal('{', '}') && bal('[', ']'), "{json}");
    }

    #[test]
    fn span_nesting_tracks_parents() {
        let _g = lock();
        set_enabled(true);
        reset();
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        set_trace_writer(Box::new(Shared(buf.clone())));
        {
            let _outer = span("t.outer");
            let _inner = span("t.inner");
        }
        clear_trace();
        set_enabled(false);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // Inner drops first and must reference the outer span as parent.
        let inner = text
            .lines()
            .find(|l| l.contains("\"t.inner\""))
            .expect("inner span line");
        let outer = text
            .lines()
            .find(|l| l.contains("\"t.outer\""))
            .expect("outer span line");
        assert!(outer.contains("\"parent\":null"), "{outer}");
        let outer_id: u64 = outer
            .split("\"id\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("outer id");
        assert!(
            inner.contains(&format!("\"parent\":{outer_id}")),
            "{inner} vs outer id {outer_id}"
        );
    }
}
