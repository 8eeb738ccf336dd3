//! Per-layer metrics from the traced replay's spans and gom-obs counters.

use crate::mirror::MirrorOut;
use crate::report::Metrics;
use crate::spans::Span;
use crate::stats::Samples;
use std::collections::BTreeMap;

/// Durations of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Samples {
    let mut s = Samples::default();
    for span in spans.iter().filter(|s| s.name == name) {
        s.push(span.dur());
    }
    s
}

fn median(s: &Samples) -> f64 {
    s.summary().map_or(0.0, |x| x.p50 as f64)
}

/// Tail by the ≥10-beyond rule, or the maximum with fewer samples.
fn tail(s: &Samples) -> f64 {
    s.summary().map_or(0.0, |x| x.tail.unwrap_or(x.max) as f64)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Fill the per-layer metrics from `traced` (the traced replay), the wall
/// time of the same replay untraced, the socket run's busy retries and the
/// load generator's lateness samples.
pub fn metrics(
    traced: &MirrorOut,
    untraced_secs: f64,
    busy_retries: u64,
    lag: &Samples,
) -> Metrics {
    let spans = &traced.spans;
    let mut m = Metrics::default();
    let counter = |name: &str| traced.counters.as_ref().map_or(0, |c| c.counter(name));

    // server::wire — codec time summed per request.
    let mut per_req: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("wire.")) {
        *per_req.entry(s.req).or_default() += s.dur();
    }
    let mut codec = Samples::default();
    for v in per_req.values() {
        codec.push(*v);
    }
    m.set("wire.codec_ns", median(&codec));
    m.set(
        "wire.reply_bytes",
        per(traced.reply_bytes.sum(), traced.reply_bytes.len() as u64),
    );

    // server::session
    let wait = durations(spans, "session.lock_wait");
    m.set("session.lock_wait_ns_p50", median(&wait));
    m.set("session.lock_wait_ns_p99", tail(&wait));
    m.set("session.busy_retries", (busy_retries + traced.busy) as f64);

    // analyzer
    let lower = durations(spans, "analyzer.lower");
    m.set("analyzer.lower_ns_p50", median(&lower));
    m.set("analyzer.lower_ns_p99", tail(&lower));
    m.set("analyzer.lower_calls", lower.len() as f64);

    // evolution / model, with DRed work per committed session.
    for (name, span) in [
        ("evolution.add_attr_ns", "evolution.add_attr"),
        ("evolution.del_attr_ns", "evolution.del_attr"),
        ("evolution.del_type_ns", "evolution.del_type"),
    ] {
        m.set(name, median(&durations(spans, span)));
    }
    let commits = durations(spans, "core.ees").len() as u64;
    m.set(
        "dred.probes_per_session",
        per(counter("dred.probes"), commits),
    );
    m.set(
        "dred.rederived_per_session",
        per(counter("dred.rederived"), commits),
    );

    // core
    m.set("core.bes_ns", median(&durations(spans, "core.bes")));
    m.set("core.ees_ns", median(&durations(spans, "core.ees")));
    m.set(
        "core.maintained_hit_ratio",
        1.0 - per(counter("check.maintenance.fallbacks"), commits),
    );
    m.set("core.recover_ns", median(&durations(spans, "core.recover")));

    // store
    m.set(
        "journal.fsyncs_per_commit",
        per(counter("journal.fsyncs"), commits),
    );
    m.set(
        "journal.bytes_per_commit",
        per(counter("journal.bytes"), commits),
    );

    // server::snapshot
    let refresh = durations(spans, "snapshot.refresh");
    m.set(
        "snapshot.publish_ns",
        median(&durations(spans, "snapshot.publish")),
    );
    m.set("snapshot.refresh_ns", median(&refresh));
    m.set(
        "snapshot.cold_read_share",
        per(refresh.len() as u64, traced.read_counts.reads),
    );
    m.set(
        "snapshot.digest_ns",
        median(&durations(spans, "snapshot.digest.cold")),
    );

    // deductive
    m.set(
        "deductive.query_ns_warm",
        median(&durations(spans, "deductive.query.warm")),
    );
    m.set(
        "deductive.check_ns_warm",
        median(&durations(spans, "deductive.check.warm")),
    );
    let mut cold = durations(spans, "deductive.query.cold");
    cold.extend(&durations(spans, "deductive.check.cold"));
    m.set("deductive.read_ns_cold", median(&cold));
    m.set(
        "eval.tuples_derived_per_read",
        per(traced.read_counts.tuples_derived, traced.read_counts.reads),
    );

    // load generator and tracer
    m.set("loadgen.lag_p99_ms", tail(lag) / 1e6);
    let traced_secs = traced.elapsed.as_secs_f64();
    m.set(
        "trace.overhead_pct",
        (traced_secs / untraced_secs - 1.0) * 100.0,
    );
    m.set("trace.spans", spans.len() as f64);
    m
}
