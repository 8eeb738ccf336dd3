//! Plain-text table rendering of a [`Snapshot`](crate::Snapshot) for the
//! `gomsh stats` command and `ees --timing` reports.

use crate::Snapshot;

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn pad(s: &str, w: usize) -> String {
    if s.len() >= w {
        s.to_string()
    } else {
        format!("{s}{}", " ".repeat(w - s.len()))
    }
}

/// Render a snapshot as an aligned plain-text table: spans first (count,
/// total, mean, max), then counters, then histograms (count, mean, p50,
/// p95, max). Returns an empty string when nothing has been recorded.
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        let w = snap.spans.keys().map(|k| k.len()).max().unwrap_or(4).max(4);
        out.push_str(&format!(
            "{}  {:>8}  {:>10}  {:>10}  {:>10}\n",
            pad("span", w),
            "count",
            "total",
            "mean",
            "max"
        ));
        for (name, s) in &snap.spans {
            let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
            out.push_str(&format!(
                "{}  {:>8}  {:>10}  {:>10}  {:>10}\n",
                pad(name, w),
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(mean),
                fmt_ns(s.max_ns)
            ));
        }
    }
    if !snap.counters.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let w = snap
            .counters
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(7)
            .max(7);
        out.push_str(&format!("{}  {:>12}\n", pad("counter", w), "value"));
        for (name, v) in &snap.counters {
            out.push_str(&format!("{}  {:>12}\n", pad(name, w), v));
        }
    }
    if !snap.hists.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let w = snap.hists.keys().map(|k| k.len()).max().unwrap_or(9).max(9);
        out.push_str(&format!(
            "{}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            pad("histogram", w),
            "count",
            "mean",
            "p50",
            "p95",
            "max"
        ));
        for (name, h) in &snap.hists {
            out.push_str(&format!(
                "{}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                pad(name, w),
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max()
            ));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::SpanStat;

    #[test]
    fn renders_all_sections() {
        let mut snap = Snapshot::default();
        snap.counters.insert("eval.tuples.derived".into(), 42);
        snap.spans.insert(
            "eval.stratum:0".into(),
            SpanStat {
                count: 3,
                total_ns: 3_000_000,
                max_ns: 2_000_000,
            },
        );
        let mut h = crate::Hist::default();
        h.record(1000);
        snap.hists.insert("server.request.ns:query".into(), h);
        let t = render_table(&snap);
        assert!(t.contains("eval.tuples.derived"), "{t}");
        assert!(t.contains("eval.stratum:0"), "{t}");
        assert!(t.contains("server.request.ns:query"), "{t}");
        assert!(t.contains("1.00ms"), "{t}");
        assert!(t.contains("42"), "{t}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_table(&Snapshot::default()), "");
    }
}
