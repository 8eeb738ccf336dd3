//! Metric names, units and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics printed by `--trace 0`, as (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("ees_p50_us", "us"),
    ("query_p50_us", "us"),
    ("check_p50_us", "us"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Client-side tails and the failure share: measured in every run and
/// printed with the per-layer metrics of the load generator, ungated,
/// because on a shared machine their run-to-run spread exceeds any bound
/// a regression gate could use.
pub const CLIENT: [(&str, &str); 6] = [
    ("client.session_p99_ms", "ms"),
    ("client.op_p99_us", "us"),
    ("client.ees_p99_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.check_p99_us", "us"),
    ("client.failed_share", "ratio"),
];

/// Per-layer metrics printed by `--trace 1`, as (name, unit).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("wire.codec_ns", "ns"),
    ("wire.reply_bytes", "bytes"),
    ("session.lock_wait_ns_p50", "ns"),
    ("session.lock_wait_ns_p99", "ns"),
    ("session.busy_retries", "count"),
    ("analyzer.lower_ns_p50", "ns"),
    ("analyzer.lower_ns_p99", "ns"),
    ("analyzer.lower_calls", "count"),
    ("evolution.add_attr_ns", "ns"),
    ("evolution.del_attr_ns", "ns"),
    ("evolution.del_type_ns", "ns"),
    ("dred.probes_per_session", "count"),
    ("dred.rederived_per_session", "count"),
    ("core.bes_ns", "ns"),
    ("core.ees_ns", "ns"),
    ("core.maintained_hit_ratio", "ratio"),
    ("core.recover_ns", "ns"),
    ("journal.fsyncs_per_commit", "count"),
    ("journal.bytes_per_commit", "bytes"),
    ("snapshot.publish_ns", "ns"),
    ("snapshot.refresh_ns", "ns"),
    ("snapshot.cold_read_share", "ratio"),
    ("snapshot.digest_ns", "ns"),
    ("deductive.query_ns_warm", "ns"),
    ("deductive.check_ns_warm", "ns"),
    ("deductive.read_ns_cold", "ns"),
    ("eval.tuples_derived_per_read", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    CLIENT[0],
    CLIENT[1],
    CLIENT[2],
    CLIENT[3],
    CLIENT[4],
    CLIENT[5],
];

/// Metric values by name.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with every metric of `spec`, in `spec` order. Errors name a metric that
/// is missing or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&'static str, &'static str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in spec.iter().enumerate() {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest decimal that reads back as the same
        // f64, so no measured digit is lost.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = json.matches("\"unit\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics declared"
        );
        for w in crate::workload::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.0 + i as f64 / 3.0);
        }
        let line = result_line(true, 10, 0, &END_TO_END, &m).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        assert!(line.contains("\"reads_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}"));
        // All digits of a measured value survive.
        assert!(line.contains("1.3333333333333333"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());

        m.set("peak_rss_mb", f64::NAN);
        assert!(result_line(true, 1, 0, &END_TO_END, &m).is_err());
        assert!(result_line(true, 1, 0, &END_TO_END, &Metrics::default()).is_err());
    }
}
