//! Multi-client SLO load harness for gomd.
//!
//! Replays a deterministic, seeded evolution trace (`gom-trace`, Piccioni
//! op mix) against a live daemon from K concurrent writer clients while R
//! reader clients hammer the published snapshot, and reports client-side
//! per-verb latency percentiles plus contention counters as one
//! `gom-bench/slo/v1` JSON record:
//!
//! ```text
//! cargo run --release -p gom-bench --bin bench_slo -- \
//!     --seed 7 --sessions 200 --writers 4 --readers 8 --out BENCH_slo.json
//! cargo run --release -p gom-bench --bin bench_slo -- --socket /tmp/gomd.sock
//! ```
//!
//! Without `--socket` the harness hosts an in-memory gomd in-process and
//! shuts it down at the end; with it, it drives an external daemon.
//!
//! Determinism: each writer replays its own seeded sub-trace (disjoint
//! name ranges via `TraceConfig::name_offset`, so sessions commute under
//! any commit interleaving), which makes the *op sequence* byte-stable
//! for a given `(seed, sessions, writers)` — the report embeds the
//! trace's CRC-32 so two runs can prove they measured the same workload.
//! Latencies, of course, are the machine's.
//!
//! Latency rows use the gom-obs power-of-two histograms, so percentiles
//! are bucket lower bounds (within 2x of the true value); comparisons in
//! `scripts/bench.sh --compare` use a lenient 1.5x gate accordingly.

use gom_obs::Hist;
use gom_server::{serve, Client, Config, EvolutionOp, Reply, Request, RetryPolicy, RetryStats};
use gom_trace::{generate, ReadOp, TraceConfig, TraceOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client-observed verbs, in report order.
const VERBS: [&str; 6] = ["bes", "op", "ees", "query", "check", "digest"];
const BES: usize = 0;
const OP: usize = 1;
const EES: usize = 2;
const QUERY: usize = 3;
const CHECK: usize = 4;
const DIGEST: usize = 5;

/// Per-thread measurement state: one histogram per verb (nanoseconds,
/// wall-clock around the retry loop — the latency a client *experiences*,
/// backoff included), merged across threads at the end.
#[derive(Default)]
struct Meter {
    hists: [Hist; 6],
    stats: RetryStats,
    commits: u64,
    violations: u64,
    errors: u64,
}

impl Meter {
    fn rec(&mut self, verb: usize, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hists[verb].record(ns);
    }
}

/// Lower one trace op to the wire vocabulary. Rename and retype have no
/// wire primitive — the paper treats them as delete+add with impact
/// analysis on both halves — so they fan out into two requests.
fn lower(op: &TraceOp) -> Vec<EvolutionOp> {
    match op {
        TraceOp::DefineType { .. } => {
            // gom_source is Some for every DefineType.
            match op.gom_source() {
                Some(src) => vec![EvolutionOp::Define(src)],
                None => vec![],
            }
        }
        TraceOp::AddAttr { ty, name, domain } => vec![EvolutionOp::AddAttr {
            ty: ty.clone(),
            name: name.clone(),
            domain: domain.clone(),
        }],
        TraceOp::DelAttr { ty, name } => vec![EvolutionOp::DelAttr {
            ty: ty.clone(),
            name: name.clone(),
        }],
        TraceOp::DelType { ty } => vec![EvolutionOp::DelType {
            ty: ty.clone(),
            semantics: "restrict".to_string(),
        }],
        TraceOp::RenameAttr {
            ty,
            from,
            to,
            domain,
        } => vec![
            EvolutionOp::DelAttr {
                ty: ty.clone(),
                name: from.clone(),
            },
            EvolutionOp::AddAttr {
                ty: ty.clone(),
                name: to.clone(),
                domain: domain.clone(),
            },
        ],
        TraceOp::RetypeAttr {
            ty,
            name,
            to_domain,
            ..
        } => vec![
            EvolutionOp::DelAttr {
                ty: ty.clone(),
                name: name.clone(),
            },
            EvolutionOp::AddAttr {
                ty: ty.clone(),
                name: name.clone(),
                domain: to_domain.clone(),
            },
        ],
    }
}

/// Replay one writer's sub-trace: BES, the session's ops, tokened EES,
/// with typed-error retry throughout.
fn run_writer(
    socket: &std::path::Path,
    trace: &gom_trace::Trace,
    writer: u64,
    seed: u64,
) -> std::io::Result<Meter> {
    let mut m = Meter::default();
    let mut client = Client::connect_within(socket, Duration::from_secs(10))?;
    client.set_io_timeout(Some(Duration::from_secs(30)))?;
    let policy = RetryPolicy {
        attempts: 12,
        seed: seed ^ (writer << 8),
        ..RetryPolicy::default()
    };
    for (si, session) in trace.sessions.iter().enumerate() {
        let t0 = Instant::now();
        let reply = client.request_retry_stats(&Request::Bes, &policy, &mut m.stats)?;
        m.rec(BES, t0);
        if !matches!(reply, Reply::Ok(_)) {
            m.errors += 1;
            continue;
        }
        let mut healthy = true;
        'ops: for op in &session.ops {
            for wire_op in lower(op) {
                let t0 = Instant::now();
                let reply =
                    client.request_retry_stats(&Request::Op(wire_op), &policy, &mut m.stats)?;
                m.rec(OP, t0);
                match reply {
                    Reply::Ok(_) | Reply::Committed { .. } => {}
                    _ => {
                        m.errors += 1;
                        healthy = false;
                        break 'ops;
                    }
                }
            }
        }
        if !healthy {
            let _ = client.request(&Request::Rollback);
            continue;
        }
        // Unique idempotency token per (writer, session): a retried EES
        // whose ack was lost is answered from the server's token cache.
        let token = (writer << 32) | (si as u64 + 1);
        let t0 = Instant::now();
        let reply = client.request_retry_stats(
            &Request::Ees { token: Some(token) },
            &policy,
            &mut m.stats,
        )?;
        m.rec(EES, t0);
        match reply {
            Reply::Committed { .. } => m.commits += 1,
            Reply::Violations(_) => {
                m.violations += 1;
                let _ = client.request(&Request::Rollback);
            }
            _ => {
                m.errors += 1;
                let _ = client.request(&Request::Rollback);
            }
        }
    }
    Ok(m)
}

/// Cycle read ops against the published snapshot until the writers stop.
fn run_reader(
    socket: &std::path::Path,
    reads: &[ReadOp],
    reader: usize,
    stop: &AtomicBool,
) -> std::io::Result<Meter> {
    let mut m = Meter::default();
    let mut client = Client::connect_within(socket, Duration::from_secs(10))?;
    client.set_io_timeout(Some(Duration::from_secs(30)))?;
    let policy = RetryPolicy::default();
    let mut i = reader.wrapping_mul(7) % reads.len().max(1);
    while !stop.load(Ordering::Relaxed) {
        let (req, verb) = match reads.get(i % reads.len().max(1)) {
            Some(ReadOp::Query(q)) => (Request::Query(q.clone()), QUERY),
            Some(ReadOp::Check) => (Request::Check, CHECK),
            Some(ReadOp::Digest) | None => (Request::Digest, DIGEST),
        };
        i += 1;
        let t0 = Instant::now();
        let reply = client.request_retry_stats(&req, &policy, &mut m.stats)?;
        m.rec(verb, t0);
        match reply {
            Reply::Ok(_) | Reply::Rows { .. } | Reply::Violations(_) => {}
            _ => m.errors += 1,
        }
    }
    Ok(m)
}

/// Pull `"key":<number>` out of a flat JSON string (the `gomd/metrics/v1`
/// payload) without a JSON parser — keys are known literals.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.find(&needle)
        .map(|at| {
            json[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 7;
    let mut sessions: usize = 200;
    let mut writers: usize = 4;
    let mut readers: usize = 8;
    let mut socket_arg: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let val = |j: usize| -> String {
            args.get(j).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[j - 1]);
                std::process::exit(2)
            })
        };
        match args[i].as_str() {
            "--seed" => seed = val(i + 1).parse().expect("--seed N"),
            "--sessions" => sessions = val(i + 1).parse().expect("--sessions N"),
            "--writers" => writers = val(i + 1).parse().expect("--writers K"),
            "--readers" => readers = val(i + 1).parse().expect("--readers K"),
            "--socket" => socket_arg = Some(val(i + 1)),
            "--out" => out_path = Some(val(i + 1)),
            other => {
                eprintln!("unknown arg {other}; see the module docs");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let writers = writers.max(1);

    // One seeded sub-trace per writer, disjoint name ranges. The whole
    // workload is identified by the CRC over the concatenated renders.
    let traces: Vec<gom_trace::Trace> = (0..writers)
        .map(|w| {
            let share = sessions / writers + usize::from(w < sessions % writers);
            generate(&TraceConfig {
                seed: seed.wrapping_add(w as u64),
                sessions: share,
                name_offset: w as u64 * 1_000_000,
                ..TraceConfig::default()
            })
        })
        .collect();
    let trace_crc = {
        let all: String = traces.iter().map(|t| t.render()).collect();
        gomflex::store::crc32(all.as_bytes())
    };
    let total_ops: usize = traces.iter().map(|t| t.op_count()).sum();
    let reads: Vec<ReadOp> = traces
        .iter()
        .flat_map(|t| t.sessions.iter())
        .flat_map(|s| s.reads.iter().cloned())
        .collect();

    // Host an in-memory daemon unless pointed at a live socket.
    let tmp_dir = std::env::temp_dir().join(format!("gom-slo-{}", std::process::id()));
    let (socket, handle) = match &socket_arg {
        Some(s) => (std::path::PathBuf::from(s), None),
        None => {
            std::fs::create_dir_all(&tmp_dir).expect("create temp dir");
            let sock = tmp_dir.join("gomd.sock");
            let config = Config {
                max_connections: writers + readers + 4,
                ..Config::in_memory(&sock)
            };
            let handle = serve(config).expect("start in-process gomd");
            (sock, Some(handle))
        }
    };

    eprintln!(
        "slo: {sessions} sessions ({total_ops} ops, crc {trace_crc:08x}) \
         across {writers} writer(s) + {readers} reader(s) on {}",
        socket.display()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let bench_start = Instant::now();
    let meters: Vec<Meter> = std::thread::scope(|scope| {
        let mut whandles = Vec::new();
        for (w, trace) in traces.iter().enumerate() {
            let socket = socket.clone();
            whandles.push(scope.spawn(move || run_writer(&socket, trace, w as u64, seed)));
        }
        let mut rhandles = Vec::new();
        for r in 0..readers {
            let socket = socket.clone();
            let reads = &reads;
            let stop = Arc::clone(&stop);
            rhandles.push(scope.spawn(move || run_reader(&socket, reads, r, &stop)));
        }
        let mut out: Vec<Meter> = Vec::new();
        for h in whandles {
            match h.join() {
                Ok(Ok(m)) => out.push(m),
                Ok(Err(e)) => {
                    eprintln!("writer failed: {e}");
                    std::process::exit(1);
                }
                Err(_) => {
                    eprintln!("writer panicked");
                    std::process::exit(1);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in rhandles {
            match h.join() {
                Ok(Ok(m)) => out.push(m),
                Ok(Err(e)) => {
                    eprintln!("reader failed: {e}");
                    std::process::exit(1);
                }
                Err(_) => {
                    eprintln!("reader panicked");
                    std::process::exit(1);
                }
            }
        }
        out
    });
    let elapsed = bench_start.elapsed();

    // Server-side view, for the shed/lease columns the clients can't see
    // directly (a shed connection is closed before its request is read).
    let server_metrics = Client::connect_within(&socket, Duration::from_secs(5))
        .and_then(|mut c| c.request(&Request::Metrics))
        .ok()
        .and_then(|r| match r {
            Reply::Ok(json) => Some(json),
            _ => None,
        })
        .unwrap_or_default();
    if let Some(handle) = handle {
        if let Ok(mut c) = Client::connect_within(&socket, Duration::from_secs(5)) {
            let _ = c.request(&Request::Shutdown);
        }
        handle.join();
        let _ = std::fs::remove_dir_all(&tmp_dir);
    }

    // Merge the per-thread meters.
    let mut hists: [Hist; 6] = Default::default();
    let mut stats = RetryStats::default();
    let (mut commits, mut violations, mut errors) = (0u64, 0u64, 0u64);
    for m in &meters {
        for (i, h) in m.hists.iter().enumerate() {
            hists[i].merge(h);
        }
        stats.busy_retries += m.stats.busy_retries;
        stats.overloaded_retries += m.stats.overloaded_retries;
        stats.lease_expired += m.stats.lease_expired;
        commits += m.commits;
        violations += m.violations;
        errors += m.errors;
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let elapsed_ms = elapsed.as_millis() as u64;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"gom-bench/slo/v1\",\n");
    json.push_str(&format!("  \"unix_secs\": {unix_secs},\n"));
    json.push_str(&format!(
        "  \"seed\": {seed}, \"sessions\": {sessions}, \"writers\": {writers}, \
         \"readers\": {readers},\n"
    ));
    json.push_str(&format!(
        "  \"trace_crc32\": {trace_crc}, \"total_ops\": {total_ops}, \
         \"elapsed_ms\": {elapsed_ms},\n"
    ));
    json.push_str(&format!(
        "  \"commits\": {commits}, \"violations\": {violations}, \"errors\": {errors},\n"
    ));
    json.push_str(&format!(
        "  \"busy_retries\": {}, \"overloaded_retries\": {}, \"lease_expired\": {},\n",
        stats.busy_retries, stats.overloaded_retries, stats.lease_expired
    ));
    json.push_str(&format!(
        "  \"server_shed\": {}, \"server_lease_expired\": {}, \"server_requests\": {},\n",
        json_u64(&server_metrics, "server.shed"),
        json_u64(&server_metrics, "server.lease.expired"),
        json_u64(&server_metrics, "server.requests"),
    ));
    json.push_str("  \"rows\": [\n");
    let live: Vec<usize> = (0..VERBS.len()).filter(|&i| hists[i].count() > 0).collect();
    for (k, &i) in live.iter().enumerate() {
        let h = &hists[i];
        let thr = h.count() as f64 / (elapsed_ms.max(1) as f64 / 1e3);
        json.push_str(&format!(
            "    {{\"verb\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}, \"max_us\": {}, \"throughput_per_s\": {:.1}}}{}\n",
            VERBS[i],
            h.count(),
            h.p50() / 1_000,
            h.p95() / 1_000,
            h.p99() / 1_000,
            h.max() / 1_000,
            thr,
            if k + 1 < live.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    for &i in &live {
        let h = &hists[i];
        eprintln!(
            "{:<8} {:>8} reqs   p50 {:>9} us   p95 {:>9} us   p99 {:>9} us   max {:>9} us",
            VERBS[i],
            h.count(),
            h.p50() / 1_000,
            h.p95() / 1_000,
            h.p99() / 1_000,
            h.max() / 1_000,
        );
    }
    eprintln!(
        "commits {commits}  violations {violations}  errors {errors}  \
         busy {busy}  shed {shed}  lease {lease}  in {elapsed_ms} ms",
        busy = stats.busy_retries,
        shed = stats.overloaded_retries,
        lease = stats.lease_expired,
    );

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write report");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
