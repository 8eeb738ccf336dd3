//! The measured run: writer and reader clients driving gomd over its
//! Unix socket, every request timed on the client.
//!
//! Writers replay their trace session by session (BES, the ops, tokened
//! EES), in a closed loop or on a fixed schedule. A reader cycles the trace's reads, beside the writer or in a
//! probe phase after the writers stop. `Busy` and `Overloaded` replies are
//! retried by the client with backoff: a retry is neither an attempt nor a
//! failure, but its backoff counts toward the request's latency.

use crate::schedule::Schedule;
use crate::stats::{nanos, Samples};
use crate::workload::{read_request, session_ops, Workload};
use gom_server::{Client, Reply, Request, RetryPolicy, RetryStats};
use gom_trace::{ReadOp, Trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client I/O timeout: far above any request, so only a hung daemon
/// trips it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One committed session.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// Epoch the `Committed` reply reported.
    pub epoch: u64,
    /// Writer (trace) index.
    pub writer: usize,
    /// Session index within the writer's trace.
    pub session: usize,
}

/// Client-side measurements of one writer.
#[derive(Default)]
pub struct WriterOut {
    /// Committed sessions in commit order.
    pub commits: Vec<Commit>,
    /// Per evolution primitive request.
    pub op: Samples,
    /// Per EES request.
    pub ees: Samples,
    /// Per session: BES sent (or due) to `Committed` received.
    pub session: Samples,
    /// Generator lateness per session: start minus due time in an open
    /// loop, the gap since the previous commit in a closed one.
    pub lag: Samples,
    /// Logical requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Retry accounting.
    pub retries: RetryStats,
    /// First failure, if any.
    pub error: Option<String>,
    /// When the last session committed.
    pub last_commit: Option<Instant>,
}

/// Client-side measurements of one reader.
#[derive(Default)]
pub struct ReaderOut {
    /// Per query request.
    pub query: Samples,
    /// Per check request.
    pub check: Samples,
    /// Reads completed.
    pub reads: u64,
    /// Logical requests sent.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// First failure, if any.
    pub error: Option<String>,
    /// Time the reader ran.
    pub elapsed: Duration,
    /// Rows hash of every query text (probe readers only, where every
    /// read sees the same epoch).
    pub query_rows: BTreeMap<String, u64>,
}

fn connect(socket: &Path) -> std::io::Result<Client> {
    let mut c = Client::connect_within(socket, Duration::from_secs(10))?;
    c.set_io_timeout(Some(IO_TIMEOUT))?;
    Ok(c)
}

/// Replay `sessions` of `trace` as writer `writer`: back to back in a
/// closed loop, or on a schedule of `rate` sessions per second from
/// `start`.
pub fn run_writer(
    socket: &Path,
    trace: &Trace,
    writer: usize,
    seed: u64,
    rate: Option<f64>,
    start: Instant,
    sessions: std::ops::Range<usize>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut client = match connect(socket) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("writer {writer}: connect: {e}"));
            return out;
        }
    };
    let policy = RetryPolicy {
        attempts: 64,
        seed: seed ^ ((writer as u64) << 8),
        ..RetryPolicy::default()
    };
    let schedule = rate.map(|r| Schedule::new(start, r));
    for si in sessions {
        let t_session = match &schedule {
            Some(s) => {
                let due = s.wait_for(si as u64);
                out.lag.push(nanos(Schedule::lateness(due, Instant::now())));
                due
            }
            None => {
                // In a closed loop the generator's lateness is its own gap
                // between a commit and the next BES.
                let now = Instant::now();
                if let Some(prev) = out.last_commit {
                    out.lag.push(nanos(now - prev));
                }
                now
            }
        };
        match session(&mut client, trace, writer, si, &policy, &mut out) {
            Ok(epoch) => {
                out.session.push_since(t_session);
                out.last_commit = Some(Instant::now());
                out.commits.push(Commit {
                    epoch,
                    writer,
                    session: si,
                });
            }
            Err(e) => {
                out.failed += 1;
                out.error = Some(format!("writer {writer} session {si}: {e}"));
                let _ = client.request(&Request::Rollback);
                break;
            }
        }
    }
    out
}

/// One BES … EES session; returns the committed epoch.
fn session(
    client: &mut Client,
    trace: &Trace,
    writer: usize,
    si: usize,
    policy: &RetryPolicy,
    out: &mut WriterOut,
) -> Result<u64, String> {
    out.attempted += 1;
    let reply = client
        .request_retry_stats(&Request::Bes, policy, &mut out.retries)
        .map_err(|e| format!("bes: {e}"))?;
    if !matches!(reply, Reply::Ok(_)) {
        return Err(format!("bes: {reply:?}"));
    }
    for op in session_ops(trace, si) {
        out.attempted += 1;
        let t = Instant::now();
        let reply = client
            .request_retry_stats(&Request::Op(op), policy, &mut out.retries)
            .map_err(|e| format!("op: {e}"))?;
        out.op.push_since(t);
        if !matches!(reply, Reply::Ok(_)) {
            return Err(format!("op: {reply:?}"));
        }
    }
    // A token unique per (writer, session) makes a retried commit safe.
    let token = ((writer as u64) << 32) | (si as u64 + 1);
    out.attempted += 1;
    let t = Instant::now();
    let reply = client
        .request_retry_stats(
            &Request::Ees { token: Some(token) },
            policy,
            &mut out.retries,
        )
        .map_err(|e| format!("ees: {e}"))?;
    out.ees.push_since(t);
    match reply {
        Reply::Committed { epoch, .. } => Ok(epoch),
        other => Err(format!("ees: {other:?}")),
    }
}

/// Cycle `reads` from the start until `stop` is set or, with `limit`,
/// that many reads were sent. With `probe`, the base does not change while
/// the reader runs, so every query text must return the same rows each
/// time.
pub fn run_reader(
    socket: &Path,
    reads: &[ReadOp],
    stop: &AtomicBool,
    limit: Option<u64>,
    probe: bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let start = Instant::now();
    let mut client = match connect(socket) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("reader: connect: {e}"));
            return out;
        }
    };
    let policy = RetryPolicy::default();
    let mut stats = RetryStats::default();
    for read in reads.iter().cycle() {
        if stop.load(Ordering::SeqCst) || limit.is_some_and(|n| out.attempted >= n) {
            break;
        }
        out.attempted += 1;
        let t = Instant::now();
        let reply = match client.request_retry_stats(&read_request(read), &policy, &mut stats) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.error = Some(format!("reader: {e}"));
                break;
            }
        };
        let dt = nanos(t.elapsed());
        let verdict = match (read, &reply) {
            (ReadOp::Query(q), Reply::Rows { names, rows }) if names.len() == 3 => {
                out.query.push(dt);
                if probe {
                    let h = rows_hash(rows);
                    if *out.query_rows.entry(q.clone()).or_insert(h) != h {
                        Err(format!("query {q} changed on a quiet base"))
                    } else {
                        Ok(())
                    }
                } else {
                    Ok(())
                }
            }
            (ReadOp::Check, Reply::Violations(v)) if v.is_empty() => {
                out.check.push(dt);
                Ok(())
            }
            (ReadOp::Digest, Reply::Ok(d)) if d.starts_with("epoch ") => Ok(()),
            (read, reply) => Err(format!("{read:?} answered {}", brief(reply))),
        };
        match verdict {
            Ok(()) => out.reads += 1,
            Err(e) => {
                out.failed += 1;
                out.error.get_or_insert(e);
            }
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Order-independent hash of query rows, for comparing row sets.
pub fn rows_hash(rows: &[Vec<String>]) -> u64 {
    let mut sorted: Vec<String> = rows.iter().map(|r| r.join("\u{1f}")).collect();
    sorted.sort();
    // FNV-1a over the sorted rows.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &sorted {
        for b in row.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn brief(reply: &Reply) -> String {
    let s = format!("{reply:?}");
    s.chars().take(200).collect()
}

/// Rounds of a closed-loop run. Each round runs the writers' next share
/// of sessions, then a read probe, so both the writer and the read
/// metrics pool samples from the whole run rather than from one stretch
/// of it, which a slow spell of a shared machine could cover.
pub const ROUNDS: usize = 12;

/// One round of the run.
pub struct Round {
    /// Per-writer results.
    pub writers: Vec<WriterOut>,
    /// The concurrent reader, or the probe reader after the writers.
    pub reader: ReaderOut,
    /// From the round's start to its last commit.
    pub write_elapsed: Duration,
}

/// Everything the socket run measured.
pub struct SocketRun {
    /// The rounds, in order (one for an open-loop workload).
    pub rounds: Vec<Round>,
    /// Whether the reader ran beside the writers instead of after them.
    pub concurrent: bool,
}

/// Run the workload against the daemon on `socket` for about `seconds`.
/// An open-loop workload is one round with the reader beside the writer.
/// A closed-loop workload runs [`ROUNDS`] rounds; in each, the writers
/// commit their share of sessions, then the probe sends a fixed number of
/// reads, so every run reads the same base states equally often however
/// fast its writers were.
pub fn run(
    socket: &Path,
    w: &Workload,
    traces: &[Trace],
    reads: &[ReadOp],
    seed: u64,
    seconds: f64,
) -> SocketRun {
    let start = Instant::now();
    let rounds = if w.open_loop { 1 } else { ROUNDS };
    let probe_reads = w.probe_reads_per_round(seconds, rounds, reads.len());
    let rate = w.open_loop.then_some(w.pace);
    let per_writer = traces.first().map_or(0, |t| t.sessions.len());
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let sessions = per_writer * r / rounds..per_writer * (r + 1) / rounds;
        let round_start = Instant::now();
        let stop = AtomicBool::new(false);
        let (writers, concurrent) = std::thread::scope(|scope| {
            let stop = &stop;
            let reader = w
                .open_loop
                .then(|| scope.spawn(move || run_reader(socket, reads, stop, None, false)));
            let handles: Vec<_> = traces
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let sessions = sessions.clone();
                    scope.spawn(move || run_writer(socket, t, i, seed, rate, start, sessions))
                })
                .collect();
            let writers: Vec<WriterOut> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| WriterOut {
                        error: Some("writer thread panicked".into()),
                        ..WriterOut::default()
                    })
                })
                .collect();
            stop.store(true, Ordering::SeqCst);
            (writers, reader.map(join_reader))
        });
        let write_elapsed = writers
            .iter()
            .filter_map(|o| o.last_commit)
            .max()
            .map_or(Duration::ZERO, |t| t - round_start);
        let reader = concurrent.unwrap_or_else(|| {
            let stop = AtomicBool::new(false);
            run_reader(socket, reads, &stop, Some(probe_reads), true)
        });
        eprintln!(
            "round {}: {} commits in {:.3} s, {} reads in {:.3} s",
            r + 1,
            writers.iter().map(|o| o.commits.len()).sum::<usize>(),
            write_elapsed.as_secs_f64(),
            reader.reads,
            reader.elapsed.as_secs_f64()
        );
        out.push(Round {
            writers,
            reader,
            write_elapsed,
        });
    }
    SocketRun {
        rounds: out,
        concurrent: w.open_loop,
    }
}

fn join_reader(h: std::thread::ScopedJoinHandle<'_, ReaderOut>) -> ReaderOut {
    h.join().unwrap_or_else(|_| ReaderOut {
        error: Some("reader thread panicked".into()),
        ..ReaderOut::default()
    })
}

impl SocketRun {
    /// Every writer result of every round.
    pub fn writers(&self) -> impl Iterator<Item = &WriterOut> {
        self.rounds.iter().flat_map(|r| r.writers.iter())
    }

    /// Every reader result, one per round.
    pub fn readers(&self) -> impl Iterator<Item = &ReaderOut> {
        self.rounds.iter().map(|r| &r.reader)
    }
}

/// The daemon's final digest reply body.
pub fn final_digest(socket: &Path) -> Result<String, String> {
    let mut c = connect(socket).map_err(|e| format!("digest: {e}"))?;
    match c.request(&Request::Digest) {
        Ok(Reply::Ok(d)) => Ok(d),
        Ok(other) => Err(format!("digest: {}", brief(&other))),
        Err(e) => Err(format!("digest: {e}")),
    }
}
