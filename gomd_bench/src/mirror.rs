//! In-process replay of a socket run, mirroring gomd's dispatch.
//!
//! The committed sessions are replayed in the order of the epochs gomd
//! reported, through the same public calls a gomd connection makes: the
//! gom-wire request/reply codec, `SessionLock`, `SchemaManager`'s session
//! protocol, the analyzer and model primitives, `Snapshot::capture` with
//! `SnapshotCell::publish`, `ReaderCache::view`, and `query_text`/`check`.
//! Its final digest must equal the daemon's, which checks both the
//! daemon's output and the faithfulness of the mirror.
//!
//! With several writers each replays its own sessions on its own thread;
//! a turnstile lets the writer of epoch `e` ask for the writer lock only
//! after epoch `e - 1` was granted it, so grants follow the reported
//! order while each `BES` still queues behind the other writer's whole
//! session, as it did against gomd. The replay keeps the run's rounds:
//! reads the concurrent reader made are spread evenly over the round's
//! epochs, and each round's probe reads follow its writers.

use crate::daemon::EVAL_THREADS;
use crate::drive::{rows_hash, Commit};
use crate::spans::{Span, Tracer};
use crate::stats::Samples;
use crate::workload::{read_request, session_ops};
use gom_core::{EvolutionOutcome, SchemaManager};
use gom_evolution::{delete_type, DeleteTypeSemantics};
use gom_server::{
    Acquire, EvolutionOp, ReaderCache, Reply, Request, SessionLock, Snapshot, SnapshotCell,
};
use gom_store::SyncPolicy;
use gom_trace::{ReadOp, Trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// gomd's default writer-lock wait before `Busy`.
const SESSION_TIMEOUT: Duration = Duration::from_secs(2);

/// One round of the replay, as the socket run had it.
pub struct RoundPlan {
    /// The round's committed sessions, sorted by epoch.
    pub commits: Vec<Commit>,
    /// Reads the concurrent reader issues after each of the round's
    /// commits (same index as `commits`; none past the end).
    pub reads_after: Vec<u64>,
    /// Probe reads after the round's writers, on a fresh connection.
    pub probe_reads: u64,
}

/// What to replay.
pub struct Plan<'a> {
    /// The writers' traces.
    pub traces: &'a [Trace],
    /// The rounds; their commits together have epochs `1..=N`.
    pub rounds: Vec<RoundPlan>,
    /// The read cycle.
    pub reads: &'a [ReadOp],
    /// Journal sync policy.
    pub sync: SyncPolicy,
}

/// Per-read counter deltas (traced replays only).
#[derive(Default)]
pub struct ReadCounts {
    /// Reads issued.
    pub reads: u64,
    /// `eval.tuples.derived` accumulated inside reads.
    pub tuples_derived: u64,
}

/// Result of one replay.
pub struct MirrorOut {
    /// `epoch N\n<digest>`, as gomd's `Digest` reply.
    pub digest: String,
    /// Wall time of the whole replay, recovery included.
    pub elapsed: Duration,
    /// Every span, all threads merged.
    pub spans: Vec<Span>,
    /// Encoded reply sizes.
    pub reply_bytes: Samples,
    /// Writer-lock acquisitions that returned `Busy`.
    pub busy: u64,
    /// Counter deltas of the read path.
    pub read_counts: ReadCounts,
    /// gom-obs counter deltas over the replay (traced replays only).
    pub counters: Option<gom_obs::Snapshot>,
    /// Rows hash per query text of each round's probe reads.
    pub probe_rows: Vec<BTreeMap<String, u64>>,
}

struct Shared {
    mgr: Mutex<SchemaManager>,
    cell: SnapshotCell,
    lock: SessionLock,
    /// Writer-lock grants so far, in epoch order.
    granted: Mutex<u64>,
    granted_cv: Condvar,
}

impl Shared {
    fn mgr(&self) -> std::sync::MutexGuard<'_, SchemaManager> {
        self.mgr.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_turn(&self, epoch: u64) {
        let mut g = self.granted.lock().unwrap_or_else(PoisonError::into_inner);
        while *g + 1 < epoch {
            g = self
                .granted_cv
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn granted(&self) {
        *self.granted.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.granted_cv.notify_all();
    }
}

/// One simulated connection: an id, a request counter, and (for reads)
/// a reader cache.
struct Conn {
    id: u64,
    next_req: u64,
    cache: ReaderCache,
    /// Epoch of the private view, to tell a refresh from a warm view.
    viewed: Option<u64>,
    /// Epoch last digested, to tell a digest computation from a cached one.
    digested: Option<u64>,
    reply_bytes: Samples,
}

impl Conn {
    fn new(id: u64) -> Conn {
        Conn {
            id,
            next_req: 1,
            cache: ReaderCache::new(),
            viewed: None,
            digested: None,
            reply_bytes: Samples::default(),
        }
    }

    /// Send `req` through the codec, run `serve` on the decoded request,
    /// and pass the reply back through the codec, all inside a root span.
    fn request(
        &mut self,
        tr: &mut Tracer,
        req: &Request,
        serve: impl FnOnce(&mut Tracer, &mut Conn, Request) -> Result<Reply, String>,
    ) -> Result<Reply, String> {
        let id = (self.id << 32) | self.next_req;
        self.next_req += 1;
        tr.set_req(id);
        let root = tr.enter(root_name(req));
        let frame = tr.span("wire.encode_request", |_| req.encode_with_id(id));
        let (_, decoded) = tr
            .span("wire.decode_request", |_| Request::decode_with_id(&frame))
            .map_err(|e| e.to_string())?;
        let reply = serve(tr, self, decoded)?;
        let frame = tr.span("wire.encode_reply", |_| reply.encode());
        self.reply_bytes.push(frame.len() as u64);
        let reply = tr
            .span("wire.decode_reply", |_| Reply::decode(&frame))
            .map_err(|e| e.to_string())?;
        tr.exit(root);
        Ok(reply)
    }
}

fn root_name(req: &Request) -> &'static str {
    match req {
        Request::Bes => "gomd.bes",
        Request::Op(_) => "gomd.op",
        Request::Ees { .. } => "gomd.ees",
        Request::Query(_) => "gomd.query",
        Request::Check => "gomd.check",
        Request::Digest => "gomd.digest",
        _ => "gomd.other",
    }
}

/// Replay `plan` on a manager recovered from `journal`. `traced` turns on
/// spans and gom-obs counters.
pub fn replay(journal: &Path, plan: &Plan, traced: bool) -> Result<MirrorOut, String> {
    gom_obs::set_enabled(traced);
    let before = traced.then(gom_obs::snapshot);
    let origin = Instant::now();
    let mut main_tr = Tracer::new(traced, origin);
    let mgr = main_tr.span("core.recover", |_| SchemaManager::open(journal, plan.sync));
    let (mut mgr, _) = mgr.map_err(|e| format!("recover: {e}"))?;
    mgr.meta.db.set_eval_threads(EVAL_THREADS);
    let shared = Shared {
        cell: SnapshotCell::new(Snapshot::capture(0, &mgr.meta)),
        mgr: Mutex::new(mgr),
        lock: SessionLock::new(),
        granted: Mutex::new(0),
        granted_cv: Condvar::new(),
    };
    let mut read_counts = ReadCounts::default();
    let mut busy = 0;
    let mut reply_bytes = Samples::default();
    let mut span_lists = Vec::new();
    let mut probe_rows = Vec::new();
    for (r, round) in plan.rounds.iter().enumerate() {
        let results: Vec<Result<WriterResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.traces.len())
                .map(|w| {
                    let shared = &shared;
                    scope.spawn(move || writer(shared, plan, round, r, w, traced, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("replay thread panicked".into()))
                })
                .collect()
        });
        for result in results {
            let (spans, wconn, rconn, b, rc) = result?;
            span_lists.push(spans);
            reply_bytes.extend(&wconn.reply_bytes);
            reply_bytes.extend(&rconn.reply_bytes);
            busy += b;
            read_counts.reads += rc.reads;
            read_counts.tuples_derived += rc.tuples_derived;
        }
        // The probe: a fresh connection on the round's last epoch.
        let mut probe = Conn::new(1000 + r as u64);
        let mut rows_by_text = BTreeMap::new();
        for read in plan.reads.iter().cycle().take(round.probe_reads as usize) {
            let reply = read_once(&mut main_tr, &shared, &mut probe, read, &mut read_counts)?;
            if let (ReadOp::Query(q), Reply::Rows { rows, .. }) = (read, reply) {
                let h = rows_hash(&rows);
                if *rows_by_text.entry(q.clone()).or_insert(h) != h {
                    return Err(format!("replayed query {q} changed on a quiet base"));
                }
            }
        }
        reply_bytes.extend(&probe.reply_bytes);
        probe_rows.push(rows_by_text);
    }
    let snap = shared.cell.load();
    let digest = format!("epoch {}\n{}", snap.epoch, snap.digest());
    let elapsed = origin.elapsed();
    span_lists.insert(0, main_tr.into_spans());
    let counters = before.map(|b| gom_obs::snapshot().since(&b));
    gom_obs::set_enabled(false);
    Ok(MirrorOut {
        digest,
        elapsed,
        spans: crate::spans::merge(span_lists),
        reply_bytes,
        busy,
        read_counts,
        counters,
        probe_rows,
    })
}

type WriterResult = (Vec<Span>, Conn, Conn, u64, ReadCounts);

/// Replay writer `w`'s committed sessions of round `r`, and the reads
/// that follow each of its epochs.
fn writer(
    shared: &Shared,
    plan: &Plan,
    round: &RoundPlan,
    r: usize,
    w: usize,
    traced: bool,
    origin: Instant,
) -> Result<WriterResult, String> {
    let mut tr = Tracer::new(traced, origin);
    // Connection ids are unique per round, as the socket run reconnects.
    let id = (r * plan.traces.len() + w) as u64;
    let mut conn = Conn::new(1 + id);
    let mut reader = Conn::new(100 + id);
    let mut read_counts = ReadCounts::default();
    let mut read_pos = 0usize;
    let mut busy = 0;
    for (i, c) in round
        .commits
        .iter()
        .enumerate()
        .filter(|(_, c)| c.writer == w)
    {
        shared.wait_turn(c.epoch);
        let bes = conn.request(&mut tr, &Request::Bes, |tr, conn, _| {
            loop {
                let got = tr.span("session.lock_wait", |_| {
                    shared.lock.acquire(conn.id, SESSION_TIMEOUT)
                });
                match got {
                    Acquire::Granted => break,
                    Acquire::Busy { .. } => busy += 1,
                }
            }
            shared.granted();
            let mut mgr = shared.mgr();
            tr.span("core.bes", |_| mgr.begin_evolution())
                .map_err(|e| format!("bes: {e}"))?;
            Ok(Reply::Ok(format!(
                "BES — evolution session open (epoch {})",
                shared.cell.epoch()
            )))
        })?;
        expect_ok(&bes, "bes")?;
        for op in session_ops(&plan.traces[w], c.session) {
            let reply = conn.request(&mut tr, &Request::Op(op), |tr, _, req| {
                let Request::Op(op) = req else {
                    return Err("op decoded as another request".into());
                };
                let mut mgr = shared.mgr();
                Ok(match apply_op(tr, &mut mgr, &op) {
                    Ok(msg) => Reply::Ok(msg),
                    Err(e) => Reply::Error {
                        kind: gom_server::ErrorKind::BadRequest,
                        message: e,
                    },
                })
            })?;
            expect_ok(&reply, "op")?;
        }
        let token = ((w as u64) << 32) | (c.session as u64 + 1);
        let ees = conn.request(
            &mut tr,
            &Request::Ees { token: Some(token) },
            |tr, conn, _| {
                let mut mgr = shared.mgr();
                let outcome = tr
                    .span("core.ees", |_| mgr.end_evolution())
                    .map_err(|e| format!("ees: {e}"))?;
                let EvolutionOutcome::Consistent(delta) = outcome else {
                    return Err(format!(
                        "session {} of writer {w} did not commit",
                        c.session
                    ));
                };
                let epoch = shared.cell.epoch() + 1;
                tr.span("snapshot.publish", |_| {
                    shared.cell.publish(Snapshot::capture(epoch, &mgr.meta))
                });
                drop(mgr);
                shared.lock.release(conn.id);
                Ok(Reply::Committed {
                    epoch,
                    changes: delta.len() as u64,
                    token,
                })
            },
        )?;
        match ees {
            Reply::Committed { epoch, .. } if epoch == c.epoch => {}
            other => {
                return Err(format!(
                    "replay committed {other:?}, gomd epoch {}",
                    c.epoch
                ))
            }
        }
        let after = round.reads_after.get(i).copied().unwrap_or(0);
        for _ in 0..after {
            let read = &plan.reads[read_pos % plan.reads.len()];
            read_pos += 1;
            read_once(&mut tr, shared, &mut reader, read, &mut read_counts)?;
        }
    }
    Ok((tr.into_spans(), conn, reader, busy, read_counts))
}

fn expect_ok(reply: &Reply, what: &str) -> Result<(), String> {
    match reply {
        Reply::Ok(_) => Ok(()),
        other => Err(format!("{what}: {other:?}")),
    }
}

/// Mirror of gomd's `apply_op`, one span per primitive.
fn apply_op(tr: &mut Tracer, mgr: &mut SchemaManager, op: &EvolutionOp) -> Result<String, String> {
    match op {
        EvolutionOp::Define(src) => tr.span("analyzer.lower", |_| {
            let m = &mut *mgr;
            m.analyzer
                .lower_source(&mut m.meta, src)
                .map(|l| format!("lowered {} schema(s)", l.len()))
                .map_err(|e| e.to_string())
        }),
        EvolutionOp::AddAttr { ty, name, domain } => tr.span("evolution.add_attr", |_| {
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let d = mgr
                .meta
                .resolve_type_ref(domain)
                .map_err(|e| e.to_string())?;
            mgr.meta.add_attr(t, name, d).map_err(|e| e.to_string())?;
            Ok(format!("+Attr({ty}, {name}, {domain})"))
        }),
        EvolutionOp::DelAttr { ty, name } => tr.span("evolution.del_attr", |_| {
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let removed = mgr.meta.remove_attr(t, name).map_err(|e| e.to_string())?;
            Ok(if removed {
                format!("-Attr({ty}, {name})")
            } else {
                "no such attribute".into()
            })
        }),
        EvolutionOp::DelType { ty, semantics } => tr.span("evolution.del_type", |_| {
            if semantics != "restrict" {
                return Err(format!("unexpected delete semantics {semantics}"));
            }
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let r =
                delete_type(mgr, t, DeleteTypeSemantics::Restrict).map_err(|e| e.to_string())?;
            Ok(format!(
                "deleted: {} fact(s) removed, {} edge(s) reconnected, {} instance(s) deleted",
                r.facts_removed, r.reconnected, r.instances_deleted
            ))
        }),
    }
}

/// One read on `conn`, checked like the socket reader checks it. Returns
/// the decoded reply.
fn read_once(
    tr: &mut Tracer,
    shared: &Shared,
    conn: &mut Conn,
    read: &ReadOp,
    counts: &mut ReadCounts,
) -> Result<Reply, String> {
    let before = tr.on().then(gom_obs::snapshot);
    let reply = conn.request(tr, &read_request(read), |tr, conn, req| {
        Ok(match req {
            Request::Query(body) => {
                let (names, rows) = view(tr, shared, conn, |tr, meta, cold| {
                    let name = if cold {
                        "deductive.query.cold"
                    } else {
                        "deductive.query.warm"
                    };
                    let (names, rows) = tr
                        .span(name, |_| meta.db.query_text(&body))
                        .map_err(|e| e.to_string())?;
                    let rendered: Vec<Vec<String>> = tr.span("server.render", |_| {
                        let interner = meta.db.interner();
                        rows.iter()
                            .map(|row| {
                                row.iter()
                                    .map(|c| c.display(interner).to_string())
                                    .collect()
                            })
                            .collect()
                    });
                    Ok((names, rendered))
                })?;
                Reply::Rows { names, rows }
            }
            Request::Check => view(tr, shared, conn, |tr, meta, cold| {
                let name = if cold {
                    "deductive.check.cold"
                } else {
                    "deductive.check.warm"
                };
                let violations = tr
                    .span(name, |_| meta.db.check())
                    .map_err(|e| e.to_string())?;
                Ok(Reply::Violations(
                    violations.iter().map(|v| v.render(&meta.db)).collect(),
                ))
            })?,
            Request::Digest => {
                let epoch = shared.cell.epoch();
                let cold = conn.digested != Some(epoch);
                conn.digested = Some(epoch);
                let name = if cold {
                    "snapshot.digest.cold"
                } else {
                    "snapshot.digest.warm"
                };
                let snap = conn.cache.snapshot(&shared.cell);
                let body = tr.span(name, |_| format!("epoch {}\n{}", snap.epoch, snap.digest()));
                Reply::Ok(body)
            }
            other => return Err(format!("not a read: {other:?}")),
        })
    })?;
    let ok = match (read, &reply) {
        (ReadOp::Query(_), Reply::Rows { names, .. }) => names.len() == 3,
        (ReadOp::Check, Reply::Violations(v)) => v.is_empty(),
        (ReadOp::Digest, Reply::Ok(d)) => d.starts_with("epoch "),
        _ => false,
    };
    if !ok {
        return Err(format!("replayed {read:?} answered {reply:?}"));
    }
    if let Some(b) = before {
        counts.tuples_derived += gom_obs::snapshot().since(&b).counter("eval.tuples.derived");
    }
    counts.reads += 1;
    Ok(reply)
}

/// Run `f` on the connection's private view, refreshing it (in a
/// `snapshot.refresh` span) when the epoch moved; `f` learns whether the
/// view is cold.
fn view<R>(
    tr: &mut Tracer,
    shared: &Shared,
    conn: &mut Conn,
    f: impl FnOnce(&mut Tracer, &mut gom_model::MetaModel, bool) -> Result<R, String>,
) -> Result<R, String> {
    let cold = conn.viewed != Some(shared.cell.epoch());
    let id = tr.enter(if cold {
        "snapshot.refresh"
    } else {
        "snapshot.view"
    });
    let (epoch, meta) = conn.cache.view(&shared.cell);
    tr.exit(id);
    conn.viewed = Some(epoch);
    f(tr, meta, cold)
}
