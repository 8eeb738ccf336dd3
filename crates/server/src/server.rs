//! gomd: the schema service proper.
//!
//! One process owns the [`SchemaManager`]; clients speak gom-wire/v1 over
//! a Unix socket, one thread per connection. The concurrency contract:
//!
//! * **Reads are epoch-snapshot isolated.** `Query`/`Check`/`Lint`/
//!   `Digest` run against the last *published* snapshot (see
//!   [`crate::snapshot`]), never against the live manager — so an open
//!   evolution session, however long, is invisible to readers.
//! * **Writes are single-session.** `Bes` acquires the FIFO
//!   [`SessionLock`] (bounded wait → typed `Busy`); the lock is held
//!   across frames until `Ees` commits or `Rollback` abandons. A
//!   consistent `Ees` publishes epoch N+1 *after* the journal commit, so
//!   a recovered daemon republishes exactly the last committed epoch.
//! * **Ops outside a session autocommit** as a BES/op/EES micro-session,
//!   mirroring the `gomsh` convention.
//!
//! The failure model (DESIGN.md §14) assumes hostile clients and
//! networks:
//!
//! * **Session leases.** The writer must be heard from within the lease
//!   interval (any frame renews; `Renew` for idle clients) or the reaper
//!   thread rolls the abandoned session back and releases the lock —
//!   `server.lease.expired` counts reaps, and the zombie's next session
//!   frame gets a typed `LeaseExpired`.
//! * **I/O deadlines.** A frame that starts arriving must complete
//!   within the per-connection I/O deadline; a slow-loris partial frame
//!   is answered with `Timeout` and a close (`server.timeouts`), never an
//!   indefinite read loop. Writes carry the same deadline.
//! * **Load shedding.** At the connection bound the accept loop sheds new
//!   connections with a structured `Overloaded{active,max}` frame
//!   (`server.shed`) instead of accepting-then-starving.
//! * **Idempotent commits.** `Ees` may carry a client-chosen token; the
//!   committed `(epoch, changes)` is remembered under it, so a retried
//!   commit whose ack was lost replays the answer
//!   (`server.commit.token_replays`) and is never applied twice.

use crate::session::{Acquire, SessionLock};
use crate::snapshot::{ReaderCache, Snapshot, SnapshotCell};
use crate::wire::{self, ErrorKind, EvolutionOp, ReadEvent, Reply, Request};
use gom_core::{DefineError, EvolutionOutcome, SchemaManager};
use gom_deductive::Database;
use gom_evolution::{delete_type, DeleteTypeSemantics};
use gom_store::SyncPolicy;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Poll tick for blocked reads: how often a waiting connection re-checks
/// the shutdown flag and its frame deadline. Prompt shutdown does not
/// rely on this — `initiate_shutdown` shuts the registered streams down,
/// which wakes blocked reads immediately.
const READ_POLL: Duration = Duration::from_millis(50);

/// How many committed `(token → epoch, changes)` entries the idempotent-
/// commit cache retains (FIFO eviction).
const TOKEN_CACHE_CAP: usize = 1024;

/// Server configuration.
pub struct Config {
    /// Path of the Unix socket to listen on (created; removed on stop).
    pub socket: PathBuf,
    /// Optional journal path; when set the daemon is durable and recovers
    /// to the last committed epoch on restart.
    pub store: Option<PathBuf>,
    /// Journal sync policy (ignored without `store`).
    pub sync: SyncPolicy,
    /// How long a `Bes` (or autocommit op) waits for the writer lock
    /// before returning `Busy`.
    pub session_timeout: Duration,
    /// Session lease: the writer must send a frame (or `Renew`) at least
    /// this often or the reaper rolls its session back.
    pub lease: Duration,
    /// Per-connection I/O deadline: a frame that starts arriving must
    /// complete within this long (reads), and a reply write must finish
    /// within it too.
    pub io_deadline: Duration,
    /// Connection bound: further connections are shed with a typed
    /// `Overloaded` frame until an active one closes.
    pub max_connections: usize,
    /// Accepted and ignored; evaluation is single-threaded. Kept so that
    /// configs written against the former eval-thread override still
    /// compile.
    pub eval_threads: Option<usize>,
    /// Slow-request threshold in milliseconds: requests that take at
    /// least this long land in the ring-buffer slow log (surfaced by
    /// `Metrics` and `stats`). 0 logs every request.
    pub slow_ms: u64,
}

impl Config {
    /// In-memory server on `socket` with a 2-second session timeout, a
    /// 30-second lease, a 10-second I/O deadline, and a 256-connection
    /// bound.
    pub fn in_memory(socket: impl Into<PathBuf>) -> Config {
        Config {
            socket: socket.into(),
            store: None,
            sync: SyncPolicy::OnCommit,
            session_timeout: Duration::from_secs(2),
            lease: Duration::from_secs(30),
            io_deadline: Duration::from_secs(10),
            max_connections: 256,
            eval_threads: None,
            slow_ms: 250,
        }
    }
}

/// Idempotent-commit memory: token → (epoch, changes), FIFO-bounded.
#[derive(Default)]
struct TokenCache {
    map: HashMap<u64, (u64, u64)>,
    order: VecDeque<u64>,
}

impl TokenCache {
    fn get(&self, token: u64) -> Option<(u64, u64)> {
        self.map.get(&token).copied()
    }

    fn insert(&mut self, token: u64, epoch: u64, changes: u64) {
        if self.map.insert(token, (epoch, changes)).is_none() {
            self.order.push_back(token);
            if self.order.len() > TOKEN_CACHE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Slow-log capacity: the newest `SLOW_LOG_CAP` over-threshold requests
/// are retained, oldest evicted first.
const SLOW_LOG_CAP: usize = 128;

/// One over-threshold request in the slow log.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Client-assigned request id (0 when the client sent none).
    pub req_id: u64,
    /// Server connection id that served the request.
    pub conn: u64,
    /// The request verb.
    pub verb: &'static str,
    /// Wall-clock service time in microseconds.
    pub dur_us: u64,
    /// Reply disposition (`ok`, `committed`, `violations`, `rows`, or an
    /// error kind name).
    pub status: &'static str,
    /// Milliseconds since the server started.
    pub t_ms: u64,
}

/// Per-verb latency histogram names, pre-interned so the per-request
/// vitals path never formats a string. Unknown verbs (future dialects)
/// share one bucket.
fn verb_hist_name(verb: &str) -> &'static str {
    match verb {
        "bes" => "server.request.ns:bes",
        "op" => "server.request.ns:op",
        "ees" => "server.request.ns:ees",
        "rollback" => "server.request.ns:rollback",
        "query" => "server.request.ns:query",
        "check" => "server.request.ns:check",
        "lint" => "server.request.ns:lint",
        "stats" => "server.request.ns:stats",
        "digest" => "server.request.ns:digest",
        "shutdown" => "server.request.ns:shutdown",
        "plan" => "server.request.ns:plan",
        "renew" => "server.request.ns:renew",
        "metrics" => "server.request.ns:metrics",
        _ => "server.request.ns:other",
    }
}

/// What a request is answered with, written after the request is timed.
enum Answer {
    /// A reply value, encoded into its own frame buffer when sent.
    Reply(Reply),
    /// A sealed frame (query rows encoded straight from the result
    /// tuples), with its slow-log status.
    Frame(Vec<u8>, &'static str),
    /// The snapshot's own `Digest` reply frame, written as it is.
    Digest(Arc<Snapshot>),
}

impl Answer {
    /// Reply disposition for the slow log.
    fn status(&self) -> &'static str {
        match self {
            // Too large for one frame: answered with a typed `Internal`.
            Answer::Reply(reply) if !reply.fits_frame() => ErrorKind::Internal.name(),
            Answer::Reply(reply) => reply_status(reply),
            Answer::Frame(_, status) => status,
            Answer::Digest(snap) => match snap.digest_frame() {
                Some(_) => "ok",
                // Answered on the ordinary path, which refuses it.
                None => ErrorKind::Internal.name(),
            },
        }
    }
}

/// Reply disposition for the slow log.
fn reply_status(reply: &Reply) -> &'static str {
    match reply {
        Reply::Ok(_) => "ok",
        Reply::Committed { .. } => "committed",
        Reply::Violations(_) => "violations",
        Reply::Rows { .. } => "rows",
        Reply::Overloaded { .. } => "overloaded",
        Reply::Error { kind, .. } => kind.name(),
    }
}

struct Shared {
    mgr: Mutex<SchemaManager>,
    cell: SnapshotCell,
    lock: SessionLock,
    shutdown: AtomicBool,
    session_timeout: Duration,
    lease: Duration,
    io_deadline: Duration,
    max_connections: usize,
    socket: PathBuf,
    /// Currently served connections (shed threshold).
    active: AtomicU64,
    /// Stream clones of live connections, shut down on stop so blocked
    /// reads wake immediately instead of waiting out a poll tick.
    conns: Mutex<Vec<(u64, UnixStream)>>,
    /// Idempotent EES commit tokens.
    tokens: Mutex<TokenCache>,
    /// Reaper parking lot: notified on shutdown for a prompt exit.
    wake_mx: Mutex<()>,
    wake_cv: Condvar,
    /// Ring buffer of over-threshold requests (see `Config::slow_ms`).
    slow: Mutex<VecDeque<SlowEntry>>,
    slow_ms: u64,
    started: std::time::Instant,
    /// Lint config captured at startup (carries the system-material
    /// baseline so server-side lint matches `gomsh lint` output).
    lint_cfg: gom_lint::LintConfig,
}

impl Shared {
    fn mgr(&self) -> std::sync::MutexGuard<'_, SchemaManager> {
        self.mgr.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and wake every parked thread: the reaper
    /// (condvar), blocked connection reads (stream shutdown), and the
    /// blocking accept loop (a self-connection). Idempotent.
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.wake_cv.notify_all();
        {
            let conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            for (_, stream) in conns.iter() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Wake the accept loop: the dummy connection is dropped by the
        // accept loop once it observes the flag.
        let _ = UnixStream::connect(&self.socket);
    }

    fn register_conn(&self, id: u64, stream: &UnixStream) {
        if let Ok(clone) = stream.try_clone() {
            self.conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((id, clone));
        }
    }

    fn deregister_conn(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(cid, _)| *cid != id);
    }

    fn note_slow(&self, entry: SlowEntry) {
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if slow.len() >= SLOW_LOG_CAP {
            slow.pop_front();
        }
        slow.push_back(entry);
    }

    fn slow_entries(&self) -> Vec<SlowEntry> {
        self.slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

/// Handle to a running server. Dropping it does *not* stop the daemon;
/// call [`ServerHandle::stop`] (or send a `Shutdown` frame).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    reaper: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl ServerHandle {
    /// The socket path the server is listening on.
    pub fn socket(&self) -> &std::path::Path {
        &self.socket
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Block until the server shuts down (via [`stop`](Self::stop) from
    /// another thread or a `Shutdown` frame from a client).
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Request shutdown and wait for the accept loop to exit. Prompt:
    /// every parked thread is woken explicitly rather than polled out.
    pub fn stop(self) {
        self.shared.initiate_shutdown();
        self.join();
    }
}

/// Pre-register the vitals counters so `stats`, `Metrics`, and traces
/// always carry them, even at zero. These are the always-on failure-model
/// counters: they aggregate through `gom_obs::vital_add` regardless of
/// the obs switch, so a production daemon that never turned profiling on
/// still answers `stats` with real numbers — one source of truth instead
/// of a parallel atomics struct.
fn register_counters() {
    for name in [
        "server.connections",
        "server.requests",
        "server.timeouts",
        "server.shed",
        "server.lease.expired",
        "server.lease.renews",
        "server.session.abandoned",
        "server.commit.token_replays",
    ] {
        gom_obs::vital_add(name, 0);
    }
}

/// Start a server for `config`: opens (and, with a store, recovers) the
/// schema base, publishes the initial snapshot, binds the socket, and
/// spawns the accept and reaper loops.
pub fn serve(config: Config) -> io::Result<ServerHandle> {
    let mut mgr = match &config.store {
        Some(path) => {
            let (mgr, report) = SchemaManager::open(path, config.sync)
                .map_err(|e| io::Error::other(format!("journal open failed: {e}")))?;
            gom_obs::event(
                "server.recovered",
                &[(
                    "sessions",
                    gom_obs::Field::U64(report.sessions_replayed as u64),
                )],
            );
            mgr
        }
        None => SchemaManager::new()
            .map_err(|e| io::Error::other(format!("schema base init failed: {e}")))?,
    };
    register_counters();
    // Keep violations maintained from the start, so every published epoch
    // (the initial one included) carries them to readers. Commits and
    // rollbacks (lease reaps and hang-ups included) keep it armed. Failure
    // only costs readers a fixpoint; sessions re-arm at BES.
    let _ = mgr.meta.db.ensure_maintained();

    let initial = Snapshot::capture(0, &mgr.meta);
    let lint_cfg = mgr.lint_config();
    let shared = Arc::new(Shared {
        mgr: Mutex::new(mgr),
        cell: SnapshotCell::new(initial),
        lock: SessionLock::new(),
        shutdown: AtomicBool::new(false),
        session_timeout: config.session_timeout,
        lease: config.lease,
        io_deadline: config.io_deadline,
        max_connections: config.max_connections.max(1),
        socket: config.socket.clone(),
        active: AtomicU64::new(0),
        conns: Mutex::new(Vec::new()),
        tokens: Mutex::new(TokenCache::default()),
        wake_mx: Mutex::new(()),
        wake_cv: Condvar::new(),
        slow: Mutex::new(VecDeque::new()),
        slow_ms: config.slow_ms,
        started: std::time::Instant::now(),
        lint_cfg,
    });

    // A previous unclean exit may have left the socket file behind.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;

    let accept_shared = shared.clone();
    let accept = std::thread::Builder::new()
        .name("gomd-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    let reaper_shared = shared.clone();
    let reaper = std::thread::Builder::new()
        .name("gomd-reaper".into())
        .spawn(move || reaper_loop(reaper_shared))?;

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        reaper: Some(reaper),
        socket: config.socket,
    })
}

/// The lease reaper: wakes every lease/4 (clamped), rolls back the
/// session of a holder whose lease lapsed, and releases the lock so the
/// FIFO queue advances. The manager mutex is held across the reap *and*
/// the rollback, so the next writer — granted the lock the instant the
/// reap lands — blocks on the manager until the abandoned session is
/// fully rolled back. The rollback maintains the IDB through the undone
/// ops, so that writer's BES finds it armed.
fn reaper_loop(shared: Arc<Shared>) {
    let tick = (shared.lease / 4)
        .max(Duration::from_millis(5))
        .min(Duration::from_secs(1));
    loop {
        {
            let guard = shared
                .wake_mx
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let _ = shared
                .wake_cv
                .wait_timeout(guard, tick)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if shared.stopping() {
            break;
        }
        let Some(victim) = shared.lock.expired_holder(shared.lease) else {
            continue;
        };
        // Order matters: manager mutex first (serialises with an in-flight
        // request from the victim — its completion renews the lease and
        // the re-check below backs off), then the atomic re-check + reap,
        // then the rollback under the still-held manager mutex.
        let mut mgr = shared.mgr();
        if !shared.lock.reap_if_expired(victim, shared.lease) {
            continue;
        }
        gom_obs::vital_add("server.lease.expired", 1);
        gom_obs::vital_add("server.session.abandoned", 1);
        gom_obs::event(
            "server.lease.expired",
            &[("conn", gom_obs::Field::U64(victim))],
        );
        if mgr.in_evolution() {
            let _ = mgr.rollback_evolution();
        }
    }
}

fn accept_loop(listener: UnixListener, shared: Arc<Shared>) {
    let next_id = AtomicU64::new(1);
    let mut workers = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping() {
                    // The wake-up connection from initiate_shutdown (or a
                    // straggler racing it): drop and exit.
                    break;
                }
                let _sp = gom_obs::span("server.accept");
                let active = shared.active.load(Ordering::SeqCst);
                if active >= shared.max_connections as u64 {
                    shed(stream, active, shared.max_connections as u64);
                    continue;
                }
                gom_obs::vital_add("server.connections", 1);
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.register_conn(id, &stream);
                let conn_shared = shared.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("gomd-conn-{id}"))
                    .spawn(move || {
                        Connection::new(id, conn_shared).run(stream);
                    });
                match worker {
                    Ok(h) => workers.push(h),
                    Err(e) => {
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                        shared.deregister_conn(id);
                        gom_obs::event(
                            "server.spawn_failed",
                            &[("error", gom_obs::Field::Str(&e.to_string()))],
                        );
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.stopping() {
                    break;
                }
            }
        }
    }
    // Connections were woken by initiate_shutdown (stream shutdown) or
    // notice the flag within one poll tick; join them all.
    for w in workers {
        let _ = w.join();
    }
}

/// Shed a connection at the bound: one structured `Overloaded` frame,
/// written under a short deadline, then close.
fn shed(stream: UnixStream, active: u64, max: u64) {
    gom_obs::vital_add("server.shed", 1);
    gom_obs::event(
        "server.shed",
        &[
            ("active", gom_obs::Field::U64(active)),
            ("max", gom_obs::Field::U64(max)),
        ],
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut stream = stream;
    let _ = write_reply(&mut stream, &Reply::Overloaded { active, max });
}

struct Connection {
    id: u64,
    shared: Arc<Shared>,
    cache: ReaderCache,
}

impl Connection {
    fn new(id: u64, shared: Arc<Shared>) -> Connection {
        Connection {
            id,
            shared,
            cache: ReaderCache::new(),
        }
    }

    fn run(mut self, mut stream: UnixStream) {
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(self.shared.io_deadline));
        loop {
            if self.shared.stopping() {
                break;
            }
            let shared = self.shared.clone();
            let frame = match wire::read_frame_deadline(&mut stream, shared.io_deadline, || {
                !shared.stopping()
            }) {
                Ok(ReadEvent::Frame(f)) => f,
                Ok(ReadEvent::Closed) | Ok(ReadEvent::Aborted) => break,
                Ok(ReadEvent::Stalled) => {
                    // Slow-loris partial frame: typed Timeout, then close
                    // (the stream is desynchronised mid-frame).
                    gom_obs::vital_add("server.timeouts", 1);
                    let reply = Reply::err(
                        ErrorKind::Timeout,
                        format!(
                            "partial frame stalled past the {}ms I/O deadline",
                            self.shared.io_deadline.as_millis()
                        ),
                    );
                    let _ = send(&mut stream, &Answer::Reply(reply));
                    break;
                }
                Err(e) => {
                    // Corruption (CRC, oversized length, torn header) or a
                    // real I/O error: best-effort typed reply, then close.
                    let reply = Reply::err(ErrorKind::Protocol, e.to_string());
                    let _ = send(&mut stream, &Answer::Reply(reply));
                    break;
                }
            };
            // Any frame from the lock holder renews its lease.
            if self.shared.lock.touch(self.id) {
                gom_obs::vital_add("server.lease.renews", 1);
            }
            let mut shutdown_after = false;
            let answer = match Request::decode_with_id(&frame) {
                Ok((req_id, req)) => {
                    let _sp = gom_obs::span_labeled("server.request", req.verb());
                    gom_obs::vital_add("server.requests", 1);
                    shutdown_after = req == Request::Shutdown;
                    let start = std::time::Instant::now();
                    let answer = self.dispatch(&req);
                    let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    // Per-verb latency is a vital: always on, static name.
                    gom_obs::vital_record(verb_hist_name(req.verb()), ns);
                    if ns / 1_000_000 >= self.shared.slow_ms {
                        self.shared.note_slow(SlowEntry {
                            req_id,
                            conn: self.id,
                            verb: req.verb(),
                            dur_us: ns / 1_000,
                            status: answer.status(),
                            t_ms: self.shared.started.elapsed().as_millis() as u64,
                        });
                    }
                    if req_id != 0 {
                        // The client-assigned id lands in the trace next to
                        // the span, tying server-side latency to the
                        // client's own records.
                        gom_obs::event(
                            "server.request",
                            &[
                                ("req_id", gom_obs::Field::U64(req_id)),
                                ("verb", gom_obs::Field::Str(req.verb())),
                                ("conn", gom_obs::Field::U64(self.id)),
                            ],
                        );
                    }
                    answer
                }
                Err(e) => Answer::Reply(Reply::err(ErrorKind::Protocol, e.to_string())),
            };
            if let Err(e) = send(&mut stream, &answer) {
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) {
                    // The peer stopped draining its socket: a write-side
                    // slow loris. Count it and drop the connection.
                    gom_obs::vital_add("server.timeouts", 1);
                }
                break;
            }
            if shutdown_after {
                self.shared.initiate_shutdown();
                break;
            }
        }
        self.hangup();
    }

    /// A dropped connection must not wedge the daemon: abandon any open
    /// session (rollback) and release the writer lock. Also clears any
    /// undelivered lease-expiry notice and the connection registry entry.
    fn hangup(&self) {
        if self.shared.lock.held_by(self.id) {
            gom_obs::vital_add("server.session.abandoned", 1);
            let mut mgr = self.shared.mgr();
            if mgr.in_evolution() {
                let _ = mgr.rollback_evolution();
            }
            drop(mgr);
            self.shared.lock.release(self.id);
        }
        self.shared.lock.take_expired(self.id);
        self.shared.deregister_conn(self.id);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// The one-shot `LeaseExpired` notice for session verbs: if this
    /// connection's session was reaped since its last session frame,
    /// answer with the typed error (and clear the notice).
    fn expired_notice(&self) -> Option<Reply> {
        if self.shared.lock.take_expired(self.id) {
            Some(Reply::err(
                ErrorKind::LeaseExpired,
                format!(
                    "session lease ({}ms) expired: the session was rolled back and the \
                     writer lock released; begin again with bes",
                    self.shared.lease.as_millis()
                ),
            ))
        } else {
            None
        }
    }

    fn dispatch(&mut self, req: &Request) -> Answer {
        let reply = match req {
            Request::Query(body) => {
                let (_, meta) = self.cache.view(&self.shared.cell);
                let (frame, status) = query_frame(&mut meta.db, body);
                return Answer::Frame(frame, status);
            }
            Request::Digest => {
                // Served straight from the shared Arc: no private clone is
                // built (or refreshed) for digest-only connections. The
                // epoch's first digest builds the snapshot's frame here,
                // so the build is timed with its request.
                let snap = Arc::clone(self.cache.shared(&self.shared.cell));
                snap.digest_frame();
                return Answer::Digest(snap);
            }
            Request::Bes => self.bes(),
            Request::Op(op) => self.op(op),
            Request::Ees { token } => self.ees(*token),
            Request::Rollback => self.rollback(),
            Request::Renew => self.renew(),
            Request::Check => self.check(),
            Request::Lint => self.lint(),
            Request::Stats => self.stats(),
            Request::Shutdown => Reply::Ok("shutting down".into()),
            Request::Plan => self.plan(),
            Request::Metrics => self.metrics(),
        };
        Answer::Reply(reply)
    }

    /// Service statistics: a service header (epoch, connections, queue
    /// depth, lease), the vitals counters (read from the same obs
    /// aggregator the traces use), the slow log, and the obs table.
    fn stats(&self) -> Reply {
        let snap = gom_obs::snapshot();
        let header = format!(
            "epoch {} | conns {}/{} | writer waiters {} | lease {}ms io-deadline {}ms\n\
             server.timeouts={} server.shed={} server.lease.expired={} \
             server.lease.renews={} server.commit.token_replays={}\n",
            self.shared.cell.epoch(),
            self.shared.active.load(Ordering::SeqCst),
            self.shared.max_connections,
            self.shared.lock.waiters(),
            self.shared.lease.as_millis(),
            self.shared.io_deadline.as_millis(),
            snap.counter("server.timeouts"),
            snap.counter("server.shed"),
            snap.counter("server.lease.expired"),
            snap.counter("server.lease.renews"),
            snap.counter("server.commit.token_replays"),
        );
        let slow = self.shared.slow_entries();
        let mut slow_text = format!(
            "slow requests (>= {}ms, newest {} of cap {}):\n",
            self.shared.slow_ms,
            slow.len(),
            SLOW_LOG_CAP
        );
        for e in slow.iter().rev() {
            slow_text.push_str(&format!(
                "  t+{}ms conn {} req {} {} {}us -> {}\n",
                e.t_ms, e.conn, e.req_id, e.verb, e.dur_us, e.status
            ));
        }
        Reply::Ok(format!(
            "{header}{slow_text}{}",
            gom_obs::render_table(&snap)
        ))
    }

    /// Machine-readable telemetry: one `gomd/metrics/v1` JSON object with
    /// the service header, the full obs snapshot (vitals counters and
    /// per-verb latency histograms with percentiles), and the slow log.
    fn metrics(&self) -> Reply {
        let snap = gom_obs::snapshot();
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema\":\"gomd/metrics/v1\",\"epoch\":{},\"conns\":{},\"max_conns\":{},\
             \"writer_waiters\":{},\"lease_ms\":{},\"io_deadline_ms\":{},\"slow_ms\":{},\
             \"uptime_ms\":{},\"slow_log\":[",
            self.shared.cell.epoch(),
            self.shared.active.load(Ordering::SeqCst),
            self.shared.max_connections,
            self.shared.lock.waiters(),
            self.shared.lease.as_millis(),
            self.shared.io_deadline.as_millis(),
            self.shared.slow_ms,
            self.shared.started.elapsed().as_millis(),
        ));
        for (i, e) in self.shared.slow_entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // verb/status are static identifiers: safe without escaping.
            out.push_str(&format!(
                "{{\"req_id\":{},\"conn\":{},\"verb\":\"{}\",\"dur_us\":{},\
                 \"status\":\"{}\",\"t_ms\":{}}}",
                e.req_id, e.conn, e.verb, e.dur_us, e.status, e.t_ms
            ));
        }
        out.push_str("],\"stats\":");
        out.push_str(&gom_obs::snapshot_json(&snap));
        out.push('}');
        Reply::Ok(out)
    }

    /// Explicit lease renewal for an idle session holder.
    fn renew(&self) -> Reply {
        if self.shared.lock.held_by(self.id) {
            // The run loop already touched the lease on frame receipt.
            return Reply::Ok(format!(
                "lease renewed ({}ms)",
                self.shared.lease.as_millis()
            ));
        }
        if let Some(expired) = self.expired_notice() {
            return expired;
        }
        Reply::err(ErrorKind::BadRequest, "no open session to renew")
    }

    /// Pre-EES commit plan for the open session. Requires the writer lock
    /// (like `ees`): the plan inspects the live manager's session delta,
    /// not the published snapshot.
    fn plan(&self) -> Reply {
        if !self.shared.lock.held_by(self.id) {
            if let Some(expired) = self.expired_notice() {
                return expired;
            }
            return Reply::err(ErrorKind::BadRequest, "no open session (send bes first)");
        }
        let mut mgr = self.shared.mgr();
        let reply = match mgr.plan() {
            Ok(report) => Reply::Ok(report.render()),
            Err(e) => Reply::err(ErrorKind::Internal, e.to_string()),
        };
        // A long plan still counts as liveness (the manager mutex is held,
        // so the reaper's re-check is ordered after this touch).
        self.shared.lock.touch(self.id);
        reply
    }

    fn acquire_writer(&self) -> Result<(), Reply> {
        gom_obs::counter_add("server.session.acquires", 1);
        match self
            .shared
            .lock
            .acquire(self.id, self.shared.session_timeout)
        {
            Acquire::Granted => Ok(()),
            Acquire::Busy { holder, waiters } => Err(Reply::err(
                ErrorKind::Busy,
                format!(
                    "evolution session held by connection {holder} ({waiters} waiting); \
                     retry or raise --session-timeout"
                ),
            )),
        }
    }

    fn bes(&self) -> Reply {
        if let Some(expired) = self.expired_notice() {
            return expired;
        }
        if let Err(busy) = self.acquire_writer() {
            return busy;
        }
        let mut mgr = self.shared.mgr();
        if mgr.in_evolution() {
            // Re-entrant BES from the lock holder: already open.
            return Reply::Ok(format!(
                "BES — session already open (epoch {})",
                self.shared.cell.epoch()
            ));
        }
        match mgr.begin_evolution() {
            Ok(()) => Reply::Ok(format!(
                "BES — evolution session open (epoch {})",
                self.shared.cell.epoch()
            )),
            Err(e) => {
                drop(mgr);
                self.shared.lock.release(self.id);
                Reply::err(ErrorKind::Internal, e.to_string())
            }
        }
    }

    fn op(&self, op: &EvolutionOp) -> Reply {
        if self.shared.lock.held_by(self.id) {
            let mut mgr = self.shared.mgr();
            let reply = match apply_op(&mut mgr, op) {
                Ok(msg) => Reply::Ok(msg),
                Err(e) => Reply::err(ErrorKind::BadRequest, e),
            };
            // Touch under the manager mutex: a single op longer than the
            // lease interval must not lose the session to the reaper.
            self.shared.lock.touch(self.id);
            return reply;
        }
        // A reaped holder must learn its session is gone before an op is
        // silently autocommitted out of the context it assumed.
        if let Some(expired) = self.expired_notice() {
            return expired;
        }
        // Autocommit micro-session: BES / op / EES, publishing on
        // success — same convention as gomsh outside a session.
        if let Err(busy) = self.acquire_writer() {
            return busy;
        }
        let mut mgr = self.shared.mgr();
        let reply = match mgr.autocommit(|mgr| apply_op(mgr, op)) {
            Ok((_, delta)) => Reply::Committed {
                epoch: self.publish(&mgr),
                changes: delta.len() as u64,
                token: 0,
            },
            Err(DefineError::Op(e)) => Reply::err(ErrorKind::BadRequest, e),
            Err(DefineError::Inconsistent(rendered)) => Reply::err(
                ErrorKind::BadRequest,
                format!("autocommit rejected: {}", rendered.join("; ")),
            ),
            Err(DefineError::Db(e)) => Reply::err(ErrorKind::Internal, e.to_string()),
        };
        drop(mgr);
        self.shared.lock.release(self.id);
        reply
    }

    /// Publish the epoch a commit just produced and return its number.
    /// Runs *after* the journal commit inside EES: every published epoch
    /// is durable.
    fn publish(&self, mgr: &SchemaManager) -> u64 {
        let epoch = self.shared.cell.epoch() + 1;
        self.shared
            .cell
            .publish(Snapshot::capture(epoch, &mgr.meta));
        epoch
    }

    fn ees(&self, token: Option<u64>) -> Reply {
        // Idempotent replay first: a retried commit whose ack was lost is
        // answered from the cache — never applied twice — regardless of
        // session or lease state.
        if let Some(t) = token {
            let cached = self
                .shared
                .tokens
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(t);
            if let Some((epoch, changes)) = cached {
                gom_obs::vital_add("server.commit.token_replays", 1);
                return Reply::Committed {
                    epoch,
                    changes,
                    token: t,
                };
            }
        }
        if !self.shared.lock.held_by(self.id) {
            if let Some(expired) = self.expired_notice() {
                return expired;
            }
            return Reply::err(ErrorKind::BadRequest, "no open session (send bes first)");
        }
        let mut mgr = self.shared.mgr();
        match mgr.end_evolution() {
            Ok(EvolutionOutcome::Consistent(delta)) => {
                let epoch = self.publish(&mgr);
                let changes = delta.len() as u64;
                // Record the token before releasing the lock: any retry is
                // ordered behind the release (it must reconnect or re-queue)
                // and therefore sees the cache entry.
                if let Some(t) = token {
                    self.shared
                        .tokens
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(t, epoch, changes);
                }
                drop(mgr);
                self.shared.lock.release(self.id);
                Reply::Committed {
                    epoch,
                    changes,
                    token: token.unwrap_or(0),
                }
            }
            Ok(EvolutionOutcome::Inconsistent(violations)) => {
                // Paper §3.5: the session stays open for repairs; the
                // writer lock stays with this connection.
                let rendered = violations.iter().map(|v| v.render(&mgr.meta.db)).collect();
                self.shared.lock.touch(self.id);
                Reply::Violations(rendered)
            }
            Err(e) => {
                self.shared.lock.touch(self.id);
                Reply::err(ErrorKind::Internal, e.to_string())
            }
        }
    }

    fn rollback(&self) -> Reply {
        if !self.shared.lock.held_by(self.id) {
            if let Some(expired) = self.expired_notice() {
                return expired;
            }
            return Reply::err(ErrorKind::BadRequest, "no open session to roll back");
        }
        let mut mgr = self.shared.mgr();
        let res = mgr.rollback_evolution();
        drop(mgr);
        self.shared.lock.release(self.id);
        match res {
            Ok(()) => Reply::Ok("session rolled back".into()),
            Err(e) => Reply::err(ErrorKind::Internal, e.to_string()),
        }
    }

    fn check(&mut self) -> Reply {
        // One check per epoch: the first connection to ask computes it,
        // every later one is served the stored answer.
        let answer = self.cache.check(&self.shared.cell, |meta| {
            let violations = meta.db.check();
            violations.map(|vs| vs.iter().map(|v| v.render(&meta.db)).collect())
        });
        match answer {
            Ok(rendered) => Reply::Violations(rendered),
            Err(e) => Reply::err(ErrorKind::Internal, e.to_string()),
        }
    }

    fn lint(&mut self) -> Reply {
        let (_, meta) = self.cache.view(&self.shared.cell);
        let report = gom_lint::lint_database(&mut meta.db, &self.shared.lint_cfg);
        Reply::Ok(gom_lint::render_report(&report, None, "<schema base>"))
    }
}

/// Seal the frame built in `buf` (see [`wire::begin_frame`]). A payload
/// too large for one frame, which `seal_frame` refuses, is replaced by a
/// typed `Internal` error naming its size and the bound, so the connection
/// stays usable instead of the peer rejecting the frame's length as
/// corrupt. Every frame gomd writes is sealed here. Returns whether the
/// payload was replaced.
fn seal_reply(buf: &mut Vec<u8>) -> bool {
    let Err(e) = wire::seal_frame(buf) else {
        return false;
    };
    wire::begin_frame(buf);
    Reply::err(ErrorKind::Internal, e.to_string()).encode_into(buf);
    // A one-line error always fits in a frame.
    let _ = wire::seal_frame(buf);
    true
}

/// Write `answer` as one frame with one `write_all`.
fn send(w: &mut impl io::Write, answer: &Answer) -> io::Result<()> {
    match answer {
        Answer::Reply(reply) => write_reply(w, reply),
        Answer::Frame(frame, _) => w.write_all(frame),
        Answer::Digest(snap) => write_digest(w, snap),
    }
}

/// Write `reply` as one frame, built in one buffer and written with one
/// `write_all`.
fn write_reply(w: &mut impl io::Write, reply: &Reply) -> io::Result<()> {
    let mut frame = Vec::new();
    wire::begin_frame(&mut frame);
    reply.encode_into(&mut frame);
    seal_reply(&mut frame);
    w.write_all(&frame)
}

/// Write `snap`'s `Digest` reply: its frame, built once per snapshot, as
/// it is. A digest too large for one frame takes the ordinary path, which
/// answers it with the typed error.
pub fn write_digest(w: &mut impl io::Write, snap: &Snapshot) -> io::Result<()> {
    match snap.digest_frame() {
        Some(frame) => w.write_all(frame),
        None => {
            let text = format!("epoch {}\n{}", snap.epoch, snap.digest());
            write_reply(w, &Reply::Ok(text))
        }
    }
}

/// Answer a `Query` against `db` (a reader's view of the published
/// snapshot) as one sealed frame, returned with its slow-log status.
/// The rows are encoded straight from the result tuples
/// ([`wire::encode_rows`]): the bytes of `Reply::Rows` with a symbol
/// rendered as its interned string and an integer in decimal, the text
/// `Const::display` gives, without a `String` per cell.
pub fn query_frame(db: &mut Database, body: &str) -> (Vec<u8>, &'static str) {
    let mut frame = Vec::new();
    wire::begin_frame(&mut frame);
    let status = match db.query_text(body) {
        Ok((names, rows)) => {
            wire::encode_rows(&mut frame, &names, &rows, db.interner());
            "rows"
        }
        Err(e) => {
            let reply = Reply::err(ErrorKind::BadRequest, e.to_string());
            reply.encode_into(&mut frame);
            reply_status(&reply)
        }
    };
    if seal_reply(&mut frame) {
        return (frame, ErrorKind::Internal.name());
    }
    (frame, status)
}

/// Apply one evolution op inside an already-open session. Returns a
/// human-readable confirmation; errors are user-vocabulary strings.
fn apply_op(mgr: &mut SchemaManager, op: &EvolutionOp) -> Result<String, String> {
    match op {
        EvolutionOp::Define(src) => {
            let lowered = mgr
                .analyzer
                .lower_source(&mut mgr.meta, src)
                .map_err(|e| e.to_string())?;
            Ok(format!("lowered {} schema(s)", lowered.len()))
        }
        EvolutionOp::AddAttr { ty, name, domain } => {
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let d = mgr
                .meta
                .resolve_type_ref(domain)
                .map_err(|e| e.to_string())?;
            mgr.meta.add_attr(t, name, d).map_err(|e| e.to_string())?;
            Ok(format!("+Attr({ty}, {name}, {domain})"))
        }
        EvolutionOp::DelAttr { ty, name } => {
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let removed = mgr.meta.remove_attr(t, name).map_err(|e| e.to_string())?;
            Ok(if removed {
                format!("-Attr({ty}, {name})")
            } else {
                "no such attribute".into()
            })
        }
        EvolutionOp::DelType { ty, semantics } => {
            let t = mgr.meta.resolve_type_ref(ty).map_err(|e| e.to_string())?;
            let sem = DeleteTypeSemantics::parse(semantics).ok_or_else(|| {
                format!(
                    "unknown delete semantics `{semantics}` ({})",
                    DeleteTypeSemantics::CHOICES
                )
            })?;
            let report = delete_type(mgr, t, sem).map_err(|e| e.to_string())?;
            Ok(format!(
                "deleted: {} fact(s) removed, {} edge(s) reconnected, {} instance(s) deleted",
                report.facts_removed, report.reconnected, report.instances_deleted
            ))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gom_model::MetaModel;

    /// A sink that counts `write` calls, to tell one write per frame from
    /// a header write followed by a payload write.
    #[derive(Default)]
    struct Sink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The one frame in `sink`, decoded.
    fn only_reply(sink: Sink) -> Reply {
        assert_eq!(sink.writes, 1, "one write per frame");
        let mut r = io::Cursor::new(sink.bytes);
        let payload = wire::read_frame(&mut r).unwrap().expect("one frame");
        assert!(
            wire::read_frame(&mut r).unwrap().is_none(),
            "one frame only"
        );
        Reply::decode(&payload).unwrap()
    }

    #[test]
    fn oversized_reply_is_answered_with_a_typed_error() {
        let reply = Reply::Ok("x".repeat(wire::MAX_FRAME as usize + 1));
        let mut sink = Sink::default();
        write_reply(&mut sink, &reply).unwrap();
        // The slow log names what was sent, not what was asked for.
        assert_eq!(Answer::Reply(reply).status(), "internal");
        let mut frame = Vec::new();
        wire::begin_frame(&mut frame);
        frame.resize(8 + wire::MAX_FRAME as usize + 1, 0);
        assert!(seal_reply(&mut frame), "an oversized payload is replaced");
        match only_reply(sink) {
            Reply::Error {
                kind: ErrorKind::Internal,
                message,
            } => {
                assert!(message.contains(&(wire::MAX_FRAME as usize + 6).to_string()));
                assert!(message.contains(&wire::MAX_FRAME.to_string()));
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        }
    }

    #[test]
    fn rows_render_like_const_display() {
        let mut db = Database::new();
        db.load(
            "base R(a, b).\n\
             R('Straße', -42).\n\
             R('λ-attr', 7).\n\
             R('', 9223372036854775807).\n\
             R('車', -9223372036854775808).\n",
        )
        .unwrap();
        let (names, rows) = db.query_text("R(A, B)").unwrap();
        assert_eq!(rows.len(), 4);
        let expected: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| c.display(db.interner()).to_string())
                    .collect()
            })
            .collect();
        for cell in [
            "Straße",
            "-42",
            "",
            "9223372036854775807",
            "-9223372036854775808",
        ] {
            assert!(expected.iter().flatten().any(|c| c == cell), "{cell}");
        }
        let (frame, status) = query_frame(&mut db, "R(A, B)");
        assert_eq!(status, "rows");
        let mut sink = Sink::default();
        io::Write::write_all(&mut sink, &frame).unwrap();
        let rows = Reply::Rows {
            names,
            rows: expected,
        };
        assert_eq!(&frame[8..], rows.encode(), "bytes of the rendered reply");
        assert_eq!(only_reply(sink), rows);
    }

    #[test]
    fn a_bad_query_is_a_typed_error_frame() {
        let mut db = Database::new();
        db.load("base R(a).").unwrap();
        for bad in ["Nope(X)", "R(9223372036854775808)"] {
            let (frame, status) = query_frame(&mut db, bad);
            assert_eq!(status, "bad-request");
            let payload = wire::read_frame(&mut frame.as_slice()).unwrap().unwrap();
            match Reply::decode(&payload).unwrap() {
                Reply::Error {
                    kind: ErrorKind::BadRequest,
                    ..
                } => {}
                other => panic!("{bad}: expected a typed bad-request, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_digest_frame_is_built_once_and_written_as_is() {
        let mut meta = MetaModel::new().expect("meta");
        meta.new_schema("S").expect("schema");
        let snap = Snapshot::capture(7, &meta);
        let mut sink = Sink::default();
        write_digest(&mut sink, &snap).unwrap();
        let frame = snap.digest_frame().expect("fits one frame");
        assert_eq!(sink.bytes, frame, "the stored frame, byte for byte");
        let again = snap.digest_frame().expect("fits one frame");
        assert_eq!(frame.as_ptr(), again.as_ptr(), "built once");
        let expected = format!("epoch 7\n{}", meta.db.debug_state_digest());
        assert_eq!(snap.digest(), &expected["epoch 7\n".len()..]);
        assert_eq!(only_reply(sink), Reply::Ok(expected));
    }
}
