//! Chaos-proxy sweep for gomd: hostile networks, exactly-once commits.
//!
//! Every seeded run drives the same logical workload (a schema definition
//! plus two attribute sessions, each committed with an idempotent token)
//! through a [`FaultProxy`] that injects delays, partial writes, stalls
//! past the I/O deadline, mid-frame drops, and byte corruption — on both
//! directions, so commit acks get lost too. The driver recovers the way a
//! real client must: probe by commit token, reacquire the session, check
//! the published snapshot for the session's sentinel, and only then redo.
//!
//! After each run the faulted server must be **bit-identical** to an
//! unfaulted twin that ran the workload cleanly — same epoch (exactly one
//! commit per session: no duplicates, no empty commits) and same state
//! digest — with no leaked session, a free writer lock, and (for the
//! journal-backed variant) a recovery replay landing on the same digest.
//!
//! Sweep size: `GOM_CHAOS_SEEDS` seeds in each of two seed blocks, seeds
//! `0..N` and `1_000..1_000 + N` (default 25; `scripts/check.sh` runs 100
//! → 200 runs). Deterministic targeted tests cover the slow-loris
//! timeout, load shedding, duplicate-token commits, and CRC rejection.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gom_server::client::RetryPolicy;
use gom_server::fault::{FaultPlan, FaultProxy, FaultStats};
use gom_server::server::{serve, Config};
use gom_server::wire::{self, ErrorKind, EvolutionOp, Reply, Request};
use gom_server::Client;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

const CAR_SCHEMA: &str = "\
schema CarSchema is
  type Car is
    [ maxspeed : float;
      milage   : float; ]
  end type Car;
end schema CarSchema;
";

const LEASE: Duration = Duration::from_millis(400);
const IO_DEADLINE: Duration = Duration::from_millis(100);

struct TestDirs {
    root: PathBuf,
}

impl TestDirs {
    fn new(tag: &str) -> TestDirs {
        let root = std::env::temp_dir().join(format!("gomd_chaos_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        TestDirs { root }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for TestDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn hardened_config(socket: &Path) -> Config {
    let mut config = Config::in_memory(socket);
    config.lease = LEASE;
    config.io_deadline = IO_DEADLINE;
    config
}

fn connect(socket: &Path) -> Client {
    Client::connect_within(socket, Duration::from_secs(5)).expect("connect")
}

fn ok_text(reply: Reply) -> String {
    match reply {
        Reply::Ok(s) => s,
        other => panic!("expected Ok, got {other:?}"),
    }
}

fn committed_epoch(reply: Reply) -> u64 {
    match reply {
        Reply::Committed { epoch, .. } => epoch,
        other => panic!("expected Committed, got {other:?}"),
    }
}

fn digest(client: &mut Client) -> String {
    ok_text(client.request(&Request::Digest).unwrap())
}

/// One logical evolution session of the chaos workload.
struct WorkSession {
    ops: Vec<Request>,
    /// Query + needle proving (against the published snapshot) that this
    /// session has committed — the driver's at-most-once guard.
    sentinel_query: &'static str,
    sentinel: String,
    token: u64,
}

fn workload(seed: u64) -> Vec<WorkSession> {
    let mut sessions = vec![WorkSession {
        ops: vec![Request::Op(EvolutionOp::Define(CAR_SCHEMA.into()))],
        sentinel_query: "Schema(S, N)",
        sentinel: "CarSchema".into(),
        token: seed * 8 + 1,
    }];
    for si in 1..=2u64 {
        let ops = (0..2)
            .map(|k| {
                Request::Op(EvolutionOp::AddAttr {
                    ty: "Car@CarSchema".into(),
                    name: format!("chaosAttr{si}_{k}"),
                    domain: "string".into(),
                })
            })
            .collect();
        sessions.push(WorkSession {
            ops,
            sentinel_query: "Attr(T, N, D)",
            sentinel: format!("chaosAttr{si}_0"),
            token: seed * 8 + 1 + si,
        });
    }
    sessions
}

/// The chaos driver: a client that survives every fault the proxy can
/// inject, committing each session **exactly once**.
struct Driver {
    sock: PathBuf,
    client: Client,
    policy: RetryPolicy,
}

/// Client-side liveness bound for the driver. A corruption fault can
/// mangle a reply's *length header* without tripping the CRC (the CRC is
/// only checked once the full payload arrives), leaving a plain blocking
/// read waiting forever for bytes the proxy will never send. The timeout
/// turns that wedge into an I/O error, which the recovery protocol
/// already treats as a connection loss. Far above any legitimate wait
/// (lock waits are bounded by the 2 s session timeout).
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(5);

impl Driver {
    fn new(sock: PathBuf, seed: u64) -> Driver {
        let mut client = connect(&sock);
        client
            .set_io_timeout(Some(CLIENT_IO_TIMEOUT))
            .expect("set client io timeout");
        let policy = RetryPolicy {
            attempts: 12,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            seed,
        };
        Driver {
            sock,
            client,
            policy,
        }
    }

    fn reconnect(&mut self) {
        self.client = connect(&self.sock);
        self.client
            .set_io_timeout(Some(CLIENT_IO_TIMEOUT))
            .expect("set client io timeout");
    }

    fn snapshot_contains(&mut self, query: &str, needle: &str) -> std::io::Result<bool> {
        match self.client.request(&Request::Query(query.into()))? {
            Reply::Rows { rows, .. } => Ok(rows
                .iter()
                .any(|row| row.iter().any(|cell| cell.contains(needle)))),
            other => Err(std::io::Error::other(format!(
                "unexpected query reply {other:?}"
            ))),
        }
    }

    /// Commit `session` exactly once, whatever the network does.
    ///
    /// Recovery protocol, re-entered from the top after any connection
    /// loss:
    /// 1. **Token probe** — `Ees{token}` with no session open either
    ///    replays the cached `Committed` (ack was lost: done) or is a
    ///    typed `BadRequest` (not committed).
    /// 2. **Re-open** — `Bes` with backoff; the grant is an ordering
    ///    barrier: any previous incarnation of this session has by then
    ///    either committed (token recorded, snapshot published) or been
    ///    rolled back by hangup/lease-reap.
    /// 3. **Sentinel check** — the published snapshot is queried for this
    ///    session's first schema element. Present ⇒ the commit already
    ///    landed; roll the (empty) probe session back and finish. A
    ///    blind `Ees{token}` here would commit an *empty* delta and
    ///    poison the token — the sentinel read is what makes the redo
    ///    safe.
    /// 4. **Redo + tokened commit.**
    fn commit_session(&mut self, session: &WorkSession) {
        'attempt: for _ in 0..300 {
            match self.client.request(&Request::Ees {
                token: Some(session.token),
            }) {
                Ok(Reply::Committed { token, .. }) => {
                    assert_eq!(token, session.token);
                    return;
                }
                Ok(Reply::Error { kind, .. })
                    if kind == ErrorKind::BadRequest || kind == ErrorKind::LeaseExpired => {}
                Ok(_) | Err(_) => {
                    self.reconnect();
                    continue;
                }
            }
            match self.client.request_retry(&Request::Bes, &self.policy) {
                Ok(Reply::Ok(_)) => {}
                Ok(Reply::Error {
                    kind: ErrorKind::LeaseExpired,
                    ..
                }) => continue,
                Ok(_) | Err(_) => {
                    self.reconnect();
                    continue;
                }
            }
            match self.snapshot_contains(session.sentinel_query, &session.sentinel) {
                Ok(true) => {
                    let _ = self.client.request(&Request::Rollback);
                    return;
                }
                Ok(false) => {}
                Err(_) => {
                    self.reconnect();
                    continue;
                }
            }
            for op in &session.ops {
                match self.client.request(op) {
                    Ok(Reply::Ok(_)) => {}
                    Ok(Reply::Error { .. }) | Err(_) => {
                        // Session lost (reap, hangup, protocol close):
                        // start over from the probe.
                        self.reconnect();
                        continue 'attempt;
                    }
                    Ok(other) => panic!("unexpected op reply {other:?}"),
                }
            }
            match self.client.request(&Request::Ees {
                token: Some(session.token),
            }) {
                Ok(Reply::Committed { token, .. }) => {
                    assert_eq!(token, session.token);
                    return;
                }
                Ok(Reply::Violations(v)) => panic!("attr-only session cannot violate: {v:?}"),
                Ok(Reply::Error { .. }) | Ok(_) | Err(_) => {
                    self.reconnect();
                    continue;
                }
            }
        }
        panic!("chaos driver did not converge on token {}", session.token);
    }
}

/// One seeded chaos run: returns the proxy's fault counts so sweeps can
/// assert injection coverage.
fn run_chaos(seed: u64, store: Option<PathBuf>) -> FaultStats {
    let dirs = TestDirs::new(&format!("run{seed}"));
    let sock = dirs.path("gomd.sock");
    let proxy_sock = dirs.path("proxy.sock");
    let twin_sock = dirs.path("twin.sock");

    let mut config = hardened_config(&sock);
    config.store = store.clone();
    let server = serve(config).expect("faulted server start");
    let twin = serve(hardened_config(&twin_sock)).expect("twin server start");
    let proxy = FaultProxy::spawn(&proxy_sock, &sock, FaultPlan::hostile(seed)).expect("proxy");

    // Hostile path: the driver talks through the proxy.
    let mut driver = Driver::new(proxy_sock.clone(), seed);
    let sessions = workload(seed);
    for session in &sessions {
        driver.commit_session(session);
    }

    // Clean path: the twin runs the identical workload, no faults.
    let mut clean = connect(&twin_sock);
    for (i, session) in sessions.iter().enumerate() {
        ok_text(clean.request(&Request::Bes).unwrap());
        for op in &session.ops {
            ok_text(clean.request(op).unwrap());
        }
        assert_eq!(
            committed_epoch(clean.request(&Request::Ees { token: None }).unwrap()),
            i as u64 + 1
        );
    }

    // Bit-identity, including the epoch: every session committed exactly
    // once on the faulted server — no duplicates, no empty commits.
    let mut direct = connect(&sock);
    let faulted_digest = digest(&mut direct);
    assert_eq!(
        canonical(&faulted_digest),
        canonical(&digest(&mut clean)),
        "seed {seed}: faulted server diverged from unfaulted twin"
    );

    // No leaked session or stuck lock: a fresh writer is admitted within
    // the session timeout, immediately.
    ok_text(direct.request(&Request::Bes).unwrap());
    ok_text(direct.request(&Request::Rollback).unwrap());

    let stats = proxy.stats();
    proxy.stop();
    server.stop();
    twin.stop();

    // Journal-backed runs must recover to the same digest from a cold
    // start.
    if let Some(store_path) = store {
        let recovery_sock = dirs.path("recovered.sock");
        let mut config = hardened_config(&recovery_sock);
        config.store = Some(store_path);
        let recovered = serve(config).expect("recovery start");
        let mut c = connect(&recovery_sock);
        let (_, faulted_body) = faulted_digest.split_once('\n').unwrap();
        let recovered_digest = digest(&mut c);
        let (_, recovered_body) = recovered_digest.split_once('\n').unwrap();
        assert_eq!(
            canonical(recovered_body),
            canonical(faulted_body),
            "seed {seed}: recovery replay diverged"
        );
        recovered.stop();
    }
    stats
}

/// Renumber interner-assigned ids (`tid7`, `sid3`, `clid2`, `oid9`) by
/// order of first appearance. Rolled-back sessions — lease reaps,
/// hangups — consume symbol ids without leaving facts behind, so the
/// faulted server's `tid7` can be the twin's `tid1` for the *same*
/// schema. Comparing canonicalised digests still catches every real
/// divergence (missing, extra, or reordered facts), because first
/// appearance order is a function of the fact content alone.
fn canonical(digest: &str) -> String {
    let mut map: std::collections::HashMap<&str, String> = std::collections::HashMap::new();
    let mut out = String::with_capacity(digest.len());
    let bytes = digest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &digest[start..i];
            let numbered = ["tid", "sid", "clid", "oid"].iter().find_map(|prefix| {
                let rest = word.strip_prefix(prefix)?;
                (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())).then_some(*prefix)
            });
            match numbered {
                Some(prefix) => {
                    let next = map.len();
                    let canon = map
                        .entry(word)
                        .or_insert_with(|| format!("{prefix}#{next}"));
                    out.push_str(canon);
                }
                None => out.push_str(word),
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

fn sweep_seeds() -> u64 {
    std::env::var("GOM_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25)
}

fn accumulate(total: &mut FaultStats, run: FaultStats) {
    total.connections += run.connections;
    total.delays += run.delays;
    total.partials += run.partials;
    total.stalls += run.stalls;
    total.drops += run.drops;
    total.corruptions += run.corruptions;
}

/// With enough seeds, every fault kind must actually have fired — a
/// sweep that injects nothing proves nothing.
fn assert_coverage(total: &FaultStats, seeds: u64) {
    if seeds < 20 {
        return;
    }
    assert!(total.delays > 0, "no delays injected: {total:?}");
    assert!(total.partials > 0, "no partial writes injected: {total:?}");
    assert!(total.corruptions > 0, "no corruption injected: {total:?}");
    assert!(
        total.drops + total.stalls > 0,
        "no drops/stalls injected: {total:?}"
    );
}

fn chaos_sweep(first_seed: u64) {
    let seeds = sweep_seeds();
    let mut total = FaultStats::default();
    for seed in first_seed..first_seed + seeds {
        accumulate(&mut total, run_chaos(seed, None));
    }
    assert_coverage(&total, seeds);
}

#[test]
fn chaos_sweep_seed_block_0() {
    chaos_sweep(0);
}

#[test]
fn chaos_sweep_seed_block_1000() {
    chaos_sweep(1_000);
}

#[test]
fn chaos_with_store_recovers_cleanly() {
    for seed in 0..6u64 {
        let dirs = TestDirs::new(&format!("store{seed}"));
        let store = dirs.path("db.gomj");
        run_chaos(2_000 + seed, Some(store));
    }
}

/// A duplicate tokened EES is applied exactly once: the replay returns
/// the original `(epoch, changes)` and the state does not move.
#[test]
fn duplicate_token_commit_is_applied_once() {
    let dirs = TestDirs::new("dup_token");
    let sock = dirs.path("gomd.sock");
    let server = serve(hardened_config(&sock)).expect("server");
    let mut c = connect(&sock);

    committed_epoch(
        c.request(&Request::Op(EvolutionOp::Define(CAR_SCHEMA.into())))
            .unwrap(),
    );
    ok_text(c.request(&Request::Bes).unwrap());
    ok_text(
        c.request(&Request::Op(EvolutionOp::AddAttr {
            ty: "Car@CarSchema".into(),
            name: "dupAttr".into(),
            domain: "string".into(),
        }))
        .unwrap(),
    );
    let (first_epoch, first_changes) = match c.request(&Request::Ees { token: Some(99) }).unwrap() {
        Reply::Committed {
            epoch,
            changes,
            token,
        } => {
            assert_eq!(token, 99);
            (epoch, changes)
        }
        other => panic!("expected Committed, got {other:?}"),
    };
    assert_eq!(first_epoch, 2);
    let before = digest(&mut c);

    // Retry of the same commit, no session open: replayed, not reapplied.
    match c.request(&Request::Ees { token: Some(99) }).unwrap() {
        Reply::Committed {
            epoch,
            changes,
            token,
        } => {
            assert_eq!((epoch, changes, token), (first_epoch, first_changes, 99));
        }
        other => panic!("expected replayed Committed, got {other:?}"),
    }
    assert_eq!(digest(&mut c), before, "replay must not move the state");

    // An unknown token without a session is a plain BadRequest...
    match c.request(&Request::Ees { token: Some(77) }).unwrap() {
        Reply::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // ...and fresh commits still advance the epoch past replays.
    ok_text(c.request(&Request::Bes).unwrap());
    ok_text(
        c.request(&Request::Op(EvolutionOp::AddAttr {
            ty: "Car@CarSchema".into(),
            name: "afterDup".into(),
            domain: "string".into(),
        }))
        .unwrap(),
    );
    assert_eq!(
        committed_epoch(c.request(&Request::Ees { token: Some(100) }).unwrap()),
        3
    );
    server.stop();
}

/// A slow-loris client — a frame begun but never finished — gets a typed
/// `Timeout` at the I/O deadline and a close, and does not affect other
/// clients.
#[test]
fn slow_loris_partial_frame_times_out() {
    let dirs = TestDirs::new("loris");
    let sock = dirs.path("gomd.sock");
    let server = serve(hardened_config(&sock)).expect("server");

    let mut loris = UnixStream::connect(&sock).unwrap();
    // First half of a legitimate frame: a 12-byte header+payload cut at
    // byte 5. The server must not wait forever for the rest.
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &Request::Stats.encode()).unwrap();
    loris.write_all(&frame[..5]).unwrap();

    match wire::read_frame(&mut loris).unwrap() {
        Some(reply) => match Reply::decode(&reply).unwrap() {
            Reply::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Timeout, "{message}");
                assert!(message.contains("deadline"), "{message}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        },
        None => panic!("expected a Timeout reply before the close"),
    }
    // The connection is closed after the timeout reply.
    let mut rest = Vec::new();
    assert_eq!(loris.read_to_end(&mut rest).unwrap_or(0), 0);

    // Other clients are unaffected.
    let mut c = connect(&sock);
    assert!(digest(&mut c).starts_with("epoch 0"));
    server.stop();
}

/// At the connection bound the accept loop sheds with a structured
/// `Overloaded{active,max}` frame; capacity returns once a connection
/// closes, and the client retry policy surfaces the final rejection.
#[test]
fn overload_sheds_with_typed_reply_and_recovers() {
    let dirs = TestDirs::new("shed");
    let sock = dirs.path("gomd.sock");
    let mut config = hardened_config(&sock);
    config.max_connections = 2;
    let server = serve(config).expect("server");

    // Fill both slots, with a request each so admission is ordered.
    let mut c1 = connect(&sock);
    digest(&mut c1);
    let mut c2 = connect(&sock);
    digest(&mut c2);

    // The third connection is shed before any request is read.
    let mut shed = UnixStream::connect(&sock).unwrap();
    match wire::read_frame(&mut shed).unwrap() {
        Some(frame) => match Reply::decode(&frame).unwrap() {
            Reply::Overloaded { active, max } => {
                assert_eq!((active, max), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        },
        None => panic!("expected an Overloaded frame before the close"),
    }

    // request_retry reconnects per attempt and returns the typed final
    // rejection once attempts are exhausted — not a panic, not a hang.
    let mut c3 = Client::connect(&sock).unwrap();
    let policy = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        seed: 1,
    };
    match c3.request_retry(&Request::Digest, &policy) {
        Ok(Reply::Overloaded { .. }) | Err(_) => {}
        other => panic!("expected Overloaded after retries, got {other:?}"),
    }

    // Freeing a slot restores admission.
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect_within(&sock, Duration::from_secs(5)).unwrap();
        if let Ok(Reply::Ok(text)) = retry.request(&Request::Digest) {
            assert!(text.starts_with("epoch 0"));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shed capacity never recovered"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
}

/// A CRC-corrupt frame gets a typed `Protocol` error and a close — the
/// server never resynchronises a corrupt stream by guessing.
#[test]
fn corrupt_frame_gets_typed_protocol_error() {
    let dirs = TestDirs::new("crc");
    let sock = dirs.path("gomd.sock");
    let server = serve(hardened_config(&sock)).expect("server");

    let mut evil = UnixStream::connect(&sock).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &Request::Stats.encode()).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    evil.write_all(&frame).unwrap();

    match wire::read_frame(&mut evil).unwrap() {
        Some(reply) => match Reply::decode(&reply).unwrap() {
            Reply::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected Protocol error, got {other:?}"),
        },
        None => panic!("expected a Protocol error before the close"),
    }
    let mut rest = Vec::new();
    assert_eq!(evil.read_to_end(&mut rest).unwrap_or(0), 0);

    let mut fine = connect(&sock);
    assert!(digest(&mut fine).starts_with("epoch 0"));
    server.stop();
}
