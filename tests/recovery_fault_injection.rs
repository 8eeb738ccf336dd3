//! Fault-injection sweep over the durable session journal.
//!
//! The acceptance property: a crash at *any* byte of the journal — at a
//! record boundary, mid-record, or mid-`write(2)` — recovers to exactly a
//! session boundary. The recovered state equals the pre-BES state or the
//! post-EES state of some committed session, never anything in between,
//! and it passes the consistency check.
//!
//! Two attack paths, both deterministic:
//!
//! * **prefix truncation** — run a scripted schema workload against an
//!   in-memory backend, record the expected state at every session
//!   boundary, then re-mount every truncated image `bytes[..cut]` for
//!   every record boundary plus ≥32 seeded random mid-record offsets;
//! * **partial writes** — re-run the same workload through a
//!   [`FailpointWriter`] that kills the stream at the Nth byte, proving
//!   the writer leaves exactly the reference prefix on "disk" and that
//!   the manager surfaces journal failures as errors, never panics.
//!
//! A third group covers failures the process survives: a commit whose
//! append fails must leave no bytes behind (so a retry commits cleanly),
//! and one whose cleanup fails too must refuse further writes until a
//! reopen.

use gom_obs::SplitMix64;
use gomflex::deductive::Error as DbError;
use gomflex::prelude::*;
use gomflex::store::{Backend, FailpointWriter, MemBackend, StoreError, MAGIC};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Expected durable state at one session boundary of the reference run.
struct Boundary {
    offset: u64,
    dump: String,
    label: &'static str,
}

fn open_mem(mem: &MemBackend) -> (SchemaManager, RecoveryReport) {
    SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit)
        .expect("open_backend on a journal image must recover, not fail")
}

/// The reference run: the scripted workload with every step asserted,
/// capturing the journal offset and EDB dump at each session boundary.
fn run_reference(mem: &MemBackend) -> Vec<Boundary> {
    let (mut mgr, _) = open_mem(mem);
    let snap = |mgr: &SchemaManager, label: &'static str| Boundary {
        offset: mgr.store_position().expect("store attached"),
        dump: mgr.meta.db.dump_facts(),
        label,
    };
    let mut bounds = vec![snap(&mgr, "fresh")];

    mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
    bounds.push(snap(&mgr, "define CarSchema"));

    let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
    let car = mgr.meta.type_by_name(sid, "Car").expect("Car");
    let string = mgr.meta.builtins.string;

    mgr.begin_evolution().expect("bes");
    mgr.meta.add_attr(car, "color", string).expect("add color");
    mgr.rollback_evolution().expect("rollback");
    bounds.push(snap(&mgr, "rolled-back session"));

    mgr.begin_evolution().expect("bes");
    mgr.meta
        .add_attr(car, "fuelType", string)
        .expect("add fuelType");
    let out = mgr.end_evolution().expect("ees");
    assert!(out.is_consistent(), "{:?}", out.violations());
    bounds.push(snap(&mgr, "add fuelType"));

    mgr.begin_evolution().expect("bes");
    let truck = mgr.meta.new_type(sid, "Truck").expect("Truck");
    mgr.meta.add_subtype(truck, car).expect("subtype");
    let out = mgr.end_evolution().expect("ees");
    assert!(out.is_consistent(), "{:?}", out.violations());
    bounds.push(snap(&mgr, "add Truck"));
    bounds
}

/// The same workload with every step tolerated: once the failpoint trips,
/// journal appends error and individual steps fail — the workload presses
/// on regardless, like an application retrying after I/O errors. Nothing
/// here may panic.
fn run_workload_tolerant(mgr: &mut SchemaManager) {
    let _ = mgr.define_schema(CAR_SCHEMA_SRC);
    let string = mgr.meta.builtins.string;
    if let Some(sid) = mgr.meta.schema_by_name("CarSchema") {
        if let Some(car) = mgr.meta.type_by_name(sid, "Car") {
            if mgr.begin_evolution().is_ok() {
                let _ = mgr.meta.add_attr(car, "color", string);
                let _ = mgr.rollback_evolution();
            }
            if mgr.begin_evolution().is_ok() {
                let _ = mgr.meta.add_attr(car, "fuelType", string);
                let _ = mgr.end_evolution();
            }
            if mgr.begin_evolution().is_ok() {
                if let Ok(truck) = mgr.meta.new_type(sid, "Truck") {
                    let _ = mgr.meta.add_subtype(truck, car);
                }
                let _ = mgr.end_evolution();
            }
        }
    }
}

/// End offsets of every framed record (walking the length prefixes), plus
/// the magic boundary itself.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![MAGIC.len()];
    let mut off = MAGIC.len();
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        let end = off + 8 + len as usize;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    ends
}

/// The boundary state recovery must land on for a journal cut at `cut`.
fn expected_at(bounds: &[Boundary], cut: usize) -> &Boundary {
    bounds
        .iter()
        .rfind(|b| b.offset <= cut as u64)
        .unwrap_or(&bounds[0])
}

/// Recover from an image, assert it matches the expected boundary exactly,
/// and (memoized per distinct state) that the recovered state is
/// consistent.
fn assert_recovers_to(
    bytes: &[u8],
    cut: usize,
    bounds: &[Boundary],
    checked: &mut HashSet<String>,
) {
    let mem = MemBackend::new();
    mem.set_bytes(bytes[..cut].to_vec());
    let (mut mgr, report) = open_mem(&mem);
    let expected = expected_at(bounds, cut);
    assert_eq!(
        mgr.meta.db.dump_facts(),
        expected.dump,
        "cut={cut}: recovered state must equal the `{}` boundary ({} bytes), report {report:?}",
        expected.label,
        expected.offset,
    );
    assert_eq!(
        mgr.store_position(),
        Some(expected.offset),
        "cut={cut}: journal must be truncated back to the boundary"
    );
    if cut as u64 > expected.offset {
        assert!(
            report.recovered_from_crash(),
            "cut={cut}: discarding {} bytes must be reported",
            cut as u64 - expected.offset
        );
    }
    assert!(
        !mgr.in_evolution(),
        "cut={cut}: no session survives recovery"
    );
    if checked.insert(expected.dump.clone()) {
        assert!(
            mgr.check().expect("check").is_empty(),
            "cut={cut}: recovered `{}` state must be consistent",
            expected.label
        );
    }
}

/// Truncate the journal at every record boundary and at ≥32 seeded random
/// mid-record offsets; every image must recover to a session boundary.
#[test]
fn truncation_sweep_recovers_to_a_session_boundary() {
    let mem = MemBackend::new();
    let bounds = run_reference(&mem);
    let bytes = mem.bytes();
    assert_eq!(
        bounds.last().expect("boundaries").offset,
        bytes.len() as u64,
        "reference run must end on a session boundary"
    );

    let ends = record_ends(&bytes);
    assert!(
        ends.len() > bounds.len(),
        "ops must be individually framed records"
    );
    let end_set: HashSet<usize> = ends.iter().copied().collect();

    // Every record boundary…
    let mut cuts = ends.clone();
    // …plus ≥32 random mid-record offsets (torn headers, torn payloads).
    let mut rng = SplitMix64::new(0x0901_4e5d_ab1e_0000);
    let mut random_cuts = 0usize;
    while random_cuts < 48 {
        let cut = rng.below(bytes.len() + 1);
        if !end_set.contains(&cut) {
            cuts.push(cut);
            random_cuts += 1;
        }
    }
    assert!(random_cuts >= 32);
    // …plus the degenerate edges: empty image and every partial-magic cut.
    cuts.extend(0..MAGIC.len());
    cuts.sort_unstable();
    cuts.dedup();

    let mut checked = HashSet::new();
    for &cut in &cuts {
        if cut > 0 && cut < MAGIC.len() {
            // A torn magic is unrecoverable by design: refuse loudly rather
            // than silently treating a damaged journal as fresh.
            let mem = MemBackend::new();
            mem.set_bytes(bytes[..cut].to_vec());
            assert!(
                SchemaManager::open_backend(Box::new(mem), SyncPolicy::OnCommit).is_err(),
                "cut={cut}: partial magic must be rejected"
            );
            continue;
        }
        assert_recovers_to(&bytes, cut, &bounds, &mut checked);
    }
}

/// Kill the journal writer at the Nth byte with [`FailpointWriter`]: the
/// surviving prefix is byte-identical to the reference stream, the live
/// manager keeps returning errors (never panics), and re-mounting the
/// partial image recovers to a session boundary.
#[test]
fn failpoint_partial_writes_recover_to_a_session_boundary() {
    let reference = MemBackend::new();
    let bounds = run_reference(&reference);
    let ref_bytes = reference.bytes();
    let ends = record_ends(&ref_bytes);

    // Budgets: every session boundary, a spread of record ends, and ≥32
    // seeded random mid-record byte counts.
    let mut budgets: Vec<usize> = bounds.iter().map(|b| b.offset as usize).collect();
    let mut rng = SplitMix64::new(0xfa11_9019_7e57_0001);
    for _ in 0..12 {
        budgets.push(ends[rng.below(ends.len())]);
    }
    let mut random_budgets = 0usize;
    while random_budgets < 32 {
        let b = MAGIC.len() + rng.below(ref_bytes.len() + 1 - MAGIC.len());
        budgets.push(b);
        random_budgets += 1;
    }
    budgets.sort_unstable();
    budgets.dedup();

    let mut checked = HashSet::new();
    for &budget in &budgets {
        let mem = MemBackend::new();
        let fp = FailpointWriter::new(mem.clone(), budget as u64);
        let (mut mgr, _) = SchemaManager::open_backend(Box::new(fp), SyncPolicy::OnCommit)
            .expect("budget covers the magic, open must succeed");
        run_workload_tolerant(&mut mgr);
        drop(mgr); // crash: whatever reached the inner backend survives

        let survived = mem.bytes();
        let want = &ref_bytes[..budget.min(ref_bytes.len())];
        assert_eq!(
            survived, want,
            "budget={budget}: the failpoint must leave exactly the \
             reference prefix on disk"
        );
        assert_recovers_to(&ref_bytes, survived.len(), &bounds, &mut checked);
    }
}

/// Corrupt a byte in the *middle* of the journal (not the tail): the scan
/// must stop at the corrupted record and recovery must land on the last
/// boundary before it — the later, intact-looking commit record is never
/// replayed.
#[test]
fn corrupted_crc_is_truncated_never_replayed() {
    let mem = MemBackend::new();
    let bounds = run_reference(&mem);
    let bytes = mem.bytes();

    // Corrupt inside the `add fuelType` session: between the boundary it
    // starts after ("rolled-back session") and its own commit boundary.
    let before = bounds
        .iter()
        .find(|b| b.label == "rolled-back session")
        .expect("boundary");
    let after = bounds
        .iter()
        .find(|b| b.label == "add fuelType")
        .expect("boundary");
    let target = (before.offset as usize + after.offset as usize) / 2;
    let mut corrupted = bytes.clone();
    corrupted[target] ^= 0xA5;

    let mem2 = MemBackend::new();
    mem2.set_bytes(corrupted);
    let (mut mgr, report) = open_mem(&mem2);
    assert!(
        report.torn.is_some(),
        "corruption must be detected: {report:?}"
    );
    assert_eq!(
        mgr.meta.db.dump_facts(),
        before.dump,
        "recovery must land on the boundary before the corrupted session"
    );
    assert_ne!(
        mgr.meta.db.dump_facts(),
        after.dump,
        "the corrupted session's commit must NOT be replayed"
    );
    assert_eq!(mgr.store_position(), Some(before.offset));
    assert_eq!(
        mem2.bytes().len() as u64,
        before.offset,
        "the corrupt tail must be physically truncated"
    );
    assert!(mgr.check().expect("check").is_empty());

    // The truncated journal is healthy again: a new session commits and
    // survives a clean reopen.
    let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
    let car = mgr.meta.type_by_name(sid, "Car").expect("Car");
    let string = mgr.meta.builtins.string;
    mgr.begin_evolution().expect("bes");
    mgr.meta.add_attr(car, "repaired", string).expect("attr");
    let out = mgr.end_evolution().expect("ees");
    assert!(out.is_consistent(), "{:?}", out.violations());
    let dump = mgr.meta.db.dump_facts();
    drop(mgr);
    let (mgr2, r) = open_mem(&mem2);
    assert!(!r.recovered_from_crash());
    assert_eq!(mgr2.meta.db.dump_facts(), dump);
}

/// Checkpoint rotation is all-or-nothing: kill the writer at every byte
/// budget across the rotation. A failed rotation leaves the old journal
/// byte-identical (full history, full state); a completed one leaves
/// exactly the snapshot image. Either way, reopening recovers the same
/// logical state, and the post-checkpoint file is *smaller* than the
/// history it replaced (the unbounded-growth bug).
#[test]
fn checkpoint_rotation_kill_sweep() {
    let ref_mem = MemBackend::new();
    let bounds = run_reference(&ref_mem);
    let pre_bytes = ref_mem.bytes();
    let final_dump = &bounds.last().expect("boundaries").dump;

    // Clean rotation first, to learn the rotated image.
    let rot_mem = MemBackend::new();
    rot_mem.set_bytes(pre_bytes.clone());
    let (mut mgr, _) = open_mem(&rot_mem);
    let rotated_len = mgr.checkpoint().expect("checkpoint") as usize;
    drop(mgr);
    let rotated_bytes = rot_mem.bytes();
    assert_eq!(rotated_bytes.len(), rotated_len);
    assert!(
        rotated_len < pre_bytes.len(),
        "rotation must bound the journal by the snapshot size \
         ({rotated_len} vs {} bytes of history)",
        pre_bytes.len()
    );
    let (mgr2, r) = open_mem(&rot_mem);
    assert!(r.snapshot_loaded);
    assert_eq!(r.sessions_replayed, 0, "the snapshot absorbed all history");
    assert_eq!(&mgr2.meta.db.dump_facts(), final_dump);
    drop(mgr2);

    // A second checkpoint must not grow the file: size is bounded by the
    // snapshot, not by how many checkpoints ever ran.
    let (mut mgr3, _) = open_mem(&rot_mem);
    let len2 = mgr3.checkpoint().expect("re-checkpoint") as usize;
    assert_eq!(len2, rotated_len);
    drop(mgr3);

    // Kill sweep: allow `extra` bytes through the failpoint, then crash.
    // The rotation image is written atomically, so every budget below its
    // size must fail without touching the old journal.
    for extra in 0..=rotated_len {
        let mem = MemBackend::new();
        mem.set_bytes(pre_bytes.clone());
        let fp = FailpointWriter::new(mem.clone(), extra as u64);
        let (mut mgr, _) = SchemaManager::open_backend(Box::new(fp), SyncPolicy::OnCommit)
            .expect("clean journal, open must succeed");
        let res = mgr.checkpoint();
        drop(mgr); // crash

        let survived = mem.bytes();
        if extra < rotated_len {
            assert!(
                res.is_err(),
                "extra={extra}: rotation must report the crash"
            );
            assert_eq!(
                survived, pre_bytes,
                "extra={extra}: a failed rotation must leave the old journal untouched"
            );
        } else {
            assert_eq!(res.expect("rotation fits the budget"), rotated_len as u64);
            assert_eq!(
                survived, rotated_bytes,
                "extra={extra}: a completed rotation leaves exactly the snapshot image"
            );
        }
        let (mgr, report) = open_mem(&mem);
        assert_eq!(
            &mgr.meta.db.dump_facts(),
            final_dump,
            "extra={extra}: the logical state survives either outcome"
        );
        assert!(!report.recovered_from_crash(), "extra={extra}: {report:?}");
    }

    // Prefix sweep over the rotated image itself: a cut anywhere inside
    // the snapshot record recovers to the empty (fresh) state, never to a
    // half-applied snapshot.
    let fresh_dump = &bounds[0].dump;
    for cut in MAGIC.len()..rotated_len {
        let mem = MemBackend::new();
        mem.set_bytes(rotated_bytes[..cut].to_vec());
        let (mgr, report) = open_mem(&mem);
        assert_eq!(
            &mgr.meta.db.dump_facts(),
            fresh_dump,
            "cut={cut}: torn snapshot must recover to the fresh state"
        );
        assert!(report.recovered_from_crash() || cut == MAGIC.len());
    }
}

/// Rotation on a real file: crash *before* the atomic rename (modelled by
/// a stale `<journal>.tmp` next to an intact journal) must be swept on the
/// next open, with the old journal's state fully recovered.
#[test]
fn stale_rotation_tmp_is_swept_on_open() {
    let dir = std::env::temp_dir().join(format!("gomflex_rot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("journal.gom");
    let tmp = dir.join("journal.gom.tmp");

    let (mut mgr, _) = SchemaManager::open(&path, SyncPolicy::OnCommit).expect("open");
    mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
    let dump = mgr.meta.db.dump_facts();
    drop(mgr);

    // A crash between writing the replacement and renaming it leaves a tmp
    // file of arbitrary (possibly garbage) content beside the real journal.
    std::fs::write(&tmp, b"half-written snapshot image").expect("write tmp");

    let (mut mgr2, report) = SchemaManager::open(&path, SyncPolicy::OnCommit).expect("reopen");
    assert!(!tmp.exists(), "stale rotation tmp must be removed on open");
    assert_eq!(mgr2.meta.db.dump_facts(), dump);
    assert_eq!(report.sessions_replayed, 1);

    // And a real checkpoint on the file backend rotates in place.
    let before = std::fs::metadata(&path).expect("stat").len();
    let rotated = mgr2.checkpoint().expect("checkpoint");
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), rotated);
    assert!(rotated < before);
    assert!(!tmp.exists(), "rotation must not leave its tmp behind");
    drop(mgr2);
    let (mgr3, r) = SchemaManager::open(&path, SyncPolicy::OnCommit).expect("reopen 2");
    assert!(r.snapshot_loaded);
    assert_eq!(mgr3.meta.db.dump_facts(), dump);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`MemBackend`] that, once armed, writes half of the next append and
/// fails it — what a full disk looks like — and optionally fails every
/// truncate too.
#[derive(Clone, Default)]
struct Flaky {
    mem: MemBackend,
    /// `(half-write the next append, fail truncates)`.
    armed: Arc<Mutex<(bool, bool)>>,
}

impl Flaky {
    fn arm(&self, fail_truncate: bool) {
        *self.armed.lock().expect("lock") = (true, fail_truncate);
    }
}

impl Backend for Flaky {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let half_write = std::mem::take(&mut self.armed.lock().expect("lock").0);
        if half_write {
            self.mem.append(&bytes[..bytes.len() / 2])?;
            return Err(std::io::Error::other("injected: no space left on device"));
        }
        self.mem.append(bytes)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.mem.sync()
    }
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        if self.armed.lock().expect("lock").1 {
            return Err(std::io::Error::other("injected: truncate failed"));
        }
        self.mem.truncate(len)
    }
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.mem.read_all()
    }
}

/// A manager over `flaky` holding the car schema, with a `fuelType`
/// session open on `Car`; also returns the committed dump and bytes.
fn open_fueltype_session(flaky: &Flaky) -> (SchemaManager, String, Vec<u8>) {
    let (mut mgr, _) =
        SchemaManager::open_backend(Box::new(flaky.clone()), SyncPolicy::OnCommit).expect("open");
    mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
    let dump = mgr.meta.db.dump_facts();
    let bytes = flaky.mem.bytes();
    let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
    let car = mgr.meta.type_by_name(sid, "Car").expect("Car");
    let string = mgr.meta.builtins.string;
    mgr.begin_evolution().expect("bes");
    mgr.meta
        .add_attr(car, "fuelType", string)
        .expect("add fuelType");
    (mgr, dump, bytes)
}

/// A commit whose append half-lands and fails (as ENOSPC would) leaves no
/// bytes behind and keeps the session open; the retried EES commits, and
/// the commit survives a reopen.
#[test]
fn transient_append_failure_leaves_no_bytes_and_a_retry_commits() {
    let flaky = Flaky::default();
    let (mut mgr, _, committed) = open_fueltype_session(&flaky);
    flaky.arm(false);
    let err = mgr
        .end_evolution()
        .expect_err("the injected failure surfaces");
    assert!(err.to_string().contains("journal I/O error"), "{err}");
    assert!(
        mgr.in_evolution(),
        "a failed commit leaves the session open"
    );
    let left = flaky.mem.bytes().len() - committed.len();
    assert!(
        left == 0 && flaky.mem.bytes() == committed,
        "nothing of the failed commit may stay in the journal ({left} byte(s) did)"
    );

    let out = mgr.end_evolution().expect("the retried EES commits");
    assert!(out.is_consistent(), "{:?}", out.violations());
    let dump = mgr.meta.db.dump_facts();
    assert!(dump.contains("fuelType"));
    drop(mgr);

    let (mgr2, report) = open_mem(&flaky.mem);
    assert!(!report.recovered_from_crash(), "{report:?}");
    assert_eq!(
        mgr2.meta.db.dump_facts(),
        dump,
        "the acknowledged commit survives"
    );
}

/// When the cleanup truncate fails too, the journal's tail is unknown:
/// every later commit (and checkpoint) gets a typed refusal, and a reopen
/// truncates the torn bytes and lands on the last boundary.
#[test]
fn failed_cleanup_refuses_writes_until_reopen() {
    let flaky = Flaky::default();
    let (mut mgr, committed_dump, committed) = open_fueltype_session(&flaky);
    flaky.arm(true);
    let err = mgr
        .end_evolution()
        .expect_err("the injected failure surfaces");
    assert!(err.to_string().contains("journal I/O error"), "{err}");
    let torn = flaky.mem.bytes().len() - committed.len();
    assert!(torn > 0, "the half-written commit could not be removed");

    let refusal = |res: Result<(), DbError>| match res {
        Err(DbError::SessionProtocol(msg)) => {
            assert!(msg.contains("journal refuses writes"), "{msg}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    };
    refusal(mgr.end_evolution().map(|_| ()));
    assert!(mgr.in_evolution());
    mgr.rollback_evolution().expect("rollback needs no journal");
    refusal(mgr.checkpoint().map(|_| ()));
    drop(mgr);

    let (mgr2, report) = open_mem(&flaky.mem);
    assert!(report.recovered_from_crash());
    assert_eq!(report.truncated_bytes, torn as u64);
    assert!(
        flaky.mem.bytes() == committed,
        "reopen truncates to the boundary"
    );
    assert_eq!(mgr2.meta.db.dump_facts(), committed_dump);
}

/// A journal written in the version-1 format (`Bes`/`EesRollback`
/// records) is refused with `BadMagic` and left untouched, never
/// truncated as a torn tail.
#[test]
fn version_1_journal_is_refused() {
    let mut v1 = b"GOMJRNL1".to_vec();
    let bes_payload = [1u8];
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&gomflex::store::crc32(&bes_payload).to_le_bytes());
    v1.extend_from_slice(&bes_payload);
    let mem = MemBackend::new();
    mem.set_bytes(v1.clone());
    let err = SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit)
        .err()
        .expect("a version-1 journal must be refused");
    assert!(
        matches!(err, OpenError::Store(StoreError::BadMagic)),
        "{err}"
    );
    assert!(mem.bytes() == v1, "a refused journal is left untouched");
}

/// A checkpoint whose snapshot record would exceed `MAX_RECORD` is refused
/// before the backend is touched: the journal keeps the session committed
/// before it, instead of holding a record the recovery scan rejects (which
/// would truncate the whole journal to the bare magic on reopen).
#[test]
fn oversized_checkpoint_is_refused_and_the_journal_survives() {
    use gomflex::store::{JConst, JOp, Journal, SnapshotPred, MAX_RECORD};
    let mem = MemBackend::new();
    let (mut journal, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
    let op = JOp {
        insert: true,
        pred: "P".into(),
        tuple: vec![JConst::Int(1)],
    };
    let pos = journal.commit(std::slice::from_ref(&op)).unwrap();
    // 65 strings of 1 MiB (the longest a record may hold): a body just
    // over 64 MiB.
    let big = "x".repeat(1 << 20);
    let rows: Vec<Vec<JConst>> = (0..=MAX_RECORD >> 20)
        .map(|_| vec![JConst::Sym(big.clone())])
        .collect();
    let snap = [SnapshotPred {
        pred: "P".into(),
        arity: 1,
        rows,
    }];
    let err = journal.rotate(&snap).unwrap_err();
    assert!(matches!(err, StoreError::TooLarge(_)), "{err}");
    drop(snap);
    assert_eq!(journal.position(), pos);
    assert_eq!(mem.bytes().len() as u64, pos, "the journal is untouched");

    let (_, replay) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
    assert!(replay.torn.is_none());
    assert_eq!(replay.sessions_replayed, 1);
    assert_eq!(replay.ops, vec![op]);
}
