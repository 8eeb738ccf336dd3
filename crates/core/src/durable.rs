//! Durable evolution sessions: the write-ahead journal behind the
//! schema manager.
//!
//! The paper's evolution session (BES…EES, §3.5) is the natural atomicity
//! unit, and this module makes it the *durability* unit too. When a
//! [`SchemaManager`] has a store attached, only committed sessions reach
//! the `gom-store` journal, with write-ahead discipline:
//!
//! * **BES** and **rollback** do no journal I/O;
//! * **EES (commit)** hands the session's net delta to
//!   [`Journal::commit`], which writes it and its commit boundary as one
//!   append — *before* the in-memory commit, and with an fsync under
//!   [`SyncPolicy::OnCommit`] — so a reported commit survives a crash. A
//!   failed commit leaves no bytes behind and the session stays open;
//! * [`SchemaManager::checkpoint`] rotates the journal down to a full EDB
//!   snapshot, bounding future replay work.
//!
//! A crash at *any* byte leaves either a complete committed session on disk
//! or a tail (torn record, ops without their commit, corrupt CRC) that
//! [`SchemaManager::open`] truncates — recovery always lands exactly on a
//! session boundary, never between BES and EES.
//!
//! Only base facts (the EDB) are journaled. Rules, constraints, and the
//! catalog are reinstalled by [`SchemaManager::new`]; derived facts (the
//! IDB) are re-derived by the existing fixpoint after replay. The Runtime
//! System's object heap is volatile — the store persists the schema base
//! and the schema-level consequences of object operations, not the objects.

use crate::manager::SchemaManager;
use gom_deductive::{Const, Database, Error as DbError, Op, Result as DbResult, Tuple};
use gom_store::{Backend, JConst, JOp, Journal, Replay, SnapshotPred, StoreError, SyncPolicy};
use std::path::Path;

/// What [`SchemaManager::open`] reconstructed from the journal.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was found and used as the replay base.
    pub snapshot_loaded: bool,
    /// Committed sessions replayed (after the snapshot, if any).
    pub sessions_replayed: usize,
    /// Individual base-fact operations re-applied.
    pub ops_applied: usize,
    /// Bytes truncated off the journal tail: torn records, and ops whose
    /// commit never landed.
    pub truncated_bytes: u64,
    /// Total journal bytes the recovery scan examined (durable prefix +
    /// truncated tail).
    pub bytes_scanned: u64,
    /// Why the recovery scan stopped early, when it did.
    pub torn: Option<String>,
}

impl RecoveryReport {
    /// True when recovery had to discard anything (a torn or uncommitted
    /// tail) — the recovered state is still exactly a session boundary.
    pub fn recovered_from_crash(&self) -> bool {
        self.torn.is_some() || self.truncated_bytes > 0
    }

    /// One-line recovery summary, e.g.
    /// `recovery: 12 op(s) replayed (3 session(s)), 4821 bytes scanned, tail truncated: no`.
    pub fn summary_line(&self) -> String {
        format!(
            "recovery: {} op(s) replayed ({} session(s)), {} bytes scanned, tail truncated: {}",
            self.ops_applied,
            self.sessions_replayed,
            self.bytes_scanned,
            if self.truncated_bytes > 0 {
                "yes"
            } else {
                "no"
            }
        )
    }
}

/// Error opening a durable store.
#[derive(Debug)]
pub enum OpenError {
    /// The journal itself failed (I/O, bad magic).
    Store(StoreError),
    /// Replaying the journal into a fresh manager failed.
    Db(DbError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Store(e) => write!(f, "{e}"),
            OpenError::Db(e) => write!(f, "replaying journal: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<StoreError> for OpenError {
    fn from(e: StoreError) -> Self {
        OpenError::Store(e)
    }
}

/// Journal failures surface through the session protocol as database
/// errors; the session they interrupt stays open (and rollbackable).
pub(crate) fn db_err(e: StoreError) -> DbError {
    DbError::SessionProtocol(format!("durable store: {e}"))
}

pub(crate) fn to_jop(db: &Database, op: &Op) -> JOp {
    let (insert, pred, tuple) = match op {
        Op::Insert(p, t) => (true, p, t),
        Op::Delete(p, t) => (false, p, t),
    };
    JOp {
        insert,
        pred: db.pred_name(*pred).to_string(),
        tuple: tuple.iter().map(|c| to_jconst(db, c)).collect(),
    }
}

fn to_jconst(db: &Database, c: Const) -> JConst {
    match c {
        Const::Int(n) => JConst::Int(n),
        Const::Sym(s) => JConst::Sym(db.resolve(s).to_string()),
    }
}

fn from_jconst(db: &mut Database, c: &JConst) -> Const {
    match c {
        JConst::Int(n) => Const::Int(*n),
        JConst::Sym(s) => db.constant(s),
    }
}

fn from_jrow(db: &mut Database, row: &[JConst]) -> Tuple {
    Tuple::from(row.iter().map(|c| from_jconst(db, c)).collect::<Vec<_>>())
}

/// The full EDB as snapshot records: every base predicate (auxiliary `__`
/// predicates excluded), sorted by name, rows sorted — deterministic, so
/// identical states produce identical snapshots.
fn snapshot_records(db: &Database) -> Vec<SnapshotPred> {
    let mut preds: Vec<_> = db
        .base_preds()
        .filter(|&p| !db.pred_name(p).starts_with("__"))
        .collect();
    preds.sort_by_key(|&p| db.pred_name(p).to_string());
    preds
        .into_iter()
        .map(|p| SnapshotPred {
            pred: db.pred_name(p).to_string(),
            arity: db.pred_decl(p).arity as u16,
            rows: db
                .facts_sorted(p)
                .iter()
                .map(|t| t.iter().map(|c| to_jconst(db, c)).collect())
                .collect(),
        })
        .collect()
}

/// Reshape the fresh manager's EDB into the snapshot: remove facts the
/// snapshot lacks, insert facts it has, declare predicates it introduces.
/// Diffing (rather than clearing wholesale) keeps the catalog predicates
/// installed by [`SchemaManager::new`] aligned without re-deriving them.
fn apply_snapshot(db: &mut Database, snapshot: &[SnapshotPred]) -> DbResult<()> {
    use std::collections::BTreeMap;
    let mut target: BTreeMap<&str, &SnapshotPred> =
        snapshot.iter().map(|sp| (sp.pred.as_str(), sp)).collect();
    // Existing base predicates: diff toward the snapshot (empty when the
    // snapshot does not mention them).
    let existing: Vec<_> = db.base_preds().collect();
    for p in existing {
        let name = db.pred_name(p).to_string();
        if name.starts_with("__") {
            continue;
        }
        let want: Vec<Tuple> = match target.remove(name.as_str()) {
            Some(sp) => sp.rows.iter().map(|r| from_jrow(db, r)).collect(),
            None => Vec::new(),
        };
        let have = db.facts_sorted(p);
        for t in &have {
            if !want.contains(t) {
                db.remove(p, t)?;
            }
        }
        for t in want {
            if !db.contains(p, &t) {
                db.insert(p, t)?;
            }
        }
    }
    // Predicates the snapshot introduces that the fresh manager lacks
    // (e.g. declared by user consistency definitions, which are not
    // persisted themselves).
    for (name, sp) in target {
        let p = db.declare_base(name, sp.arity as usize)?;
        for row in &sp.rows {
            let t = from_jrow(db, row);
            db.insert(p, t)?;
        }
    }
    Ok(())
}

fn apply_jop(db: &mut Database, jop: &JOp) -> DbResult<()> {
    let pred = match db.pred_id(&jop.pred) {
        Some(p) => p,
        None => db.declare_base(&jop.pred, jop.tuple.len())?,
    };
    let tuple = from_jrow(db, &jop.tuple);
    if jop.insert {
        db.insert(pred, tuple)?;
    } else {
        db.remove(pred, &tuple)?;
    }
    Ok(())
}

impl SchemaManager {
    /// Open (or create) a durable schema manager backed by the journal file
    /// at `path`: recover the committed state, truncate any torn or
    /// in-flight tail, re-derive the IDB, and keep journaling subsequent
    /// sessions.
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<(Self, RecoveryReport), OpenError> {
        let (journal, replay) = Journal::open_path(path, policy)?;
        Self::from_journal(journal, replay)
    }

    /// Like [`Self::open`] over an arbitrary [`Backend`] — the
    /// fault-injection harness mounts in-memory and failpoint backends
    /// through this.
    pub fn open_backend(
        backend: Box<dyn Backend>,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), OpenError> {
        let (journal, replay) = Journal::open(backend, policy)?;
        Self::from_journal(journal, replay)
    }

    fn from_journal(journal: Journal, replay: Replay) -> Result<(Self, RecoveryReport), OpenError> {
        let _sp = gom_obs::span("session.recover");
        let mut mgr = SchemaManager::new().map_err(OpenError::Db)?;
        let mut report = RecoveryReport {
            snapshot_loaded: replay.snapshot.is_some(),
            sessions_replayed: replay.sessions_replayed,
            truncated_bytes: replay.truncated_bytes,
            bytes_scanned: replay.durable_len + replay.truncated_bytes,
            torn: replay.torn.clone(),
            ops_applied: 0,
        };
        if let Some(snapshot) = &replay.snapshot {
            apply_snapshot(&mut mgr.meta.db, snapshot).map_err(OpenError::Db)?;
        }
        for jop in &replay.ops {
            apply_jop(&mut mgr.meta.db, jop).map_err(OpenError::Db)?;
            report.ops_applied += 1;
        }
        // Derived facts are never persisted: re-derive them with the
        // ordinary fixpoint over the recovered EDB.
        mgr.meta.db.evaluate().map_err(OpenError::Db)?;
        mgr.set_store(Some(journal));
        gom_obs::event(
            "journal.recovery",
            &[
                (
                    "ops_replayed",
                    gom_obs::Field::U64(report.ops_applied as u64),
                ),
                (
                    "sessions_replayed",
                    gom_obs::Field::U64(report.sessions_replayed as u64),
                ),
                ("bytes_scanned", gom_obs::Field::U64(report.bytes_scanned)),
                (
                    "tail_truncated",
                    gom_obs::Field::Bool(report.truncated_bytes > 0),
                ),
            ],
        );
        Ok((mgr, report))
    }

    /// Rotate the journal down to a full EDB snapshot: the entire history
    /// is replaced by one snapshot record via a crash-safe
    /// write-to-temp / fsync / atomic-rename sequence, so the journal file
    /// size after a checkpoint is bounded by the snapshot itself rather
    /// than growing with every session ever committed. Refused inside an
    /// evolution session (a snapshot is a session boundary). Returns the
    /// journal end offset.
    pub fn checkpoint(&mut self) -> DbResult<u64> {
        let _sp = gom_obs::span("session.checkpoint");
        if self.in_evolution() {
            return Err(DbError::SessionProtocol(
                "cannot checkpoint inside an evolution session".into(),
            ));
        }
        let snap = snapshot_records(&self.meta.db);
        let journal = self.store_mut().ok_or_else(|| {
            DbError::SessionProtocol("no durable store attached (open with --store)".into())
        })?;
        journal.rotate(&snap).map_err(db_err)
    }

    /// Is a durable store attached?
    pub fn has_store(&self) -> bool {
        self.store_ref().is_some()
    }

    /// Current end-of-journal byte offset, when a store is attached.
    pub fn store_position(&self) -> Option<u64> {
        self.store_ref().map(|j| j.position())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gom_analyzer::car_schema::CAR_SCHEMA_SRC;
    use gom_store::MemBackend;

    fn open_mem(mem: &MemBackend) -> (SchemaManager, RecoveryReport) {
        SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit)
            .expect("open_backend")
    }

    #[test]
    fn committed_schema_survives_reopen() {
        let mem = MemBackend::new();
        let (mut mgr, r0) = open_mem(&mem);
        assert_eq!(r0.sessions_replayed, 0);
        mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
        let dump = mgr.meta.db.dump_facts();
        drop(mgr);

        let (mut mgr2, r) = open_mem(&mem);
        assert_eq!(r.sessions_replayed, 1);
        assert!(!r.recovered_from_crash());
        assert_eq!(mgr2.meta.db.dump_facts(), dump);
        assert!(mgr2.check().expect("check").is_empty());
        // Recovered ids must not collide: evolving further still works.
        let sid = mgr2.meta.schema_by_name("CarSchema").expect("schema");
        assert!(mgr2.meta.type_by_name(sid, "Car").is_some());
    }

    #[test]
    fn rollback_leaves_no_durable_trace() {
        let mem = MemBackend::new();
        let (mut mgr, _) = open_mem(&mem);
        mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
        let dump = mgr.meta.db.dump_facts();
        let pos = mgr.store_position();
        mgr.begin_evolution().expect("bes");
        assert_eq!(mgr.store_position(), pos, "BES writes nothing");
        let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
        let car = mgr.meta.type_by_name(sid, "Car").expect("car");
        let string = mgr.meta.builtins.string;
        mgr.meta.add_attr(car, "fuelType", string).expect("attr");
        mgr.rollback_evolution().expect("rollback");
        assert_eq!(mgr.store_position(), pos, "rollback writes nothing");
        assert_eq!(mem.bytes().len() as u64, pos.expect("store attached"));
        drop(mgr);

        let (mgr2, r) = open_mem(&mem);
        assert_eq!(r.sessions_replayed, 1);
        assert!(!r.recovered_from_crash());
        assert_eq!(mgr2.meta.db.dump_facts(), dump);
    }

    #[test]
    fn checkpoint_resets_replay_base_and_preserves_state() {
        let mem = MemBackend::new();
        let (mut mgr, _) = open_mem(&mem);
        mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
        mgr.checkpoint().expect("checkpoint");
        let dump = mgr.meta.db.dump_facts();
        drop(mgr);

        let (mgr2, r) = open_mem(&mem);
        assert!(r.snapshot_loaded);
        assert_eq!(r.sessions_replayed, 0, "snapshot absorbed the session");
        assert_eq!(mgr2.meta.db.dump_facts(), dump);
    }

    #[test]
    fn dangling_bes_leaves_no_durable_trace() {
        let mem = MemBackend::new();
        let (mut mgr, _) = open_mem(&mem);
        mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
        let dump = mgr.meta.db.dump_facts();
        let pos = mgr.store_position();
        // Crash mid-session: BES and an op, no EES ever.
        mgr.begin_evolution().expect("bes");
        let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
        mgr.meta.new_type(sid, "Truck").expect("type");
        assert_eq!(mgr.store_position(), pos, "an open session writes nothing");
        drop(mgr);

        let (mgr2, r) = open_mem(&mem);
        assert!(!r.recovered_from_crash());
        assert_eq!(mgr2.store_position(), pos);
        assert_eq!(mgr2.meta.db.dump_facts(), dump);
        assert!(!mgr2.in_evolution());
    }

    #[test]
    fn checkpoint_refused_mid_session() {
        let mem = MemBackend::new();
        let (mut mgr, _) = open_mem(&mem);
        mgr.begin_evolution().expect("bes");
        assert!(mgr.checkpoint().is_err());
        mgr.rollback_evolution().expect("rollback");
        assert!(mgr.checkpoint().is_ok());
    }
}
