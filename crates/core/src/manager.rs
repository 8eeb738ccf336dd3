//! The schema manager: evolution sessions and the §3.5 protocol.
//!
//! > 1. The user starts a schema evolution session. 2. The user proposes
//! > change(s) and suggests to end the session. 3. The Analyzer extracts
//! > the necessary changes to the extensions of the base predicates. 4. The
//! > Consistency Control performs a consistency check. 5. If no violation
//! > was detected, the session ends successfully. 6. Otherwise repairs are
//! > derived upon user request … 8. …undoing the evolution session is
//! > always among the repairs. 9. The chosen repair is executed and the
//! > session ends successfully.
//!
//! [`SchemaManager`] wires the Analyzer, the Runtime System, and the
//! Consistency Control around the shared Database Model and exposes exactly
//! this protocol: step by step ([`SchemaManager::begin_evolution`] …
//! [`SchemaManager::end_evolution`]), or as one micro-session that commits
//! or rolls back ([`SchemaManager::autocommit`]).

use crate::consistency;
use crate::explain::{explain_repair, ExplainedRepair};
use gom_analyzer::lower::{AnalyzeError, Analyzer, LoweredSchema};
use gom_deductive::{ChangeSet, Error as DbError, Repair, Result as DbResult, Violation};
use gom_impact::{ImpactIndex, PlanConfig, PlanReport};
use gom_lint::{Baseline, LintConfig, LintReport, Severity};
use gom_model::{MetaModel, Oid, TypeId};
use gom_runtime::{RtResult, Runtime, Value};

/// Outcome of ending an evolution session (EES).
#[derive(Debug)]
pub enum EvolutionOutcome {
    /// The session committed; the net change set is returned.
    Consistent(ChangeSet),
    /// Violations were detected; the session stays open so the user can
    /// request repairs, apply one, or roll back.
    Inconsistent(Vec<Violation>),
}

impl EvolutionOutcome {
    /// True when the session committed.
    pub fn is_consistent(&self) -> bool {
        matches!(self, EvolutionOutcome::Consistent(_))
    }

    /// The violations, when inconsistent.
    pub fn violations(&self) -> &[Violation] {
        match self {
            EvolutionOutcome::Consistent(_) => &[],
            EvolutionOutcome::Inconsistent(v) => v,
        }
    }
}

/// The schema manager of Figure 1: Analyzer + Runtime System + Consistency
/// Control around the Database Model.
pub struct SchemaManager {
    /// The Database Model (schema base + object base model) with the
    /// consistency definition loaded.
    pub meta: MetaModel,
    /// The Analyzer front end.
    pub analyzer: Analyzer,
    /// The Runtime System.
    pub runtime: Runtime,
    /// Definition counts right after system setup; user-facing lints skip
    /// everything below this baseline.
    lint_baseline: Baseline,
    /// When set, [`Self::end_evolution`] refuses to commit a session whose
    /// schema base lints at this severity or worse.
    lint_gate: Option<Severity>,
    /// The durable session journal, when opened via
    /// [`SchemaManager::open`] (see [`crate::durable`]).
    store: Option<gom_store::Journal>,
    /// Cached impact index; rebuilt when the definition fingerprint moves.
    impact: Option<ImpactIndex>,
}

impl SchemaManager {
    /// Create a schema manager with the full GOM consistency definition
    /// installed.
    pub fn new() -> DbResult<Self> {
        let mut meta = MetaModel::new()?;
        Analyzer::install_extensions(&mut meta)
            .map_err(|e| DbError::SessionProtocol(e.to_string()))?;
        consistency::install(&mut meta)?;
        let lint_baseline = Baseline::current(&meta.db);
        Ok(SchemaManager {
            meta,
            analyzer: Analyzer::new(),
            runtime: Runtime::new(),
            lint_baseline,
            lint_gate: None,
            store: None,
            impact: None,
        })
    }

    pub(crate) fn set_store(&mut self, store: Option<gom_store::Journal>) {
        self.store = store;
    }

    pub(crate) fn store_ref(&self) -> Option<&gom_store::Journal> {
        self.store.as_ref()
    }

    pub(crate) fn store_mut(&mut self) -> Option<&mut gom_store::Journal> {
        self.store.as_mut()
    }

    // ----- linting ---------------------------------------------------------

    /// Lint the schema base (system definitions exempt).
    pub fn lint(&mut self) -> LintReport {
        let cfg = self.lint_config();
        gom_lint::lint_database(&mut self.meta.db, &cfg)
    }

    /// The lint configuration this manager uses (exposes the baseline so
    /// front ends can lint source text with the same exemptions).
    pub fn lint_config(&self) -> LintConfig {
        LintConfig {
            baseline: self.lint_baseline,
            ..LintConfig::default()
        }
    }

    /// Refuse to commit evolution sessions whose schema base lints at
    /// `level` or worse (`None` disables the gate).
    pub fn set_lint_gate(&mut self, level: Option<Severity>) {
        self.lint_gate = level;
    }

    /// When the lint gate is armed and trips, return the blocking error;
    /// the session stays open so the user can repair or roll back.
    fn check_lint_gate(&mut self) -> DbResult<()> {
        let Some(level) = self.lint_gate else {
            return Ok(());
        };
        let report = self.lint();
        if report.denies(level) {
            return Err(DbError::SessionProtocol(format!(
                "lint gate ({}): {} error(s), {} warning(s), {} note(s) — commit refused",
                level.name(),
                report.count(Severity::Error),
                report.count(Severity::Warn),
                report.count(Severity::Note),
            )));
        }
        Ok(())
    }

    // ----- impact analysis -------------------------------------------------

    /// Build or reuse the cached impact index for the current definitions.
    fn impact_index(&mut self) -> DbResult<&ImpactIndex> {
        let fresh = self
            .impact
            .as_ref()
            .is_some_and(|i| i.is_fresh(&self.meta.db));
        if fresh {
            gom_obs::counter_add("impact.index.hits", 1);
        } else {
            self.impact = Some(ImpactIndex::build(&mut self.meta.db)?);
        }
        match self.impact.as_ref() {
            Some(i) => Ok(i),
            None => Err(DbError::SessionProtocol("impact index unavailable".into())),
        }
    }

    /// Pre-EES commit planner: the impact footprint, breaking/non-breaking
    /// classification, and `L06xx` diagnostics for the currently open
    /// session's net delta. Requires an open session (it plans the EES you
    /// have not run yet).
    pub fn plan(&mut self) -> DbResult<PlanReport> {
        if !self.in_evolution() {
            return Err(DbError::SessionProtocol(
                "no open evolution session (plan runs between BES and EES)".into(),
            ));
        }
        let delta = self.meta.db.session_delta()?;
        self.impact_index()?;
        let Some(index) = self.impact.as_ref() else {
            return Err(DbError::SessionProtocol("impact index unavailable".into()));
        };
        Ok(gom_impact::plan(
            &self.meta.db,
            index,
            &delta,
            &PlanConfig::default(),
        ))
    }

    // ----- session protocol ------------------------------------------------------

    /// Step 1 — BES: begin an evolution session. No journal I/O: only a
    /// committed session reaches the durable store, at EES.
    ///
    /// Arms IDB maintenance first, so every primitive inside the session
    /// feeds its delta through DRed and EES, check, query, why and repairs
    /// read the maintained IDB (O(Δ) per op, flat in schema size). Arming
    /// is a no-op when an earlier session, committed or rolled back, left
    /// the IDB armed. A BES that cannot arm opens nothing.
    pub fn begin_evolution(&mut self) -> DbResult<()> {
        let _sp = gom_obs::span("session.bes");
        self.meta.db.ensure_maintained()?;
        self.meta.db.begin_session()?;
        self.analyzer.forget_undo();
        Ok(())
    }

    /// Is a session active?
    pub fn in_evolution(&self) -> bool {
        self.meta.db.in_session()
    }

    /// Steps 4–5 — EES: read the violations of the constraints the
    /// session's delta affects from the maintained IDB. On success the
    /// session commits; on violations it stays open.
    pub fn end_evolution(&mut self) -> DbResult<EvolutionOutcome> {
        let _sp = gom_obs::span("session.ees");
        let delta = self.meta.db.session_delta()?;
        if gom_obs::enabled() {
            gom_obs::counter_add("session.delta.ops", delta.ops.len() as u64);
        }
        let violations = self.meta.db.check_maintained(&delta)?;
        if violations.is_empty() {
            self.check_lint_gate()?;
            self.journal_commit(&delta)?;
            let delta = self.meta.db.commit_session()?;
            self.analyzer.forget_undo();
            gom_obs::counter_add("session.commits", 1);
            Ok(EvolutionOutcome::Consistent(delta))
        } else {
            gom_obs::counter_add("session.inconsistent", 1);
            Ok(EvolutionOutcome::Inconsistent(violations))
        }
    }

    /// Write-ahead commit: journal the session's delta and its commit
    /// boundary as one append (with a durability barrier) *before* the
    /// in-memory commit. On failure nothing reaches the journal and the
    /// session stays open and rollbackable.
    fn journal_commit(&mut self, delta: &ChangeSet) -> DbResult<()> {
        let Some(j) = self.store.as_mut() else {
            return Ok(());
        };
        let _sp = gom_obs::span("session.journal_commit");
        let ops: Vec<_> = delta
            .ops
            .iter()
            .map(|op| crate::durable::to_jop(&self.meta.db, op))
            .collect();
        j.commit(&ops).map_err(crate::durable::db_err)?;
        Ok(())
    }

    /// Steps 6–7: generate repairs for a violation, each explained in
    /// Analyzer / Runtime-System vocabulary. "Undoing the evolution session
    /// is always among the repairs" — callers additionally have
    /// [`Self::rollback_evolution`].
    pub fn repairs_for(&mut self, v: &Violation) -> DbResult<Vec<ExplainedRepair>> {
        let repairs = self.meta.db.repairs(v)?;
        Ok(repairs
            .into_iter()
            .map(|r| explain_repair(&self.meta, &self.runtime, r))
            .collect())
    }

    /// Step 9: execute a chosen repair (its changes join the session) and
    /// re-check. Returns the new outcome.
    ///
    /// This applies the base-fact changes verbatim. Repairs whose ops have
    /// physical consequences (`−PhRep`, `±Slot`) should go through
    /// [`Self::execute_repair`], which routes them to the Runtime System
    /// first — the paper's "the Consistency Control initiates the execution
    /// of the chosen repair by the Analyzer and/or Runtime System".
    pub fn apply_repair(&mut self, repair: &Repair) -> DbResult<EvolutionOutcome> {
        self.meta.db.apply(&repair.changes)?;
        self.end_evolution()
    }

    /// Step 9, architecturally: execute a repair by routing each operation
    /// to the component that owns it. `−PhRep(c, t)` means the Runtime
    /// System deletes every instance of `t` (retracting the slots too);
    /// `+Slot(c, a, v)` runs a conversion routine filling the new slot of
    /// every instance with `default`; `−Slot` runs the dropping conversion.
    /// All remaining operations are plain schema-base changes. Ends with a
    /// re-check.
    pub fn execute_repair(
        &mut self,
        repair: &Repair,
        default: gom_runtime::Value,
    ) -> DbResult<EvolutionOutcome> {
        let _sp = gom_obs::span("repair.execute");
        use gom_deductive::Op;
        // A repair generated elsewhere (or hand-built) may not have the
        // column shapes this router expects; reject malformed tuples as
        // errors instead of panicking mid-repair.
        fn sym_col(
            t: &gom_deductive::Tuple,
            i: usize,
            what: &str,
        ) -> DbResult<gom_deductive::Symbol> {
            t.get(i).as_sym().ok_or_else(|| {
                DbError::SessionProtocol(format!(
                    "malformed repair: {what} (column {i}) is not a symbol"
                ))
            })
        }
        for op in &repair.changes.ops {
            let pred_name = self.meta.db.pred_name(op.pred()).to_string();
            match (pred_name.as_str(), op) {
                ("PhRep", Op::Delete(_, t)) => {
                    let ty = gom_model::TypeId(sym_col(t, 1, "PhRep type")?);
                    let oids = self.runtime.objects.oids();
                    for oid in oids {
                        if self.runtime.objects.get(oid).map(|o| o.ty) == Some(ty) {
                            self.runtime
                                .delete(&mut self.meta, oid)
                                .map_err(|e| DbError::SessionProtocol(e.to_string()))?;
                        }
                    }
                    // Deleting the last instance already retracted the
                    // facts; remove explicitly in case there were none.
                    if self.meta.db.contains(op.pred(), t) {
                        if let Some(clid) = self.meta.phrep_of(ty) {
                            for (attr, _) in self.meta.slots_of(clid) {
                                self.meta.remove_slot(clid, &attr)?;
                            }
                        }
                        self.meta.db.remove(op.pred(), t)?;
                    }
                }
                ("Slot", Op::Insert(_, t)) => {
                    let clid = gom_model::PhRepId(sym_col(t, 0, "Slot phrep")?);
                    let attr = self
                        .meta
                        .db
                        .resolve(sym_col(t, 1, "Slot attr")?)
                        .to_string();
                    // Resolve the type behind the representation and the
                    // attribute's domain, then run the conversion.
                    let ty = {
                        let rows = self
                            .meta
                            .db
                            .relation(self.meta.cat.phrep)
                            .select(&[(0, clid.constant())]);
                        let mut rows = rows;
                        rows.next()
                            .and_then(|r| r.get(1).as_sym())
                            .map(gom_model::TypeId)
                    };
                    if let Some(ty) = ty {
                        let domain = self
                            .meta
                            .attrs_inherited(ty)
                            .into_iter()
                            .find(|(n, _)| *n == attr)
                            .map(|(_, d)| d)
                            .unwrap_or(self.meta.builtins.any);
                        self.runtime
                            .convert_add_slot(
                                &mut self.meta,
                                ty,
                                &attr,
                                domain,
                                gom_runtime::ValueSource::Default(default.clone()),
                            )
                            .map_err(|e| DbError::SessionProtocol(e.to_string()))?;
                    }
                    // Ensure the exact fact is present even when the
                    // conversion path differed.
                    if !self.meta.db.contains(op.pred(), t) {
                        self.meta.db.insert(op.pred(), t.clone())?;
                    }
                }
                ("Slot", Op::Delete(_, t)) => {
                    let clid = gom_model::PhRepId(sym_col(t, 0, "Slot phrep")?);
                    let attr = self
                        .meta
                        .db
                        .resolve(sym_col(t, 1, "Slot attr")?)
                        .to_string();
                    let ty = {
                        let rows = self
                            .meta
                            .db
                            .relation(self.meta.cat.phrep)
                            .select(&[(0, clid.constant())]);
                        let mut rows = rows;
                        rows.next()
                            .and_then(|r| r.get(1).as_sym())
                            .map(gom_model::TypeId)
                    };
                    if let Some(ty) = ty {
                        self.runtime
                            .convert_remove_slot(&mut self.meta, ty, &attr)
                            .map_err(|e| DbError::SessionProtocol(e.to_string()))?;
                    }
                    if self.meta.db.contains(op.pred(), t) {
                        self.meta.db.remove(op.pred(), t)?;
                    }
                }
                (_, Op::Insert(p, t)) => {
                    self.meta.db.insert(*p, t.clone())?;
                }
                (_, Op::Delete(p, t)) => {
                    self.meta.db.remove(*p, t)?;
                }
            }
        }
        self.end_evolution()
    }

    /// Roll the whole session back (always-available repair), including
    /// the frames the Analyzer lowered in it. No journal I/O: the session
    /// never reached the journal. The undo is maintained into the IDB like
    /// any other change, so the next BES re-derives nothing.
    pub fn rollback_evolution(&mut self) -> DbResult<()> {
        let _sp = gom_obs::span("session.rollback");
        gom_obs::counter_add("session.rollbacks", 1);
        self.meta.db.rollback_session()?;
        self.analyzer.undo_session();
        Ok(())
    }

    /// Full consistency check outside any session.
    pub fn check(&mut self) -> DbResult<Vec<Violation>> {
        self.meta.db.check()
    }

    // ----- convenience front ends ---------------------------------------------------

    /// Run `f` as one micro-session: BES, `f`, EES. Commits when the
    /// session is consistent and returns `f`'s result with the committed
    /// delta. When `f` errs, the session is inconsistent, or EES itself
    /// errs (lint gate, journal), the session is rolled back: it is closed
    /// on every path.
    pub fn autocommit<T, E>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<(T, ChangeSet), DefineError<E>> {
        self.begin_evolution().map_err(DefineError::Db)?;
        let err = match f(self) {
            Err(e) => DefineError::Op(e),
            Ok(out) => match self.end_evolution() {
                Ok(EvolutionOutcome::Consistent(delta)) => return Ok((out, delta)),
                Ok(EvolutionOutcome::Inconsistent(vs)) => {
                    DefineError::Inconsistent(vs.iter().map(|v| v.render(&self.meta.db)).collect())
                }
                Err(e) => DefineError::Db(e),
            },
        };
        self.rollback_evolution().map_err(DefineError::Db)?;
        Err(err)
    }

    /// Define schemas from GOM source inside one micro-session
    /// ([`Self::autocommit`]): parse, lower, check. On violations the
    /// session is rolled back and the violations returned in the error;
    /// use the step-wise API to repair interactively instead.
    pub fn define_schema(&mut self, src: &str) -> Result<Vec<LoweredSchema>, DefineError> {
        self.autocommit(|mgr| mgr.analyzer.lower_source(&mut mgr.meta, src))
            .map(|(lowered, _)| lowered)
    }

    /// Create an object (delegates to the Runtime System; `PhRep`/`Slot`
    /// facts are reported automatically).
    pub fn create_object(&mut self, t: TypeId) -> RtResult<Oid> {
        self.runtime.create(&mut self.meta, t)
    }

    /// Read an attribute of an object (with masking).
    pub fn get_attr(&mut self, oid: Oid, attr: &str) -> RtResult<Value> {
        self.runtime.get_attr(&mut self.meta, oid, attr)
    }

    /// Write an attribute of an object (with masking).
    pub fn set_attr(&mut self, oid: Oid, attr: &str, v: Value) -> RtResult<()> {
        self.runtime.set_attr(&mut self.meta, oid, attr, v)
    }

    /// Call an operation on an object (dynamic binding, interpretation).
    pub fn call(&mut self, oid: Oid, op: &str, args: &[Value]) -> RtResult<Value> {
        self.runtime.call(&mut self.meta, oid, op, args)
    }

    /// Add consistency definitions (rules and/or constraints) from text —
    /// the paper's "feeding some additional definitions into the
    /// consistency control component".
    pub fn add_consistency(&mut self, text: &str) -> DbResult<()> {
        self.meta.db.load(text)
    }

    /// Drop a constraint by name (changing the definition of consistency).
    pub fn drop_constraint(&mut self, name: &str) -> bool {
        self.meta.db.remove_constraint(name)
    }
}

/// Error from a micro-session ([`SchemaManager::autocommit`]); the session
/// was rolled back. `E` is the error of the session's work, by default
/// that of [`SchemaManager::define_schema`].
#[derive(Debug)]
pub enum DefineError<E = AnalyzeError> {
    /// The session's work failed.
    Op(E),
    /// Consistency violations (rendered).
    Inconsistent(Vec<String>),
    /// Database error, including a refused commit.
    Db(DbError),
}

impl<E: std::fmt::Display> std::fmt::Display for DefineError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefineError::Op(e) => write!(f, "{e}"),
            DefineError::Inconsistent(v) => {
                write!(f, "schema is inconsistent: {}", v.join("; "))
            }
            DefineError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for DefineError<E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use gom_analyzer::car_schema::CAR_SCHEMA_SRC;
    use gom_deductive::RepairKind;

    #[test]
    fn car_schema_defines_consistently() {
        let mut mgr = SchemaManager::new().unwrap();
        let lowered = mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        assert_eq!(lowered.len(), 1);
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn inconsistent_schema_is_rolled_back() {
        let mut mgr = SchemaManager::new().unwrap();
        // An operation without implementation violates decl_has_code.
        let src = "\
schema S is
  type T is
  operations
    declare op : || -> int;
  end type T;
end schema S;";
        let err = mgr.define_schema(src).unwrap_err();
        let DefineError::Inconsistent(v) = err else {
            panic!("expected Inconsistent, got different error");
        };
        assert!(v.iter().any(|s| s.contains("decl_has_code")), "{v:?}");
        // Rollback left no trace.
        assert!(mgr.meta.schema_by_name("S").is_none());
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn paper_fueltype_session_with_repairs() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let sid = mgr.meta.schema_by_name("CarSchema").unwrap();
        let car = mgr.meta.type_by_name(sid, "Car").unwrap();
        // Cars exist (so PhRep/Slot facts exist).
        mgr.create_object(car).unwrap();
        assert!(mgr.check().unwrap().is_empty());
        // §3.5: add fuelType to Car in a session.
        mgr.begin_evolution().unwrap();
        let string = mgr.meta.builtins.string;
        mgr.meta.add_attr(car, "fuelType", string).unwrap();
        let outcome = mgr.end_evolution().unwrap();
        let EvolutionOutcome::Inconsistent(violations) = outcome else {
            panic!("expected inconsistency");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].constraint, "slot_for_every_attr");
        // Repairs, explained.
        let repairs = mgr.repairs_for(&violations[0]).unwrap();
        assert_eq!(
            repairs.len(),
            3,
            "{:?}",
            repairs
                .iter()
                .map(|r| r.render(&mgr.meta))
                .collect::<Vec<_>>()
        );
        let all = repairs
            .iter()
            .map(|r| r.render(&mgr.meta))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(all.contains("remove attribute `fuelType"), "{all}");
        assert!(all.contains("DELETE ALL 1 instance(s)"), "{all}");
        assert!(all.contains("CONVERSION"), "{all}");
        // Choose the conversion repair (insert the slot) and execute the
        // actual conversion in the Runtime System, then apply.
        let conv = repairs
            .iter()
            .find(|r| r.repair.kind == RepairKind::CompleteConclusion)
            .unwrap()
            .repair
            .clone();
        let outcome = mgr.apply_repair(&conv).unwrap();
        assert!(outcome.is_consistent(), "{:?}", outcome.violations());
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn rollback_is_always_available() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let facts_before = mgr.meta.db.fact_count();
        let sid = mgr.meta.schema_by_name("CarSchema").unwrap();
        let car = mgr.meta.type_by_name(sid, "Car").unwrap();
        mgr.begin_evolution().unwrap();
        let string = mgr.meta.builtins.string;
        mgr.meta.add_attr(car, "fuelType", string).unwrap();
        let car2 = mgr.meta.new_type(sid, "Truck").unwrap();
        mgr.meta.add_subtype(car2, car).unwrap();
        mgr.rollback_evolution().unwrap();
        assert_eq!(mgr.meta.db.fact_count(), facts_before);
        assert!(mgr.meta.type_by_name(sid, "Truck").is_none());
    }

    #[test]
    fn runtime_calls_work_through_manager() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let sid = mgr.meta.schema_by_name("CarSchema").unwrap();
        let person = mgr.meta.type_by_name(sid, "Person").unwrap();
        let p = mgr.create_object(person).unwrap();
        mgr.set_attr(p, "age", Value::Int(30)).unwrap();
        assert_eq!(mgr.get_attr(p, "age").unwrap(), Value::Int(30));
        // Consistency still holds with objects around.
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn autocommit_rolls_back_a_failed_op() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let facts_before = mgr.meta.db.fact_count();
        let err = mgr
            .autocommit(|mgr| {
                let sid = mgr.meta.schema_by_name("CarSchema").unwrap();
                mgr.meta.new_type(sid, "Truck").unwrap();
                Err::<(), _>("op failed")
            })
            .unwrap_err();
        assert!(matches!(err, DefineError::Op("op failed")), "{err}");
        assert!(!mgr.in_evolution());
        assert_eq!(mgr.meta.db.fact_count(), facts_before);
    }

    #[test]
    fn nested_sessions_rejected_by_protocol() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.begin_evolution().unwrap();
        assert!(mgr.begin_evolution().is_err());
        mgr.rollback_evolution().unwrap();
        assert!(!mgr.in_evolution());
    }
}
