//! The deductive database: predicate registry, extensional store, rules,
//! constraints, and the evolution-session journal.

use crate::ast::Rule;
use crate::changes::{ChangeSet, Op};
use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::pred::{PredDecl, PredId, PredKind};
use crate::relation::Relation;
use crate::symbol::{FxHashMap, Interner, Symbol};
use crate::tuple::{Row, Tuple};
use crate::value::Const;
use std::sync::Arc;

/// Source metadata for a rule or constraint: where (and in which `load`
/// call) it was defined. API-built items have no position and source 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceInfo {
    /// 1-based line/column of the defining statement, when parsed from text.
    pub pos: Option<(usize, usize)>,
    /// Which `load()` call produced the item (0 = built via the API).
    pub src: u32,
    /// Surface variable names indexed by [`crate::ast::Var`] number
    /// (rules only; empty when unknown).
    pub var_names: Vec<String>,
}

/// The definitional state: rules, constraints and their source metadata.
/// It changes only on definition-level mutations (`load`, `add_rule`,
/// `add_constraint`, `remove_constraint`), which copy it on write, so a
/// snapshot shares it with one `Arc` bump.
#[derive(Clone, Default)]
pub(crate) struct Defs {
    pub(crate) rules: Vec<Rule>,
    pub(crate) constraints: Vec<Constraint>,
    /// Parallel to `rules`.
    pub(crate) rule_info: Vec<SourceInfo>,
    /// Parallel to `constraints`.
    pub(crate) constraint_info: Vec<SourceInfo>,
}

/// What a snapshot carries from the writer's IDB (see
/// [`Database::snapshot_clone`]). Valid only while the snapshot's base
/// facts are unchanged, so any base mutation drops it.
pub(crate) struct Carried {
    /// Violation relations, parallel to `compiled.constraints`. While no
    /// IDB is materialised, [`Database::check`] reads these instead of
    /// running the fixpoint.
    pub(crate) viols: Vec<Relation>,
    /// Keyed base predicates that held no two facts under one key at
    /// capture (the writer's maintained key counts showed it), so
    /// [`Database::check`] skips their key scans.
    pub(crate) clean_keys: Vec<PredId>,
}

/// A deductive database.
///
/// Holds the predicate registry, the extensions of all base predicates, the
/// rule set (IDB definitions), and the declarative constraints (CDB). The
/// The crate-internal modules `compile`, `eval`, `check` and `repair`
/// extend this type with consistency checking and repair
/// generation.
#[derive(Default)]
pub struct Database {
    pub(crate) interner: Interner,
    /// The predicate registry, shared with snapshots like `defs`.
    pub(crate) preds: Arc<Vec<PredDecl>>,
    pub(crate) by_name: Arc<FxHashMap<Symbol, PredId>>,
    pub(crate) rels: Vec<Relation>,
    /// Rules, constraints and their source metadata, shared with
    /// snapshots.
    pub(crate) defs: Arc<Defs>,
    /// Monotonic counter of `load()` calls, for attributing items to
    /// source documents.
    pub(crate) load_seq: u32,
    /// Index into `preds` where compiler-generated auxiliary predicates
    /// start; `None` when not compiled.
    pub(crate) aux_start: Option<usize>,
    /// The compiled program; shared (not rebuilt) by snapshots that carry
    /// violation relations.
    pub(crate) compiled: Option<Arc<crate::compile::Compiled>>,
    /// The one materialised IDB, built by [`Database::evaluate`]. While
    /// armed ([`Database::ensure_maintained`]) every base insert/remove
    /// updates it in place by DRed, so `check`, `query`, `why` and repair
    /// generation read the current derivations without re-evaluating;
    /// otherwise any base change drops it. A session rollback is such a
    /// change (the inverse ops), so it maintains an armed IDB too. Dropped
    /// on definition change, [`Database::invalidate_caches`] or any
    /// maintenance irregularity. Snapshots receive only its violation
    /// relations and key verdicts (`carried`), never the whole IDB.
    pub(crate) idb: Option<crate::eval::Idb>,
    /// Violation relations and key verdicts carried into a snapshot from
    /// the writer's IDB. Dropped on any base mutation.
    pub(crate) carried: Option<Carried>,
    /// The last dropped IDB, kept as spare capacity: the next evaluation
    /// recycles its relations (slot arrays, index maps, row pages)
    /// instead of allocating from scratch.
    pub(crate) spare_idb: Option<crate::eval::Idb>,
    /// Final relation sizes of the last materialised IDB, used to pre-size
    /// row storage and membership tables on re-evaluation: after an
    /// invalidation the fixpoint usually converges to a similar extension,
    /// so sizing up front removes all incremental growth and rehashing
    /// from the hot insert path.
    pub(crate) idb_size_hints: Vec<usize>,
    journal: Option<Vec<Op>>,
    /// Test hook: when set, rule evaluation panics, exercising the
    /// panic-containment path ([`Error::EvalPanic`]).
    eval_failpoint: bool,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- interning ------------------------------------------------------

    /// Intern a string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Look up an interned string.
    pub fn sym(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// Resolve a symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Intern a string and wrap it as a constant.
    pub fn constant(&mut self, s: &str) -> Const {
        Const::Sym(self.interner.intern(s))
    }

    /// Access the interner (for rendering).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner (for fresh-symbol generation).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    // ----- predicate registry ---------------------------------------------

    fn declare(
        &mut self,
        name: &str,
        arity: usize,
        kind: PredKind,
        key: Option<Box<[usize]>>,
    ) -> Result<PredId> {
        self.decompile();
        let sym = self.interner.intern(name);
        if let Some(&existing) = self.by_name.get(&sym) {
            let d = &self.preds[existing.index()];
            if d.arity == arity && d.kind == kind {
                return Ok(existing);
            }
            return Err(Error::PredicateRedeclared(name.to_string()));
        }
        let id = PredId(self.preds.len() as u32);
        Arc::make_mut(&mut self.preds).push(PredDecl {
            name: sym,
            arity,
            kind,
            key,
            cols: None,
        });
        self.rels.push(Relation::new());
        Arc::make_mut(&mut self.by_name).insert(sym, id);
        Ok(id)
    }

    /// Declare a base (extensional) predicate. Idempotent for identical
    /// shape.
    pub fn declare_base(&mut self, name: &str, arity: usize) -> Result<PredId> {
        self.declare(name, arity, PredKind::Base, None)
    }

    /// Declare a base predicate with a key over the given column positions.
    pub fn declare_base_keyed(
        &mut self,
        name: &str,
        arity: usize,
        key: &[usize],
    ) -> Result<PredId> {
        let id = self.declare(name, arity, PredKind::Base, Some(key.into()))?;
        Arc::make_mut(&mut self.preds)[id.index()].key = Some(key.into());
        Ok(id)
    }

    /// Declare a derived (intentional) predicate.
    pub fn declare_derived(&mut self, name: &str, arity: usize) -> Result<PredId> {
        self.declare(name, arity, PredKind::Derived, None)
    }

    /// Set human-readable column names for a predicate.
    pub fn set_cols(&mut self, pred: PredId, cols: &[&str]) {
        Arc::make_mut(&mut self.preds)[pred.index()].cols =
            Some(cols.iter().map(|s| s.to_string()).collect());
    }

    /// Look up a predicate by name.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.interner
            .get(name)
            .and_then(|s| self.by_name.get(&s).copied())
    }

    /// Look up a predicate by name, erroring when missing.
    pub fn pred_id_req(&self, name: &str) -> Result<PredId> {
        self.pred_id(name)
            .ok_or_else(|| Error::UnknownPredicate(name.to_string()))
    }

    /// Predicate name.
    pub fn pred_name(&self, pred: PredId) -> &str {
        self.interner.resolve(self.preds[pred.index()].name)
    }

    /// Predicate declaration.
    pub fn pred_decl(&self, pred: PredId) -> &PredDecl {
        &self.preds[pred.index()]
    }

    /// Number of declared predicates (including compiler auxiliaries when
    /// compiled).
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Iterate over all declared predicates (including compiler auxiliaries
    /// when compiled; those have names starting with `__`).
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.preds.len()).map(|i| PredId(i as u32))
    }

    /// Iterate over all base predicates.
    pub fn base_preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.preds
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_base())
            .map(|(i, _)| PredId(i as u32))
    }

    // ----- facts -----------------------------------------------------------

    fn check_base_use(&self, pred: PredId, tuple: &Row) -> Result<()> {
        let d = &self.preds[pred.index()];
        if d.kind != PredKind::Base {
            return Err(Error::MutatingDerived(self.pred_name(pred).to_string()));
        }
        if d.arity != tuple.arity() {
            return Err(Error::ArityMismatch {
                pred: self.pred_name(pred).to_string(),
                declared: d.arity,
                used: tuple.arity(),
            });
        }
        Ok(())
    }

    /// Insert a fact into a base predicate. Returns `true` when new.
    pub fn insert(&mut self, pred: PredId, tuple: impl Into<Tuple>) -> Result<bool> {
        let tuple = tuple.into();
        self.check_base_use(pred, &tuple)?;
        let added = self.rels[pred.index()].insert(&tuple);
        if added {
            self.base_changed(pred, &tuple, true);
            if let Some(j) = &mut self.journal {
                j.push(Op::Insert(pred, tuple));
            }
        }
        Ok(added)
    }

    /// Remove a fact from a base predicate. Returns `true` when present.
    pub fn remove(&mut self, pred: PredId, tuple: &Row) -> Result<bool> {
        self.check_base_use(pred, tuple)?;
        let removed = self.rels[pred.index()].remove(tuple);
        if removed {
            self.base_changed(pred, tuple, false);
            if let Some(j) = &mut self.journal {
                j.push(Op::Delete(pred, tuple.to_tuple()));
            }
        }
        Ok(removed)
    }

    /// Remove every fact of `pred` whose columns match all `(column, value)`
    /// pairs in `bound`. Returns the number of facts removed. Each removal is
    /// journalled exactly like [`Database::remove`].
    pub fn remove_matching(&mut self, pred: PredId, bound: &[(usize, Const)]) -> Result<usize> {
        let hits: Vec<Tuple> = self
            .relation(pred)
            .select(bound)
            .map(Row::to_tuple)
            .collect();
        let mut n = 0;
        for t in hits {
            if self.remove(pred, &t)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Membership test on a base predicate's stored extension.
    pub fn contains(&self, pred: PredId, tuple: &Row) -> bool {
        self.rels[pred.index()].contains(tuple)
    }

    /// The stored extension of a base predicate.
    pub fn relation(&self, pred: PredId) -> &Relation {
        &self.rels[pred.index()]
    }

    /// Sorted facts of a base predicate (deterministic dumps).
    pub fn facts_sorted(&self, pred: PredId) -> Vec<Tuple> {
        self.rels[pred.index()].sorted()
    }

    /// Apply a change set; returns the *effective* changes (ops that actually
    /// altered the store).
    pub fn apply(&mut self, changes: &ChangeSet) -> Result<ChangeSet> {
        let mut effective = ChangeSet::new();
        for op in &changes.ops {
            match op {
                Op::Insert(p, t) => {
                    if self.insert(*p, t.clone())? {
                        effective.insert(*p, t.clone());
                    }
                }
                Op::Delete(p, t) => {
                    if self.remove(*p, t)? {
                        effective.delete(*p, t.clone());
                    }
                }
            }
        }
        Ok(effective)
    }

    // ----- rules & constraints ---------------------------------------------

    /// Add a rule after validating arities, head kind, and range
    /// restriction.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.decompile();
        self.validate_rule(&rule)?;
        let src = self.load_seq;
        let defs = Arc::make_mut(&mut self.defs);
        defs.rules.push(rule);
        defs.rule_info.push(SourceInfo {
            src,
            ..SourceInfo::default()
        });
        Ok(())
    }

    pub(crate) fn validate_rule(&self, rule: &Rule) -> Result<()> {
        let head_decl = &self.preds[rule.head.pred.index()];
        if head_decl.kind != PredKind::Derived {
            return Err(Error::HeadIsBase(
                self.pred_name(rule.head.pred).to_string(),
            ));
        }
        let check_atom = |a: &crate::ast::Atom| -> Result<()> {
            let d = &self.preds[a.pred.index()];
            if d.arity != a.args.len() {
                return Err(Error::ArityMismatch {
                    pred: self.pred_name(a.pred).to_string(),
                    declared: d.arity,
                    used: a.args.len(),
                });
            }
            Ok(())
        };
        check_atom(&rule.head)?;
        for lit in &rule.body {
            match lit {
                crate::ast::Literal::Pos(a) | crate::ast::Literal::Neg(a) => check_atom(a)?,
                crate::ast::Literal::Cmp(..) => {}
            }
        }
        if let Err(v) = rule.check_safety() {
            return Err(Error::UnsafeRule {
                rule: format!("{}(..) :- ...", self.pred_name(rule.head.pred)),
                var: format!("#{}", v.0),
            });
        }
        Ok(())
    }

    /// Add a declarative constraint. Compilation (and thus full validation)
    /// happens lazily at the next check.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.decompile();
        let src = self.load_seq;
        let defs = Arc::make_mut(&mut self.defs);
        defs.constraints.push(c);
        defs.constraint_info.push(SourceInfo {
            src,
            ..SourceInfo::default()
        });
    }

    /// Remove a constraint by name. Returns `true` if one was removed.
    ///
    /// This is the "changing the definition of consistency" operation of
    /// paper §2.1: project-specific policies (e.g. forbidding multiple
    /// inheritance) are added or dropped without touching any module code.
    pub fn remove_constraint(&mut self, name: &str) -> bool {
        if !self.defs.constraints.iter().any(|c| c.name == name) {
            return false;
        }
        let defs = Arc::make_mut(&mut self.defs);
        let keep: Vec<bool> = defs.constraints.iter().map(|c| c.name != name).collect();
        let mut it = keep.iter();
        defs.constraints.retain(|_| *it.next().unwrap());
        let mut it = keep.iter();
        defs.constraint_info.retain(|_| *it.next().unwrap());
        self.decompile();
        true
    }

    /// The rules currently defined (user rules only, not compiler
    /// auxiliaries).
    pub fn rules(&self) -> &[Rule] {
        &self.defs.rules
    }

    /// The constraints currently defined.
    pub fn constraints(&self) -> &[Constraint] {
        &self.defs.constraints
    }

    /// Look up a constraint by name.
    pub fn constraint(&self, name: &str) -> Option<&Constraint> {
        self.defs.constraints.iter().find(|c| c.name == name)
    }

    // ----- source metadata ---------------------------------------------------

    /// Source metadata for rule `i` (parallel to [`Self::rules`]).
    pub fn rule_info(&self, i: usize) -> &SourceInfo {
        &self.defs.rule_info[i]
    }

    /// Source metadata for constraint `i` (parallel to
    /// [`Self::constraints`]).
    pub fn constraint_info(&self, i: usize) -> &SourceInfo {
        &self.defs.constraint_info[i]
    }

    /// The sequence number of the most recent `load()` call (0 before any
    /// load). Items whose [`SourceInfo::src`] equals this value came from
    /// that document.
    pub fn load_seq(&self) -> u32 {
        self.load_seq
    }

    pub(crate) fn bump_load_seq(&mut self) {
        self.load_seq += 1;
    }

    pub(crate) fn set_last_rule_info(&mut self, pos: (usize, usize), var_names: Vec<String>) {
        if let Some(info) = Arc::make_mut(&mut self.defs).rule_info.last_mut() {
            info.pos = Some(pos);
            info.var_names = var_names;
        }
    }

    pub(crate) fn set_last_constraint_info(&mut self, pos: (usize, usize)) {
        if let Some(info) = Arc::make_mut(&mut self.defs).constraint_info.last_mut() {
            info.pos = Some(pos);
        }
    }

    // ----- compilation state -----------------------------------------------

    /// Drop compiler-generated auxiliary predicates and cached state. Called
    /// automatically by every definition-level mutation.
    pub(crate) fn decompile(&mut self) {
        self.retire_idb();
        self.compiled = None;
        if let Some(n) = self.aux_start.take() {
            let by_name = Arc::make_mut(&mut self.by_name);
            for d in Arc::make_mut(&mut self.preds).drain(n..) {
                by_name.remove(&d.name);
            }
            self.rels.truncate(n);
        }
    }

    // ----- evolution sessions ----------------------------------------------

    /// Begin an evolution session (the paper's BES). All subsequent fact
    /// changes are journalled and can be rolled back.
    pub fn begin_session(&mut self) -> Result<()> {
        if self.journal.is_some() {
            return Err(Error::SessionProtocol("session already active".into()));
        }
        self.journal = Some(Vec::new());
        Ok(())
    }

    /// True while a session is active.
    pub fn in_session(&self) -> bool {
        self.journal.is_some()
    }

    /// The net changes journalled so far in the active session.
    pub fn session_delta(&self) -> Result<ChangeSet> {
        match &self.journal {
            Some(j) => Ok(ChangeSet { ops: j.clone() }),
            None => Err(Error::SessionProtocol("no active session".into())),
        }
    }

    /// Commit the session (the paper's successful EES), returning the
    /// session's effective change set.
    pub fn commit_session(&mut self) -> Result<ChangeSet> {
        match self.journal.take() {
            Some(j) => Ok(ChangeSet { ops: j }),
            None => Err(Error::SessionProtocol("no active session".into())),
        }
    }

    /// Roll back the session: undo all journalled changes in reverse order
    /// and close it.
    pub fn rollback_session(&mut self) -> Result<()> {
        self.rollback_to(0)?;
        self.journal = None;
        Ok(())
    }

    /// A mark of the active session's progress, for [`Self::rollback_to`];
    /// `None` outside a session.
    pub fn session_mark(&self) -> Option<usize> {
        self.journal.as_ref().map(Vec::len)
    }

    /// Undo every change the active session journalled after `mark` (from
    /// [`Self::session_mark`]) by applying the inverse ops, newest first,
    /// like any other update: an armed IDB is maintained through them, an
    /// unarmed one is dropped. The session stays open.
    pub fn rollback_to(&mut self, mark: usize) -> Result<()> {
        let Some(mut kept) = self.journal.take() else {
            return Err(Error::SessionProtocol("no active session".into()));
        };
        let undone = kept.split_off(mark.min(kept.len()));
        let inverse = ChangeSet {
            ops: undone.iter().rev().map(Op::inverse).collect(),
        };
        let applied = self.apply(&inverse);
        self.journal = Some(kept);
        applied.map(drop)
    }

    /// Test hook: make the next evaluation panic (contained as
    /// [`Error::EvalPanic`]). Not part of the public API surface.
    #[doc(hidden)]
    pub fn set_eval_failpoint(&mut self, on: bool) {
        self.eval_failpoint = on;
    }

    /// Is the evaluation failpoint armed? (Checked by the fixpoint.)
    pub(crate) fn eval_failpoint(&self) -> bool {
        self.eval_failpoint
    }

    /// Accepted and ignored; evaluation is single-threaded. Kept so that
    /// callers written against the former thread-count setting still
    /// compile.
    pub fn set_eval_threads(&mut self, _n: usize) {}

    /// Build every base-predicate index the compiled plans scan with; the
    /// indexes are maintained in place by subsequent `insert`/`remove`.
    /// No-op when not compiled.
    pub(crate) fn ensure_base_indexes(&mut self) {
        // Databases rehydrated from a CoW snapshot share start with stale
        // membership tables; evaluation probes them on every negation
        // check, so sync eagerly rather than scan-fallback per probe.
        for r in &mut self.rels {
            r.ensure_table();
        }
        let Some(compiled) = self.compiled.take() else {
            return;
        };
        for (p, cols) in &compiled.index_masks {
            if self.preds[p.index()].is_base() {
                self.rels[p.index()].ensure_index(cols);
            }
        }
        self.compiled = Some(compiled);
    }

    /// Make a database rehydrated from a [`Database::snapshot_clone`]
    /// share fully probe-ready: membership tables and the interner lookup
    /// map are rebuilt now (one pass, no tuple or string copies) instead
    /// of lazily on first use. Reader connections call this once per
    /// epoch refresh so interactive queries never hit a scan fallback.
    pub fn prepare_reader(&mut self) {
        for r in &mut self.rels {
            r.ensure_table();
        }
        self.interner.ensure_lookup();
    }

    /// Drop the IDB, and with it maintenance, so the next check or
    /// evaluation starts cold and the next [`Database::ensure_maintained`]
    /// rebuilds from scratch.
    pub fn invalidate_caches(&mut self) {
        self.retire_idb();
    }

    /// Drop the IDB (parking it as spare capacity for the next evaluation
    /// to recycle) and anything carried from a writer's IDB.
    pub(crate) fn retire_idb(&mut self) {
        self.carried = None;
        if let Some(idb) = self.idb.take() {
            self.spare_idb = Some(idb);
        }
    }

    /// Share the definitional and extensional state into a fresh database
    /// suitable for publication as a read snapshot. Tuple pages and the
    /// string table are `Arc`-shared copy-on-write (zero tuple copies,
    /// O(#relations + #chunks) work). Indexes, the IDB, the
    /// evolution-session journal and test failpoints are dropped.
    ///
    /// When the source holds its constraint violations — a materialised
    /// IDB, or a snapshot that still carries them — the clone also carries
    /// the compiled program (an `Arc` bump, auxiliary predicates included)
    /// and CoW shares of the violation relations, so its
    /// [`Database::check`] is a read instead of a compile plus fixpoint.
    /// It also carries which keyed predicates the source knows to be free
    /// of key violations ([`Database::key_clean`]), so that read skips
    /// their key scans. Only the violation relations are shared: they are
    /// normally empty, whereas sharing the whole IDB would make the
    /// writer's next DRed writes copy every touched page. Otherwise
    /// nothing derived is carried and the clone re-derives lazily on first
    /// use.
    ///
    /// The rules and constraints, and the predicate registry unless it
    /// must be cut back to the user predicates, are shared with an `Arc`
    /// bump each: a definition change on either side copies them first.
    ///
    /// Carrying changes no [`Database::debug_state_digest`] output: the
    /// digest covers base predicates only, and the clone's base relations
    /// are index-free either way.
    pub fn snapshot_clone(&self) -> Database {
        let carried = self.violations_to_carry();
        let n = match &carried {
            Some(_) => self.preds.len(),
            None => self.aux_start.unwrap_or(self.preds.len()),
        };
        // A snapshot without carried violations keeps only the user
        // predicates; otherwise it shares the registry as it is.
        let (preds, by_name) = if n == self.preds.len() {
            (Arc::clone(&self.preds), Arc::clone(&self.by_name))
        } else {
            let preds: Vec<PredDecl> = self.preds[..n].to_vec();
            let by_name = preds
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, PredId(i as u32)))
                .collect();
            (Arc::new(preds), Arc::new(by_name))
        };
        let rels: Vec<Relation> = self.rels[..n].iter().map(Relation::share).collect();
        let (aux_start, compiled) = match &carried {
            Some(_) => (self.aux_start, self.compiled.clone()),
            None => (None, None),
        };
        Database {
            interner: self.interner.share(),
            preds,
            by_name,
            rels,
            defs: Arc::clone(&self.defs),
            load_seq: self.load_seq,
            aux_start,
            compiled,
            idb: None,
            carried,
            spare_idb: None,
            idb_size_hints: Vec::new(),
            journal: None,
            eval_failpoint: false,
        }
    }

    /// What a snapshot may carry: CoW shares of the violation relations,
    /// parallel to `compiled.constraints` — from the IDB, else from
    /// violations this database itself carries — and the keyed base
    /// predicates known to be clean.
    fn violations_to_carry(&self) -> Option<Carried> {
        let compiled = self.compiled.as_ref()?;
        let viols = match (&self.idb, &self.carried) {
            (Some(idb), _) => compiled
                .constraints
                .iter()
                .map(|cc| idb.rels[cc.viol.index()].share())
                .collect(),
            (None, Some(c)) => c.viols.iter().map(Relation::share).collect(),
            (None, None) => return None,
        };
        let clean_keys = self
            .base_preds()
            .filter(|&p| self.pred_decl(p).key.is_some() && self.key_clean(p))
            .collect();
        Some(Carried { viols, clean_keys })
    }

    /// Is the keyed base predicate `p` known to hold no two facts under
    /// one key, without scanning it? Yes when the maintained IDB's key
    /// counts show as many key hashes as facts (a hash collision only
    /// costs the scan), or when a snapshot carries that verdict from its
    /// writer.
    pub(crate) fn key_clean(&self, p: PredId) -> bool {
        let counted = self.idb.as_ref().is_some_and(|idb| {
            idb.maintained
                && idb
                    .key_counts
                    .get(&p)
                    .is_some_and(|n| n.len() == self.rels[p.index()].len())
        });
        counted
            || self
                .carried
                .as_ref()
                .is_some_and(|c| c.clean_keys.contains(&p))
    }

    /// Does this database carry violation relations from a snapshot share
    /// (so that [`Database::check`] reads them instead of evaluating)?
    /// Test support.
    #[doc(hidden)]
    pub fn carries_violations(&self) -> bool {
        self.carried.is_some()
    }

    /// The pre-CoW reference implementation of
    /// [`Database::snapshot_clone`]: deep-copies every live tuple via
    /// [`Relation::without_indexes`] instead of sharing pages, and carries
    /// nothing derived, so it re-derives everything from scratch. Kept as
    /// the differential oracle for the CoW snapshot property tests (a
    /// share must stay byte-identical to a deep clone taken at the same
    /// instant, and a carried check must equal a from-scratch one);
    /// production publication always uses the shared path.
    #[doc(hidden)]
    pub fn deep_snapshot_clone(&self) -> Database {
        let mut snap = self.snapshot_clone();
        snap.decompile();
        snap.rels = snap.rels.iter().map(Relation::without_indexes).collect();
        snap
    }

    /// Interner-independent textual digest of the stored state: every base
    /// fact plus the contents of every maintained base-relation index, with
    /// symbols resolved to their strings (the interner only grows, so raw
    /// symbol numbers would differ between a state and its re-creation).
    /// Two databases with equal digests hold the same EDB *and* the same
    /// index structures. Debug/test support; not a stable format.
    #[doc(hidden)]
    pub fn debug_state_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.dump_facts();
        let mut preds: Vec<PredId> = self.base_preds().collect();
        preds.sort_by_key(|&p| self.pred_name(p).to_string());
        for p in preds {
            for (cols, tuples) in self.rels[p.index()].index_dump() {
                let _ = writeln!(out, "index {}{:?}:", self.pred_name(p), cols);
                // Sort the *rendered* rows: ordering by raw symbol number
                // would depend on interning history.
                let mut rows: Vec<String> = tuples
                    .iter()
                    .map(|t| {
                        let rendered: Vec<String> = t
                            .iter()
                            .map(|c| match c {
                                Const::Int(n) => n.to_string(),
                                Const::Sym(s) => self.resolve(s).to_string(),
                            })
                            .collect();
                        format!("  ({})", rendered.join(", "))
                    })
                    .collect();
                rows.sort();
                for r in rows {
                    let _ = writeln!(out, "{r}");
                }
            }
        }
        out
    }

    /// Total number of stored base facts.
    pub fn fact_count(&self) -> usize {
        self.preds
            .iter()
            .zip(&self.rels)
            .filter(|(d, _)| d.is_base())
            .map(|(_, r)| r.len())
            .sum()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("preds", &self.preds.len())
            .field("rules", &self.defs.rules.len())
            .field("constraints", &self.defs.constraints.len())
            .field("facts", &self.fact_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(xs: &[i64]) -> Tuple {
        Tuple::from(xs.iter().map(|&x| Const::Int(x)).collect::<Vec<_>>())
    }

    #[test]
    fn declare_is_idempotent_for_same_shape() {
        let mut db = Database::new();
        let a = db.declare_base("P", 2).unwrap();
        let b = db.declare_base("P", 2).unwrap();
        assert_eq!(a, b);
        assert!(db.declare_base("P", 3).is_err());
        assert!(db.declare_derived("P", 2).is_err());
    }

    #[test]
    fn insert_checks_arity_and_kind() {
        let mut db = Database::new();
        let p = db.declare_base("P", 2).unwrap();
        let q = db.declare_derived("Q", 1).unwrap();
        assert!(db.insert(p, tup(&[1])).is_err());
        assert!(db.insert(q, tup(&[1])).is_err());
        assert!(db.insert(p, tup(&[1, 2])).unwrap());
        assert!(!db.insert(p, tup(&[1, 2])).unwrap());
    }

    #[test]
    fn apply_reports_effective_ops_only() {
        let mut db = Database::new();
        let p = db.declare_base("P", 1).unwrap();
        db.insert(p, tup(&[1])).unwrap();
        let mut cs = ChangeSet::new();
        cs.insert(p, tup(&[1])); // no-op
        cs.insert(p, tup(&[2])); // effective
        cs.delete(p, tup(&[9])); // no-op
        let eff = db.apply(&cs).unwrap();
        assert_eq!(eff.len(), 1);
    }

    #[test]
    fn session_rollback_restores_state() {
        let mut db = Database::new();
        let p = db.declare_base("P", 1).unwrap();
        db.insert(p, tup(&[1])).unwrap();
        db.begin_session().unwrap();
        db.insert(p, tup(&[2])).unwrap();
        db.remove(p, &tup(&[1])).unwrap();
        db.rollback_session().unwrap();
        assert!(db.contains(p, &tup(&[1])));
        assert!(!db.contains(p, &tup(&[2])));
    }

    #[test]
    fn partial_rollback_keeps_the_armed_idb_current() {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).
             derived Path(a, b).
             derived Isolated(a).
             Path(X, Y) :- Edge(X, Y).
             Path(X, Z) :- Edge(X, Y), Path(Y, Z).
             Isolated(X) :- Edge(X, X), not Path(X, 1).",
        )
        .unwrap();
        let e = db.pred_id("Edge").unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 3)] {
            db.insert(e, tup(&[a, b])).unwrap();
        }
        db.ensure_maintained().unwrap();
        db.begin_session().unwrap();
        db.insert(e, tup(&[3, 4])).unwrap();
        let mark = db.session_mark().unwrap();
        db.insert(e, tup(&[3, 1])).unwrap();
        db.remove(e, &tup(&[1, 2])).unwrap();
        db.rollback_to(mark).unwrap();
        assert!(db.maintenance_active());
        assert_eq!(db.session_delta().unwrap().len(), 1);
        for name in ["Path", "Isolated"] {
            let p = db.pred_id(name).unwrap();
            assert_eq!(db.derived_facts(p).unwrap(), db.reference_facts(p).unwrap());
        }
        assert!(db.contains(e, &tup(&[1, 2])) && !db.contains(e, &tup(&[3, 1])));
    }

    #[test]
    fn session_commit_returns_delta() {
        let mut db = Database::new();
        let p = db.declare_base("P", 1).unwrap();
        db.begin_session().unwrap();
        db.insert(p, tup(&[2])).unwrap();
        db.insert(p, tup(&[2])).unwrap(); // duplicate: not journalled
        let delta = db.commit_session().unwrap();
        assert_eq!(delta.len(), 1);
        assert!(!db.in_session());
    }

    #[test]
    fn nested_sessions_rejected() {
        let mut db = Database::new();
        db.begin_session().unwrap();
        assert!(db.begin_session().is_err());
        db.commit_session().unwrap();
        assert!(db.commit_session().is_err());
        assert!(db.rollback_session().is_err());
    }

    #[test]
    fn snapshots_share_the_definitions() {
        let mut db = Database::new();
        db.load(
            "base P(x).
             derived Q(x).
             Q(X) :- P(X).
             constraint no_q: forall X: !Q(X).",
        )
        .unwrap();
        let snap = db.snapshot_clone();
        assert!(
            Arc::ptr_eq(&db.defs, &snap.defs),
            "capture shares, not copies"
        );
        assert!(Arc::ptr_eq(&db.preds, &snap.preds));
        assert!(Arc::ptr_eq(&db.by_name, &snap.by_name));
        db.load("constraint no_p: forall X: !P(X).").unwrap();
        assert!(!Arc::ptr_eq(&db.defs, &snap.defs), "a load copies first");
        assert_eq!(snap.constraints().len(), 1);
        assert_eq!(db.constraints().len(), 2);
    }

    #[test]
    fn remove_constraint_by_name() {
        let mut db = Database::new();
        db.add_constraint(Constraint::new(
            "c1",
            vec![],
            crate::constraint::Formula::True,
        ));
        assert!(db.remove_constraint("c1"));
        assert!(!db.remove_constraint("c1"));
    }
}
