//! # gom-impact — Datalog-powered schema impact analysis
//!
//! The paper defers consistency to the end of an evolution session (EES).
//! This crate predicts, before EES, which constraints a session can affect
//! by *dogfooding the deductive engine as its own static analyzer* (after
//! Engels, Behrend & Brass): the current rule set
//! and compiled constraints are reflected into a **meta-EDB** —
//!
//! | predicate | meaning |
//! |---|---|
//! | `meta_base(p)` | `p` is an extensional predicate |
//! | `meta_dep_pos(p, q)` / `meta_dep_neg(p, q)` | some rule for `p` reads `q` positively / under negation |
//! | `meta_cviol(c, p)` | constraint `c` compiles to violation predicate `p` |
//! | `meta_evolvable(p)` | `p` is a catalog predicate written by evolution primitives |
//! | `meta_type(tid, name)` / `meta_attr(tid, attr, domain, sid)` | reflected MetaModel rows |
//! | `meta_rule_uses(r, p, sign)` | rule `r` uses predicate `p` with the given polarity |
//! | `meta_evolves_to(from, to)` | reflected version-graph edges (when versioning is installed) |
//! | `meta_has_instances(tid)` | some physical representation exists for `tid` |
//!
//! — and the analysis passes are themselves Datalog meta-rules evaluated by
//! `gom-deductive` (see [`META_PROGRAM`]): a *polarity-aware* transitive
//! dependency closure `aff_pos`/`aff_neg` ("inserting into / deleting from
//! base `b` can create new `p` tuples"), the per-constraint read set
//! `meta_constraint_reads`, and the touchability check behind `L0602`.
//!
//! From one evaluation of the meta-program, [`ImpactIndex`] precomputes two
//! maps (base predicate → constraints an insert/delete can newly violate),
//! so the per-session **impact footprint** is a handful of hash-set unions:
//! microseconds, never a fixpoint. [`plan`] combines the footprint with a
//! breaking/non-breaking classification of the session's net delta (after
//! Piccioni et al.'s class-evolution taxonomy) into a [`PlanReport`] whose
//! diagnostics (`L0601`–`L0603`) flow through the ordinary gom-lint
//! pipeline.
//!
//! ## Soundness
//!
//! Footprint-based skipping is sound under the same precondition
//! `check_delta` already documents: the database was consistent when the
//! session began. Then any *new* violation tuple has a derivation that
//! changed with the delta, and by the polarity closure the changed base
//! predicate is reachable from the violation predicate with matching
//! parity — so the constraint is in the footprint. Constraints outside the
//! footprint provably cannot have gained a violation and may be skipped.

#![warn(missing_docs)]

use gom_deductive::{
    ast::Literal, ChangeSet, Const, Database, Error, FxHashMap, FxHashSet, Op, PredId, Result,
};
use gom_lint::{Diagnostic, LintReport, Severity};

/// The meta-program: declarations of the reflected meta-EDB plus the
/// analysis rules, written in the engine's own surface syntax and evaluated
/// by the engine itself. `aff_pos(p, b)` reads "an insertion into base `b`
/// can create new `p` tuples"; `aff_neg(p, b)` the same for deletions. The
/// two relations are mutually recursive because negation flips polarity.
pub const META_PROGRAM: &str = "\
base meta_base(p).
base meta_dep_pos(p, q).
base meta_dep_neg(p, q).
base meta_cviol(c, p).
base meta_evolvable(p).
base meta_type(tid, name).
base meta_attr(tid, attr, domain, sid).
base meta_rule_uses(rule, p, sign).
base meta_evolves_to(from, to).
base meta_has_instances(tid).
derived aff_pos(p, b).
derived aff_neg(p, b).
derived meta_constraint_reads(c, b).
derived meta_touchable(c).
aff_pos(P, B) :- meta_dep_pos(P, B), meta_base(B).
aff_neg(P, B) :- meta_dep_neg(P, B), meta_base(B).
aff_pos(P, B) :- meta_dep_pos(P, Q), aff_pos(Q, B).
aff_pos(P, B) :- meta_dep_neg(P, Q), aff_neg(Q, B).
aff_neg(P, B) :- meta_dep_pos(P, Q), aff_neg(Q, B).
aff_neg(P, B) :- meta_dep_neg(P, Q), aff_pos(Q, B).
meta_constraint_reads(C, B) :- meta_cviol(C, P), aff_pos(P, B).
meta_constraint_reads(C, B) :- meta_cviol(C, P), aff_neg(P, B).
meta_touchable(C) :- meta_constraint_reads(C, B), meta_evolvable(B).
";

/// Catalog predicates written by evolution primitives. A constraint whose
/// read set misses all of these can never be affected by a session (L0602).
const EVOLVABLE: &[&str] = &[
    "Schema",
    "Type",
    "Attr",
    "Decl",
    "ArgDecl",
    "Code",
    "SubTypRel",
    "DeclRefinement",
    "CodeReqDecl",
    "CodeReqAttr",
    "PhRep",
    "Slot",
    "SortVariant",
    "SubSchemaOf",
    "SchemaVar",
    "CodeParam",
    "evolves_to_S",
    "evolves_to_T",
    "FashionType",
    "FashionDecl",
    "FashionAttr",
];

/// Identifies the definition state an [`ImpactIndex`] was built from, so
/// callers can cache the index and rebuild only when rules or constraints
/// change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    rules: usize,
    constraints: usize,
    load_seq: u32,
}

impl Fingerprint {
    /// The fingerprint of a database's current definitions.
    pub fn of(db: &Database) -> Fingerprint {
        Fingerprint {
            rules: db.rules().len(),
            constraints: db.constraints().len(),
            load_seq: db.load_seq(),
        }
    }
}

/// The precomputed impact index: which constraints an insertion into /
/// deletion from each base predicate can newly violate. Built by one
/// evaluation of [`META_PROGRAM`] over the reflected meta-EDB; lookups are
/// then plain hash-map unions.
#[derive(Clone, Debug)]
pub struct ImpactIndex {
    fingerprint: Fingerprint,
    /// base predicate name → constraints an INSERT can newly violate.
    pos: FxHashMap<String, FxHashSet<String>>,
    /// base predicate name → constraints a DELETE can newly violate.
    neg: FxHashMap<String, FxHashSet<String>>,
    /// every constraint name, in source order.
    constraints: Vec<String>,
    /// constraint name → sorted base predicates its violation rules read.
    reads: FxHashMap<String, Vec<String>>,
    /// constraints no evolution primitive can affect (source order).
    untouchable: Vec<String>,
}

/// The impact footprint of one session delta.
#[derive(Clone, Debug)]
pub struct Footprint {
    /// Names of constraints this delta can newly violate.
    pub constraints: FxHashSet<String>,
    /// Total constraints known to the index.
    pub total: usize,
}

fn meta_pred(mdb: &Database, name: &str) -> Result<PredId> {
    mdb.pred_id(name)
        .ok_or_else(|| Error::UnknownPredicate(name.to_string()))
}

/// Re-intern a constant from the analyzed database into the meta-database.
fn port(host: &Database, mdb: &mut Database, c: Const) -> Const {
    match c.as_sym() {
        Some(s) => mdb.constant(host.resolve(s)),
        None => c,
    }
}

fn const_str(db: &Database, c: Const) -> String {
    match c.as_sym() {
        Some(s) => db.resolve(s).to_string(),
        None => match c.as_int() {
            Some(i) => i.to_string(),
            None => format!("{c:?}"),
        },
    }
}

fn col(names: &[String], want: &str) -> Result<usize> {
    names
        .iter()
        .position(|n| n == want)
        .ok_or_else(|| Error::UnknownPredicate(format!("meta query variable {want}")))
}

impl ImpactIndex {
    /// Reflect the database's compiled program into the meta-EDB, evaluate
    /// the meta-rules, and precompute the polarity-aware trigger maps.
    /// Fails only if the analyzed program itself does not compile.
    pub fn build(db: &mut Database) -> Result<ImpactIndex> {
        let _sp = gom_obs::span("impact.index.build");
        gom_obs::counter_add("impact.index.builds", 1);
        let fingerprint = Fingerprint::of(db);

        // Own the compiled program pieces so `db` stays free for name
        // lookups (the view mutably borrows the database).
        let (rules, cviols): (Vec<gom_deductive::ast::Rule>, Vec<(usize, PredId)>) = {
            let view = db.program_view()?;
            (view.rules.to_vec(), view.constraint_viols.clone())
        };

        let mut mdb = Database::new();
        mdb.load(META_PROGRAM)?;
        let m_base = meta_pred(&mdb, "meta_base")?;
        let m_dep_pos = meta_pred(&mdb, "meta_dep_pos")?;
        let m_dep_neg = meta_pred(&mdb, "meta_dep_neg")?;
        let m_cviol = meta_pred(&mdb, "meta_cviol")?;
        let m_evolvable = meta_pred(&mdb, "meta_evolvable")?;
        let m_type = meta_pred(&mdb, "meta_type")?;
        let m_attr = meta_pred(&mdb, "meta_attr")?;
        let m_rule_uses = meta_pred(&mdb, "meta_rule_uses")?;
        let m_evolves_to = meta_pred(&mdb, "meta_evolves_to")?;
        let m_has_instances = meta_pred(&mdb, "meta_has_instances")?;

        // meta_base: every extensional predicate of the analyzed database.
        let base_ids: Vec<PredId> = db.base_preds().collect();
        for p in &base_ids {
            let c = {
                let name = db.pred_name(*p).to_string();
                mdb.constant(&name)
            };
            mdb.insert(m_base, vec![c])?;
        }

        // Dependency edges and rule-usage facts from every compiled rule
        // (user rules plus the Lloyd–Topor auxiliaries — the auxiliaries
        // are what connect violation predicates to base predicates).
        for (i, rule) in rules.iter().enumerate() {
            let head = db.pred_name(rule.head.pred).to_string();
            let rname = format!("r{i}");
            for lit in &rule.body {
                let (atom, sign, edge) = match lit {
                    Literal::Pos(a) => (a, "pos", m_dep_pos),
                    Literal::Neg(a) => (a, "neg", m_dep_neg),
                    Literal::Cmp(..) => continue,
                };
                let pname = db.pred_name(atom.pred).to_string();
                let (h, p) = (mdb.constant(&head), mdb.constant(&pname));
                mdb.insert(edge, vec![h, p])?;
                let (r, p, s) = (
                    mdb.constant(&rname),
                    mdb.constant(&pname),
                    mdb.constant(sign),
                );
                mdb.insert(m_rule_uses, vec![r, p, s])?;
            }
        }

        // Constraint → violation-predicate facts.
        let constraints: Vec<String> = db.constraints().iter().map(|c| c.name.clone()).collect();
        for &(src, viol) in &cviols {
            let Some(cname) = constraints.get(src) else {
                continue;
            };
            let (c, v) = {
                let vname = db.pred_name(viol).to_string();
                (mdb.constant(cname), mdb.constant(&vname))
            };
            mdb.insert(m_cviol, vec![c, v])?;
        }

        // Evolvable catalog predicates present in this database.
        for name in EVOLVABLE {
            if db.pred_id(name).is_some() {
                let c = mdb.constant(name);
                mdb.insert(m_evolvable, vec![c])?;
            }
        }

        // Reflected MetaModel rows (when the catalog is installed).
        let mut tid_sid: FxHashMap<Const, Const> = FxHashMap::default();
        if let Some(ty) = db.pred_id("Type") {
            for row in db.facts_sorted(ty) {
                tid_sid.insert(row.get(0), row.get(2));
                let (a, b) = (
                    port(db, &mut mdb, row.get(0)),
                    port(db, &mut mdb, row.get(1)),
                );
                mdb.insert(m_type, vec![a, b])?;
            }
        }
        if let Some(attr) = db.pred_id("Attr") {
            for row in db.facts_sorted(attr) {
                let sid = tid_sid.get(&row.get(0)).copied();
                let a = port(db, &mut mdb, row.get(0));
                let b = port(db, &mut mdb, row.get(1));
                let c = port(db, &mut mdb, row.get(2));
                let d = match sid {
                    Some(s) => port(db, &mut mdb, s),
                    None => mdb.constant("unknown"),
                };
                mdb.insert(m_attr, vec![a, b, c, d])?;
            }
        }
        for vpred in ["evolves_to_S", "evolves_to_T"] {
            if let Some(p) = db.pred_id(vpred) {
                for row in db.facts_sorted(p) {
                    let (a, b) = (
                        port(db, &mut mdb, row.get(0)),
                        port(db, &mut mdb, row.get(1)),
                    );
                    mdb.insert(m_evolves_to, vec![a, b])?;
                }
            }
        }
        if let Some(phrep) = db.pred_id("PhRep") {
            let mut seen: FxHashSet<Const> = FxHashSet::default();
            for row in db.facts_sorted(phrep) {
                if seen.insert(row.get(1)) {
                    let t = port(db, &mut mdb, row.get(1));
                    mdb.insert(m_has_instances, vec![t])?;
                }
            }
        }

        // One evaluation of the meta-rules, then three projections.
        let mut pos: FxHashMap<String, FxHashSet<String>> = FxHashMap::default();
        let mut neg: FxHashMap<String, FxHashSet<String>> = FxHashMap::default();
        for (query, map) in [
            ("meta_cviol(C, P), aff_pos(P, B)", &mut pos),
            ("meta_cviol(C, P), aff_neg(P, B)", &mut neg),
        ] {
            let (names, rows) = mdb.query_text(query)?;
            let (ci, bi) = (col(&names, "C")?, col(&names, "B")?);
            for t in rows {
                let c = const_str(&mdb, t.get(ci));
                let b = const_str(&mdb, t.get(bi));
                map.entry(b).or_default().insert(c);
            }
        }
        let mut reads: FxHashMap<String, Vec<String>> = FxHashMap::default();
        {
            let (names, rows) = mdb.query_text("meta_constraint_reads(C, B)")?;
            let (ci, bi) = (col(&names, "C")?, col(&names, "B")?);
            for t in rows {
                let c = const_str(&mdb, t.get(ci));
                let b = const_str(&mdb, t.get(bi));
                reads.entry(c).or_default().push(b);
            }
            for v in reads.values_mut() {
                v.sort();
                v.dedup();
            }
        }
        let touchable: FxHashSet<String> = {
            let (names, rows) = mdb.query_text("meta_touchable(C)")?;
            let ci = col(&names, "C")?;
            rows.iter().map(|t| const_str(&mdb, t.get(ci))).collect()
        };
        let untouchable: Vec<String> = constraints
            .iter()
            .filter(|c| !touchable.contains(*c))
            .cloned()
            .collect();

        Ok(ImpactIndex {
            fingerprint,
            pos,
            neg,
            constraints,
            reads,
            untouchable,
        })
    }

    /// The definition fingerprint the index was built from.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// True if the index still matches the database's definitions.
    pub fn is_fresh(&self, db: &Database) -> bool {
        self.fingerprint == Fingerprint::of(db)
    }

    /// All constraint names, in source order.
    pub fn constraints(&self) -> &[String] {
        &self.constraints
    }

    /// Constraints no evolution primitive can affect (L0602 candidates).
    pub fn untouchable(&self) -> &[String] {
        &self.untouchable
    }

    /// The sorted base predicates a constraint's violation rules read.
    pub fn constraint_reads(&self, name: &str) -> &[String] {
        self.reads.get(name).map_or(&[], Vec::as_slice)
    }

    /// Constraints an insertion into base predicate `base` can newly
    /// violate.
    pub fn insert_triggers(&self, base: &str) -> Option<&FxHashSet<String>> {
        self.pos.get(base)
    }

    /// Constraints a deletion from base predicate `base` can newly violate.
    pub fn delete_triggers(&self, base: &str) -> Option<&FxHashSet<String>> {
        self.neg.get(base)
    }

    /// The impact footprint of a session delta: the union of the trigger
    /// sets of its operations, polarity-aware (an insert consults the
    /// insert map, a delete the delete map). Pure hash-map lookups — no
    /// Datalog evaluation at session time.
    pub fn footprint(&self, db: &Database, delta: &ChangeSet) -> Footprint {
        let mut constraints: FxHashSet<String> = FxHashSet::default();
        for op in &delta.ops {
            let name = db.pred_name(op.pred());
            let map = match op {
                Op::Insert(..) => &self.pos,
                Op::Delete(..) => &self.neg,
            };
            if let Some(set) = map.get(name) {
                constraints.extend(set.iter().cloned());
            }
        }
        Footprint {
            constraints,
            total: self.constraints.len(),
        }
    }
}

/// One session operation with its breaking/non-breaking classification
/// (after the empirical class-evolution taxonomy: a change is breaking when
/// live object representations must migrate to stay well-formed).
#[derive(Clone, Debug)]
pub struct ClassifiedOp {
    /// Rendered operation, e.g. `+Attr(tid4, fuelType, t_string)`.
    pub rendered: String,
    /// The catalog predicate the operation touches.
    pub pred: String,
    /// True when live instances are affected.
    pub breaking: bool,
    /// True when the same delta also carries representation updates
    /// (PhRep/Slot operations) for the affected type.
    pub migrated: bool,
    /// Human-readable classification rationale.
    pub reason: String,
}

/// Classify every operation of a session delta as breaking or
/// non-breaking. "Breaking" means live object representations are affected
/// (the paper's `fuelType` scenario: adding an attribute to a type with
/// instances leaves every object short one slot).
pub fn classify(db: &Database, delta: &ChangeSet) -> Vec<ClassifiedOp> {
    let phrep = db.pred_id("PhRep");
    // Types with live instances now, plus types whose representations the
    // delta itself deleted (they had instances when the session began).
    let mut instance_types: FxHashSet<Const> = FxHashSet::default();
    let mut clid_tid: FxHashMap<Const, Const> = FxHashMap::default();
    if let Some(p) = phrep {
        for row in db.facts_sorted(p) {
            clid_tid.insert(row.get(0), row.get(1));
            instance_types.insert(row.get(1));
        }
    }
    // Migration evidence: types whose PhRep/Slot rows the delta touches.
    let mut migrated_tids: FxHashSet<Const> = FxHashSet::default();
    for op in &delta.ops {
        match db.pred_name(op.pred()) {
            "PhRep" => {
                let tid = op.tuple().get(1);
                migrated_tids.insert(tid);
                clid_tid.insert(op.tuple().get(0), tid);
                if matches!(op, Op::Delete(..)) {
                    instance_types.insert(tid);
                }
            }
            "Slot" => {
                if let Some(&tid) = clid_tid.get(&op.tuple().get(0)) {
                    migrated_tids.insert(tid);
                }
            }
            _ => {}
        }
    }

    let mut out = Vec::with_capacity(delta.ops.len());
    for op in &delta.ops {
        let pred = db.pred_name(op.pred()).to_string();
        let insert = matches!(op, Op::Insert(..));
        let sign = if insert { "+" } else { "-" };
        let args: Vec<String> = op.tuple().iter().map(|c| const_str(db, c)).collect();
        let rendered = format!("{sign}{pred}({})", args.join(", "));
        let (breaking, tid, reason) = match (pred.as_str(), insert) {
            ("Attr", true) => {
                let tid = op.tuple().get(0);
                if instance_types.contains(&tid) {
                    (true, Some(tid), "adds an attribute to a type with live instances; every object representation needs a new slot".to_string())
                } else {
                    (
                        false,
                        None,
                        "type has no live instances; representations are unaffected".to_string(),
                    )
                }
            }
            ("Attr", false) => {
                let tid = op.tuple().get(0);
                if instance_types.contains(&tid) {
                    (true, Some(tid), "removes an attribute from a type with live instances; existing slots become dangling".to_string())
                } else {
                    (
                        false,
                        None,
                        "type has no live instances; representations are unaffected".to_string(),
                    )
                }
            }
            ("Type", false) => {
                let tid = op.tuple().get(0);
                if instance_types.contains(&tid) {
                    (
                        true,
                        Some(tid),
                        "deletes a type that still has live instances".to_string(),
                    )
                } else {
                    (
                        false,
                        None,
                        "deletes a type without live instances".to_string(),
                    )
                }
            }
            ("SubTypRel", _) => {
                let sub = op.tuple().get(0);
                if instance_types.contains(&sub) {
                    (true, Some(sub), "changes the supertype lattice under a type with live instances; the inherited attribute set changes".to_string())
                } else {
                    (
                        false,
                        None,
                        "supertype lattice change below types without live instances".to_string(),
                    )
                }
            }
            _ => (
                false,
                None,
                "definitional change with no direct instance impact".to_string(),
            ),
        };
        let migrated = breaking && tid.is_some_and(|t| migrated_tids.contains(&t));
        out.push(ClassifiedOp {
            rendered,
            pred,
            breaking,
            migrated,
            reason,
        });
    }
    out
}

/// Thresholds for plan diagnostics.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// `L0603` fires when the footprint exceeds this many constraints.
    pub max_footprint: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { max_footprint: 32 }
    }
}

/// Turn a footprint plus classification into `L06xx` lint diagnostics.
pub fn impact_diagnostics(
    index: &ImpactIndex,
    footprint: &Footprint,
    classes: &[ClassifiedOp],
    cfg: &PlanConfig,
) -> LintReport {
    let mut report = LintReport::default();
    for c in classes.iter().filter(|c| c.breaking && !c.migrated) {
        report.diags.push(
            Diagnostic::new(
                "L0601",
                Severity::Warn,
                format!(
                    "breaking change {} has no migration in this session",
                    c.rendered
                ),
            )
            .with_note(c.reason.clone())
            .with_fix(
                "migrate the affected representations (PhRep/Slot updates) in the same session, \
                 or plan for repair generation at EES",
            ),
        );
    }
    for name in index.untouchable() {
        report.diags.push(
            Diagnostic::new(
                "L0602",
                Severity::Note,
                format!("constraint `{name}` cannot be affected by any evolution primitive"),
            )
            .with_note(
                "its violation rules read no evolvable catalog predicate, so no session delta \
                 can change its truth value",
            ),
        );
    }
    if footprint.constraints.len() > cfg.max_footprint {
        report.diags.push(
            Diagnostic::new(
                "L0603",
                Severity::Warn,
                format!(
                    "impact footprint covers {} of {} constraints (threshold {})",
                    footprint.constraints.len(),
                    footprint.total,
                    cfg.max_footprint
                ),
            )
            .with_note("this session is close to a full consistency check; footprint-based skipping will not pay off")
            .with_fix("split the session into smaller primitives, or raise the plan threshold"),
        );
    }
    report.sort();
    report
}

/// The pre-EES commit plan for one session delta.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Number of net operations in the session delta.
    pub ops: usize,
    /// Per-operation breaking/non-breaking classification.
    pub classes: Vec<ClassifiedOp>,
    /// Sorted names of constraints the delta can newly violate.
    pub footprint: Vec<String>,
    /// Total constraints defined.
    pub total_constraints: usize,
    /// `L06xx` diagnostics for this plan.
    pub diagnostics: LintReport,
}

impl PlanReport {
    /// Render the plan for terminal output (gomsh) or the wire (gomd).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "impact plan — {} op(s) in the session delta\n",
            self.ops
        ));
        for c in &self.classes {
            let tag = if c.breaking {
                if c.migrated {
                    "BREAKING (migrated)"
                } else {
                    "BREAKING (no migration)"
                }
            } else {
                "ok"
            };
            out.push_str(&format!("  {} — {tag}: {}\n", c.rendered, c.reason));
        }
        out.push_str(&format!(
            "footprint: {} of {} constraint(s) reachable from this delta\n",
            self.footprint.len(),
            self.total_constraints
        ));
        for name in &self.footprint {
            out.push_str(&format!("  - {name}\n"));
        }
        out.push_str(&format!(
            "EES can provably skip {} constraint(s)\n",
            self.total_constraints - self.footprint.len()
        ));
        if self.diagnostics.is_clean() {
            out.push_str("plan diagnostics: clean\n");
        } else {
            out.push_str(&gom_lint::render_report(&self.diagnostics, None, "<plan>"));
        }
        out
    }
}

/// Build the full pre-EES plan for a session delta: footprint,
/// classification, and `L06xx` diagnostics. Emits the `impact.plan` span
/// and the `impact.*` counters.
pub fn plan(db: &Database, index: &ImpactIndex, delta: &ChangeSet, cfg: &PlanConfig) -> PlanReport {
    let _sp = gom_obs::span("impact.plan");
    let fp = index.footprint(db, delta);
    let classes = classify(db, delta);
    if gom_obs::enabled() {
        gom_obs::counter_add("impact.plan.runs", 1);
        gom_obs::counter_add("impact.footprint.size", fp.constraints.len() as u64);
        gom_obs::counter_add(
            "impact.constraints.skipped",
            (fp.total - fp.constraints.len()) as u64,
        );
    }
    let diagnostics = impact_diagnostics(index, &fp, &classes, cfg);
    let mut footprint: Vec<String> = fp.constraints.iter().cloned().collect();
    footprint.sort();
    PlanReport {
        ops: delta.ops.len(),
        classes,
        footprint,
        total_constraints: fp.total,
        diagnostics,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn db_with(text: &str) -> Database {
        let mut db = Database::new();
        db.load(text).unwrap();
        db
    }

    /// `D(X) :- A(X), not B(X)` with `constraint c1: forall X: !D(X)`.
    /// Inserting into A can violate c1 (positive path); inserting into B
    /// cannot (negative path — it only shrinks D); deleting from B can.
    #[test]
    fn polarity_closure_separates_insert_and_delete_triggers() {
        let mut db = db_with(
            "base A(x). base B(x). derived D(x).
             D(X) :- A(X), not B(X).
             constraint c1: forall X: !D(X).",
        );
        let idx = ImpactIndex::build(&mut db).unwrap();
        assert!(idx.insert_triggers("A").is_some_and(|s| s.contains("c1")));
        assert!(!idx.insert_triggers("B").is_some_and(|s| s.contains("c1")));
        assert!(idx.delete_triggers("B").is_some_and(|s| s.contains("c1")));
        assert!(!idx.delete_triggers("A").is_some_and(|s| s.contains("c1")));
        let reads = idx.constraint_reads("c1");
        assert!(reads.contains(&"A".to_string()) && reads.contains(&"B".to_string()));
    }

    #[test]
    fn footprint_is_polarity_aware_over_the_delta() {
        let mut db = db_with(
            "base A(x). base B(x). derived D(x).
             D(X) :- A(X), not B(X).
             constraint c1: forall X: !D(X).",
        );
        let idx = ImpactIndex::build(&mut db).unwrap();
        let a = db.pred_id("A").unwrap();
        let b = db.pred_id("B").unwrap();
        let v = db.constant("v");

        let mut ins_b = ChangeSet::new();
        ins_b.insert(b, vec![v].into());
        assert!(idx.footprint(&db, &ins_b).constraints.is_empty());

        let mut del_b = ChangeSet::new();
        del_b.delete(b, vec![v].into());
        assert!(idx.footprint(&db, &del_b).constraints.contains("c1"));

        let mut ins_a = ChangeSet::new();
        ins_a.insert(a, vec![v].into());
        assert!(idx.footprint(&db, &ins_a).constraints.contains("c1"));
    }

    /// Without any evolvable catalog predicate in the program, every
    /// constraint is untouchable and L0602 fires for each.
    #[test]
    fn untouchable_constraints_get_l0602() {
        let mut db = db_with(
            "base E(x, y). derived P(x, y).
             P(X, Y) :- E(X, Y).
             constraint acyclic: forall X: !P(X, X).",
        );
        let idx = ImpactIndex::build(&mut db).unwrap();
        assert_eq!(idx.untouchable(), ["acyclic"]);
        let fp = Footprint {
            constraints: FxHashSet::default(),
            total: 1,
        };
        let report = impact_diagnostics(&idx, &fp, &[], &PlanConfig::default());
        assert!(report.diags.iter().any(|d| d.code == "L0602"));
    }

    #[test]
    fn footprint_threshold_fires_l0603() {
        let mut db = db_with(
            "base Attr(tid, attr, domain).
             constraint has_attr: forall T, A, D: Attr(T, A, D) -> exists E: Attr(T, A, E).",
        );
        let idx = ImpactIndex::build(&mut db).unwrap();
        let attr = db.pred_id("Attr").unwrap();
        let (t, a, d) = (db.constant("t"), db.constant("a"), db.constant("d"));
        let mut delta = ChangeSet::new();
        delta.insert(attr, vec![t, a, d].into());
        let fp = idx.footprint(&db, &delta);
        let cfg = PlanConfig { max_footprint: 0 };
        let report = impact_diagnostics(&idx, &fp, &[], &cfg);
        assert!(
            report.diags.iter().any(|d| d.code == "L0603"),
            "{report:?} with footprint {fp:?}"
        );
    }
}
