//! Consistency checking: full, maintained and dependency-pruned
//! incremental.
//!
//! Full checking materialises the IDB and scans every violation predicate
//! plus every key. Both incremental checks (the stand-in for the paper's
//! efficient-consistency-check citation [20]) first intersect the change
//! set's predicates with each constraint's base-dependency cone. The
//! maintained check, which EES uses, then reads the affected violation
//! relations from the IDB that DRed kept current; the delta check, a
//! baseline and referee, evaluates only the rules feeding them.

use crate::changes::ChangeSet;
use crate::compile::CompiledConstraint;
use crate::db::Database;
use crate::error::Result;

use crate::pred::PredId;
use crate::relation::Relation;
use crate::symbol::FxHashSet;
use crate::tuple::{Row, Tuple};
use crate::value::Const;

/// Where a violation came from (used internally by repair generation).
#[derive(Clone, Debug)]
pub(crate) enum ViolationSource {
    /// A declarative constraint, with its compiled index and witness tuple.
    Constraint { idx: usize, tuple: Tuple },
    /// A key (uniqueness) constraint on a base predicate: two facts agree on
    /// the key columns but differ elsewhere.
    Key { pred: PredId, a: Tuple, b: Tuple },
}

/// A detected inconsistency.
#[derive(Clone, Debug)]
pub struct Violation {
    pub(crate) source: ViolationSource,
    /// Name of the violated constraint (key violations use
    /// `key(<PredName>)`).
    pub constraint: String,
    /// Optional description from the constraint definition.
    pub message: Option<String>,
    /// Witness: variable name / value pairs falsifying the constraint.
    pub witness: Vec<(String, Const)>,
}

impl Violation {
    /// Render the violation as one line, e.g.
    /// `slot-for-every-attr: T=tid4, A=fuelType, TA=tid_string, C=clid4`.
    pub fn render(&self, db: &Database) -> String {
        let mut s = self.constraint.clone();
        if !self.witness.is_empty() {
            s.push_str(": ");
            for (i, (name, val)) in self.witness.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(name);
                s.push('=');
                s.push_str(&val.display(db.interner()).to_string());
            }
        }
        if let Some(m) = &self.message {
            s.push_str(" — ");
            s.push_str(m);
        }
        s
    }
}

/// Hash of a fact's key columns (see `Idb::key_counts`).
pub(crate) fn key_hash(key: &[usize], t: &Row) -> u64 {
    crate::relation::hash_vals(key.iter().map(|&c| t.get(c)))
}

fn key_violations_for(
    db: &Database,
    pred: PredId,
    only_tuples: Option<&[Tuple]>,
) -> Vec<Violation> {
    let Some(key) = db.pred_decl(pred).key.clone() else {
        return Vec::new();
    };
    let rel = db.relation(pred);
    let mut out = Vec::new();
    // Materialise a violation. This is the *only* place the key check
    // copies rows: a clean check borrows everything (asserted via the
    // `check.keys.clones` counter).
    let mut report = |a: &Row, b: &Row| {
        let (a, b) = if a <= b {
            (a.to_tuple(), b.to_tuple())
        } else {
            (b.to_tuple(), a.to_tuple())
        };
        gom_obs::counter_add("check.keys.clones", 2);
        out.push(Violation {
            constraint: format!("key({})", db.pred_name(pred)),
            message: Some(format!(
                "two facts agree on key columns {:?} but differ elsewhere",
                &key[..]
            )),
            witness: Vec::new(),
            source: ViolationSource::Key { pred, a, b },
        });
    };
    match only_tuples {
        Some(tuples) => {
            for t in tuples {
                if !rel.contains(t) {
                    continue;
                }
                let bound: Vec<(usize, Const)> = key.iter().map(|&c| (c, t.get(c))).collect();
                for other in rel.select(&bound) {
                    if other != &**t {
                        report(t, other);
                    }
                }
            }
        }
        None => {
            // Group by *index* into the stored extension instead of cloning
            // every tuple into per-key buckets: sort row indices by the key
            // columns (full tuple order as tie-break), then report adjacent
            // pairs inside each equal-key run. Two flat allocations total,
            // zero per-tuple clones on the clean path.
            fn key_of<'a>(key: &'a [usize], t: &'a Row) -> impl Iterator<Item = Const> + 'a {
                key.iter().map(move |&c| t.get(c))
            }
            let rows: Vec<&Row> = rel.iter().collect();
            let mut idx: Vec<u32> = (0..rows.len() as u32).collect();
            idx.sort_unstable_by(|&i, &j| {
                let (a, b) = (rows[i as usize], rows[j as usize]);
                key_of(&key, a).cmp(key_of(&key, b)).then_with(|| a.cmp(b))
            });
            let mut s = 0;
            while s < idx.len() {
                let mut e = s + 1;
                while e < idx.len()
                    && key_of(&key, rows[idx[s] as usize]).eq(key_of(&key, rows[idx[e] as usize]))
                {
                    e += 1;
                }
                for w in s..e.saturating_sub(1) {
                    report(rows[idx[w] as usize], rows[idx[w + 1] as usize]);
                }
                s = e;
            }
        }
    }
    // Deduplicate (a pair can be reported twice when iterating tuples).
    out.sort_by(|x, y| {
        let kx = match &x.source {
            ViolationSource::Key { a, b, .. } => (a.clone(), b.clone()),
            _ => unreachable!(),
        };
        let ky = match &y.source {
            ViolationSource::Key { a, b, .. } => (a.clone(), b.clone()),
            _ => unreachable!(),
        };
        kx.cmp(&ky)
    });
    out.dedup_by(|x, y| match (&x.source, &y.source) {
        (ViolationSource::Key { a, b, .. }, ViolationSource::Key { a: a2, b: b2, .. }) => {
            a == a2 && b == b2
        }
        _ => false,
    });
    out
}

impl Database {
    /// Crate-internal: collect constraint violations from an IDB slice
    /// (the maintained IDB, or the cone [`Self::check_delta`] evaluates).
    pub(crate) fn collect_violations_public(
        &self,
        idb: &[Relation],
        indices: &[usize],
    ) -> Result<Vec<Violation>> {
        self.collect_constraint_violations(|_, cc| &idb[cc.viol.index()], indices)
    }

    /// Scan the violation predicates of the given compiled constraints, one
    /// after another. Violations are collected in *stored* order; every
    /// public entry point applies one final [`sort_violations`], so the
    /// rendered output is deterministic. `viol_rel` maps a compiled
    /// constraint (and its index) to the relation holding its violation
    /// facts: an IDB slot, or a carried relation.
    fn collect_constraint_violations<'r>(
        &self,
        viol_rel: impl Fn(usize, &CompiledConstraint) -> &'r Relation,
        indices: &[usize],
    ) -> Result<Vec<Violation>> {
        let compiled = self.compiled.as_ref().expect("compiled");
        crate::eval::map_contained(indices, |&ci, out| {
            let cc = &compiled.constraints[ci];
            let src = &self.defs.constraints[cc.source_idx];
            let t0 = gom_obs::enabled().then(std::time::Instant::now);
            let before = out.len();
            for tuple in viol_rel(ci, cc).iter() {
                let witness = cc
                    .outer_vars
                    .iter()
                    .zip(tuple.iter())
                    .map(|(v, c)| (src.var_name(*v).to_string(), c))
                    .collect();
                out.push(Violation {
                    constraint: src.name.clone(),
                    message: src.message.clone(),
                    witness,
                    source: ViolationSource::Constraint {
                        idx: ci,
                        tuple: tuple.to_tuple(),
                    },
                });
            }
            if let Some(t0) = t0 {
                // Credit the per-constraint time to the aggregate only: a
                // check over many constraints would otherwise write one
                // trace line per constraint.
                gom_obs::record_span_dur(&format!("check.constraint:{}", src.name), t0.elapsed());
                gom_obs::counter_add("check.violations", (out.len() - before) as u64);
            }
        })
    }

    /// Full consistency check: every constraint, every key. A snapshot
    /// that carries the writer's violation relations (see
    /// [`Database::snapshot_clone`]) reads them while no IDB is
    /// materialised; otherwise the IDB is evaluated first — a no-op while
    /// it is maintained. The key scan is skipped for every predicate known
    /// to be clean: by the maintained key counts, or by the verdict a
    /// snapshot carries from its writer.
    pub fn check(&mut self) -> Result<Vec<Violation>> {
        let _sp = gom_obs::span("check.full");
        let mut out = match (&self.idb, &self.carried) {
            (None, Some(carried)) => {
                let viols = &carried.viols;
                let all: Vec<usize> = (0..viols.len()).collect();
                self.collect_constraint_violations(|ci, _| &viols[ci], &all)?
            }
            _ => {
                self.evaluate()?;
                let idb = self.idb.as_ref().expect("evaluated");
                let all: Vec<usize> =
                    (0..self.compiled.as_ref().expect("compiled").constraints.len()).collect();
                self.collect_constraint_violations(|_, cc| &idb.rels[cc.viol.index()], &all)?
            }
        };
        let keyed: Vec<PredId> = self
            .base_preds()
            .filter(|&p| self.pred_decl(p).key.is_some())
            .collect();
        {
            let _keys = gom_obs::span("check.keys");
            for p in keyed {
                if !self.key_clean(p) {
                    out.extend(key_violations_for(self, p, None));
                }
            }
        }
        sort_violations(&mut out);
        Ok(out)
    }

    /// Incremental consistency check after `delta`, assuming the database
    /// was consistent before: evaluates only the rule cones of affected
    /// constraints and re-checks only keys of touched predicates (and only
    /// around inserted tuples).
    ///
    /// EES never calls this: it reads the maintained IDB
    /// ([`Self::check_maintained`]). This is the delta-check baseline the
    /// benchmarks compare against, and the referee the soundness sweeps
    /// hold the maintained read to.
    pub fn check_delta(&mut self, delta: &ChangeSet) -> Result<Vec<Violation>> {
        let _sp = gom_obs::span("check.delta");
        self.ensure_compiled()?;
        let touched: FxHashSet<PredId> = delta.touched_preds().into_iter().collect();
        // Affected constraints and the derived predicates they need.
        let (affected, needed): (Vec<usize>, FxHashSet<PredId>) = {
            let compiled = self.compiled.as_ref().expect("compiled");
            let mut affected = Vec::new();
            let mut frontier: Vec<PredId> = Vec::new();
            for (i, cc) in compiled.constraints.iter().enumerate() {
                if cc.deps.iter().any(|p| touched.contains(p)) {
                    affected.push(i);
                    frontier.push(cc.viol);
                }
            }
            let mut needed: FxHashSet<PredId> = FxHashSet::default();
            while let Some(p) = frontier.pop() {
                if !needed.insert(p) {
                    continue;
                }
                if let Some(ixs) = compiled.rules_by_head.get(&p) {
                    for &i in ixs {
                        for lit in &compiled.rules[i].body {
                            match lit {
                                crate::ast::Literal::Pos(a) | crate::ast::Literal::Neg(a) => {
                                    if !self.pred_decl(a.pred).is_base() {
                                        frontier.push(a.pred);
                                    }
                                }
                                crate::ast::Literal::Cmp(..) => {}
                            }
                        }
                    }
                }
            }
            (affected, needed)
        };
        if gom_obs::enabled() {
            let total = self.compiled.as_ref().expect("compiled").constraints.len();
            gom_obs::counter_add("check.constraints.affected", affected.len() as u64);
            gom_obs::counter_add("check.constraints.skipped", (total - affected.len()) as u64);
        }

        let mut out = if affected.is_empty() {
            Vec::new()
        } else {
            self.ensure_base_indexes();
            let compiled = self.compiled.take().expect("compiled");
            // Restrict each stratum to rules whose head is needed.
            let restricted: Vec<Vec<usize>> = compiled
                .strat
                .rule_strata
                .iter()
                .map(|s| {
                    s.iter()
                        .copied()
                        .filter(|&i| needed.contains(&compiled.rules[i].head.pred))
                        .collect()
                })
                .collect();
            let mut rels: Vec<Relation> = vec![Relation::new(); self.pred_count()];
            crate::eval::ensure_idb_indexes(self, &compiled, &mut rels);
            let mut evaluated = Ok(());
            for stratum in &restricted {
                evaluated = crate::eval::eval_stratum_public(self, &mut rels, &compiled, stratum);
                if evaluated.is_err() {
                    break;
                }
            }

            // Restore the compiled program before propagating any evaluation
            // panic, so the database stays usable after the error.
            self.compiled = Some(compiled);
            evaluated?;
            self.collect_violations_public(&rels, &affected)?
        };

        out.extend(self.delta_key_violations(delta, &touched));
        sort_violations(&mut out);
        Ok(out)
    }

    /// Key checks restricted to the tuples a delta inserted into keyed
    /// predicates (keys cannot be violated by deletions). Shared between
    /// [`Self::check_delta`] and [`Self::check_maintained`] so the two
    /// paths are key-identical by construction.
    fn delta_key_violations(
        &self,
        delta: &ChangeSet,
        touched: &FxHashSet<PredId>,
    ) -> Vec<Violation> {
        let _keys = gom_obs::span("check.keys");
        let mut out = Vec::new();
        for &p in touched.iter().collect::<std::collections::BTreeSet<_>>() {
            if self.pred_decl(p).key.is_none() {
                continue;
            }
            let inserted: Vec<Tuple> = delta
                .ops
                .iter()
                .filter_map(|op| match op {
                    crate::changes::Op::Insert(pp, t) if *pp == p => Some(t.clone()),
                    _ => None,
                })
                .collect();
            out.extend(key_violations_for(self, p, Some(&inserted)));
        }
        out
    }

    /// EES read from the maintained IDB: while maintenance is armed
    /// ([`Database::ensure_maintained`]) the violation relations of every
    /// constraint are already up to date, so the commit check reduces to
    /// reading the relations of the delta-affected constraints plus the
    /// (unfilterable) key checks — O(Δ) in the session's change instead of
    /// O(schema). When the IDB was dropped mid-session (a definition
    /// change, or [`Database::invalidate_caches`]) it is re-armed first,
    /// which re-derives it once from the current state.
    ///
    /// Decision-equivalent to [`Database::check_delta`] by construction:
    /// the identical affected-constraint selection reads the maintained
    /// violation relations instead of re-deriving their cones, and the key
    /// checks are shared code. The `tests/maintained_soundness.rs` sweep
    /// asserts bit-identical reports across both paths and against a
    /// from-scratch check.
    pub fn check_maintained(&mut self, delta: &ChangeSet) -> Result<Vec<Violation>> {
        let _sp = gom_obs::span("ees.maintained");
        if !self.maintenance_active() || !self.idb_matches_program() {
            self.ensure_maintained()?;
        }
        let idb = self.idb.as_ref().expect("armed");
        let compiled = self.compiled.as_ref().expect("compiled");
        let touched: FxHashSet<PredId> = delta.touched_preds().into_iter().collect();
        let affected: Vec<usize> = compiled
            .constraints
            .iter()
            .enumerate()
            .filter(|(_, cc)| cc.deps.iter().any(|p| touched.contains(p)))
            .map(|(i, _)| i)
            .collect();
        let mut out = self.collect_violations_public(&idb.rels, &affected)?;
        out.extend(self.delta_key_violations(delta, &touched));
        if gom_obs::enabled() {
            gom_obs::counter_add("check.constraints.affected", affected.len() as u64);
            gom_obs::counter_add("check.violations.maintained", out.len() as u64);
        }
        sort_violations(&mut out);
        Ok(out)
    }
}

/// Total order on violations (constraint name, then debug-rendered
/// source). Applied once at every public check boundary — equal violation
/// multisets therefore render as identical sequences, which the
/// differential sweeps rely on. The `check.violations.sort_ns` probe
/// measures what the single deferred sort costs.
pub(crate) fn sort_violations(v: &mut [Violation]) {
    let t0 = gom_obs::enabled().then(std::time::Instant::now);
    v.sort_by(|a, b| {
        a.constraint
            .cmp(&b.constraint)
            .then_with(|| format!("{:?}", a.source).cmp(&format!("{:?}", b.source)))
    });
    if let Some(t0) = t0 {
        gom_obs::counter_add("check.violations.sort_ns", t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn db_with(text: &str) -> Database {
        let mut db = Database::new();
        parse_program(&mut db, text).expect("program parses");
        db
    }

    fn c(db: &mut Database, s: &str) -> Const {
        db.constant(s)
    }

    #[test]
    fn simple_referential_integrity() {
        let mut db = db_with(
            "base Type(tid, name, sid).\n\
             base Schema(sid, name).\n\
             constraint type_schema_ref \"schema of a type must exist\":\n\
               forall X, Y, Z: Type(X, Y, Z) -> exists N: Schema(Z, N).\n",
        );
        let ty = db.pred_id("Type").unwrap();
        let sc = db.pred_id("Schema").unwrap();
        let (t1, n1, s1) = (c(&mut db, "t1"), c(&mut db, "Person"), c(&mut db, "s1"));
        db.insert(ty, vec![t1, n1, s1]).unwrap();
        let v = db.check().unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].constraint, "type_schema_ref");
        let nm = c(&mut db, "CarSchema");
        db.insert(sc, vec![s1, nm]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn key_violation_detected() {
        let mut db = Database::new();
        let p = db.declare_base_keyed("P", 2, &[0]).unwrap();
        db.insert(p, vec![Const::Int(1), Const::Int(10)]).unwrap();
        db.insert(p, vec![Const::Int(1), Const::Int(20)]).unwrap();
        db.insert(p, vec![Const::Int(2), Const::Int(10)]).unwrap();
        let v = db.check().unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].constraint.starts_with("key("));
    }

    #[test]
    fn acyclicity_constraint() {
        let mut db = db_with(
            "base Sub(a, b).\n\
             derived SubT(a, b).\n\
             SubT(X, Y) :- Sub(X, Y).\n\
             SubT(X, Z) :- Sub(X, Y), SubT(Y, Z).\n\
             constraint acyclic: forall X: !SubT(X, X).\n",
        );
        let sub = db.pred_id("Sub").unwrap();
        let (a, b) = (c(&mut db, "a"), c(&mut db, "b"));
        db.insert(sub, vec![a, b]).unwrap();
        assert!(db.check().unwrap().is_empty());
        db.insert(sub, vec![b, a]).unwrap();
        let v = db.check().unwrap();
        assert_eq!(v.len(), 2); // witnesses: X=a and X=b
        assert_eq!(v[0].constraint, "acyclic");
    }

    #[test]
    fn incremental_skips_unaffected_constraints() {
        let mut db = db_with(
            "base P(x).\n\
             base Q(x).\n\
             constraint p_nonneg: forall X: P(X) -> X >= 0.\n\
             constraint q_nonneg: forall X: Q(X) -> X >= 0.\n",
        );
        let p = db.pred_id("P").unwrap();
        let q = db.pred_id("Q").unwrap();
        db.insert(q, vec![Const::Int(-5)]).unwrap(); // pre-existing violation
        let mut delta = ChangeSet::new();
        delta.insert(p, Tuple::from(vec![Const::Int(3)]));
        db.apply(&delta).unwrap();
        // Incremental check only sees p_nonneg — and P(3) is fine.
        assert!(db.check_delta(&delta).unwrap().is_empty());
        // Full check still reports the stale Q violation.
        assert_eq!(db.check().unwrap().len(), 1);
    }

    #[test]
    fn incremental_finds_new_violation() {
        let mut db = db_with(
            "base P(x).\n\
             constraint p_nonneg: forall X: P(X) -> X >= 0.\n",
        );
        let p = db.pred_id("P").unwrap();
        let mut delta = ChangeSet::new();
        delta.insert(p, Tuple::from(vec![Const::Int(-1)]));
        db.apply(&delta).unwrap();
        let v = db.check_delta(&delta).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].constraint, "p_nonneg");
    }

    #[test]
    fn incremental_key_check_only_looks_at_inserts() {
        let mut db = Database::new();
        let p = db.declare_base_keyed("P", 2, &[0]).unwrap();
        db.insert(p, vec![Const::Int(1), Const::Int(10)]).unwrap();
        let mut delta = ChangeSet::new();
        delta.insert(p, Tuple::from(vec![Const::Int(1), Const::Int(20)]));
        db.apply(&delta).unwrap();
        let v = db.check_delta(&delta).unwrap();
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn violation_render_includes_witness() {
        let mut db = db_with(
            "base P(x).\n\
             constraint p_nonneg \"P must be non-negative\": forall X: P(X) -> X >= 0.\n",
        );
        let p = db.pred_id("P").unwrap();
        db.insert(p, vec![Const::Int(-2)]).unwrap();
        let v = db.check().unwrap();
        let line = v[0].render(&db);
        assert!(line.contains("p_nonneg"), "{line}");
        assert!(line.contains("X=-2"), "{line}");
        assert!(line.contains("non-negative"), "{line}");
    }
}
