//! Incremental IDB maintenance: delete–rederive (DRed) for stratified
//! programs.
//!
//! This is the engine-level counterpart of the paper's "efficient
//! consistency checking" citation (\[20\]). Once the database's IDB is
//! *armed* ([`Database::ensure_maintained`]), every base-fact insert or
//! remove feeds its singleton delta through the classic three-phase DRed
//! algorithm per stratum instead of dropping the IDB:
//!
//! 1. **over-delete** — propagate deletions (and insertions through
//!    negation) against the *old* state, removing a superset of the facts
//!    that lost support,
//! 2. **re-derive** — reinsert over-deleted facts that still have an
//!    alternative derivation in the *new* state,
//! 3. **insert** — propagate insertions (and deletions through negation)
//!    against the new state.
//!
//! Net per-predicate deltas flow upward through the strata. Phase 1 needs
//! the pre-change database, but cloning the EDB/IDB per change is
//! O(database) — exactly the cost this module exists to avoid. Instead the
//! old state is reconstructed *in place*: net-deleted facts are temporarily
//! re-inserted and net-added facts temporarily removed, the over-deletion
//! joins run, and the store flips back before re-derivation
//! ([`Database::flip_restore`]). The flip only ever touches the Δ facts,
//! so one change costs O(Δ · strata) regardless of database size.
//!
//! The maintained IDB is the database's only IDB: derived predicates —
//! including compiled constraint violation relations — are correct at all
//! times, so an EES commit check ([`Database::check_maintained`]), a full
//! [`Database::check`], queries, `why` and repair generation are all reads.
//!
//! `tests/incremental_equivalence.rs` checks the maintained IDB against the
//! naive reference interpreter on random programs and mutation batches;
//! `tests/maintained_soundness.rs` does the same for EES sessions against
//! from-scratch checks of a deep snapshot.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::Literal;
use crate::check::key_hash;
use crate::compile::Compiled;
use crate::db::Database;
use crate::error::Result;
use crate::eval::{exec_plan, instantiate_head, Binding, DeltaSrc, Idb, Store};
use crate::plan::RulePlans;
use crate::pred::PredId;
use crate::relation::Relation;
use crate::symbol::{FxHashMap, FxHashSet};
use crate::tuple::{Row, Tuple};

/// Net per-predicate change relations. Only touched predicates carry an
/// entry, so building one is O(Δ), not O(#preds).
pub(crate) type DeltaMap = FxHashMap<PredId, Relation>;

impl Database {
    /// Arm maintenance of the IDB: materialise it if absent, then mark it
    /// maintained, so every subsequent base-fact [`Database::insert`] /
    /// [`Database::remove`] updates it by DRed instead of dropping it. A
    /// no-op when already armed, so re-arming at every session begin is
    /// cheap.
    pub fn ensure_maintained(&mut self) -> Result<()> {
        self.evaluate()?;
        if self.maintenance_active() {
            return Ok(());
        }
        let mut key_counts: FxHashMap<PredId, FxHashMap<u64, u32>> = FxHashMap::default();
        for (p, d) in self.preds.iter().enumerate() {
            let Some(key) = &d.key else {
                continue;
            };
            let counts = key_counts.entry(PredId(p as u32)).or_default();
            for t in self.rels[p].iter() {
                *counts.entry(key_hash(key, t)).or_insert(0) += 1;
            }
        }
        if let Some(idb) = &mut self.idb {
            idb.key_counts = key_counts;
            idb.maintained = true;
        }
        Ok(())
    }

    /// Is the IDB materialised and maintained?
    pub fn maintenance_active(&self) -> bool {
        self.idb.as_ref().is_some_and(|idb| idb.maintained)
    }

    /// Bring the IDB up to date with one base-fact change already applied
    /// to the store: DRed in place when maintained, else drop it. Carried
    /// snapshot violations are dropped either way.
    pub(crate) fn base_changed(&mut self, pred: PredId, tuple: &Row, inserted: bool) {
        if self.maintenance_active() {
            self.carried = None;
            self.maintain_change(pred, tuple, inserted);
        } else {
            self.retire_idb();
        }
    }

    /// Does the IDB still match the compiled program? `decompile()` drops
    /// the IDB together with the program, so a mismatch means an invariant
    /// broke upstream: the IDB is dropped and counted as a discard.
    pub(crate) fn idb_matches_program(&mut self) -> bool {
        let current = match (&self.idb, &self.compiled) {
            (Some(idb), Some(c)) => idb.fingerprint == (self.preds.len(), c.rules.len()),
            _ => false,
        };
        if !current {
            gom_obs::counter_add("check.maintenance.discards", 1);
            self.retire_idb();
        }
        current
    }

    /// Feed one applied base-fact change through DRed. On any
    /// irregularity the IDB is dropped — EES then falls back to
    /// [`Database::check_delta`]; fact mutation itself never fails because
    /// of maintenance.
    fn maintain_change(&mut self, pred: PredId, tuple: &Row, inserted: bool) {
        let _sp = gom_obs::span("dred.maintain");
        if !self.idb_matches_program() {
            return;
        }
        let (Some(mut idb), Some(compiled)) = (self.idb.take(), self.compiled.clone()) else {
            return;
        };
        if let Some(key) = &self.preds[pred.index()].key {
            let counts = idb.key_counts.entry(pred).or_default();
            let h = key_hash(key, tuple);
            if inserted {
                *counts.entry(h).or_insert(0) += 1;
            } else if let Some(n) = counts.get_mut(&h) {
                *n -= 1;
                if *n == 0 {
                    counts.remove(&h);
                }
            }
        }
        let mut delta = DeltaMap::default();
        delta.entry(pred).or_default().insert(tuple);
        let (del, add) = if inserted {
            (DeltaMap::default(), delta)
        } else {
            (delta, DeltaMap::default())
        };
        self.dred(&mut idb, &compiled, del, add);
        self.idb = Some(idb);
    }

    /// Flip the live store between the new state and the old (pre-delta)
    /// state, in place: with `to_old` the net-deleted facts are re-inserted
    /// and the net-added ones removed (base facts into the live EDB, derived
    /// facts into `idb`); with `!to_old` the exact inverse. Phase 1 of DRed
    /// must see the *old* database — including under every negated literal,
    /// where a merely-superset state would silently skip over-deletions —
    /// and this reconstructs it at O(Δ) cost instead of cloning.
    fn flip_restore(&mut self, idb: &mut Idb, del: &DeltaMap, add: &DeltaMap, to_old: bool) {
        let (ins, rem) = if to_old { (del, add) } else { (add, del) };
        for (p, r) in ins {
            let target = if self.preds[p.index()].is_base() {
                &mut self.rels[p.index()]
            } else {
                &mut idb.rels[p.index()]
            };
            for t in r.iter() {
                target.insert(t);
            }
        }
        for (p, r) in rem {
            let target = if self.preds[p.index()].is_base() {
                &mut self.rels[p.index()]
            } else {
                &mut idb.rels[p.index()]
            };
            for t in r.iter() {
                target.remove(t);
            }
        }
    }

    /// The DRed core: maintain `idb` for the net base changes `del`/`add`,
    /// which must already be applied to the live store. Infallible: plan
    /// execution cannot error, and DRed does not run through the panic
    /// containment of [`crate::eval::map_contained`].
    fn dred(&mut self, idb: &mut Idb, compiled: &Compiled, mut del: DeltaMap, mut add: DeltaMap) {
        if del.is_empty() && add.is_empty() {
            return;
        }
        for stratum in &compiled.strat.rule_strata {
            let rules = &compiled.rules;
            let stratum_preds: FxHashSet<PredId> =
                stratum.iter().map(|&i| rules[i].head.pred).collect();

            // ----- phase 1: over-delete (old state, reconstructed in place) -----
            // `del`/`add` hold base facts plus the nets of *lower* strata
            // only — this stratum's heads are written in phases 2–3 — so the
            // flip never touches a relation phase 1 derives into.
            self.flip_restore(idb, &del, &add, true);
            let mut over: Vec<(PredId, Tuple)> = Vec::new();
            let mut over_set: FxHashSet<(PredId, Tuple)> = FxHashSet::default();
            let mut frontier: Vec<(PredId, Tuple)> = Vec::new();
            for &ri in stratum {
                let rule = &rules[ri];
                for (li, lit) in rule.body.iter().enumerate() {
                    let (src_pred, neg) = match lit {
                        Literal::Pos(a) if !stratum_preds.contains(&a.pred) => (a.pred, false),
                        Literal::Neg(a) => (a.pred, true),
                        _ => continue,
                    };
                    let src = if neg {
                        add.get(&src_pred)
                    } else {
                        del.get(&src_pred)
                    };
                    let Some(src) = src.filter(|r| !r.is_empty()) else {
                        continue;
                    };
                    delta_join(
                        self,
                        &idb.rels,
                        None,
                        &compiled.plans[ri],
                        li,
                        src,
                        neg,
                        &mut |h| {
                            if idb.rels[rule.head.pred.index()].contains(&h)
                                && over_set.insert((rule.head.pred, h.clone()))
                            {
                                frontier.push((rule.head.pred, h));
                            }
                        },
                    );
                }
            }
            // iterate: stratum-pred deletions propagate
            while let Some((dp, dt)) = frontier.pop() {
                over.push((dp, dt.clone()));
                let mut dr = Relation::new();
                dr.insert(&dt);
                for &ri in stratum {
                    let rule = &rules[ri];
                    for (li, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(a) = lit else {
                            continue;
                        };
                        if a.pred != dp {
                            continue;
                        }
                        delta_join(
                            self,
                            &idb.rels,
                            None,
                            &compiled.plans[ri],
                            li,
                            &dr,
                            false,
                            &mut |h| {
                                if idb.rels[rule.head.pred.index()].contains(&h)
                                    && over_set.insert((rule.head.pred, h.clone()))
                                {
                                    frontier.push((rule.head.pred, h));
                                }
                            },
                        );
                    }
                }
            }
            // back to the new state, then take out the over-deleted facts
            self.flip_restore(idb, &del, &add, false);
            for (p, t) in &over {
                idb.rels[p.index()].remove(t);
            }
            gom_obs::counter_add("dred.overdeleted", over.len() as u64);

            // ----- phase 2: re-derive (new state) ------------------------------------
            let mut still_deleted = over;
            let over_count = still_deleted.len();
            loop {
                let mut rederived: Vec<usize> = Vec::new();
                for (i, (p, t)) in still_deleted.iter().enumerate() {
                    if derivable(self, &idb.rels, compiled, *p, t) {
                        rederived.push(i);
                    }
                }
                if rederived.is_empty() {
                    break;
                }
                for &i in rederived.iter().rev() {
                    let (p, t) = still_deleted.remove(i);
                    idb.rels[p.index()].insert(&t);
                }
            }
            gom_obs::counter_add("dred.rederived", (over_count - still_deleted.len()) as u64);
            for (p, t) in still_deleted {
                del.entry(p).or_default().insert(&t);
            }

            // ----- phase 3: insert (new state) -----------------------------------------
            let mut frontier: Vec<(PredId, Tuple)> = Vec::new();
            for &ri in stratum {
                let rule = &rules[ri];
                for (li, lit) in rule.body.iter().enumerate() {
                    let (src_pred, neg) = match lit {
                        Literal::Pos(a) if !stratum_preds.contains(&a.pred) => (a.pred, false),
                        Literal::Neg(a) => (a.pred, true),
                        _ => continue,
                    };
                    let src = if neg {
                        del.get(&src_pred)
                    } else {
                        add.get(&src_pred)
                    };
                    let Some(src) = src.filter(|r| !r.is_empty()) else {
                        continue;
                    };
                    delta_join(
                        self,
                        &idb.rels,
                        None,
                        &compiled.plans[ri],
                        li,
                        src,
                        neg,
                        &mut |h| {
                            if !idb.rels[rule.head.pred.index()].contains(&h) {
                                frontier.push((rule.head.pred, h));
                            }
                        },
                    );
                }
            }
            while let Some((ap, at)) = frontier.pop() {
                if idb.rels[ap.index()].contains(&at) {
                    continue;
                }
                gom_obs::counter_add("dred.inserted", 1);
                idb.rels[ap.index()].insert(&at);
                add.entry(ap).or_default().insert(&at);
                let mut dr = Relation::new();
                dr.insert(&at);
                for &ri in stratum {
                    let rule = &rules[ri];
                    for (li, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(a) = lit else {
                            continue;
                        };
                        if a.pred != ap {
                            continue;
                        }
                        delta_join(
                            self,
                            &idb.rels,
                            None,
                            &compiled.plans[ri],
                            li,
                            &dr,
                            false,
                            &mut |h| {
                                if !idb.rels[rule.head.pred.index()].contains(&h) {
                                    frontier.push((rule.head.pred, h));
                                }
                            },
                        );
                    }
                }
            }
            // ----- net bookkeeping for upper strata -------------------------------------
            for &p in &stratum_preds {
                let both: Vec<Tuple> = match (del.get(&p), add.get(&p)) {
                    (Some(d), Some(a)) => d
                        .iter()
                        .filter(|t| a.contains(t))
                        .map(Row::to_tuple)
                        .collect(),
                    _ => continue,
                };
                if both.is_empty() {
                    continue;
                }
                if let Some(d) = del.get_mut(&p) {
                    for t in &both {
                        d.remove(t);
                    }
                }
                if let Some(a) = add.get_mut(&p) {
                    for t in &both {
                        a.remove(t);
                    }
                }
            }
        }
    }
}

/// Evaluate one rule with literal `li` bound from `delta_rel`, executing
/// the rule's precompiled delta plan. When the literal is negative, the
/// precompiled generator plan treats it as a positive scan over the delta
/// facts (the classic DRed trick: an inserted fact falsifies, a deleted
/// fact enables, the negation for exactly its own ground instance).
#[allow(clippy::too_many_arguments)]
fn delta_join(
    db: &Database,
    idb: &[Relation],
    base_override: Option<&[Relation]>,
    rp: &RulePlans,
    li: usize,
    delta_rel: &Relation,
    neg_as_generator: bool,
    sink: &mut dyn FnMut(Tuple),
) {
    let plan = if neg_as_generator {
        rp.neg_delta_plan(li)
    } else {
        rp.delta_plan(li)
    };
    let mut binding: Binding = vec![None; plan.var_count];
    let store = Store::new(db, idb, base_override);
    exec_plan(
        &store,
        plan,
        Some((li, DeltaSrc::Rel(delta_rel))),
        &mut binding,
        &mut |b| {
            sink(instantiate_head(&rp.head, b));
            true
        },
    );
    if gom_obs::enabled() {
        gom_obs::counter_add("dred.probes", store.probes.get());
    }
}

/// Is `t` derivable for `pred` by any rule against the given state? Runs
/// each candidate rule's precompiled derivability plan (head variables
/// pre-bound from `t`).
fn derivable(
    db: &Database,
    idb: &[Relation],
    compiled: &crate::compile::Compiled,
    pred: PredId,
    t: &Tuple,
) -> bool {
    use crate::ast::Term;
    let Some(rule_ixs) = compiled.rules_by_head.get(&pred) else {
        return false;
    };
    for &ri in rule_ixs {
        let rule = &compiled.rules[ri];
        let rp = &compiled.plans[ri];
        let mut binding: Binding = vec![None; rule.var_count()];
        let mut ok = true;
        for (j, &term) in rule.head.args.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if t.get(j) != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match binding[v.index()] {
                    Some(prev) if prev != t.get(j) => {
                        ok = false;
                        break;
                    }
                    _ => binding[v.index()] = Some(t.get(j)),
                },
            }
        }
        if !ok {
            continue;
        }
        let store = Store::new(db, idb, None);
        let mut found = false;
        exec_plan(&store, &rp.derivable, None, &mut binding, &mut |_| {
            found = true;
            false
        });
        if gom_obs::enabled() {
            gom_obs::counter_add("dred.probes", store.probes.get());
        }
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::value::Const;

    fn tc_db() -> (Database, PredId, PredId) {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).
             derived Path(a, b).
             Path(X, Y) :- Edge(X, Y).
             Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
        )
        .unwrap();
        let e = db.pred_id("Edge").unwrap();
        let p = db.pred_id("Path").unwrap();
        (db, e, p)
    }

    fn t1(a: i64) -> Tuple {
        Tuple::from(vec![Const::Int(a)])
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from(vec![Const::Int(a), Const::Int(b)])
    }

    /// The armed IDB (read without re-evaluating) agrees with the naive
    /// reference interpreter on `pred`; returns its facts.
    fn maintained_facts(db: &mut Database, pred: PredId) -> Vec<Tuple> {
        assert!(db.maintenance_active(), "IDB must still be armed");
        let got = db.derived_facts(pred).unwrap();
        assert_eq!(got, db.reference_facts(pred).unwrap());
        got
    }

    #[test]
    fn insertions_maintain_closure() {
        let (mut db, e, p) = tc_db();
        db.insert(e, t2(0, 1)).unwrap();
        db.ensure_maintained().unwrap();
        assert_eq!(maintained_facts(&mut db, p).len(), 1);
        db.insert(e, t2(1, 2)).unwrap();
        db.insert(e, t2(2, 3)).unwrap();
        assert_eq!(maintained_facts(&mut db, p).len(), 6);
    }

    #[test]
    fn deletions_with_rederivation() {
        let (mut db, e, p) = tc_db();
        // diamond: two paths 0→3
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            db.insert(e, t2(a, b)).unwrap();
        }
        db.ensure_maintained().unwrap();
        // delete one branch: 0→3 must survive via the other
        db.remove(e, &t2(0, 1)).unwrap();
        assert!(maintained_facts(&mut db, p).contains(&t2(0, 3)));
        // delete the second branch too: 0→3 disappears
        db.remove(e, &t2(0, 2)).unwrap();
        assert!(!maintained_facts(&mut db, p).contains(&t2(0, 3)));
    }

    #[test]
    fn negation_insert_deletes_derived() {
        let mut db = Database::new();
        db.load(
            "base Node(x).
             base Broken(x).
             derived Healthy(x).
             Healthy(X) :- Node(X), not Broken(X).",
        )
        .unwrap();
        let n = db.pred_id("Node").unwrap();
        let b = db.pred_id("Broken").unwrap();
        let h = db.pred_id("Healthy").unwrap();
        db.insert(n, t1(1)).unwrap();
        db.ensure_maintained().unwrap();
        assert!(maintained_facts(&mut db, h).contains(&t1(1)));
        // Inserting Broken(1) must DELETE Healthy(1) through the negation.
        db.insert(b, t1(1)).unwrap();
        assert!(maintained_facts(&mut db, h).is_empty());
        // And deleting it re-enables.
        db.remove(b, &t1(1)).unwrap();
        assert!(maintained_facts(&mut db, h).contains(&t1(1)));
    }

    #[test]
    fn multiple_negations_falsified_by_one_change_over_delete() {
        // Regression guard for the in-place restore: one base insert
        // derives both Q(1) and R(1), so the H stratum sees two negated
        // literals falsified by the *same* delta. Phase 1 must evaluate the
        // other negation against the OLD state (R(1) flipped out again) —
        // a merely-new-state context would see it already falsified and
        // never over-delete H(1).
        let mut db = Database::new();
        db.load(
            "base A(x).
             base S(x).
             derived Q(x).
             derived R(x).
             derived H(x).
             Q(X) :- S(X).
             R(X) :- S(X).
             H(X) :- A(X), not Q(X), not R(X).",
        )
        .unwrap();
        let a = db.pred_id("A").unwrap();
        let s = db.pred_id("S").unwrap();
        let h = db.pred_id("H").unwrap();
        db.insert(a, t1(1)).unwrap();
        db.ensure_maintained().unwrap();
        assert!(maintained_facts(&mut db, h).contains(&t1(1)));
        db.insert(s, t1(1)).unwrap();
        assert!(maintained_facts(&mut db, h).is_empty());
        db.remove(s, &t1(1)).unwrap();
        assert!(maintained_facts(&mut db, h).contains(&t1(1)));
    }

    #[test]
    fn check_reads_maintained_violations() {
        let mut db = Database::new();
        db.load(
            "base Sub(a, b).
             derived SubT(a, b).
             SubT(X, Y) :- Sub(X, Y).
             SubT(X, Z) :- Sub(X, Y), SubT(Y, Z).
             constraint acyclic: forall X: !SubT(X, X).",
        )
        .unwrap();
        let sub = db.pred_id("Sub").unwrap();
        let (a, b) = (db.constant("a"), db.constant("b"));
        db.insert(sub, vec![a, b]).unwrap();
        db.ensure_maintained().unwrap();
        assert!(db.check().unwrap().is_empty());
        db.insert(sub, Tuple::from(vec![b, a])).unwrap();
        let v = db.check().unwrap();
        assert!(db.maintenance_active(), "check must read, not re-evaluate");
        assert_eq!(v.len(), 2); // X=a, X=b
        let oracle = db.deep_snapshot_clone().check().unwrap();
        assert_eq!(format!("{v:?}"), format!("{oracle:?}"));
        // undo: back to consistent
        db.remove(sub, &Tuple::from(vec![b, a])).unwrap();
        assert!(db.check().unwrap().is_empty());
        assert!(db.maintenance_active());
    }

    #[test]
    fn key_counts_track_per_op_changes() {
        let mut db = Database::new();
        let p = db.declare_base_keyed("P", 2, &[0]).unwrap();
        db.insert(p, t2(1, 10)).unwrap();
        db.ensure_maintained().unwrap();
        assert!(db.check().unwrap().is_empty());
        db.insert(p, t2(1, 20)).unwrap();
        db.insert(p, t2(2, 20)).unwrap();
        let v = db.check().unwrap();
        assert_eq!(v.len(), 1);
        let oracle = db.deep_snapshot_clone().check().unwrap();
        assert_eq!(format!("{v:?}"), format!("{oracle:?}"));
        db.remove(p, &t2(1, 10)).unwrap();
        assert!(db.check().unwrap().is_empty());
        assert!(db.maintenance_active());
    }

    #[test]
    fn invalidate_caches_unarms() {
        let (mut db, e, p) = tc_db();
        db.insert(e, t2(0, 1)).unwrap();
        db.ensure_maintained().unwrap();
        db.insert(e, t2(1, 2)).unwrap();
        db.remove(e, &t2(0, 1)).unwrap();
        assert_eq!(maintained_facts(&mut db, p), vec![t2(1, 2)]);
        db.invalidate_caches();
        assert!(!db.maintenance_active());
    }

    #[test]
    fn definition_change_unarms_and_rearming_picks_up_the_new_program() {
        let (mut db, e, _p) = tc_db();
        db.insert(e, t2(0, 1)).unwrap();
        db.ensure_maintained().unwrap();
        db.load("derived Loop(x). Loop(X) :- Path(X, X).").unwrap();
        assert!(!db.maintenance_active());
        let lp = db.pred_id("Loop").unwrap();
        // Unarmed: the change drops the IDB and the read re-evaluates.
        db.insert(e, t2(1, 0)).unwrap();
        assert_eq!(db.derived_facts(lp).unwrap().len(), 2);
        // Re-armed over the new program, DRed maintains Loop too.
        db.ensure_maintained().unwrap();
        db.remove(e, &t2(1, 0)).unwrap();
        assert!(maintained_facts(&mut db, lp).is_empty());
        db.insert(e, t2(1, 0)).unwrap();
        assert_eq!(maintained_facts(&mut db, lp).len(), 2);
    }
}
