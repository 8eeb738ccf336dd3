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
//! Net per-predicate deltas flow upward through the strata. A change pays
//! only for the rules it reaches: the compiled program's trigger index
//! ([`Compiled::reads`]) lists, per predicate, the body literals that read
//! it. A stratum is visited only when one of its literals reads a
//! predicate with a net change, its joins start from exactly those
//! literals, and its frontier facts propagate only through the literals
//! that read them. A change that no rule reads costs no join at all.
//!
//! Phase 1 needs the pre-change database, but cloning the EDB/IDB per
//! change is O(database) — exactly the cost this module exists to avoid.
//! Instead the old state is reconstructed *in place*: net-deleted facts are
//! temporarily re-inserted and net-added facts temporarily removed, the
//! over-deletion joins run, and the store flips back before re-derivation
//! ([`Database::flip_restore`]). The flip touches only the Δ facts of the
//! predicates the visited stratum reads, and only when phase 1 has a seed,
//! so one change costs O(Δ · reached strata) regardless of database size.
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

use crate::check::key_hash;
use crate::compile::{Compiled, Trigger};
use crate::db::Database;
use crate::error::Result;
use crate::eval::{exec_plan, instantiate_head, Binding, DeltaSrc, Idb, Store};
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

    /// Feed one applied base-fact change through DRed and return what it
    /// cost. On any irregularity the IDB is dropped — EES then re-arms it
    /// ([`Database::check_maintained`]); fact mutation itself never fails
    /// because of maintenance.
    fn maintain_change(&mut self, pred: PredId, tuple: &Row, inserted: bool) -> DredCost {
        let _sp = gom_obs::span("dred.maintain");
        if !self.idb_matches_program() {
            return DredCost::default();
        }
        let (Some(mut idb), Some(compiled)) = (self.idb.take(), self.compiled.clone()) else {
            return DredCost::default();
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
        let cost = self.dred(&mut idb, &compiled, del, add);
        self.idb = Some(idb);
        gom_obs::counter_add("dred.strata_visited", cost.strata);
        gom_obs::counter_add("dred.probes", cost.probes);
        cost
    }

    /// Flip the predicates `preds` of the live store between the new state
    /// and the old (pre-delta) state, in place: with `to_old` their
    /// net-deleted facts are re-inserted and their net-added ones removed
    /// (base facts into the live EDB, derived facts into `idb`); with
    /// `!to_old` the exact inverse. Phase 1 of DRed must see the *old*
    /// database — including under every negated literal, where a
    /// merely-superset state would silently skip over-deletions — and this
    /// reconstructs it at O(Δ) cost instead of cloning.
    fn flip_restore(
        &mut self,
        idb: &mut Idb,
        preds: &[PredId],
        del: &DeltaMap,
        add: &DeltaMap,
        to_old: bool,
    ) {
        let (ins, rem) = if to_old { (del, add) } else { (add, del) };
        for &p in preds {
            let target = if self.preds[p.index()].is_base() {
                &mut self.rels[p.index()]
            } else {
                &mut idb.rels[p.index()]
            };
            for t in ins.get(&p).into_iter().flat_map(Relation::iter) {
                target.insert(t);
            }
            for t in rem.get(&p).into_iter().flat_map(Relation::iter) {
                target.remove(t);
            }
        }
    }

    /// The DRed core: maintain `idb` for the net base changes `del`/`add`,
    /// which must already be applied to the live store. Only the strata the
    /// trigger index reaches from a change are visited, and each joins only
    /// through the literals that read a changed predicate. Infallible: plan
    /// execution cannot error, and DRed does not run through the panic
    /// containment of [`crate::eval::map_contained`].
    fn dred(
        &mut self,
        idb: &mut Idb,
        compiled: &Compiled,
        mut del: DeltaMap,
        mut add: DeltaMap,
    ) -> DredCost {
        let mut cost = DredCost::default();
        if del.is_empty() && add.is_empty() {
            return cost;
        }
        let rules = &compiled.rules;
        // The single-row delta of a frontier fact, refilled per fact.
        let mut row = Relation::new();
        let mut seeds: Vec<(PredId, Trigger)> = Vec::new();
        let mut flipped: Vec<PredId> = Vec::new();
        for (s, heads) in compiled.stratum_heads.iter().enumerate() {
            // `del`/`add` hold base facts plus the nets of *lower* strata
            // only — this stratum's heads enter them in phases 2–3 — so
            // every seed is an external read, and the flip never touches a
            // relation phase 1 derives into.
            seeds.clear();
            for &p in del
                .keys()
                .chain(add.keys().filter(|p| !del.contains_key(p)))
            {
                let reads = compiled.reads(p, s).iter().filter(|t| !t.internal);
                seeds.extend(reads.map(|&t| (p, t)));
            }
            let reached = |over_delete| {
                seeds
                    .iter()
                    .any(|&(p, t)| seed_src(&del, &add, p, t.neg, over_delete).is_some())
            };
            let (over_deletes, inserts) = (reached(true), reached(false));
            if !over_deletes && !inserts {
                continue;
            }
            cost.strata += 1;
            seeds.sort_unstable_by_key(|&(_, t)| (t.rule, t.lit));

            // ----- phase 1: over-delete (old state, reconstructed in place) -----
            let mut over: Vec<(PredId, Tuple)> = Vec::new();
            if over_deletes {
                // Both sides of every changed predicate the stratum reads:
                // another literal of a seeded rule must see the old state
                // too (`multiple_negations_falsified_by_one_change_over_delete`).
                flipped.clear();
                flipped.extend(seeds.iter().map(|&(p, _)| p));
                flipped.sort_unstable();
                flipped.dedup();
                self.flip_restore(idb, &flipped, &del, &add, true);
                let mut over_set: FxHashSet<(PredId, Tuple)> = FxHashSet::default();
                let mut frontier: Vec<(PredId, Tuple)> = Vec::new();
                for &(p, t) in &seeds {
                    let Some(src) = seed_src(&del, &add, p, t.neg, true) else {
                        continue;
                    };
                    let head = rules[t.rule].head.pred;
                    cost.probes += delta_join(self, &idb.rels, compiled, t, src, &mut |h| {
                        if idb.rels[head.index()].contains(&h) && over_set.insert((head, h.clone()))
                        {
                            frontier.push((head, h));
                        }
                    });
                }
                // iterate: stratum-pred deletions propagate
                while let Some((dp, dt)) = frontier.pop() {
                    row.recycle();
                    row.insert(&dt);
                    for &t in compiled.reads(dp, s).iter().filter(|t| t.internal) {
                        let head = rules[t.rule].head.pred;
                        cost.probes += delta_join(self, &idb.rels, compiled, t, &row, &mut |h| {
                            if idb.rels[head.index()].contains(&h)
                                && over_set.insert((head, h.clone()))
                            {
                                frontier.push((head, h));
                            }
                        });
                    }
                    over.push((dp, dt));
                }
                // back to the new state, then take out the over-deleted facts
                self.flip_restore(idb, &flipped, &del, &add, false);
                for (p, t) in &over {
                    idb.rels[p.index()].remove(t);
                }
                gom_obs::counter_add("dred.overdeleted", over.len() as u64);
            }

            // ----- phase 2: re-derive (new state) ------------------------------------
            let mut still_deleted = over;
            let over_count = still_deleted.len();
            loop {
                let mut rederived: Vec<usize> = Vec::new();
                for (i, (p, t)) in still_deleted.iter().enumerate() {
                    if derivable(self, &idb.rels, compiled, *p, t, &mut cost.probes) {
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
            if inserts {
                for &(p, t) in &seeds {
                    let Some(src) = seed_src(&del, &add, p, t.neg, false) else {
                        continue;
                    };
                    let head = rules[t.rule].head.pred;
                    cost.probes += delta_join(self, &idb.rels, compiled, t, src, &mut |h| {
                        if !idb.rels[head.index()].contains(&h) {
                            frontier.push((head, h));
                        }
                    });
                }
            }
            while let Some((ap, at)) = frontier.pop() {
                if idb.rels[ap.index()].contains(&at) {
                    continue;
                }
                gom_obs::counter_add("dred.inserted", 1);
                idb.rels[ap.index()].insert(&at);
                add.entry(ap).or_default().insert(&at);
                row.recycle();
                row.insert(&at);
                for &t in compiled.reads(ap, s).iter().filter(|t| t.internal) {
                    let head = rules[t.rule].head.pred;
                    cost.probes += delta_join(self, &idb.rels, compiled, t, &row, &mut |h| {
                        if !idb.rels[head.index()].contains(&h) {
                            frontier.push((head, h));
                        }
                    });
                }
            }
            // ----- net bookkeeping for upper strata -------------------------------------
            for p in heads {
                let both: Vec<Tuple> = match (del.get(p), add.get(p)) {
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
                if let Some(d) = del.get_mut(p) {
                    for t in &both {
                        d.remove(t);
                    }
                }
                if let Some(a) = add.get_mut(p) {
                    for t in &both {
                        a.remove(t);
                    }
                }
            }
        }
        cost
    }
}

/// What one DRed run cost: the strata it visited and the tuples its plan
/// scans touched (the `dred.strata_visited` and `dred.probes` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DredCost {
    strata: u64,
    probes: u64,
}

/// The net change a seed joins from, when not empty. Phase 1
/// (`over_delete`) joins a positive read with deletions and a negated read
/// with insertions; phase 3 the reverse.
fn seed_src<'a>(
    del: &'a DeltaMap,
    add: &'a DeltaMap,
    p: PredId,
    neg: bool,
    over_delete: bool,
) -> Option<&'a Relation> {
    let side = if neg == over_delete { add } else { del };
    side.get(&p).filter(|r| !r.is_empty())
}

/// Evaluate the rule of trigger `t` with its literal bound from
/// `delta_rel`, executing the rule's precompiled delta plan; returns the
/// probes it made. When the literal is negative, the precompiled generator
/// plan treats it as a positive scan over the delta facts (the classic DRed
/// trick: an inserted fact falsifies, a deleted fact enables, the negation
/// for exactly its own ground instance).
fn delta_join(
    db: &Database,
    idb: &[Relation],
    compiled: &Compiled,
    t: Trigger,
    delta_rel: &Relation,
    sink: &mut dyn FnMut(Tuple),
) -> u64 {
    let rp = &compiled.plans[t.rule];
    let plan = if t.neg {
        rp.neg_delta_plan(t.lit)
    } else {
        rp.delta_plan(t.lit)
    };
    let mut binding: Binding = vec![None; plan.var_count];
    let store = Store::new(db, idb, None);
    exec_plan(
        &store,
        plan,
        Some((t.lit, DeltaSrc::Rel(delta_rel))),
        &mut binding,
        &mut |b| {
            sink(instantiate_head(&rp.head, b));
            true
        },
    );
    store.probes.get()
}

/// Is `t` derivable for `pred` by any rule against the given state? Runs
/// each candidate rule's precompiled derivability plan (head variables
/// pre-bound from `t`), adding the probes it makes to `probes`.
fn derivable(
    db: &Database,
    idb: &[Relation],
    compiled: &Compiled,
    pred: PredId,
    t: &Tuple,
    probes: &mut u64,
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
        *probes += store.probes.get();
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

    /// Apply one base change to the store and maintain the armed IDB
    /// through DRed, returning what it cost.
    fn maintained_change(db: &mut Database, p: PredId, t: &Tuple, inserted: bool) -> DredCost {
        let applied = if inserted {
            db.rels[p.index()].insert(t)
        } else {
            db.rels[p.index()].remove(t)
        };
        assert!(applied, "the change must take effect");
        db.maintain_change(p, t, inserted)
    }

    #[test]
    fn dred_visits_only_the_strata_a_change_reaches() {
        // Strata: P (0), Q (1, reads P negatively), R (2, reads Q
        // negatively). `Top` is read by the top stratum only, and `Unread`
        // by no rule at all.
        let mut db = Database::new();
        db.load(
            "base A(x).
             base B(x).
             base Top(x).
             base Unread(x).
             derived P(x).
             derived Q(x).
             derived R(x).
             P(X) :- A(X).
             Q(X) :- B(X), not P(X).
             R(X) :- Top(X), not Q(X).",
        )
        .unwrap();
        let [a, b, top, unread] = ["A", "B", "Top", "Unread"].map(|n| db.pred_id(n).unwrap());
        let derived = ["P", "Q", "R"].map(|n| db.pred_id(n).unwrap());
        for p in [b, top] {
            db.insert(p, t1(1)).unwrap();
        }
        db.ensure_maintained().unwrap();
        let check = |db: &mut Database| {
            for p in derived {
                maintained_facts(db, p);
            }
        };
        for inserted in [true, false] {
            let cost = maintained_change(&mut db, unread, &t1(1), inserted);
            assert_eq!(
                cost,
                DredCost::default(),
                "an unread predicate costs nothing"
            );
            check(&mut db);
            let cost = maintained_change(&mut db, top, &t1(2), inserted);
            assert_eq!(cost.strata, 1, "only the top stratum reads Top");
            check(&mut db);
            // A(1) derives P(1), which takes Q(1) out, which derives R(1).
            let cost = maintained_change(&mut db, a, &t1(1), inserted);
            assert_eq!(cost.strata, 3, "A reaches every stratum");
            check(&mut db);
        }
        assert!(maintained_facts(&mut db, derived[2]).is_empty());
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
