//! DRed maintenance equals from-scratch evaluation.
//!
//! Over seeded programs with recursion *and* stratified negation — the
//! shared random generator, plus a fixed program in which one base change
//! can derive facts for two negated literals of one rule (the case the
//! two-sided flip of DRed's phase 1 exists for) — each database arms IDB
//! maintenance and
//! then takes random batches of single-fact inserts and deletes, including
//! insert-then-delete of the same fact, first outside any session, then
//! inside sessions that undo part or all of their work by rollback. After
//! every batch and every rollback, maintenance must still be armed and
//! every derived predicate read from the maintained IDB must equal the
//! naive reference interpreter.
//!
//! DRed visits only the strata its trigger index reaches from a change. A
//! second fixed program pins the reach cases after every single op: a
//! change that reaches the top stratum only through a negated literal,
//! past an unreached middle stratum, and a change no rule reads.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::SplitMix64;
use gom_deductive::{Const, Database, PredId, Tuple};

const SEEDS: u64 = 100;
const BATCHES: usize = 6;

/// Edges over nodes 0..10. `Reaches9(9)` and `Loops(9)` both hold exactly
/// when 9 lies on a cycle, so an edge closing such a cycle adds both at
/// once, and `Stuck(9)` must be over-deleted against the old state of
/// both negations.
fn fixed_program(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    db.load(
        "base Edge(a, b).
         base Blocked(x).
         derived Path(a, b).
         derived Reaches9(x).
         derived Loops(x).
         derived Stuck(x).
         Path(X, Y) :- Edge(X, Y).
         Path(X, Z) :- Edge(X, Y), Path(Y, Z).
         Reaches9(X) :- Path(X, 9).
         Loops(X) :- Path(X, X).
         Stuck(X) :- Edge(X, Y), not Reaches9(X), not Loops(X), not Blocked(X).",
    )
    .unwrap();
    let e = db.pred_id("Edge").unwrap();
    let bl = db.pred_id("Blocked").unwrap();
    for _ in 0..rng.below(15) {
        db.insert(e, random_tuple(rng, 2, 10)).unwrap();
    }
    for _ in 0..rng.below(4) {
        db.insert(bl, random_tuple(rng, 1, 10)).unwrap();
    }
    db
}

/// Three strata: `Path` (0) over `Edge`, `Open` (1) for the nodes on no
/// cycle, and `Flag` (2) for the unmarked nodes on a cycle. `Mark` is read
/// only by stratum 2 and only negated, so a change to it reaches stratum 2
/// through negation alone while strata 0 and 1 stay unreached. No rule
/// reads `Idle`.
fn reach_program(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    db.load(
        "base Edge(a, b).
         base Node(x).
         base Mark(x).
         base Idle(x).
         derived Path(a, b).
         derived Open(x).
         derived Flag(x).
         Path(X, Y) :- Edge(X, Y).
         Path(X, Z) :- Edge(X, Y), Path(Y, Z).
         Open(X) :- Node(X), not Path(X, X).
         Flag(X) :- Node(X), not Open(X), not Mark(X).",
    )
    .unwrap();
    let [edge, node, mark] = ["Edge", "Node", "Mark"].map(|n| db.pred_id(n).unwrap());
    for _ in 0..rng.below(10) {
        db.insert(edge, random_tuple(rng, 2, 6)).unwrap();
    }
    for p in [node, mark] {
        for _ in 0..rng.below(6) {
            db.insert(p, random_tuple(rng, 1, 6)).unwrap();
        }
    }
    db
}

fn random_tuple(rng: &mut SplitMix64, arity: usize, domain: usize) -> Tuple {
    Tuple::from(
        (0..arity)
            .map(|_| Const::Int(rng.below(domain) as i64))
            .collect::<Vec<_>>(),
    )
}

fn preds(db: &Database, names: &[&str]) -> Vec<PredId> {
    names.iter().map(|n| db.pred_id(n).unwrap()).collect()
}

fn run(seed: u64) {
    // Even seeds: a random program; odd seeds: the fixed one.
    let (mut db, mut rng, bases, derived, domain) = if seed.is_multiple_of(2) {
        let db = common::build(seed);
        let rng = SplitMix64::new(seed ^ 0xD4ED);
        let (b, d) = (preds(&db, &["B0", "B1"]), preds(&db, &["D0", "D1", "D2"]));
        (db, rng, b, d, 5)
    } else {
        let mut rng = SplitMix64::new(seed);
        let db = fixed_program(&mut rng);
        let (b, d) = (
            preds(&db, &["Edge", "Blocked"]),
            preds(&db, &["Path", "Reaches9", "Loops", "Stuck"]),
        );
        (db, rng, b, d, 10)
    };
    db.ensure_maintained().unwrap();
    let ctx = format!("seed {seed}");

    for batch in 0..BATCHES {
        let ops = random_batch(&mut db, &mut rng, &bases, domain);
        assert_maintained(&mut db, &derived, &format!("{ctx}: batch {batch} {ops:?}"));
    }

    // Sessions: a kept batch, then a batch undone by `rollback_to` (the
    // session stays open), then a rollback of the whole session or a
    // commit. Rollback applies the inverse ops through the same DRed path,
    // so the IDB stays armed and equal to the reference throughout.
    for batch in 0..BATCHES {
        let before = db.debug_state_digest();
        db.begin_session().unwrap();
        let kept = random_batch(&mut db, &mut rng, &bases, domain);
        let mark = db.session_mark().unwrap();
        let undone = random_batch(&mut db, &mut rng, &bases, domain);
        db.rollback_to(mark).unwrap();
        let what = format!("session {batch} kept {kept:?} undone {undone:?}");
        assert_maintained(&mut db, &derived, &format!("{ctx}: {what}, rollback_to"));
        if rng.below(2) == 0 {
            db.rollback_session().unwrap();
            assert_eq!(db.debug_state_digest(), before, "{ctx}: {what}");
            assert_maintained(&mut db, &derived, &format!("{ctx}: {what}, rollback"));
        } else {
            db.commit_session().unwrap();
        }
    }
}

/// One random batch of single-fact inserts and deletes on `bases`;
/// returns the ops for failure messages.
fn random_batch(
    db: &mut Database,
    rng: &mut SplitMix64,
    bases: &[PredId],
    domain: usize,
) -> Vec<String> {
    let mut ops: Vec<String> = Vec::new();
    for _ in 0..1 + rng.below(5) {
        let p = bases[rng.below(bases.len())];
        let t = random_tuple(rng, db.pred_decl(p).arity, domain);
        match rng.below(5) {
            0 => {
                db.insert(p, t.clone()).unwrap();
                db.remove(p, &t).unwrap();
                ops.push(format!("+-{}{t:?}", db.pred_name(p)));
            }
            1 | 2 => {
                db.insert(p, t.clone()).unwrap();
                ops.push(format!("+{}{t:?}", db.pred_name(p)));
            }
            _ => {
                // Delete a stored fact when there is one, so that
                // deletions take effect.
                let stored = db.facts_sorted(p);
                let t = match stored.len() {
                    0 => t,
                    n => stored[rng.below(n)].clone(),
                };
                db.remove(p, &t).unwrap();
                ops.push(format!("-{}{t:?}", db.pred_name(p)));
            }
        }
    }
    ops
}

/// Maintenance is still armed, and every derived predicate read from the
/// maintained IDB equals the naive reference interpreter.
fn assert_maintained(db: &mut Database, derived: &[PredId], ctx: &str) {
    assert!(db.maintenance_active(), "{ctx}: maintenance lost");
    for &p in derived {
        assert_eq!(
            db.derived_facts(p).unwrap(),
            db.reference_facts(p).unwrap(),
            "{ctx}: {} diverged",
            db.pred_name(p)
        );
    }
}

#[test]
fn maintained_equals_scratch() {
    for seed in 0..SEEDS {
        run(seed);
    }
}

#[test]
fn reach_cases_match_scratch_after_every_op() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_7216);
        let mut db = reach_program(&mut rng);
        let bases = preds(&db, &["Edge", "Node", "Mark", "Idle"]);
        let derived = preds(&db, &["Path", "Open", "Flag"]);
        db.ensure_maintained().unwrap();
        for step in 0..30 {
            // One single-fact change: an insert, or the delete of a stored
            // fact when there is one.
            let p = bases[rng.below(bases.len())];
            let stored = db.facts_sorted(p);
            let op = if stored.is_empty() || rng.below(2) == 0 {
                let t = random_tuple(&mut rng, db.pred_decl(p).arity, 6);
                db.insert(p, t.clone()).unwrap();
                format!("+{}{t:?}", db.pred_name(p))
            } else {
                let t = &stored[rng.below(stored.len())];
                db.remove(p, t).unwrap();
                format!("-{}{t:?}", db.pred_name(p))
            };
            assert_maintained(&mut db, &derived, &format!("seed {seed}: step {step} {op}"));
        }
    }
}
