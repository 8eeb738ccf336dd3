//! DRed maintenance equals from-scratch evaluation.
//!
//! Over seeded programs with recursion *and* stratified negation — the
//! shared random generator, plus a fixed program in which one base change
//! can derive facts for two negated literals of one rule (the case the
//! two-sided flip of DRed's phase 1 exists for) — each database arms IDB
//! maintenance and
//! then takes random batches of single-fact inserts and deletes, including
//! insert-then-delete of the same fact. After every batch, every derived
//! predicate read from the maintained IDB must equal the naive reference
//! interpreter. Runs at 1 and 4 eval threads.
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

fn run(seed: u64, threads: usize) {
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
    db.set_eval_threads(threads);
    db.ensure_maintained().unwrap();

    for batch in 0..BATCHES {
        let mut ops: Vec<String> = Vec::new();
        for _ in 0..1 + rng.below(5) {
            let p = bases[rng.below(bases.len())];
            let t = random_tuple(&mut rng, db.pred_decl(p).arity, domain);
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
        assert!(
            db.maintenance_active(),
            "seed {seed} threads {threads}: maintenance lost"
        );
        for &p in &derived {
            assert_eq!(
                db.derived_facts(p).unwrap(),
                db.reference_facts(p).unwrap(),
                "seed {seed} threads {threads}: {} diverged after batch {batch} {ops:?}",
                db.pred_name(p)
            );
        }
    }
}

#[test]
fn maintained_equals_scratch_single_threaded() {
    for seed in 0..SEEDS {
        run(seed, 1);
    }
}

#[test]
fn maintained_equals_scratch_multi_threaded() {
    for seed in 0..SEEDS {
        run(seed, 4);
    }
}
