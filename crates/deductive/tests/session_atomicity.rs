//! Property tests for session atomicity and evaluation-panic containment.
//!
//! * `bes → random updates → rollback` must leave the database
//!   bit-identical: base facts, index contents (including recycled tuple
//!   storage observable through the indexes), and — after re-deriving —
//!   the IDB. Checked through [`Database::debug_state_digest`], which
//!   renders facts and every index's live rows interner-independently.
//! * a panic inside a fixpoint rule evaluation must surface as
//!   [`Error::EvalPanic`], leave the database usable, and leave an open
//!   session rollbackable — exercised deterministically through the
//!   `set_eval_failpoint` hook.

use gom_deductive::{Const, Database, Error, Tuple};
use gom_obs::SplitMix64;

const DOMAIN: i64 = 7;

/// A database with recursion (transitive closure) and negation, so both
/// semi-naive deltas and stratified evaluation run over the session data.
fn build(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    db.load(
        "base Edge(a, b).
         base Mark(a).
         derived Path(a, b).
         derived Unreached(a).
         Path(X, Y) :- Edge(X, Y).
         Path(X, Z) :- Path(X, Y), Edge(Y, Z).
         Unreached(X) :- Mark(X), not Path(0, X).",
    )
    .expect("program");
    let edge = db.pred_id("Edge").expect("Edge");
    let mark = db.pred_id("Mark").expect("Mark");
    for _ in 0..(5 + rng.below(25)) {
        let t = Tuple::from(vec![
            Const::Int(rng.below(DOMAIN as usize) as i64),
            Const::Int(rng.below(DOMAIN as usize) as i64),
        ]);
        db.insert(edge, t).expect("insert");
    }
    for _ in 0..rng.below(6) {
        let t = Tuple::from(vec![Const::Int(rng.below(DOMAIN as usize) as i64)]);
        db.insert(mark, t).expect("insert");
    }
    db
}

fn random_tuple(rng: &mut SplitMix64, arity: usize) -> Tuple {
    Tuple::from(
        (0..arity)
            .map(|_| Const::Int(rng.below(DOMAIN as usize) as i64))
            .collect::<Vec<_>>(),
    )
}

/// bes → random inserts/removes (duplicates and misses included) →
/// rollback leaves the EDB, the indexes, and the re-derived IDB
/// bit-identical to the pre-session state, on every seed.
#[test]
fn rollback_restores_bit_identical_state() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9) + 1);
        let mut db = build(&mut rng);
        db.evaluate().expect("evaluate");
        let before = db.debug_state_digest();
        let facts_before = db.fact_count();

        let edge = db.pred_id("Edge").expect("Edge");
        let mark = db.pred_id("Mark").expect("Mark");
        db.begin_session().expect("bes");
        for _ in 0..(1 + rng.below(30)) {
            let (pred, arity) = if rng.below(100) < 70 {
                (edge, 2)
            } else {
                (mark, 1)
            };
            let t = random_tuple(&mut rng, arity);
            if rng.below(100) < 60 {
                db.insert(pred, t).expect("insert");
            } else {
                db.remove(pred, &t).expect("remove");
            }
            // Occasionally evaluate mid-session: deferred checking allows
            // it, and it exercises incremental index maintenance on the
            // session's dirty state.
            if rng.below(100) < 15 {
                db.evaluate().expect("mid-session evaluate");
            }
        }
        db.rollback_session().expect("rollback");
        assert_eq!(
            db.fact_count(),
            facts_before,
            "seed {seed}: fact count must be restored"
        );
        // The IDB is re-derived, never patched: after rollback the fixpoint
        // must reproduce the exact pre-session state.
        db.evaluate().expect("re-evaluate");
        assert_eq!(
            db.debug_state_digest(),
            before,
            "seed {seed}: rollback must restore facts and indexes bit-identically"
        );
    }
}

/// Committing is not the inverse test, but it anchors the digest: a session
/// that inserts and then removes the same fresh tuple commits to the same
/// digest as no session at all (recycled buffers included).
#[test]
fn self_cancelling_session_commits_to_identical_state() {
    let mut rng = SplitMix64::new(0xD1D_0001);
    let mut db = build(&mut rng);
    db.evaluate().expect("evaluate");
    let before = db.debug_state_digest();

    let edge = db.pred_id("Edge").expect("Edge");
    // A tuple outside the generated domain, so it is guaranteed fresh.
    let t = Tuple::from(vec![Const::Int(100), Const::Int(101)]);
    db.begin_session().expect("bes");
    assert!(db.insert(edge, t.clone()).expect("insert"));
    db.evaluate().expect("evaluate with tuple present");
    assert!(db.remove(edge, &t).expect("remove"));
    db.commit_session().expect("ees");
    db.evaluate().expect("re-evaluate");
    assert_eq!(db.debug_state_digest(), before);
}

fn eval_panic_is_contained(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut db = build(&mut rng);
    db.evaluate().expect("healthy evaluate");
    let before = db.debug_state_digest();

    let edge = db.pred_id("Edge").expect("Edge");
    db.begin_session().expect("bes");
    db.insert(edge, Tuple::from(vec![Const::Int(1), Const::Int(2)]))
        .expect("insert");

    db.set_eval_failpoint(true);
    let err = db.evaluate().expect_err("failpoint must surface");
    assert!(
        matches!(err, Error::EvalPanic(_)),
        "seed={seed:#x}: expected EvalPanic, got {err:?}"
    );
    assert!(
        db.in_session(),
        "seed={seed:#x}: the session survives the panic"
    );

    // The database stays usable: clear the failpoint, evaluate again,
    // roll the session back, and verify bit-identical restoration.
    db.set_eval_failpoint(false);
    db.evaluate()
        .unwrap_or_else(|e| panic!("seed={seed:#x}: db unusable after contained panic: {e}"));
    db.rollback_session().expect("rollback after panic");
    db.evaluate().expect("re-evaluate");
    assert_eq!(
        db.debug_state_digest(),
        before,
        "seed={seed:#x}: contained panic + rollback must restore state"
    );
}

/// A panic in rule evaluation becomes `Error::EvalPanic`; the session
/// stays open and rollbackable.
#[test]
fn eval_panic_is_contained_and_rolled_back() {
    for seed in [0xEE7 + 1, 0xEE7 + 4] {
        eval_panic_is_contained(seed);
    }
}
