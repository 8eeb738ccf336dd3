//! Copy-on-write snapshot isolation, differentially tested.
//!
//! A long randomized add/remove/compact session takes snapshot handles at
//! several epochs and keeps them alive while the writer keeps churning
//! (including forced compactions, which rewrite the writer's pages). At
//! the end, every old snapshot must still be byte-identical — digest,
//! per-predicate iteration order, and `sorted()` output — to a deep-clone
//! oracle (`deep_snapshot_clone`, the pre-CoW publication path) captured
//! at the same instant. Runs under 1 and 4 evaluation threads, with the
//! fixpoint exercised mid-session so shared pages also serve evaluation.

use gom_deductive::value::Const;
use gom_deductive::{Database, Tuple};
use gom_obs::SplitMix64;

const PROGRAM: &str = "base Edge(a, b).
     base Flag(x).
     derived Reach(a, b).
     Reach(X, Y) :- Edge(X, Y).
     Reach(X, Z) :- Edge(X, Y), Reach(Y, Z).
     constraint no_self_reach \"reachability must be irreflexive\":
       forall X: !Reach(X, X).";

fn pair(a: usize, b: usize) -> Tuple {
    Tuple::from(vec![Const::Int(a as i64), Const::Int(b as i64)])
}

fn one(x: usize) -> Tuple {
    Tuple::from(vec![Const::Int(x as i64)])
}

/// Everything an old snapshot promises to keep byte-stable.
struct Oracle {
    digest: String,
    iter_orders: Vec<Vec<Tuple>>,
    sorted: Vec<Vec<Tuple>>,
    violations: usize,
}

fn run_session(seed: u64, threads: usize) {
    let mut db = Database::new();
    db.load(PROGRAM).expect("program loads");
    db.set_eval_threads(threads);
    let edge = db.pred_id("Edge").expect("Edge");
    let flag = db.pred_id("Flag").expect("Flag");
    let preds = [edge, flag];

    let mut rng = SplitMix64::new(seed);
    let mut snaps: Vec<(Database, Oracle)> = Vec::new();

    for step in 0..1800u64 {
        match rng.below(10) {
            // Add-dominated mix (Piccioni et al.): mostly inserts.
            0..=5 => {
                let (a, b) = (rng.below(48), rng.below(48));
                db.insert(edge, pair(a, b)).expect("insert");
                if rng.below(4) == 0 {
                    db.insert(flag, one(a)).expect("insert");
                }
            }
            6..=8 => {
                // Remove whatever happens to be stored at a random key —
                // hits often enough to build tombstones.
                let (a, b) = (rng.below(48), rng.below(48));
                db.remove(edge, &pair(a, b)).expect("remove");
            }
            _ => {
                // Periodic purge burst: tombstone enough of one predicate
                // to cross the compaction threshold while snapshots hold
                // the old pages.
                let a = rng.below(48);
                for b in 0..48 {
                    db.remove(edge, &pair(a, b)).expect("remove");
                }
            }
        }

        // Exercise the fixpoint (and index building) on the writer so
        // snapshots are taken from a state with live indexes and caches.
        if step % 400 == 150 {
            db.check().expect("check");
        }

        if step % 300 == 299 {
            let snap = db.snapshot_clone();
            let deep = db.deep_snapshot_clone();
            let oracle = Oracle {
                digest: deep.debug_state_digest(),
                iter_orders: preds
                    .iter()
                    .map(|&p| deep.relation(p).iter().cloned().collect())
                    .collect(),
                sorted: preds.iter().map(|&p| deep.facts_sorted(p)).collect(),
                violations: {
                    let mut d = deep;
                    d.check().expect("oracle check").len()
                },
            };
            snaps.push((snap, oracle));
        }
    }
    assert_eq!(snaps.len(), 6, "one snapshot every 300 steps");

    // The writer has mutated and compacted far past every snapshot; each
    // old handle must still read exactly as its capture-time oracle.
    for (i, (snap, oracle)) in snaps.iter().enumerate() {
        assert_eq!(
            snap.debug_state_digest(),
            oracle.digest,
            "digest drift in snapshot {i} (seed {seed}, {threads} threads)"
        );
        for (j, &p) in preds.iter().enumerate() {
            let got: Vec<Tuple> = snap.relation(p).iter().cloned().collect();
            assert_eq!(got, oracle.iter_orders[j], "iteration order, snap {i}");
            assert_eq!(snap.facts_sorted(p), oracle.sorted[j], "sorted, snap {i}");
        }
    }

    // Snapshots are also fully usable as databases: evaluation over the
    // shared pages reproduces the oracle's violation count.
    for (i, (snap, oracle)) in snaps.into_iter().enumerate() {
        let mut snap = snap;
        snap.set_eval_threads(threads);
        let violations = snap.check().expect("snapshot check");
        assert_eq!(violations.len(), oracle.violations, "violations, snap {i}");
    }
}

#[test]
fn cow_snapshots_match_deep_clone_oracle_single_thread() {
    for seed in [7, 1993] {
        run_session(seed, 1);
    }
}

#[test]
fn cow_snapshots_match_deep_clone_oracle_four_threads() {
    for seed in [7, 1993] {
        run_session(seed, 4);
    }
}
