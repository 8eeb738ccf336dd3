//! Copy-on-write snapshot isolation, differentially tested.
//!
//! A long randomized add/remove/compact session takes snapshot handles at
//! several epochs and keeps them alive while the writer keeps churning
//! (including forced compactions, which rewrite the writer's pages). At
//! the end, every old snapshot must still be byte-identical — digest,
//! per-predicate iteration order, and `sorted()` output — to a deep-clone
//! oracle (`deep_snapshot_clone`, the pre-CoW publication path) captured
//! at the same instant. The fixpoint is exercised mid-session so shared
//! pages also serve evaluation.

use gom_deductive::value::Const;
use gom_deductive::{Database, Row, Tuple};
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

fn run_session(seed: u64) {
    let mut db = Database::new();
    db.load(PROGRAM).expect("program loads");
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
                    .map(|&p| deep.relation(p).iter().map(Row::to_tuple).collect())
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
            "digest drift in snapshot {i} (seed {seed})"
        );
        for (j, &p) in preds.iter().enumerate() {
            let got: Vec<Tuple> = snap.relation(p).iter().map(Row::to_tuple).collect();
            assert_eq!(got, oracle.iter_orders[j], "iteration order, snap {i}");
            assert_eq!(snap.facts_sorted(p), oracle.sorted[j], "sorted, snap {i}");
        }
    }

    // Snapshots are also fully usable as databases: evaluation over the
    // shared pages reproduces the oracle's violation count.
    for (i, (mut snap, oracle)) in snaps.into_iter().enumerate() {
        let violations = snap.check().expect("snapshot check");
        assert_eq!(violations.len(), oracle.violations, "violations, snap {i}");
    }
}

#[test]
fn cow_snapshots_match_deep_clone_oracle() {
    for seed in [7, 1993] {
        run_session(seed);
    }
}

#[test]
fn interner_pages_survive_writer_growth_past_a_page() {
    let mut db = Database::new();
    db.load(PROGRAM).expect("program loads");
    // Leave the interner's tail page partly filled, so the snapshot
    // shares a page the writer is still appending to.
    let old: Vec<_> = (0..300).map(|n| db.intern(&format!("old{n}"))).collect();
    let snap = db.snapshot_clone();
    let before = snap.interner().len();
    let new: Vec<_> = (0..1100).map(|n| db.intern(&format!("new{n}"))).collect();
    for (n, &s) in old.iter().enumerate() {
        assert_eq!(
            snap.resolve(s),
            format!("old{n}"),
            "snapshot text of old{n}"
        );
        assert_eq!(db.resolve(s), format!("old{n}"), "writer text of old{n}");
    }
    for (n, &s) in new.iter().enumerate() {
        assert_eq!(db.resolve(s), format!("new{n}"), "writer text of new{n}");
    }
    assert_eq!(snap.interner().len(), before, "the snapshot does not grow");
    assert!(snap.sym("new0").is_none() && snap.sym("new1099").is_none());
    assert_eq!(db.sym("new1099"), new.last().copied());
}

#[test]
fn definitions_loaded_after_a_capture_stay_out_of_the_snapshot() {
    let mut db = Database::new();
    db.load(PROGRAM).expect("program loads");
    let flag = db.pred_id("Flag").expect("Flag");
    db.insert(flag, one(3)).expect("insert");
    db.ensure_maintained().expect("arm maintenance");
    let mut snap = db.snapshot_clone();
    let names = |db: &Database| -> Vec<String> {
        db.constraints().iter().map(|c| c.name.clone()).collect()
    };
    assert!(snap.check().expect("snapshot check").is_empty());

    db.load("constraint no_flag \"no flag may be set\": forall X: !Flag(X).")
        .expect("constraint loads");
    assert_eq!(names(&db), ["no_self_reach", "no_flag"]);
    let writer_says: Vec<String> = db
        .check()
        .expect("writer check")
        .iter()
        .map(|v| v.constraint.clone())
        .collect();
    assert_eq!(
        writer_says,
        ["no_flag"],
        "the writer checks its new constraint"
    );

    assert_eq!(names(&snap), ["no_self_reach"], "snapshot constraint list");
    assert!(
        snap.check().expect("snapshot check").is_empty(),
        "the snapshot answers as at capture"
    );
}

#[test]
fn carried_key_verdicts_report_a_shared_key_held_at_capture() {
    let mut db = Database::new();
    db.load("base Named(id!, name).").expect("program loads");
    let named = db.pred_id("Named").expect("Named");
    for i in 0..40 {
        db.insert(named, pair(i, i)).expect("insert");
    }
    db.ensure_maintained().expect("arm maintenance");
    let mut clean = db.snapshot_clone();

    // Two facts under key 7: the writer's maintained key counts see it.
    db.insert(named, pair(7, 99)).expect("insert");
    let keys = |db: &mut Database| -> Vec<String> {
        let vs = db.check().expect("check");
        vs.iter().map(|v| v.render(db)).collect()
    };
    let expect = keys(&mut db.deep_snapshot_clone());
    assert_eq!(expect.len(), 1, "the oracle sees the shared key");
    assert_eq!(keys(&mut db), expect, "writer");

    let mut snap = db.snapshot_clone();
    assert!(snap.carries_violations());
    assert_eq!(
        keys(&mut snap),
        expect,
        "snapshot taken over the shared key"
    );
    let mut second = snap.snapshot_clone();
    assert!(second.carries_violations());
    assert_eq!(keys(&mut second), expect, "share of that snapshot");
    assert!(keys(&mut clean).is_empty(), "snapshot taken while clean");
}
