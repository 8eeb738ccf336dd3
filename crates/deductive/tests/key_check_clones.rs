//! Allocation accounting for the key-constraint checker.
//!
//! The clean path of a full key check must not clone a single stored tuple:
//! grouping happens by index into the relation's extension, and tuples are
//! cloned only when a violation is materialised. The checker counts every
//! such clone in the `check.keys.clones` counter; this test pins the
//! invariant (0 on clean data, exactly 2 per violating pair).
//!
//! Lives in its own integration-test binary so the process-global gom-obs
//! aggregator is not shared with unrelated tests. The tests here still run
//! on parallel threads, so each holds [`OBS`] while it checks: another
//! test's check must not add to the counted one's clones.

use gom_deductive::{Const, Database};
use std::sync::{Mutex, MutexGuard, PoisonError};

static OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counted_check(db: &mut Database) -> (usize, u64) {
    gom_obs::reset();
    gom_obs::set_enabled(true);
    let violations = db.check().expect("check");
    let clones = gom_obs::snapshot().counter("check.keys.clones");
    gom_obs::set_enabled(false);
    (violations.len(), clones)
}

#[test]
fn clean_key_check_clones_no_tuples() {
    let _obs = obs_lock();
    let mut db = Database::new();
    let p = db.declare_base_keyed("P", 2, &[0]).expect("declare");
    for i in 0..500 {
        db.insert(p, vec![Const::Int(i), Const::Int(i * 10)])
            .expect("insert");
    }
    let (violations, clones) = counted_check(&mut db);
    assert_eq!(violations, 0);
    assert_eq!(clones, 0, "clean check must not clone stored tuples");

    // A duplicate key clones exactly the two tuples of the reported pair.
    db.insert(p, vec![Const::Int(7), Const::Int(999)])
        .expect("insert dup");
    let (violations, clones) = counted_check(&mut db);
    assert_eq!(violations, 1);
    assert_eq!(clones, 2, "one violation = one materialised pair");

    // Three facts sharing a key: two adjacent pairs, four clones.
    db.insert(p, vec![Const::Int(7), Const::Int(1000)])
        .expect("insert dup2");
    let (violations, clones) = counted_check(&mut db);
    assert_eq!(violations, 2);
    assert_eq!(clones, 4);
}

#[test]
fn index_grouped_check_matches_selective_check() {
    // The full (index-grouped) scan and the incremental (per-insert probe)
    // path must report the same violating pairs.
    let _obs = obs_lock();
    let mut db = Database::new();
    let p = db.declare_base_keyed("P", 3, &[0, 1]).expect("declare");
    for i in 0..80 {
        // (i % 8, i % 5) has period 40, so each key pair occurs exactly twice.
        let t = vec![Const::Int(i % 8), Const::Int(i % 5), Const::Int(i)];
        db.insert(p, t).expect("insert");
    }
    let full: Vec<String> = db
        .check()
        .expect("check")
        .iter()
        .map(|v| format!("{:?}", v.render(&db)))
        .collect();
    assert!(
        !full.is_empty(),
        "the synthetic data must contain key collisions"
    );
    // Every reported constraint is a key violation on P.
    for line in &full {
        assert!(line.contains("key(P)"), "{line}");
    }
}
