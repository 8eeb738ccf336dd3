//! The journal's I/O per session, read from the `journal.*` counters: a
//! committed session is one append (and, under `SyncPolicy::OnCommit`, one
//! fsync); BES and rollback do no journal I/O at all.
//!
//! The counters are process-wide, so this file holds a single test.

use gomflex::obs;
use gomflex::prelude::*;
use gomflex::store::MemBackend;

/// Journal appends, fsyncs and end offset around `step`.
fn journal_io(mgr: &mut SchemaManager, step: impl FnOnce(&mut SchemaManager)) -> (u64, u64, u64) {
    let before = obs::snapshot();
    let pos = mgr.store_position().expect("store attached");
    step(mgr);
    let io = obs::snapshot().since(&before);
    (
        io.counter("journal.appends"),
        io.counter("journal.fsyncs"),
        mgr.store_position().expect("store attached") - pos,
    )
}

#[test]
fn a_committed_session_is_one_append_and_rollback_writes_nothing() {
    obs::set_enabled(true);
    let mem = MemBackend::new();
    let (mut mgr, _) =
        SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit).expect("open");
    mgr.define_schema(CAR_SCHEMA_SRC).expect("define");
    let sid = mgr.meta.schema_by_name("CarSchema").expect("schema");
    let car = mgr.meta.type_by_name(sid, "Car").expect("Car");
    let string = mgr.meta.builtins.string;

    let (appends, fsyncs, moved) = journal_io(&mut mgr, |mgr| {
        mgr.begin_evolution().expect("bes");
        mgr.meta.add_attr(car, "color", string).expect("attr");
        mgr.meta.add_attr(car, "fuelType", string).expect("attr");
        mgr.rollback_evolution().expect("rollback");
    });
    assert_eq!(
        (appends, fsyncs, moved),
        (0, 0, 0),
        "BES…rollback does no journal I/O"
    );

    let (appends, fsyncs, moved) = journal_io(&mut mgr, |mgr| {
        mgr.begin_evolution().expect("bes");
        mgr.meta.add_attr(car, "color", string).expect("attr");
        mgr.meta.add_attr(car, "fuelType", string).expect("attr");
        let out = mgr.end_evolution().expect("ees");
        assert!(out.is_consistent(), "{:?}", out.violations());
    });
    assert_eq!(
        (appends, fsyncs),
        (1, 1),
        "one append and one fsync per commit"
    );
    assert!(moved > 0);
    assert_eq!(
        mem.bytes().len() as u64,
        mgr.store_position().expect("store")
    );
    obs::set_enabled(false);
}
