//! Snapshot readers answer exactly like a from-scratch evaluation.
//!
//! A published snapshot carries the writer's compiled program and its
//! maintained violation relations, and gomd stores each epoch's rendered
//! check answer in the snapshot for every later reader. Over seeded random
//! programs (the shared generator of the deductive differential tests,
//! plus random constraints) and random evolution sessions, after every
//! publication a snapshot reader's `check()`, a base-only query and a
//! derived-predicate query must be bit-identical to a
//! `deep_snapshot_clone()` of the writer, which carries nothing and
//! re-derives everything. The stored check answer must equal a fresh
//! `check()` of that epoch. A definition change (which discards the
//! maintained state) must never leave carried violation relations in the
//! next snapshot; a commit or a rollback (which maintains the state
//! through its inverse ops) must carry them, and the reader checks above
//! referee what they carry.
#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "../crates/deductive/tests/common/mod.rs"]
mod common;

use gom_deductive::{Const, Database, Tuple};
use gom_model::MetaModel;
use gom_server::{ReaderCache, Snapshot, SnapshotCell};

const SEEDS: u64 = 24;
const SESSIONS: usize = 16;

const QUERIES: [&str; 4] = [
    "B0(X, Y), not B1(X).",
    "B0(X, Y), B1(Y), X != Y.",
    "D1(X, Y), not D0(Y, X).",
    "D2(X), B0(X, Y).",
];

fn render_check(db: &mut Database) -> Vec<String> {
    let violations = db.check().expect("check");
    violations.iter().map(|v| v.render(db)).collect()
}

fn answers(db: &mut Database) -> Vec<Vec<String>> {
    QUERIES
        .iter()
        .map(|q| {
            let (_, rows) = db.query_text(q).expect("query");
            rows.iter()
                .map(|row| {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|c| c.display(db.interner()).to_string())
                        .collect();
                    cells.join(",")
                })
                .collect()
        })
        .collect()
}

/// Compare the published epoch against a from-scratch oracle of `writer`.
/// `long_lived` is a reader that saw every earlier epoch. Returns the
/// number of violations of the epoch.
fn verify(
    cell: &SnapshotCell,
    long_lived: &mut ReaderCache,
    writer: &MetaModel,
    ctx: &str,
) -> usize {
    let mut oracle = writer.db.deep_snapshot_clone();
    assert!(!oracle.carries_violations(), "{ctx}: the oracle re-derives");
    let expect_check = render_check(&mut oracle);
    let expect_rows = answers(&mut oracle);

    // A fresh reader: the stored answer (computed once on its view) and a
    // second reader served from the store both match the oracle.
    let mut reader = ReaderCache::new();
    let stored = reader
        .check(cell, |meta| {
            meta.db
                .check()
                .map(|vs| vs.iter().map(|v| v.render(&meta.db)).collect())
        })
        .expect("stored check");
    assert_eq!(stored, expect_check, "{ctx}: stored check answer");
    let served = ReaderCache::new()
        .check(cell, |_| -> Result<Vec<String>, ()> { Err(()) })
        .expect("a later reader is served the stored answer");
    assert_eq!(served, expect_check, "{ctx}: served check answer");
    let renewed = long_lived
        .check(cell, |_| -> Result<Vec<String>, ()> { Err(()) })
        .expect("a reader from an earlier epoch is served the stored answer");
    assert_eq!(renewed, expect_check, "{ctx}: long-lived reader check");

    // The view itself: the carried read, then both queries (the derived
    // one materialises the IDB), then check again over that IDB.
    let (_, view) = reader.view(cell);
    assert_eq!(
        render_check(&mut view.db),
        expect_check,
        "{ctx}: reader check"
    );
    assert_eq!(answers(&mut view.db), expect_rows, "{ctx}: reader queries");
    assert_eq!(
        render_check(&mut view.db),
        expect_check,
        "{ctx}: evaluated check"
    );

    // A base mutation on a private view drops what it carried.
    let b1 = view.db.pred_id("B1").expect("B1");
    let fresh = view.db.constant("reader_local");
    view.db.insert(b1, vec![fresh]).expect("insert");
    assert!(!view.db.carries_violations(), "{ctx}: mutated view");
    let mut local_oracle = view.db.deep_snapshot_clone();
    assert_eq!(
        render_check(&mut view.db),
        render_check(&mut local_oracle),
        "{ctx}: mutated view check"
    );
    expect_check.len()
}

/// Run one seeded history; returns how many published epochs carried a
/// non-empty set of violations.
fn run(seed: u64) -> usize {
    let mut meta = MetaModel::new().expect("meta");
    let mut rng = common::build_into(&mut meta.db, seed);
    meta.db
        .load(&common::constraints(&mut rng, 0))
        .expect("constraints load");
    meta.db.ensure_maintained().expect("arm");
    let cell = SnapshotCell::new(Snapshot::capture(0, &meta));
    let mut long_lived = ReaderCache::new();
    assert!(cell.load().meta.db.carries_violations(), "epoch 0 carries");
    let mut carried_nonempty = 0;
    if verify(
        &cell,
        &mut long_lived,
        &meta,
        &format!("seed {seed} epoch 0"),
    ) > 0
    {
        carried_nonempty += 1;
    }

    let b0 = meta.db.pred_id("B0").expect("B0");
    let b1 = meta.db.pred_id("B1").expect("B1");
    for epoch in 1..=SESSIONS as u64 {
        meta.db.begin_session().expect("bes");
        meta.db.ensure_maintained().expect("arm");
        for _ in 0..1 + rng.below(4) {
            let x = Const::Int(rng.below(5) as i64);
            let pair = Tuple::from(vec![x, Const::Int(rng.below(5) as i64)]);
            let single = Tuple::from(vec![x]);
            match rng.below(4) {
                0 => meta.db.insert(b0, pair).map(drop),
                1 => meta.db.remove(b0, &pair).map(drop),
                2 => meta.db.insert(b1, single).map(drop),
                _ => meta.db.remove(b1, &single).map(drop),
            }
            .expect("op");
        }
        let what = match rng.below(6) {
            0 => {
                meta.db.rollback_session().expect("rollback");
                "rollback"
            }
            1 => {
                meta.db.commit_session().expect("commit");
                let text = common::constraints(&mut rng, epoch as usize);
                meta.db.load(&text).expect("definition change");
                "definition change"
            }
            _ => {
                meta.db.commit_session().expect("commit");
                "commit"
            }
        };
        cell.publish(Snapshot::capture(epoch, &meta));
        let carried = cell.load().meta.db.carries_violations();
        assert_eq!(
            carried,
            what != "definition change",
            "seed {seed} epoch {epoch}: after a {what} the snapshot must carry \
             violations only from a live maintained state"
        );
        let ctx = format!("seed {seed} epoch {epoch} ({what})");
        if verify(&cell, &mut long_lived, &meta, &ctx) > 0 && carried {
            carried_nonempty += 1;
        }
    }
    carried_nonempty
}

#[test]
fn snapshot_readers_match_from_scratch_single_threaded() {
    let carried_nonempty: usize = (0..SEEDS).map(run).sum();
    // The sweep must exercise carried relations that hold violations, not
    // only empty ones.
    assert!(
        carried_nonempty >= SEEDS as usize,
        "only {carried_nonempty} carried epochs had violations"
    );
}
