//! Differential soundness of the maintained EES path.
//!
//! Over many seeded random evolution sessions the maintained violation
//! read must be *bit-identical* to delta checking, and the maintained
//! IDB's full `check()` to a from-scratch check of a deep snapshot — same
//! commit/rollback decision, same rendered violations — including
//! rollback-then-recommit sessions (which maintain the IDB through the
//! inverse ops) and sessions replayed through durable-store recovery
//! (which rebuild it from a journal). The sweep runs from two seed bases.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gom_bench::{build_synth_schema, populate_objects, synth_manager, SynthParams};
use gom_deductive::Database;
use gom_obs::SplitMix64;
use gomflex::prelude::*;

/// Random sessions per sweep (at least 120).
const SESSIONS: usize = 120;

/// Apply one random schema-evolution primitive inside the open session.
/// Same mix as `impact_soundness.rs`: a healthy fraction of sessions must
/// end up inconsistent so both branches of the decision are exercised.
fn mutate(mgr: &mut SchemaManager, types: &[TypeId], rng: &mut SplitMix64, tag: usize) {
    let ty = types[rng.below(types.len())];
    match rng.below(6) {
        0 => {
            let dom = if rng.below(2) == 0 {
                mgr.meta.builtins.string
            } else {
                types[rng.below(types.len())]
            };
            mgr.meta.add_attr(ty, &format!("mnt{tag}"), dom).unwrap();
        }
        1 => {
            let attrs = mgr.meta.attrs_of(ty);
            if !attrs.is_empty() {
                let (name, _) = &attrs[rng.below(attrs.len())];
                mgr.meta.remove_attr(ty, name).unwrap();
            }
        }
        2 => {
            let sup = types[rng.below(types.len())];
            mgr.meta.add_subtype(ty, sup).unwrap();
        }
        3 => {
            if mgr.meta.phrep_of(ty).is_none() {
                mgr.meta.new_phrep(ty).unwrap();
            }
        }
        4 => {
            if let Some(clid) = mgr.meta.phrep_of(ty) {
                let attrs = mgr.meta.attrs_of(ty);
                let name = if attrs.is_empty() || rng.below(3) == 0 {
                    format!("ghost{tag}")
                } else {
                    attrs[rng.below(attrs.len())].0.clone()
                };
                let val = mgr
                    .meta
                    .builtins
                    .phrep_of(mgr.meta.builtins.string)
                    .unwrap();
                mgr.meta.add_slot(clid, &name, val).unwrap();
            }
        }
        _ => {
            if let Some(clid) = mgr.meta.phrep_of(ty) {
                let slots = mgr.meta.slots_of(clid);
                if !slots.is_empty() {
                    let (name, _) = &slots[rng.below(slots.len())];
                    mgr.meta.remove_slot(clid, name).unwrap();
                }
            }
        }
    }
}

fn sorted_render(db: &Database, vs: &[Violation]) -> Vec<String> {
    let mut out: Vec<String> = vs.iter().map(|v| v.render(db)).collect();
    out.sort();
    out
}

/// One differential session: mutate, then compare every check path.
/// Returns the (maintained) violation report.
fn differential_session(
    mgr: &mut SchemaManager,
    types: &[TypeId],
    rng: &mut SplitMix64,
    session: usize,
    label: &str,
) -> Vec<Violation> {
    mgr.begin_evolution().unwrap();
    assert!(
        mgr.meta.db.maintenance_active(),
        "{label} session={session}: BES must arm maintenance"
    );
    let nops = 1 + rng.below(5);
    for op in 0..nops {
        mutate(mgr, types, rng, session * 8 + op);
    }
    let delta = mgr.meta.db.session_delta().unwrap();

    // (a) The maintained read must be bit-identical to the delta check.
    let maintained = mgr.meta.db.check_maintained(&delta).unwrap();
    let full_delta = mgr.meta.db.check_delta(&delta).unwrap();
    assert_eq!(
        maintained.is_empty(),
        full_delta.is_empty(),
        "{label} session={session}: maintained read changed the decision"
    );
    assert_eq!(
        sorted_render(&mgr.meta.db, &maintained),
        sorted_render(&mgr.meta.db, &full_delta),
        "{label} session={session}: maintained read changed the report\ndelta: {delta:?}"
    );

    // (b) The maintained IDB's *complete* violation set — a full check()
    // reads it — must equal a from-scratch check of a deep snapshot, which
    // carries nothing and re-derives everything. This is the strongest
    // statement: the maintained violation relations are correct, not
    // merely delta-equivalent.
    let all_maintained = mgr.meta.db.check().unwrap();
    assert!(
        mgr.meta.db.maintenance_active(),
        "{label} session={session}: check() must read the maintained IDB"
    );
    let mut oracle = mgr.meta.db.deep_snapshot_clone();
    let full = oracle.check().unwrap();
    assert_eq!(
        sorted_render(&mgr.meta.db, &all_maintained),
        sorted_render(&oracle, &full),
        "{label} session={session}: maintained violation relations diverge from scratch"
    );
    maintained
}

fn run_sweep(seed: u64) {
    let (mut mgr, types) = synth_manager(SynthParams {
        types: 12,
        ..Default::default()
    });
    // Give some types live instances so attribute changes become breaking.
    populate_objects(&mut mgr, &types[..4], 1);
    assert!(
        mgr.check().unwrap().is_empty(),
        "synth schema must start consistent"
    );

    let mut rng = SplitMix64::new(seed);
    let label = format!("seed={seed:#x}");
    let mut inconsistent = 0usize;
    for session in 0..SESSIONS {
        let maintained = differential_session(&mut mgr, &types, &mut rng, session, &label);

        if maintained.is_empty() {
            // Every 5th consistent session drops the maintained IDB
            // mid-session: EES re-arms it and must reach the same decision,
            // leaving maintenance armed for the next session.
            if session % 5 == 0 {
                mgr.meta.db.invalidate_caches();
            }
            match mgr.end_evolution().unwrap() {
                EvolutionOutcome::Consistent(_) => {}
                EvolutionOutcome::Inconsistent(vs) => panic!(
                    "{label} session={session}: EES disagreed with the differential \
                     ({} violations)",
                    vs.len()
                ),
            }
            assert!(
                mgr.meta.db.maintenance_active(),
                "{label} session={session}: EES must leave maintenance armed"
            );
        } else {
            inconsistent += 1;
            match mgr.end_evolution().unwrap() {
                EvolutionOutcome::Inconsistent(_) => {}
                EvolutionOutcome::Consistent(_) => {
                    panic!("{label} session={session}: EES committed an inconsistent session")
                }
            }
            mgr.rollback_evolution().unwrap();
            assert!(
                mgr.meta.db.maintenance_active(),
                "{label} session={session}: rollback must keep the IDB armed"
            );
            // Rollback-then-recommit: the very next session reuses the IDB
            // the rollback maintained; an empty session must commit cleanly,
            // and the next session's deep-clone full check referees it.
            mgr.begin_evolution().unwrap();
            assert!(mgr.meta.db.maintenance_active());
            match mgr.end_evolution().unwrap() {
                EvolutionOutcome::Consistent(_) => {}
                EvolutionOutcome::Inconsistent(vs) => panic!(
                    "{label} session={session}: state dirty after rollback \
                     ({} violations)",
                    vs.len()
                ),
            }
        }
    }

    // The op mix must actually exercise the interesting half of the space.
    assert!(
        inconsistent >= SESSIONS / 10,
        "{label}: only {inconsistent}/{SESSIONS} sessions were inconsistent — \
         the random mix no longer stresses the maintained path"
    );
}

#[test]
fn maintained_is_sound_single_threaded() {
    run_sweep(0x3A1D_7000 + 1);
}

#[test]
fn maintained_is_sound_second_seed() {
    run_sweep(0x3A1D_7000 + 4);
}

/// Durable-store recovery: sessions journaled while the maintained path was
/// live must replay to a bit-identical database, and the replayed manager's
/// maintained path must agree with full checking again.
#[test]
fn maintained_sessions_survive_recovery_replay() {
    use gomflex::store::MemBackend;

    let mem = MemBackend::new();
    let (mut mgr, _) =
        SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
    // Build the schema *inside* a journaled session so replay sees it.
    mgr.begin_evolution().unwrap();
    let types = build_synth_schema(
        &mut mgr,
        SynthParams {
            types: 12,
            ..Default::default()
        },
    );
    populate_objects(&mut mgr, &types[..4], 1);
    match mgr.end_evolution().unwrap() {
        EvolutionOutcome::Consistent(_) => {}
        EvolutionOutcome::Inconsistent(vs) => panic!("synth build inconsistent: {}", vs.len()),
    }

    // A run of maintained differential sessions, committing the consistent
    // ones (those land in the journal) and rolling back the rest.
    let mut rng = SplitMix64::new(0x3A1D_7EC0);
    let mut committed = 0usize;
    for session in 0..24 {
        let maintained = differential_session(&mut mgr, &types, &mut rng, session, "recovery-pre");
        if maintained.is_empty() {
            mgr.end_evolution().unwrap();
            committed += 1;
        } else {
            mgr.rollback_evolution().unwrap();
        }
    }
    assert!(committed > 0, "no sessions committed — seed went stale");
    let digest = mgr.meta.db.debug_state_digest();
    let full_violations = mgr.meta.db.check().unwrap();
    let full = sorted_render(&mgr.meta.db, &full_violations);
    drop(mgr);

    // Reopen: replay happens unarmed (plain inserts/removes), yet must
    // land on the same state the armed sessions produced.
    let (mut mgr2, report) =
        SchemaManager::open_backend(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
    assert_eq!(report.sessions_replayed, committed + 1);
    assert_eq!(
        mgr2.meta.db.debug_state_digest(),
        digest,
        "recovery replay diverged from the maintained sessions"
    );
    let full2_violations = mgr2.meta.db.check().unwrap();
    assert_eq!(full, sorted_render(&mgr2.meta.db, &full2_violations));

    // And the recovered manager's maintained path still agrees.
    let mut rng2 = SplitMix64::new(0x3A1D_7EC1);
    for session in 0..6 {
        differential_session(
            &mut mgr2,
            &types,
            &mut rng2,
            1000 + session,
            "recovery-post",
        );
        mgr2.rollback_evolution().unwrap();
    }
}
