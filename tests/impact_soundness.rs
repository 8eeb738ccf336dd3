//! Differential soundness of the gom-impact footprint.
//!
//! Over many seeded random evolution sessions the predicted impact
//! footprint must be a *superset* of the constraints that delta-checking
//! actually finds violated at EES. The sweep runs from two seed bases.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gom_bench::{populate_objects, synth_manager, SynthParams};
use gom_obs::SplitMix64;
use gomflex::impact::ImpactIndex;
use gomflex::prelude::*;

/// Random sessions per sweep (at least 100).
const SESSIONS: usize = 120;

/// Apply one random schema-evolution primitive inside the open session.
///
/// The mix is chosen so that a healthy fraction of sessions end up
/// inconsistent: attributes appear on types that already have instances
/// (missing slots), slots are ripped out from under attributes, subtype
/// edges can close cycles, and physical representations appear for types
/// whose attributes have no slots yet.
fn mutate(mgr: &mut SchemaManager, types: &[TypeId], rng: &mut SplitMix64, tag: usize) {
    let ty = types[rng.below(types.len())];
    match rng.below(6) {
        0 => {
            let dom = if rng.below(2) == 0 {
                mgr.meta.builtins.string
            } else {
                types[rng.below(types.len())]
            };
            mgr.meta.add_attr(ty, &format!("syn{tag}"), dom).unwrap();
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
    let mut inconsistent = 0usize;
    for session in 0..SESSIONS {
        mgr.begin_evolution().unwrap();
        let nops = 1 + rng.below(5);
        for op in 0..nops {
            mutate(&mut mgr, &types, &mut rng, session * 8 + op);
        }
        let delta = mgr.meta.db.session_delta().unwrap();

        let index = ImpactIndex::build(&mut mgr.meta.db).unwrap();
        let footprint = index.footprint(&mgr.meta.db, &delta);

        let full = mgr.meta.db.check_delta(&delta).unwrap();

        // Soundness: every constraint actually violated by the delta is
        // inside the predicted footprint. Key violations are outside the
        // constraint footprint by design.
        for v in &full {
            if v.constraint.starts_with("key(") {
                continue;
            }
            assert!(
                footprint.constraints.contains(&v.constraint),
                "seed={seed:#x} session={session}: constraint {:?} violated \
                 but missing from footprint {:?}\ndelta: {:?}",
                v.constraint,
                footprint.constraints,
                delta
            );
        }

        if !full.is_empty() {
            inconsistent += 1;
        }
        mgr.rollback_evolution().unwrap();
    }

    // The op mix must actually exercise the interesting half of the space.
    assert!(
        inconsistent >= SESSIONS / 10,
        "seed={seed:#x}: only {inconsistent}/{SESSIONS} sessions were inconsistent — \
         the random mix no longer stresses the footprint"
    );
}

#[test]
fn footprint_is_sound_single_threaded() {
    run_sweep(0xD1FF_5000 + 1);
}

#[test]
fn footprint_is_sound_second_seed() {
    run_sweep(0xD1FF_5000 + 4);
}
