#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Seeded property test: the Runtime System keeps the Object Base Model
//! faithful — after any sequence of object creations, deletions, and
//! conversions, the §3.4 schema/object constraints hold. Action sequences
//! are drawn from `gom_obs::SplitMix64`, one seed per sequence, and every
//! failure prints its seed.

use gom_core::SchemaManager;
use gom_model::TypeId;
use gom_obs::SplitMix64;
use gom_runtime::{Value, ValueSource};

/// Random action sequences, one seed each.
const SEEDS: u64 = 100;

fn hierarchy_manager() -> (SchemaManager, Vec<TypeId>) {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(
        "schema W is
           type Vehicle is [ wheels : int; ] end type Vehicle;
           type Car supertype Vehicle is [ doors : int; ] end type Car;
           type Truck supertype Vehicle is [ payload : float; ] end type Truck;
           type Taxi supertype Car is [ fare : float; ] end type Taxi;
         end schema W;",
    )
    .unwrap();
    let s = mgr.meta.schema_by_name("W").unwrap();
    let types = ["Vehicle", "Car", "Truck", "Taxi"]
        .iter()
        .map(|n| mgr.meta.type_by_name(s, n).unwrap())
        .collect();
    (mgr, types)
}

#[derive(Debug)]
enum Action {
    Create(usize),
    DeleteNth(usize),
    ConvertAdd(usize, u8),
    ConvertRemove(usize, u8),
}

/// A random action: creation four times in eight, deletion twice,
/// conversion-add and conversion-remove once each.
fn gen_action(rng: &mut SplitMix64) -> Action {
    match rng.below(8) {
        0..=3 => Action::Create(rng.below(4)),
        4 | 5 => Action::DeleteNth(rng.below(8)),
        6 => Action::ConvertAdd(rng.below(4), rng.below(3) as u8),
        _ => Action::ConvertRemove(rng.below(4), rng.below(3) as u8),
    }
}

#[test]
fn object_lifecycle_preserves_schema_object_consistency() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let actions: Vec<Action> = (0..1 + rng.below(24))
            .map(|_| gen_action(&mut rng))
            .collect();
        match std::panic::catch_unwind(|| run_actions(seed, &actions)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("seed {seed}: {e}"),
            Err(_) => panic!("seed {seed}: panicked (message above)"),
        }
    }
}

fn run_actions(seed: u64, actions: &[Action]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut mgr, types) = hierarchy_manager();
    let mut live: Vec<gom_model::Oid> = Vec::new();
    for action in actions {
        match action {
            Action::Create(t) => {
                let oid = mgr.create_object(types[*t])?;
                live.push(oid);
            }
            Action::DeleteNth(n) => {
                if !live.is_empty() {
                    let oid = live.remove(n % live.len());
                    mgr.runtime.delete(&mut mgr.meta, oid)?;
                }
            }
            Action::ConvertAdd(t, a) => {
                // Conversion must accompany the schema change in one
                // session (the §3.5 discipline).
                let ty = types[*t];
                let attr = format!("extra{a}");
                if mgr.meta.attrs_inherited(ty).iter().any(|(n, _)| *n == attr) {
                    continue; // already there (possibly inherited)
                }
                // Adding attr to ty may clash with a same-named attr
                // already added to a SUBTYPE earlier; skip those too.
                let clash = gom_runtime::affected_types(&mgr.meta, ty)
                    .iter()
                    .any(|&s| mgr.meta.attrs_inherited(s).iter().any(|(n, _)| *n == attr));
                if clash {
                    continue;
                }
                mgr.begin_evolution()?;
                let int = mgr.meta.builtins.int;
                mgr.meta.add_attr(ty, &attr, int)?;
                mgr.runtime.convert_add_slot(
                    &mut mgr.meta,
                    ty,
                    &attr,
                    int,
                    ValueSource::Default(Value::Int(0)),
                )?;
                let out = mgr.end_evolution()?;
                assert!(
                    out.is_consistent(),
                    "seed {seed}: convert-add left: {:?}",
                    out.violations()
                        .iter()
                        .map(|v| v.render(&mgr.meta.db))
                        .collect::<Vec<_>>()
                );
            }
            Action::ConvertRemove(t, a) => {
                let ty = types[*t];
                let attr = format!("extra{a}");
                // Only remove attrs we added directly on this type.
                if !mgr.meta.attrs_of(ty).iter().any(|(n, _)| *n == attr) {
                    continue;
                }
                mgr.begin_evolution()?;
                mgr.meta.remove_attr(ty, &attr)?;
                mgr.runtime.convert_remove_slot(&mut mgr.meta, ty, &attr)?;
                let out = mgr.end_evolution()?;
                assert!(
                    out.is_consistent(),
                    "seed {seed}: convert-remove left: {:?}",
                    out.violations()
                        .iter()
                        .map(|v| v.render(&mgr.meta.db))
                        .collect::<Vec<_>>()
                );
            }
        }
        // The standing invariant after every action:
        let violations = mgr.check()?;
        assert!(
            violations.is_empty(),
            "seed {seed}: after {:?}: {:?}",
            action,
            violations
                .iter()
                .map(|v| v.render(&mgr.meta.db))
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}
