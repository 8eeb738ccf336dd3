//! Seeded property tests on the core invariants of the system. Inputs are
//! drawn from `gom_obs::SplitMix64`, one seed per case, and every failure
//! prints its seed.

use gom_obs::SplitMix64;
use gomflex::deductive::{ChangeSet, Const, Tuple};
use gomflex::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;

/// Random cases per property, one seed each.
const SEEDS: u64 = 100;

type CaseResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Run `case` once per seed, on a generator seeded with it. An error or
/// a panic fails the test naming the seed.
fn for_each_seed(mut case: impl FnMut(u64, &mut SplitMix64) -> CaseResult) {
    for seed in 0..SEEDS {
        let run = AssertUnwindSafe(|| case(seed, &mut SplitMix64::new(seed)));
        match std::panic::catch_unwind(run) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("seed {seed}: {e}"),
            Err(_) => panic!("seed {seed}: panicked (message above)"),
        }
    }
}

/// A recipe for a small random schema, expressed as indices.
struct SchemaRecipe {
    types: usize,
    // for each type: optional supertype (index of an earlier type)
    supers: Vec<Option<usize>>,
    // attrs: (type index, domain selector)
    attrs: Vec<(usize, usize)>,
    // decls with code: (type index, result selector)
    decls: Vec<(usize, usize)>,
}

impl SchemaRecipe {
    fn random(rng: &mut SplitMix64) -> SchemaRecipe {
        let types = 2 + rng.below(6);
        let supers = (0..types)
            .map(|_| (rng.below(2) == 0).then(|| rng.below(types)))
            .collect();
        let attrs = (0..rng.below(12))
            .map(|_| (rng.below(types), rng.below(4)))
            .collect();
        let decls = (0..rng.below(6))
            .map(|_| (rng.below(types), rng.below(4)))
            .collect();
        SchemaRecipe {
            types,
            supers,
            attrs,
            decls,
        }
    }
}

/// Materialise a recipe into a consistent schema (supertype edges only to
/// EARLIER types keep the hierarchy acyclic; every attr/decl name is
/// unique).
fn build(mgr: &mut SchemaManager, r: &SchemaRecipe) -> CaseResult<Vec<TypeId>> {
    let schema = mgr.meta.new_schema("P")?;
    let any = mgr.meta.builtins.any;
    let doms = [
        mgr.meta.builtins.int,
        mgr.meta.builtins.float,
        mgr.meta.builtins.string,
        mgr.meta.builtins.bool_,
    ];
    let mut types = Vec::new();
    for i in 0..r.types {
        let t = mgr.meta.new_type(schema, &format!("T{i}"))?;
        match r.supers[i] {
            Some(j) if j < i => mgr.meta.add_subtype(t, types[j])?,
            _ => mgr.meta.add_subtype(t, any)?,
        }
        types.push(t);
    }
    for (k, &(ti, di)) in r.attrs.iter().enumerate() {
        mgr.meta.add_attr(types[ti], &format!("a{k}"), doms[di])?;
    }
    for (k, &(ti, ri)) in r.decls.iter().enumerate() {
        let d = mgr.meta.new_decl(types[ti], &format!("op{k}"), doms[ri])?;
        mgr.meta.new_code(d, "return 0;")?;
    }
    Ok(types)
}

fn rendered(mgr: &mut SchemaManager) -> CaseResult<Vec<String>> {
    let vs = mgr.check()?;
    Ok(vs.iter().map(|v| v.render(&mgr.meta.db)).collect())
}

/// Recipes always produce consistent schemas, and checking is
/// deterministic and idempotent.
#[test]
fn random_schemas_are_consistent_and_check_is_idempotent() {
    for_each_seed(|seed, rng| {
        let r = SchemaRecipe::random(rng);
        let mut mgr = SchemaManager::new()?;
        build(&mut mgr, &r)?;
        let v1 = rendered(&mut mgr)?;
        assert!(v1.is_empty(), "seed {seed}: {v1:?}");
        mgr.meta.db.invalidate_caches();
        assert_eq!(v1, rendered(&mut mgr)?, "seed {seed}");
        Ok(())
    });
}

/// Rolling back a session restores the exact fact population, whatever
/// happened inside.
#[test]
fn rollback_restores_everything() {
    for_each_seed(|seed, rng| {
        let r = SchemaRecipe::random(rng);
        let chaos = rng.below(1000);
        let mut mgr = SchemaManager::new()?;
        let types = build(&mut mgr, &r)?;
        let before = mgr.meta.db.fact_count();
        mgr.begin_evolution()?;
        // A messy session driven by the seed.
        let t = types[chaos % types.len()];
        let int = mgr.meta.builtins.int;
        mgr.meta.add_attr(t, "chaos", int)?;
        if chaos.is_multiple_of(2) {
            delete_type(&mut mgr, t, DeleteTypeSemantics::Orphan)?;
        }
        if chaos.is_multiple_of(3) {
            let s = mgr.meta.schema_by_name("P").ok_or("schema P")?;
            let fresh = mgr.meta.new_type(s, "Fresh")?;
            let any = mgr.meta.builtins.any;
            mgr.meta.add_subtype(fresh, any)?;
        }
        mgr.rollback_evolution()?;
        assert_eq!(mgr.meta.db.fact_count(), before, "seed {seed}");
        assert!(mgr.check()?.is_empty(), "seed {seed}");
        Ok(())
    });
}

/// The declarative and the fixed-procedural checker agree on
/// consistency verdicts for random schemas, both intact and corrupted.
#[test]
fn declarative_and_fixed_checkers_agree() {
    for_each_seed(|seed, rng| {
        let r = SchemaRecipe::random(rng);
        let kill = rng.below(4);
        let mut mgr = SchemaManager::new()?;
        let types = build(&mut mgr, &r)?;
        assert!(mgr.check()?.is_empty(), "seed {seed}");
        assert!(fixed_check(&mgr.meta).is_empty(), "seed {seed}");
        // Corrupt: orphan-delete one type (dangles if referenced).
        mgr.begin_evolution()?;
        let victim = types[kill % types.len()];
        delete_type(&mut mgr, victim, DeleteTypeSemantics::Orphan)?;
        let declarative = mgr.meta.db.check()?;
        let fixed = fixed_check(&mgr.meta);
        // Both must detect the inconsistency (the victim had at least a
        // subtype edge to ANY or a supertype, which now dangles).
        assert!(!declarative.is_empty(), "seed {seed}");
        assert!(!fixed.is_empty(), "seed {seed}");
        mgr.rollback_evolution()?;
        Ok(())
    });
}

/// A manager built from `r` with one object of its `which`-th type and
/// an open session that added an attribute without a slot, violating (*).
fn gapped(r: &SchemaRecipe, which: usize) -> CaseResult<(SchemaManager, EvolutionOutcome)> {
    let mut mgr = SchemaManager::new()?;
    let types = build(&mut mgr, r)?;
    let t = types[which % types.len()];
    mgr.create_object(t)?;
    mgr.begin_evolution()?;
    let string = mgr.meta.builtins.string;
    mgr.meta.add_attr(t, "gap", string)?;
    let out = mgr.end_evolution()?;
    Ok((mgr, out))
}

/// Every generated repair, executed, removes the violation it was
/// generated for (soundness of repair generation).
#[test]
fn repairs_are_sound() {
    for_each_seed(|seed, rng| {
        let r = SchemaRecipe::random(rng);
        let which = rng.below(8);
        let (mut mgr, out) = gapped(&r, which)?;
        let violations = out.violations().to_vec();
        assert!(!violations.is_empty(), "seed {seed}");
        let repairs = mgr.repairs_for(&violations[0])?;
        assert!(!repairs.is_empty(), "seed {seed}");
        for idx in 0..repairs.len() {
            // Execute each repair in a fresh copy of the world; repair sets
            // correspond by index because generation is deterministic.
            let (mut m2, out2) = gapped(&r, which)?;
            assert!(!out2.is_consistent(), "seed {seed}");
            let reps2 = m2.repairs_for(&out2.violations()[0])?;
            assert_eq!(reps2.len(), repairs.len(), "seed {seed}");
            let outcome = m2.execute_repair(&reps2[idx].repair, Value::Null)?;
            // The specific target violation must be gone (others may remain
            // in principle, but in this scenario the fix is complete).
            assert!(
                outcome.is_consistent(),
                "seed {seed}: repair {} left: {:?}",
                reps2[idx].repair.render(&m2.meta.db),
                outcome
                    .violations()
                    .iter()
                    .map(|v| v.render(&m2.meta.db))
                    .collect::<Vec<_>>()
            );
        }
        mgr.rollback_evolution()?;
        Ok(())
    });
}

/// Transitive closure computed by the deductive engine equals BFS
/// reachability computed in plain Rust, on random edge sets.
#[test]
fn datalog_closure_equals_bfs() {
    for_each_seed(|seed, rng| {
        let edges: Vec<(i64, i64)> = (0..rng.below(40))
            .map(|_| (rng.below(12) as i64, rng.below(12) as i64))
            .collect();
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).
             derived Path(a, b).
             Path(X, Y) :- Edge(X, Y).
             Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
        )?;
        let e = db.pred_id("Edge").ok_or("Edge")?;
        for &(a, b) in &edges {
            db.insert(e, vec![Const::Int(a), Const::Int(b)])?;
        }
        let p = db.pred_id("Path").ok_or("Path")?;
        let derived: BTreeSet<(i64, i64)> = db
            .derived_facts(p)?
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        // BFS reachability (1+ steps).
        let mut expect = BTreeSet::new();
        let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(a, b) in &edges {
            adj.entry(a).or_default().push(b);
        }
        for &start in adj.keys() {
            let mut stack: Vec<i64> = adj[&start].clone();
            let mut seen = BTreeSet::new();
            while let Some(x) = stack.pop() {
                if seen.insert(x) {
                    expect.insert((start, x));
                    if let Some(next) = adj.get(&x) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
        }
        assert_eq!(derived, expect, "seed {seed}");
        Ok(())
    });
}

/// Applying a change set and then its inverse is an identity on the
/// fact population.
#[test]
fn changesets_invert() {
    for_each_seed(|seed, rng| {
        let vals: Vec<(i64, i64)> = (0..1 + rng.below(19))
            .map(|_| (rng.below(20) as i64, rng.below(20) as i64))
            .collect();
        let mut db = Database::new();
        let p = db.declare_base("P", 2)?;
        // preload half
        for &(a, b) in vals.iter().take(vals.len() / 2) {
            db.insert(p, vec![Const::Int(a), Const::Int(b)])?;
        }
        let before: usize = db.fact_count();
        let mut cs = ChangeSet::new();
        for &(a, b) in &vals {
            let t = Tuple::from(vec![Const::Int(a), Const::Int(b)]);
            if a % 2 == 0 {
                cs.insert(p, t);
            } else {
                cs.delete(p, t);
            }
        }
        let effective = db.apply(&cs)?;
        let mut inverse = ChangeSet::new();
        for op in effective.ops.iter().rev() {
            inverse.ops.push(op.inverse());
        }
        db.apply(&inverse)?;
        assert_eq!(db.fact_count(), before, "seed {seed}");
        Ok(())
    });
}
