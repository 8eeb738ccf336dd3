//! B1 — consistency-check cost vs schema size.
//! B2 — full recheck vs dependency-pruned incremental recheck.
//! B5 — declarative (deductive) checking vs Orion-style fixed procedural
//!      checking: the price of flexibility.
//!
//! Expected shapes: B1 grows roughly linearly in the number of facts
//! (semi-naive evaluation, hash joins); B2's incremental check is far below
//! the full check because only the affected constraint cones are
//! evaluated; B5's fixed checker wins by a constant factor but cannot
//! express new constraints (see `gom-evolution::baselines`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gom_bench::{synth_manager, SynthParams};
use gom_deductive::ChangeSet;
use gom_evolution::fixed_check;
use std::hint::black_box;

fn b1_consistency_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("B1_consistency_scaling");
    group.sample_size(10);
    for &types in &[25usize, 50, 100, 200] {
        let (mut mgr, _) = synth_manager(SynthParams {
            types,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(types), &types, |b, _| {
            b.iter(|| {
                mgr.meta.db.invalidate_caches();
                let v = mgr.meta.db.check().unwrap();
                black_box(v.len())
            })
        });
    }
    group.finish();
}

fn b2_incremental_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("B2_incremental_check");
    group.sample_size(10);
    for &types in &[50usize, 200] {
        // One attribute insertion on a consistent schema.
        let (mut mgr, ts) = synth_manager(SynthParams {
            types,
            ..Default::default()
        });
        let t0 = ts[0];
        let int = mgr.meta.builtins.int;
        mgr.begin_evolution().unwrap();
        mgr.meta.add_attr(t0, "bench_new_attr", int).unwrap();
        let delta: ChangeSet = mgr.meta.db.session_delta().unwrap();

        group.bench_with_input(BenchmarkId::new("full", types), &types, |b, _| {
            b.iter(|| {
                mgr.meta.db.invalidate_caches();
                black_box(mgr.meta.db.check().unwrap().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("pruned", types), &types, |b, _| {
            b.iter(|| {
                mgr.meta.db.invalidate_caches();
                black_box(mgr.meta.db.check_delta(&delta).unwrap().len())
            })
        });
        mgr.rollback_evolution().unwrap();

        // DRed: arm IDB maintenance; each iteration applies the change and
        // its inverse incrementally (two updates + two checks).
        mgr.meta.db.ensure_maintained().unwrap();
        let mut forward = ChangeSet::new();
        let int = mgr.meta.builtins.int;
        let name = mgr.meta.db.constant("bench_new_attr");
        forward.insert(
            mgr.meta.cat.attr,
            gom_deductive::Tuple::from(vec![t0.constant(), name, int.constant()]),
        );
        let mut backward = ChangeSet::new();
        for op in forward.ops.iter().rev() {
            backward.ops.push(op.inverse());
        }
        group.bench_with_input(BenchmarkId::new("dred", types), &types, |b, _| {
            b.iter(|| {
                mgr.meta.db.apply(&forward).unwrap();
                let v1 = mgr.meta.db.check().unwrap().len();
                mgr.meta.db.apply(&backward).unwrap();
                let v2 = mgr.meta.db.check().unwrap().len();
                black_box(v1 + v2)
            })
        });
    }
    group.finish();
}

fn b5_declarative_vs_fixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5_declarative_vs_fixed");
    group.sample_size(10);
    for &types in &[50usize, 200] {
        let (mut mgr, _) = synth_manager(SynthParams {
            types,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::new("declarative", types), &types, |b, _| {
            b.iter(|| {
                mgr.meta.db.invalidate_caches();
                black_box(mgr.meta.db.check().unwrap().len())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("fixed_procedural", types),
            &types,
            |b, _| b.iter(|| black_box(fixed_check(&mgr.meta).len())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    b1_consistency_scaling,
    b2_incremental_check,
    b5_declarative_vs_fixed
);
criterion_main!(benches);
