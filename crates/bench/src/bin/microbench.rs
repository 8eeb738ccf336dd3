//! Offline micro-benchmark harness for the deductive hot paths and the
//! paper's experiment subjects (B1–B7 in `DESIGN.md` §5).
//!
//! The binary has zero external dependencies and emits a machine-readable
//! JSON report so the perf trajectory can be tracked in the repo
//! (`BENCH_<date>.json`, see `scripts/bench.sh`).
//!
//! ```text
//! cargo run --release -p gom-bench --bin microbench -- --out BENCH.json
//! cargo run --release -p gom-bench --bin microbench -- --iters 21 fixpoint
//! ```
//!
//! Covered paths:
//! * `fixpoint_*`   — bottom-up semi-naive fixpoint (transitive closure),
//!   and the naive tuple-at-a-time reference interpreter beside it (B7),
//! * `ees_check_*`  — full EES consistency check over the GOM catalog,
//! * `check_in_session_*`, `repairs_after_violation_*` — a full check and
//!   repair generation inside an open session (reads of the maintained IDB),
//! * `dred_*`       — DRed incremental maintenance of the armed IDB,
//! * `query_*`      — ad-hoc conjunctive query against a materialised IDB,
//! * `snapshot_*`   — epoch snapshot publication (CoW page sharing),
//! * `reader_*`     — a gomd reader connection's per-epoch cost: refreshing
//!   its private view, and the first `check` on that view,
//! * `repairs_all_k16` — repair generation for 16 violations (B3),
//! * `cure_*`       — an attribute cure by conversion or by masking plus
//!   reads through it (B4),
//! * `fixed_check_synth500` — the Orion-style fixed checker (B5; its
//!   declarative side is `ees_full_synth500`),
//! * `analyzer_lower_synth200` — GOM parse + lower (B6).

use gom_bench::{populate_objects, synth_manager, SynthParams};
use gom_deductive::{ChangeSet, Database, Tuple};
use gom_evolution::{cure_add_attr, fixed_check, CurePolicy};
use gom_model::{Oid, TypeId};
use gom_runtime::Value;
use gom_server::{ReaderCache, Snapshot, SnapshotCell};
use gomflex::core::SchemaManager;
use gomflex::impact::{ImpactIndex, PlanConfig};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One measured benchmark: name, per-iteration closure returning the number
/// of "work units" processed (derived facts, violations scanned, …).
struct Bench<'a> {
    name: &'static str,
    /// Untimed set-up before every run (warmups included).
    prep: Option<Box<dyn FnMut() + 'a>>,
    run: Box<dyn FnMut() -> u64 + 'a>,
    /// Work units per iteration (filled by the first run).
    units: u64,
}

struct Report {
    name: &'static str,
    median_ns: u128,
    min_ns: u128,
    units: u64,
    /// Tuples derived per iteration (obs counter, from an instrumented
    /// warmup run; timed runs are uninstrumented).
    derived: u64,
    /// Index/scan probes per iteration (eval + dred + repair probes).
    probes: u64,
}

impl Bench<'_> {
    fn prep(&mut self) {
        if let Some(prep) = &mut self.prep {
            prep();
        }
    }
}

fn measure(b: &mut Bench, iters: usize) -> Report {
    // Warmup: populate caches/indexes and record the unit count.
    b.prep();
    b.units = (b.run)();
    // Second warmup runs under gom-obs so the row can carry the engine's
    // own derived-tuple and probe counts; the collector is switched off
    // again before anything is timed.
    gom_obs::set_enabled(true);
    b.prep();
    let before = gom_obs::snapshot();
    (b.run)();
    let work = gom_obs::snapshot().since(&before);
    gom_obs::set_enabled(false);
    let derived = work.counter("eval.tuples.derived");
    let probes =
        work.counter("eval.probes") + work.counter("dred.probes") + work.counter("repair.probes");
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        b.prep();
        let t0 = Instant::now();
        black_box((b.run)());
        samples.push(t0.elapsed().as_nanos());
    }
    samples.sort_unstable();
    Report {
        name: b.name,
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        units: b.units,
        derived,
        probes,
    }
}

/// A row whose every run gets a fresh world from `setup`. The world is
/// built in `prep`, and the previous one is dropped there, both untimed.
fn fresh<'a, W: 'a>(
    name: &'static str,
    mut setup: impl FnMut() -> W + 'a,
    mut run: impl FnMut(&mut W) -> u64 + 'a,
) -> Bench<'a> {
    let world: Rc<RefCell<Option<W>>> = Rc::new(RefCell::new(None));
    let prep_world = Rc::clone(&world);
    Bench {
        name,
        prep: Some(Box::new(move || {
            *prep_world.borrow_mut() = Some(setup());
        })),
        run: Box::new(move || run(world.borrow_mut().as_mut().expect("prep builds the world"))),
        units: 0,
    }
}

fn chain_db(depth: usize) -> Database {
    let mut db = Database::new();
    db.load(
        "base Edge(a, b).
         derived Path(a, b).
         Path(X, Y) :- Edge(X, Y).
         Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
    )
    .unwrap();
    let e = db.pred_id("Edge").unwrap();
    for i in 0..depth {
        let a = db.constant(&format!("n{i}"));
        let b = db.constant(&format!("n{}", i + 1));
        db.insert(e, vec![a, b]).unwrap();
    }
    db
}

/// Sparse random digraph: `nodes` vertices, `edges` random edges.
fn graph_db(nodes: usize, edges: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.load(
        "base Edge(a, b).
         derived Path(a, b).
         Path(X, Y) :- Edge(X, Y).
         Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
    )
    .unwrap();
    let e = db.pred_id("Edge").unwrap();
    let mut rng = gom_obs::SplitMix64::new(seed);
    for _ in 0..edges {
        let a = gom_deductive::Const::Int(rng.below(nodes) as i64);
        let b = gom_deductive::Const::Int(rng.below(nodes) as i64);
        db.insert(e, vec![a, b]).unwrap();
    }
    db
}

/// A 500-type synthetic schema with an open evolution session holding a
/// five-primitive migration delta (new slots on a live representation).
fn synth500_session() -> (SchemaManager, ChangeSet) {
    let (mut mgr, ts) = synth_manager(SynthParams {
        types: 500,
        ..Default::default()
    });
    populate_objects(&mut mgr, &ts, 1);
    mgr.begin_evolution().expect("begin session");
    let clid = mgr
        .meta
        .phrep_of(ts[0])
        .expect("populated type has a PhRep");
    let val = mgr
        .meta
        .builtins
        .phrep_of(mgr.meta.builtins.int)
        .expect("builtin PhRep");
    for i in 0..5 {
        mgr.meta
            .add_slot(clid, &format!("mig{i}"), val)
            .expect("add slot");
    }
    let delta = mgr.meta.db.session_delta().expect("session delta");
    (mgr, delta)
}

/// A manager for the maintained-commit rows: an `n`-type schema with a
/// *constant* object population (instances on the first 50 types plus the
/// session's target type), so the only thing that grows with `n` is catalog
/// size. The session mutates the *last* type — a leaf of the synthetic
/// hierarchy (later types only subtype earlier ones) — so its derived delta
/// (inherited attributes, violation tuples) is constant-size too; mutating
/// a near-root type would legitimately derive O(#descendants) facts, which
/// is session-size, not schema-size. Each bench iteration opens a session,
/// applies a fixed net-zero six-primitive delta (three attributes added and
/// removed again) and commits through the maintained EES read — if that
/// path is O(Δ), the row's median stays flat from synth500 to synth5000.
fn maintained_commit_setup(n: usize) -> (SchemaManager, TypeId) {
    let (mut mgr, ts) = synth_manager(SynthParams {
        types: n,
        ..Default::default()
    });
    let leaf = *ts.last().expect("nonempty schema");
    populate_objects(&mut mgr, &ts[..50], 1);
    populate_objects(&mut mgr, &[leaf], 1);
    (mgr, leaf)
}

/// One maintained-commit session: 3× add_attr + 3× remove_attr (net zero),
/// committed via `end_evolution` (the maintained EES read). Panics on an
/// inconsistent outcome — a net-zero session must always commit.
fn maintained_commit_iter(mgr: &mut SchemaManager, t0: TypeId) -> u64 {
    mgr.begin_evolution().expect("begin session");
    let int_ty = mgr.meta.builtins.int;
    for i in 0..3 {
        mgr.meta
            .add_attr(t0, &format!("bm{i}"), int_ty)
            .expect("add attr");
    }
    for i in 0..3 {
        mgr.meta
            .remove_attr(t0, &format!("bm{i}"))
            .expect("remove attr");
    }
    match mgr.end_evolution().expect("ees") {
        gomflex::core::EvolutionOutcome::Consistent(delta) => delta.len() as u64,
        gomflex::core::EvolutionOutcome::Inconsistent(vs) => {
            panic!(
                "net-zero session must commit, got {} violation(s)",
                vs.len()
            )
        }
    }
}

/// An open session on a [`maintained_commit_setup`] base: BES arms IDB
/// maintenance, as every session does.
fn open_session(n: usize) -> (SchemaManager, TypeId) {
    let (mut mgr, leaf) = maintained_commit_setup(n);
    mgr.begin_evolution().expect("begin session");
    (mgr, leaf)
}

/// Add the attribute `name` to `ty` when absent, else remove it: one
/// primitive inside the open session.
fn toggle_attr(mgr: &mut SchemaManager, ty: TypeId, name: &str) {
    if !mgr.meta.remove_attr(ty, name).expect("remove attr") {
        let int_ty = mgr.meta.builtins.int;
        mgr.meta.add_attr(ty, name, int_ty).expect("add attr");
    }
}

/// A full check right after one primitive inside an open session on an
/// `n`-type base (units = violations + 1).
fn check_in_session(name: &'static str, n: usize) -> Bench<'static> {
    let (mgr, leaf) = open_session(n);
    let mgr = Rc::new(RefCell::new(mgr));
    let prep_mgr = Rc::clone(&mgr);
    Bench {
        name,
        prep: Some(Box::new(move || {
            toggle_attr(&mut prep_mgr.borrow_mut(), leaf, "bm_check")
        })),
        run: Box::new(move || mgr.borrow_mut().check().unwrap().len() as u64 + 1),
        units: 0,
    }
}

/// The paper's §3.5 repair loop on an open session: a primitive that
/// violates `slot_for_every_attr` (the leaf's live instance lacks the
/// new attribute's slot), the full check that reports it, repair
/// generation for the first violation, then the undoing primitive.
fn repairs_after_violation_iter(mgr: &mut SchemaManager, leaf: TypeId) -> u64 {
    toggle_attr(mgr, leaf, "bm_repair");
    let vs = mgr.check().expect("check");
    let first = vs.first().expect("the new attribute violates a constraint");
    let repairs = mgr.repairs_for(first).expect("repairs").len();
    toggle_attr(mgr, leaf, "bm_repair");
    (vs.len() + repairs) as u64
}

/// An open session with `k` `slot_for_every_attr` violations: `k`
/// instantiated types of a flat schema each gained an attribute without
/// a slot (the §3.5 situation, k-fold).
fn violated_manager(k: usize) -> SchemaManager {
    let (mut mgr, types) = synth_manager(SynthParams {
        types: k.max(8) * 2,
        subtype_pct: 0, // flat hierarchy: one violation per added attr
        ..Default::default()
    });
    populate_objects(&mut mgr, &types[..k], 1);
    mgr.begin_evolution().expect("begin session");
    let string = mgr.meta.builtins.string;
    for (i, &t) in types[..k].iter().enumerate() {
        mgr.meta
            .add_attr(t, &format!("gap{i}"), string)
            .expect("add attr");
    }
    mgr
}

/// One type `Car` with `objects` instances.
fn cure_world(objects: usize) -> (SchemaManager, TypeId, Vec<Oid>) {
    let mut mgr = SchemaManager::new().expect("manager");
    mgr.define_schema("schema S is type Car is [ milage : float; ] end type Car; end schema S;")
        .expect("define schema");
    let s = mgr.meta.schema_by_name("S").expect("schema S");
    let car = mgr.meta.type_by_name(s, "Car").expect("type Car");
    let oids = (0..objects)
        .map(|_| mgr.create_object(car).expect("object"))
        .collect();
    (mgr, car, oids)
}

/// B4: add `fuelType` to a fresh 200-object `Car` under `policy`, then
/// read it 50 times (units = reads that saw the default).
fn cure_bench(name: &'static str, policy: CurePolicy) -> Bench<'static> {
    fresh(
        name,
        || cure_world(200),
        move |(mgr, car, oids)| {
            let string = mgr.meta.builtins.string;
            let default = Value::Str("unleaded".into());
            cure_add_attr(mgr, *car, "fuelType", string, default, policy).expect("cure");
            (0..50)
                .filter(|i| {
                    let v = mgr.get_attr(oids[i % oids.len()], "fuelType");
                    matches!(v.expect("read"), Value::Str(_))
                })
                .count() as u64
        },
    )
}

/// A gomd reader connection over a populated synth5000 base whose writer
/// keeps violations maintained, as gomd does. Each `next_epoch` publishes
/// a new snapshot of the (unchanged) writer state.
struct ReaderBench {
    mgr: SchemaManager,
    cell: SnapshotCell,
    cache: ReaderCache,
    epoch: u64,
}

impl ReaderBench {
    fn new(n: usize) -> ReaderBench {
        let (mut mgr, _) = maintained_commit_setup(n);
        mgr.meta.db.ensure_maintained().expect("arm maintenance");
        let cell = SnapshotCell::new(Snapshot::capture(0, &mgr.meta));
        ReaderBench {
            mgr,
            cell,
            cache: ReaderCache::new(),
            epoch: 0,
        }
    }

    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.cell
            .publish(Snapshot::capture(self.epoch, &self.mgr.meta));
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut iters = 15usize;
    let mut filters: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--iters N");
                i += 2;
            }
            f => {
                filters.push(f.to_string());
                i += 1;
            }
        }
    }

    let threads: usize = std::env::var("GOM_EVAL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    // ---- fixpoint: transitive closure --------------------------------------
    let mut chain = chain_db(128);
    let chain_path = chain.pred_id("Path").unwrap();
    let mut graph = graph_db(200, 420, 0xB0B);
    let graph_path = graph.pred_id("Path").unwrap();

    // ---- EES consistency check over the GOM catalog ------------------------
    let (mut mgr, ts) = synth_manager(SynthParams {
        types: 50,
        ..Default::default()
    });

    // ---- DRed incremental maintenance --------------------------------------
    let (mut dred_mgr, dred_ts) = synth_manager(SynthParams {
        types: 50,
        ..Default::default()
    });
    dred_mgr.meta.db.ensure_maintained().unwrap();
    let t0 = dred_ts[0];
    let int_ty = dred_mgr.meta.builtins.int;
    let attr_name = dred_mgr.meta.db.constant("bench_new_attr");
    let mut forward = ChangeSet::new();
    forward.insert(
        dred_mgr.meta.cat.attr,
        Tuple::from(vec![t0.constant(), attr_name, int_ty.constant()]),
    );
    let mut backward = ChangeSet::new();
    for op in forward.ops.iter().rev() {
        backward.ops.push(op.inverse());
    }

    // ---- ad-hoc query ------------------------------------------------------
    let mut qdb = chain_db(96);
    let q_edge = qdb.pred_id("Edge").unwrap();
    let q_path = qdb.pred_id("Path").unwrap();

    // ---- impact planner + delta-checked EES over synth500 -------------------
    let (mut pmgr, pdelta) = synth500_session();
    let (mut gmgr, gdelta) = synth500_session();

    // ---- maintained EES commit, flat-in-schema-size rows -------------------
    let (mut m500, m500_t0) = maintained_commit_setup(500);
    let (mut m5000, m5000_t0) = maintained_commit_setup(5000);

    // ---- repairs inside an open session ------------------------------------
    let (mut r5000, r5000_leaf) = open_session(5000);

    // ---- epoch snapshot publication over synth5000 -------------------------
    let (snap_mgr, _snap_ts) = maintained_commit_setup(5000);
    let (deep_mgr, _deep_ts) = maintained_commit_setup(5000);
    let mut snap_epoch = 0u64;

    // ---- reader connection per epoch over synth5000 ------------------------
    let refresh = Rc::new(RefCell::new(ReaderBench::new(5000)));
    let first_check = Rc::new(RefCell::new(ReaderBench::new(5000)));

    // ---- experiment subjects B3, B5, B6, B7 --------------------------------
    let mut naive_chain = chain_db(128);
    let naive_path = naive_chain.pred_id("Path").unwrap();
    let mut vmgr = violated_manager(16);
    let violations = vmgr.meta.db.check().expect("check");
    assert_eq!(violations.len(), 16, "expected 16 violations");
    let (fixed_mgr, _) = synth_manager(SynthParams {
        types: 500,
        ..Default::default()
    });
    let synth200_src = gom_bench::synth_source(200);

    let _ = ts;
    let mut benches: Vec<Bench> = vec![
        Bench {
            name: "fixpoint_tc_chain128",
            prep: None,
            run: Box::new(move || {
                chain.invalidate_caches();
                chain.derived_facts(chain_path).unwrap().len() as u64
            }),
            units: 0,
        },
        Bench {
            name: "fixpoint_naive_chain128",
            prep: None,
            run: Box::new(move || naive_chain.reference_facts(naive_path).unwrap().len() as u64),
            units: 0,
        },
        Bench {
            name: "fixpoint_tc_graph200x420",
            prep: None,
            run: Box::new(move || {
                graph.invalidate_caches();
                graph.derived_facts(graph_path).unwrap().len() as u64
            }),
            units: 0,
        },
        Bench {
            name: "ees_check_synth50",
            prep: None,
            run: Box::new(move || {
                mgr.meta.db.invalidate_caches();
                let v = mgr.meta.db.check().unwrap();
                black_box(v.len());
                mgr.meta.db.fact_count() as u64
            }),
            units: 0,
        },
        Bench {
            name: "dred_attr_toggle_synth50",
            prep: None,
            run: Box::new(move || {
                dred_mgr.meta.db.apply(&forward).unwrap();
                let v1 = dred_mgr.meta.db.check().unwrap().len();
                dred_mgr.meta.db.apply(&backward).unwrap();
                let v2 = dred_mgr.meta.db.check().unwrap().len();
                (v1 + v2) as u64 + 2
            }),
            units: 0,
        },
        Bench {
            name: "impact_plan_synth500",
            prep: None,
            run: Box::new(move || {
                // Cold plan: rebuild the whole impact index (reflect the
                // program into the meta-EDB, run the meta-fixpoint) and
                // produce the full plan report for the open session.
                let index = ImpactIndex::build(&mut pmgr.meta.db).unwrap();
                let plan =
                    gomflex::impact::plan(&pmgr.meta.db, &index, &pdelta, &PlanConfig::default());
                black_box(plan.footprint.len() as u64 + plan.total_constraints as u64)
            }),
            units: 0,
        },
        Bench {
            name: "ees_full_synth500",
            prep: None,
            run: Box::new(move || {
                gmgr.meta.db.invalidate_caches();
                gmgr.meta.db.check_delta(&gdelta).unwrap().len() as u64 + 1
            }),
            units: 0,
        },
        Bench {
            name: "ees_check_synth500",
            prep: None,
            run: Box::new(move || maintained_commit_iter(&mut m500, m500_t0)),
            units: 0,
        },
        Bench {
            name: "ees_check_synth5000",
            prep: None,
            run: Box::new(move || maintained_commit_iter(&mut m5000, m5000_t0)),
            units: 0,
        },
        check_in_session("check_in_session_synth500", 500),
        check_in_session("check_in_session_synth5000", 5000),
        Bench {
            name: "repairs_after_violation_synth5000",
            prep: None,
            run: Box::new(move || repairs_after_violation_iter(&mut r5000, r5000_leaf)),
            units: 0,
        },
        Bench {
            name: "snapshot_publish_synth5000",
            prep: None,
            run: Box::new(move || {
                // What every EES commit pays to publish a reader epoch:
                // with CoW page sharing this is O(#relations + #chunks)
                // Arc bumps, independent of the tuple count (units = facts
                // made visible per publication).
                snap_epoch += 1;
                let snap = Snapshot::capture(snap_epoch, &snap_mgr.meta);
                black_box(&snap);
                snap_mgr.meta.db.fact_count() as u64
            }),
            units: 0,
        },
        Bench {
            name: "snapshot_publish_deep_synth5000",
            prep: None,
            run: Box::new(move || {
                // The pre-CoW publication path (deep per-tuple clone plus
                // the eager digest it always computed), kept as a
                // permanent contrast row for the CoW one above.
                let deep = deep_mgr.meta.db.deep_snapshot_clone();
                black_box(deep.debug_state_digest().len());
                deep_mgr.meta.db.fact_count() as u64
            }),
            units: 0,
        },
        Bench {
            name: "query_path_join96",
            prep: None,
            run: Box::new(move || {
                use gom_deductive::ast::{Atom, Literal, Term, Var};
                let v = |n: u32| Term::Var(Var(n));
                let body = vec![
                    Literal::Pos(Atom::new(q_path, vec![v(0), v(1)])),
                    Literal::Pos(Atom::new(q_edge, vec![v(1), v(2)])),
                ];
                qdb.query(&body, &[Var(0), Var(2)]).unwrap().len() as u64
            }),
            units: 0,
        },
        Bench {
            name: "reader_refresh_synth5000",
            prep: Some(Box::new({
                let r = Rc::clone(&refresh);
                move || r.borrow_mut().next_epoch()
            })),
            run: Box::new(move || {
                // A reader's first request after a commit: replace its
                // private view with a share of the new epoch and make it
                // probe-ready (units = facts in the view).
                let r = &mut *refresh.borrow_mut();
                let (_, meta) = r.cache.view(&r.cell);
                meta.db.fact_count() as u64
            }),
            units: 0,
        },
        Bench {
            name: "reader_first_check_synth5000",
            prep: Some(Box::new({
                let r = Rc::clone(&first_check);
                move || {
                    let r = &mut *r.borrow_mut();
                    r.next_epoch();
                    r.cache.view(&r.cell);
                }
            })),
            run: Box::new(move || {
                // The first full check on a freshly refreshed view (units =
                // violations + 1). Later checks of the epoch are served
                // from the snapshot's stored answer in gomd.
                let r = &mut *first_check.borrow_mut();
                let (_, meta) = r.cache.view(&r.cell);
                meta.db.check().unwrap().len() as u64 + 1
            }),
            units: 0,
        },
        Bench {
            name: "repairs_all_k16",
            prep: None,
            run: Box::new(move || {
                let repairs = violations
                    .iter()
                    .map(|v| vmgr.meta.db.repairs(v).unwrap().len());
                repairs.sum::<usize>() as u64
            }),
            units: 0,
        },
        cure_bench("cure_conversion_200x50", CurePolicy::ImmediateConversion),
        cure_bench("cure_masking_200x50", CurePolicy::Masking),
        Bench {
            name: "fixed_check_synth500",
            prep: None,
            run: Box::new(move || fixed_check(&fixed_mgr.meta).len() as u64 + 1),
            units: 0,
        },
        fresh(
            "analyzer_lower_synth200",
            || SchemaManager::new().expect("manager"),
            move |mgr| {
                // Units = source bytes lowered.
                mgr.begin_evolution().expect("begin session");
                let lowered = mgr.analyzer.lower_source(&mut mgr.meta, &synth200_src);
                mgr.rollback_evolution().expect("rollback");
                lowered.expect("lower");
                synth200_src.len() as u64
            },
        ),
    ];

    let mut reports: Vec<Report> = Vec::new();
    for b in &mut benches {
        if !filters.is_empty() && !filters.iter().any(|f| b.name.contains(f.as_str())) {
            continue;
        }
        let r = measure(b, iters);
        eprintln!(
            "{:<28} median {:>12} ns   min {:>12} ns   {:>8} units   {:>10} derived   {:>10} probes",
            r.name, r.median_ns, r.min_ns, r.units, r.derived, r.probes,
        );
        reports.push(r);
    }

    // Machine-readable JSON (serde-free, like gom-lint's renderer).
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"gom-bench/microbench/v1\",\n");
    json.push_str(&format!("  \"unix_secs\": {unix_secs},\n"));
    json.push_str(&format!("  \"eval_threads\": {threads},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let thr = r.units as f64 / (r.median_ns as f64 / 1e9);
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \
             \"units_per_iter\": {}, \"throughput_per_s\": {:.1}, \
             \"derived_per_iter\": {}, \"probes_per_iter\": {}}}{}\n",
            json_escape(r.name),
            r.median_ns,
            r.min_ns,
            r.units,
            thr,
            r.derived,
            r.probes,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write report");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
