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
//! A filter equal to a row's name selects that row alone; any other
//! filter selects every row whose name contains it (`ees_check_synth`
//! runs the whole family).
//!
//! Covered paths:
//! * `fixpoint_*`   — bottom-up semi-naive fixpoint (transitive closure),
//!   and the naive tuple-at-a-time reference interpreter beside it (B7),
//! * `check_full_synth50` — a full consistency check over a 50-type GOM
//!   catalog, every cache invalidated first,
//! * `ees_check_*`  — a six-op maintained session committed through the
//!   EES read of the maintained IDB,
//! * `rollback_then_commit_*` — a rolled-back session, then the
//!   `ees_check_*` commit (should stay near `ees_check_*`),
//! * `op_maintain_*` — one `add_attr` and its removal in an open session:
//!   the per-op DRed upkeep every evolution primitive pays,
//! * `check_in_session_*`, `repairs_after_violation_*` — a full check and
//!   repair generation inside an open session (reads of the maintained IDB),
//! * `dred_*`       — DRed incremental maintenance of the armed IDB,
//! * `query_*`      — ad-hoc conjunctive query against a materialised IDB,
//! * `snapshot_*`   — epoch snapshot publication (CoW page sharing),
//! * `publish_then_commit_*` — a publication held in a `SnapshotCell`, then
//!   the next six-op commit, which copies the tail pages it shares,
//! * `reader_*`     — a gomd reader connection's per-epoch cost: refreshing
//!   its private view, and the first `check` on that view,
//! * `repairs_all_k16` — repair generation for 16 violations (B3),
//! * `cure_*`       — an attribute cure by conversion or by masking plus
//!   reads through it (B4),
//! * `fixed_check_synth500` — the Orion-style fixed checker (B5; its
//!   declarative side is `ees_full_synth500`),
//! * `analyzer_lower_synth200` — GOM parse + lower (B6),
//! * `analyzer_define_after_*` — lowering one trace-shaped frame into an
//!   open session after 0 or 2000 committed frames (should not grow with
//!   the history), and with each session rolled back instead,
//! * `recover_synth500` — `SchemaManager::open` on a journal holding one
//!   checkpoint of the gomd_bench preload (500 types, two objects on each
//!   of the first 50): snapshot apply plus the recovery fixpoint, whose
//!   `derived_per_iter` is the size of the IDB every session maintains,
//! * `journal_commit_*` — committing a six-op session to the journal under
//!   `SyncPolicy::OnCommit`, in memory and to a temporary file (one append
//!   and one fsync),
//! * `crc32_64k`    — the frame and journal-record CRC-32 over 64 KiB,
//! * `wire_*`       — gom-wire: a reader's `Attr(T, N, D)` reply at synth500
//!   from the query to the client's decoded frame, its client half alone
//!   (frame read and decode), a warm `Digest` reply at synth500 (the
//!   snapshot's frame written, read and decoded), and the request codec of
//!   a six-op session.
//!
//! Each row builds its world only when it is selected, and drops it before
//! the next row runs.

use gom_bench::{build_synth_schema, populate_objects, synth_manager, SynthParams};
use gom_deductive::{ChangeSet, Database, Tuple};
use gom_evolution::{cure_add_attr, fixed_check, CurePolicy};
use gom_model::{Oid, TypeId};
use gom_runtime::Value;
use gom_server::server::{query_frame, write_digest};
use gom_server::wire::read_frame;
use gom_server::{EvolutionOp, ReaderCache, Reply, Request, Snapshot, SnapshotCell};
use gomflex::core::SchemaManager;
use gomflex::impact::{ImpactIndex, PlanConfig};
use gomflex::store::{JConst, JOp, Journal, MemBackend, SyncPolicy};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One measured benchmark: a per-iteration closure returning the number
/// of "work units" processed (derived facts, violations scanned, …).
struct Bench<'a> {
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

/// A row with no per-run set-up.
fn bench<'a>(run: impl FnMut() -> u64 + 'a) -> Bench<'a> {
    Bench {
        prep: None,
        run: Box::new(run),
        units: 0,
    }
}

impl Bench<'_> {
    fn prep(&mut self) {
        if let Some(prep) = &mut self.prep {
            prep();
        }
    }
}

fn measure(name: &'static str, b: &mut Bench, iters: usize) -> Report {
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
        name,
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
    mut setup: impl FnMut() -> W + 'a,
    mut run: impl FnMut(&mut W) -> u64 + 'a,
) -> Bench<'a> {
    let world: Rc<RefCell<Option<W>>> = Rc::new(RefCell::new(None));
    let prep_world = Rc::clone(&world);
    Bench {
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

/// One maintained-commit session: 3× add_attr + 3× remove_attr (net zero)
/// of the attributes `{prefix}0` to `{prefix}2`, committed via
/// `end_evolution` (the maintained EES read). Panics on an inconsistent
/// outcome — a net-zero session must always commit.
fn maintained_commit_iter(mgr: &mut SchemaManager, t0: TypeId, prefix: &str) -> u64 {
    mgr.begin_evolution().expect("begin session");
    let int_ty = mgr.meta.builtins.int;
    for i in 0..3 {
        mgr.meta
            .add_attr(t0, &format!("{prefix}{i}"), int_ty)
            .expect("add attr");
    }
    for i in 0..3 {
        mgr.meta
            .remove_attr(t0, &format!("{prefix}{i}"))
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

/// A rolled-back session followed by the usual six-op commit on a
/// [`maintained_commit_setup`] base: BES, one `add_attr`, rollback, then
/// [`maintained_commit_iter`]. The rollback applies its inverse through
/// DRed, so the commit's BES finds the IDB still armed.
fn rollback_then_commit(n: usize) -> Bench<'static> {
    let (mut mgr, t0) = maintained_commit_setup(n);
    bench(move || {
        mgr.begin_evolution().expect("begin session");
        let int_ty = mgr.meta.builtins.int;
        mgr.meta
            .add_attr(t0, "rolled_back", int_ty)
            .expect("add attr");
        mgr.rollback_evolution().expect("rollback");
        maintained_commit_iter(&mut mgr, t0, "bm")
    })
}

/// What a gomd commit costs the writer once readers may hold its last
/// epoch: capture the writer state and publish it into a `SnapshotCell`
/// (dropping the epoch before it), then run BES, six ops and EES on a
/// [`maintained_commit_setup`] base. The snapshot held in the cell shares
/// the writer's pages, so the session's first writes copy the tail pages
/// they touch. Each run adds and removes three attributes with fresh
/// names, as the trace's sessions do, so the interner's tail page is
/// written too (units = ops committed).
fn publish_then_commit(n: usize) -> Bench<'static> {
    let (mut mgr, t0) = maintained_commit_setup(n);
    let cell = SnapshotCell::new(Snapshot::capture(0, &mgr.meta));
    let mut epoch = 0u64;
    bench(move || {
        epoch += 1;
        cell.publish(Snapshot::capture(epoch, &mgr.meta));
        maintained_commit_iter(&mut mgr, t0, &format!("pc{epoch}_"))
    })
}

/// An open session on a [`maintained_commit_setup`] base: BES arms IDB
/// maintenance, as every session does.
fn open_session(n: usize) -> (SchemaManager, TypeId) {
    let (mut mgr, leaf) = maintained_commit_setup(n);
    mgr.begin_evolution().expect("begin session");
    (mgr, leaf)
}

/// One `add_attr` and its removal in an open session on a
/// [`maintained_commit_setup`] base: two single-fact changes, each
/// maintained by DRed (units = ops).
fn op_maintain(n: usize) -> Bench<'static> {
    let (mut mgr, leaf) = open_session(n);
    let int_ty = mgr.meta.builtins.int;
    bench(move || {
        mgr.meta
            .add_attr(leaf, "op_maintained", int_ty)
            .expect("add attr");
        mgr.meta
            .remove_attr(leaf, "op_maintained")
            .expect("remove attr");
        2
    })
}

/// Trace-shaped GOM source for the one-type schema `{prefix}{i}`, with
/// one attribute per domain, named like the trace names them: uniquely.
fn define_source(prefix: &str, i: usize, domains: &[&str]) -> String {
    gom_trace::TraceOp::DefineType {
        schema: format!("{prefix}{i}"),
        ty: format!("T{prefix}{i}"),
        attrs: domains
            .iter()
            .enumerate()
            .map(|(k, d)| (format!("a{prefix}{i}_{k}"), d.to_string()))
            .collect(),
    }
    .gom_source()
    .expect("a DefineType has source")
}

/// A row lowering one trace-shaped frame (one type, two builtin
/// attributes) into an open session on a manager that has committed
/// `history` earlier one-type frames (units = source bytes). Only the
/// lowering is timed: the untimed prep ends the previous run's session
/// and opens the next, so each run defines a fresh schema. With
/// `rollback` the prep rolls the session back and the history stays at
/// `history` frames; otherwise it commits and the history grows by one
/// frame per run.
fn define_after(history: usize, rollback: bool) -> Bench<'static> {
    let mut mgr = SchemaManager::new().expect("manager");
    if history > 0 {
        let src: String = (0..history)
            .map(|i| define_source("History", i, &["int"]))
            .collect();
        mgr.define_schema(&src).expect("history commits");
    }
    let world = Rc::new(RefCell::new(mgr));
    let prep_world = Rc::clone(&world);
    let mut runs = 0;
    Bench {
        prep: Some(Box::new(move || {
            let mgr = &mut *prep_world.borrow_mut();
            if mgr.in_evolution() {
                if rollback {
                    mgr.rollback_evolution().expect("rollback");
                } else {
                    let outcome = mgr.end_evolution().expect("ees");
                    assert!(outcome.is_consistent(), "a one-type frame must commit");
                }
            }
            mgr.begin_evolution().expect("begin session");
        })),
        run: Box::new(move || {
            let mgr = &mut *world.borrow_mut();
            runs += 1;
            let src = define_source("Probe", runs, &["int", "string"]);
            mgr.analyzer
                .lower_source(&mut mgr.meta, &src)
                .expect("lower");
            src.len() as u64
        }),
        units: 0,
    }
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
fn check_in_session(n: usize) -> Bench<'static> {
    let (mgr, leaf) = open_session(n);
    let mgr = Rc::new(RefCell::new(mgr));
    let prep_mgr = Rc::clone(&mgr);
    Bench {
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
fn cure_bench(policy: CurePolicy) -> Bench<'static> {
    fresh(
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

/// The client's side of a `Rows` reply frame: read it (CRC) and decode
/// it; returns the row count.
fn decode_rows(frame: &[u8]) -> usize {
    let mut r = frame;
    let got = read_frame(&mut r).expect("read").expect("one frame");
    match Reply::decode(&got).expect("decode") {
        Reply::Rows { rows, .. } => rows.len(),
        other => panic!("expected rows, got {other:?}"),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The six ops of one `maintained_commit_iter` session (three attributes
/// added and removed again), as the journal stores them.
fn six_jops() -> Vec<JOp> {
    (0..6)
        .map(|i| JOp {
            insert: i < 3,
            pred: "Attr".into(),
            tuple: vec![
                JConst::Sym("tid4".into()),
                JConst::Sym(format!("bm{}", i % 3)),
                JConst::Sym("tid_int".into()),
            ],
        })
        .collect()
}

/// A temporary file, removed when dropped.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(stem: &str) -> TempFile {
        let path =
            std::env::temp_dir().join(format!("gom_microbench_{stem}_{}.gomj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A journal on a temporary file, removed when dropped.
struct TempJournal {
    journal: Journal,
    _file: TempFile,
}

/// Write the gomd_bench preload — 500 synthetic types, two objects on each
/// of the first 50 — to the journal at `path` as one checkpoint.
fn write_preload(path: &std::path::Path) {
    let (mut mgr, _) = SchemaManager::open(path, SyncPolicy::Never).expect("open");
    let types = build_synth_schema(
        &mut mgr,
        SynthParams {
            types: 500,
            ..Default::default()
        },
    );
    populate_objects(&mut mgr, &types[..50], 2);
    mgr.checkpoint().expect("checkpoint");
}

/// Commit the six-op session to `journal` (units = bytes appended).
fn commit_six(journal: &mut Journal, ops: &[JOp]) -> u64 {
    let before = journal.position();
    journal.commit(ops).expect("commit") - before
}

/// The requests of one six-op session as a client sends them: BES, three
/// attributes added and removed again, and a tokened EES.
fn six_op_requests() -> Vec<Request> {
    let mut reqs = vec![Request::Bes];
    for i in 0..3 {
        reqs.push(Request::Op(EvolutionOp::AddAttr {
            ty: "T499@Synth500_42".into(),
            name: format!("bm{i}"),
            domain: "int".into(),
        }));
    }
    for i in 0..3 {
        reqs.push(Request::Op(EvolutionOp::DelAttr {
            ty: "T499@Synth500_42".into(),
            name: format!("bm{i}"),
        }));
    }
    reqs.push(Request::Ees {
        token: Some(0x5E55_1011),
    });
    reqs
}

/// A named row whose world is built only when the row is selected.
type Row = (&'static str, Box<dyn FnOnce() -> Bench<'static>>);

fn row(name: &'static str, build: impl FnOnce() -> Bench<'static> + 'static) -> Row {
    (name, Box::new(build))
}

/// Every row, in report order.
fn rows() -> Vec<Row> {
    vec![
        row("fixpoint_tc_chain128", || {
            let mut chain = chain_db(128);
            let path = chain.pred_id("Path").unwrap();
            bench(move || {
                chain.invalidate_caches();
                chain.derived_facts(path).unwrap().len() as u64
            })
        }),
        row("fixpoint_naive_chain128", || {
            let mut chain = chain_db(128);
            let path = chain.pred_id("Path").unwrap();
            bench(move || chain.reference_facts(path).unwrap().len() as u64)
        }),
        row("fixpoint_tc_graph200x420", || {
            let mut graph = graph_db(200, 420, 0xB0B);
            let path = graph.pred_id("Path").unwrap();
            bench(move || {
                graph.invalidate_caches();
                graph.derived_facts(path).unwrap().len() as u64
            })
        }),
        row("check_full_synth50", || {
            let (mut mgr, _) = synth_manager(SynthParams {
                types: 50,
                ..Default::default()
            });
            bench(move || {
                mgr.meta.db.invalidate_caches();
                let v = mgr.meta.db.check().unwrap();
                black_box(v.len());
                mgr.meta.db.fact_count() as u64
            })
        }),
        row("dred_attr_toggle_synth50", || {
            let (mut mgr, ts) = synth_manager(SynthParams {
                types: 50,
                ..Default::default()
            });
            mgr.meta.db.ensure_maintained().unwrap();
            let int_ty = mgr.meta.builtins.int;
            let attr_name = mgr.meta.db.constant("bench_new_attr");
            let mut forward = ChangeSet::new();
            forward.insert(
                mgr.meta.cat.attr,
                Tuple::from(vec![ts[0].constant(), attr_name, int_ty.constant()]),
            );
            let mut backward = ChangeSet::new();
            for op in forward.ops.iter().rev() {
                backward.ops.push(op.inverse());
            }
            bench(move || {
                mgr.meta.db.apply(&forward).unwrap();
                let v1 = mgr.meta.db.check().unwrap().len();
                mgr.meta.db.apply(&backward).unwrap();
                let v2 = mgr.meta.db.check().unwrap().len();
                (v1 + v2) as u64 + 2
            })
        }),
        row("impact_plan_synth500", || {
            let (mut mgr, delta) = synth500_session();
            bench(move || {
                // Cold plan: rebuild the whole impact index (reflect the
                // program into the meta-EDB, run the meta-fixpoint) and
                // produce the full plan report for the open session.
                let index = ImpactIndex::build(&mut mgr.meta.db).unwrap();
                let plan =
                    gomflex::impact::plan(&mgr.meta.db, &index, &delta, &PlanConfig::default());
                black_box(plan.footprint.len() as u64 + plan.total_constraints as u64)
            })
        }),
        row("ees_full_synth500", || {
            let (mut mgr, delta) = synth500_session();
            bench(move || {
                mgr.meta.db.invalidate_caches();
                mgr.meta.db.check_delta(&delta).unwrap().len() as u64 + 1
            })
        }),
        row("ees_check_synth500", || {
            let (mut mgr, t0) = maintained_commit_setup(500);
            bench(move || maintained_commit_iter(&mut mgr, t0, "bm"))
        }),
        row("ees_check_synth5000", || {
            let (mut mgr, t0) = maintained_commit_setup(5000);
            bench(move || maintained_commit_iter(&mut mgr, t0, "bm"))
        }),
        row("op_maintain_synth500", || op_maintain(500)),
        row("op_maintain_synth5000", || op_maintain(5000)),
        row("rollback_then_commit_synth500", || {
            rollback_then_commit(500)
        }),
        row("rollback_then_commit_synth5000", || {
            rollback_then_commit(5000)
        }),
        row("check_in_session_synth500", || check_in_session(500)),
        row("check_in_session_synth5000", || check_in_session(5000)),
        row("repairs_after_violation_synth5000", || {
            let (mut mgr, leaf) = open_session(5000);
            bench(move || repairs_after_violation_iter(&mut mgr, leaf))
        }),
        row("snapshot_publish_synth5000", || {
            let (mgr, _) = maintained_commit_setup(5000);
            let mut epoch = 0u64;
            bench(move || {
                // What every EES commit pays to publish a reader epoch:
                // with CoW page sharing this is O(#relations + #chunks)
                // Arc bumps, independent of the tuple count (units = facts
                // made visible per publication).
                epoch += 1;
                let snap = Snapshot::capture(epoch, &mgr.meta);
                black_box(&snap);
                mgr.meta.db.fact_count() as u64
            })
        }),
        row("publish_then_commit_synth500", || publish_then_commit(500)),
        row("publish_then_commit_synth5000", || {
            publish_then_commit(5000)
        }),
        row("snapshot_publish_deep_synth5000", || {
            let (mgr, _) = maintained_commit_setup(5000);
            bench(move || {
                // The pre-CoW publication path (deep per-tuple clone plus
                // the eager digest it always computed), kept as a
                // permanent contrast row for the CoW one above.
                let deep = mgr.meta.db.deep_snapshot_clone();
                black_box(deep.debug_state_digest().len());
                mgr.meta.db.fact_count() as u64
            })
        }),
        row("query_path_join96", || {
            let mut db = chain_db(96);
            let edge = db.pred_id("Edge").unwrap();
            let path = db.pred_id("Path").unwrap();
            bench(move || {
                use gom_deductive::ast::{Atom, Literal, Term, Var};
                let v = |n: u32| Term::Var(Var(n));
                let body = vec![
                    Literal::Pos(Atom::new(path, vec![v(0), v(1)])),
                    Literal::Pos(Atom::new(edge, vec![v(1), v(2)])),
                ];
                db.query(&body, &[Var(0), Var(2)]).unwrap().len() as u64
            })
        }),
        row("reader_refresh_synth5000", || {
            let reader = Rc::new(RefCell::new(ReaderBench::new(5000)));
            let prep_reader = Rc::clone(&reader);
            Bench {
                prep: Some(Box::new(move || prep_reader.borrow_mut().next_epoch())),
                run: Box::new(move || {
                    // A reader's first request after a commit: replace its
                    // private view with a share of the new epoch and make
                    // it probe-ready (units = facts in the view).
                    let r = &mut *reader.borrow_mut();
                    let (_, meta) = r.cache.view(&r.cell);
                    meta.db.fact_count() as u64
                }),
                units: 0,
            }
        }),
        row("reader_first_check_synth5000", || {
            let reader = Rc::new(RefCell::new(ReaderBench::new(5000)));
            let prep_reader = Rc::clone(&reader);
            Bench {
                prep: Some(Box::new(move || {
                    let r = &mut *prep_reader.borrow_mut();
                    r.next_epoch();
                    r.cache.view(&r.cell);
                })),
                run: Box::new(move || {
                    // The first full check on a freshly refreshed view
                    // (units = violations + 1). Later checks of the epoch
                    // are served from the snapshot's stored answer in gomd.
                    let r = &mut *reader.borrow_mut();
                    let (_, meta) = r.cache.view(&r.cell);
                    meta.db.check().unwrap().len() as u64 + 1
                }),
                units: 0,
            }
        }),
        row("recover_synth500", || {
            let file = TempFile::new("recover");
            write_preload(&file.0);
            let opened: Rc<RefCell<Option<SchemaManager>>> = Rc::default();
            let prep_opened = Rc::clone(&opened);
            Bench {
                // The previous run's manager is dropped untimed.
                prep: Some(Box::new(move || drop(prep_opened.borrow_mut().take()))),
                run: Box::new(move || {
                    // gomd start-up on the preload: read the checkpoint,
                    // apply it to a fresh manager and run the recovery
                    // fixpoint (units = facts recovered).
                    let (mgr, _) =
                        SchemaManager::open(&file.0, SyncPolicy::Never).expect("recover");
                    let facts = mgr.meta.db.fact_count() as u64;
                    *opened.borrow_mut() = Some(mgr);
                    facts
                }),
                units: 0,
            }
        }),
        row("repairs_all_k16", || {
            let mut mgr = violated_manager(16);
            let violations = mgr.meta.db.check().expect("check");
            assert_eq!(violations.len(), 16, "expected 16 violations");
            bench(move || {
                let repairs = violations
                    .iter()
                    .map(|v| mgr.meta.db.repairs(v).unwrap().len());
                repairs.sum::<usize>() as u64
            })
        }),
        row("cure_conversion_200x50", || {
            cure_bench(CurePolicy::ImmediateConversion)
        }),
        row("cure_masking_200x50", || cure_bench(CurePolicy::Masking)),
        row("fixed_check_synth500", || {
            let (mgr, _) = synth_manager(SynthParams {
                types: 500,
                ..Default::default()
            });
            bench(move || fixed_check(&mgr.meta).len() as u64 + 1)
        }),
        row("analyzer_lower_synth200", || {
            let src = gom_bench::synth_source(200);
            fresh(
                || SchemaManager::new().expect("manager"),
                move |mgr| {
                    // Units = source bytes lowered.
                    mgr.begin_evolution().expect("begin session");
                    let lowered = mgr.analyzer.lower_source(&mut mgr.meta, &src);
                    mgr.rollback_evolution().expect("rollback");
                    lowered.expect("lower");
                    src.len() as u64
                },
            )
        }),
        row("analyzer_define_after_0", || define_after(0, false)),
        row("analyzer_define_after_2000", || define_after(2000, false)),
        row("analyzer_define_after_2000_rollback", || {
            define_after(2000, true)
        }),
        row("journal_commit_mem", || {
            let (mut journal, _) =
                Journal::open(Box::new(MemBackend::new()), SyncPolicy::OnCommit).expect("open");
            let ops = six_jops();
            bench(move || commit_six(&mut journal, &ops))
        }),
        row("crc32_64k", || {
            let mut rng = gom_obs::SplitMix64::new(0xC3C3_6464);
            let data: Vec<u8> = (0..64 * 1024).map(|_| rng.next() as u8).collect();
            bench(move || {
                black_box(gomflex::store::crc32(black_box(&data)));
                data.len() as u64
            })
        }),
        row("wire_rows_reply_synth500", || {
            let mut reader = ReaderBench::new(500);
            let mut sock = Vec::new();
            bench(move || {
                // A reader's query reply end to end, minus the socket: run
                // the query, encode its tuples into the frame (CRC), write
                // it, read the frame back (CRC) and decode it (units =
                // payload bytes).
                let (_, meta) = reader.cache.view(&reader.cell);
                let (frame, status) = query_frame(&mut meta.db, "Attr(T, N, D)");
                assert_eq!(status, "rows");
                sock.clear();
                sock.extend_from_slice(&frame);
                black_box(decode_rows(&sock));
                frame.len() as u64 - 8
            })
        }),
        row("wire_rows_decode_synth500", || {
            // The client half of `wire_rows_reply_synth500`: read the
            // frame (CRC) and decode it into one `String` per cell.
            let mut reader = ReaderBench::new(500);
            let (_, meta) = reader.cache.view(&reader.cell);
            let (frame, _) = query_frame(&mut meta.db, "Attr(T, N, D)");
            bench(move || {
                black_box(decode_rows(&frame));
                frame.len() as u64 - 8
            })
        }),
        row("wire_digest_reply_synth500", || {
            let mut reader = ReaderBench::new(500);
            let mut sock = Vec::new();
            // Warm: the snapshot's digest frame is built before timing.
            black_box(reader.cache.snapshot(&reader.cell).digest().len());
            bench(move || {
                // A warm `Digest` reply: the snapshot's frame written, then
                // read back (CRC) and decoded by the client (units =
                // payload bytes).
                let snap = reader.cache.snapshot(&reader.cell);
                sock.clear();
                write_digest(&mut sock, snap).expect("write");
                let got = read_frame(&mut sock.as_slice())
                    .expect("read")
                    .expect("one frame");
                match Reply::decode(&got).expect("decode") {
                    Reply::Ok(text) => black_box(text.len()),
                    other => panic!("expected the digest, got {other:?}"),
                };
                got.len() as u64
            })
        }),
        row("wire_session_codec", || {
            let reqs = six_op_requests();
            bench(move || {
                // Client encode and server decode of every request of the
                // session, with request-id envelopes (units = bytes).
                let mut bytes = 0;
                for (id, req) in (1u64..).zip(&reqs) {
                    let payload = req.encode_with_id(id);
                    black_box(Request::decode_with_id(&payload).expect("decode"));
                    bytes += payload.len() as u64;
                }
                bytes
            })
        }),
        row("journal_commit_file", || {
            let file = TempFile::new("journal");
            let (journal, _) = Journal::open_path(&file.0, SyncPolicy::OnCommit).expect("open");
            let mut temp = TempJournal {
                journal,
                _file: file,
            };
            let ops = six_jops();
            bench(move || commit_six(&mut temp.journal, &ops))
        }),
    ]
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

    let rows = rows();
    let names: Vec<&'static str> = rows.iter().map(|(name, _)| *name).collect();
    let selected = |name: &str| {
        filters.is_empty()
            || filters.iter().any(|f| {
                if names.contains(&f.as_str()) {
                    name == f
                } else {
                    name.contains(f.as_str())
                }
            })
    };
    let mut reports: Vec<Report> = Vec::new();
    for (name, build) in rows {
        if !selected(name) {
            continue;
        }
        let r = measure(name, &mut build(), iters);
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
