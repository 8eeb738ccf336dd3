//! Bottom-up evaluation: semi-naive fixpoint per stratum over compiled
//! join plans (see [`crate::plan`]), plus ad-hoc conjunctive queries.
//!
//! Plans are precomputed once per rule at compile time; each fixpoint round
//! only resolves key constants and walks index buckets. Within a stratum,
//! a round runs its rule/delta activations in a fixed order into one fact
//! buffer, merged into the IDB at the round barrier, so insertion order
//! (and every downstream output) depends only on the program and its facts.

use crate::ast::{Atom, Literal, Rule, Term, Var};
use crate::compile::Compiled;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::plan::{order_body, Plan, RulePlans, ScanStep, Src, Step};
use crate::pred::PredId;
use crate::relation::{IndexRef, Relation};
use crate::symbol::{FxHashMap, FxHashSet};
use crate::tuple::{Row, Tuple};
use crate::value::Const;

/// Match count below which [`Database::query`] never compacts its match
/// list before the final sort (large enough that a query without repeated
/// rows sorts once).
const QUERY_COMPACT_MIN: usize = 1 << 16;

/// The database's materialised IDB: extensions of derived predicates
/// (indexed by `PredId`), including compiled constraint violation
/// relations.
pub(crate) struct Idb {
    pub rels: Vec<Relation>,
    /// `(pred_count, rule_count)` of the program it was derived from.
    pub fingerprint: (usize, usize),
    /// Armed by [`Database::ensure_maintained`]: base inserts and removes
    /// update this IDB in place by DRed (see `incr.rs`) instead of
    /// dropping it.
    pub maintained: bool,
    /// While maintained: per keyed base predicate, the number of stored
    /// facts under each key hash. A predicate with as many facts as key
    /// hashes has no key violation, so [`Database::check`] skips its scan
    /// (a hash collision only costs that scan).
    pub key_counts: FxHashMap<PredId, FxHashMap<u64, u32>>,
}

/// A variable binding environment for one rule activation.
pub(crate) type Binding = Vec<Option<Const>>;

fn resolve(t: Term, binding: &Binding) -> Option<Const> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding[v.index()],
    }
}

#[inline]
fn resolve_src(s: Src, binding: &Binding) -> Const {
    match s {
        Src::Const(c) => c,
        Src::Var(v) => binding[v.index()].expect("plan: variable bound before use"),
    }
}

/// Evaluation context giving access to base and derived relations. When
/// `base_override` is set, base predicates are read from it instead of the
/// live EDB (used by incremental maintenance to join against the old
/// state).
pub(crate) struct Store<'a> {
    pub(crate) db: &'a Database,
    pub(crate) idb: &'a [Relation],
    pub(crate) base_override: Option<&'a [Relation]>,
    /// Tuples touched by plan scans through this store. Counted
    /// unconditionally (one register add per scan batch — cheaper than a
    /// branch), read out into `gom-obs` only when collection is enabled.
    pub(crate) probes: std::cell::Cell<u64>,
}

impl<'a> Store<'a> {
    pub(crate) fn new(
        db: &'a Database,
        idb: &'a [Relation],
        base_override: Option<&'a [Relation]>,
    ) -> Self {
        Store {
            db,
            idb,
            base_override,
            probes: std::cell::Cell::new(0),
        }
    }
}

impl Store<'_> {
    pub(crate) fn rel(&self, p: PredId) -> &Relation {
        if self.db.pred_decl(p).is_base() {
            match self.base_override {
                Some(base) => &base[p.index()],
                None => self.db.relation(p),
            }
        } else {
            &self.idb[p.index()]
        }
    }
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// The substitute fact source for the delta literal of a semi-naive or
/// DRed plan execution.
///
/// The fixpoint loop stages each round's new facts as **row ids** into the
/// IDB relation they were just inserted into — no tuple clones, no hash
/// bookkeeping ([`DeltaSrc::Ids`]). Incremental maintenance (DRed) owns
/// materialised add/delete sets and passes them as whole relations
/// ([`DeltaSrc::Rel`]).
#[derive(Clone, Copy)]
pub(crate) enum DeltaSrc<'a> {
    /// Row ids into the relation `Store::rel` resolves for the delta
    /// literal's predicate (valid: the fixpoint never removes rows).
    Ids(&'a [u32]),
    /// A standalone relation replacing the delta literal's extension.
    Rel(&'a Relation),
}

/// Execute a compiled plan, calling `sink` for every complete binding.
/// `delta` substitutes the fact source used for the scan whose original
/// body index equals `delta.0`. The sink returns `false` to abort.
pub(crate) fn exec_plan<'s>(
    store: &'s Store<'s>,
    plan: &Plan,
    delta: Option<(usize, DeltaSrc<'s>)>,
    binding: &mut Binding,
    sink: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    // Resolve every keyed scan's index once up front: the inner probe loop
    // (once per outer tuple of the join) then goes straight to the
    // postings, skipping the per-call column-set map lookup.
    let idx: Vec<Option<IndexRef<'s>>> = plan
        .steps
        .iter()
        .map(|step| match step {
            Step::Scan(sc) if !sc.index_cols.is_empty() => match delta {
                Some((di, DeltaSrc::Rel(d))) if di == sc.lit => d.index_ref(&sc.index_cols),
                // Id-list deltas are scanned, never bucket-probed.
                Some((di, DeltaSrc::Ids(_))) if di == sc.lit => None,
                _ => store.rel(sc.pred).index_ref(&sc.index_cols),
            },
            _ => None,
        })
        .collect();
    exec_steps(store, &plan.steps, 0, delta, &idx, binding, sink)
}

fn exec_steps<'s>(
    store: &'s Store<'s>,
    steps: &[Step],
    depth: usize,
    delta: Option<(usize, DeltaSrc<'s>)>,
    idx: &[Option<IndexRef<'s>>],
    binding: &mut Binding,
    sink: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    let Some(step) = steps.get(depth) else {
        return sink(binding);
    };
    match step {
        Step::Scan(sc) => {
            let dsrc = match delta {
                Some((di, d)) if di == sc.lit => Some(d),
                _ => None,
            };
            if sc.index_cols.is_empty() {
                match dsrc {
                    Some(DeltaSrc::Ids(ids)) => {
                        let rel = store.rel(sc.pred);
                        let tuples = ids.iter().map(|&id| rel.row(id));
                        scan_tuples(
                            store,
                            steps,
                            depth,
                            delta,
                            idx,
                            binding,
                            sink,
                            sc,
                            tuples,
                            &[],
                        )
                    }
                    Some(DeltaSrc::Rel(d)) => scan_tuples(
                        store,
                        steps,
                        depth,
                        delta,
                        idx,
                        binding,
                        sink,
                        sc,
                        d.iter(),
                        &[],
                    ),
                    None => {
                        let rel = store.rel(sc.pred);
                        scan_tuples(
                            store,
                            steps,
                            depth,
                            delta,
                            idx,
                            binding,
                            sink,
                            sc,
                            rel.iter(),
                            &[],
                        )
                    }
                }
            } else {
                // Resolve the key on the stack; keyed scans run once per
                // candidate tuple of the outer loops, so a heap allocation
                // here is measurable.
                let mut kbuf = [Const::Int(0); 8];
                let kvec: Vec<Const>;
                let key: &[Const] = if sc.key.len() <= kbuf.len() {
                    for (i, &s) in sc.key.iter().enumerate() {
                        kbuf[i] = resolve_src(s, binding);
                    }
                    &kbuf[..sc.key.len()]
                } else {
                    kvec = sc.key.iter().map(|&s| resolve_src(s, binding)).collect();
                    &kvec
                };
                match (dsrc, idx.get(depth).copied().flatten()) {
                    // The bucket iterator verifies the key columns itself.
                    (_, Some(ix)) => {
                        let bucket = ix.bucket(&sc.index_cols, key);
                        scan_tuples(
                            store,
                            steps,
                            depth,
                            delta,
                            idx,
                            binding,
                            sink,
                            sc,
                            bucket,
                            &[],
                        )
                    }
                    // Id-list delta: filtered scan over the staged rows,
                    // verifying the key columns per tuple.
                    (Some(DeltaSrc::Ids(ids)), None) => {
                        let rel = store.rel(sc.pred);
                        let tuples = ids.iter().map(|&id| rel.row(id));
                        scan_tuples(
                            store, steps, depth, delta, idx, binding, sink, sc, tuples, key,
                        )
                    }
                    // No index (delta / repair contexts): filtered scan.
                    (Some(DeltaSrc::Rel(d)), None) => scan_tuples(
                        store,
                        steps,
                        depth,
                        delta,
                        idx,
                        binding,
                        sink,
                        sc,
                        d.iter(),
                        key,
                    ),
                    (None, None) => {
                        let rel = store.rel(sc.pred);
                        scan_tuples(
                            store,
                            steps,
                            depth,
                            delta,
                            idx,
                            binding,
                            sink,
                            sc,
                            rel.iter(),
                            key,
                        )
                    }
                }
            }
        }
        Step::Neg { pred, args } => {
            let vals = args.iter().map(|&s| resolve_src(s, binding));
            if !store.rel(*pred).contains_vals(vals) {
                exec_steps(store, steps, depth + 1, delta, idx, binding, sink)
            } else {
                true
            }
        }
        Step::Cmp { op, l, r } => {
            if op.eval(resolve_src(*l, binding), resolve_src(*r, binding)) {
                exec_steps(store, steps, depth + 1, delta, idx, binding, sink)
            } else {
                true
            }
        }
    }
}

/// Drive one scan step over an iterator of candidate tuples. `verify_key`
/// lists `(column → expected constant)` pairs to re-check per tuple (empty
/// when the tuples come from a matching index bucket).
#[allow(clippy::too_many_arguments)]
fn scan_tuples<'a, 's>(
    store: &'s Store<'s>,
    steps: &[Step],
    depth: usize,
    delta: Option<(usize, DeltaSrc<'s>)>,
    idx: &[Option<IndexRef<'s>>],
    binding: &mut Binding,
    sink: &mut dyn FnMut(&Binding) -> bool,
    sc: &ScanStep,
    tuples: impl Iterator<Item = &'a Row>,
    verify_key: &[Const],
) -> bool {
    let mut scanned = 0u64;
    let mut keep = true;
    'tuples: for t in tuples {
        scanned += 1;
        if !verify_key.is_empty() {
            for (i, &c) in sc.index_cols.iter().enumerate() {
                if t.get(c) != verify_key[i] {
                    continue 'tuples;
                }
            }
        }
        for &(c, v) in sc.bind_cols.iter() {
            binding[v.index()] = Some(t.get(c));
        }
        let mut ok = true;
        for &(c, v) in sc.check_cols.iter() {
            if binding[v.index()] != Some(t.get(c)) {
                ok = false;
                break;
            }
        }
        let keep_going = if ok {
            exec_steps(store, steps, depth + 1, delta, idx, binding, sink)
        } else {
            true
        };
        for &(_, v) in sc.bind_cols.iter() {
            binding[v.index()] = None;
        }
        if !keep_going {
            keep = false;
            break;
        }
    }
    store.probes.set(store.probes.get() + scanned);
    keep
}

/// Instantiate a plan's head template under a complete binding.
pub(crate) fn instantiate_head(head: &[Src], binding: &Binding) -> Tuple {
    Tuple::from(
        head.iter()
            .map(|&s| resolve_src(s, binding))
            .collect::<Vec<_>>(),
    )
}

/// A derived fact staged for the round flush. Heads of arity ≤ 2 (the
/// overwhelmingly common case) stay inline, so such a derivation never
/// touches the allocator: a new fact is copied into its relation's tail
/// page, and a duplicate one, which dominates dense fixpoints, is dropped.
pub(crate) enum Staged {
    Inline(PredId, u8, [Const; 2]),
    Boxed(PredId, Tuple),
}

#[inline]
fn stage_head(pred: PredId, head: &[Src], binding: &Binding) -> Staged {
    if head.len() <= 2 {
        let mut arr = [Const::Int(0); 2];
        for (i, &s) in head.iter().enumerate() {
            arr[i] = resolve_src(s, binding);
        }
        Staged::Inline(pred, head.len() as u8, arr)
    } else {
        Staged::Boxed(pred, instantiate_head(head, binding))
    }
}

/// Publish one rule activation's derivation and probe counts into the
/// observability aggregator. No-op (one relaxed load) when collection is
/// off; the `format!` for the per-rule key only happens when it is on.
#[inline]
fn publish_rule_stats(db: &Database, head: PredId, ri: usize, derivations: u64, store: &Store) {
    if !gom_obs::enabled() {
        return;
    }
    gom_obs::counter_add("eval.probes", store.probes.get());
    gom_obs::counter_add(
        &format!("eval.rule.derivations:{}#{ri}", db.pred_name(head)),
        derivations,
    );
}

// ---------------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------------

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` over `items` in order, appending into one buffer.
///
/// A panic inside `f` is contained here and surfaces as
/// [`Error::EvalPanic`], so a panicking rule evaluation cannot take the
/// process (or an open evolution session) down with it.
pub(crate) fn map_contained<T, R, F>(items: &[T], f: F) -> Result<Vec<R>>
where
    F: Fn(&T, &mut Vec<R>),
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut buf = Vec::new();
    for it in items {
        catch_unwind(AssertUnwindSafe(|| f(it, &mut buf)))
            .map_err(|p| Error::EvalPanic(panic_message(p)))?;
    }
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

/// Merge a round's derived facts into `idb`/`delta`.
///
/// Probe-first: every derivation is checked against the membership table
/// (re-derivations of known facts — the bulk of the traffic on dense
/// inputs — cost one probe and nothing else), and only the genuinely new
/// facts are inserted, in derivation order. Work items run in a fixed
/// order, so insertion order — and thus all downstream iteration order —
/// depends only on the program and its facts. Each fact is hashed once;
/// the probe and the insert share it.
fn flush_round(facts: Vec<Staged>, idb: &mut [Relation], delta: &mut [Vec<u32>]) {
    // The membership probe is latency-bound: each duplicate hit touches
    // the slot line and then the stored row to verify equality. Hashing
    // the whole batch up front lets us issue each slot fetch a dozen
    // facts ahead of its probe, overlapping the misses.
    const LOOKAHEAD: usize = 12;
    let meta: Vec<(u32, u64)> = facts
        .iter()
        .map(|s| match s {
            Staged::Inline(p, len, arr) => {
                (p.index() as u32, Relation::fact_hash(&arr[..*len as usize]))
            }
            Staged::Boxed(p, t) => (p.index() as u32, Relation::fact_hash(t.as_slice())),
        })
        .collect();
    let total = meta.len() as u64;
    let mut fresh_count = 0u64;
    for (i, s) in facts.into_iter().enumerate() {
        if let Some(&(lp, lh)) = meta.get(i + LOOKAHEAD) {
            idb[lp as usize].prefetch_slot(lh);
        }
        let h = meta[i].1;
        let (p, fresh) = match s {
            Staged::Inline(p, len, arr) => (p, idb[p.index()].insert_vals(h, &arr[..len as usize])),
            Staged::Boxed(p, t) => (p, idb[p.index()].insert_vals(h, t.as_slice())),
        };
        if let Some(id) = fresh {
            fresh_count += 1;
            delta[p.index()].push(id);
        }
    }
    if gom_obs::enabled() {
        gom_obs::counter_add("eval.tuples.derived", fresh_count);
        gom_obs::counter_add("eval.tuples.deduped", total - fresh_count);
    }
}

/// Evaluate one stratum to fixpoint, semi-naively, executing compiled
/// plans. `plans` is parallel to `rules`.
fn eval_stratum(
    db: &Database,
    idb: &mut [Relation],
    rules: &[Rule],
    plans: &[RulePlans],
    rule_ixs: &[usize],
) -> Result<()> {
    let stratum_preds: FxHashSet<PredId> = rule_ixs.iter().map(|&i| rules[i].head.pred).collect();
    let mut delta: Vec<Vec<u32>> = vec![Vec::new(); idb.len()];
    // Round 0: full evaluation of every rule against the stratum input.
    let round0 = map_contained(rule_ixs, |&ri, buf| {
        if db.eval_failpoint() {
            panic!("injected evaluation failpoint");
        }
        let rp = &plans[ri];
        let store = Store::new(db, idb, None);
        let before = buf.len();
        let mut binding: Binding = vec![None; rp.full.var_count];
        exec_plan(&store, &rp.full, None, &mut binding, &mut |b| {
            buf.push(stage_head(rp.head_pred, &rp.head, b));
            true
        });
        publish_rule_stats(db, rp.head_pred, ri, (buf.len() - before) as u64, &store);
    })?;
    flush_round(round0, idb, &mut delta);
    let mut rounds = 1u64;
    // Semi-naive iteration: one work item per (rule, delta literal).
    loop {
        let work: Vec<(usize, usize)> = rule_ixs
            .iter()
            .flat_map(|&ri| {
                rules[ri]
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, lit)| {
                        matches!(lit, Literal::Pos(a)
                            if stratum_preds.contains(&a.pred)
                                && !delta[a.pred.index()].is_empty())
                    })
                    .map(move |(li, _)| (ri, li))
            })
            .collect();
        if work.is_empty() {
            break;
        }
        let round = map_contained(&work, |&(ri, li), buf| {
            let rp = &plans[ri];
            let Literal::Pos(atom) = &rules[ri].body[li] else {
                unreachable!("delta work items are positive literals");
            };
            let store = Store::new(db, idb, None);
            let before = buf.len();
            let plan = rp.delta_plan(li);
            let mut binding: Binding = vec![None; plan.var_count];
            exec_plan(
                &store,
                plan,
                Some((li, DeltaSrc::Ids(&delta[atom.pred.index()]))),
                &mut binding,
                &mut |b| {
                    buf.push(stage_head(rp.head_pred, &rp.head, b));
                    true
                },
            );
            publish_rule_stats(db, rp.head_pred, ri, (buf.len() - before) as u64, &store);
        })?;
        for p in &stratum_preds {
            delta[p.index()].clear();
        }
        flush_round(round, idb, &mut delta);
        rounds += 1;
    }
    gom_obs::counter_add("eval.rounds", rounds);
    Ok(())
}

/// Evaluate one stratum into `idb` (crate-internal entry point used by the
/// incremental checker).
pub(crate) fn eval_stratum_public(
    db: &Database,
    idb: &mut [Relation],
    compiled: &Compiled,
    rule_ixs: &[usize],
) -> Result<()> {
    eval_stratum(db, idb, &compiled.rules, &compiled.plans, rule_ixs)
}

/// Solve a body against the current EDB + a given IDB, with some variables
/// preset, returning up to `limit` full bindings. Crate-internal helper for
/// repair generation and provenance; compiles a one-off plan seeded with
/// the preset variables.
pub(crate) fn solve_body(
    db: &Database,
    idb: &[Relation],
    body: &[Literal],
    var_count: usize,
    preset: &[(Var, Const)],
    limit: usize,
) -> Vec<Binding> {
    let seed: Vec<Var> = preset.iter().map(|&(v, _)| v).collect();
    let plan = Plan::compile(body, var_count, None, &seed);
    let mut binding: Binding = vec![None; var_count];
    for &(v, c) in preset {
        binding[v.index()] = Some(c);
    }
    let store = Store::new(db, idb, None);
    let mut out: Vec<Binding> = Vec::new();
    exec_plan(&store, &plan, None, &mut binding, &mut |b| {
        out.push(b.clone());
        out.len() < limit
    });
    if gom_obs::enabled() {
        gom_obs::counter_add("repair.probes", store.probes.get());
    }
    out
}

pub(crate) fn instantiate(head: &Atom, binding: &Binding) -> Tuple {
    Tuple::from(
        head.args
            .iter()
            .map(|&t| resolve(t, binding).expect("safe rule: head fully bound"))
            .collect::<Vec<_>>(),
    )
}

/// Ensure every derived-predicate index demanded by the compiled plans
/// exists on `rels`. Base-predicate indexes are ensured separately on the
/// live EDB (or its snapshots) by the callers owning them mutably.
pub(crate) fn ensure_idb_indexes(db: &Database, compiled: &Compiled, rels: &mut [Relation]) {
    for (p, cols) in &compiled.index_masks {
        if !db.pred_decl(*p).is_base() {
            rels[p.index()].ensure_index(cols);
        }
    }
}

pub(crate) fn eval_program(
    db: &Database,
    compiled: &Compiled,
    size_hints: &[usize],
    spare: Option<Idb>,
) -> Result<Idb> {
    // Recycle the previously invalidated IDB when its shape still fits:
    // slot arrays, index maps, and row pages all carry over, so a
    // re-evaluation allocates almost nothing.
    let mut rels: Vec<Relation> = match spare {
        Some(mut old) if old.rels.len() == db.pred_count() => {
            for r in &mut old.rels {
                r.recycle();
            }
            old.rels
        }
        _ => vec![Relation::new(); db.pred_count()],
    };
    for (r, &n) in rels.iter_mut().zip(size_hints) {
        if n > 0 {
            r.reserve(n);
        }
    }
    ensure_idb_indexes(db, compiled, &mut rels);
    let _fix = gom_obs::span("eval.fixpoint");
    for (si, stratum) in compiled.strat.rule_strata.iter().enumerate() {
        let _sp =
            gom_obs::enabled().then(|| gom_obs::span_labeled("eval.stratum", &si.to_string()));
        eval_stratum(db, &mut rels, &compiled.rules, &compiled.plans, stratum)?;
    }
    Ok(Idb {
        rels,
        fingerprint: (db.pred_count(), compiled.rules.len()),
        maintained: false,
        key_counts: FxHashMap::default(),
    })
}

// ---------------------------------------------------------------------------
// Naive tuple-at-a-time interpreter
// ---------------------------------------------------------------------------
// Kept as the differential-test oracle and the `datalog_eval` benchmark
// ablation: no plans, no bucket fast path.

/// Match one rule body (already ordered) against the store, calling `sink`
/// for every complete binding.
fn match_body(
    store: &Store<'_>,
    body: &[Literal],
    order: &[usize],
    depth: usize,
    binding: &mut Binding,
    sink: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    if depth == order.len() {
        return sink(binding);
    }
    let li = order[depth];
    match &body[li] {
        Literal::Pos(atom) => {
            let rel = store.rel(atom.pred);
            let mut bound_cols: Vec<(usize, Const)> = Vec::new();
            for (j, &t) in atom.args.iter().enumerate() {
                if let Some(c) = resolve(t, binding) {
                    bound_cols.push((j, c));
                }
            }
            'tuples: for tuple in rel.select(&bound_cols) {
                let mut newly: Vec<Var> = Vec::new();
                for (j, &t) in atom.args.iter().enumerate() {
                    match t {
                        Term::Const(c) => {
                            if tuple.get(j) != c {
                                for v in newly.drain(..) {
                                    binding[v.index()] = None;
                                }
                                continue 'tuples;
                            }
                        }
                        Term::Var(v) => match binding[v.index()] {
                            Some(c) => {
                                if tuple.get(j) != c {
                                    for v in newly.drain(..) {
                                        binding[v.index()] = None;
                                    }
                                    continue 'tuples;
                                }
                            }
                            None => {
                                binding[v.index()] = Some(tuple.get(j));
                                newly.push(v);
                            }
                        },
                    }
                }
                let keep_going = match_body(store, body, order, depth + 1, binding, sink);
                for v in newly {
                    binding[v.index()] = None;
                }
                if !keep_going {
                    return false;
                }
            }
            true
        }
        Literal::Neg(atom) => {
            let ground: Vec<Const> = atom
                .args
                .iter()
                .map(|&t| resolve(t, binding).expect("safe rule: negation fully bound"))
                .collect();
            if !store.rel(atom.pred).contains(&Tuple::from(ground)) {
                match_body(store, body, order, depth + 1, binding, sink)
            } else {
                true
            }
        }
        Literal::Cmp(op, l, r) => {
            let a = resolve(*l, binding).expect("safe rule: comparison fully bound");
            let b = resolve(*r, binding).expect("safe rule: comparison fully bound");
            if op.eval(a, b) {
                match_body(store, body, order, depth + 1, binding, sink)
            } else {
                true
            }
        }
    }
}

/// Evaluate one stratum naively (re-deriving everything each round) with
/// the tuple-at-a-time interpreter.
fn eval_stratum_naive(db: &Database, idb: &mut [Relation], rules: &[Rule], rule_ixs: &[usize]) {
    loop {
        let mut new_facts: Vec<(PredId, Tuple)> = Vec::new();
        for &ri in rule_ixs {
            let rule = &rules[ri];
            let order = order_body(&rule.body, rule.var_count(), None, &[]);
            let mut binding: Binding = vec![None; rule.var_count()];
            let store = Store::new(db, idb, None);
            match_body(&store, &rule.body, &order, 0, &mut binding, &mut |b| {
                new_facts.push((rule.head.pred, instantiate(&rule.head, b)));
                true
            });
        }
        let mut changed = false;
        for (p, t) in new_facts {
            if idb[p.index()].insert(&t) {
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

impl Database {
    /// Ensure rules/constraints are compiled and the IDB is materialised.
    pub fn evaluate(&mut self) -> Result<()> {
        self.ensure_compiled()?;
        if self.idb.is_some() {
            return Ok(());
        }
        self.ensure_base_indexes();
        let compiled = self.compiled.take().expect("just compiled");
        let hints = std::mem::take(&mut self.idb_size_hints);
        let spare = self.spare_idb.take();
        let idb = eval_program(self, &compiled, &hints, spare);
        // Restore the compiled program before propagating any evaluation
        // error: a contained evaluation panic must leave the database usable
        // (base facts intact, open session still rollbackable) — only the
        // derived facts of the failed run are discarded.
        self.compiled = Some(compiled);
        let idb = idb?;
        self.idb_size_hints = idb.rels.iter().map(|r| r.len()).collect();
        self.idb = Some(idb);
        Ok(())
    }

    /// Sorted facts of a derived predicate computed by the naive
    /// tuple-at-a-time interpreter (no plans, no maintained indexes).
    /// Differential-test oracle; not cached.
    #[doc(hidden)]
    pub fn reference_facts(&mut self, pred: PredId) -> Result<Vec<Tuple>> {
        self.ensure_compiled()?;
        let compiled = self.compiled.take().expect("just compiled");
        let mut rels: Vec<Relation> = vec![Relation::new(); self.pred_count()];
        for stratum in &compiled.strat.rule_strata {
            eval_stratum_naive(self, &mut rels, &compiled.rules, stratum);
        }
        self.compiled = Some(compiled);
        Ok(rels[pred.index()].sorted())
    }

    /// Sorted facts of a derived predicate (materialising if necessary).
    pub fn derived_facts(&mut self, pred: PredId) -> Result<Vec<Tuple>> {
        self.evaluate()?;
        Ok(self.idb.as_ref().expect("evaluated").rels[pred.index()].sorted())
    }

    /// Does the (possibly derived) predicate contain this fact?
    pub fn holds(&mut self, pred: PredId, tuple: &Row) -> Result<bool> {
        if self.pred_decl(pred).is_base() {
            return Ok(self.contains(pred, tuple));
        }
        self.evaluate()?;
        Ok(self.idb.as_ref().expect("evaluated").rels[pred.index()].contains(tuple))
    }

    /// Evaluate an ad-hoc conjunctive query: return every binding of `out`
    /// that satisfies all `body` literals, sorted and deduplicated (by the
    /// sort, not through a hash set).
    ///
    /// The body must be range-restricted: every variable in `out`, in a
    /// negation, or in a comparison must occur in a positive literal. The
    /// body is compiled to a plan and any indexes it wants are built (and
    /// from then on maintained) before execution.
    pub fn query(&mut self, body: &[Literal], out: &[Var]) -> Result<Vec<Tuple>> {
        // Safety check.
        let mut positive: FxHashSet<Var> = FxHashSet::default();
        for lit in body {
            if let Literal::Pos(a) = lit {
                positive.extend(a.vars());
            }
        }
        let check = |v: Var| -> Result<()> {
            if positive.contains(&v) {
                Ok(())
            } else {
                Err(Error::UnsafeRule {
                    rule: "<query>".into(),
                    var: format!("#{}", v.0),
                })
            }
        };
        for &v in out {
            check(v)?;
        }
        for lit in body {
            match lit {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    for v in a.vars() {
                        check(v)?;
                    }
                }
                Literal::Cmp(_, l, r) => {
                    for v in [l.as_var(), r.as_var()].into_iter().flatten() {
                        check(v)?;
                    }
                }
            }
        }
        // A body over base predicates only never reads the IDB, so it is
        // answered without compiling or evaluating the program.
        let base_only = body.iter().all(|lit| match lit {
            Literal::Pos(a) | Literal::Neg(a) => self.pred_decl(a.pred).is_base(),
            Literal::Cmp(..) => true,
        });
        if !base_only {
            self.evaluate()?;
        }
        let var_count = body
            .iter()
            .flat_map(|l| l.vars())
            .chain(out.iter().copied())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let plan = Plan::compile(body, var_count, None, &[]);
        // Build the indexes the query plan wants; they stay maintained.
        let mut idb = self.idb.take();
        for (p, cols) in plan.masks() {
            match &mut idb {
                Some(idb) if !self.pred_decl(p).is_base() => {
                    idb.rels[p.index()].ensure_index(cols);
                }
                _ => self.rels[p.index()].ensure_index(cols),
            }
        }
        if base_only {
            // Evaluation would have synced these; a snapshot share starts
            // with stale membership tables.
            for lit in body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    self.rels[a.pred.index()].ensure_table();
                }
            }
        }
        let mut binding: Binding = vec![None; var_count];
        let idb_rels = idb.as_ref().map_or(&[][..], |idb| &idb.rels[..]);
        let store = Store::new(self, idb_rels, None);
        // Matches go into a plain Vec and are deduplicated by sorting. A
        // projection that repeats rows is compacted whenever the Vec has
        // doubled since the last compaction, so it never holds more than
        // about twice the distinct rows.
        let mut results: Vec<Tuple> = Vec::new();
        let mut compact_at = QUERY_COMPACT_MIN;
        let _sp = gom_obs::span("eval.query");
        exec_plan(&store, &plan, None, &mut binding, &mut |b| {
            results.push(Tuple::from(
                out.iter()
                    .map(|v| b[v.index()].expect("out var bound"))
                    .collect::<Vec<_>>(),
            ));
            if results.len() >= compact_at {
                results.sort_unstable();
                results.dedup();
                compact_at = (2 * results.len()).max(QUERY_COMPACT_MIN);
            }
            true
        });
        if gom_obs::enabled() {
            gom_obs::counter_add("eval.probes", store.probes.get());
        }
        drop(_sp);
        self.idb = idb;
        results.sort_unstable();
        results.dedup();
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    fn setup_path() -> (Database, PredId, PredId) {
        let mut db = Database::new();
        let edge = db.declare_base("Edge", 2).unwrap();
        let path = db.declare_derived("Path", 2).unwrap();
        let v = |n: u32| Term::Var(Var(n));
        db.add_rule(Rule::new(
            Atom::new(path, vec![v(0), v(1)]),
            vec![Literal::Pos(Atom::new(edge, vec![v(0), v(1)]))],
        ))
        .unwrap();
        db.add_rule(Rule::new(
            Atom::new(path, vec![v(0), v(2)]),
            vec![
                Literal::Pos(Atom::new(edge, vec![v(0), v(1)])),
                Literal::Pos(Atom::new(path, vec![v(1), v(2)])),
            ],
        ))
        .unwrap();
        (db, edge, path)
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from(vec![Const::Int(a), Const::Int(b)])
    }

    #[test]
    fn transitive_closure_of_chain() {
        let (mut db, edge, path) = setup_path();
        for i in 0..5 {
            db.insert(edge, t2(i, i + 1)).unwrap();
        }
        let facts = db.derived_facts(path).unwrap();
        // chain of 6 nodes: 5+4+3+2+1 = 15 paths
        assert_eq!(facts.len(), 15);
        assert!(facts.contains(&t2(0, 5)));
        assert!(!facts.contains(&t2(5, 0)));
    }

    #[test]
    fn cycle_closure_terminates() {
        let (mut db, edge, path) = setup_path();
        db.insert(edge, t2(0, 1)).unwrap();
        db.insert(edge, t2(1, 2)).unwrap();
        db.insert(edge, t2(2, 0)).unwrap();
        let facts = db.derived_facts(path).unwrap();
        assert_eq!(facts.len(), 9); // complete on 3 nodes
        assert!(facts.contains(&t2(0, 0)));
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let (mut db, edge, path) = setup_path();
        for i in 0..8 {
            db.insert(edge, t2(i, i + 1)).unwrap();
        }
        db.insert(edge, t2(3, 0)).unwrap();
        let semi = db.derived_facts(path).unwrap();
        assert_eq!(semi, db.reference_facts(path).unwrap());
    }

    #[test]
    fn negation_across_strata() {
        let mut db = Database::new();
        let node = db.declare_base("Node", 1).unwrap();
        let edge = db.declare_base("Edge", 2).unwrap();
        let covered = db.declare_derived("Covered", 1).unwrap();
        let isolated = db.declare_derived("Isolated", 1).unwrap();
        let v = |n: u32| Term::Var(Var(n));
        db.add_rule(Rule::new(
            Atom::new(covered, vec![v(0)]),
            vec![Literal::Pos(Atom::new(edge, vec![v(0), v(1)]))],
        ))
        .unwrap();
        db.add_rule(Rule::new(
            Atom::new(isolated, vec![v(0)]),
            vec![
                Literal::Pos(Atom::new(node, vec![v(0)])),
                Literal::Neg(Atom::new(covered, vec![v(0)])),
            ],
        ))
        .unwrap();
        let one = Tuple::from(vec![Const::Int(1)]);
        let two = Tuple::from(vec![Const::Int(2)]);
        db.insert(node, one.clone()).unwrap();
        db.insert(node, two.clone()).unwrap();
        db.insert(edge, t2(1, 9)).unwrap();
        let iso = db.derived_facts(isolated).unwrap();
        assert_eq!(iso, vec![two]);
    }

    #[test]
    fn query_with_comparison() {
        let (mut db, edge, path) = setup_path();
        for i in 0..4 {
            db.insert(edge, t2(i, i + 1)).unwrap();
        }
        // ?- Path(X, Y), X >= 2.
        let v = |n: u32| Term::Var(Var(n));
        let body = vec![
            Literal::Pos(Atom::new(path, vec![v(0), v(1)])),
            Literal::Cmp(CmpOp::Ge, v(0), Term::Const(Const::Int(2))),
        ];
        let res = db.query(&body, &[Var(0), Var(1)]).unwrap();
        assert_eq!(res, vec![t2(2, 3), t2(2, 4), t2(3, 4)]);
    }

    #[test]
    fn query_projection_dedups_to_the_btreeset_oracle() {
        // Projecting Edge(X, Y) onto X repeats every key; so does the
        // product Edge(X, Y), Edge(Z, W) projected onto (X, Z), whose
        // matches outnumber the compaction threshold several times. The
        // answer must be the distinct rows, sorted.
        let (mut db, edge, _) = setup_path();
        let (facts, keys) = (600, 23);
        let mut firsts = std::collections::BTreeSet::new();
        for i in 0..facts {
            let key = (i * 31) % keys - keys / 2;
            db.insert(edge, t2(key, i)).unwrap();
            firsts.insert(key);
        }
        let v = |n: u32| Term::Var(Var(n));
        let e = |a: u32, b: u32| Literal::Pos(Atom::new(edge, vec![v(a), v(b)]));
        let res = db.query(&[e(0, 1)], &[Var(0)]).unwrap();
        let oracle: Vec<Tuple> = firsts
            .iter()
            .map(|&k| Tuple::from(vec![Const::Int(k)]))
            .collect();
        assert_eq!(res, oracle);
        assert!((facts * facts) as usize > 4 * QUERY_COMPACT_MIN);
        let res = db.query(&[e(0, 1), e(2, 3)], &[Var(0), Var(2)]).unwrap();
        let oracle: std::collections::BTreeSet<Tuple> = firsts
            .iter()
            .flat_map(|&a| firsts.iter().map(move |&b| t2(a, b)))
            .collect();
        assert_eq!(res, oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn query_rejects_unsafe_out_var() {
        let (mut db, _, path) = setup_path();
        let v = |n: u32| Term::Var(Var(n));
        let body = vec![Literal::Pos(Atom::new(path, vec![v(0), v(1)]))];
        assert!(db.query(&body, &[Var(5)]).is_err());
    }

    #[test]
    fn idb_invalidated_by_fact_change() {
        let (mut db, edge, path) = setup_path();
        db.insert(edge, t2(0, 1)).unwrap();
        assert_eq!(db.derived_facts(path).unwrap().len(), 1);
        db.insert(edge, t2(1, 2)).unwrap();
        assert_eq!(db.derived_facts(path).unwrap().len(), 3);
        db.remove(edge, &t2(1, 2)).unwrap();
        assert_eq!(db.derived_facts(path).unwrap().len(), 1);
    }

    #[test]
    fn repeated_variable_in_atom_unifies() {
        let mut db = Database::new();
        let p = db.declare_base("P", 2).unwrap();
        let diag = db.declare_derived("Diag", 1).unwrap();
        let v = |n: u32| Term::Var(Var(n));
        db.add_rule(Rule::new(
            Atom::new(diag, vec![v(0)]),
            vec![Literal::Pos(Atom::new(p, vec![v(0), v(0)]))],
        ))
        .unwrap();
        db.insert(p, t2(1, 1)).unwrap();
        db.insert(p, t2(1, 2)).unwrap();
        let facts = db.derived_facts(diag).unwrap();
        assert_eq!(facts, vec![Tuple::from(vec![Const::Int(1)])]);
    }
}
