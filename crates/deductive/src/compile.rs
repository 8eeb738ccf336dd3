//! Compilation of declarative constraints into violation rules.
//!
//! This is the paper's "compilation of consistency constraints" step (ref
//! [20]): every constraint of the normal form
//!
//! ```text
//! forall X̄ :  premise(X̄)  ->  conclusion(X̄)
//! ```
//!
//! is translated into stratified Datalog rules defining a *violation
//! predicate* `__viol_<name>(X̄)` whose extension is exactly the set of
//! witnesses falsifying the constraint. Sub-formulas with quantifier
//! alternation (nested `forall`/`exists`, disjunction, negation) become
//! auxiliary predicates guarded by a *context predicate* carrying the
//! bindings reaching that point — a guarded Lloyd–Topor transformation that
//! keeps every generated rule range-restricted.
//!
//! In general the premise is materialised once, as the context
//! `__ctx(X̄) :- premise`, and the violations are the context bindings the
//! conclusion does not hold for:
//!
//! ```text
//! __hold(X̄) :- __ctx(X̄), conclusion.      __viol(X̄) :- __ctx(X̄), not __hold(X̄).
//! ```
//!
//! Two common shapes need no copy of the premise:
//!
//! * **comparison conclusion** — a key-style constraint whose conclusion is
//!   one comparison over witness variables (or `false`) compiles to the one
//!   rule `__viol(X̄) :- premise, ¬cmp`: no context, no hold;
//! * **single-atom premise** — a premise that is one positive atom over
//!   witness variables only (constants and repeated variables allowed) is
//!   itself the guard of `__hold`, `__viol` and every nested auxiliary. An
//!   atom with a premise-local existential variable still gets a context:
//!   as a guard it would bind that variable inside the conclusion, which
//!   may reuse it.
//!
//! Either way the violation predicate holds the same witnesses, and the
//! maintained IDB holds no relation that only repeats the premise.

use crate::ast::{Atom, CmpOp, Literal, Rule, Term, Var};
use crate::constraint::{Constraint, Formula};
use crate::db::Database;
use crate::error::{Error, Result};
use crate::plan::RulePlans;
use crate::pred::{PredId, PredKind};
use crate::stratify::{stratify, DepGraph, Stratification};
use crate::symbol::{FxHashMap, FxHashSet};

/// A fully compiled program: user rules plus constraint-generated rules,
/// stratified, with per-constraint metadata and precomputed join plans.
pub(crate) struct Compiled {
    /// All rules (user rules first, then constraint auxiliaries).
    pub rules: Vec<Rule>,
    /// Execution plans, parallel to `rules`: literal order, bound-column
    /// masks, and head templates resolved once, per semi-naive delta
    /// position (see [`crate::plan`]).
    pub plans: Vec<RulePlans>,
    /// Stratification of `rules`.
    pub strat: Stratification,
    /// Rule indices by head predicate.
    pub rules_by_head: FxHashMap<PredId, Vec<usize>>,
    /// The trigger index: per predicate (indexed by `PredId`), every body
    /// literal that reads it, ordered by stratum, rule and literal. DRed
    /// joins a change only through these reads (see [`Compiled::reads`]).
    pub triggers: Vec<Vec<Trigger>>,
    /// Head predicates of each stratum (sorted), parallel to
    /// `strat.rule_strata`.
    pub stratum_heads: Vec<Vec<PredId>>,
    /// Compiled constraints, parallel to `Database::constraints`.
    pub constraints: Vec<CompiledConstraint>,
    /// Every `(predicate, sorted bound columns)` an execution plan scans
    /// with; the evaluator builds these indexes up front so plan execution
    /// always hits ready buckets.
    pub index_masks: Vec<(PredId, Box<[usize]>)>,
}

/// One body literal, listed in [`Compiled::triggers`] under the predicate
/// it reads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Trigger {
    /// Stratum of the reading rule.
    pub stratum: usize,
    /// The reading rule (index into [`Compiled::rules`]).
    pub rule: usize,
    /// Position of the literal in the rule body.
    pub lit: usize,
    /// The literal is negated.
    pub neg: bool,
    /// A positive read of a head of the rule's own stratum: DRed follows
    /// it from that stratum's own frontier, while every other read is
    /// seeded by the net change of a base predicate or a lower stratum.
    pub internal: bool,
}

impl Compiled {
    /// The reads of `p` by the rules of stratum `s`, in rule and literal
    /// order. Empty for a predicate declared after compilation.
    pub(crate) fn reads(&self, p: PredId, s: usize) -> &[Trigger] {
        let Some(all) = self.triggers.get(p.index()) else {
            return &[];
        };
        let lo = all.partition_point(|t| t.stratum < s);
        let hi = all.partition_point(|t| t.stratum <= s);
        &all[lo..hi]
    }
}

/// Build [`Compiled::triggers`] and [`Compiled::stratum_heads`].
fn trigger_index(
    pred_count: usize,
    rules: &[Rule],
    strat: &Stratification,
) -> (Vec<Vec<Trigger>>, Vec<Vec<PredId>>) {
    let mut triggers: Vec<Vec<Trigger>> = vec![Vec::new(); pred_count];
    let mut stratum_heads = Vec::with_capacity(strat.rule_strata.len());
    for (stratum, rule_ixs) in strat.rule_strata.iter().enumerate() {
        let mut heads: Vec<PredId> = rule_ixs.iter().map(|&ri| rules[ri].head.pred).collect();
        heads.sort_unstable();
        heads.dedup();
        for &rule in rule_ixs {
            for (lit, l) in rules[rule].body.iter().enumerate() {
                let (a, neg) = match l {
                    Literal::Pos(a) => (a, false),
                    Literal::Neg(a) => (a, true),
                    Literal::Cmp(..) => continue,
                };
                triggers[a.pred.index()].push(Trigger {
                    stratum,
                    rule,
                    lit,
                    neg,
                    internal: !neg && heads.binary_search(&a.pred).is_ok(),
                });
            }
        }
        stratum_heads.push(heads);
    }
    (triggers, stratum_heads)
}

/// Compiled form of one constraint.
#[derive(Clone, Debug)]
pub(crate) struct CompiledConstraint {
    /// Index into `Database::constraints`.
    pub source_idx: usize,
    /// The violation predicate; one fact per witness.
    pub viol: PredId,
    /// Outer universally quantified variables, in declaration order.
    pub outer_vars: Vec<Var>,
    /// Lowered premise literals (over `outer_vars` plus locals).
    pub premise: Vec<Literal>,
    /// Normalised conclusion (existentials pushed through disjunction).
    pub conclusion: Formula,
    /// Base predicates the violation predicate transitively depends on.
    pub deps: FxHashSet<PredId>,
}

/// A read-only view of the fully compiled program, for static analysis.
///
/// Exposes the complete rule set after constraint compilation (user rules
/// first, then the generated violation/auxiliary rules) together with each
/// constraint's violation predicate, so analyzers can measure properties of
/// the rules a constraint actually executes as.
pub struct ProgramView<'a> {
    /// All rules: indices `0..user_rule_count` are the user rules, the rest
    /// are constraint-generated.
    pub rules: &'a [Rule],
    /// Number of user rules at the front of `rules`.
    pub user_rule_count: usize,
    /// `(source constraint index, violation predicate)` per compiled
    /// constraint.
    pub constraint_viols: Vec<(usize, PredId)>,
}

/// The literal used for `false` in rule bodies: a comparison that never
/// holds.
pub(crate) fn false_lit() -> Literal {
    Literal::Cmp(
        CmpOp::Eq,
        Term::Const(crate::value::Const::Int(0)),
        Term::Const(crate::value::Const::Int(1)),
    )
}

/// Context: a guard predicate whose extension is the set of variable
/// bindings flowing into the sub-formula being compiled.
#[derive(Clone)]
struct Ctx {
    atom: Atom,
    vars: Vec<Var>,
}

struct Compiler<'a> {
    db: &'a mut Database,
    rules: &'a mut Vec<Rule>,
    cname: String,
    auxn: usize,
}

impl<'a> Compiler<'a> {
    fn bad(&self, msg: impl Into<String>) -> Error {
        Error::BadConstraint {
            name: self.cname.clone(),
            msg: msg.into(),
        }
    }

    fn declare_aux(&mut self, kind: &str, arity: usize) -> PredId {
        let name = format!("__{kind}{}_{}", self.auxn, self.cname);
        self.auxn += 1;
        self.db
            .declare_raw(&name, arity, PredKind::Derived)
            .expect("aux predicate names are unique")
    }

    /// Lower a premise formula to a flat literal list. Premises must be
    /// conjunctions of (possibly negated) atoms and comparisons;
    /// existentials flatten away.
    fn lower_premise(&self, f: &Formula) -> Result<Vec<Literal>> {
        let mut out = Vec::new();
        self.lower_premise_into(f, &mut out)?;
        Ok(out)
    }

    fn lower_premise_into(&self, f: &Formula, out: &mut Vec<Literal>) -> Result<()> {
        match f {
            Formula::True => Ok(()),
            Formula::Atom(a) => {
                out.push(Literal::Pos(a.clone()));
                Ok(())
            }
            Formula::Cmp(op, l, r) => {
                out.push(Literal::Cmp(*op, *l, *r));
                Ok(())
            }
            Formula::And(fs) => {
                for g in fs {
                    self.lower_premise_into(g, out)?;
                }
                Ok(())
            }
            Formula::Exists(_, g) => self.lower_premise_into(g, out),
            Formula::Not(g) => match g.as_ref() {
                Formula::Atom(a) => {
                    out.push(Literal::Neg(a.clone()));
                    Ok(())
                }
                Formula::Cmp(op, l, r) => {
                    out.push(Literal::Cmp(op.negate(), *l, *r));
                    Ok(())
                }
                _ => Err(self.bad("premise may negate only atoms and comparisons")),
            },
            _ => Err(self.bad(
                "premise must be a conjunction of literals (no disjunction or quantifier alternation)",
            )),
        }
    }

    /// Variables bound by the positive literals of a body.
    fn positives(lits: &[Literal]) -> FxHashSet<Var> {
        let mut s = FxHashSet::default();
        for lit in lits {
            if let Literal::Pos(a) = lit {
                s.extend(a.vars());
            }
        }
        s
    }

    fn sorted_vars(set: &FxHashSet<Var>) -> Vec<Var> {
        let mut v: Vec<Var> = set.iter().copied().collect();
        v.sort();
        v
    }

    fn terms(vars: &[Var]) -> Vec<Term> {
        vars.iter().copied().map(Term::Var).collect()
    }

    /// Can `f` be flattened directly into a rule body?
    fn is_inline(f: &Formula) -> bool {
        match f {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Cmp(..) => true,
            Formula::And(fs) => fs.iter().all(Self::is_inline),
            Formula::Exists(_, g) => Self::is_inline(g),
            _ => false,
        }
    }

    fn flatten_inline(f: &Formula, out: &mut Vec<Literal>) {
        match f {
            Formula::True => {}
            Formula::False => out.push(false_lit()),
            Formula::Atom(a) => out.push(Literal::Pos(a.clone())),
            Formula::Cmp(op, l, r) => out.push(Literal::Cmp(*op, *l, *r)),
            Formula::And(fs) => {
                for g in fs {
                    Self::flatten_inline(g, out);
                }
            }
            Formula::Exists(_, g) => Self::flatten_inline(g, out),
            _ => unreachable!("flatten_inline called on non-inline formula"),
        }
    }

    /// Compile `f` into literals that hold exactly when `f` is true under
    /// bindings supplied by `ctx`. May emit auxiliary predicates and rules.
    fn compile_holds(&mut self, f: &Formula, ctx: &Ctx) -> Result<Vec<Literal>> {
        if Self::is_inline(f) {
            let mut out = Vec::new();
            Self::flatten_inline(f, &mut out);
            return Ok(out);
        }
        match f {
            Formula::And(fs) => self.compile_and(fs, ctx),
            Formula::Or(fs) => self.compile_or(f, fs, ctx),
            Formula::Not(g) => self.compile_not(g, ctx),
            Formula::Implies(p, q) => {
                let rewritten = Formula::or(vec![Formula::Not(p.clone()), q.as_ref().clone()]);
                self.compile_holds(&rewritten, ctx)
            }
            Formula::Exists(_, g) => self.compile_holds(g, ctx),
            Formula::Forall(vs, inner) => self.compile_forall(f, vs, inner, ctx),
            _ => unreachable!("inline formulas handled above"),
        }
    }

    fn compile_and(&mut self, fs: &[Formula], ctx: &Ctx) -> Result<Vec<Literal>> {
        let mut inline = Vec::new();
        let mut complex: Vec<&Formula> = Vec::new();
        for g in fs {
            if Self::is_inline(g) {
                Self::flatten_inline(g, &mut inline);
            } else {
                complex.push(g);
            }
        }
        debug_assert!(!complex.is_empty(), "pure-inline And handled earlier");
        // Vars available to the complex conjuncts: the context plus everything
        // positively bound by the inline part.
        let mut bound: FxHashSet<Var> = ctx.vars.iter().copied().collect();
        bound.extend(Self::positives(&inline));
        let mut needed: FxHashSet<Var> = FxHashSet::default();
        for g in &complex {
            for v in g.free_vars() {
                if !bound.contains(&v) {
                    return Err(self.bad(format!(
                        "conclusion sub-formula references variable #{} not bound by any \
                         enclosing positive literal",
                        v.0
                    )));
                }
                needed.insert(v);
            }
        }
        let needs_ext = needed.iter().any(|v| !ctx.vars.contains(v));
        let ctx2 = if needs_ext {
            let mut ext = ctx.vars.clone();
            for v in Self::sorted_vars(&needed) {
                if !ext.contains(&v) {
                    ext.push(v);
                }
            }
            let p = self.declare_aux("ctx", ext.len());
            let atom = Atom::new(p, Self::terms(&ext));
            let mut body = vec![Literal::Pos(ctx.atom.clone())];
            body.extend(inline.iter().cloned());
            self.rules.push(Rule::new(atom.clone(), body));
            Ctx { atom, vars: ext }
        } else {
            ctx.clone()
        };
        let mut out = inline;
        for g in complex {
            out.extend(self.compile_holds(g, &ctx2)?);
        }
        Ok(out)
    }

    fn compile_or(&mut self, whole: &Formula, fs: &[Formula], ctx: &Ctx) -> Result<Vec<Literal>> {
        let free = whole.free_vars();
        for v in &free {
            if !ctx.vars.contains(v) {
                return Err(self.bad(format!(
                    "disjunction references variable #{} not carried by its context",
                    v.0
                )));
            }
        }
        let shared = Self::sorted_vars(&free);
        let p = self.declare_aux("or", shared.len());
        let head = Atom::new(p, Self::terms(&shared));
        for branch in fs {
            let lits = self.compile_holds(branch, ctx)?;
            let mut body = vec![Literal::Pos(ctx.atom.clone())];
            body.extend(lits);
            self.rules.push(Rule::new(head.clone(), body));
        }
        Ok(vec![Literal::Pos(head)])
    }

    fn compile_not(&mut self, g: &Formula, ctx: &Ctx) -> Result<Vec<Literal>> {
        // Simple case: negation of a single atom over context vars.
        if let Formula::Atom(a) = g {
            if a.vars().all(|v| ctx.vars.contains(&v)) {
                return Ok(vec![Literal::Neg(a.clone())]);
            }
        }
        if let Formula::Cmp(op, l, r) = g {
            return Ok(vec![Literal::Cmp(op.negate(), *l, *r)]);
        }
        let free = g.free_vars();
        for v in &free {
            if !ctx.vars.contains(v) {
                return Err(self.bad(format!(
                    "negated sub-formula references variable #{} not carried by its context",
                    v.0
                )));
            }
        }
        let shared = Self::sorted_vars(&free);
        let p = self.declare_aux("not", shared.len());
        let head = Atom::new(p, Self::terms(&shared));
        let lits = self.compile_holds(g, ctx)?;
        let mut body = vec![Literal::Pos(ctx.atom.clone())];
        body.extend(lits);
        self.rules.push(Rule::new(head.clone(), body));
        Ok(vec![Literal::Neg(head)])
    }

    fn compile_forall(
        &mut self,
        whole: &Formula,
        vs: &[Var],
        inner: &Formula,
        ctx: &Ctx,
    ) -> Result<Vec<Literal>> {
        let (p2, c2): (&Formula, Formula) = match inner {
            Formula::Implies(p, c) => (p.as_ref(), c.as_ref().clone()),
            Formula::Not(g) => (g.as_ref(), Formula::False),
            _ => {
                return Err(self
                    .bad("nested `forall` must have the form `forall vs: premise -> conclusion`"))
            }
        };
        let p2lits = self.lower_premise(p2)?;
        let bound = Self::positives(&p2lits);
        for v in vs {
            if !bound.contains(v) && !ctx.vars.contains(v) {
                return Err(self.bad(format!(
                    "nested `forall` variable #{} is not bound by its premise",
                    v.0
                )));
            }
        }
        let free = whole.free_vars();
        for v in &free {
            if !ctx.vars.contains(v) {
                return Err(self.bad(format!(
                    "nested `forall` references variable #{} not carried by its context",
                    v.0
                )));
            }
        }
        let shared = Self::sorted_vars(&free);
        // Extended context: outer vars plus the newly quantified ones.
        let mut ext = ctx.vars.clone();
        for &v in vs {
            if !ext.contains(&v) {
                ext.push(v);
            }
        }
        let ctx2_pred = self.declare_aux("ctx", ext.len());
        let ctx2_atom = Atom::new(ctx2_pred, Self::terms(&ext));
        let mut body = vec![Literal::Pos(ctx.atom.clone())];
        body.extend(p2lits);
        self.rules.push(Rule::new(ctx2_atom.clone(), body));
        let ctx2 = Ctx {
            atom: ctx2_atom.clone(),
            vars: ext.clone(),
        };

        let vio_pred = self.declare_aux("vio", shared.len());
        let vio_atom = Atom::new(vio_pred, Self::terms(&shared));
        if c2 == Formula::False {
            self.rules
                .push(Rule::new(vio_atom.clone(), vec![Literal::Pos(ctx2_atom)]));
        } else {
            let c2n = c2.push_exists();
            let inner_lits = self.compile_holds(&c2n, &ctx2)?;
            let h_pred = self.declare_aux("hold", ext.len());
            let h_atom = Atom::new(h_pred, Self::terms(&ext));
            let mut hbody = vec![Literal::Pos(ctx2_atom.clone())];
            hbody.extend(inner_lits);
            self.rules.push(Rule::new(h_atom.clone(), hbody));
            self.rules.push(Rule::new(
                vio_atom.clone(),
                vec![Literal::Pos(ctx2_atom), Literal::Neg(h_atom)],
            ));
        }
        Ok(vec![Literal::Neg(vio_atom)])
    }
}

/// Compile one constraint, appending rules and returning its metadata.
fn compile_constraint(
    db: &mut Database,
    rules: &mut Vec<Rule>,
    source_idx: usize,
    c: &Constraint,
) -> Result<CompiledConstraint> {
    let mut compiler = Compiler {
        db,
        rules,
        cname: c.name.clone(),
        auxn: 0,
    };
    // Strip leading universal quantifiers.
    let mut outer_vars: Vec<Var> = Vec::new();
    let mut f = c.formula.clone();
    while let Formula::Forall(vs, inner) = f {
        outer_vars.extend(vs);
        f = *inner;
    }
    let (premise_f, conclusion) = match f {
        Formula::Implies(p, q) => (*p, *q),
        Formula::Not(g) => (*g, Formula::False),
        other => {
            return Err(compiler.bad(format!(
                "constraint must be `forall vars: premise -> conclusion` or `forall vars: !phi`, \
                 got {other:?}"
            )))
        }
    };
    let premise = compiler.lower_premise(&premise_f)?;
    // Witness vars: outer vars actually used; all must be bound by the
    // premise's positive literals.
    let bound = Compiler::positives(&premise);
    let used: FxHashSet<Var> = {
        let mut s = premise_f.free_vars();
        s.extend(conclusion.free_vars());
        s
    };
    let outer_vars: Vec<Var> = outer_vars
        .into_iter()
        .filter(|v| used.contains(v))
        .collect();
    for v in &outer_vars {
        if !bound.contains(v) {
            return Err(compiler.bad(format!(
                "universally quantified variable `{}` is not bound by a positive premise literal \
                 (constraint is not range-restricted)",
                c.var_name(*v)
            )));
        }
    }

    let conclusion = conclusion.push_exists();
    let viol_pred = compiler.declare_aux("viol", outer_vars.len());
    let viol_atom = Atom::new(viol_pred, Compiler::terms(&outer_vars));
    if let Some(refute) = refuting_literals(&conclusion, &outer_vars) {
        // A comparison (or `false`) conclusion over witness variables:
        // `viol(X̄) :- premise, ¬cmp` reads the premise directly.
        let mut body = premise.clone();
        body.extend(refute);
        compiler.rules.push(Rule::new(viol_atom, body));
    } else {
        // A single positive atom over witness variables only is its own
        // context guard. An atom with a premise-local variable is not: as a
        // guard it would bind that variable inside the conclusion.
        let atom = match premise.as_slice() {
            [Literal::Pos(a)] if a.vars().all(|v| outer_vars.contains(&v)) => a.clone(),
            _ => {
                let ctx_pred = compiler.declare_aux("ctx", outer_vars.len());
                let atom = Atom::new(ctx_pred, Compiler::terms(&outer_vars));
                compiler
                    .rules
                    .push(Rule::new(atom.clone(), premise.clone()));
                atom
            }
        };
        let ctx = Ctx {
            atom,
            vars: outer_vars.clone(),
        };
        let c_lits = compiler.compile_holds(&conclusion, &ctx)?;
        let h_pred = compiler.declare_aux("hold", outer_vars.len());
        let h_atom = Atom::new(h_pred, Compiler::terms(&outer_vars));
        let mut hbody = vec![Literal::Pos(ctx.atom.clone())];
        hbody.extend(c_lits);
        compiler.rules.push(Rule::new(h_atom.clone(), hbody));
        compiler.rules.push(Rule::new(
            viol_atom,
            vec![Literal::Pos(ctx.atom), Literal::Neg(h_atom)],
        ));
    }

    Ok(CompiledConstraint {
        source_idx,
        viol: viol_pred,
        outer_vars,
        premise,
        conclusion,
        deps: FxHashSet::default(), // filled in by `ensure_compiled`
    })
}

/// The literals refuting a conclusion that is `false` or one comparison
/// over witness variables: nothing for `false`, the negated comparison
/// otherwise. `None` for every other conclusion.
fn refuting_literals(conclusion: &Formula, outer_vars: &[Var]) -> Option<Vec<Literal>> {
    match conclusion {
        Formula::False => Some(Vec::new()),
        Formula::Cmp(op, l, r)
            if [l, r]
                .iter()
                .filter_map(|t| t.as_var())
                .all(|v| outer_vars.contains(&v)) =>
        {
            Some(vec![Literal::Cmp(op.negate(), *l, *r)])
        }
        _ => None,
    }
}

/// Base predicates reachable from `start` through the rule graph.
fn base_dependencies(
    db: &Database,
    start: PredId,
    rules: &[Rule],
    rules_by_head: &FxHashMap<PredId, Vec<usize>>,
) -> FxHashSet<PredId> {
    let mut out = FxHashSet::default();
    let mut seen = FxHashSet::default();
    let mut stack = vec![start];
    while let Some(p) = stack.pop() {
        if !seen.insert(p) {
            continue;
        }
        if db.pred_decl(p).is_base() {
            out.insert(p);
            continue;
        }
        if let Some(ixs) = rules_by_head.get(&p) {
            for &i in ixs {
                for lit in &rules[i].body {
                    match lit {
                        Literal::Pos(a) | Literal::Neg(a) => stack.push(a.pred),
                        Literal::Cmp(..) => {}
                    }
                }
            }
        }
    }
    out
}

impl Database {
    /// Declare without invalidating compiled state (compiler internal).
    pub(crate) fn declare_raw(
        &mut self,
        name: &str,
        arity: usize,
        kind: PredKind,
    ) -> Result<PredId> {
        let sym = self.interner.intern(name);
        if self.by_name.contains_key(&sym) {
            return Err(Error::PredicateRedeclared(name.to_string()));
        }
        let id = PredId(self.preds.len() as u32);
        std::sync::Arc::make_mut(&mut self.preds).push(crate::pred::PredDecl {
            name: sym,
            arity,
            kind,
            key: None,
            cols: None,
        });
        self.rels.push(crate::relation::Relation::new());
        std::sync::Arc::make_mut(&mut self.by_name).insert(sym, id);
        Ok(id)
    }

    /// Compile rules and constraints into a stratified program (idempotent).
    pub(crate) fn ensure_compiled(&mut self) -> Result<()> {
        if self.compiled.is_some() {
            return Ok(());
        }
        self.decompile();
        self.aux_start = Some(self.preds.len());
        let defs = std::sync::Arc::clone(&self.defs);
        let mut rules = defs.rules.clone();
        let mut ccs = Vec::new();
        let mut err = None;
        for (i, c) in defs.constraints.iter().enumerate() {
            match compile_constraint(self, &mut rules, i, c) {
                Ok(cc) => ccs.push(cc),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            self.decompile();
            return Err(e);
        }
        // Safety-validate generated rules (user rules were checked on entry).
        for r in &rules[defs.rules.len()..] {
            if let Err(e) = self.validate_rule(r) {
                self.decompile();
                return Err(e);
            }
        }
        let strat = match stratify(self.preds.len(), &rules) {
            Ok(s) => s,
            Err(w) => {
                let mut e = Error::NotStratifiable(w.render(|p| self.pred_name(PredId(p as u32))));
                // Anchor at the closing rule when it is a user rule read
                // from text (a generated rule has no source position).
                if let Some((line, col)) = defs.rule_info.get(w.rule).and_then(|i| i.pos) {
                    e = e.at(line, col);
                }
                self.decompile();
                return Err(e);
            }
        };
        let mut rules_by_head: FxHashMap<PredId, Vec<usize>> = FxHashMap::default();
        for (i, r) in rules.iter().enumerate() {
            rules_by_head.entry(r.head.pred).or_default().push(i);
        }
        for cc in &mut ccs {
            cc.deps = base_dependencies(self, cc.viol, &rules, &rules_by_head);
        }
        let plans: Vec<RulePlans> = rules.iter().map(RulePlans::compile).collect();
        let mut mask_set: FxHashSet<(PredId, Box<[usize]>)> = FxHashSet::default();
        // Masks probed only by round-0 full plans against a predicate of
        // the rule's own stratum: that relation is empty when the probe
        // runs (semi-naive round 0 starts the stratum from nothing), so an
        // eager index would be pure per-insert maintenance cost during the
        // fixpoint. Left unbuilt, the executor falls back to a filtered
        // scan — over the same empty relation. A mask also demanded by any
        // delta or derivability plan stays eager.
        let mut full_only: FxHashSet<(PredId, Box<[usize]>)> = FxHashSet::default();
        for (ri, rp) in plans.iter().enumerate() {
            let head_stratum = strat.pred_stratum[rules[ri].head.pred.index()];
            for (p, cols) in rp.full.masks() {
                if strat.pred_stratum[p.index()] == head_stratum {
                    full_only.insert((p, cols.into()));
                } else {
                    mask_set.insert((p, cols.into()));
                }
            }
            for plan in rp
                .deltas
                .iter()
                .map(|(_, p)| p)
                .chain(rp.neg_deltas.iter().map(|(_, p)| p))
                .chain(std::iter::once(&rp.derivable))
            {
                for (p, cols) in plan.masks() {
                    mask_set.insert((p, cols.into()));
                }
            }
        }
        let mut index_masks: Vec<(PredId, Box<[usize]>)> = mask_set.into_iter().collect();
        index_masks.sort();
        let (triggers, stratum_heads) = trigger_index(self.preds.len(), &rules, &strat);
        self.compiled = Some(std::sync::Arc::new(Compiled {
            rules,
            plans,
            strat,
            rules_by_head,
            triggers,
            stratum_heads,
            constraints: ccs,
            index_masks,
        }));
        Ok(())
    }

    /// The dependency analysis of the user rules: the components and
    /// negation-cycle witnesses compilation stratifies by, available even
    /// when the program does not compile.
    pub fn dep_graph(&self) -> DepGraph {
        DepGraph::of_rules(self.preds.len(), &self.defs.rules)
    }

    /// Compile (if needed) and expose the full rule program for static
    /// analysis. Fails when the program does not compile (bad constraint,
    /// unsafe generated rule, or unstratifiable negation).
    pub fn program_view(&mut self) -> Result<ProgramView<'_>> {
        self.ensure_compiled()?;
        let user_rule_count = self.defs.rules.len();
        let c = self.compiled.as_ref().expect("just compiled");
        Ok(ProgramView {
            rules: &c.rules,
            user_rule_count,
            constraint_viols: c
                .constraints
                .iter()
                .map(|cc| (cc.source_idx, cc.viol))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {

    use crate::ast::Literal;
    use crate::db::Database;
    use crate::error::Error;
    use crate::value::Const;

    fn db_with(text: &str) -> Database {
        let mut db = Database::new();
        db.load(text).expect("program parses");
        db
    }

    /// The constraint-generated rules, each as its head predicate's name
    /// and its body predicates' names.
    fn generated(db: &mut Database) -> Vec<(String, Vec<String>)> {
        let view = db.program_view().expect("compiles");
        let rules = view.rules[view.user_rule_count..].to_vec();
        rules
            .iter()
            .map(|r| {
                let body = r
                    .body
                    .iter()
                    .filter_map(|l| match l {
                        Literal::Pos(a) | Literal::Neg(a) => Some(db.pred_name(a.pred).to_string()),
                        Literal::Cmp(..) => None,
                    })
                    .collect();
                (db.pred_name(r.head.pred).to_string(), body)
            })
            .collect()
    }

    fn mentions(rules: &[(String, Vec<String>)], prefix: &str) -> bool {
        rules
            .iter()
            .any(|(h, b)| h.starts_with(prefix) || b.iter().any(|p| p.starts_with(prefix)))
    }

    #[test]
    fn referential_constraint_is_guarded_by_its_premise_atom() {
        let mut db = db_with(
            "base Attr(t, a, d). base Type(t, n, s).
             constraint attr_type_ref: forall T, A, D: Attr(T, A, D) -> exists N, S: Type(T, N, S).",
        );
        let rules = generated(&mut db);
        assert!(!mentions(&rules, "__ctx"), "{rules:?}");
        let viol = &rules.last().expect("a violation rule").1;
        assert_eq!(viol[0], "Attr", "{rules:?}");
        let (attr, ty) = (db.pred_id("Attr").unwrap(), db.pred_id("Type").unwrap());
        let (t, a, d) = (db.constant("t"), db.constant("a"), db.constant("d"));
        db.insert(attr, vec![t, a, d]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        db.insert(ty, vec![t, a, d]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn key_style_constraint_compiles_to_one_rule() {
        let mut db = db_with(
            "base PhRep(c, t).
             constraint phrep_unique: forall C1, T, C2: PhRep(C1, T) & PhRep(C2, T) -> C1 = C2.",
        );
        let rules = generated(&mut db);
        assert_eq!(rules.len(), 1, "{rules:?}");
        assert!(rules[0].0.starts_with("__viol"), "{rules:?}");
        assert_eq!(rules[0].1, ["PhRep", "PhRep"]);
        assert!(!mentions(&rules, "__hold"), "{rules:?}");
        let rep = db.pred_id("PhRep").unwrap();
        let (c1, c2, t) = (db.constant("c1"), db.constant("c2"), db.constant("t"));
        db.insert(rep, vec![c1, t]).unwrap();
        assert!(db.check().unwrap().is_empty());
        db.insert(rep, vec![c2, t]).unwrap();
        // (c1, t, c2) and (c2, t, c1)
        assert_eq!(db.check().unwrap().len(), 2);
    }

    #[test]
    fn two_atom_premise_keeps_its_context() {
        let mut db = db_with(
            "base AttrB(t, a, ta). base Rep(c, t). base Sl(c, a, ca).
             constraint star:
               forall T, A, TA, C: AttrB(T, A, TA) & Rep(C, T)
                 -> exists CA: Sl(C, A, CA) & Rep(CA, TA).",
        );
        let rules = generated(&mut db);
        let ctx = rules
            .iter()
            .find(|(h, _)| h.starts_with("__ctx"))
            .unwrap_or_else(|| panic!("no context rule in {rules:?}"));
        assert_eq!(ctx.1, ["AttrB", "Rep"]);
        let viol = &rules.last().expect("a violation rule").1;
        assert_eq!(viol[0], ctx.0, "{rules:?}");
    }

    #[test]
    fn or_in_conclusion_compiles_to_branch_rules() {
        let mut db = db_with(
            "base P(x). base A(x). base B(x).
             constraint c: forall X: P(X) -> A(X) | B(X).",
        );
        let p = db.pred_id("P").unwrap();
        let a = db.pred_id("A").unwrap();
        let one = db.constant("one");
        db.insert(p, vec![one]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        db.insert(a, vec![one]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn nested_forall_with_existential_conclusion() {
        // the contravariance pattern: forall outer, nested forall whose
        // conclusion has its own existential
        let mut db = db_with(
            "base Rel(d1, d2).
             base Arg(d, n, t).
             constraint arity_both_ways:
               forall D1, D2: Rel(D2, D1) ->
                 (forall N, T1: Arg(D1, N, T1) -> exists T2: Arg(D2, N, T2))
                 & (forall N2, T2b: Arg(D2, N2, T2b) -> exists T1b: Arg(D1, N2, T1b)).",
        );
        let rel = db.pred_id("Rel").unwrap();
        let arg = db.pred_id("Arg").unwrap();
        let (d1, d2, t) = (db.constant("d1"), db.constant("d2"), db.constant("t"));
        db.insert(rel, vec![d2, d1]).unwrap();
        assert!(db.check().unwrap().is_empty()); // zero args on both sides
        db.insert(arg, vec![d1, Const::Int(1), t]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1); // d2 lacks arg 1
        db.insert(arg, vec![d2, Const::Int(1), t]).unwrap();
        assert!(db.check().unwrap().is_empty());
        db.insert(arg, vec![d2, Const::Int(2), t]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1); // d1 lacks arg 2
    }

    #[test]
    fn conjunction_with_shared_existential_in_conclusion() {
        // the (*) pattern: exists CA: Slot(C, A, CA) & PhRep(CA, TA)
        let mut db = db_with(
            "base AttrB(t, a, ta). base Rep(c, t). base Sl(c, a, ca).
             constraint star:
               forall T, A, TA, C: AttrB(T, A, TA) & Rep(C, T)
                 -> exists CA: Sl(C, A, CA) & Rep(CA, TA).",
        );
        let attr = db.pred_id("AttrB").unwrap();
        let rep = db.pred_id("Rep").unwrap();
        let sl = db.pred_id("Sl").unwrap();
        let (t, a, ta, c, ca) = (
            db.constant("t"),
            db.constant("a"),
            db.constant("ta"),
            db.constant("c"),
            db.constant("ca"),
        );
        db.insert(attr, vec![t, a, ta]).unwrap();
        db.insert(rep, vec![c, t]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        // a slot whose value has no representation does NOT satisfy it
        db.insert(sl, vec![c, a, ca]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        db.insert(rep, vec![ca, ta]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn unused_quantified_vars_are_dropped() {
        let mut db = db_with(
            "base P(x).
             constraint c: forall X, Unused: P(X) -> X = X.",
        );
        let p = db.pred_id("P").unwrap();
        db.insert(p, vec![Const::Int(1)]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn conclusion_only_universal_var_is_rejected() {
        // forall X, Y: P(X) -> Q(X, Y)  — Y unbound by the premise
        let mut db = db_with(
            "base P(x). base Q(x, y).
             constraint bad: forall X, Y: P(X) -> Q(X, Y).",
        );
        let err = db.check().unwrap_err();
        assert!(matches!(err, Error::BadConstraint { .. }), "{err:?}");
    }

    #[test]
    fn premise_with_disjunction_is_rejected() {
        let mut db = db_with(
            "base P(x). base Q(x).
             constraint bad: forall X: P(X) | Q(X) -> P(X).",
        );
        // `|` binds tighter than `->`, so the premise is a disjunction.
        let err = db.check().unwrap_err();
        assert!(matches!(err, Error::BadConstraint { .. }), "{err:?}");
    }

    #[test]
    fn bare_atom_constraint_is_rejected() {
        let mut db = db_with(
            "base P(x).
             constraint bad: forall X: P(X).",
        );
        let err = db.check().unwrap_err();
        assert!(matches!(err, Error::BadConstraint { .. }), "{err:?}");
    }

    #[test]
    fn negated_premise_literal_supported() {
        let mut db = db_with(
            "base P(x). base Q(x). base R(x).
             constraint c: forall X: P(X) & !Q(X) -> R(X).",
        );
        let p = db.pred_id("P").unwrap();
        let q = db.pred_id("Q").unwrap();
        let r = db.pred_id("R").unwrap();
        let one = Const::Int(1);
        db.insert(p, vec![one]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        // satisfy by making the premise false…
        db.insert(q, vec![one]).unwrap();
        assert!(db.check().unwrap().is_empty());
        db.remove(q, &crate::tuple::Tuple::from(vec![one])).unwrap();
        // …or the conclusion true
        db.insert(r, vec![one]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn implication_inside_conclusion_rewrites_to_or() {
        let mut db = db_with(
            "base P(x). base A(x). base B(x).
             constraint c: forall X: P(X) -> (A(X) -> B(X)).",
        );
        let p = db.pred_id("P").unwrap();
        let a = db.pred_id("A").unwrap();
        let b = db.pred_id("B").unwrap();
        let one = Const::Int(1);
        db.insert(p, vec![one]).unwrap();
        assert!(db.check().unwrap().is_empty()); // A(1) false → implication true
        db.insert(a, vec![one]).unwrap();
        assert_eq!(db.check().unwrap().len(), 1);
        db.insert(b, vec![one]).unwrap();
        assert!(db.check().unwrap().is_empty());
    }

    #[test]
    fn aux_predicates_are_cleaned_up_on_decompile() {
        let mut db = db_with(
            "base P(x).
             constraint c: forall X: P(X) -> exists Y: P(Y).",
        );
        let before = db.pred_count();
        db.check().unwrap();
        let during = db.pred_count();
        assert!(during > before, "compilation added aux predicates");
        // a definition change drops the auxiliaries
        db.load("base Q(x).").unwrap();
        assert_eq!(db.pred_count(), before + 1);
        // and re-checking re-creates them without leaking
        db.check().unwrap();
        let after_first = db.pred_count();
        db.load("base R(x).").unwrap();
        db.check().unwrap();
        assert_eq!(db.pred_count(), after_first + 1);
    }
}
