//! Differential test: the constraint compiler is equivalent to naive FOL
//! model checking.
//!
//! For random range-restricted constraints of the supported normal form
//! `forall X̄: premise -> conclusion` and random extensional databases, the
//! compiled violation rules must report exactly the witnesses `X̄` for
//! which the premise holds and the conclusion is *false* under naive
//! first-order semantics over the database's active domain — the same
//! set, binding by binding, not only the same emptiness.
//!
//! Premises come in four kinds, one per shape the compiler treats
//! differently: one atom over distinct witness variables, an atom with a
//! constant or a repeated variable, a premise-local existential whose
//! variable the conclusion's own existential reuses, and two atoms.
//! Conclusions are random formulas or bare comparisons. Cases are drawn
//! from `gom_obs::SplitMix64`, one seed per case, and every failure prints
//! its seed.

use gom_deductive::ast::{Atom, CmpOp, Term, Var};
use gom_deductive::constraint::{Constraint, Formula};
use gom_deductive::{Const, Database, PredId, Tuple};
use gom_obs::SplitMix64;
use std::collections::BTreeSet;

const DOMAIN: i64 = 4; // constants 0..DOMAIN

/// Random cases, one seed each.
const SEEDS: u64 = 2000;

/// Predicates: P/1, Q/2, R/2 — all base.
fn setup_db(
    p_facts: &[i64],
    q_facts: &[(i64, i64)],
    r_facts: &[(i64, i64)],
) -> (Database, PredId, PredId, PredId) {
    let mut db = Database::new();
    let p = db.declare_base("P", 1).unwrap();
    let q = db.declare_base("Q", 2).unwrap();
    let r = db.declare_base("R", 2).unwrap();
    for &a in p_facts {
        db.insert(p, vec![Const::Int(a)]).unwrap();
    }
    for &(a, b) in q_facts {
        db.insert(q, vec![Const::Int(a), Const::Int(b)]).unwrap();
    }
    for &(a, b) in r_facts {
        db.insert(r, vec![Const::Int(a), Const::Int(b)]).unwrap();
    }
    (db, p, q, r)
}

/// A generated conclusion, using only variables `0..avail` plus fresh
/// existentials.
#[derive(Debug)]
enum GenF {
    AtomP(u32),
    AtomQ(u32, u32),
    Cmp(CmpOp, u32, u32),
    /// A comparison of a variable with a constant.
    CmpConst(CmpOp, u32, i64),
    And(Vec<GenF>),
    Or(Vec<GenF>),
    NotAtomP(u32),
    /// exists y: R(x, y) — fresh var
    ExistsR(u32),
    /// exists y: R(x, y) & P(y)
    ExistsRP(u32),
    /// forall y: R(x, y) -> P(y)
    ForallRP(u32),
    True,
    False,
}

/// A random conclusion of nesting depth at most `depth` over the outer
/// variables `0..avail`: a leaf four times in six, else a one- or
/// two-element conjunction or disjunction.
fn gen_f(rng: &mut SplitMix64, avail: u32, depth: u32) -> GenF {
    if depth > 0 {
        match rng.below(6) {
            4 => return GenF::And(gen_fs(rng, avail, depth - 1)),
            5 => return GenF::Or(gen_fs(rng, avail, depth - 1)),
            _ => {}
        }
    }
    let kind = rng.below(10);
    let mut var = || rng.below(avail as usize) as u32;
    match kind {
        0 => GenF::AtomP(var()),
        1 => GenF::AtomQ(var(), var()),
        2 => GenF::Cmp(CmpOp::Eq, var(), var()),
        3 => GenF::Cmp(CmpOp::Ne, var(), var()),
        4 => GenF::NotAtomP(var()),
        5 => GenF::ExistsR(var()),
        6 => GenF::ExistsRP(var()),
        7 => GenF::ForallRP(var()),
        8 => GenF::True,
        _ => GenF::False,
    }
}

/// A bare comparison over the outer variables `0..avail`, with any
/// operator, against another variable or a constant.
fn gen_cmp(rng: &mut SplitMix64, avail: u32) -> GenF {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let op = OPS[rng.below(OPS.len())];
    let x = rng.below(avail as usize) as u32;
    if rng.below(2) == 0 {
        GenF::Cmp(op, x, rng.below(avail as usize) as u32)
    } else {
        GenF::CmpConst(op, x, constant(rng))
    }
}

fn gen_fs(rng: &mut SplitMix64, avail: u32, depth: u32) -> Vec<GenF> {
    (0..1 + rng.below(2))
        .map(|_| gen_f(rng, avail, depth))
        .collect()
}

/// `0..max_len` random tuples, each drawn by `draw`.
fn gen_facts<T>(rng: &mut SplitMix64, max_len: usize, draw: fn(&mut SplitMix64) -> T) -> Vec<T> {
    (0..rng.below(max_len)).map(|_| draw(rng)).collect()
}

fn constant(rng: &mut SplitMix64) -> i64 {
    rng.below(DOMAIN as usize) as i64
}

fn pair(rng: &mut SplitMix64) -> (i64, i64) {
    (constant(rng), constant(rng))
}

/// Turn a generated conclusion into a Formula, allocating fresh variables
/// for existentials/universals starting at `next`.
fn to_formula(g: &GenF, p: PredId, q: PredId, r: PredId, next: &mut u32) -> Formula {
    match g {
        GenF::AtomP(x) => Formula::Atom(Atom::new(p, vec![Term::Var(Var(*x))])),
        GenF::AtomQ(x, y) => {
            Formula::Atom(Atom::new(q, vec![Term::Var(Var(*x)), Term::Var(Var(*y))]))
        }
        GenF::Cmp(op, x, y) => Formula::Cmp(*op, Term::Var(Var(*x)), Term::Var(Var(*y))),
        GenF::CmpConst(op, x, c) => {
            Formula::Cmp(*op, Term::Var(Var(*x)), Term::Const(Const::Int(*c)))
        }
        GenF::And(fs) => Formula::and(fs.iter().map(|f| to_formula(f, p, q, r, next)).collect()),
        GenF::Or(fs) => Formula::or(fs.iter().map(|f| to_formula(f, p, q, r, next)).collect()),
        GenF::NotAtomP(x) => Formula::Not(Box::new(Formula::Atom(Atom::new(
            p,
            vec![Term::Var(Var(*x))],
        )))),
        GenF::ExistsR(x) => {
            let y = Var(*next);
            *next += 1;
            Formula::Exists(
                vec![y],
                Box::new(Formula::Atom(Atom::new(
                    r,
                    vec![Term::Var(Var(*x)), Term::Var(y)],
                ))),
            )
        }
        GenF::ExistsRP(x) => {
            let y = Var(*next);
            *next += 1;
            Formula::Exists(
                vec![y],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::new(r, vec![Term::Var(Var(*x)), Term::Var(y)])),
                    Formula::Atom(Atom::new(p, vec![Term::Var(y)])),
                ])),
            )
        }
        GenF::ForallRP(x) => {
            let y = Var(*next);
            *next += 1;
            Formula::Forall(
                vec![y],
                Box::new(Formula::Implies(
                    Box::new(Formula::Atom(Atom::new(
                        r,
                        vec![Term::Var(Var(*x)), Term::Var(y)],
                    ))),
                    Box::new(Formula::Atom(Atom::new(p, vec![Term::Var(y)]))),
                )),
            )
        }
        GenF::True => Formula::True,
        GenF::False => Formula::False,
    }
}

/// Naive FOL evaluation over the finite domain 0..DOMAIN.
fn naive_eval(f: &Formula, env: &mut Vec<Option<i64>>, db: &Database) -> bool {
    fn term_val(t: Term, env: &[Option<i64>]) -> i64 {
        match t {
            Term::Const(Const::Int(n)) => n,
            Term::Var(v) => env[v.index()].expect("bound"),
            Term::Const(Const::Sym(_)) => unreachable!("int-only test"),
        }
    }
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => {
            let tup = Tuple::from(
                a.args
                    .iter()
                    .map(|&t| Const::Int(term_val(t, env)))
                    .collect::<Vec<_>>(),
            );
            db.contains(a.pred, &tup)
        }
        Formula::Cmp(op, l, r) => {
            op.eval(Const::Int(term_val(*l, env)), Const::Int(term_val(*r, env)))
        }
        Formula::And(fs) => fs.iter().all(|g| naive_eval(g, env, db)),
        Formula::Or(fs) => fs.iter().any(|g| naive_eval(g, env, db)),
        Formula::Not(g) => !naive_eval(g, env, db),
        Formula::Implies(a, b) => !naive_eval(a, env, db) || naive_eval(b, env, db),
        Formula::Forall(vs, g) => iterate(vs, g, env, db, true),
        Formula::Exists(vs, g) => iterate(vs, g, env, db, false),
    }
}

fn iterate(
    vs: &[Var],
    g: &Formula,
    env: &mut Vec<Option<i64>>,
    db: &Database,
    forall: bool,
) -> bool {
    fn go(
        vs: &[Var],
        i: usize,
        g: &Formula,
        env: &mut Vec<Option<i64>>,
        db: &Database,
        forall: bool,
    ) -> bool {
        if i == vs.len() {
            return naive_eval(g, env, db);
        }
        let v = vs[i];
        for x in 0..DOMAIN {
            if env.len() <= v.index() {
                env.resize(v.index() + 1, None);
            }
            env[v.index()] = Some(x);
            let sub = go(vs, i + 1, g, env, db, forall);
            env[v.index()] = None;
            if forall && !sub {
                return false;
            }
            if !forall && sub {
                return true;
            }
        }
        forall
    }
    go(vs, 0, g, env, db, forall)
}

fn var(i: u32) -> Term {
    Term::Var(Var(i))
}

fn atom(pred: PredId, args: Vec<Term>) -> Formula {
    Formula::Atom(Atom::new(pred, args))
}

/// A random premise binding every outer variable positively. Returns the
/// premise, the number of outer variables `n`, and the first variable the
/// conclusion may allocate for its own quantifiers.
fn gen_premise(rng: &mut SplitMix64, p: PredId, q: PredId, r: PredId) -> (Formula, u32, u32) {
    let binary = |rng: &mut SplitMix64| if rng.below(2) == 0 { q } else { r };
    let c = |rng: &mut SplitMix64| Term::Const(Const::Int(constant(rng)));
    match rng.below(4) {
        // One atom over distinct witness variables: P(X0) or B(X0, X1).
        0 => {
            if rng.below(2) == 0 {
                (atom(p, vec![var(0)]), 1, 1)
            } else {
                (atom(binary(rng), vec![var(0), var(1)]), 2, 2)
            }
        }
        // One atom with a constant or a repeated variable: B(X0, c),
        // B(c, X0) or B(X0, X0).
        1 => {
            let pred = binary(rng);
            let args = match rng.below(3) {
                0 => vec![var(0), c(rng)],
                1 => vec![c(rng), var(0)],
                _ => vec![var(0), var(0)],
            };
            (atom(pred, args), 1, 1)
        }
        // A premise-local existential Y: exists Y: B(X0, Y), or
        // exists Y: B(X0, Y) & B'(Y, X1). The conclusion's first own
        // quantified variable is the same `Var` as Y.
        2 => {
            let n = 1 + rng.below(2) as u32;
            let y = Var(n);
            let first = atom(binary(rng), vec![var(0), Term::Var(y)]);
            let body = if n == 1 {
                first
            } else {
                Formula::and(vec![first, atom(binary(rng), vec![Term::Var(y), var(1)])])
            };
            (Formula::Exists(vec![y], Box::new(body)), n, n)
        }
        // Two atoms.
        _ => {
            let (left, right, n) = match rng.below(4) {
                0 => {
                    let args = if rng.below(2) == 0 {
                        vec![var(0), var(0)]
                    } else {
                        vec![var(0), c(rng)]
                    };
                    (atom(p, vec![var(0)]), atom(binary(rng), args), 1)
                }
                1 => (
                    atom(binary(rng), vec![var(0), var(1)]),
                    atom(p, vec![var(1)]),
                    2,
                ),
                2 => (atom(p, vec![var(0)]), atom(p, vec![var(1)]), 2),
                _ => (
                    atom(binary(rng), vec![var(0), var(1)]),
                    atom(binary(rng), vec![var(1), var(0)]),
                    2,
                ),
            };
            (Formula::and(vec![left, right]), n, n)
        }
    }
}

/// One random case: a random EDB and one constraint over it.
fn check_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let p_facts = gen_facts(&mut rng, 5, constant);
    let q_facts = gen_facts(&mut rng, 8, pair);
    let r_facts = gen_facts(&mut rng, 8, pair);
    let (mut db, p, q, r) = setup_db(&p_facts, &q_facts, &r_facts);

    let (premise, n_outer, mut next) = gen_premise(&mut rng, p, q, r);
    let conclusion = if rng.below(4) == 0 {
        gen_cmp(&mut rng, n_outer)
    } else {
        gen_f(&mut rng, n_outer, 1)
    };
    let conclusion_f = to_formula(&conclusion, p, q, r, &mut next);
    let outer: Vec<Var> = (0..n_outer).map(Var).collect();
    let formula = Formula::Forall(
        outer,
        Box::new(Formula::Implies(
            Box::new(premise.clone()),
            Box::new(conclusion_f.clone()),
        )),
    );
    let n_vars = formula.var_count();
    let var_names: Vec<String> = (0..n_vars).map(|i| format!("V{i}")).collect();
    let constraint = Constraint::new("prop", var_names.clone(), formula.clone());
    db.add_constraint(constraint);

    let compiled_violations = db.check().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let mut got: BTreeSet<Vec<i64>> = BTreeSet::new();
    for v in &compiled_violations {
        let names: Vec<&str> = v.witness.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            var_names[..n_outer as usize],
            "seed {seed}: witness names"
        );
        let row = v
            .witness
            .iter()
            .map(|(_, c)| c.as_int().expect("int"))
            .collect();
        assert!(got.insert(row), "seed {seed}: duplicate violation");
    }

    // Naive falsity per premise binding: every assignment of the outer
    // variables over the domain whose premise holds and whose conclusion
    // does not is a witness.
    let mut expected: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut env: Vec<Option<i64>> = vec![None; n_vars];
    for code in 0..DOMAIN.pow(n_outer) {
        let row: Vec<i64> = (0..n_outer)
            .map(|i| code / DOMAIN.pow(i) % DOMAIN)
            .collect();
        for (slot, &x) in env.iter_mut().zip(&row) {
            *slot = Some(x);
        }
        if naive_eval(&premise, &mut env, &db) && !naive_eval(&conclusion_f, &mut env, &db) {
            expected.insert(row);
        }
    }
    // The decomposition agrees with evaluating the closed formula.
    let mut env: Vec<Option<i64>> = vec![None; n_vars];
    assert_eq!(
        expected.is_empty(),
        naive_eval(&formula, &mut env, &db),
        "seed {seed}: per-binding oracle disagrees with the closed formula"
    );

    assert_eq!(
        got,
        expected,
        "seed {seed}: formula {:?}\nviolations: {:?}",
        formula,
        compiled_violations
            .iter()
            .map(|v| v.render(&db))
            .collect::<Vec<_>>()
    );
}

#[test]
fn compiled_violations_equal_naive_falsity() {
    for seed in 0..SEEDS {
        if std::panic::catch_unwind(|| check_case(seed)).is_err() {
            panic!("seed {seed}: panicked (message above)");
        }
    }
}
