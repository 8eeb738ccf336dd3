//! The lint pass families and their shared infrastructure.
//!
//! Each pass walks the database read-only (the performance pass compiles
//! lazily, hence `&mut`) and appends [`crate::Diagnostic`]s to the shared
//! report. Passes never fail: anything that prevents an analysis (e.g. a
//! program that does not compile) is either already reported by an earlier
//! pass or silently skipped.

pub(crate) mod depgraph;
pub(crate) mod perf;
pub(crate) mod safety;
pub(crate) mod schema;
pub(crate) mod strat;

use crate::diag::Span;
use gom_deductive::{Database, Formula};

/// Span of rule `i`, when it was parsed from text.
pub(crate) fn rule_span(db: &Database, i: usize) -> Option<Span> {
    db.rule_info(i).pos.map(|(l, c)| Span::point(l, c))
}

/// Span of constraint `i`, when it was parsed from text.
pub(crate) fn constraint_span(db: &Database, i: usize) -> Option<Span> {
    db.constraint_info(i).pos.map(|(l, c)| Span::point(l, c))
}

/// Collect every atom mentioned anywhere in a formula.
pub(crate) fn formula_atoms<'a>(f: &'a Formula, out: &mut Vec<&'a gom_deductive::ast::Atom>) {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => {}
        Formula::Atom(a) => out.push(a),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| formula_atoms(g, out)),
        Formula::Not(g) => formula_atoms(g, out),
        Formula::Implies(p, c) => {
            formula_atoms(p, out);
            formula_atoms(c, out);
        }
        Formula::Forall(_, g) | Formula::Exists(_, g) => formula_atoms(g, out),
    }
}
