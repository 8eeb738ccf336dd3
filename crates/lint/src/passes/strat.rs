//! Stratification lint — `L0201`.
//!
//! Reports each component of the user rules that has a negation inside
//! it once, with the engine's shortest witness cycle, anchored at the rule
//! whose negation closes it.

use super::rule_span;
use crate::diag::{Diagnostic, LintReport, Severity};
use crate::LintConfig;
use gom_deductive::Database;

pub(crate) fn run(db: &Database, _cfg: &LintConfig, report: &mut LintReport) {
    let names: Vec<&str> = db.pred_ids().map(|p| db.pred_name(p)).collect();
    for w in db.dep_graph().witnesses {
        let cycle = w.render(|p| names[p]);
        report
            .diags
            .push(negation_cycle(&cycle).with_span(rule_span(db, w.rule)));
    }
}

/// The `L0201` diagnostic for a rendered witness cycle.
pub(crate) fn negation_cycle(cycle: &str) -> Diagnostic {
    Diagnostic::new(
        "L0201",
        Severity::Error,
        "program is not stratifiable: negation occurs in a recursive cycle",
    )
    .with_note(format!("minimal cycle: {cycle}"))
    .with_fix("break the cycle: remove one negation or split the recursion")
}
