//! Performance lints — `L04xx`.
//!
//! * `L0401` — a rule body contains a cartesian product: its positive
//!   literals split into join-disconnected groups.
//! * `L0402` — non-linear recursion: a rule joins two or more literals from
//!   its own recursive component (quadratic semi-naive deltas).
//! * `L0403` — a constraint compiles into a violation program whose widest
//!   rule joins more than `max_join_width` positive literals.

use super::{constraint_span, rule_span};
use crate::diag::{Diagnostic, LintReport, Severity};
use crate::LintConfig;
use gom_deductive::ast::{Literal, Rule};
use gom_deductive::Database;

pub(crate) fn run(db: &mut Database, cfg: &LintConfig, report: &mut LintReport) {
    let comp = db.dep_graph().comp;

    for (i, rule) in db.rules().iter().enumerate().skip(cfg.baseline.rules) {
        let span = rule_span(db, i);
        let head_name = db.pred_name(rule.head.pred).to_string();

        // L0401 — connected components of positive literals under shared
        // variables. Ground atoms join nothing and are exempt (they act as
        // guards, not as product factors).
        let atoms: Vec<&gom_deductive::ast::Atom> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) if a.vars().next().is_some() => Some(a),
                _ => None,
            })
            .collect();
        if atoms.len() > 1 {
            let mut group: Vec<usize> = (0..atoms.len()).collect();
            fn find(g: &mut [usize], x: usize) -> usize {
                if g[x] == x {
                    x
                } else {
                    let r = find(g, g[x]);
                    g[x] = r;
                    r
                }
            }
            for a in 0..atoms.len() {
                for b in a + 1..atoms.len() {
                    let shares = atoms[a].vars().any(|v| atoms[b].vars().any(|w| w == v));
                    if shares {
                        let (ra, rb) = (find(&mut group, a), find(&mut group, b));
                        group[ra] = rb;
                    }
                }
            }
            let mut roots: Vec<usize> = (0..atoms.len()).map(|x| find(&mut group, x)).collect();
            roots.sort_unstable();
            roots.dedup();
            if roots.len() > 1 {
                report.diags.push(
                    Diagnostic::new(
                        "L0401",
                        Severity::Warn,
                        format!("rule for `{head_name}` computes a cartesian product"),
                    )
                    .with_span(span)
                    .with_note(format!(
                        "its positive literals form {} join-disconnected groups",
                        roots.len()
                    ))
                    .with_fix("share a variable between the groups, or split the rule"),
                );
            }
        }

        // L0402 — two or more positive literals from the head's own
        // recursive component.
        let h = rule.head.pred.index();
        let recursive_lits = rule
            .body
            .iter()
            .filter(|l| match l {
                Literal::Pos(a) => comp[a.pred.index()] == comp[h],
                _ => false,
            })
            .count();
        if recursive_lits >= 2 {
            report.diags.push(
                Diagnostic::new(
                    "L0402",
                    Severity::Warn,
                    format!("rule for `{head_name}` uses non-linear recursion"),
                )
                .with_span(span)
                .with_note(format!(
                    "{recursive_lits} positive body literals are mutually recursive with the head"
                ))
                .with_fix("rewrite with a single recursive literal (linear recursion) if possible"),
            );
        }
    }

    // L0403 — wide joins in compiled constraints. Needs the compiled
    // program; when compilation fails the stratification/safety lints have
    // already reported why, so skip silently.
    let Ok(view) = db.program_view() else {
        return;
    };
    let n_preds: usize = view
        .rules
        .iter()
        .map(|r| r.head.pred.index() + 1)
        .max()
        .unwrap_or(0);
    let mut by_head: Vec<Vec<usize>> = vec![Vec::new(); n_preds];
    for (i, r) in view.rules.iter().enumerate() {
        by_head[r.head.pred.index()].push(i);
    }
    let mut findings = Vec::new();
    for &(ci, viol) in &view.constraint_viols {
        if ci < cfg.baseline.constraints {
            continue;
        }
        let width = max_join_width(view.rules, &by_head, viol.index());
        if width > cfg.max_join_width {
            findings.push((ci, width));
        }
    }
    for (ci, width) in findings {
        let c = &db.constraints()[ci];
        report.diags.push(
            Diagnostic::new(
                "L0403",
                Severity::Warn,
                format!(
                    "constraint `{}` compiles into a join of {} relations (limit {})",
                    c.name, width, cfg.max_join_width
                ),
            )
            .with_span(constraint_span(db, ci))
            .with_note("checking this constraint may be expensive on large bases")
            .with_fix("factor shared premises into named derived predicates"),
        );
    }
}

/// Maximum positive-literal count over all rules reachable from `start`'s
/// defining rules (following both positive and negative dependencies).
fn max_join_width(rules: &[Rule], by_head: &[Vec<usize>], start: usize) -> usize {
    let mut seen = vec![false; by_head.len()];
    let mut stack = vec![start];
    seen[start] = true;
    let mut width = 0;
    while let Some(p) = stack.pop() {
        for &ri in &by_head[p] {
            let rule = &rules[ri];
            let positives = rule.body.iter().filter(|l| l.is_positive()).count();
            width = width.max(positives);
            for lit in &rule.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    let q = a.pred.index();
                    if q < seen.len() && !seen[q] {
                        seen[q] = true;
                        stack.push(q);
                    }
                }
            }
        }
    }
    width
}
