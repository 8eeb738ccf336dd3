//! # gom-lint — static analysis and diagnostics for schema bases
//!
//! A multi-pass static analyzer over the deductive program (EDB/IDB/CDB),
//! the GOM schema base, and the evolution spec. Where the engine stops at
//! the first load error, the linter recovers per statement, keeps going,
//! and reports *everything* it finds as structured [`Diagnostic`]s with
//! stable codes, source spans, notes, and suggested fixes — renderable
//! rustc-style ([`render_report`]) or as JSON ([`LintReport::to_json`]).
//!
//! ## Pass families and code ranges
//!
//! | range   | pass             | examples |
//! |---------|------------------|----------|
//! | `L00xx` | syntax           | `L0001` parse error, `L0002` unknown predicate |
//! | `L01xx` | safety           | `L0101` unsafe rule, `L0102` unsafe constraint, `L0103` open formula |
//! | `L02xx` | stratification   | `L0201` negation cycle (with the engine's minimal witness path) |
//! | `L03xx` | dependency graph | `L0301` undefined derived pred, `L0302` arity mismatch, `L0303` unused pred, `L0304` unreachable rule, `L0305` never-firing constraint |
//! | `L04xx` | performance      | `L0401` cartesian product, `L0402` non-linear recursion, `L0403` wide join |
//! | `L05xx` | schema           | `L0501` dangling type ref, `L0502` shadowed attribute, `L0503` version-graph cycle |
//! | `L06xx` | impact (emitted by `gom-impact`) | `L0601` breaking change without migration, `L0602` constraint unaffected by any primitive, `L0603` impact footprint exceeds threshold |
//!
//! The graph analyses are the engine's own: `L0201`, `L0402` and `L0503`
//! read [`gom_deductive::DepGraph`] (components and negation-cycle
//! witnesses), the pass the engine stratifies by, so a lint and a failed
//! compile name the same cycle.
//!
//! ## Baselines
//!
//! A schema manager installs system predicates, rules, and constraints of
//! its own before any user definitions arrive. Capturing a [`Baseline`]
//! after that setup exempts the system items from user-facing lints:
//!
//! ```
//! use gom_deductive::Database;
//! use gom_lint::{lint_source, Baseline, LintConfig, Severity};
//!
//! let mut db = Database::new();
//! db.load("base N(x). derived Ok(x). Ok(X) :- N(X).").unwrap(); // "system"
//! let cfg = LintConfig {
//!     baseline: Baseline::current(&db),
//!     ..LintConfig::default()
//! };
//! let report = lint_source(&mut db, "Nope(X) :- N(Y).", &cfg);
//! assert!(report.denies(Severity::Error));
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod json;
mod passes;
pub mod render;

pub use diag::{Diagnostic, LintReport, Severity, Span};
pub use render::{render_diagnostic, render_report};

use gom_deductive::{parse_program_lenient, Database, Error};

/// Counts of predicates, rules, and constraints present *before* the
/// material being linted was loaded. Items below the baseline are treated
/// as system-installed and exempted from user-facing lints.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Baseline {
    /// Predicates declared before the baseline.
    pub preds: usize,
    /// Rules added before the baseline.
    pub rules: usize,
    /// Constraints added before the baseline.
    pub constraints: usize,
}

impl Baseline {
    /// An empty baseline: lint everything.
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Snapshot the database's current definition counts. Compiler-generated
    /// auxiliary predicates (named `__…`) are not counted — they come and go
    /// with compilation and are skipped by every pass anyway.
    pub fn current(db: &Database) -> Baseline {
        Baseline {
            preds: db
                .pred_ids()
                .filter(|&p| !db.pred_name(p).starts_with("__"))
                .count(),
            rules: db.rules().len(),
            constraints: db.constraints().len(),
        }
    }
}

/// Configuration for a lint run.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// `L0403` fires when a constraint's compiled violation program joins
    /// more than this many relations in one rule.
    pub max_join_width: usize,
    /// Definitions to exempt (system-installed material).
    pub baseline: Baseline,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_join_width: 8,
            baseline: Baseline::empty(),
        }
    }
}

/// Run all database-level passes over the definitions already loaded.
///
/// Takes `&mut` only because the performance pass compiles the constraint
/// program lazily; no definitions or facts are changed.
pub fn lint_database(db: &mut Database, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    passes::safety::run(db, cfg, &mut report);
    passes::strat::run(db, cfg, &mut report);
    passes::depgraph::run(db, cfg, &mut report);
    passes::schema::run(db, cfg, &mut report);
    passes::perf::run(db, cfg, &mut report);
    report.sort();
    report
}

/// Load `text` leniently into `db` (recovering at statement boundaries),
/// convert every load error into a positioned diagnostic, then run the
/// database-level passes over whatever did load.
///
/// Statements that fail to load are dropped; everything else takes effect
/// exactly as a plain `Database::load` would.
pub fn lint_source(db: &mut Database, text: &str, cfg: &LintConfig) -> LintReport {
    let loaded = parse_program_lenient(db, text);
    let mut report = LintReport::default();
    for e in &loaded.errors {
        report.diags.push(error_to_diag(e));
    }
    report.extend(lint_database(db, cfg).diags);
    report.sort();
    report
}

/// Map a load-time [`gom_deductive::Error`] onto the diagnostic space.
pub fn error_to_diag(e: &Error) -> Diagnostic {
    let span = e.position().map(|(l, c)| Span::point(l, c));
    let root = e.root();
    let d = match root {
        Error::UnknownPredicate(p) => {
            Diagnostic::new("L0002", Severity::Error, format!("unknown predicate `{p}`"))
                .with_fix(format!("declare `{p}` with `base` or `derived` before use"))
        }
        Error::Parse { msg, .. } => {
            if let Some(p) = msg
                .strip_prefix("unknown predicate `")
                .and_then(|r| r.split('`').next())
            {
                Diagnostic::new("L0002", Severity::Error, format!("unknown predicate `{p}`"))
                    .with_fix(format!("declare `{p}` with `base` or `derived` before use"))
            } else {
                Diagnostic::new("L0001", Severity::Error, format!("syntax error: {msg}"))
            }
        }
        Error::ArityMismatch {
            pred,
            declared,
            used,
        } => Diagnostic::new(
            "L0302",
            Severity::Error,
            format!("predicate `{pred}` declared with arity {declared} but used with arity {used}"),
        ),
        Error::UnsafeRule { rule, var } => Diagnostic::new(
            "L0101",
            Severity::Error,
            format!("rule `{rule}` is not range-restricted"),
        )
        .with_note(format!(
            "variable {var} does not occur in any positive body literal"
        )),
        Error::NotStratifiable(cycle) => passes::strat::negation_cycle(cycle),
        Error::BadConstraint { name, msg } => Diagnostic::new(
            "L0103",
            Severity::Error,
            format!("constraint `{name}` cannot be compiled: {msg}"),
        ),
        other => Diagnostic::new("L0001", Severity::Error, other.to_string()),
    };
    d.with_span(span)
}
