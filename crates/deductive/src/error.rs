//! Error type for the deductive engine.

use std::fmt;

/// Errors raised by the deductive database.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// A predicate name was used but never declared.
    UnknownPredicate(String),
    /// A predicate was declared twice with conflicting shape.
    PredicateRedeclared(String),
    /// Arity mismatch between a declaration and a use site.
    ArityMismatch {
        /// Predicate name.
        pred: String,
        /// Declared arity.
        declared: usize,
        /// Arity at the offending use.
        used: usize,
    },
    /// A rule head refers to a base (extensional) predicate.
    HeadIsBase(String),
    /// A fact was inserted into or removed from a derived predicate.
    MutatingDerived(String),
    /// A rule or compiled constraint is not range-restricted.
    UnsafeRule {
        /// Rendered rule for diagnostics.
        rule: String,
        /// The offending variable name (or index).
        var: String,
    },
    /// Negation occurs in a recursive cycle: no stratification exists.
    /// Carries the shortest witness cycle, e.g. `P -> not Q -> P`.
    NotStratifiable(String),
    /// Syntax error in the rule/constraint text DSL.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Column number (1-based).
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// A constraint failed to compile (e.g. premise does not bind all
    /// quantified variables).
    BadConstraint {
        /// Constraint name.
        name: String,
        /// What went wrong.
        msg: String,
    },
    /// An evolution session operation was used out of protocol (e.g. nested
    /// `begin`, or `commit` without `begin`).
    SessionProtocol(String),
    /// A rule evaluation panicked. The panic is contained per work item of
    /// the fixpoint or constraint scan; the database keeps its base facts
    /// and any open session stays open (and rollbackable), but derived
    /// facts from the failed run are discarded.
    EvalPanic(String),
    /// An error with a source position attached (1-based line/column).
    /// Wraps errors that carry no position of their own, so every load
    /// error can name where in the source text it happened.
    At {
        /// Line number (1-based).
        line: usize,
        /// Column number (1-based).
        col: usize,
        /// The underlying error.
        source: Box<Error>,
    },
}

impl Error {
    /// Attach a position unless the error already carries one.
    pub fn at(self, line: usize, col: usize) -> Error {
        if self.position().is_some() {
            self
        } else {
            Error::At {
                line,
                col,
                source: Box::new(self),
            }
        }
    }

    /// The source position, when known.
    pub fn position(&self) -> Option<(usize, usize)> {
        match self {
            Error::Parse { line, col, .. } | Error::At { line, col, .. } => Some((*line, *col)),
            _ => None,
        }
    }

    /// The underlying error, stripped of any position wrapper.
    pub fn root(&self) -> &Error {
        match self {
            Error::At { source, .. } => source.root(),
            other => other,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownPredicate(p) => write!(f, "unknown predicate `{p}`"),
            Error::PredicateRedeclared(p) => {
                write!(f, "predicate `{p}` redeclared with a different shape")
            }
            Error::ArityMismatch {
                pred,
                declared,
                used,
            } => write!(
                f,
                "predicate `{pred}` declared with arity {declared} but used with arity {used}"
            ),
            Error::HeadIsBase(p) => write!(f, "rule head `{p}` is a base predicate"),
            Error::MutatingDerived(p) => {
                write!(f, "cannot insert into/delete from derived predicate `{p}`")
            }
            Error::UnsafeRule { rule, var } => {
                write!(
                    f,
                    "rule `{rule}` is not range-restricted: variable {var} unbound"
                )
            }
            Error::NotStratifiable(cycle) => write!(
                f,
                "program is not stratifiable: negation occurs in the cycle {cycle}"
            ),
            Error::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            Error::BadConstraint { name, msg } => {
                write!(f, "constraint `{name}` cannot be compiled: {msg}")
            }
            Error::SessionProtocol(msg) => write!(f, "session protocol violation: {msg}"),
            Error::EvalPanic(msg) => write!(f, "rule evaluation panicked: {msg}"),
            Error::At { line, col, source } => write!(f, "at {line}:{col}: {source}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
