//! # gom-deductive — the deductive database substrate
//!
//! A from-scratch deductive database in the style the paper's Consistency
//! Control relies on (Moerkotte & Zachmann, ICDE 1993, and their refs
//! [18–20]):
//!
//! * **EDB** — extensional base predicates with declared arities, optional
//!   keys, and journalled updates (`+`/`−` operations, evolution sessions
//!   with rollback),
//! * **IDB** — Datalog rules with stratified negation, evaluated bottom-up
//!   with the semi-naive strategy,
//! * **CDB** — consistency constraints stated declaratively as closed
//!   range-restricted first-order formulas, compiled into violation rules
//!   by a guarded Lloyd–Topor transformation,
//! * **repairs** — generated per violation from derivation trees: delete a
//!   supporting base fact (premise invalidation) or insert the missing base
//!   facts (conclusion completion, binding existentials against the current
//!   database).
//!
//! ```
//! use gom_deductive::Database;
//!
//! let mut db = Database::new();
//! db.load(
//!     "base SubTypRel(sub, super).
//!      derived SubTypRelT(sub, super).
//!      SubTypRelT(X, Y) :- SubTypRel(X, Y).
//!      SubTypRelT(X, Z) :- SubTypRel(X, Y), SubTypRelT(Y, Z).
//!      constraint subtype_acyclic \"subtype graph must be acyclic\":
//!        forall X: !SubTypRelT(X, X).",
//! ).unwrap();
//! let p = db.pred_id("SubTypRel").unwrap();
//! let (person, any) = (db.constant("Person"), db.constant("ANY"));
//! db.insert(p, vec![person, any]).unwrap();
//! assert!(db.check().unwrap().is_empty());
//! db.insert(p, vec![any, person]).unwrap();
//! let violations = db.check().unwrap();
//! assert_eq!(violations.len(), 2); // X=Person and X=ANY both witness a cycle
//! let repairs = db.repairs(&violations[0]).unwrap();
//! assert!(!repairs.is_empty());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod changes;
mod check;
mod compile;
pub mod constraint;
mod db;
mod error;
mod eval;
pub mod incr;
pub mod parse;
mod plan;
pub mod pred;
pub mod provenance;
mod relation;
mod repair;
mod storage;
mod stratify;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use changes::{ChangeSet, Op};
pub use check::Violation;
pub use compile::ProgramView;
pub use constraint::{Constraint, Formula};
pub use db::{Database, SourceInfo};
pub use error::{Error, Result};
pub use parse::{parse_program_lenient, LenientReport};
pub use pred::{PredId, PredKind};
pub use provenance::Derivation;
pub use relation::{BucketIter, Matches, Relation};
pub use repair::{Repair, RepairKind};
pub use storage::debug_tuple_copies;
pub use stratify::{stratify, Stratification};
pub use symbol::{FxHashMap, FxHashSet, Interner, Symbol};
pub use tuple::{Row, Tuple};
pub use value::Const;
