//! # gom-core — the flexible schema manager
//!
//! The paper's primary contribution: a schema manager whose consistency
//! definition is *declarative* data, not code. The generic architecture
//! (paper Fig. 1) is wired here:
//!
//! * the **Analyzer** (`gom-analyzer`) maps user schema updates to base-
//!   predicate changes,
//! * the **Runtime System** (`gom-runtime`) keeps the Object Base Model
//!   faithful and executes conversions and masking,
//! * the **Consistency Control** is the deductive database
//!   (`gom-deductive`) loaded with the GOM rules and constraints
//!   ([`consistency`]),
//! * evolution sessions ([`manager::SchemaManager`]) implement the paper's
//!   §3.5 nine-step protocol: *BES* … *EES*, deferred checking, violation
//!   reports, generated repairs with explanations, and rollback.

#![warn(missing_docs)]

pub mod consistency;
pub mod durable;
pub mod explain;
pub mod manager;

pub use consistency::{install, GOM_CONSTRAINTS, GOM_RULES, SINGLE_INHERITANCE_CONSTRAINT};
pub use durable::{OpenError, RecoveryReport};
pub use explain::{explain_op, ExplainedRepair};
pub use gom_impact::{ClassifiedOp, Footprint, ImpactIndex, PlanConfig, PlanReport};
pub use manager::{DefineError, EvolutionOutcome, SchemaManager};
