//! # gomflex — flexible schema management for object bases
//!
//! A complete reproduction of *Moerkotte & Zachmann, "Towards More Flexible
//! Schema Management in Object Bases" (ICDE 1993)*: a schema manager for
//! the GOM object model whose notion of consistency is a **declarative
//! document** fed to a deductive database, whose evolution operations are
//! **decoupled from consistency** (checked only at the end of evolution
//! sessions), and whose inconsistencies come with **generated repairs**.
//!
//! ## Crates
//!
//! | crate | paper component |
//! |---|---|
//! | [`deductive`] | the deductive database (rules, constraints, repairs) |
//! | [`model`] | the Database Model (schema base + object base model) |
//! | [`analyzer`] | the Analyzer (GOM front end, code analysis, lowering) |
//! | [`runtime`] | the Runtime System (objects, interpretation, conversion, masking) |
//! | [`core`] | the Consistency Control + session protocol (the contribution) |
//! | [`evolution`] | primitive/complex evolution ops, versioning, baselines |
//! | [`lint`] | gom-lint: multi-pass static analysis with structured diagnostics |
//! | [`impact`] | gom-impact: meta-EDB reflection, impact footprints, pre-EES commit planning |
//! | [`obs`] | gom-obs: spans, counters, histograms, JSONL tracing |
//! | [`server`] | gomd: concurrent schema service (epoch snapshots, gom-wire/v1) |
//!
//! ## Quickstart
//!
//! ```
//! use gomflex::prelude::*;
//!
//! let mut mgr = SchemaManager::new().unwrap();
//! mgr.define_schema(CAR_SCHEMA_SRC).unwrap();           // paper §3.1
//! assert!(mgr.check().unwrap().is_empty());
//!
//! // §3.5: an evolution session that needs a repair.
//! let sid = mgr.meta.schema_by_name("CarSchema").unwrap();
//! let car = mgr.meta.type_by_name(sid, "Car").unwrap();
//! mgr.create_object(car).unwrap();
//! mgr.begin_evolution().unwrap();
//! let string = mgr.meta.builtins.string;
//! mgr.meta.add_attr(car, "fuelType", string).unwrap();
//! let outcome = mgr.end_evolution().unwrap();
//! assert!(!outcome.is_consistent());
//! let repairs = mgr.repairs_for(&outcome.violations()[0]).unwrap();
//! assert_eq!(repairs.len(), 3); // the paper's three repairs
//! mgr.rollback_evolution().unwrap();
//! ```

pub use gom_analyzer as analyzer;
pub use gom_core as core;
pub use gom_deductive as deductive;
pub use gom_evolution as evolution;
pub use gom_impact as impact;
pub use gom_lint as lint;
pub use gom_model as model;
pub use gom_obs as obs;
pub use gom_runtime as runtime;
pub use gom_server as server;
pub use gom_store as store;

/// One-stop imports for applications.
pub mod prelude {
    pub use gom_analyzer::car_schema::{
        CAR_SCHEMA_SRC, COMPANY_SCHEMA_SRC, NEW_CAR_SCHEMA_TYPES_SRC,
    };
    pub use gom_analyzer::lower::Analyzer;
    pub use gom_core::{DefineError, EvolutionOutcome, OpenError, RecoveryReport, SchemaManager};
    pub use gom_deductive::{Database, Repair, RepairKind, Violation};
    pub use gom_evolution::{
        add_argument, add_argument_plan, copy_type_into, cure_add_attr, delete_type, fixed_check,
        install_versioning, record_schema_evolution, record_type_evolution, CurePolicy,
        DeleteTypeSemantics, Primitive,
    };
    pub use gom_impact::{ImpactIndex, PlanConfig, PlanReport};
    pub use gom_lint::{
        lint_database, lint_source, render_report, Baseline, Diagnostic, LintConfig, LintReport,
        Severity,
    };
    pub use gom_model::{DeclId, MetaModel, Oid, SchemaId, TypeId};
    pub use gom_runtime::{Runtime, Value, ValueSource};
    pub use gom_store::SyncPolicy;
}
