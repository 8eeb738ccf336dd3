//! End-to-end tests of the evolution-session protocol (paper §3.5) across
//! all components: deferred checking, repair execution, rollback, and the
//! decoupling of evolution operations from consistency.

use gomflex::prelude::*;

#[test]
fn full_protocol_walkthrough() {
    // The nine steps, in order.
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
    let s = mgr.meta.schema_by_name("CarSchema").unwrap();
    let car = mgr.meta.type_by_name(s, "Car").unwrap();
    mgr.create_object(car).unwrap();

    // 1. the user starts a schema evolution session
    mgr.begin_evolution().unwrap();
    assert!(mgr.in_evolution());
    // 2.+3. the user proposes changes; the Analyzer/typed API extracts the
    //        base-predicate changes
    let string = mgr.meta.builtins.string;
    mgr.meta.add_attr(car, "fuelType", string).unwrap();
    // 4. the Consistency Control performs a consistency check
    let outcome = mgr.end_evolution().unwrap();
    // 5./6. a violation was detected; repairs on request
    let violations = outcome.violations().to_vec();
    assert_eq!(violations.len(), 1);
    let repairs = mgr.repairs_for(&violations[0]).unwrap();
    // 7. explanations from Analyzer/Runtime vocabulary
    assert!(repairs.iter().all(|r| !r.explanations.is_empty()));
    // 8. the user chooses (conversion)…
    let conversion = repairs
        .iter()
        .find(|r| r.repair.kind == RepairKind::CompleteConclusion)
        .unwrap()
        .repair
        .clone();
    // 9. …and the Consistency Control initiates its execution.
    let outcome = mgr
        .execute_repair(&conversion, Value::Str("unleaded".into()))
        .unwrap();
    assert!(outcome.is_consistent());
    assert!(!mgr.in_evolution());
    assert!(mgr.check().unwrap().is_empty());
}

#[test]
fn deferred_checking_allows_temporarily_inconsistent_states() {
    // The §2.1 motivating example: adding an argument requires several
    // primitive steps; intermediate states are inconsistent but never
    // observed because checking happens at EES only.
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(
        "schema S is
           type T is
           operations
             declare f : int -> int;
           implementation
             define f(x) is begin return x; end define f;
           end type T;
         end schema S;",
    )
    .unwrap();
    let s = mgr.meta.schema_by_name("S").unwrap();
    let t = mgr.meta.type_by_name(s, "T").unwrap();
    let (d, _, _) = mgr.meta.decls_of(t)[0];

    mgr.begin_evolution().unwrap();
    // Step A: add the ArgDecl — mid-session the implementation has fewer
    // parameters than the declaration, but nobody checks yet.
    let int = mgr.meta.builtins.int;
    mgr.meta.add_argdecl(d, 2, int).unwrap();
    // Step B: record the new parameter name for the implementation.
    let (cid, _) = mgr.meta.code_of(d).unwrap();
    let cp = mgr.meta.db.pred_id("CodeParam").unwrap();
    let pname = mgr.meta.db.constant("y");
    mgr.meta
        .db
        .insert(
            cp,
            vec![cid.constant(), gomflex::deductive::Const::Int(2), pname],
        )
        .unwrap();
    let outcome = mgr.end_evolution().unwrap();
    assert!(outcome.is_consistent(), "{:?}", outcome.violations());
}

#[test]
fn rollback_after_partial_complex_operation() {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
    let before = mgr.meta.db.fact_count();
    let s = mgr.meta.schema_by_name("CarSchema").unwrap();
    let person = mgr.meta.type_by_name(s, "Person").unwrap();
    mgr.begin_evolution().unwrap();
    // A half-done change the user abandons.
    delete_type(&mut mgr, person, DeleteTypeSemantics::Orphan).unwrap();
    let t = mgr.meta.new_type(s, "Human").unwrap();
    let any = mgr.meta.builtins.any;
    mgr.meta.add_subtype(t, any).unwrap();
    assert!(!mgr.end_evolution().unwrap().is_consistent());
    mgr.rollback_evolution().unwrap();
    assert_eq!(mgr.meta.db.fact_count(), before);
    assert!(mgr.meta.type_by_name(s, "Person").is_some());
    assert!(mgr.meta.type_by_name(s, "Human").is_none());
    assert!(mgr.check().unwrap().is_empty());
}

#[test]
fn repairs_compose_over_multiple_rounds() {
    // Orphan-delete a referenced type, then repair violation by violation
    // until the schema is consistent again.
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(
        "schema S is
           type A is [ x : int; ] end type A;
           type B is [ a : A; ] end type B;
         end schema S;",
    )
    .unwrap();
    let s = mgr.meta.schema_by_name("S").unwrap();
    let a = mgr.meta.type_by_name(s, "A").unwrap();
    mgr.begin_evolution().unwrap();
    delete_type(&mut mgr, a, DeleteTypeSemantics::Orphan).unwrap();
    let mut outcome = mgr.end_evolution().unwrap();
    let mut rounds = 0;
    while let EvolutionOutcome::Inconsistent(violations) = &outcome {
        rounds += 1;
        assert!(rounds < 20, "repair loop did not converge");
        let v = violations[0].clone();
        let repairs = mgr.repairs_for(&v).unwrap();
        // Prefer deletions (cleaning up the danglers) over re-inserting.
        let pick = repairs
            .iter()
            .find(|r| r.repair.kind == RepairKind::InvalidatePremise)
            .unwrap_or(&repairs[0])
            .repair
            .clone();
        outcome = mgr.execute_repair(&pick, Value::Null).unwrap();
    }
    assert!(mgr.check().unwrap().is_empty());
    // The dangling references are gone.
    let b = mgr.meta.type_by_name(s, "B").unwrap();
    assert!(mgr.meta.attrs_of(b).is_empty());
}

#[test]
fn check_delta_matches_full_check_for_session_changes() {
    // On a database that was consistent at BES, the incremental check must
    // find exactly the violations the full check finds.
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
    let s = mgr.meta.schema_by_name("CarSchema").unwrap();
    let car = mgr.meta.type_by_name(s, "Car").unwrap();
    mgr.create_object(car).unwrap();
    assert!(mgr.check().unwrap().is_empty());

    mgr.begin_evolution().unwrap();
    let string = mgr.meta.builtins.string;
    mgr.meta.add_attr(car, "fuelType", string).unwrap();
    let ghost = TypeId(mgr.meta.db.intern("tid_ghost"));
    mgr.meta.add_attr(car, "phantom", ghost).unwrap();
    let delta = mgr.meta.db.session_delta().unwrap();
    let mut incremental: Vec<String> = mgr
        .meta
        .db
        .check_delta(&delta)
        .unwrap()
        .iter()
        .map(|v| v.render(&mgr.meta.db))
        .collect();
    let mut full: Vec<String> = mgr
        .meta
        .db
        .check()
        .unwrap()
        .iter()
        .map(|v| v.render(&mgr.meta.db))
        .collect();
    incremental.sort();
    full.sort();
    assert_eq!(incremental, full);
    mgr.rollback_evolution().unwrap();
}

#[test]
fn sessions_fail_safely_on_db_errors() {
    let mut mgr = SchemaManager::new().unwrap();
    assert!(mgr.end_evolution().is_err()); // no session
    assert!(mgr.rollback_evolution().is_err());
    mgr.begin_evolution().unwrap();
    assert!(mgr.begin_evolution().is_err()); // nested
    mgr.rollback_evolution().unwrap();
}

#[test]
fn define_schema_is_atomic_per_source() {
    let mut mgr = SchemaManager::new().unwrap();
    // Second schema in the same source is broken (dangling supertype).
    let src = "
schema Good is type A is end type A; end schema Good;
schema Bad is type B supertype Ghost is end type B; end schema Bad;";
    assert!(mgr.define_schema(src).is_err());
    // Nothing from the source survives — not even the good schema.
    assert!(mgr.meta.schema_by_name("Good").is_none());
    assert!(mgr.meta.schema_by_name("Bad").is_none());
    assert!(mgr.check().unwrap().is_empty());
}

#[test]
fn rolled_back_define_leaves_no_trace_in_the_analyzer() {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema("schema Child is end schema Child;")
        .unwrap();
    mgr.begin_evolution().unwrap();
    mgr.analyzer
        .lower_source(
            &mut mgr.meta,
            "schema P1 is subschema Child; end schema P1;",
        )
        .unwrap();
    mgr.rollback_evolution().unwrap();
    // P1's claim on Child went with the session: P2 may claim it now.
    mgr.define_schema("schema P2 is subschema Child; end schema P2;")
        .unwrap();
    let h = mgr.analyzer.hierarchy();
    assert!(!h.defs.contains_key("P1"));
    assert_eq!(h.parent.get("Child").map(String::as_str), Some("P2"));
}

#[test]
fn failed_define_inside_a_session_leaves_no_facts() {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema("schema A is end schema A;").unwrap();
    mgr.begin_evolution().unwrap();
    // Pass 1 creates `S`, then fails on the duplicate `A`.
    let err = mgr
        .analyzer
        .lower_source(
            &mut mgr.meta,
            "schema S is end schema S; schema A is end schema A;",
        )
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    assert!(
        mgr.meta.schema_by_name("S").is_none(),
        "the failed source's earlier passes must be undone"
    );
    assert!(mgr.in_evolution(), "the session stays open");
    assert!(mgr.end_evolution().unwrap().is_consistent());
    assert!(mgr.meta.schema_by_name("S").is_none());
    // Base and Analyzer agree: `S` exists in neither, so it can be
    // defined, and then claimed as a subschema.
    mgr.define_schema("schema S is end schema S;").unwrap();
    mgr.define_schema("schema P is subschema S; end schema P;")
        .unwrap();
    assert!(mgr.check().unwrap().is_empty());
}

/// A shadowed attribute (`x` on both `A` and its subtype `B`) lints as
/// L0502, a warning.
const SHADOW_SCHEMA_SRC: &str = "\
schema ShadowSchema is
  type A is
    [ x : string; ]
  end type A;
  type B supertype A is
    [ x : string; ]
  end type B;
end schema ShadowSchema;
";

#[test]
fn define_schema_refused_by_the_lint_gate_closes_its_session() {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.set_lint_gate(Some(Severity::Warn));
    let err = mgr.define_schema(SHADOW_SCHEMA_SRC).unwrap_err();
    assert!(
        matches!(err, DefineError::Db(_)) && err.to_string().contains("lint gate (warn)"),
        "unexpected: {err}"
    );
    assert!(
        !mgr.in_evolution(),
        "a refused commit must close the session"
    );
    assert!(mgr.meta.schema_by_name("ShadowSchema").is_none());
    mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
    assert!(mgr.meta.schema_by_name("CarSchema").is_some());
}
