//! Baseline schema managers for comparison (paper §1's survey).
//!
//! * [`fixed_check`] — an **Orion-style fixed schema manager** (Banerjee et
//!   al. \[2\]): the invariants are hard-coded procedures over the meta
//!   model. It is faster than the deductive checker by a constant factor
//!   but *closed*: adding a new notion of consistency means editing and
//!   recompiling this module, which is precisely the inflexibility the
//!   paper argues against. The benchmark `declarative_vs_fixed` measures
//!   the price of flexibility.
//! * [`CurePolicy`] — the **O2 vs ENCORE** cure debate (Zicari \[25\] vs
//!   Skarra & Zdonik \[22\]): repair schema/object inconsistency by
//!   *immediate conversion* of all instances, or by *masking* every access.
//!   [`cure_add_attr`] performs the same logical change (`age` →
//!   `birthday`-style attribute replacement) under either policy so the
//!   crossover can be measured.

use gom_core::{DefineError, SchemaManager};
use gom_deductive::FxHashSet;
use gom_model::{MetaModel, TypeId};
use gom_runtime::{Value, ValueSource};

/// Procedural (hard-coded) consistency check implementing the same core
/// invariants as the declarative catalog. Returns violation descriptions.
pub fn fixed_check(m: &MetaModel) -> Vec<String> {
    let mut out = Vec::new();
    let db = &m.db;
    let cat = &m.cat;

    // --- collect extensions once -------------------------------------------------
    let types: Vec<(TypeId, String, gom_deductive::Const)> = db
        .relation(cat.ty)
        .iter()
        .map(|t| {
            (
                TypeId(t.get(0).as_sym().expect("tid")),
                db.resolve(t.get(1).as_sym().expect("name")).to_string(),
                t.get(2),
            )
        })
        .collect();
    let type_ids: FxHashSet<TypeId> = types.iter().map(|(t, _, _)| *t).collect();
    let schema_ids: FxHashSet<gom_deductive::Const> =
        db.relation(cat.schema).iter().map(|t| t.get(0)).collect();

    // --- uniqueness: type names per schema ----------------------------------------
    {
        let mut seen: std::collections::BTreeMap<(String, String), TypeId> = Default::default();
        for (tid, name, sid) in &types {
            let key = (name.clone(), format!("{:?}", sid));
            if let Some(prev) = seen.insert(key, *tid) {
                if prev != *tid {
                    out.push(format!("duplicate type name `{name}` within one schema"));
                }
            }
        }
    }

    // --- referential integrity ----------------------------------------------------
    for (_, name, sid) in &types {
        if !schema_ids.contains(sid) {
            out.push(format!("type `{name}` references a missing schema"));
        }
    }
    for t in db.relation(cat.attr).iter() {
        let ty = TypeId(t.get(0).as_sym().expect("tid"));
        let dom = TypeId(t.get(2).as_sym().expect("tid"));
        if !type_ids.contains(&ty) {
            out.push(format!(
                "attribute {} on missing type",
                t.display(db.interner())
            ));
        }
        if !type_ids.contains(&dom) {
            out.push(format!(
                "attribute {} has undefined domain",
                t.display(db.interner())
            ));
        }
    }
    let mut decl_ids: FxHashSet<gom_deductive::Const> = FxHashSet::default();
    for t in db.relation(cat.decl).iter() {
        decl_ids.insert(t.get(0));
        for (col, what) in [(1usize, "receiver"), (3, "result")] {
            let ty = TypeId(t.get(col).as_sym().expect("tid"));
            if !type_ids.contains(&ty) {
                out.push(format!(
                    "declaration {} has undefined {what}",
                    t.display(db.interner())
                ));
            }
        }
    }
    for t in db.relation(cat.argdecl).iter() {
        if !decl_ids.contains(&t.get(0)) {
            out.push(format!(
                "argument declaration {} on missing declaration",
                t.display(db.interner())
            ));
        }
        let ty = TypeId(t.get(2).as_sym().expect("tid"));
        if !type_ids.contains(&ty) {
            out.push(format!(
                "argument {} has undefined type",
                t.display(db.interner())
            ));
        }
    }
    // decl-has-code + code-decl-ref + 1:1
    let mut decls_with_code: FxHashSet<gom_deductive::Const> = FxHashSet::default();
    for t in db.relation(cat.code).iter() {
        let d = t.get(2);
        if !decl_ids.contains(&d) {
            out.push(format!(
                "code {} implements a missing declaration",
                t.display(db.interner())
            ));
        }
        if !decls_with_code.insert(d) {
            out.push(format!(
                "declaration {} has more than one implementation",
                d.display(db.interner())
            ));
        }
    }
    for d in &decl_ids {
        if !decls_with_code.contains(d) {
            out.push(format!(
                "declaration {} has no implementation",
                d.display(db.interner())
            ));
        }
    }

    // --- subtype graph: references, acyclicity, rootedness -------------------------
    let mut supers: std::collections::BTreeMap<TypeId, Vec<TypeId>> = Default::default();
    for t in db.relation(cat.subtyp).iter() {
        let sub = TypeId(t.get(0).as_sym().expect("tid"));
        let sup = TypeId(t.get(1).as_sym().expect("tid"));
        for side in [sub, sup] {
            if !type_ids.contains(&side) {
                out.push(format!(
                    "subtype edge {} references a missing type",
                    t.display(db.interner())
                ));
            }
        }
        supers.entry(sub).or_default().push(sup);
    }
    // DFS cycle check + reachability of ANY
    let any = m.builtins.any;
    for &start in &type_ids {
        let mut stack = vec![start];
        let mut seen: FxHashSet<TypeId> = FxHashSet::default();
        let mut reaches_any = start == any;
        while let Some(x) = stack.pop() {
            for &s in supers.get(&x).map_or(&[][..], Vec::as_slice) {
                if s == start {
                    out.push(format!(
                        "subtype cycle through `{}`",
                        m.type_name(start).unwrap_or_default()
                    ));
                    continue;
                }
                if s == any {
                    reaches_any = true;
                }
                if seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        if !reaches_any {
            out.push(format!(
                "type `{}` is not rooted in ANY",
                m.type_name(start).unwrap_or_default()
            ));
        }
    }

    // --- inherited attribute uniqueness ----------------------------------------------
    for &t in &type_ids {
        let mut domains: std::collections::BTreeMap<String, TypeId> = Default::default();
        for (a, d) in m.attrs_inherited(t) {
            if let Some(prev) = domains.insert(a.clone(), d) {
                if prev != d {
                    out.push(format!(
                        "type `{}` inherits attribute `{a}` with two domains",
                        m.type_name(t).unwrap_or_default()
                    ));
                }
            }
        }
    }

    // --- contravariance -----------------------------------------------------------------
    for t in db.relation(cat.declref).iter() {
        let refining = gom_model::DeclId(t.get(0).as_sym().expect("did"));
        let refined = gom_model::DeclId(t.get(1).as_sym().expect("did"));
        let (Some((rc, rn, rr)), Some((oc, on, or_))) =
            (m.decl_info(refining), m.decl_info(refined))
        else {
            continue; // dangling edge already reported
        };
        if rn != on {
            out.push(format!("refinement renames `{on}` to `{rn}`"));
        }
        let subtype_of =
            |a: TypeId, b: TypeId| -> bool { a == b || m.supertypes_transitive(a).contains(&b) };
        if !subtype_of(rc, oc) {
            out.push(format!("refinement of `{on}` on a non-subtype receiver"));
        }
        if !subtype_of(rr, or_) {
            out.push(format!("refinement of `{on}` widens the result type"));
        }
        let a1 = m.args_of(refined);
        let a2 = m.args_of(refining);
        if a1.len() != a2.len() {
            out.push(format!("refinement of `{on}` changes the argument count"));
        }
        for ((_, t1), (_, t2)) in a1.iter().zip(a2.iter()) {
            if !subtype_of(*t1, *t2) {
                out.push(format!(
                    "refinement of `{on}` violates contravariance on a parameter"
                ));
            }
        }
    }

    // --- schema/object consistency -----------------------------------------------------
    let mut phrep_types: FxHashSet<TypeId> = FxHashSet::default();
    for t in db.relation(cat.phrep).iter() {
        let ty = TypeId(t.get(1).as_sym().expect("tid"));
        if !type_ids.contains(&ty) {
            out.push(format!(
                "physical representation {} of a missing type",
                t.display(db.interner())
            ));
        }
        if !phrep_types.insert(ty) {
            out.push(format!(
                "type `{}` has two physical representations",
                m.type_name(ty).unwrap_or_default()
            ));
        }
    }
    for t in db.relation(cat.phrep).iter() {
        let ty = TypeId(t.get(1).as_sym().expect("tid"));
        let clid = gom_model::PhRepId(t.get(0).as_sym().expect("clid"));
        let slots = m.slots_of(clid);
        for (a, ta) in m.attrs_inherited(ty) {
            match slots.iter().find(|(n, _)| *n == a) {
                None => out.push(format!(
                    "representation of `{}` lacks a slot for `{a}`",
                    m.type_name(ty).unwrap_or_default()
                )),
                Some((_, val)) => {
                    // slot value must be the representation of the domain
                    let dom_rep = m.phrep_of(ta);
                    if dom_rep != Some(*val) {
                        out.push(format!(
                            "slot `{a}` of `{}` refers to the wrong representation",
                            m.type_name(ty).unwrap_or_default()
                        ));
                    }
                }
            }
        }
        for (a, _) in &slots {
            if !m.attrs_inherited(ty).iter().any(|(n, _)| n == a) {
                out.push(format!(
                    "stray slot `{a}` on `{}`",
                    m.type_name(ty).unwrap_or_default()
                ));
            }
        }
    }

    out.sort();
    out
}

/// A schema manager that checks consistency **immediately after every
/// primitive operation** and refuses any operation leaving the schema
/// inconsistent — the behaviour of fixed-operation systems the paper
/// argues against in §2.1:
///
/// > "allowing only schema evolution operations which guarantee in all
/// > situations the consistency of the resulting modified schema results
/// > in an unacceptable restriction … no such schema evolution operation
/// > (for adding an argument to an existing and used operation) which
/// > preserves consistency in all cases can be defined."
///
/// The integration test `evolution_decoupling` demonstrates that argument
/// addition is *impossible* under this manager and routine under the
/// session-based one.
pub struct ImmediateCheckManager {
    /// The wrapped session-based manager (used only as a database holder).
    pub inner: SchemaManager,
}

impl ImmediateCheckManager {
    /// Wrap a consistent manager.
    pub fn new(inner: SchemaManager) -> Self {
        ImmediateCheckManager { inner }
    }

    /// Apply one primitive; if the result is inconsistent, revert it and
    /// refuse.
    pub fn apply(
        &mut self,
        p: &crate::primitive::Primitive,
    ) -> Result<crate::primitive::PrimitiveResult, String> {
        self.inner
            .autocommit(|mgr| crate::primitive::apply(&mut mgr.meta, p))
            .map(|(result, _)| result)
            .map_err(|e| match e {
                DefineError::Inconsistent(msgs) => {
                    format!("operation refused: {}", msgs.join("; "))
                }
                e => e.to_string(),
            })
    }
}

/// Inconsistency cures for the schema/object gap after an attribute change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CurePolicy {
    /// O2-style: convert every instance immediately (pay once, up front).
    ImmediateConversion,
    /// ENCORE-style: leave instances untouched; mask accesses through
    /// version substitution (pay per access).
    Masking,
}

/// Perform "add attribute `attr` to `ty` with default `default`" under the
/// chosen cure. Under conversion the type itself is extended and all
/// instances converted; under masking a *new type version* carrying the
/// attribute is created in a new schema version and the old instances are
/// made substitutable via fashion. Returns the type whose instances should
/// now be accessed (the same type for conversion, the new version for
/// masking).
pub fn cure_add_attr(
    mgr: &mut SchemaManager,
    ty: TypeId,
    attr: &str,
    domain: TypeId,
    default: Value,
    policy: CurePolicy,
) -> Result<TypeId, Box<dyn std::error::Error>> {
    match policy {
        CurePolicy::ImmediateConversion => {
            mgr.autocommit(|mgr| -> Result<(), Box<dyn std::error::Error>> {
                mgr.meta.add_attr(ty, attr, domain)?;
                mgr.runtime.convert_add_slot(
                    &mut mgr.meta,
                    ty,
                    attr,
                    domain,
                    ValueSource::Default(default),
                )?;
                Ok(())
            })?;
            Ok(ty)
        }
        CurePolicy::Masking => {
            // Fashion: old instances substitute for the new version. The
            // new attribute reads the default, so it must have a source form.
            let default_src = match &default {
                Value::Int(n) => n.to_string(),
                Value::Float(x) => format!("{x:?}"),
                Value::Str(s) => format!("\"{s}\""),
                other => return Err(format!("unsupported default {other}").into()),
            };
            crate::versioning::install(mgr)?;
            let old_schema = mgr.meta.schema_of(ty).ok_or("type has no schema")?;
            let old_name = mgr.meta.type_name(ty).ok_or("type has no name")?;
            let schema_name = {
                let rel = mgr
                    .meta
                    .db
                    .relation(mgr.meta.cat.schema)
                    .select(&[(0, old_schema.constant())]);
                let mut rel = rel;
                let sym = rel
                    .next()
                    .and_then(|t| t.get(1).as_sym())
                    .ok_or("schema has no name")?;
                mgr.meta.db.resolve(sym).to_string()
            };
            let (new_ty, _) = mgr.autocommit(|mgr| -> Result<_, Box<dyn std::error::Error>> {
                let new_schema_name = format!("{schema_name}_v2_{attr}");
                let new_schema = mgr.meta.new_schema(&new_schema_name)?;
                let new_ty = crate::complex::copy_type_into(mgr, ty, new_schema, &old_name)
                    .map_err(|e| e.to_string())?;
                let any = mgr.meta.builtins.any;
                mgr.meta.add_subtype(new_ty, any)?;
                mgr.meta.add_attr(new_ty, attr, domain)?;
                crate::versioning::record_schema_evolution(mgr, old_schema, new_schema)?;
                crate::versioning::record_type_evolution(mgr, ty, new_ty)?;
                // Every attribute of the new version is redirected; the new
                // attribute is read-only on old objects.
                let mut fashion = format!(
                    "fashion {old_name}@{schema_name} as {old_name}@{new_schema_name} where\n"
                );
                for (a, _) in mgr.meta.attrs_inherited(ty) {
                    fashion.push_str(&format!("  {a} : -> ANY is self.{a};\n"));
                    fashion.push_str(&format!(
                        "  {a} : <- ANY is begin self.{a} := value; end;\n"
                    ));
                }
                fashion.push_str(&format!("  {attr} : -> ANY is {default_src};\n"));
                fashion.push_str("end fashion;\n");
                mgr.analyzer
                    .lower_source(&mut mgr.meta, &fashion)
                    .map_err(|e| e.to_string())?;
                Ok(new_ty)
            })?;
            Ok(new_ty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gom_analyzer::car_schema::CAR_SCHEMA_SRC;

    #[test]
    fn fixed_check_agrees_with_declarative_on_consistent_schema() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        assert!(mgr.check().unwrap().is_empty());
        assert!(fixed_check(&mgr.meta).is_empty());
    }

    #[test]
    fn fixed_check_agrees_on_violations() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let s = mgr.meta.schema_by_name("CarSchema").unwrap();
        let car = mgr.meta.type_by_name(s, "Car").unwrap();
        // Same scenario as the paper's §3.5: add attribute, no slot.
        mgr.create_object(car).unwrap();
        mgr.begin_evolution().unwrap();
        let string = mgr.meta.builtins.string;
        mgr.meta.add_attr(car, "fuelType", string).unwrap();
        let declarative = mgr.meta.db.check().unwrap();
        let fixed = fixed_check(&mgr.meta);
        assert!(!declarative.is_empty());
        assert!(
            fixed.iter().any(|v| v.contains("lacks a slot")),
            "{fixed:?}"
        );
        mgr.rollback_evolution().unwrap();
    }

    #[test]
    fn fixed_check_cannot_express_new_policies() {
        // The point of the comparison: single-inheritance is one line for
        // the declarative manager and a code change for the fixed one.
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(
            "schema S is
               type A is end type A;
               type B is end type B;
               type C supertype A, B is end type C;
             end schema S;",
        )
        .unwrap();
        mgr.add_consistency(gom_core::SINGLE_INHERITANCE_CONSTRAINT)
            .unwrap();
        let declarative = mgr.check().unwrap();
        assert!(declarative
            .iter()
            .any(|v| v.constraint == "single_inheritance"));
        // fixed_check has no such invariant and reports nothing.
        assert!(fixed_check(&mgr.meta).is_empty());
    }

    #[test]
    fn masking_cure_with_unsupported_default_changes_nothing() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        let s = mgr.meta.schema_by_name("CarSchema").unwrap();
        let car = mgr.meta.type_by_name(s, "Car").unwrap();
        let boolean = mgr.meta.builtins.bool_;
        let before = mgr.meta.db.debug_state_digest();
        let err = cure_add_attr(
            &mut mgr,
            car,
            "isElectric",
            boolean,
            Value::Bool(true),
            CurePolicy::Masking,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unsupported default"), "{err}");
        assert!(!mgr.in_evolution(), "no session may be left open");
        assert_eq!(mgr.meta.db.debug_state_digest(), before);
    }

    #[test]
    fn cures_produce_equivalent_observable_values() {
        for policy in [CurePolicy::ImmediateConversion, CurePolicy::Masking] {
            let mut mgr = SchemaManager::new().unwrap();
            mgr.define_schema(
                "schema S is type Car is [ milage : float; ] end type Car; end schema S;",
            )
            .unwrap();
            let s = mgr.meta.schema_by_name("S").unwrap();
            let car = mgr.meta.type_by_name(s, "Car").unwrap();
            let oid = mgr.create_object(car).unwrap();
            let string = mgr.meta.builtins.string;
            let _target = cure_add_attr(
                &mut mgr,
                car,
                "fuelType",
                string,
                Value::Str("unleaded".into()),
                policy,
            )
            .unwrap();
            // The old object answers the new attribute either way.
            assert_eq!(
                mgr.get_attr(oid, "fuelType").unwrap(),
                Value::Str("unleaded".into()),
                "policy {policy:?}"
            );
            assert!(mgr.check().unwrap().is_empty(), "policy {policy:?}");
        }
    }
}
