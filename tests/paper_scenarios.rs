//! Integration tests asserting the paper's concrete artifacts row by row
//! (the experiment index F1–F3/T1–T6 of DESIGN.md).

use gomflex::prelude::*;

fn car_manager() -> SchemaManager {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
    mgr
}

fn tid(mgr: &SchemaManager, name: &str) -> TypeId {
    let s = mgr.meta.schema_by_name("CarSchema").unwrap();
    mgr.meta.type_by_name(s, name).unwrap()
}

// ---------- F2: Figure 2 ---------------------------------------------------------

#[test]
fn f2_type_extension_rows() {
    let mgr = car_manager();
    let s = mgr.meta.schema_by_name("CarSchema").unwrap();
    let names: Vec<String> = mgr
        .meta
        .types_of_schema(s)
        .iter()
        .map(|&t| mgr.meta.type_name(t).unwrap())
        .collect();
    assert_eq!(names, vec!["Car", "City", "Location", "Person"]); // sorted
}

#[test]
fn f2_attr_extension_rows() {
    let mgr = car_manager();
    let person = tid(&mgr, "Person");
    let location = tid(&mgr, "Location");
    let city = tid(&mgr, "City");
    let car = tid(&mgr, "Car");
    let b = &mgr.meta.builtins;
    // Row for row, Figure 2's Attr table:
    assert_eq!(
        mgr.meta.attrs_of(person),
        vec![("age".into(), b.int), ("name".into(), b.string)]
    );
    assert_eq!(
        mgr.meta.attrs_of(location),
        vec![("lati".into(), b.float), ("longi".into(), b.float)]
    );
    assert_eq!(
        mgr.meta.attrs_of(city),
        vec![("name".into(), b.string), ("noOfInhabitants".into(), b.int)]
    );
    assert_eq!(
        mgr.meta.attrs_of(car),
        vec![
            ("location".into(), city),
            ("maxspeed".into(), b.float),
            ("milage".into(), b.float),
            ("owner".into(), person)
        ]
    );
}

#[test]
fn f2_decl_and_argdecl_rows() {
    let mgr = car_manager();
    let location = tid(&mgr, "Location");
    let city = tid(&mgr, "City");
    let car = tid(&mgr, "Car");
    let person = tid(&mgr, "Person");
    let b = &mgr.meta.builtins;
    let (d1, n1, r1) = mgr.meta.decls_of(location)[0].clone();
    assert_eq!((n1.as_str(), r1), ("distance", b.float));
    assert_eq!(mgr.meta.args_of(d1), vec![(1, location)]);
    let (d2, n2, r2) = mgr.meta.decls_of(city)[0].clone();
    assert_eq!((n2.as_str(), r2), ("distance", b.float));
    assert_eq!(mgr.meta.args_of(d2), vec![(1, location)]);
    let (d3, n3, r3) = mgr.meta.decls_of(car)[0].clone();
    assert_eq!((n3.as_str(), r3), ("changeLocation", b.float));
    assert_eq!(mgr.meta.args_of(d3), vec![(1, person), (2, city)]);
    // Code present for each (Figure 2's Code table).
    for d in [d1, d2, d3] {
        assert!(mgr.meta.code_of(d).is_some());
    }
}

// ---------- T1: relationship extensions --------------------------------------------

#[test]
fn t1_subtyprel_and_refinement_rows() {
    let mgr = car_manager();
    let location = tid(&mgr, "Location");
    let city = tid(&mgr, "City");
    assert_eq!(mgr.meta.supertypes(city), vec![location]);
    let (d_city, _, _) = mgr.meta.decls_of(city)[0];
    let (d_loc, _, _) = mgr.meta.decls_of(location)[0];
    assert_eq!(mgr.meta.refined_by(d_city), vec![d_loc]);
    assert_eq!(mgr.meta.refinements_of(d_loc), vec![d_city]);
}

#[test]
fn t1_codereq_rows_match_paper() {
    let mgr = car_manager();
    let location = tid(&mgr, "Location");
    let city = tid(&mgr, "City");
    let car = tid(&mgr, "Car");
    let (d_loc, _, _) = mgr.meta.decls_of(location)[0];
    let (d_city, _, _) = mgr.meta.decls_of(city)[0];
    let (d_car, _, _) = mgr.meta.decls_of(car)[0];
    let (cid1, _) = mgr.meta.code_of(d_loc).unwrap();
    let (cid2, _) = mgr.meta.code_of(d_city).unwrap();
    let (cid3, _) = mgr.meta.code_of(d_car).unwrap();
    let p = mgr.meta.db.pred_id("CodeReqAttr").unwrap();
    let rows = mgr.meta.db.facts_sorted(p);
    let expect = [
        (cid1.constant(), location.constant(), "longi"),
        (cid1.constant(), location.constant(), "lati"),
        (cid2.constant(), location.constant(), "longi"),
        (cid2.constant(), location.constant(), "lati"),
        (cid2.constant(), city.constant(), "name"),
        (cid3.constant(), car.constant(), "owner"),
        (cid3.constant(), car.constant(), "milage"),
        (cid3.constant(), car.constant(), "location"),
    ];
    for (c, t, a) in expect {
        let asym = mgr
            .meta
            .db
            .sym(a)
            .map(gomflex::deductive::Const::Sym)
            .unwrap();
        assert!(
            rows.iter()
                .any(|r| r.get(0) == c && r.get(1) == t && r.get(2) == asym),
            "missing CodeReqAttr row for {a}"
        );
    }
    // CodeReqDecl: paper's (cid2, did1); plus our extra (cid3, did_city).
    let p = mgr.meta.db.pred_id("CodeReqDecl").unwrap();
    let rows = mgr.meta.db.facts_sorted(p);
    assert!(rows
        .iter()
        .any(|r| r.get(0) == cid2.constant() && r.get(1) == d_loc.constant()));
    assert!(rows
        .iter()
        .any(|r| r.get(0) == cid3.constant() && r.get(1) == d_city.constant()));
    assert_eq!(rows.len(), 2);
}

// ---------- T2: object base model ------------------------------------------------

#[test]
fn t2_phrep_slot_rows() {
    let mut mgr = car_manager();
    for name in ["Person", "Location", "City", "Car"] {
        let t = tid(&mgr, name);
        mgr.create_object(t).unwrap();
    }
    assert!(mgr.check().unwrap().is_empty());
    let person = tid(&mgr, "Person");
    let city = tid(&mgr, "City");
    let car = tid(&mgr, "Car");
    let b = mgr.meta.builtins;
    let cl_person = mgr.meta.phrep_of(person).unwrap();
    let cl_city = mgr.meta.phrep_of(city).unwrap();
    let cl_car = mgr.meta.phrep_of(car).unwrap();
    // The paper's Slot table (plus City's inherited longi/lati, which the
    // paper's table actually omits but constraint (*) requires — the
    // paper's own consistent-extension claim needs them).
    assert_eq!(
        mgr.meta.slots_of(cl_person),
        vec![("age".into(), b.phrep_int), ("name".into(), b.phrep_string)]
    );
    let city_slots = mgr.meta.slots_of(cl_city);
    assert!(city_slots.contains(&("name".into(), b.phrep_string)));
    assert!(city_slots.contains(&("longi".into(), b.phrep_float)));
    assert_eq!(
        mgr.meta.slots_of(cl_car),
        vec![
            ("location".into(), cl_city),
            ("maxspeed".into(), b.phrep_float),
            ("milage".into(), b.phrep_float),
            ("owner".into(), cl_person)
        ]
    );
}

// ---------- T3: the three repairs ---------------------------------------------------

#[test]
fn t3_exactly_three_repairs_each_of_which_works() {
    let mut mgr = car_manager();
    let car = tid(&mgr, "Car");
    mgr.create_object(car).unwrap();
    mgr.begin_evolution().unwrap();
    let string = mgr.meta.builtins.string;
    mgr.meta.add_attr(car, "fuelType", string).unwrap();
    let out = mgr.end_evolution().unwrap();
    let violations = out.violations().to_vec();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].constraint, "slot_for_every_attr");
    let repairs = mgr.repairs_for(&violations[0]).unwrap();
    assert_eq!(repairs.len(), 3);
    let kinds: Vec<_> = repairs.iter().map(|r| r.repair.kind).collect();
    assert_eq!(
        kinds
            .iter()
            .filter(|k| **k == RepairKind::InvalidatePremise)
            .count(),
        2
    );
    assert_eq!(
        kinds
            .iter()
            .filter(|k| **k == RepairKind::CompleteConclusion)
            .count(),
        1
    );
    // Applying any one repair makes the session consistent.
    for i in 0..3 {
        let mut m2 = car_manager();
        let car2 = tid(&m2, "Car");
        m2.create_object(car2).unwrap();
        m2.begin_evolution().unwrap();
        let string2 = m2.meta.builtins.string;
        m2.meta.add_attr(car2, "fuelType", string2).unwrap();
        let out2 = m2.end_evolution().unwrap();
        let reps = m2.repairs_for(&out2.violations()[0]).unwrap();
        // Step 9: the Consistency Control initiates the execution of the
        // chosen repair by the Analyzer and/or Runtime System.
        let outcome = m2
            .execute_repair(&reps[i].repair, Value::Str("unleaded".into()))
            .unwrap();
        assert!(
            outcome.is_consistent(),
            "repair {i} failed: {:?}",
            outcome
                .violations()
                .iter()
                .map(|v| v.render(&m2.meta.db))
                .collect::<Vec<_>>()
        );
    }
    mgr.rollback_evolution().unwrap();
}

/// The planner sees the fuelType violation coming before EES runs: the
/// impact footprint names `slot_for_every_attr`, the change is classified
/// breaking-without-migration (L0601), and the violation EES then finds is
/// inside the predicted footprint.
#[test]
fn t3_plan_predicts_the_fueltype_violation() {
    let mut mgr = car_manager();
    let car = tid(&mgr, "Car");
    mgr.create_object(car).unwrap();
    mgr.begin_evolution().unwrap();
    let string = mgr.meta.builtins.string;
    mgr.meta.add_attr(car, "fuelType", string).unwrap();
    let plan = mgr.plan().unwrap();
    assert!(plan.footprint.contains(&"slot_for_every_attr".to_string()));
    assert!(plan.classes[0].breaking && !plan.classes[0].migrated);
    assert!(plan.diagnostics.diags.iter().any(|d| d.code == "L0601"));
    let out = mgr.end_evolution().unwrap();
    assert_eq!(out.violations().len(), 1);
    assert!(plan.footprint.contains(&out.violations()[0].constraint));
    mgr.rollback_evolution().unwrap();
}

// ---------- T4: versioning + fashion -------------------------------------------------

#[test]
fn t4_fashion_without_evolution_rejected_with_it_accepted() {
    let mut mgr = car_manager();
    install_versioning(&mut mgr).unwrap();
    mgr.define_schema(
        "schema NewCarSchema is
           type Person is [ name : string; birthday : date; ] end type Person;
         end schema NewCarSchema;",
    )
    .unwrap();
    let s1 = mgr.meta.schema_by_name("CarSchema").unwrap();
    let s2 = mgr.meta.schema_by_name("NewCarSchema").unwrap();
    let p1 = mgr.meta.type_by_name(s1, "Person").unwrap();
    let p2 = mgr.meta.type_by_name(s2, "Person").unwrap();
    mgr.begin_evolution().unwrap();
    record_schema_evolution(&mut mgr, s1, s2).unwrap();
    record_type_evolution(&mut mgr, p1, p2).unwrap();
    mgr.analyzer
        .lower_source(
            &mut mgr.meta,
            "fashion Person@CarSchema as Person@NewCarSchema where
               birthday : -> date is self.age * 365;
               birthday : <- date is begin self.age := value / 365; end;
               name : string is self.name;
             end fashion;",
        )
        .unwrap();
    assert!(mgr.end_evolution().unwrap().is_consistent());
    // Behavioural check: masking works both ways.
    let alice = mgr.create_object(p1).unwrap();
    mgr.set_attr(alice, "age", Value::Int(30)).unwrap();
    assert_eq!(mgr.get_attr(alice, "birthday").unwrap(), Value::Int(10950));
    mgr.set_attr(alice, "birthday", Value::Int(7300)).unwrap();
    assert_eq!(mgr.get_attr(alice, "age").unwrap(), Value::Int(20));
}

// ---------- T6: the seven-step evolution ----------------------------------------------

#[test]
fn t6_catalyst_split_end_to_end() {
    let mut mgr = car_manager();
    install_versioning(&mut mgr).unwrap();
    let old_schema = mgr.meta.schema_by_name("CarSchema").unwrap();
    let old_car = mgr.meta.type_by_name(old_schema, "Car").unwrap();
    let trabi = mgr.create_object(old_car).unwrap();

    mgr.begin_evolution().unwrap();
    let new_schema = mgr.meta.new_schema("NewCarSchema").unwrap();
    record_schema_evolution(&mut mgr, old_schema, new_schema).unwrap();
    let polluter = mgr.meta.new_type(new_schema, "PolluterCar").unwrap();
    record_type_evolution(&mut mgr, old_car, polluter).unwrap();
    let new_car = copy_type_into(&mut mgr, old_car, new_schema, "Car").unwrap();
    let any = mgr.meta.builtins.any;
    mgr.meta.add_subtype(new_car, any).unwrap();
    let catalyst = mgr.meta.new_type(new_schema, "CatalystCar").unwrap();
    mgr.meta.add_subtype(polluter, new_car).unwrap();
    mgr.meta.add_subtype(catalyst, new_car).unwrap();
    let fuel_sort = mgr.meta.new_type(new_schema, "Fuel").unwrap();
    mgr.meta.add_subtype(fuel_sort, any).unwrap();
    let sv = mgr.meta.db.pred_id("SortVariant").unwrap();
    for variant in ["leaded", "unleaded"] {
        let v = mgr.meta.db.constant(variant);
        mgr.meta
            .db
            .insert(sv, vec![fuel_sort.constant(), v])
            .unwrap();
    }
    let d_pol = mgr.meta.new_decl(polluter, "fuel", fuel_sort).unwrap();
    mgr.meta.new_code(d_pol, "return leaded;").unwrap();
    let d_cat = mgr.meta.new_decl(catalyst, "fuel", fuel_sort).unwrap();
    mgr.meta.new_code(d_cat, "return unleaded;").unwrap();
    mgr.analyzer
        .lower_source(
            &mut mgr.meta,
            "fashion Car@CarSchema as PolluterCar@NewCarSchema where
               owner    : Person is self.owner;
               maxspeed : float  is self.maxspeed;
               milage   : float  is self.milage;
               location : City   is self.location;
               operation changeLocation is begin return self.changeLocation(arg1, arg2); end;
               operation fuel is begin return leaded; end;
             end fashion;",
        )
        .unwrap();
    let out = mgr.end_evolution().unwrap();
    assert!(
        out.is_consistent(),
        "{:?}",
        out.violations()
            .iter()
            .map(|v| v.render(&mgr.meta.db))
            .collect::<Vec<_>>()
    );
    // Old instances answer the new behaviour; new subtypes differ.
    let fuel = mgr.call(trabi, "fuel", &[]).unwrap();
    assert!(matches!(&fuel, Value::Enum { variant, .. } if variant == "leaded"));
    let clean = mgr.create_object(catalyst).unwrap();
    let fuel = mgr.call(clean, "fuel", &[]).unwrap();
    assert!(matches!(&fuel, Value::Enum { variant, .. } if variant == "unleaded"));
    let dirty = mgr.create_object(polluter).unwrap();
    let fuel = mgr.call(dirty, "fuel", &[]).unwrap();
    assert!(matches!(&fuel, Value::Enum { variant, .. } if variant == "leaded"));
}

// ---------- F3: appendix hierarchy -----------------------------------------------------

#[test]
fn f3_company_hierarchy_and_namespaces() {
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(COMPANY_SCHEMA_SRC).unwrap();
    assert!(mgr.check().unwrap().is_empty());
    let h = mgr.analyzer.hierarchy();
    assert_eq!(h.roots(), vec!["Company"]);
    assert_eq!(
        h.children("CAD"),
        vec!["Geometry", "FEM", "Function", "Technology"]
    );
    assert_eq!(
        h.absolute_path("BoundaryRep"),
        "/Company/CAD/Geometry/BoundaryRep"
    );
    // Renaming resolved the Cuboid conflict; hiding works.
    assert!(h.lookup_type("Geometry", "CSGCuboid").unwrap().is_some());
    assert!(h.lookup_type("Geometry", "Surface").unwrap().is_none());
    // The Converter's attrs reference the two distinct Cuboids.
    let conv_s = mgr.meta.schema_by_name("CSG2BoundRep").unwrap();
    let conv = mgr.meta.type_by_name(conv_s, "Converter").unwrap();
    let attrs = mgr.meta.attrs_of(conv);
    assert_eq!(attrs.len(), 2);
    assert_ne!(attrs[0].1, attrs[1].1);
}

// ---------- F1: the architecture is actually decoupled ----------------------------------

#[test]
fn f1_consistency_definition_is_data_not_code() {
    // The whole §2.1 flexibility claim in one test: swap the notion of
    // consistency at run time without touching any component.
    let mut mgr = SchemaManager::new().unwrap();
    mgr.define_schema(
        "schema S is
           type A is end type A;
           type B is end type B;
           type C supertype A, B is end type C;
         end schema S;",
    )
    .unwrap();
    assert!(mgr.check().unwrap().is_empty());
    mgr.add_consistency(gomflex::core::SINGLE_INHERITANCE_CONSTRAINT)
        .unwrap();
    // two witnesses: (S1=a, S2=b) and its mirror image
    assert_eq!(mgr.check().unwrap().len(), 2);
    assert!(mgr.drop_constraint("single_inheritance"));
    assert!(mgr.check().unwrap().is_empty());
}
