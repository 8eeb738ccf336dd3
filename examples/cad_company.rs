//! Appendix A / Figure 3: the manufacturing company's schema hierarchy —
//! structuring, information hiding, name spaces, renaming, and imports.
//!
//! Run with: `cargo run --example cad_company`

use gomflex::prelude::*;

fn print_tree(h: &gomflex::analyzer::paths::Hierarchy, name: &str, indent: usize) {
    println!("{}{name}", "  ".repeat(indent));
    for child in h.children(name) {
        print_tree(h, child, indent + 1);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mgr = SchemaManager::new()?;
    mgr.define_schema(COMPANY_SCHEMA_SRC)
        .map_err(|e| e.to_string())?;

    // Figure 3, regenerated from the parsed frames.
    let h = mgr.analyzer.hierarchy();
    println!("== Figure 3: the sample schema hierarchy ==");
    for root in h.roots() {
        print_tree(h, root, 0);
    }

    // Absolute paths (appendix A.5).
    println!("\n== schema paths ==");
    for s in ["CSG", "BoundaryRep", "CSG2BoundRep", "Schedule"] {
        if h.defs.contains_key(s) {
            println!("{s:>14} -> {}", h.absolute_path(s));
        }
    }

    // Name spaces: two Cuboid types coexist without conflict.
    let csg = mgr.meta.schema_by_name("CSG").unwrap();
    let brep = mgr.meta.schema_by_name("BoundaryRep").unwrap();
    let c1 = mgr.meta.type_by_name(csg, "Cuboid").unwrap();
    let c2 = mgr.meta.type_by_name(brep, "Cuboid").unwrap();
    println!("\n== name spaces ==");
    println!("Cuboid@CSG          = {:?}", mgr.meta.db.resolve(c1.sym()));
    println!("Cuboid@BoundaryRep  = {:?}", mgr.meta.db.resolve(c2.sym()));
    assert_ne!(c1, c2);

    // Information hiding: Surface/Edge/Vertex are implementation-only.
    println!("\n== information hiding (public clause of BoundaryRep) ==");
    for name in ["Cuboid", "Surface", "Edge", "Vertex"] {
        let visible = h.lookup_type("Geometry", name).map_err(|e| e.to_string())?;
        println!(
            "{name:>8} visible from Geometry under its own name: {}",
            visible.is_some()
        );
    }
    println!(
        "renamed publics in Geometry: CSGCuboid -> {:?}, BRepCuboid -> {:?}",
        h.lookup_type("Geometry", "CSGCuboid")
            .map_err(|e| e.to_string())?,
        h.lookup_type("Geometry", "BRepCuboid")
            .map_err(|e| e.to_string())?
    );

    // Imports: the converter references both Cuboids through renaming.
    let conv_s = mgr.meta.schema_by_name("CSG2BoundRep").unwrap();
    let conv = mgr.meta.type_by_name(conv_s, "Converter").unwrap();
    println!("\n== the CSG2BoundRep converter (imports with renaming) ==");
    for (attr, domain) in mgr.meta.attrs_of(conv) {
        println!(
            "Converter.{attr} : {} (from schema {})",
            mgr.meta.type_name(domain).unwrap(),
            mgr.meta
                .schema_of(domain)
                .and_then(|s| {
                    let rel = mgr.meta.db.relation(mgr.meta.cat.schema);
                    rel.select(&[(0, s.constant())])
                        .next()
                        .and_then(|t| t.get(1).as_sym())
                        .map(|sym| mgr.meta.db.resolve(sym).to_string())
                })
                .unwrap()
        );
    }

    // Instantiate across the hierarchy and verify global consistency.
    let cuboid = mgr.create_object(c1)?;
    mgr.set_attr(cuboid, "xlen", Value::Float(2.0))?;
    let schedule_s = mgr.meta.schema_by_name("CAPP").unwrap();
    let schedule_t = mgr.meta.type_by_name(schedule_s, "Schedule").unwrap();
    let _sched = mgr.create_object(schedule_t)?;
    println!(
        "\nobjects created across departments; final check: {} violation(s)",
        mgr.check()?.len()
    );
    Ok(())
}
