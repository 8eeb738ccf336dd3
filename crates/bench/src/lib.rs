//! Workload generation for the experiment harness.
//!
//! The paper evaluates on hand-written example schemas; for the
//! quantitative benchmarks (B1–B7 in `DESIGN.md`) we generate synthetic
//! schemas with controlled size and shape, exercising the same code paths
//! (types, attributes, hierarchies, declarations with implementations,
//! objects with slots).

use gom_core::SchemaManager;
use gom_model::TypeId;
use gom_obs::SplitMix64;

/// Parameters of a synthetic schema.
#[derive(Clone, Copy, Debug)]
pub struct SynthParams {
    /// Number of types.
    pub types: usize,
    /// Attributes per type.
    pub attrs_per_type: usize,
    /// Operations (with code) per type.
    pub decls_per_type: usize,
    /// Percentage (0–100) of types that subtype a previous type instead of
    /// rooting directly at `ANY` — controls hierarchy depth.
    pub subtype_pct: u8,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            types: 50,
            attrs_per_type: 3,
            decls_per_type: 1,
            subtype_pct: 60,
            seed: 42,
        }
    }
}

/// Build a synthetic, consistent schema directly in the meta model (no
/// parsing). Returns the created type ids.
pub fn build_synth_schema(mgr: &mut SchemaManager, p: SynthParams) -> Vec<TypeId> {
    let mut rng = SplitMix64::new(p.seed);
    let schema = mgr
        .meta
        .new_schema(&format!("Synth{}_{}", p.types, p.seed))
        .expect("schema");
    let any = mgr.meta.builtins.any;
    let builtin_domains = [
        mgr.meta.builtins.int,
        mgr.meta.builtins.float,
        mgr.meta.builtins.string,
        mgr.meta.builtins.bool_,
    ];
    let mut types: Vec<TypeId> = Vec::with_capacity(p.types);
    for i in 0..p.types {
        let t = mgr.meta.new_type(schema, &format!("T{i}")).expect("type");
        // hierarchy: subtype a previous type or root at ANY
        if !types.is_empty() && rng.below(100) < p.subtype_pct as usize {
            let sup = types[rng.below(types.len())];
            mgr.meta.add_subtype(t, sup).expect("subtype");
        } else {
            mgr.meta.add_subtype(t, any).expect("subtype");
        }
        for a in 0..p.attrs_per_type {
            let dom = builtin_domains[rng.below(builtin_domains.len())];
            mgr.meta
                .add_attr(t, &format!("a{i}_{a}"), dom)
                .expect("attr");
        }
        for d in 0..p.decls_per_type {
            let result = builtin_domains[rng.below(builtin_domains.len())];
            let decl = mgr
                .meta
                .new_decl(t, &format!("op{i}_{d}"), result)
                .expect("decl");
            mgr.meta.new_code(decl, "return 0;").expect("code");
        }
        types.push(t);
    }
    types
}

/// Populate the object base with `objects_per_type` instances of each given
/// type.
pub fn populate_objects(mgr: &mut SchemaManager, types: &[TypeId], objects_per_type: usize) {
    for &t in types {
        for _ in 0..objects_per_type {
            mgr.create_object(t).expect("object");
        }
    }
}

/// A manager pre-loaded with a consistent synthetic schema.
pub fn synth_manager(p: SynthParams) -> (SchemaManager, Vec<TypeId>) {
    let mut mgr = SchemaManager::new().expect("manager");
    let types = build_synth_schema(&mut mgr, p);
    (mgr, types)
}

/// Generate GOM source text for the analyzer-throughput benchmark: `types`
/// type frames with attributes and one implemented operation each.
pub fn synth_source(types: usize) -> String {
    let mut s = String::from("schema Generated is\n");
    for i in 0..types {
        s.push_str(&format!(
            "  type G{i} is\n    [ x{i} : int;\n      y{i} : float; ]\n\
             \x20 operations\n    declare total{i} : || -> float;\n\
             \x20 implementation\n    define total{i} is\n    begin\n      \
             return self.x{i} + self.y{i};\n    end define total{i};\n  end type G{i};\n",
        ));
    }
    s.push_str("end schema Generated;\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_schema_is_consistent() {
        let (mut mgr, types) = synth_manager(SynthParams {
            types: 30,
            ..Default::default()
        });
        assert_eq!(types.len(), 30);
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn synth_schema_is_deterministic() {
        let (mut a, _) = synth_manager(SynthParams::default());
        let (mut b, _) = synth_manager(SynthParams::default());
        assert_eq!(a.meta.db.fact_count(), b.meta.db.fact_count());
        assert_eq!(a.check().unwrap().len(), b.check().unwrap().len());
    }

    #[test]
    fn populated_objects_keep_consistency() {
        let (mut mgr, types) = synth_manager(SynthParams {
            types: 10,
            ..Default::default()
        });
        let subset: Vec<_> = types[..5].to_vec();
        populate_objects(&mut mgr, &subset, 3);
        assert!(mgr.check().unwrap().is_empty());
    }

    #[test]
    fn synth_source_parses_and_lowers() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(&synth_source(5)).unwrap();
        assert!(mgr.check().unwrap().is_empty());
    }
}
