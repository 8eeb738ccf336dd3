//! Schema hierarchy, name spaces, and import resolution (appendix A).
//!
//! Schemas form a tree via `subschema` entries. Each schema has its own
//! name space; the publics of direct subschemas (optionally renamed) and of
//! explicitly imported schemas (by absolute or relative *schema path*) are
//! merged into it. Name conflicts are detected exactly as the appendix
//! prescribes: only when the same name would denote two different components
//! *and* the name is actually used does resolution fail.

use crate::ast::{Component, Item, Rename, RenameKind, SchemaDef, SchemaPath};
use std::collections::{BTreeMap, BTreeSet};

/// Resolution error.
#[derive(Clone, Debug, PartialEq)]
pub enum PathError {
    /// A subschema entry references an undefined schema.
    UnknownSchema(String),
    /// A schema was claimed as subschema by two parents.
    TwoParents {
        /// The contested schema.
        schema: String,
        /// First parent.
        a: String,
        /// Second parent.
        b: String,
    },
    /// The subschema graph has a cycle.
    Cycle(String),
    /// A schema path does not resolve.
    BadPath {
        /// The path as written.
        path: String,
        /// Schema it was written in.
        from: String,
        /// Why it failed.
        msg: String,
    },
    /// A name is ambiguous in some schema's name space.
    Ambiguous {
        /// The conflicting name.
        name: String,
        /// Schema whose name space is ambiguous.
        schema: String,
        /// The origins that clash (schema names).
        origins: Vec<String>,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::UnknownSchema(s) => write!(f, "unknown schema `{s}`"),
            PathError::TwoParents { schema, a, b } => {
                write!(f, "schema `{schema}` is a subschema of both `{a}` and `{b}`")
            }
            PathError::Cycle(s) => write!(f, "schema hierarchy contains a cycle through `{s}`"),
            PathError::BadPath { path, from, msg } => {
                write!(f, "schema path `{path}` (in `{from}`) does not resolve: {msg}")
            }
            PathError::Ambiguous {
                name,
                schema,
                origins,
            } => write!(
                f,
                "name `{name}` is ambiguous in schema `{schema}` (defined in {}) — rename on import",
                origins.join(", ")
            ),
        }
    }
}

impl std::error::Error for PathError {}

/// The parsed schema hierarchy: definitions plus parent links.
#[derive(Clone, Debug, Default)]
pub struct Hierarchy {
    /// Schema definitions by name.
    pub defs: BTreeMap<String, SchemaDef>,
    /// Parent schema of each schema (roots absent).
    pub parent: BTreeMap<String, String>,
}

/// What one [`Hierarchy::extend`] changed, in order, so that
/// [`Hierarchy::revert`] can put it back.
#[derive(Debug, Default)]
#[must_use = "dropping an Undo makes the extension permanent"]
pub struct Undo {
    /// `(name, previous definition)` per inserted definition.
    defs: Vec<(String, Option<SchemaDef>)>,
    /// `(child, previous parent)` per changed parent link.
    parent: Vec<(String, Option<String>)>,
}

/// Names of the direct subschemas a definition lists, in declaration order.
fn subschema_names(def: &SchemaDef) -> impl Iterator<Item = &str> {
    def.components().filter_map(|c| match c {
        Component::Subschema(s) => Some(s.name.as_str()),
        _ => None,
    })
}

impl Hierarchy {
    /// Build the hierarchy from parsed items, validating single-parenthood
    /// and acyclicity. A later definition of a name replaces an earlier one.
    /// This is the reference [`Self::extend`] is tested against.
    pub fn build(items: &[Item]) -> Result<Hierarchy, PathError> {
        let mut h = Hierarchy::default();
        for item in items {
            if let Item::Schema(s) = item {
                h.defs.insert(s.name.clone(), s.clone());
            }
        }
        for (name, def) in &h.defs {
            for c in def.components() {
                if let Component::Subschema(sub) = c {
                    if !h.defs.contains_key(&sub.name) {
                        return Err(PathError::UnknownSchema(sub.name.clone()));
                    }
                    if let Some(prev) = h.parent.get(&sub.name) {
                        if prev != name {
                            return Err(PathError::TwoParents {
                                schema: sub.name.clone(),
                                a: prev.clone(),
                                b: name.clone(),
                            });
                        }
                    }
                    h.parent.insert(sub.name.clone(), name.clone());
                }
            }
        }
        // acyclicity: walk up from every schema
        for name in h.defs.keys() {
            let mut cur = name.clone();
            let mut steps = 0;
            while let Some(p) = h.parent.get(&cur) {
                cur = p.clone();
                steps += 1;
                if steps > h.defs.len() {
                    return Err(PathError::Cycle(name.clone()));
                }
            }
        }
        Ok(h)
    }

    /// Add `new` definitions (replacing same-named ones) and their parent
    /// links in place. Accepts and rejects exactly what [`Self::build`]
    /// does over the earlier frames followed by `new`, with the same error,
    /// but looks only at the new definitions, the current parents of the
    /// schemas they claim, and the parent chains above the new links. On
    /// error nothing changes; on success the returned [`Undo`] reverts it.
    pub fn extend(&mut self, new: &[&SchemaDef]) -> Result<Undo, PathError> {
        let mut undo = Undo::default();
        for s in new {
            let prev = self.defs.insert(s.name.clone(), (*s).clone());
            undo.defs.push((s.name.clone(), prev));
        }
        // A replaced definition takes its parent links with it.
        let parent = &self.parent;
        let dropped: Vec<String> = undo
            .defs
            .iter()
            .filter_map(|(name, prev)| Some((name, prev.as_ref()?)))
            .flat_map(|(name, old)| {
                subschema_names(old).filter(move |c| parent.get(*c) == Some(name))
            })
            .map(str::to_string)
            .collect();
        for child in dropped {
            let prev = self.parent.remove(&child);
            undo.parent.push((child, prev));
        }
        let fresh: BTreeSet<&str> = new.iter().map(|s| s.name.as_str()).collect();
        let checked = self.new_links(&fresh).and_then(|links| {
            for (child, parent) in links {
                let prev = self.parent.insert(child.clone(), parent);
                undo.parent.push((child, prev));
            }
            self.find_cycle(&fresh)
        });
        match checked {
            Ok(()) => Ok(undo),
            Err(e) => {
                self.revert(undo);
                Err(e)
            }
        }
    }

    /// [`Self::build`]'s link pass, run over only the definitions that can
    /// take part in a conflict: the `fresh` ones and the current parents of
    /// the schemas they claim. Every other definition's links were valid
    /// before and claim no schema a fresh one claims. Returns the fresh
    /// definitions' links as `(child, parent)`.
    fn new_links(&self, fresh: &BTreeSet<&str>) -> Result<Vec<(String, String)>, PathError> {
        let mut involved = fresh.clone();
        for &name in fresh {
            for sub in subschema_names(&self.defs[name]) {
                if let Some(p) = self.parent.get(sub) {
                    involved.insert(p);
                }
            }
        }
        let mut claims: BTreeMap<&str, &str> = BTreeMap::new();
        for &name in &involved {
            for sub in subschema_names(&self.defs[name]) {
                if !self.defs.contains_key(sub) {
                    return Err(PathError::UnknownSchema(sub.to_string()));
                }
                if let Some(&prev) = claims.get(sub) {
                    if prev != name {
                        return Err(PathError::TwoParents {
                            schema: sub.to_string(),
                            a: prev.to_string(),
                            b: name.to_string(),
                        });
                    }
                }
                claims.insert(sub, name);
            }
        }
        Ok(claims
            .into_iter()
            .filter(|(_, p)| fresh.contains(p))
            .map(|(c, p)| (c.to_string(), p.to_string()))
            .collect())
    }

    /// [`Self::build`]'s acyclicity pass. Every cycle runs through a link of
    /// a `fresh` definition, so walking up from those links' children finds
    /// them all. `build` names the least schema whose upward walk never
    /// ends: the least schema on or below a cycle.
    fn find_cycle(&self, fresh: &BTreeSet<&str>) -> Result<(), PathError> {
        // Schemas on a cycle, then (as a work stack) everything below them.
        let mut stack: Vec<&str> = Vec::new();
        for &name in fresh {
            for start in subschema_names(&self.defs[name]) {
                let mut seen = BTreeSet::new();
                let mut cur = start;
                while seen.insert(cur) {
                    match self.parent.get(cur) {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
                if self.parent.contains_key(cur) {
                    stack.push(cur); // the walk came back to `cur`
                }
            }
        }
        let mut reach: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if reach.insert(n) {
                stack.extend(subschema_names(&self.defs[n]));
            }
        }
        match reach.first() {
            Some(least) => Err(PathError::Cycle(least.to_string())),
            None => Ok(()),
        }
    }

    /// Put back what one [`Self::extend`] changed. Undo records must be
    /// reverted newest first.
    pub fn revert(&mut self, undo: Undo) {
        for (child, prev) in undo.parent.into_iter().rev() {
            match prev {
                Some(p) => self.parent.insert(child, p),
                None => self.parent.remove(&child),
            };
        }
        for (name, prev) in undo.defs.into_iter().rev() {
            match prev {
                Some(d) => self.defs.insert(name, d),
                None => self.defs.remove(&name),
            };
        }
    }

    /// Root schemas (no parent), sorted.
    pub fn roots(&self) -> Vec<&str> {
        self.defs
            .keys()
            .filter(|n| !self.parent.contains_key(*n))
            .map(String::as_str)
            .collect()
    }

    /// Direct subschemas of `name`, in declaration order.
    pub fn children(&self, name: &str) -> Vec<&str> {
        self.defs
            .get(name)
            .map_or_else(Vec::new, |def| subschema_names(def).collect())
    }

    /// Absolute path of a schema from its root, e.g.
    /// `/Company/CAD/Geometry`.
    pub fn absolute_path(&self, name: &str) -> String {
        let mut parts = vec![name.to_string()];
        let mut cur = name.to_string();
        while let Some(p) = self.parent.get(&cur) {
            parts.push(p.clone());
            cur = p.clone();
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Resolve a schema path written inside `from`.
    pub fn resolve_path(&self, from: &str, path: &SchemaPath) -> Result<String, PathError> {
        let bad = |msg: &str| PathError::BadPath {
            path: path.to_string(),
            from: from.to_string(),
            msg: msg.to_string(),
        };
        let mut cur: String;
        let mut steps = path.steps.iter();
        if path.absolute {
            let first = steps.next().ok_or_else(|| bad("empty absolute path"))?;
            if !self.defs.contains_key(first) || self.parent.contains_key(first) {
                return Err(bad(&format!("`{first}` is not a root schema")));
            }
            cur = first.clone();
        } else if path.ups > 0 {
            cur = from.to_string();
            for _ in 0..path.ups {
                cur = self
                    .parent
                    .get(&cur)
                    .cloned()
                    .ok_or_else(|| bad("`..` above a root schema"))?;
            }
        } else {
            // Relative path starting with a name: a direct or indirect
            // subschema of the enclosing schema.
            let first = steps.next().ok_or_else(|| bad("empty path"))?;
            if !self.children(from).contains(&first.as_str()) {
                return Err(bad(&format!("`{first}` is not a subschema of `{from}`")));
            }
            cur = first.clone();
        }
        for s in steps {
            if !self.children(&cur).contains(&s.as_str()) {
                return Err(bad(&format!("`{s}` is not a subschema of `{cur}`")));
            }
            cur = s.clone();
        }
        Ok(cur)
    }

    /// Compute the *type* name space of `schema`: every visible type name
    /// mapped to `(defining_schema, original_name)`.
    ///
    /// Sources: locally defined types and sorts; publics of direct
    /// subschemas (renamed per the `with` clause, and — for renamed entries
    /// that are re-exported via the `public` clause — visible to the super
    /// schema, as in appendix A.4); publics of imported schemas.
    ///
    /// A name mapping to two *different* origins is recorded and only
    /// reported when the name is looked up, matching appendix A.4.
    pub fn type_namespace(&self, schema: &str) -> BTreeMap<String, Vec<(String, String)>> {
        let mut visiting = Vec::new();
        self.type_namespace_guarded(schema, &mut visiting)
    }

    fn type_namespace_guarded(
        &self,
        schema: &str,
        visiting: &mut Vec<String>,
    ) -> BTreeMap<String, Vec<(String, String)>> {
        let mut space: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        if visiting.iter().any(|s| s == schema) {
            return space; // cyclic import: expose nothing along the cycle
        }
        visiting.push(schema.to_string());
        let add = |name: String,
                   origin: (String, String),
                   space: &mut BTreeMap<String, Vec<(String, String)>>| {
            let entry = space.entry(name).or_default();
            if !entry.contains(&origin) {
                entry.push(origin);
            }
        };
        let Some(def) = self.defs.get(schema) else {
            visiting.pop();
            return space;
        };
        // local types and sorts
        for c in def.components() {
            match c {
                Component::Type(t) => add(
                    t.name.clone(),
                    (schema.to_string(), t.name.clone()),
                    &mut space,
                ),
                Component::Sort(s) => add(
                    s.name.clone(),
                    (schema.to_string(), s.name.clone()),
                    &mut space,
                ),
                _ => {}
            }
        }
        // subschema publics + imports (transitively re-exported names
        // included: a subschema's exports are its namespace entries listed
        // in its `public` clause)
        for c in def.components() {
            let (origin_schema, renames): (String, &[Rename]) = match c {
                Component::Subschema(s) => (s.name.clone(), &s.renames),
                Component::Import(i) => {
                    let Ok(target) = self.resolve_path(schema, &i.path) else {
                        continue;
                    };
                    (target, &i.renames)
                }
                _ => continue,
            };
            let Some(origin_def) = self.defs.get(&origin_schema) else {
                continue;
            };
            let exported = self.type_namespace_guarded(&origin_schema, visiting);
            for (visible_there, origins) in exported {
                if !origin_def.is_public(&visible_there) {
                    continue;
                }
                let rename = renames
                    .iter()
                    .find(|r| r.kind == RenameKind::Type && r.old == visible_there);
                let visible_here = rename.map_or(visible_there.clone(), |r| r.new.clone());
                for origin in origins {
                    add(visible_here.clone(), origin, &mut space);
                }
            }
        }
        visiting.pop();
        space
    }

    /// Look up a type name in `schema`'s name space; error when ambiguous.
    pub fn lookup_type(
        &self,
        schema: &str,
        name: &str,
    ) -> Result<Option<(String, String)>, PathError> {
        let space = self.type_namespace(schema);
        match space.get(name) {
            None => Ok(None),
            Some(origins) if origins.len() == 1 => Ok(Some(origins[0].clone())),
            Some(origins) => Err(PathError::Ambiguous {
                name: name.to_string(),
                schema: schema.to_string(),
                origins: origins.iter().map(|(s, _)| s.clone()).collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::car_schema::COMPANY_SCHEMA_SRC;
    use crate::parse::parse_source;

    fn company() -> Hierarchy {
        Hierarchy::build(&parse_source(COMPANY_SCHEMA_SRC).unwrap()).unwrap()
    }

    #[test]
    fn figure3_hierarchy_builds() {
        let h = company();
        assert_eq!(h.roots(), vec!["Company"]);
        assert_eq!(
            h.children("Company"),
            vec!["CAD", "CAPP", "CAM", "Marketing"]
        );
        assert_eq!(
            h.children("Geometry"),
            vec!["CSG", "BoundaryRep", "CSG2BoundRep"]
        );
        assert_eq!(h.absolute_path("CSG"), "/Company/CAD/Geometry/CSG");
    }

    #[test]
    fn absolute_and_relative_paths_resolve() {
        let h = company();
        let abs = SchemaPath {
            absolute: true,
            ups: 0,
            steps: vec![
                "Company".into(),
                "CAD".into(),
                "Geometry".into(),
                "CSG".into(),
            ],
        };
        assert_eq!(h.resolve_path("CSG2BoundRep", &abs).unwrap(), "CSG");
        let up = SchemaPath {
            absolute: false,
            ups: 1,
            steps: vec!["BoundaryRep".into()],
        };
        assert_eq!(h.resolve_path("CSG2BoundRep", &up).unwrap(), "BoundaryRep");
        // From CAD, `Geometry/CSG` reaches down two levels (appendix A.5).
        let rel = SchemaPath {
            absolute: false,
            ups: 0,
            steps: vec!["Geometry".into(), "CSG".into()],
        };
        assert_eq!(h.resolve_path("CAD", &rel).unwrap(), "CSG");
    }

    #[test]
    fn double_dot_iterates() {
        let h = company();
        let upup = SchemaPath {
            absolute: false,
            ups: 2,
            steps: vec![],
        };
        // ../../ from Geometry is Company (appendix A.5).
        assert_eq!(h.resolve_path("Geometry", &upup).unwrap(), "Company");
        // ../.. from BoundaryRep is CAD.
        assert_eq!(h.resolve_path("BoundaryRep", &upup).unwrap(), "CAD");
    }

    #[test]
    fn bad_paths_error() {
        let h = company();
        let bad = SchemaPath {
            absolute: true,
            ups: 0,
            steps: vec!["CAD".into()],
        };
        assert!(h.resolve_path("CSG", &bad).is_err()); // CAD is not a root
        let above_root = SchemaPath {
            absolute: false,
            ups: 1,
            steps: vec![],
        };
        assert!(h.resolve_path("Company", &above_root).is_err());
    }

    #[test]
    fn renaming_resolves_cuboid_conflict() {
        let h = company();
        // In Geometry, the renamed names are unambiguous.
        assert_eq!(
            h.lookup_type("Geometry", "CSGCuboid").unwrap(),
            Some(("CSG".to_string(), "Cuboid".to_string()))
        );
        assert_eq!(
            h.lookup_type("Geometry", "BRepCuboid").unwrap(),
            Some(("BoundaryRep".to_string(), "Cuboid".to_string()))
        );
        // After renaming, the bare name `Cuboid` no longer enters
        // Geometry's name space…
        assert_eq!(h.lookup_type("Geometry", "Cuboid").unwrap(), None);
        // …and hidden components are not visible at all.
        assert_eq!(h.lookup_type("Geometry", "Surface").unwrap(), None);
    }

    #[test]
    fn unrenamed_conflict_is_ambiguous_only_on_use() {
        // Two subschemas both export `Cuboid`; without renaming the name is
        // ambiguous exactly when looked up (appendix A.4).
        let src = "\
schema Geo is
  subschema A;
  subschema B;
end schema Geo;
schema A is public Cuboid; interface type Cuboid is end type Cuboid; implementation end schema A;
schema B is public Cuboid; interface type Cuboid is end type Cuboid; implementation end schema B;";
        let h = Hierarchy::build(&parse_source(src).unwrap()).unwrap();
        // Namespace construction itself succeeds…
        let space = h.type_namespace("Geo");
        assert_eq!(space.get("Cuboid").unwrap().len(), 2);
        // …the error surfaces on lookup.
        assert!(matches!(
            h.lookup_type("Geo", "Cuboid"),
            Err(PathError::Ambiguous { .. })
        ));
    }

    #[test]
    fn import_brings_renamed_publics() {
        let h = company();
        assert_eq!(
            h.lookup_type("CSG2BoundRep", "CSGCuboid").unwrap(),
            Some(("CSG".to_string(), "Cuboid".to_string()))
        );
        assert_eq!(
            h.lookup_type("CSG2BoundRep", "BRepCuboid").unwrap(),
            Some(("BoundaryRep".to_string(), "Cuboid".to_string()))
        );
    }

    #[test]
    fn two_parents_rejected() {
        let src = "\
schema A is subschema C; end schema A;
schema B is subschema C; end schema B;
schema C is end schema C;";
        let items = parse_source(src).unwrap();
        assert!(matches!(
            Hierarchy::build(&items),
            Err(PathError::TwoParents { .. })
        ));
    }

    #[test]
    fn unknown_subschema_rejected() {
        let src = "schema A is subschema Ghost; end schema A;";
        let items = parse_source(src).unwrap();
        assert!(matches!(
            Hierarchy::build(&items),
            Err(PathError::UnknownSchema(_))
        ));
    }
}
