//! A typed facade over the deductive database's schema-base extensions.
//!
//! The `MetaModel` bundles the [`Database`], the predicate [`Catalog`], the
//! [`Builtins`] and an [`IdGen`], and offers statically typed accessors so
//! the Analyzer, Runtime System, and evolution operators never build raw
//! tuples by hand. All mutations go through `Database::insert`/`remove` and
//! are therefore journalled when an evolution session is active.

use crate::builtins::Builtins;
use crate::catalog::Catalog;
use crate::ids::{CodeId, DeclId, IdGen, PhRepId, SchemaId, TypeId};
use gom_deductive::{Const, Database, PredId, Result, Row, Symbol, Tuple};

/// A user-written type reference that does not resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeRefError {
    /// No type, built-in, or at-notation match.
    Unknown(String),
    /// A bare name that exists in more than one schema.
    Ambiguous(String),
}

impl std::fmt::Display for TypeRefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeRefError::Unknown(r) => write!(f, "unknown type `{r}` (use Name@Schema)"),
            TypeRefError::Ambiguous(r) => write!(f, "ambiguous type `{r}` (use Name@Schema)"),
        }
    }
}

impl std::error::Error for TypeRefError {}

/// The Database Model of the paper's architecture: schema base + object base
/// model, with typed access.
pub struct MetaModel {
    /// The underlying deductive database (rules and constraints are
    /// installed by the consistency-control layer).
    pub db: Database,
    /// Resolved predicate ids.
    pub cat: Catalog,
    /// Built-in sorts.
    pub builtins: Builtins,
    /// Identifier generator.
    pub ids: IdGen,
}

impl MetaModel {
    /// Create a fresh meta model with catalog and built-ins installed.
    pub fn new() -> Result<Self> {
        let mut db = Database::new();
        let cat = Catalog::install(&mut db)?;
        let builtins = Builtins::install(&mut db, &cat)?;
        Ok(MetaModel {
            db,
            cat,
            builtins,
            ids: IdGen::new(),
        })
    }

    // ----- creation -----------------------------------------------------------

    /// Create a schema with a fresh id.
    pub fn new_schema(&mut self, name: &str) -> Result<SchemaId> {
        let sid = self.ids.schema(self.db.interner_mut());
        let n = self.db.constant(name);
        self.db.insert(self.cat.schema, vec![sid.constant(), n])?;
        Ok(sid)
    }

    /// Create a type with a fresh id in `schema`.
    pub fn new_type(&mut self, schema: SchemaId, name: &str) -> Result<TypeId> {
        let tid = self.ids.ty(self.db.interner_mut());
        let n = self.db.constant(name);
        self.db
            .insert(self.cat.ty, vec![tid.constant(), n, schema.constant()])?;
        Ok(tid)
    }

    /// Add an attribute `name : domain` to `ty`.
    pub fn add_attr(&mut self, ty: TypeId, name: &str, domain: TypeId) -> Result<()> {
        let n = self.db.constant(name);
        self.db
            .insert(self.cat.attr, vec![ty.constant(), n, domain.constant()])?;
        Ok(())
    }

    /// Remove the attribute `name` from `ty` (looking up its domain).
    pub fn remove_attr(&mut self, ty: TypeId, name: &str) -> Result<bool> {
        let Some(n) = self.db.sym(name) else {
            return Ok(false);
        };
        let hits: Vec<Tuple> = self
            .db
            .relation(self.cat.attr)
            .select(&[(0, ty.constant()), (1, Const::Sym(n))])
            .map(Row::to_tuple)
            .collect();
        let mut removed = false;
        for t in hits {
            removed |= self.db.remove(self.cat.attr, &t)?;
        }
        Ok(removed)
    }

    /// Declare an operation `op : … -> result` on receiver `ty`.
    pub fn new_decl(&mut self, ty: TypeId, op: &str, result: TypeId) -> Result<DeclId> {
        let did = self.ids.decl(self.db.interner_mut());
        let o = self.db.constant(op);
        self.db.insert(
            self.cat.decl,
            vec![did.constant(), ty.constant(), o, result.constant()],
        )?;
        Ok(did)
    }

    /// Declare argument `n` (1-based, left to right) of `decl` to have type
    /// `ty`.
    pub fn add_argdecl(&mut self, decl: DeclId, n: i64, ty: TypeId) -> Result<()> {
        self.db.insert(
            self.cat.argdecl,
            vec![decl.constant(), Const::Int(n), ty.constant()],
        )?;
        Ok(())
    }

    /// Attach an implementation to `decl`.
    pub fn new_code(&mut self, decl: DeclId, text: &str) -> Result<CodeId> {
        let cid = self.ids.code(self.db.interner_mut());
        let t = self.db.constant(text);
        self.db
            .insert(self.cat.code, vec![cid.constant(), t, decl.constant()])?;
        Ok(cid)
    }

    /// Record a direct subtype edge `sub <: sup`.
    pub fn add_subtype(&mut self, sub: TypeId, sup: TypeId) -> Result<()> {
        self.db
            .insert(self.cat.subtyp, vec![sub.constant(), sup.constant()])?;
        Ok(())
    }

    /// Record that `refining` refines `refined`.
    pub fn add_refinement(&mut self, refining: DeclId, refined: DeclId) -> Result<()> {
        self.db.insert(
            self.cat.declref,
            vec![refining.constant(), refined.constant()],
        )?;
        Ok(())
    }

    /// Record that code `c` calls declaration `d`.
    pub fn add_codereq_decl(&mut self, c: CodeId, d: DeclId) -> Result<()> {
        self.db
            .insert(self.cat.codereq_decl, vec![c.constant(), d.constant()])?;
        Ok(())
    }

    /// Record that code `c` accesses attribute `attr` of type `t`.
    pub fn add_codereq_attr(&mut self, c: CodeId, t: TypeId, attr: &str) -> Result<()> {
        let a = self.db.constant(attr);
        self.db
            .insert(self.cat.codereq_attr, vec![c.constant(), t.constant(), a])?;
        Ok(())
    }

    /// Create the physical representation for `ty` (Runtime System's
    /// responsibility — called when the first instance appears).
    pub fn new_phrep(&mut self, ty: TypeId) -> Result<PhRepId> {
        let clid = self.ids.phrep(self.db.interner_mut());
        self.db
            .insert(self.cat.phrep, vec![clid.constant(), ty.constant()])?;
        Ok(clid)
    }

    /// Record a slot of a physical representation.
    pub fn add_slot(&mut self, clid: PhRepId, attr: &str, val: PhRepId) -> Result<()> {
        let a = self.db.constant(attr);
        self.db
            .insert(self.cat.slot, vec![clid.constant(), a, val.constant()])?;
        Ok(())
    }

    /// Remove a slot.
    pub fn remove_slot(&mut self, clid: PhRepId, attr: &str) -> Result<bool> {
        let Some(a) = self.db.sym(attr) else {
            return Ok(false);
        };
        let hits: Vec<Tuple> = self
            .db
            .relation(self.cat.slot)
            .select(&[(0, clid.constant()), (1, Const::Sym(a))])
            .map(Row::to_tuple)
            .collect();
        let mut removed = false;
        for t in hits {
            removed |= self.db.remove(self.cat.slot, &t)?;
        }
        Ok(removed)
    }

    /// Share the meta model for publication as a read snapshot: the
    /// database is shared copy-on-write via [`Database::snapshot_clone`]
    /// (definitional + extensional state only — row pages, the string
    /// table and the rules and constraints are `Arc`-bumped, not copied;
    /// no caches or indexes),
    /// and the catalog, built-ins, and id generator are carried over so
    /// the clone resolves the same predicates and never re-issues an
    /// already-used id.
    pub fn snapshot_clone(&self) -> MetaModel {
        MetaModel {
            db: self.db.snapshot_clone(),
            cat: self.cat,
            builtins: self.builtins,
            ids: self.ids.clone(),
        }
    }

    // ----- lookup ---------------------------------------------------------------

    fn sym_of(&self, c: Const) -> Symbol {
        c.as_sym().expect("id columns hold symbols")
    }

    /// Schema id by user name.
    pub fn schema_by_name(&self, name: &str) -> Option<SchemaId> {
        let n = self.db.sym(name)?;
        self.db
            .relation(self.cat.schema)
            .select(&[(1, Const::Sym(n))])
            .next()
            .map(|t| SchemaId(self.sym_of(t.get(0))))
    }

    /// Type id by schema and user name (unique per §3.3).
    pub fn type_by_name(&self, schema: SchemaId, name: &str) -> Option<TypeId> {
        let n = self.db.sym(name)?;
        self.db
            .relation(self.cat.ty)
            .select(&[(1, Const::Sym(n)), (2, schema.constant())])
            .next()
            .map(|t| TypeId(self.sym_of(t.get(0))))
    }

    /// Resolve the paper's at-notation `TypeName@SchemaName`.
    pub fn type_at(&self, at: &str) -> Option<TypeId> {
        let (ty, schema) = at.split_once('@')?;
        self.type_by_name(self.schema_by_name(schema)?, ty)
    }

    /// Resolve a user-written type reference: at-notation
    /// `TypeName@SchemaName`, a built-in sort name, or a bare type name
    /// that is unique across all schemas. Returns a typed error for
    /// unknown and ambiguous references so callers (the shell, the
    /// server) can report without panicking.
    pub fn resolve_type_ref(&self, r: &str) -> std::result::Result<TypeId, TypeRefError> {
        if let Some(t) = self.type_at(r) {
            return Ok(t);
        }
        if let Some(t) = self.builtins.by_name(r) {
            return Ok(t);
        }
        // A bare name resolves iff it is unique across schemas.
        let sids: Vec<SchemaId> = self
            .db
            .relation(self.cat.schema)
            .sorted()
            .iter()
            .filter_map(|t| t.get(0).as_sym().map(SchemaId))
            .collect();
        let mut hits = Vec::new();
        for sid in sids {
            if let Some(t) = self.type_by_name(sid, r) {
                hits.push(t);
            }
        }
        match hits.len() {
            1 => Ok(hits[0]),
            0 => Err(TypeRefError::Unknown(r.to_string())),
            _ => Err(TypeRefError::Ambiguous(r.to_string())),
        }
    }

    /// User name of a type.
    pub fn type_name(&self, ty: TypeId) -> Option<String> {
        self.db
            .relation(self.cat.ty)
            .select(&[(0, ty.constant())])
            .next()
            .map(|t| self.db.resolve(self.sym_of(t.get(1))).to_string())
    }

    /// Schema a type belongs to.
    pub fn schema_of(&self, ty: TypeId) -> Option<SchemaId> {
        self.db
            .relation(self.cat.ty)
            .select(&[(0, ty.constant())])
            .next()
            .map(|t| SchemaId(self.sym_of(t.get(2))))
    }

    /// All types of a schema, sorted by name.
    pub fn types_of_schema(&self, schema: SchemaId) -> Vec<TypeId> {
        let mut v: Vec<(String, TypeId)> = self
            .db
            .relation(self.cat.ty)
            .select(&[(2, schema.constant())])
            .map(|t| {
                (
                    self.db.resolve(self.sym_of(t.get(1))).to_string(),
                    TypeId(self.sym_of(t.get(0))),
                )
            })
            .collect();
        v.sort();
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// Directly declared attributes of `ty`, sorted by name.
    pub fn attrs_of(&self, ty: TypeId) -> Vec<(String, TypeId)> {
        let mut v: Vec<(String, TypeId)> = self
            .db
            .relation(self.cat.attr)
            .select(&[(0, ty.constant())])
            .map(|t| {
                (
                    self.db.resolve(self.sym_of(t.get(1))).to_string(),
                    TypeId(self.sym_of(t.get(2))),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Direct supertypes.
    pub fn supertypes(&self, ty: TypeId) -> Vec<TypeId> {
        let mut v: Vec<TypeId> = self
            .db
            .relation(self.cat.subtyp)
            .select(&[(0, ty.constant())])
            .map(|t| TypeId(self.sym_of(t.get(1))))
            .collect();
        v.sort();
        v
    }

    /// Direct subtypes.
    pub fn subtypes(&self, ty: TypeId) -> Vec<TypeId> {
        let mut v: Vec<TypeId> = self
            .db
            .relation(self.cat.subtyp)
            .select(&[(1, ty.constant())])
            .map(|t| TypeId(self.sym_of(t.get(0))))
            .collect();
        v.sort();
        v
    }

    /// All (strict) supertypes, transitively, in BFS order.
    pub fn supertypes_transitive(&self, ty: TypeId) -> Vec<TypeId> {
        let mut seen: Vec<TypeId> = Vec::new();
        let mut queue: std::collections::VecDeque<TypeId> = self.supertypes(ty).into();
        while let Some(t) = queue.pop_front() {
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            queue.extend(self.supertypes(t));
        }
        seen
    }

    /// Attributes including inherited ones (paper's `Attr^i`), sorted by
    /// name; an attribute declared in a subtype shadows nothing — GOM
    /// requires inherited duplicates to agree on the domain, which the
    /// consistency layer enforces.
    pub fn attrs_inherited(&self, ty: TypeId) -> Vec<(String, TypeId)> {
        let mut v = self.attrs_of(ty);
        for sup in self.supertypes_transitive(ty) {
            for (a, d) in self.attrs_of(sup) {
                if !v.iter().any(|(n, dd)| *n == a && *dd == d) {
                    v.push((a, d));
                }
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Operation declarations directly on `ty`, sorted by name.
    pub fn decls_of(&self, ty: TypeId) -> Vec<(DeclId, String, TypeId)> {
        let mut v: Vec<(String, DeclId, TypeId)> = self
            .db
            .relation(self.cat.decl)
            .select(&[(1, ty.constant())])
            .map(|t| {
                (
                    self.db.resolve(self.sym_of(t.get(2))).to_string(),
                    DeclId(self.sym_of(t.get(0))),
                    TypeId(self.sym_of(t.get(3))),
                )
            })
            .collect();
        v.sort();
        v.into_iter().map(|(op, d, r)| (d, op, r)).collect()
    }

    /// The receiver, name, and result of a declaration.
    pub fn decl_info(&self, d: DeclId) -> Option<(TypeId, String, TypeId)> {
        self.db
            .relation(self.cat.decl)
            .select(&[(0, d.constant())])
            .next()
            .map(|t| {
                (
                    TypeId(self.sym_of(t.get(1))),
                    self.db.resolve(self.sym_of(t.get(2))).to_string(),
                    TypeId(self.sym_of(t.get(3))),
                )
            })
    }

    /// Argument declarations of `d`, ordered by position.
    pub fn args_of(&self, d: DeclId) -> Vec<(i64, TypeId)> {
        let mut v: Vec<(i64, TypeId)> = self
            .db
            .relation(self.cat.argdecl)
            .select(&[(0, d.constant())])
            .map(|t| {
                (
                    t.get(1).as_int().expect("argno is an int"),
                    TypeId(self.sym_of(t.get(2))),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// The code implementing `d`, if any.
    pub fn code_of(&self, d: DeclId) -> Option<(CodeId, String)> {
        self.db
            .relation(self.cat.code)
            .select(&[(2, d.constant())])
            .next()
            .map(|t| {
                (
                    CodeId(self.sym_of(t.get(0))),
                    self.db.resolve(self.sym_of(t.get(1))).to_string(),
                )
            })
    }

    /// Declarations that `refining` refines (direct).
    pub fn refined_by(&self, refining: DeclId) -> Vec<DeclId> {
        self.db
            .relation(self.cat.declref)
            .select(&[(0, refining.constant())])
            .map(|t| DeclId(self.sym_of(t.get(1))))
            .collect()
    }

    /// Declarations refining `refined` (direct).
    pub fn refinements_of(&self, refined: DeclId) -> Vec<DeclId> {
        self.db
            .relation(self.cat.declref)
            .select(&[(1, refined.constant())])
            .map(|t| DeclId(self.sym_of(t.get(0))))
            .collect()
    }

    /// Physical representation of a type, if instances exist.
    pub fn phrep_of(&self, ty: TypeId) -> Option<PhRepId> {
        if let Some(p) = self.builtins.phrep_of(ty) {
            return Some(p);
        }
        self.db
            .relation(self.cat.phrep)
            .select(&[(1, ty.constant())])
            .next()
            .map(|t| PhRepId(self.sym_of(t.get(0))))
    }

    /// Slots of a physical representation, sorted by attribute name.
    pub fn slots_of(&self, clid: PhRepId) -> Vec<(String, PhRepId)> {
        let mut v: Vec<(String, PhRepId)> = self
            .db
            .relation(self.cat.slot)
            .select(&[(0, clid.constant())])
            .map(|t| {
                (
                    self.db.resolve(self.sym_of(t.get(1))).to_string(),
                    PhRepId(self.sym_of(t.get(2))),
                )
            })
            .collect();
        v.sort();
        v
    }

    // ----- rendering -------------------------------------------------------------

    /// Render the sorted extension of a predicate as aligned text rows —
    /// used to regenerate the paper's Figure 2 style tables.
    pub fn render_relation(&self, pred: PredId) -> String {
        let rows: Vec<Vec<String>> = self
            .db
            .facts_sorted(pred)
            .iter()
            .map(|t: &Tuple| {
                t.iter()
                    .map(|c| {
                        let s = c.display(self.db.interner()).to_string();
                        // Long cells (stored code text) render as `…` like
                        // the paper's Figure 2.
                        if s.len() > 24 || s.contains('\n') {
                            "…".to_string()
                        } else {
                            s
                        }
                    })
                    .collect()
            })
            .collect();
        let name = self.db.pred_name(pred).to_string();
        if rows.is_empty() {
            return format!("{name}: (empty)\n");
        }
        let ncols = rows[0].len();
        let mut widths = vec![0usize; ncols];
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (ri, r) in rows.iter().enumerate() {
            if ri == 0 {
                out.push_str(&format!("{name:<16}"));
            } else {
                out.push_str(&" ".repeat(16));
            }
            for (i, c) in r.iter().enumerate() {
                out.push_str(&format!("{c:<width$}  ", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for MetaModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaModel").field("db", &self.db).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MetaModel {
        MetaModel::new().unwrap()
    }

    #[test]
    fn create_and_look_up_types() {
        let mut m = model();
        let s = m.new_schema("CarSchema").unwrap();
        let person = m.new_type(s, "Person").unwrap();
        assert_eq!(m.schema_by_name("CarSchema"), Some(s));
        assert_eq!(m.type_by_name(s, "Person"), Some(person));
        assert_eq!(m.type_at("Person@CarSchema"), Some(person));
        assert_eq!(m.type_name(person).as_deref(), Some("Person"));
        assert_eq!(m.schema_of(person), Some(s));
    }

    #[test]
    fn attrs_and_inheritance() {
        let mut m = model();
        let s = m.new_schema("S").unwrap();
        let loc = m.new_type(s, "Location").unwrap();
        let city = m.new_type(s, "City").unwrap();
        m.add_attr(loc, "longi", m.builtins.float).unwrap();
        m.add_attr(loc, "lati", m.builtins.float).unwrap();
        m.add_attr(city, "name", m.builtins.string).unwrap();
        m.add_subtype(city, loc).unwrap();
        assert_eq!(m.attrs_of(city).len(), 1);
        let inh = m.attrs_inherited(city);
        assert_eq!(inh.len(), 3);
        assert!(inh.iter().any(|(n, _)| n == "longi"));
    }

    #[test]
    fn decls_args_code_roundtrip() {
        let mut m = model();
        let s = m.new_schema("S").unwrap();
        let loc = m.new_type(s, "Location").unwrap();
        let d = m.new_decl(loc, "distance", m.builtins.float).unwrap();
        m.add_argdecl(d, 1, loc).unwrap();
        let c = m.new_code(d, "return 0.0;").unwrap();
        assert_eq!(m.decl_info(d).unwrap().1, "distance");
        assert_eq!(m.args_of(d), vec![(1, loc)]);
        assert_eq!(m.code_of(d).unwrap().0, c);
        assert_eq!(m.decls_of(loc).len(), 1);
    }

    #[test]
    fn transitive_supertypes_bfs() {
        let mut m = model();
        let s = m.new_schema("S").unwrap();
        let a = m.new_type(s, "A").unwrap();
        let b = m.new_type(s, "B").unwrap();
        let c = m.new_type(s, "C").unwrap();
        m.add_subtype(c, b).unwrap();
        m.add_subtype(b, a).unwrap();
        m.add_subtype(a, m.builtins.any).unwrap();
        let sup = m.supertypes_transitive(c);
        assert_eq!(sup, vec![b, a, m.builtins.any]);
    }

    #[test]
    fn remove_attr_by_name() {
        let mut m = model();
        let s = m.new_schema("S").unwrap();
        let t = m.new_type(s, "T").unwrap();
        m.add_attr(t, "x", m.builtins.int).unwrap();
        assert!(m.remove_attr(t, "x").unwrap());
        assert!(!m.remove_attr(t, "x").unwrap());
        assert!(m.attrs_of(t).is_empty());
    }

    #[test]
    fn phrep_and_slots() {
        let mut m = model();
        let s = m.new_schema("S").unwrap();
        let t = m.new_type(s, "T").unwrap();
        let clid = m.new_phrep(t).unwrap();
        m.add_slot(clid, "x", m.builtins.phrep_int).unwrap();
        assert_eq!(m.phrep_of(t), Some(clid));
        assert_eq!(m.slots_of(clid).len(), 1);
        assert!(m.remove_slot(clid, "x").unwrap());
        assert!(m.slots_of(clid).is_empty());
    }

    #[test]
    fn builtin_phrep_is_implicit() {
        let m = model();
        assert_eq!(m.phrep_of(m.builtins.string), Some(m.builtins.phrep_string));
    }

    #[test]
    fn render_relation_is_aligned_and_sorted() {
        let mut m = model();
        let s = m.new_schema("CarSchema").unwrap();
        m.new_type(s, "Person").unwrap();
        let out = m.render_relation(m.cat.schema);
        assert!(out.contains("Schema"), "{out}");
        assert!(out.contains("CarSchema"), "{out}");
    }
}
