//! User-definable complex schema evolution operations (paper §2.1, §4.2).
//!
//! Each operation here composes primitives (and Analyzer/Runtime services)
//! into one semantic step. None is privileged: all of them go through the
//! same base-predicate interface a user-scripted operation would use, and
//! none checks consistency — that stays with the session's EES check.
//!
//! The library includes the two operations the paper discusses explicitly:
//!
//! * [`add_argument`] — "if we want to change the argument list of an
//!   operation, even those locations within the code of (other) operations
//!   have to be changed, which contain calls of this operation. This case
//!   could be supported by a complex evolution operator which finds out all
//!   relevant locations and offers them to the user" (§4.2);
//! * [`delete_type`] — Bocionek's observation that "there exist five
//!   different semantics for a simple schema evolution operation like type
//!   deletion" (§1); all five are provided as [`DeleteTypeSemantics`].

use gom_analyzer::{body::parse_code_text, codereq};
use gom_core::SchemaManager;
use gom_deductive::{Const, Error as DbError, Row, Tuple};
use gom_model::{CodeId, DeclId, MetaModel, SchemaId, TypeId};
use std::collections::BTreeMap;

/// Errors from complex evolution operations.
#[derive(Debug)]
pub enum EvolError {
    /// Database error.
    Db(DbError),
    /// The operation's preconditions are not met; reasons listed.
    Blocked(Vec<String>),
    /// Call sites need user-supplied patches (the "offer to the user").
    MissingPatches(Vec<CodeId>),
    /// A patched or copied code fragment failed analysis.
    Analyze(String),
}

impl std::fmt::Display for EvolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvolError::Db(e) => write!(f, "{e}"),
            EvolError::Blocked(rs) => write!(f, "operation blocked: {}", rs.join("; ")),
            EvolError::MissingPatches(cs) => {
                write!(f, "{} call site(s) need patches", cs.len())
            }
            EvolError::Analyze(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EvolError {}

impl From<DbError> for EvolError {
    fn from(e: DbError) -> Self {
        EvolError::Db(e)
    }
}

type EvolResult<T> = Result<T, EvolError>;

// ----- code maintenance helpers ------------------------------------------------

/// Replace the text of a code fragment and re-derive its `CodeReqDecl` /
/// `CodeReqAttr` facts by re-analysis (parameter names are kept).
pub fn replace_code_text(m: &mut MetaModel, cid: CodeId, new_text: &str) -> EvolResult<()> {
    let mut rows = m.db.relation(m.cat.code).select(&[(0, cid.constant())]);
    let Some(row) = rows.next() else {
        return Err(EvolError::Blocked(vec![format!(
            "no code fragment `{}`",
            m.db.resolve(cid.sym())
        )]));
    };
    let row = row.to_tuple();
    drop(rows);
    let decl = DeclId(row.get(2).as_sym().expect("decl column"));
    let (receiver, _, _) = m
        .decl_info(decl)
        .ok_or_else(|| EvolError::Blocked(vec!["code's declaration is gone".into()]))?;
    // Remove the old Code fact and dependency facts.
    m.db.remove(m.cat.code, &row)?;
    m.db.remove_matching(m.cat.codereq_attr, &[(0, cid.constant())])?;
    m.db.remove_matching(m.cat.codereq_decl, &[(0, cid.constant())])?;
    // Insert the new text under the same code id.
    let text_c = m.db.constant(new_text);
    m.db.insert(m.cat.code, vec![cid.constant(), text_c, decl.constant()])?;
    // Re-analysis with the recorded parameter names and declared arg types.
    let params = code_params(m, cid);
    let arg_types: Vec<TypeId> = m.args_of(decl).into_iter().map(|(_, t)| t).collect();
    let typed: Vec<(String, TypeId)> = params
        .into_iter()
        .zip(arg_types)
        .map(|((_, n), t)| (n, t))
        .collect();
    let block = parse_code_text(new_text).map_err(|e| EvolError::Analyze(e.to_string()))?;
    let analysis = codereq::analyze(m, receiver, decl, &typed, &block)
        .map_err(|e| EvolError::Analyze(e.to_string()))?;
    for (t, a) in analysis.attr_reqs {
        m.add_codereq_attr(cid, t, &a)?;
    }
    for d in analysis.decl_reqs {
        m.add_codereq_decl(cid, d)?;
    }
    Ok(())
}

/// Recorded parameter names of a code fragment, ordered.
pub fn code_params(m: &MetaModel, cid: CodeId) -> Vec<(i64, String)> {
    let Some(cp) = m.db.pred_id("CodeParam") else {
        return Vec::new();
    };
    let mut rows: Vec<(i64, String)> =
        m.db.relation(cp)
            .select(&[(0, cid.constant())])
            .filter_map(|t| {
                Some((
                    t.get(1).as_int()?,
                    m.db.resolve(t.get(2).as_sym()?).to_string(),
                ))
            })
            .collect();
    rows.sort();
    rows
}

// ----- add argument (§4.2) ----------------------------------------------------

/// Report of an [`add_argument`] execution.
#[derive(Debug)]
pub struct AddArgumentReport {
    /// 1-based position of the new argument.
    pub pos: i64,
    /// Call-site code fragments that were patched.
    pub patched: Vec<CodeId>,
    /// Refining/refined declarations that also received the argument (to
    /// keep contravariance arity intact).
    pub refinements_updated: Vec<DeclId>,
}

/// The call sites that must change when `decl` gains an argument —
/// step one of the complex operation: "finds out all relevant locations and
/// offers them to the user".
pub fn add_argument_plan(m: &MetaModel, decl: DeclId) -> Vec<CodeId> {
    let mut out: Vec<CodeId> =
        m.db.relation(m.cat.codereq_decl)
            .select(&[(1, decl.constant())])
            .filter_map(|t| t.get(0).as_sym().map(CodeId))
            .collect();
    out.sort();
    out.dedup();
    out
}

/// Add an argument of type `ty` (named `param_name` in the implementation)
/// to `decl` and to every declaration in its refinement family, patch the
/// affected call sites with the user-supplied texts, and re-analyze them.
pub fn add_argument(
    mgr: &mut SchemaManager,
    decl: DeclId,
    ty: TypeId,
    param_name: &str,
    patches: &BTreeMap<CodeId, String>,
) -> EvolResult<AddArgumentReport> {
    let m = &mut mgr.meta;
    let pos = (m.args_of(decl).len() + 1) as i64;
    // Refinement family: declarations transitively refining or refined by
    // `decl` must keep the same arity (contravariance).
    let mut family = vec![decl];
    let mut i = 0;
    while i < family.len() {
        let d = family[i];
        for r in m.refinements_of(d).into_iter().chain(m.refined_by(d)) {
            if !family.contains(&r) {
                family.push(r);
            }
        }
        i += 1;
    }
    // Collect all affected call sites first.
    let mut affected: Vec<CodeId> = Vec::new();
    for &d in &family {
        affected.extend(add_argument_plan(m, d));
    }
    affected.sort();
    affected.dedup();
    let missing: Vec<CodeId> = affected
        .iter()
        .copied()
        .filter(|c| !patches.contains_key(c))
        .collect();
    if !missing.is_empty() {
        return Err(EvolError::MissingPatches(missing));
    }
    // 1. ArgDecl rows for the whole family.
    for &d in &family {
        let have = m.args_of(d).len() as i64;
        if have < pos {
            m.add_argdecl(d, pos, ty)?;
        }
        // 2. The implementation gains a parameter name.
        if let Some((cid, _)) = m.code_of(d) {
            if let Some(cp) = m.db.pred_id("CodeParam") {
                let n = m.db.constant(param_name);
                m.db.insert(cp, vec![cid.constant(), Const::Int(pos), n])?;
            }
        }
    }
    // 3. Patch call sites.
    for (cid, text) in patches {
        if affected.contains(cid) {
            replace_code_text(m, *cid, text)?;
        }
    }
    Ok(AddArgumentReport {
        pos,
        patched: affected,
        refinements_updated: family[1..].to_vec(),
    })
}

// ----- type deletion (Bocionek's five semantics) --------------------------------

/// The five semantics of type deletion (Bocionek \[5\], paper §1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeleteTypeSemantics {
    /// 1 — reject when the type has subtypes, instances, or is referenced
    /// anywhere (safest).
    Restrict,
    /// 2 — delete the type and its own definitions; reconnect its subtypes
    /// to its supertypes; reject when other references remain.
    Reconnect,
    /// 3 — cascade at the schema level: also delete referencing attributes
    /// and declarations (with their code). Dangling *code bodies* that
    /// still mention removed operations surface as EES violations.
    Cascade,
    /// 4 — cascade including the object base: delete all instances first,
    /// then cascade.
    CascadeInstances,
    /// 5 — remove only the `Type` fact and leave every dangling reference
    /// for the consistency control to report and repair interactively.
    Orphan,
}

impl DeleteTypeSemantics {
    /// The keywords [`Self::parse`] accepts, for usage and error messages.
    pub const CHOICES: &'static str = "restrict|reconnect|cascade|cascade-objects|orphan";

    /// Parse one of [`Self::CHOICES`] (front-end keyword form).
    pub fn parse(s: &str) -> Option<DeleteTypeSemantics> {
        Some(match s {
            "restrict" => DeleteTypeSemantics::Restrict,
            "reconnect" => DeleteTypeSemantics::Reconnect,
            "cascade" => DeleteTypeSemantics::Cascade,
            "cascade-objects" => DeleteTypeSemantics::CascadeInstances,
            "orphan" => DeleteTypeSemantics::Orphan,
            _ => return None,
        })
    }
}

/// Report of a [`delete_type`] execution.
#[derive(Debug, Default)]
pub struct DeleteTypeReport {
    /// Facts removed (base-predicate count).
    pub facts_removed: usize,
    /// Subtype edges re-routed (Reconnect).
    pub reconnected: usize,
    /// Objects deleted (CascadeInstances).
    pub instances_deleted: usize,
    /// Declarations removed in cascades.
    pub decls_removed: usize,
}

fn external_references(m: &MetaModel, ty: TypeId) -> Vec<String> {
    let mut out = Vec::new();
    let label = m.type_name(ty).unwrap_or_default();
    for t in m.db.relation(m.cat.attr).select(&[(2, ty.constant())]) {
        if t.get(0) != ty.constant() {
            out.push(format!(
                "attribute {} has domain `{label}`",
                t.display(m.db.interner())
            ));
        }
    }
    for t in m.db.relation(m.cat.decl).select(&[(3, ty.constant())]) {
        if t.get(1) != ty.constant() {
            out.push(format!(
                "declaration {} has result `{label}`",
                t.display(m.db.interner())
            ));
        }
    }
    for t in m.db.relation(m.cat.argdecl).select(&[(2, ty.constant())]) {
        let did = DeclId(t.get(0).as_sym().expect("decl id"));
        if m.decl_info(did).map(|(r, _, _)| r) != Some(ty) {
            out.push(format!(
                "argument {} has type `{label}`",
                t.display(m.db.interner())
            ));
        }
    }
    for t in m.db.relation(m.cat.subtyp).select(&[(1, ty.constant())]) {
        out.push(format!(
            "type {} is a subtype of `{label}`",
            t.display(m.db.interner())
        ));
    }
    if m.phrep_of(ty).is_some() && !m.builtins.is_builtin(ty) {
        out.push(format!("`{label}` has instances"));
    }
    out
}

/// Remove a declaration with everything it owns (arguments, code, code
/// dependencies, refinement edges). Crate-public for the diff applier.
pub(crate) fn delete_decl_cascade_public(m: &mut MetaModel, decl: DeclId) {
    let mut report = DeleteTypeReport::default();
    remove_decl_cascade(m, decl, &mut report);
}

fn remove_decl_cascade(m: &mut MetaModel, decl: DeclId, report: &mut DeleteTypeReport) {
    let remove_all = |m: &mut MetaModel, pred, col, key: Const, report: &mut DeleteTypeReport| {
        report.facts_removed += m.db.remove_matching(pred, &[(col, key)]).unwrap_or(0);
    };
    // Code of the declaration (plus its dependency and parameter facts).
    let code_rows: Vec<Tuple> =
        m.db.relation(m.cat.code)
            .select(&[(2, decl.constant())])
            .map(Row::to_tuple)
            .collect();
    for code_row in code_rows {
        let cid = code_row.get(0);
        remove_all(m, m.cat.codereq_attr, 0, cid, report);
        remove_all(m, m.cat.codereq_decl, 0, cid, report);
        if let Some(cp) = m.db.pred_id("CodeParam") {
            remove_all(m, cp, 0, cid, report);
        }
        if m.db.remove(m.cat.code, &code_row).unwrap_or(false) {
            report.facts_removed += 1;
        }
    }
    remove_all(m, m.cat.argdecl, 0, decl.constant(), report);
    remove_all(m, m.cat.declref, 0, decl.constant(), report);
    remove_all(m, m.cat.declref, 1, decl.constant(), report);
    remove_all(m, m.cat.decl, 0, decl.constant(), report);
    report.decls_removed += 1;
}

fn remove_own_definitions(m: &mut MetaModel, ty: TypeId, report: &mut DeleteTypeReport) {
    for (attr, _) in m.attrs_of(ty) {
        if m.remove_attr(ty, &attr).unwrap_or(false) {
            report.facts_removed += 1;
        }
    }
    for (d, _, _) in m.decls_of(ty) {
        remove_decl_cascade(m, d, report);
    }
    // subtype edges where ty is the sub
    report.facts_removed +=
        m.db.remove_matching(m.cat.subtyp, &[(0, ty.constant())])
            .unwrap_or(0);
    // extension facts owned by the type
    for pname in ["SortVariant", "evolves_to_T", "FashionType"] {
        if let Some(p) = m.db.pred_id(pname) {
            for col in [0, 1] {
                if col >= m.db.pred_decl(p).arity {
                    continue;
                }
                report.facts_removed +=
                    m.db.remove_matching(p, &[(col, ty.constant())])
                        .unwrap_or(0);
            }
        }
    }
    // the Type fact itself
    report.facts_removed +=
        m.db.remove_matching(m.cat.ty, &[(0, ty.constant())])
            .unwrap_or(0);
}

/// Delete a type under the chosen semantics. Runs inside the caller's
/// evolution session; EES decides whether the result is consistent.
pub fn delete_type(
    mgr: &mut SchemaManager,
    ty: TypeId,
    semantics: DeleteTypeSemantics,
) -> EvolResult<DeleteTypeReport> {
    let mut report = DeleteTypeReport::default();
    match semantics {
        DeleteTypeSemantics::Restrict => {
            let refs = external_references(&mgr.meta, ty);
            if !refs.is_empty() {
                return Err(EvolError::Blocked(refs));
            }
            remove_own_definitions(&mut mgr.meta, ty, &mut report);
        }
        DeleteTypeSemantics::Reconnect => {
            let m = &mut mgr.meta;
            let sups = m.supertypes(ty);
            let subs = m.subtypes(ty);
            let refs: Vec<String> = external_references(m, ty)
                .into_iter()
                .filter(|r| !r.contains("is a subtype of"))
                .collect();
            if !refs.is_empty() {
                return Err(EvolError::Blocked(refs));
            }
            for &sub in &subs {
                let t = Tuple::from(vec![sub.constant(), ty.constant()]);
                if m.db.remove(m.cat.subtyp, &t).unwrap_or(false) {
                    report.facts_removed += 1;
                }
                for &sup in &sups {
                    m.add_subtype(sub, sup)?;
                    report.reconnected += 1;
                }
            }
            remove_own_definitions(m, ty, &mut report);
        }
        DeleteTypeSemantics::Cascade | DeleteTypeSemantics::CascadeInstances => {
            if semantics == DeleteTypeSemantics::CascadeInstances {
                let oids: Vec<_> = mgr.runtime.objects.extent(ty).to_vec();
                for oid in oids {
                    if mgr
                        .runtime
                        .delete(&mut mgr.meta, oid)
                        .map_err(|e| EvolError::Blocked(vec![e.to_string()]))?
                    {
                        report.instances_deleted += 1;
                    }
                }
            }
            let m = &mut mgr.meta;
            // Referencing attributes elsewhere.
            let hits: Vec<Tuple> =
                m.db.relation(m.cat.attr)
                    .select(&[(2, ty.constant())])
                    .map(Row::to_tuple)
                    .collect();
            for t in hits {
                if m.db.remove(m.cat.attr, &t).unwrap_or(false) {
                    report.facts_removed += 1;
                }
            }
            // Declarations with result or argument of this type.
            let mut doomed: Vec<DeclId> =
                m.db.relation(m.cat.decl)
                    .select(&[(3, ty.constant())])
                    .filter_map(|t| t.get(0).as_sym().map(DeclId))
                    .collect();
            doomed.extend(
                m.db.relation(m.cat.argdecl)
                    .select(&[(2, ty.constant())])
                    .filter_map(|t| t.get(0).as_sym().map(DeclId)),
            );
            doomed.sort();
            doomed.dedup();
            for d in doomed {
                // own decls are removed below with the type
                if m.decl_info(d).map(|(r, _, _)| r) != Some(ty) {
                    remove_decl_cascade(m, d, &mut report);
                }
            }
            // Hierarchy edges above the type.
            report.facts_removed +=
                m.db.remove_matching(m.cat.subtyp, &[(1, ty.constant())])
                    .unwrap_or(0);
            // Physical representation, if instance-free by now.
            if let Some(clid) = m.phrep_of(ty) {
                for (attr, _) in m.slots_of(clid) {
                    m.remove_slot(clid, &attr)?;
                    report.facts_removed += 1;
                }
                let t = Tuple::from(vec![clid.constant(), ty.constant()]);
                if m.db.remove(m.cat.phrep, &t).unwrap_or(false) {
                    report.facts_removed += 1;
                }
            }
            remove_own_definitions(m, ty, &mut report);
        }
        DeleteTypeSemantics::Orphan => {
            let m = &mut mgr.meta;
            report.facts_removed +=
                m.db.remove_matching(m.cat.ty, &[(0, ty.constant())])
                    .unwrap_or(0);
        }
    }
    Ok(report)
}

// ----- type copying (versioning support, §4.2 step 4) ---------------------------

/// Copy a type (attributes, declarations, argument lists, implementations)
/// into another schema under a new name — "defining a new type Car by using
/// the same textual definition as Car in schema CarSchema". Supertype edges
/// are *not* copied; the caller wires the new hierarchy. Implementations
/// are re-analyzed against the copy.
pub fn copy_type_into(
    mgr: &mut SchemaManager,
    src: TypeId,
    dst_schema: SchemaId,
    new_name: &str,
) -> EvolResult<TypeId> {
    let m = &mut mgr.meta;
    let new_ty = m.new_type(dst_schema, new_name)?;
    for (attr, domain) in m.attrs_of(src) {
        m.add_attr(new_ty, &attr, domain)?;
    }
    for (d, op, result) in m.decls_of(src) {
        let nd = m.new_decl(new_ty, &op, result)?;
        for (pos, t) in m.args_of(d) {
            m.add_argdecl(nd, pos, t)?;
        }
        if let Some((old_cid, text)) = m.code_of(d) {
            let ncid = m.new_code(nd, &text)?;
            // copy parameter names
            let params = code_params(m, old_cid);
            if let Some(cp) = m.db.pred_id("CodeParam") {
                for (pos, name) in &params {
                    let n = m.db.constant(name);
                    m.db.insert(cp, vec![ncid.constant(), Const::Int(*pos), n])?;
                }
            }
            // re-analyze against the copy
            let arg_types: Vec<TypeId> = m.args_of(nd).into_iter().map(|(_, t)| t).collect();
            let typed: Vec<(String, TypeId)> =
                params.into_iter().map(|(_, n)| n).zip(arg_types).collect();
            let block = parse_code_text(&text).map_err(|e| EvolError::Analyze(e.to_string()))?;
            let analysis = codereq::analyze(m, new_ty, nd, &typed, &block)
                .map_err(|e| EvolError::Analyze(e.to_string()))?;
            for (t, a) in analysis.attr_reqs {
                m.add_codereq_attr(ncid, t, &a)?;
            }
            for dd in analysis.decl_reqs {
                m.add_codereq_decl(ncid, dd)?;
            }
        }
    }
    Ok(new_ty)
}

/// Rename a type (same id, new user name).
pub fn rename_type(mgr: &mut SchemaManager, ty: TypeId, new_name: &str) -> EvolResult<()> {
    let m = &mut mgr.meta;
    let mut rows = m.db.relation(m.cat.ty).select(&[(0, ty.constant())]);
    let Some(row) = rows.next().map(Row::to_tuple) else {
        return Err(EvolError::Blocked(vec!["type does not exist".into()]));
    };
    drop(rows);
    let schema = row.get(2);
    m.db.remove(m.cat.ty, &row)?;
    let n = m.db.constant(new_name);
    m.db.insert(m.cat.ty, vec![ty.constant(), n, schema])?;
    Ok(())
}

/// Pull an attribute common to all direct subtypes of `sup` up into `sup`
/// (a classic hierarchy-restructuring operation).
pub fn pull_up_attr(mgr: &mut SchemaManager, sup: TypeId, attr: &str) -> EvolResult<usize> {
    let m = &mut mgr.meta;
    let subs = m.subtypes(sup);
    if subs.is_empty() {
        return Err(EvolError::Blocked(vec!["type has no subtypes".into()]));
    }
    let mut domain = None;
    for &sub in &subs {
        match m.attrs_of(sub).into_iter().find(|(n, _)| n == attr) {
            Some((_, d)) => {
                if *domain.get_or_insert(d) != d {
                    return Err(EvolError::Blocked(vec![format!(
                        "`{attr}` has different domains across subtypes"
                    )]));
                }
            }
            None => {
                return Err(EvolError::Blocked(vec![format!(
                    "subtype `{}` lacks `{attr}`",
                    m.type_name(sub).unwrap_or_default()
                )]))
            }
        }
    }
    let domain = domain.expect("non-empty subs");
    for &sub in &subs {
        m.remove_attr(sub, attr)?;
    }
    m.add_attr(sup, attr, domain)?;
    Ok(subs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gom_analyzer::car_schema::CAR_SCHEMA_SRC;
    use gom_core::EvolutionOutcome;

    fn mgr_with_cars() -> SchemaManager {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(CAR_SCHEMA_SRC).unwrap();
        mgr
    }

    fn car_type(mgr: &SchemaManager, name: &str) -> TypeId {
        let s = mgr.meta.schema_by_name("CarSchema").unwrap();
        mgr.meta.type_by_name(s, name).unwrap()
    }

    #[test]
    fn add_argument_finds_call_sites_and_requires_patches() {
        let mut mgr = mgr_with_cars();
        let loc = car_type(&mgr, "Location");
        let (d_loc, _, _) = mgr.meta.decls_of(loc)[0];
        // distance is called by City.distance (super) and changeLocation.
        let plan = add_argument_plan(&mgr.meta, d_loc);
        assert_eq!(plan.len(), 1); // City's super call
        mgr.begin_evolution().unwrap();
        let int = mgr.meta.builtins.int;
        let err = add_argument(&mut mgr, d_loc, int, "precision", &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, EvolError::MissingPatches(_)));
        mgr.rollback_evolution().unwrap();
    }

    #[test]
    fn add_argument_with_patches_commits_consistently() {
        let mut mgr = mgr_with_cars();
        let loc = car_type(&mgr, "Location");
        let city = car_type(&mgr, "City");
        let car = car_type(&mgr, "Car");
        let (d_loc, _, _) = mgr.meta.decls_of(loc)[0];
        let (d_city, _, _) = mgr.meta.decls_of(city)[0];
        let (d_car, _, _) = mgr.meta.decls_of(car)[0];
        // All call sites across the refinement family:
        let mut affected = add_argument_plan(&mgr.meta, d_loc);
        affected.extend(add_argument_plan(&mgr.meta, d_city));
        affected.sort();
        affected.dedup();
        assert_eq!(affected.len(), 2); // City.distance (super) + changeLocation
        let mut patches = BTreeMap::new();
        // Patch City.distance to pass the new argument to super.
        let (cid2, _) = mgr.meta.code_of(d_city).unwrap();
        patches.insert(
            cid2,
            "begin
               if (self.name == \"nowhere\") return super.distance(other, precision);
               return (self.longi - other.longi) * (self.longi - other.longi)
                    + (self.lati  - other.lati)  * (self.lati  - other.lati);
             end"
            .to_string(),
        );
        // Patch changeLocation's call.
        let (cid3, _) = mgr.meta.code_of(d_car).unwrap();
        patches.insert(
            cid3,
            "begin
               if (self.owner == driver)
               begin
                 self.milage   := self.milage + self.location.distance(newLocation, 1);
                 self.location := newLocation;
                 return self.milage;
               end
               else return -1.0;
             end"
            .to_string(),
        );
        mgr.begin_evolution().unwrap();
        let int = mgr.meta.builtins.int;
        let report = add_argument(&mut mgr, d_loc, int, "precision", &patches).unwrap();
        assert_eq!(report.pos, 2);
        assert_eq!(report.refinements_updated, vec![d_city]);
        let out = mgr.end_evolution().unwrap();
        assert!(
            out.is_consistent(),
            "{:?}",
            out.violations()
                .iter()
                .map(|v| v.render(&mgr.meta.db))
                .collect::<Vec<_>>()
        );
        // Both declarations now have 2 arguments.
        assert_eq!(mgr.meta.args_of(d_loc).len(), 2);
        assert_eq!(mgr.meta.args_of(d_city).len(), 2);
    }

    #[test]
    fn delete_type_restrict_blocks_on_references() {
        let mut mgr = mgr_with_cars();
        let person = car_type(&mgr, "Person");
        mgr.begin_evolution().unwrap();
        let err = delete_type(&mut mgr, person, DeleteTypeSemantics::Restrict).unwrap_err();
        let EvolError::Blocked(reasons) = err else {
            panic!("expected Blocked");
        };
        assert!(reasons.iter().any(|r| r.contains("domain")), "{reasons:?}");
        mgr.rollback_evolution().unwrap();
    }

    #[test]
    fn delete_type_reconnect_rewires_hierarchy() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(
            "schema S is
               type A is end type A;
               type B supertype A is end type B;
               type C supertype B is end type C;
             end schema S;",
        )
        .unwrap();
        let s = mgr.meta.schema_by_name("S").unwrap();
        let a = mgr.meta.type_by_name(s, "A").unwrap();
        let b = mgr.meta.type_by_name(s, "B").unwrap();
        let c = mgr.meta.type_by_name(s, "C").unwrap();
        mgr.begin_evolution().unwrap();
        let report = delete_type(&mut mgr, b, DeleteTypeSemantics::Reconnect).unwrap();
        assert_eq!(report.reconnected, 1);
        assert!(mgr.end_evolution().unwrap().is_consistent());
        assert_eq!(mgr.meta.supertypes(c), vec![a]);
    }

    #[test]
    fn delete_type_cascade_removes_referencing_definitions() {
        let mut mgr = mgr_with_cars();
        let city = car_type(&mgr, "City");
        let car = car_type(&mgr, "Car");
        mgr.begin_evolution().unwrap();
        let report = delete_type(&mut mgr, city, DeleteTypeSemantics::Cascade).unwrap();
        assert!(report.facts_removed > 0);
        // Car.location (domain City) removed; changeLocation (arg City)
        // removed with its code.
        assert!(mgr.meta.attrs_of(car).iter().all(|(n, _)| n != "location"));
        assert!(mgr.meta.decls_of(car).is_empty());
        let out = mgr.end_evolution().unwrap();
        assert!(
            out.is_consistent(),
            "{:?}",
            out.violations()
                .iter()
                .map(|v| v.render(&mgr.meta.db))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn delete_type_orphan_surfaces_violations_for_repair() {
        let mut mgr = mgr_with_cars();
        let person = car_type(&mgr, "Person");
        mgr.begin_evolution().unwrap();
        delete_type(&mut mgr, person, DeleteTypeSemantics::Orphan).unwrap();
        let out = mgr.end_evolution().unwrap();
        let EvolutionOutcome::Inconsistent(violations) = out else {
            panic!("expected violations");
        };
        // Car.owner dangles, Person's own attrs dangle, changeLocation's
        // first argument dangles, the subtype edge dangles…
        let names: Vec<&str> = violations.iter().map(|v| v.constraint.as_str()).collect();
        assert!(names.contains(&"attr_domain_ref"));
        assert!(names.contains(&"attr_type_ref"));
        assert!(names.contains(&"argdecl_type_ref"));
        assert!(names.contains(&"subtyp_sub_ref"));
        // …and every violation has generated repairs.
        let v0 = violations[0].clone();
        let repairs = mgr.repairs_for(&v0).unwrap();
        assert!(!repairs.is_empty());
        mgr.rollback_evolution().unwrap();
    }

    #[test]
    fn delete_type_cascade_instances_clears_object_base() {
        let mut mgr = mgr_with_cars();
        let person = car_type(&mgr, "Person");
        let p1 = mgr.create_object(person).unwrap();
        let _p2 = mgr.create_object(person).unwrap();
        mgr.begin_evolution().unwrap();
        // Cascade also removes Car (its owner attr references Person)… no:
        // cascade removes the *attribute*, not the Car type. Instances of
        // Person are deleted.
        let report = delete_type(&mut mgr, person, DeleteTypeSemantics::CascadeInstances).unwrap();
        assert_eq!(report.instances_deleted, 2);
        assert!(mgr.runtime.objects.get(p1).is_none());
        let out = mgr.end_evolution().unwrap();
        assert!(
            out.is_consistent(),
            "{:?}",
            out.violations()
                .iter()
                .map(|v| v.render(&mgr.meta.db))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn copy_type_preserves_structure_and_reanalyzes() {
        let mut mgr = mgr_with_cars();
        let loc = car_type(&mgr, "Location");
        mgr.begin_evolution().unwrap();
        let s2 = mgr.meta.new_schema("NewCarSchema").unwrap();
        let loc2 = copy_type_into(&mut mgr, loc, s2, "Location").unwrap();
        let any = mgr.meta.builtins.any;
        mgr.meta.add_subtype(loc2, any).unwrap();
        let out = mgr.end_evolution().unwrap();
        assert!(
            out.is_consistent(),
            "{:?}",
            out.violations()
                .iter()
                .map(|v| v.render(&mgr.meta.db))
                .collect::<Vec<_>>()
        );
        assert_eq!(mgr.meta.attrs_of(loc2).len(), 2);
        assert_eq!(mgr.meta.decls_of(loc2).len(), 1);
        let (d2, _, _) = mgr.meta.decls_of(loc2)[0];
        assert!(mgr.meta.code_of(d2).is_some());
        // `self.longi` in the copy resolves to the COPY's attribute;
        // `other.longi` still resolves to the original (the argument type
        // was copied verbatim and references Location@CarSchema).
        let (cid, _) = mgr.meta.code_of(d2).unwrap();
        let rows: Vec<Tuple> = mgr
            .meta
            .db
            .relation(mgr.meta.cat.codereq_attr)
            .select(&[(0, cid.constant())])
            .map(Row::to_tuple)
            .collect();
        assert!(rows.iter().any(|t| t.get(1) == loc2.constant()), "{rows:?}");
        assert!(rows.iter().any(|t| t.get(1) == loc.constant()), "{rows:?}");
    }

    #[test]
    fn rename_and_pull_up() {
        let mut mgr = SchemaManager::new().unwrap();
        mgr.define_schema(
            "schema S is
               type Base is end type Base;
               type L supertype Base is [ color : string; ] end type L;
               type R supertype Base is [ color : string; ] end type R;
             end schema S;",
        )
        .unwrap();
        let s = mgr.meta.schema_by_name("S").unwrap();
        let base = mgr.meta.type_by_name(s, "Base").unwrap();
        mgr.begin_evolution().unwrap();
        let n = pull_up_attr(&mut mgr, base, "color").unwrap();
        assert_eq!(n, 2);
        rename_type(&mut mgr, base, "Colored").unwrap();
        assert!(mgr.end_evolution().unwrap().is_consistent());
        assert!(mgr.meta.type_by_name(s, "Colored").is_some());
        assert_eq!(mgr.meta.attrs_of(base).len(), 1);
    }
}
