//! Lowering: mapping parsed GOM frames to base-predicate extensions.
//!
//! This is the *Analyzer* of the paper's architecture: "Each call of an
//! update operation will be mapped to corresponding modifications of the
//! schema base" (§2.2). Lowering creates `Schema`/`Type`/`Attr`/`Decl`/
//! `ArgDecl`/`Code` facts, the `SubTypRel`/`DeclRefinement` relationship
//! facts, and the `CodeReqDecl`/`CodeReqAttr` facts derived by code
//! analysis. Consistency is *not* checked here — that is the Consistency
//! Control's job at the end of the evolution session (decoupling, §2.1).

use crate::ast::*;
use crate::codereq::{self, AnalysisError};
use crate::parse::{parse_source, ParseError};
use crate::paths::{Hierarchy, PathError, Undo};
use gom_model::{DeclId, MetaModel, SchemaId, TypeId};

/// Extension predicates owned by the Analyzer: enum sorts, the schema
/// hierarchy of appendix A, and schema-level variables. Installed on first
/// use; pure additions to the database model (paper §2.2, "expanding the
/// data model").
pub const ANALYZER_EXTENSION_DECLS: &str = "\
base SortVariant(tid, variant).
base SubSchemaOf(child!, parent).
base SchemaVar(sid!, var!, tid).
base CodeParam(cid!, argno!, pname).
derived SubSchemaOfT(child, parent).
SubSchemaOfT(X, Y) :- SubSchemaOf(X, Y).
SubSchemaOfT(X, Z) :- SubSchemaOf(X, Y), SubSchemaOfT(Y, Z).
constraint subschema_acyclic \"schema hierarchy must be acyclic\":
  forall X: !SubSchemaOfT(X, X).
constraint sortvariant_type_ref \"enum sorts must be declared types\":
  forall T, V: SortVariant(T, V) -> exists N, S: Type(T, N, S).
constraint schemavar_type_ref \"schema variables must have declared types\":
  forall S, V, T: SchemaVar(S, V, T) -> exists N, S2: Type(T, N, S2).
";

/// Errors raised by the Analyzer.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Syntax error.
    Parse(ParseError),
    /// Schema hierarchy / name space error.
    Path(PathError),
    /// Method-body analysis error.
    Code(AnalysisError),
    /// Name resolution or structural error.
    Resolve(String),
    /// Database-level error.
    Db(gom_deductive::Error),
    /// The lowered schema base tripped the lint gate (rendered report).
    Lint(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Parse(e) => write!(f, "{e}"),
            AnalyzeError::Path(e) => write!(f, "{e}"),
            AnalyzeError::Code(e) => write!(f, "{e}"),
            AnalyzeError::Resolve(m) => write!(f, "resolve error: {m}"),
            AnalyzeError::Db(e) => write!(f, "{e}"),
            AnalyzeError::Lint(r) => write!(f, "schema lint failed:\n{r}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<ParseError> for AnalyzeError {
    fn from(e: ParseError) -> Self {
        AnalyzeError::Parse(e)
    }
}
impl From<PathError> for AnalyzeError {
    fn from(e: PathError) -> Self {
        AnalyzeError::Path(e)
    }
}
impl From<AnalysisError> for AnalyzeError {
    fn from(e: AnalysisError) -> Self {
        AnalyzeError::Code(e)
    }
}
impl From<gom_deductive::Error> for AnalyzeError {
    fn from(e: gom_deductive::Error) -> Self {
        AnalyzeError::Db(e)
    }
}

/// Result of lowering one schema frame.
#[derive(Clone, Debug)]
pub struct LoweredSchema {
    /// The schema's id.
    pub id: SchemaId,
    /// Its user name.
    pub name: String,
    /// The types created, `(name, id)`, in declaration order.
    pub types: Vec<(String, TypeId)>,
}

/// The Analyzer: front end for user-initiated schema updates.
///
/// Keeps one schema hierarchy of every frame it has lowered, so that later
/// frames can reference earlier schemas through subschema entries, imports,
/// and at-notation. Each lowering extends it in place; a lowering inside an
/// evolution session can be undone with the session
/// ([`Self::undo_session`]).
#[derive(Default)]
pub struct Analyzer {
    hier: Hierarchy,
    /// Undo records of the frames lowered inside the open evolution
    /// session, oldest first.
    session_undo: Vec<Undo>,
    /// When set, every lowering ends with a lint of the schema base and
    /// fails with [`AnalyzeError::Lint`] if any diagnostic reaches this
    /// severity.
    lint_gate: Option<gom_lint::Severity>,
}

impl Analyzer {
    /// Fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable (or disable, with `None`) linting after every lowering.
    /// Diagnostics at `level` or worse make the lowering fail. Inside an
    /// evolution session the lowering's facts are then undone (see
    /// [`Self::lower_items`]); outside one they stay in the database.
    pub fn set_lint_gate(&mut self, level: Option<gom_lint::Severity>) {
        self.lint_gate = level;
    }

    /// Install the Analyzer's extension predicates (idempotent).
    pub fn install_extensions(m: &mut MetaModel) -> Result<(), AnalyzeError> {
        if m.db.pred_id("SortVariant").is_none() {
            m.db.load(ANALYZER_EXTENSION_DECLS)?;
        }
        Ok(())
    }

    /// The accumulated schema hierarchy (appendix A view).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Keep every frame lowered so far: the evolution session they were
    /// lowered in committed, or a new one begins.
    pub fn forget_undo(&mut self) {
        self.session_undo.clear();
    }

    /// Remove the frames lowered since the last [`Self::forget_undo`] from
    /// the hierarchy: their evolution session was rolled back.
    pub fn undo_session(&mut self) {
        while let Some(undo) = self.session_undo.pop() {
            self.hier.revert(undo);
        }
    }

    /// Parse and lower a source file into the database model.
    pub fn lower_source(
        &mut self,
        m: &mut MetaModel,
        src: &str,
    ) -> Result<Vec<LoweredSchema>, AnalyzeError> {
        let _sp = gom_obs::span("analyzer.lower");
        let items = {
            let _parse = gom_obs::span("analyzer.parse");
            parse_source(src)?
        };
        self.lower_items(m, items)
    }

    /// Lower already-parsed items. The hierarchy is extended first and
    /// restored if any later pass fails; inside an evolution session the
    /// facts the failed lowering wrote are undone too, so a failed source
    /// leaves nothing behind for the session to commit. The undo goes
    /// through the database's normal mutation path, so a maintained IDB
    /// stays armed and the session's EES still reads it.
    pub fn lower_items(
        &mut self,
        m: &mut MetaModel,
        items: Vec<Item>,
    ) -> Result<Vec<LoweredSchema>, AnalyzeError> {
        Self::install_extensions(m)?;
        let new_schemas: Vec<&SchemaDef> = items
            .iter()
            .filter_map(|i| match i {
                Item::Schema(s) => Some(s),
                Item::Fashion(_) => None,
            })
            .collect();
        // Validate the combined hierarchy before touching the database.
        let undo = self.hier.extend(&new_schemas)?;
        let mark = m.db.session_mark();
        match self.lower_frames(m, &items, &new_schemas) {
            Ok(lowered) => {
                if mark.is_some() {
                    self.session_undo.push(undo);
                }
                Ok(lowered)
            }
            Err(e) => {
                self.hier.revert(undo);
                if let Some(mark) = mark {
                    m.db.rollback_to(mark)?;
                }
                Err(e)
            }
        }
    }

    /// Passes 1–6 of lowering, then fashions and the lint gate, against
    /// the hierarchy already extended with `new_schemas`.
    fn lower_frames(
        &self,
        m: &mut MetaModel,
        items: &[Item],
        new_schemas: &[&SchemaDef],
    ) -> Result<Vec<LoweredSchema>, AnalyzeError> {
        // System definitions installed so far are exempt from the lint
        // gate; only the schema-level (fact) lints can fire on lowering.
        let gate = self
            .lint_gate
            .map(|level| (level, gom_lint::Baseline::current(&m.db)));
        let hierarchy = &self.hier;
        let mut lowered = Vec::new();

        // Pass 1: schema facts.
        for s in new_schemas {
            if m.schema_by_name(&s.name).is_some() {
                return Err(AnalyzeError::Resolve(format!(
                    "schema `{}` already exists",
                    s.name
                )));
            }
            let sid = m.new_schema(&s.name)?;
            lowered.push(LoweredSchema {
                id: sid,
                name: s.name.clone(),
                types: Vec::new(),
            });
        }

        // Pass 2: subschema links (both directions may involve old schemas).
        let subschema_pred = m.db.pred_id_req("SubSchemaOf")?;
        for s in new_schemas {
            for c in s.components() {
                if let Component::Subschema(sub) = c {
                    let parent = m.schema_by_name(&s.name).expect("just created");
                    let child = m.schema_by_name(&sub.name).ok_or_else(|| {
                        AnalyzeError::Resolve(format!(
                            "subschema `{}` of `{}` is not lowered yet — include its frame \
                             in the same source",
                            sub.name, s.name
                        ))
                    })?;
                    m.db.insert(subschema_pred, vec![child.constant(), parent.constant()])?;
                }
            }
        }

        // Pass 3: types and sorts (names only, so that forward references
        // within and across the new schemas resolve).
        let sortvariant_pred = m.db.pred_id_req("SortVariant")?;
        for (s, ls) in new_schemas.iter().zip(lowered.iter_mut()) {
            for c in s.components() {
                match c {
                    Component::Type(t) => {
                        let tid = m.new_type(ls.id, &t.name)?;
                        ls.types.push((t.name.clone(), tid));
                    }
                    Component::Sort(sd) => {
                        let tid = m.new_type(ls.id, &sd.name)?;
                        m.add_subtype(tid, m.builtins.any)?;
                        for v in &sd.variants {
                            let vc = m.db.constant(v);
                            m.db.insert(sortvariant_pred, vec![tid.constant(), vc])?;
                        }
                        ls.types.push((sd.name.clone(), tid));
                    }
                    _ => {}
                }
            }
        }

        // Pass 4: structure — supertypes, attributes, declarations.
        let schemavar_pred = m.db.pred_id_req("SchemaVar")?;
        for (s, ls) in new_schemas.iter().zip(lowered.iter()) {
            for c in s.components() {
                match c {
                    Component::Type(t) => {
                        let tid = ls
                            .types
                            .iter()
                            .find(|(n, _)| n == &t.name)
                            .expect("created in pass 3")
                            .1;
                        if t.supertypes.is_empty() {
                            m.add_subtype(tid, m.builtins.any)?;
                        }
                        for sup in &t.supertypes {
                            let sup_tid = resolve_type_ref(m, hierarchy, &s.name, sup)?;
                            m.add_subtype(tid, sup_tid)?;
                        }
                        for a in &t.attrs {
                            let dom = resolve_type_ref(m, hierarchy, &s.name, &a.ty)?;
                            m.add_attr(tid, &a.name, dom)?;
                        }
                        for sig in &t.ops {
                            lower_sig(m, hierarchy, &s.name, tid, sig)?;
                        }
                    }
                    Component::Var(v) => {
                        let tid = resolve_type_ref(m, hierarchy, &s.name, &v.ty)?;
                        let sid = ls.id;
                        let name = m.db.constant(&v.name);
                        m.db.insert(schemavar_pred, vec![sid.constant(), name, tid.constant()])?;
                    }
                    _ => {}
                }
            }
        }

        // Pass 5: refinements (need all declarations of pass 4 in place).
        for (s, ls) in new_schemas.iter().zip(lowered.iter()) {
            for c in s.components() {
                let Component::Type(t) = c else {
                    continue;
                };
                let tid = ls.types.iter().find(|(n, _)| n == &t.name).expect("p3").1;
                for sig in &t.refines {
                    let did = lower_sig(m, hierarchy, &s.name, tid, sig)?;
                    let targets = refinement_targets(m, tid, &sig.name);
                    if targets.is_empty() {
                        return Err(AnalyzeError::Resolve(format!(
                            "`refine {}` in type `{}`: no supertype declares that operation",
                            sig.name, t.name
                        )));
                    }
                    for target in targets {
                        m.add_refinement(did, target)?;
                    }
                }
            }
        }

        // Pass 6: implementations (code facts + code analysis).
        for (s, ls) in new_schemas.iter().zip(lowered.iter()) {
            for c in s.components() {
                let Component::Type(t) = c else {
                    continue;
                };
                let tid = ls.types.iter().find(|(n, _)| n == &t.name).expect("p3").1;
                for imp in &t.impls {
                    lower_impl(m, tid, &t.name, imp)?;
                }
            }
        }

        // Fashion declarations (require the §4.1 extension predicates).
        for item in items {
            if let Item::Fashion(f) = item {
                lower_fashion(m, f)?;
            }
        }

        if let Some((level, baseline)) = gate {
            let cfg = gom_lint::LintConfig {
                baseline,
                ..gom_lint::LintConfig::default()
            };
            let report = gom_lint::lint_database(&mut m.db, &cfg);
            if report.denies(level) {
                return Err(AnalyzeError::Lint(gom_lint::render_report(
                    &report,
                    None,
                    "<schema base>",
                )));
            }
        }

        Ok(lowered)
    }
}

/// Resolve a type reference written in `schema_name` against: at-notation,
/// local types, built-ins, and the schema's name space (subschema publics
/// and imports, appendix A).
pub fn resolve_type_ref(
    m: &MetaModel,
    hierarchy: &Hierarchy,
    schema_name: &str,
    r: &TypeRef,
) -> Result<TypeId, AnalyzeError> {
    if let Some(schema) = &r.schema {
        return m
            .type_at(&format!("{}@{schema}", r.name))
            .ok_or_else(|| AnalyzeError::Resolve(format!("unknown type `{r}`")));
    }
    if let Some(sid) = m.schema_by_name(schema_name) {
        if let Some(t) = m.type_by_name(sid, &r.name) {
            return Ok(t);
        }
    }
    if let Some(t) = m.builtins.by_name(&r.name) {
        return Ok(t);
    }
    if let Some((origin_schema, orig_name)) = hierarchy.lookup_type(schema_name, &r.name)? {
        let sid = m.schema_by_name(&origin_schema).ok_or_else(|| {
            AnalyzeError::Resolve(format!(
                "schema `{origin_schema}` (defining `{orig_name}`) is not lowered"
            ))
        })?;
        return m.type_by_name(sid, &orig_name).ok_or_else(|| {
            AnalyzeError::Resolve(format!("type `{orig_name}` missing in `{origin_schema}`"))
        });
    }
    Err(AnalyzeError::Resolve(format!(
        "unknown type `{}` in schema `{schema_name}`",
        r.name
    )))
}

fn lower_sig(
    m: &mut MetaModel,
    hierarchy: &Hierarchy,
    schema_name: &str,
    tid: TypeId,
    sig: &OpSig,
) -> Result<DeclId, AnalyzeError> {
    let result = resolve_type_ref(m, hierarchy, schema_name, &sig.result)?;
    let did = m.new_decl(tid, &sig.name, result)?;
    for (i, a) in sig.args.iter().enumerate() {
        let at = resolve_type_ref(m, hierarchy, schema_name, a)?;
        m.add_argdecl(did, (i + 1) as i64, at)?;
    }
    Ok(did)
}

/// Nearest declarations of `name` along each supertype path of `t`
/// (the declarations a `refine` in `t` refines).
pub fn refinement_targets(m: &MetaModel, t: TypeId, name: &str) -> Vec<DeclId> {
    let mut out = Vec::new();
    let mut visited = Vec::new();
    let mut queue: std::collections::VecDeque<TypeId> = m.supertypes(t).into();
    while let Some(s) = queue.pop_front() {
        if visited.contains(&s) {
            continue;
        }
        visited.push(s);
        if let Some((d, _, _)) = m.decls_of(s).into_iter().find(|(_, n, _)| n == name) {
            if !out.contains(&d) {
                out.push(d);
            }
            continue; // declared here: do not look further up this path
        }
        queue.extend(m.supertypes(s));
    }
    out
}

fn lower_impl(
    m: &mut MetaModel,
    tid: TypeId,
    type_name: &str,
    imp: &OpImpl,
) -> Result<(), AnalyzeError> {
    let Some((did, _, _)) = m.decls_of(tid).into_iter().find(|(_, n, _)| n == &imp.name) else {
        return Err(AnalyzeError::Resolve(format!(
            "implementation of `{}` in type `{type_name}` has no matching declaration",
            imp.name
        )));
    };
    let args = m.args_of(did);
    if args.len() != imp.params.len() {
        return Err(AnalyzeError::Resolve(format!(
            "`{}` declares {} argument(s) but the implementation names {}",
            imp.name,
            args.len(),
            imp.params.len()
        )));
    }
    let params: Vec<(String, TypeId)> = imp
        .params
        .iter()
        .cloned()
        .zip(args.into_iter().map(|(_, t)| t))
        .collect();
    let cid = m.new_code(did, &imp.raw)?;
    // Parameter names (the paper's footnote 3: "one has to model the
    // parameters of the code").
    let codeparam = m.db.pred_id_req("CodeParam")?;
    for (i, (pname, _)) in params.iter().enumerate() {
        let n = m.db.constant(pname);
        m.db.insert(
            codeparam,
            vec![cid.constant(), gom_deductive::Const::Int((i + 1) as i64), n],
        )?;
    }
    let analysis = codereq::analyze(m, tid, did, &params, &imp.body)?;
    for (t, a) in analysis.attr_reqs {
        m.add_codereq_attr(cid, t, &a)?;
    }
    for d in analysis.decl_reqs {
        m.add_codereq_decl(cid, d)?;
    }
    Ok(())
}

fn fashion_preds(
    m: &MetaModel,
) -> Result<
    (
        gom_deductive::PredId,
        gom_deductive::PredId,
        gom_deductive::PredId,
    ),
    AnalyzeError,
> {
    match (
        m.db.pred_id("FashionType"),
        m.db.pred_id("FashionDecl"),
        m.db.pred_id("FashionAttr"),
    ) {
        (Some(a), Some(b), Some(c)) => Ok((a, b, c)),
        _ => Err(AnalyzeError::Resolve(
            "fashion declarations require the versioning/masking extension (install the \
             §4.1 definitions first)"
                .into(),
        )),
    }
}

fn lower_fashion(m: &mut MetaModel, f: &FashionDef) -> Result<(), AnalyzeError> {
    let (p_ftype, p_fdecl, p_fattr) = fashion_preds(m)?;
    let dummy = Hierarchy::default();
    let from = resolve_type_ref(m, &dummy, "", &f.from)?;
    let to = resolve_type_ref(m, &dummy, "", &f.to)?;
    m.db.insert(p_ftype, vec![from.constant(), to.constant()])?;
    // Collect per-attribute read/write bodies.
    use std::collections::BTreeMap;
    let mut reads: BTreeMap<&str, &str> = BTreeMap::new();
    let mut writes: BTreeMap<&str, &str> = BTreeMap::new();
    for mem in &f.members {
        match mem {
            FashionMember::AttrRead { name, raw, .. } => {
                reads.insert(name, raw);
            }
            FashionMember::AttrWrite { name, raw, .. } => {
                writes.insert(name, raw);
            }
            FashionMember::AttrBoth {
                name, raw, body, ..
            } => {
                reads.insert(name, raw);
                // A plain attribute path is invertible: synthesize the write.
                if let [Stmt::Return(Expr::Attr { .. })] = body.0.as_slice() {
                    writes.insert(name, raw);
                }
            }
            FashionMember::Op { .. } => {}
        }
    }
    let attr_names: Vec<&str> = reads.keys().copied().collect();
    for name in attr_names {
        let read = reads[name];
        let write = writes.get(name).copied().unwrap_or("");
        let n = m.db.constant(name);
        let rc = m.db.constant(read);
        let wc = m.db.constant(write);
        m.db.insert(p_fattr, vec![to.constant(), n, from.constant(), rc, wc])?;
    }
    for mem in &f.members {
        if let FashionMember::Op { name, raw, .. } = mem {
            let Some(did) = codereq::resolve_op(m, to, name) else {
                return Err(AnalyzeError::Resolve(format!(
                    "fashion imitates unknown operation `{name}` of `{}`",
                    f.to
                )));
            };
            let code = m.db.constant(raw);
            m.db.insert(p_fdecl, vec![did.constant(), from.constant(), code])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::car_schema::{CAR_SCHEMA_SRC, COMPANY_SCHEMA_SRC};

    #[test]
    fn car_schema_lowers_to_figure2_extensions() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let lowered = a.lower_source(&mut m, CAR_SCHEMA_SRC).unwrap();
        assert_eq!(lowered.len(), 1);
        let sid = lowered[0].id;
        // Figure 2: four types.
        assert_eq!(m.types_of_schema(sid).len(), 4);
        let person = m.type_by_name(sid, "Person").unwrap();
        let location = m.type_by_name(sid, "Location").unwrap();
        let city = m.type_by_name(sid, "City").unwrap();
        let car = m.type_by_name(sid, "Car").unwrap();
        // Attr rows.
        assert_eq!(
            m.attrs_of(person),
            vec![
                ("age".to_string(), m.builtins.int),
                ("name".to_string(), m.builtins.string),
            ]
        );
        assert_eq!(m.attrs_of(car).len(), 4);
        assert_eq!(
            m.attrs_of(car)
                .iter()
                .find(|(n, _)| n == "owner")
                .unwrap()
                .1,
            person
        );
        // SubTypRel: City <: Location (plus roots to ANY).
        assert_eq!(m.supertypes(city), vec![location]);
        // Decl rows: distance ×2, changeLocation ×1.
        assert_eq!(m.decls_of(location).len(), 1);
        assert_eq!(m.decls_of(city).len(), 1);
        let (d_city, _, _) = m.decls_of(city)[0];
        let (d_loc, _, _) = m.decls_of(location)[0];
        // DeclRefinement row.
        assert_eq!(m.refined_by(d_city), vec![d_loc]);
        // ArgDecl rows: distance has 1 arg, changeLocation has 2.
        assert_eq!(m.args_of(d_loc).len(), 1);
        let (d_car, _, _) = m.decls_of(car)[0];
        assert_eq!(m.args_of(d_car), vec![(1, person), (2, city)]);
        // Code rows exist for every declaration.
        assert!(m.code_of(d_loc).is_some());
        assert!(m.code_of(d_city).is_some());
        assert!(m.code_of(d_car).is_some());
    }

    #[test]
    fn codereq_rows_match_paper_table() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let lowered = a.lower_source(&mut m, CAR_SCHEMA_SRC).unwrap();
        let sid = lowered[0].id;
        let location = m.type_by_name(sid, "Location").unwrap();
        let city = m.type_by_name(sid, "City").unwrap();
        let car = m.type_by_name(sid, "Car").unwrap();
        let (d_loc, _, _) = m.decls_of(location)[0];
        let (d_city, _, _) = m.decls_of(city)[0];
        let (d_car, _, _) = m.decls_of(car)[0];
        let (cid1, _) = m.code_of(d_loc).unwrap();
        let (cid2, _) = m.code_of(d_city).unwrap();
        let (cid3, _) = m.code_of(d_car).unwrap();
        let reqattr = m.db.pred_id("CodeReqAttr").unwrap();
        let rows = m.db.facts_sorted(reqattr);
        let has = |cid: gom_model::CodeId, tid: TypeId, attr: &str| {
            let a = m.db.sym(attr).map(gom_deductive::Const::Sym);
            rows.iter().any(|t| {
                t.get(0) == cid.constant() && t.get(1) == tid.constant() && Some(t.get(2)) == a
            })
        };
        // Paper's table, row for row.
        assert!(has(cid1, location, "longi"));
        assert!(has(cid1, location, "lati"));
        assert!(has(cid2, location, "longi"));
        assert!(has(cid2, location, "lati"));
        assert!(has(cid2, city, "name"));
        assert!(has(cid3, car, "owner"));
        assert!(has(cid3, car, "milage"));
        assert!(has(cid3, car, "location"));
        // CodeReqDecl: the paper lists (cid2, did1); our analysis also finds
        // changeLocation's call to the refined distance (cid3 → did2).
        let reqdecl = m.db.pred_id("CodeReqDecl").unwrap();
        let drows = m.db.facts_sorted(reqdecl);
        assert!(drows
            .iter()
            .any(|t| t.get(0) == cid2.constant() && t.get(1) == d_loc.constant()));
        assert!(drows
            .iter()
            .any(|t| t.get(0) == cid3.constant() && t.get(1) == d_city.constant()));
    }

    #[test]
    fn company_hierarchy_lowers_with_namespaces() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let lowered = a.lower_source(&mut m, COMPANY_SCHEMA_SRC).unwrap();
        assert_eq!(lowered.len(), 12);
        // Two distinct Cuboid types in two name spaces.
        let csg = m.schema_by_name("CSG").unwrap();
        let brep = m.schema_by_name("BoundaryRep").unwrap();
        let c1 = m.type_by_name(csg, "Cuboid").unwrap();
        let c2 = m.type_by_name(brep, "Cuboid").unwrap();
        assert_ne!(c1, c2);
        // The converter resolved the renamed imports to the right types.
        let conv_s = m.schema_by_name("CSG2BoundRep").unwrap();
        let conv = m.type_by_name(conv_s, "Converter").unwrap();
        let attrs = m.attrs_of(conv);
        assert_eq!(
            attrs,
            vec![("input".to_string(), c1), ("output".to_string(), c2),]
        );
        // Subschema facts recorded.
        let sub = m.db.pred_id("SubSchemaOf").unwrap();
        assert_eq!(m.db.relation(sub).len(), 11); // every schema but Company
                                                  // Schema variable recorded.
        let sv = m.db.pred_id("SchemaVar").unwrap();
        assert_eq!(m.db.relation(sv).len(), 1);
    }

    #[test]
    fn sort_lowering_creates_type_and_variants() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let src = "schema S is sort Fuel is enum (leaded, unleaded); end schema S;";
        let lowered = a.lower_source(&mut m, src).unwrap();
        let fuel = lowered[0].types[0].1;
        assert_eq!(m.type_name(fuel).as_deref(), Some("Fuel"));
        let sv = m.db.pred_id("SortVariant").unwrap();
        assert_eq!(m.db.relation(sv).select(&[(0, fuel.constant())]).count(), 2);
    }

    #[test]
    fn duplicate_schema_rejected() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let src = "schema S is end schema S;";
        a.lower_source(&mut m, src).unwrap();
        assert!(a.lower_source(&mut m, src).is_err());
    }

    #[test]
    fn unknown_supertype_rejected() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let src = "schema S is type T supertype Ghost is end type T; end schema S;";
        assert!(matches!(
            a.lower_source(&mut m, src),
            Err(AnalyzeError::Resolve(_))
        ));
    }

    #[test]
    fn fashion_requires_extension() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        a.lower_source(&mut m, "schema A is type T is end type T; end schema A;")
            .unwrap();
        a.lower_source(&mut m, "schema B is type T is end type T; end schema B;")
            .unwrap();
        let f = "fashion T@A as T@B where end fashion;";
        assert!(matches!(
            a.lower_source(&mut m, f),
            Err(AnalyzeError::Resolve(_))
        ));
        // After installing the extension predicates it lowers fine.
        m.db.load(
            "base FashionType(from, to).\n\
             base FashionDecl(did, tid, code).\n\
             base FashionAttr(tid, attr, from, readcode, writecode).",
        )
        .unwrap();
        a.lower_source(&mut m, f).unwrap();
        let ft = m.db.pred_id("FashionType").unwrap();
        assert_eq!(m.db.relation(ft).len(), 1);
    }

    #[test]
    fn implementation_without_declaration_rejected() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let src = "\
schema S is
  type T is
  implementation
    define ghost is begin return 1; end define ghost;
  end type T;
end schema S;";
        assert!(matches!(
            a.lower_source(&mut m, src),
            Err(AnalyzeError::Resolve(_))
        ));
    }
}
