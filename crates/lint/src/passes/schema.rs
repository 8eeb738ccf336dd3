//! Schema-level lints over the catalog facts — `L05xx`.
//!
//! These passes read the *extension* of the Database Model's catalog
//! predicates (paper §3.2/§3.4) rather than the rule text, so they apply
//! equally to schemas defined through the GOM analyzer and to facts
//! asserted by hand. Each sub-lint runs only when the predicates it needs
//! exist with the catalog's shape, so the pass is inert on databases that
//! are not schema bases.
//!
//! * `L0501` — a catalog fact references a type id that no `Type` fact
//!   declares (dangling type reference).
//! * `L0502` — a type re-declares an attribute that one of its (transitive)
//!   supertypes already declares (shadowed inherited attribute).
//! * `L0503` — the `evolves_to` version graph (schema- or type-level) has a
//!   cycle; the note shows the engine's shortest witness.

use crate::diag::{Diagnostic, LintReport, Severity};
use crate::LintConfig;
use gom_deductive::{
    Const, Database, DepEdge, DepGraph, FxHashMap, FxHashSet, PredId, PredKind, Tuple,
};

pub(crate) fn run(db: &Database, _cfg: &LintConfig, report: &mut LintReport) {
    let pred = |name: &str, arity: usize| -> Option<PredId> {
        let p = db.pred_id(name)?;
        let d = db.pred_decl(p);
        (d.arity == arity && d.kind == PredKind::Base).then_some(p)
    };

    let type_p = pred("Type", 3);
    let show = |c: Const| c.display(db.interner()).to_string();

    // Names for friendly rendering: tid -> type name, sid -> schema name.
    let mut type_name: FxHashMap<Const, Const> = FxHashMap::default();
    let mut declared_tids: FxHashSet<Const> = FxHashSet::default();
    if let Some(tp) = type_p {
        for t in db.relation(tp).iter() {
            declared_tids.insert(t.get(0));
            type_name.insert(t.get(0), t.get(1));
        }
    }
    let mut schema_name: FxHashMap<Const, Const> = FxHashMap::default();
    if let Some(sp) = pred("Schema", 2) {
        for t in db.relation(sp).iter() {
            schema_name.insert(t.get(0), t.get(1));
        }
    }
    let tid_label = |c: Const| match type_name.get(&c) {
        Some(&n) => format!("{} ({})", show(c), show(n)),
        None => show(c),
    };

    // ----- L0501: dangling type references --------------------------------
    if type_p.is_some() {
        // (predicate, arity, tid column positions)
        let refs: &[(&str, usize, &[usize])] = &[
            ("Attr", 3, &[0, 2]),
            ("SubTypRel", 2, &[0, 1]),
            ("Decl", 4, &[1, 3]),
            ("ArgDecl", 3, &[2]),
            ("PhRep", 2, &[1]),
        ];
        for &(pname, arity, cols) in refs {
            let Some(p) = pred(pname, arity) else {
                continue;
            };
            let mut reported: FxHashSet<(usize, Const)> = FxHashSet::default();
            for t in sorted(db, p) {
                for &col in cols {
                    let v = t.get(col);
                    if !declared_tids.contains(&v) && reported.insert((col, v)) {
                        report.diags.push(
                            Diagnostic::new(
                                "L0501",
                                Severity::Error,
                                format!(
                                    "`{pname}` fact references undeclared type id `{}`",
                                    show(v)
                                ),
                            )
                            .with_note(format!(
                                "no `Type` fact declares `{}` (column {col} of {pname}{})",
                                show(v),
                                t.display(db.interner())
                            ))
                            .with_fix("declare the type or correct the reference"),
                        );
                    }
                }
            }
        }
    }

    // ----- L0502: shadowed inherited attributes ----------------------------
    if let (Some(attr_p), Some(sub_p)) = (pred("Attr", 3), pred("SubTypRel", 2)) {
        let mut supers: FxHashMap<Const, Vec<Const>> = FxHashMap::default();
        for t in db.relation(sub_p).iter() {
            supers.entry(t.get(0)).or_default().push(t.get(1));
        }
        let mut attrs: FxHashMap<Const, Vec<Const>> = FxHashMap::default();
        for t in db.relation(attr_p).iter() {
            attrs.entry(t.get(0)).or_default().push(t.get(1));
        }
        for t in sorted(db, attr_p) {
            let (tid, attr) = (t.get(0), t.get(1));
            // Walk all transitive supertypes of `tid`.
            let mut seen: FxHashSet<Const> = FxHashSet::default();
            let mut stack: Vec<Const> = supers.get(&tid).cloned().unwrap_or_default();
            while let Some(s) = stack.pop() {
                if !seen.insert(s) {
                    continue;
                }
                if attrs.get(&s).is_some_and(|asup| asup.contains(&attr)) {
                    report.diags.push(
                        Diagnostic::new(
                            "L0502",
                            Severity::Warn,
                            format!(
                                "attribute `{}` on type {} shadows the same attribute \
                                 inherited from {}",
                                show(attr),
                                tid_label(tid),
                                tid_label(s)
                            ),
                        )
                        .with_note(
                            "GOM semantics resolve the subtype's declaration; \
                             the inherited one becomes unreachable",
                        )
                        .with_fix("rename one of the attributes or remove the redeclaration"),
                    );
                }
                stack.extend(supers.get(&s).cloned().unwrap_or_default());
            }
        }
    }

    // ----- L0503: evolves_to version-graph cycles --------------------------
    for (pname, label, names) in [
        ("evolves_to_S", "schema", &schema_name),
        ("evolves_to_T", "type", &type_name),
    ] {
        let Some(p) = pred(pname, 2) else {
            continue;
        };
        // Number the versions in fact order; every edge counts, since any
        // cycle in a version graph is an error.
        let mut index: FxHashMap<Const, usize> = FxHashMap::default();
        let mut nodes: Vec<Const> = Vec::new();
        let mut edges: Vec<Vec<DepEdge>> = Vec::new();
        for (rule, t) in sorted(db, p).iter().enumerate() {
            let [from, to] = [t.get(0), t.get(1)].map(|c| {
                *index.entry(c).or_insert_with(|| {
                    nodes.push(c);
                    edges.push(Vec::new());
                    nodes.len() - 1
                })
            });
            edges[from].push(DepEdge {
                to,
                neg: true,
                rule,
            });
        }
        if let Some(w) = DepGraph::new(edges).witnesses.first() {
            let label_of = |c: Const| match names.get(&c) {
                Some(&n) => format!("{} ({})", show(c), show(n)),
                None => show(c),
            };
            let path: Vec<String> = w.cycle.iter().map(|&i| label_of(nodes[i])).collect();
            report.diags.push(
                Diagnostic::new(
                    "L0503",
                    Severity::Error,
                    format!("`{pname}` version graph has a cycle at the {label} level"),
                )
                .with_note(format!("cycle: {}", path.join(" -> ")))
                .with_fix("version evolution must form a DAG; remove one edge"),
            );
        }
    }
}

/// Facts of `p` in deterministic order.
fn sorted(db: &Database, p: PredId) -> Vec<Tuple> {
    db.facts_sorted(p)
}
