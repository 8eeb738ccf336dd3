//! The Runtime System: attribute access, dynamic binding, the interpreting
//! method executor, and fashion-based masking.
//!
//! The paper assumes "that the Runtime System interprets the schema,
//! especially the method's source code" (§2.2). Method bodies are stored in
//! the `Code` predicate as text; the interpreter re-parses them on call
//! (with a small cache) and executes them against the object base.
//!
//! Masking (§4.1): when an object's own (inherited) attributes and
//! operations do not cover an access, the `FashionAttr`/`FashionDecl`
//! extensions are consulted — "read and write accesses to the (not
//! existing) attribute are redirected to the specified code".

use crate::object::ObjectBase;
use crate::value::Value;
use gom_analyzer::ast::{BinOp, Block, Expr, Stmt};
use gom_analyzer::parse_code_text;
use gom_deductive::{Const, FxHashMap};
use gom_model::{DeclId, MetaModel, Oid, TypeId};
use std::sync::Arc;

/// Errors raised by the Runtime System.
#[derive(Debug)]
pub enum RtError {
    /// Unknown object id.
    NoSuchObject(Oid),
    /// The object (after masking) has no such attribute.
    NoSuchAttr {
        /// Type of the object.
        ty: String,
        /// Attribute name.
        attr: String,
    },
    /// The object (after masking) has no such operation.
    NoSuchOp {
        /// Type of the object.
        ty: String,
        /// Operation name.
        op: String,
    },
    /// A declaration has no code (schema/behaviour inconsistency at run
    /// time — the consistency control would have flagged it).
    NoCode(String),
    /// Type error during interpretation.
    Type(String),
    /// Call-depth limit exceeded.
    DepthLimit,
    /// Stored code fragment failed to re-parse.
    BadCode(String),
    /// Database error while reporting representation changes.
    Db(gom_deductive::Error),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::NoSuchObject(o) => write!(f, "no such object {:?}", o.0),
            RtError::NoSuchAttr { ty, attr } => {
                write!(f, "object of type `{ty}` has no attribute `{attr}`")
            }
            RtError::NoSuchOp { ty, op } => {
                write!(f, "object of type `{ty}` has no operation `{op}`")
            }
            RtError::NoCode(op) => write!(f, "operation `{op}` has no implementation"),
            RtError::Type(m) => write!(f, "type error: {m}"),
            RtError::DepthLimit => write!(f, "call depth limit exceeded"),
            RtError::BadCode(m) => write!(f, "stored code does not parse: {m}"),
            RtError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<gom_deductive::Error> for RtError {
    fn from(e: gom_deductive::Error) -> Self {
        RtError::Db(e)
    }
}

/// Result alias.
pub type RtResult<T> = Result<T, RtError>;

const MAX_DEPTH: usize = 64;

/// The Runtime System.
#[derive(Default)]
pub struct Runtime {
    /// The object base.
    pub objects: ObjectBase,
    /// Parsed-code cache keyed by the code text symbol.
    code_cache: FxHashMap<gom_deductive::Symbol, Arc<Block>>,
}

enum Flow {
    Normal,
    Returned(Value),
}

struct Env {
    self_oid: Oid,
    decl: Option<DeclId>,
    vars: FxHashMap<String, Value>,
    depth: usize,
}

impl Runtime {
    /// Fresh runtime with an empty object base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an object of type `t`.
    pub fn create(&mut self, m: &mut MetaModel, t: TypeId) -> RtResult<Oid> {
        Ok(self.objects.create(m, t)?)
    }

    /// Delete an object.
    pub fn delete(&mut self, m: &mut MetaModel, oid: Oid) -> RtResult<bool> {
        Ok(self.objects.delete(m, oid)?)
    }

    fn type_of(&self, oid: Oid) -> RtResult<TypeId> {
        self.objects
            .get(oid)
            .map(|o| o.ty)
            .ok_or(RtError::NoSuchObject(oid))
    }

    fn parse_code(&mut self, m: &MetaModel, text: &str) -> RtResult<Arc<Block>> {
        if let Some(sym) = m.db.sym(text) {
            if let Some(b) = self.code_cache.get(&sym) {
                return Ok(Arc::clone(b));
            }
            let block =
                Arc::new(parse_code_text(text).map_err(|e| RtError::BadCode(e.to_string()))?);
            self.code_cache.insert(sym, Arc::clone(&block));
            return Ok(block);
        }
        Ok(Arc::new(
            parse_code_text(text).map_err(|e| RtError::BadCode(e.to_string()))?,
        ))
    }

    // ----- attribute access (with masking) ---------------------------------------

    /// Read an attribute, redirecting through fashion masking when the
    /// object's type does not itself carry the attribute.
    pub fn get_attr(&mut self, m: &mut MetaModel, oid: Oid, attr: &str) -> RtResult<Value> {
        self.get_attr_depth(m, oid, attr, 0)
    }

    fn get_attr_depth(
        &mut self,
        m: &mut MetaModel,
        oid: Oid,
        attr: &str,
        depth: usize,
    ) -> RtResult<Value> {
        if depth > MAX_DEPTH {
            return Err(RtError::DepthLimit);
        }
        let obj = self.objects.get(oid).ok_or(RtError::NoSuchObject(oid))?;
        if let Some(v) = obj.slots.get(attr) {
            return Ok(v.clone());
        }
        let ty = obj.ty;
        if let Some(read_code) = self.fashion_attr_code(m, ty, attr, true) {
            let block = self.parse_code(m, &read_code)?;
            let mut env = Env {
                self_oid: oid,
                decl: None,
                vars: FxHashMap::default(),
                depth: depth + 1,
            };
            return match self.exec_block(m, &mut env, &block)? {
                Flow::Returned(v) => Ok(v),
                Flow::Normal => Ok(Value::Null),
            };
        }
        Err(RtError::NoSuchAttr {
            ty: m.type_name(ty).unwrap_or_default(),
            attr: attr.to_string(),
        })
    }

    /// Write an attribute, redirecting through fashion masking when needed.
    pub fn set_attr(&mut self, m: &mut MetaModel, oid: Oid, attr: &str, v: Value) -> RtResult<()> {
        self.set_attr_depth(m, oid, attr, v, 0)
    }

    fn set_attr_depth(
        &mut self,
        m: &mut MetaModel,
        oid: Oid,
        attr: &str,
        v: Value,
        depth: usize,
    ) -> RtResult<()> {
        if depth > MAX_DEPTH {
            return Err(RtError::DepthLimit);
        }
        let obj = self
            .objects
            .get_mut(oid)
            .ok_or(RtError::NoSuchObject(oid))?;
        if let Some(slot) = obj.slots.get_mut(attr) {
            *slot = v;
            return Ok(());
        }
        let ty = obj.ty;
        if let Some(write_code) = self.fashion_attr_code(m, ty, attr, false) {
            if write_code.is_empty() {
                return Err(RtError::Type(format!(
                    "attribute `{attr}` is read-only under masking"
                )));
            }
            let block = self.parse_code(m, &write_code)?;
            let mut env = Env {
                self_oid: oid,
                decl: None,
                vars: FxHashMap::default(),
                depth: depth + 1,
            };
            env.vars.insert("value".to_string(), v);
            self.exec_block(m, &mut env, &block)?;
            return Ok(());
        }
        Err(RtError::NoSuchAttr {
            ty: m.type_name(ty).unwrap_or_default(),
            attr: attr.to_string(),
        })
    }

    /// Look up the masking code for `attr` on an object of type `from_ty`:
    /// a `FashionAttr(To, attr, From, Read, Write)` fact with `From =
    /// from_ty`.
    fn fashion_attr_code(
        &self,
        m: &MetaModel,
        from_ty: TypeId,
        attr: &str,
        read: bool,
    ) -> Option<String> {
        let p = m.db.pred_id("FashionAttr")?;
        let a = m.db.sym(attr)?;
        let mut rows =
            m.db.relation(p)
                .select(&[(1, Const::Sym(a)), (2, from_ty.constant())]);
        let row = rows.next()?;
        let col = if read { 3 } else { 4 };
        let sym = row.get(col).as_sym()?;
        Some(m.db.resolve(sym).to_string())
    }

    // ----- operation dispatch ------------------------------------------------------

    /// Resolve the most specific declaration of `op` for runtime type `t`
    /// (dynamic binding through the subtype hierarchy).
    pub fn resolve_dynamic(&self, m: &MetaModel, t: TypeId, op: &str) -> Option<DeclId> {
        gom_analyzer::codereq::resolve_op(m, t, op)
    }

    /// Call operation `op` on object `oid` with `args`.
    pub fn call(
        &mut self,
        m: &mut MetaModel,
        oid: Oid,
        op: &str,
        args: &[Value],
    ) -> RtResult<Value> {
        self.call_depth(m, oid, op, args, 0)
    }

    fn call_depth(
        &mut self,
        m: &mut MetaModel,
        oid: Oid,
        op: &str,
        args: &[Value],
        depth: usize,
    ) -> RtResult<Value> {
        if depth > MAX_DEPTH {
            return Err(RtError::DepthLimit);
        }
        let t = self.type_of(oid)?;
        if let Some(decl) = self.resolve_dynamic(m, t, op) {
            return self.invoke_decl(m, oid, decl, args, depth);
        }
        // Masking: FashionDecl(did, from, code) with a matching op name.
        if let Some(code) = self.fashion_op_code(m, t, op) {
            let block = self.parse_code(m, &code)?;
            let mut env = Env {
                self_oid: oid,
                decl: None,
                vars: FxHashMap::default(),
                depth: depth + 1,
            };
            for (i, a) in args.iter().enumerate() {
                env.vars.insert(format!("arg{}", i + 1), a.clone());
            }
            return match self.exec_block(m, &mut env, &block)? {
                Flow::Returned(v) => Ok(v),
                Flow::Normal => Ok(Value::Null),
            };
        }
        Err(RtError::NoSuchOp {
            ty: m.type_name(t).unwrap_or_default(),
            op: op.to_string(),
        })
    }

    fn fashion_op_code(&self, m: &MetaModel, from_ty: TypeId, op: &str) -> Option<String> {
        let p = m.db.pred_id("FashionDecl")?;
        let rows = m.db.relation(p).select(&[(1, from_ty.constant())]);
        for row in rows {
            let did = DeclId(row.get(0).as_sym()?);
            if m.decl_info(did).is_some_and(|(_, n, _)| n == op) {
                let sym = row.get(2).as_sym()?;
                return Some(m.db.resolve(sym).to_string());
            }
        }
        None
    }

    /// Execute a specific declaration's code on `oid` (used for dispatch and
    /// for `super` calls).
    fn invoke_decl(
        &mut self,
        m: &mut MetaModel,
        oid: Oid,
        decl: DeclId,
        args: &[Value],
        depth: usize,
    ) -> RtResult<Value> {
        let (_, op_name, _) = m
            .decl_info(decl)
            .ok_or_else(|| RtError::NoCode("<unknown decl>".into()))?;
        let Some((cid, text)) = m.code_of(decl) else {
            return Err(RtError::NoCode(op_name));
        };
        let block = self.parse_code(m, &text)?;
        let mut env = Env {
            self_oid: oid,
            decl: Some(decl),
            vars: FxHashMap::default(),
            depth: depth + 1,
        };
        // Bind parameters by their recorded names (CodeParam facts).
        if let Some(cp) = m.db.pred_id("CodeParam") {
            let mut rows: Vec<&gom_deductive::Row> =
                m.db.relation(cp).select(&[(0, cid.constant())]).collect();
            rows.sort_by_key(|r| r.get(1).as_int().unwrap_or(0));
            for (i, row) in rows.iter().enumerate() {
                if let (Some(sym), Some(v)) = (row.get(2).as_sym(), args.get(i)) {
                    env.vars.insert(m.db.resolve(sym).to_string(), v.clone());
                }
            }
        }
        match self.exec_block(m, &mut env, &block)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }

    // ----- interpreter ---------------------------------------------------------------

    fn exec_block(&mut self, m: &mut MetaModel, env: &mut Env, b: &Block) -> RtResult<Flow> {
        for s in &b.0 {
            match self.exec_stmt(m, env, s)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, m: &mut MetaModel, env: &mut Env, s: &Stmt) -> RtResult<Flow> {
        match s {
            Stmt::Return(e) => {
                let v = self.eval(m, env, e)?;
                Ok(Flow::Returned(v))
            }
            Stmt::Expr(e) => {
                self.eval(m, env, e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els } => {
                let c = self.eval(m, env, cond)?;
                if c.truthy() {
                    self.exec_block(m, env, then)
                } else {
                    self.exec_block(m, env, els)
                }
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(m, env, value)?;
                match target {
                    Expr::Ident(name) => {
                        env.vars.insert(name.clone(), v);
                    }
                    Expr::Attr { recv, name } => {
                        let r = self.eval(m, env, recv)?;
                        let Value::Obj(oid) = r else {
                            return Err(RtError::Type(format!(
                                "assignment receiver `{name}` is not an object"
                            )));
                        };
                        self.set_attr_depth(m, oid, name, v, env.depth)?;
                    }
                    _ => {
                        return Err(RtError::Type(
                            "assignment target must be a variable or attribute".into(),
                        ))
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn eval(&mut self, m: &mut MetaModel, env: &mut Env, e: &Expr) -> RtResult<Value> {
        Ok(match e {
            Expr::Int(n) => Value::Int(*n),
            Expr::Float(x) => Value::Float(*x),
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::SelfRef => Value::Obj(env.self_oid),
            Expr::Super => {
                return Err(RtError::Type(
                    "`super` may only be used as a call receiver".into(),
                ))
            }
            Expr::Ident(name) => {
                if let Some(v) = env.vars.get(name) {
                    v.clone()
                } else if let Some(v) = self.enum_literal(m, name) {
                    v
                } else {
                    return Err(RtError::Type(format!("unbound identifier `{name}`")));
                }
            }
            Expr::Attr { recv, name } => {
                let r = self.eval(m, env, recv)?;
                let Value::Obj(oid) = r else {
                    return Err(RtError::Type(format!(
                        "attribute access `.{name}` on non-object value {r}"
                    )));
                };
                self.get_attr_depth(m, oid, name, env.depth)?
            }
            Expr::Call { recv, name, args } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(m, env, a))
                    .collect::<RtResult<_>>()?;
                if matches!(recv.as_ref(), Expr::Super) {
                    let Some(current) = env.decl else {
                        return Err(RtError::Type("`super` outside a method body".into()));
                    };
                    let target = m
                        .refined_by(current)
                        .into_iter()
                        .find(|d| m.decl_info(*d).is_some_and(|(_, n, _)| n == *name))
                        .ok_or_else(|| RtError::NoSuchOp {
                            ty: "super".into(),
                            op: name.clone(),
                        })?;
                    self.invoke_decl(m, env.self_oid, target, &argv, env.depth)?
                } else {
                    let r = self.eval(m, env, recv)?;
                    let Value::Obj(oid) = r else {
                        return Err(RtError::Type(format!(
                            "call `.{name}(…)` on non-object value {r}"
                        )));
                    };
                    self.call_depth(m, oid, name, &argv, env.depth)?
                }
            }
            Expr::Binary { op, l, r } => {
                let lv = self.eval(m, env, l)?;
                let rv = self.eval(m, env, r)?;
                binop(*op, lv, rv)?
            }
            Expr::Neg(inner) => {
                let v = self.eval(m, env, inner)?;
                match v {
                    Value::Int(n) => Value::Int(-n),
                    Value::Float(x) => Value::Float(-x),
                    other => {
                        return Err(RtError::Type(format!("cannot negate {other}")));
                    }
                }
            }
        })
    }

    fn enum_literal(&self, m: &MetaModel, name: &str) -> Option<Value> {
        let p = m.db.pred_id("SortVariant")?;
        let sym = m.db.sym(name)?;
        let mut rows = m.db.relation(p).select(&[(1, Const::Sym(sym))]);
        let row = rows.next()?;
        Some(Value::Enum {
            sort: TypeId(row.get(0).as_sym()?),
            variant: name.to_string(),
        })
    }
}

fn binop(op: BinOp, l: Value, r: Value) -> RtResult<Value> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(l.value_eq(&r))),
        Ne => return Ok(Value::Bool(!l.value_eq(&r))),
        _ => {}
    }
    // String comparison for ordering of strings.
    if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
        return Ok(match op {
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            _ => return Err(RtError::Type("arithmetic on strings".into())),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(RtError::Type(format!(
                "binary `{op:?}` needs numeric operands, got {l} and {r}"
            )))
        }
    };
    let both_int = matches!((&l, &r), (Value::Int(_), Value::Int(_)));
    Ok(match op {
        Add | Sub | Mul | Div => {
            let x = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(RtError::Type("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            if both_int && x.fract() == 0.0 {
                Value::Int(x as i64)
            } else {
                Value::Float(x)
            }
        }
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        Eq | Ne => unreachable!(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gom_analyzer::car_schema::CAR_SCHEMA_SRC;
    use gom_analyzer::lower::Analyzer;

    fn car_world() -> (MetaModel, Runtime, Oid, Oid, Oid, Oid) {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let lowered = a.lower_source(&mut m, CAR_SCHEMA_SRC).unwrap();
        let sid = lowered[0].id;
        let person = m.type_by_name(sid, "Person").unwrap();
        let city = m.type_by_name(sid, "City").unwrap();
        let car = m.type_by_name(sid, "Car").unwrap();
        let mut rt = Runtime::new();
        let alice = rt.create(&mut m, person).unwrap();
        rt.set_attr(&mut m, alice, "name", Value::Str("Alice".into()))
            .unwrap();
        let karlsruhe = rt.create(&mut m, city).unwrap();
        rt.set_attr(&mut m, karlsruhe, "longi", Value::Float(8.4))
            .unwrap();
        rt.set_attr(&mut m, karlsruhe, "lati", Value::Float(49.0))
            .unwrap();
        rt.set_attr(&mut m, karlsruhe, "name", Value::Str("Karlsruhe".into()))
            .unwrap();
        let munich = rt.create(&mut m, city).unwrap();
        rt.set_attr(&mut m, munich, "longi", Value::Float(11.6))
            .unwrap();
        rt.set_attr(&mut m, munich, "lati", Value::Float(48.1))
            .unwrap();
        rt.set_attr(&mut m, munich, "name", Value::Str("Munich".into()))
            .unwrap();
        let beetle = rt.create(&mut m, car).unwrap();
        rt.set_attr(&mut m, beetle, "owner", Value::Obj(alice))
            .unwrap();
        rt.set_attr(&mut m, beetle, "location", Value::Obj(karlsruhe))
            .unwrap();
        (m, rt, alice, karlsruhe, munich, beetle)
    }

    #[test]
    fn change_location_happy_path() {
        let (mut m, mut rt, alice, _k, munich, beetle) = car_world();
        let result = rt
            .call(
                &mut m,
                beetle,
                "changeLocation",
                &[Value::Obj(alice), Value::Obj(munich)],
            )
            .unwrap();
        // Milage increased by the squared distance and is returned.
        let Value::Float(milage) = result else {
            panic!("expected float, got {result:?}");
        };
        assert!(milage > 0.0);
        assert_eq!(
            rt.get_attr(&mut m, beetle, "location").unwrap(),
            Value::Obj(munich)
        );
        assert_eq!(
            rt.get_attr(&mut m, beetle, "milage").unwrap(),
            Value::Float(milage)
        );
    }

    #[test]
    fn change_location_rejects_non_owner() {
        let (mut m, mut rt, _alice, _k, munich, beetle) = car_world();
        let sid = m.schema_by_name("CarSchema").unwrap();
        let person = m.type_by_name(sid, "Person").unwrap();
        let mallory = rt.create(&mut m, person).unwrap();
        let result = rt
            .call(
                &mut m,
                beetle,
                "changeLocation",
                &[Value::Obj(mallory), Value::Obj(munich)],
            )
            .unwrap();
        assert_eq!(result, Value::Float(-1.0));
        // Location unchanged.
        assert_ne!(
            rt.get_attr(&mut m, beetle, "location").unwrap(),
            Value::Obj(munich)
        );
    }

    #[test]
    fn refined_distance_dispatches_dynamically_and_super_works() {
        let (mut m, mut rt, _alice, karlsruhe, munich, _beetle) = car_world();
        // City's refinement runs (the receiver is a City)…
        let d = rt
            .call(&mut m, karlsruhe, "distance", &[Value::Obj(munich)])
            .unwrap();
        let Value::Float(x) = d else {
            panic!("expected float");
        };
        assert!(x > 0.0);
        // …and the "nowhere" branch exercises the super call.
        rt.set_attr(&mut m, karlsruhe, "name", Value::Str("nowhere".into()))
            .unwrap();
        let d2 = rt
            .call(&mut m, karlsruhe, "distance", &[Value::Obj(munich)])
            .unwrap();
        assert_eq!(d, d2); // same formula via Location's implementation
    }

    #[test]
    fn missing_attr_is_reported() {
        let (mut m, mut rt, alice, ..) = car_world();
        assert!(matches!(
            rt.get_attr(&mut m, alice, "ghost"),
            Err(RtError::NoSuchAttr { .. })
        ));
        assert!(matches!(
            rt.call(&mut m, alice, "fly", &[]),
            Err(RtError::NoSuchOp { .. })
        ));
    }

    #[test]
    fn enum_literals_evaluate() {
        let mut m = MetaModel::new().unwrap();
        let mut a = Analyzer::new();
        let src = "\
schema S is
  sort Fuel is enum (leaded, unleaded);
  type PolluterCar is
  operations
    declare fuel : || -> Fuel;
  implementation
    define fuel is begin return leaded; end define fuel;
  end type PolluterCar;
end schema S;";
        let lowered = a.lower_source(&mut m, src).unwrap();
        let sid = lowered[0].id;
        let fuel_t = m.type_by_name(sid, "Fuel").unwrap();
        let pc = m.type_by_name(sid, "PolluterCar").unwrap();
        let mut rt = Runtime::new();
        let car = rt.create(&mut m, pc).unwrap();
        let v = rt.call(&mut m, car, "fuel", &[]).unwrap();
        assert_eq!(
            v,
            Value::Enum {
                sort: fuel_t,
                variant: "leaded".into()
            }
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(matches!(
            binop(BinOp::Div, Value::Int(1), Value::Int(0)),
            Err(RtError::Type(_))
        ));
    }

    #[test]
    fn int_arithmetic_stays_int() {
        assert_eq!(
            binop(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            binop(BinOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }
}
