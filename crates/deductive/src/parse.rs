//! Text DSL for declaring predicates, rules, and constraints.
//!
//! This is what makes consistency *declaratively specifiable* (the paper's
//! central requirement): the entire consistency definition of a schema
//! manager is a text document fed to [`parse_program`].
//!
//! ```text
//! // predicate declarations ( `!` marks key columns )
//! base Type(tid!, name, sid).
//! derived SubTypRelT(sub, super).
//!
//! // rules (Prolog-ish; Upper-case initial = variable)
//! SubTypRelT(X, Y) :- SubTypRel(X, Y).
//! SubTypRelT(X, Z) :- SubTypRel(X, Y), SubTypRelT(Y, Z).
//!
//! // constraints (closed range-restricted FOL)
//! constraint subtype_acyclic "subtype graph must be acyclic":
//!   forall X: !SubTypRelT(X, X).
//! constraint decl_has_code:
//!   forall D, Tc, O, Tt: Decl(D, Tc, O, Tt) -> exists C1, C2: Code(C1, C2, D).
//! ```
//!
//! Constants are lower-case identifiers, single-quoted strings (`'ANY'`), or
//! integers. In constraints every variable must be explicitly quantified.

use crate::ast::{Atom, CmpOp, Literal, Rule, Term, Var};
use crate::constraint::{Constraint, Formula};
use crate::db::Database;
use crate::error::{Error, Result};
use crate::symbol::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Const;

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    SQuoted(String),
    DQuoted(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    Turnstile, // :-
    Arrow,     // ->
    Pipe,
    Amp,
    Bang,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    /// An integer literal from `start` (its `-`, if any, already
    /// consumed) through its digits; a literal outside `i64` is an error.
    fn int(&mut self, start: usize) -> Result<i64> {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("integer literal out of range"))
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn tokenize(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else {
                break;
            };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Turnstile
                    } else {
                        Tok::Colon
                    }
                }
                b'-' => {
                    self.bump();
                    if self.peek() == Some(b'>') {
                        self.bump();
                        Tok::Arrow
                    } else if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        Tok::Int(self.int(self.pos - 1)?)
                    } else {
                        return Err(self.err("expected `->` or a number after `-`"));
                    }
                }
                b'|' => {
                    self.bump();
                    Tok::Pipe
                }
                b'&' => {
                    self.bump();
                    Tok::Amp
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ne
                    } else {
                        Tok::Bang
                    }
                }
                b'=' => {
                    self.bump();
                    Tok::Eq
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                b'\'' | b'"' => {
                    let quote = b;
                    self.bump();
                    let start = self.pos;
                    loop {
                        match self.bump() {
                            Some(c) if c == quote => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated string")),
                        }
                    }
                    // The quote is ASCII, so both ends fall on char
                    // boundaries of the source text.
                    let s = self.text[start..self.pos - 1].to_string();
                    if quote == b'\'' {
                        Tok::SQuoted(s)
                    } else {
                        Tok::DQuoted(s)
                    }
                }
                c if c.is_ascii_digit() => Tok::Int(self.int(self.pos)?),
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                other => {
                    let c = self.text.get(self.pos..).and_then(|t| t.chars().next());
                    let c = c.unwrap_or(other as char);
                    return Err(self.err(format!("unexpected character `{c}`")));
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    db: &'a mut Database,
}

impl<'a> Parser<'a> {
    fn err_at(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or((0, 0), |s| (s.line, s.col));
        Error::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        match self.peek() {
            Some(x) if x == t => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err_at(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err_at(format!("expected {what}, found {other:?}"))),
        }
    }

    fn is_var_name(s: &str) -> bool {
        s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
    }

    fn program(&mut self) -> Result<()> {
        while self.peek().is_some() {
            self.statement()?;
        }
        Ok(())
    }

    /// Position of the current token (falling back to the last token).
    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or((1, 1), |s| (s.line, s.col))
    }

    fn statement(&mut self) -> Result<()> {
        let pos = self.here();
        let r = match self.peek() {
            Some(Tok::Ident(kw)) if kw == "base" || kw == "derived" => self.declaration(),
            Some(Tok::Ident(kw)) if kw == "constraint" => self.constraint(pos),
            _ => self.rule(pos),
        };
        // Database-level errors (arity, safety, redeclaration, …) carry no
        // position of their own; anchor them at the statement start.
        r.map_err(|e| e.at(pos.0, pos.1))
    }

    fn declaration(&mut self) -> Result<()> {
        let kw = self.expect_ident("declaration keyword")?;
        let name = self.expect_ident("predicate name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut cols: Vec<String> = Vec::new();
        let mut key: Vec<usize> = Vec::new();
        loop {
            let col = self.expect_ident("column name")?;
            if self.peek() == Some(&Tok::Bang) {
                self.bump();
                key.push(cols.len());
            }
            cols.push(col);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => return Err(self.err_at(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        self.expect(&Tok::Dot, "`.`")?;
        let pid = if kw == "base" {
            if key.is_empty() {
                self.db.declare_base(&name, cols.len())?
            } else {
                self.db.declare_base_keyed(&name, cols.len(), &key)?
            }
        } else {
            self.db.declare_derived(&name, cols.len())?
        };
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        self.db.set_cols(pid, &refs);
        Ok(())
    }

    // ----- rules ------------------------------------------------------------

    fn rule(&mut self, pos: (usize, usize)) -> Result<()> {
        let mut vars: FxHashMap<String, Var> = FxHashMap::default();
        let head = self.atom(&mut |name, p| rule_term(name, p, &mut vars))?;
        // A ground head on a base predicate followed by `.` is a FACT.
        if self.peek() == Some(&Tok::Dot)
            && self.db.pred_decl(head.pred).is_base()
            && head.args.iter().all(|t| matches!(t, Term::Const(_)))
        {
            self.bump();
            let tuple: Vec<Const> = head
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(_) => unreachable!("checked ground"),
                })
                .collect();
            self.db.insert(head.pred, tuple)?;
            return Ok(());
        }
        let mut body = Vec::new();
        match self.bump() {
            Some(Tok::Dot) => {}
            Some(Tok::Turnstile) => loop {
                let lit = self.literal(&mut |name, p| rule_term(name, p, &mut vars))?;
                body.push(lit);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::Dot) => break,
                    other => {
                        return Err(self.err_at(format!("expected `,` or `.`, found {other:?}")))
                    }
                }
            },
            other => return Err(self.err_at(format!("expected `:-` or `.`, found {other:?}"))),
        }
        self.db.add_rule(Rule::new(head, body))?;
        let mut names = vec![String::new(); vars.len()];
        for (name, v) in vars {
            names[v.index()] = name;
        }
        self.db.set_last_rule_info(pos, names);
        Ok(())
    }

    fn atom(
        &mut self,
        term_fn: &mut dyn FnMut(String, &mut Parser<'_>) -> Result<Term>,
    ) -> Result<Atom> {
        let name = self.expect_ident("predicate name")?;
        let pred = self.db.pred_id_req(&name).map_err(|_| {
            self.err_at(format!(
                "unknown predicate `{name}` (declare with `base`/`derived`)"
            ))
        })?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.term(term_fn)?);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => {
                        return Err(self.err_at(format!("expected `,` or `)`, found {other:?}")))
                    }
                }
            }
        } else {
            self.bump();
        }
        let decl = self.db.pred_decl(pred);
        if decl.arity != args.len() {
            let (line, col) = self.here();
            return Err(Error::ArityMismatch {
                pred: name,
                declared: decl.arity,
                used: args.len(),
            }
            .at(line, col));
        }
        Ok(Atom::new(pred, args))
    }

    fn term(
        &mut self,
        term_fn: &mut dyn FnMut(String, &mut Parser<'_>) -> Result<Term>,
    ) -> Result<Term> {
        match self.bump() {
            Some(Tok::Ident(s)) => term_fn(s, self),
            Some(Tok::Int(n)) => Ok(Term::Const(Const::Int(n))),
            Some(Tok::SQuoted(s)) | Some(Tok::DQuoted(s)) => {
                Ok(Term::Const(Const::Sym(self.db.intern(&s))))
            }
            other => Err(self.err_at(format!("expected term, found {other:?}"))),
        }
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek()? {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return None,
        };
        self.pos += 1;
        Some(op)
    }

    fn literal(
        &mut self,
        term_fn: &mut dyn FnMut(String, &mut Parser<'_>) -> Result<Term>,
    ) -> Result<Literal> {
        // `not Atom`
        if let Some(Tok::Ident(kw)) = self.peek() {
            if kw == "not" {
                self.bump();
                let a = self.atom(term_fn)?;
                return Ok(Literal::Neg(a));
            }
        }
        // Atom or comparison: atom iff ident followed by `(` and known pred…
        // simplest: if ident followed by LParen → atom, else term cmp term.
        let is_atom = matches!(
            (self.peek(), self.toks.get(self.pos + 1).map(|s| &s.tok)),
            (Some(Tok::Ident(_)), Some(Tok::LParen))
        );
        if is_atom {
            Ok(Literal::Pos(self.atom(term_fn)?))
        } else {
            let l = self.term(term_fn)?;
            let op = self
                .cmp_op()
                .ok_or_else(|| self.err_at("expected comparison operator"))?;
            let r = self.term(term_fn)?;
            Ok(Literal::Cmp(op, l, r))
        }
    }

    // ----- constraints --------------------------------------------------------

    fn constraint(&mut self, pos: (usize, usize)) -> Result<()> {
        self.bump(); // `constraint`
        let name = self.expect_ident("constraint name")?;
        let message = match self.peek() {
            Some(Tok::DQuoted(_)) => match self.bump() {
                Some(Tok::DQuoted(s)) => Some(s),
                _ => unreachable!(),
            },
            _ => None,
        };
        self.expect(&Tok::Colon, "`:`")?;
        let mut cx = ConstraintCx {
            scope: Vec::new(),
            names: Vec::new(),
        };
        let formula = self.formula(&mut cx)?;
        self.expect(&Tok::Dot, "`.`")?;
        let free = formula.free_vars();
        if !free.is_empty() {
            return Err(self.err_at(format!(
                "constraint `{name}` is not closed ({} free variable(s))",
                free.len()
            )));
        }
        let mut c = Constraint::new(name, cx.names, formula);
        if let Some(m) = message {
            c = c.with_message(m);
        }
        self.db.add_constraint(c);
        self.db.set_last_constraint_info(pos);
        Ok(())
    }

    fn formula(&mut self, cx: &mut ConstraintCx) -> Result<Formula> {
        // quantifier?
        if let Some(Tok::Ident(kw)) = self.peek() {
            if kw == "forall" || kw == "exists" {
                let is_forall = kw == "forall";
                self.bump();
                let mut vs = Vec::new();
                loop {
                    let vname = self.expect_ident("variable name")?;
                    if !Self::is_var_name(&vname) {
                        return Err(self
                            .err_at("quantified variables must start with an upper-case letter"));
                    }
                    vs.push(cx.push(vname));
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Colon, "`:` after quantifier variables")?;
                let body = self.formula(cx)?;
                cx.pop(vs.len());
                return Ok(if is_forall {
                    Formula::Forall(vs, Box::new(body))
                } else {
                    Formula::Exists(vs, Box::new(body))
                });
            }
        }
        let lhs = self.disjunction(cx)?;
        if self.peek() == Some(&Tok::Arrow) {
            self.bump();
            let rhs = self.formula(cx)?; // right associative; allows quantifier
            return Ok(Formula::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self, cx: &mut ConstraintCx) -> Result<Formula> {
        let mut parts = vec![self.conjunction(cx)?];
        while self.peek() == Some(&Tok::Pipe) {
            self.bump();
            parts.push(self.conjunction(cx)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::Or(parts)
        })
    }

    fn conjunction(&mut self, cx: &mut ConstraintCx) -> Result<Formula> {
        let mut parts = vec![self.unary(cx)?];
        while self.peek() == Some(&Tok::Amp) {
            self.bump();
            parts.push(self.unary(cx)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::And(parts)
        })
    }

    fn unary(&mut self, cx: &mut ConstraintCx) -> Result<Formula> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.bump();
                Ok(Formula::Not(Box::new(self.unary(cx)?)))
            }
            Some(Tok::LParen) => {
                self.bump();
                let f = self.formula(cx)?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(f)
            }
            Some(Tok::Ident(kw)) if kw == "true" => {
                self.bump();
                Ok(Formula::True)
            }
            Some(Tok::Ident(kw)) if kw == "false" => {
                self.bump();
                Ok(Formula::False)
            }
            Some(Tok::Ident(kw)) if kw == "not" => {
                self.bump();
                Ok(Formula::Not(Box::new(self.unary(cx)?)))
            }
            Some(Tok::Ident(kw)) if kw == "forall" || kw == "exists" => self.formula(cx),
            _ => self.atom_or_cmp(cx),
        }
    }

    fn atom_or_cmp(&mut self, cx: &mut ConstraintCx) -> Result<Formula> {
        let is_atom = matches!(
            (self.peek(), self.toks.get(self.pos + 1).map(|s| &s.tok)),
            (Some(Tok::Ident(_)), Some(Tok::LParen))
        );
        if is_atom {
            let mut lookup = |name: String, p: &mut Parser<'_>| formula_term(name, p, cx);
            let a = self.atom_cx(&mut lookup)?;
            return Ok(Formula::Atom(a));
        }
        let l = {
            let mut lookup = |name: String, p: &mut Parser<'_>| formula_term(name, p, cx);
            self.term(&mut lookup)?
        };
        let op = self
            .cmp_op()
            .ok_or_else(|| self.err_at("expected comparison operator"))?;
        let r = {
            let mut lookup = |name: String, p: &mut Parser<'_>| formula_term(name, p, cx);
            self.term(&mut lookup)?
        };
        Ok(Formula::Cmp(op, l, r))
    }

    fn atom_cx(
        &mut self,
        term_fn: &mut dyn FnMut(String, &mut Parser<'_>) -> Result<Term>,
    ) -> Result<Atom> {
        self.atom(term_fn)
    }
}

/// Variable scoping for constraint formulas.
struct ConstraintCx {
    scope: Vec<(String, Var)>,
    names: Vec<String>,
}

impl ConstraintCx {
    fn push(&mut self, name: String) -> Var {
        let v = Var(self.names.len() as u32);
        self.names.push(name.clone());
        self.scope.push((name, v));
        v
    }

    fn pop(&mut self, n: usize) {
        for _ in 0..n {
            self.scope.pop();
        }
    }

    fn lookup(&self, name: &str) -> Option<Var> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn rule_term(name: String, p: &mut Parser<'_>, vars: &mut FxHashMap<String, Var>) -> Result<Term> {
    if Parser::is_var_name(&name) {
        let next = Var(vars.len() as u32);
        Ok(Term::Var(*vars.entry(name).or_insert(next)))
    } else {
        Ok(Term::Const(Const::Sym(p.db.intern(&name))))
    }
}

fn formula_term(name: String, p: &mut Parser<'_>, cx: &ConstraintCx) -> Result<Term> {
    if Parser::is_var_name(&name) {
        match cx.lookup(&name) {
            Some(v) => Ok(Term::Var(v)),
            None => Err(p.err_at(format!(
                "variable `{name}` is not quantified (constraints must quantify all variables)"
            ))),
        }
    } else {
        Ok(Term::Const(Const::Sym(p.db.intern(&name))))
    }
}

/// Parse a program (declarations, rules, constraints) into `db`.
pub fn parse_program(db: &mut Database, text: &str) -> Result<()> {
    db.bump_load_seq();
    let toks = Lexer::new(text).tokenize()?;
    let mut p = Parser { toks, pos: 0, db };
    p.program()
}

/// Outcome of a lenient parse: how many statements were applied and which
/// statements failed (each error positioned via [`Error::position`]).
#[derive(Debug, Default)]
pub struct LenientReport {
    /// Errors per failed statement, in source order.
    pub errors: Vec<Error>,
    /// Statements successfully applied to the database.
    pub applied: usize,
}

/// Parse a program with statement-level error recovery: every valid
/// statement is applied to `db`; each failing statement is skipped (up to
/// its terminating `.`) and its error collected. Static analyzers use this
/// to report *all* problems in a document instead of stopping at the first.
pub fn parse_program_lenient(db: &mut Database, text: &str) -> LenientReport {
    db.bump_load_seq();
    let toks = match Lexer::new(text).tokenize() {
        Ok(t) => t,
        Err(e) => {
            return LenientReport {
                errors: vec![e],
                applied: 0,
            }
        }
    };
    let mut p = Parser { toks, pos: 0, db };
    let mut report = LenientReport::default();
    while p.peek().is_some() {
        let before = p.pos;
        match p.statement() {
            Ok(()) => report.applied += 1,
            Err(e) => {
                report.errors.push(e);
                if p.pos == before {
                    p.pos += 1; // guarantee progress
                }
                // Skip to the end of the failed statement — unless it was
                // already fully consumed (errors raised after its `.`, e.g.
                // the safety check on a completed rule).
                let after_dot = p
                    .toks
                    .get(p.pos.wrapping_sub(1))
                    .is_some_and(|s| s.tok == Tok::Dot);
                if !after_dot {
                    while let Some(t) = p.bump() {
                        if t == Tok::Dot {
                            break;
                        }
                    }
                }
            }
        }
    }
    report
}

/// A parsed query: body literals plus named variables in first-occurrence
/// order.
pub type ParsedQuery = (Vec<Literal>, Vec<(String, Var)>);

/// Parse a query body, e.g. `Path(X, Y), X != Y` (optional leading `?-`
/// and trailing `.`). Returns the literals and the named variables in
/// first-occurrence order.
pub fn parse_query(db: &mut Database, text: &str) -> Result<ParsedQuery> {
    let toks = Lexer::new(text).tokenize()?;
    let mut p = Parser { toks, pos: 0, db };
    // optional `?-`… our lexer has no `?`; accept plain body.
    let mut vars: FxHashMap<String, Var> = FxHashMap::default();
    let mut order: Vec<(String, Var)> = Vec::new();
    let mut body = Vec::new();
    loop {
        let before = vars.len();
        let lit = p.literal(&mut |name, pp| {
            let term = rule_term(name.clone(), pp, &mut vars)?;
            Ok(term)
        })?;
        if vars.len() > before {
            // record newly named vars in first-occurrence order
            let mut newly: Vec<(&String, &Var)> = vars
                .iter()
                .filter(|(n, _)| !order.iter().any(|(o, _)| o == *n))
                .collect();
            newly.sort_by_key(|(_, v)| v.0);
            for (n, v) in newly {
                order.push((n.clone(), *v));
            }
        }
        body.push(lit);
        match p.peek() {
            Some(Tok::Comma) => {
                p.bump();
            }
            Some(Tok::Dot) => {
                p.bump();
                break;
            }
            None => break,
            other => return Err(p.err_at(format!("expected `,` or end of query, found {other:?}"))),
        }
    }
    Ok((body, order))
}

impl Database {
    /// Run a textual query, e.g. `db.query_text("Path(X, Y), X != Y")`.
    /// Returns the variable names (first-occurrence order) and the result
    /// tuples projected onto them, sorted and deduplicated.
    pub fn query_text(&mut self, text: &str) -> Result<(Vec<String>, Vec<Tuple>)> {
        // Parsing needs `&mut self` for interning; split borrows by taking
        // the parse first.
        let (body, vars) = parse_query(self, text)?;
        let out_vars: Vec<Var> = vars.iter().map(|&(_, v)| v).collect();
        let names: Vec<String> = vars.into_iter().map(|(n, _)| n).collect();
        let rows = self.query(&body, &out_vars)?;
        Ok((names, rows))
    }
}

impl Database {
    /// Parse a program text (declarations, rules, constraints, ground
    /// facts) into this database. See [`parse_program`].
    pub fn load(&mut self, text: &str) -> Result<()> {
        let _sp = gom_obs::span("load.program");
        parse_program(self, text)
    }

    /// Like [`Self::load`] but with statement-level error recovery; see
    /// [`parse_program_lenient`].
    pub fn load_lenient(&mut self, text: &str) -> LenientReport {
        parse_program_lenient(self, text)
    }

    /// Dump all stored base facts as re-loadable program text
    /// (`Pred(a, b).` lines, sorted deterministically). Together with the
    /// declarations this makes a database state round-trippable.
    pub fn dump_facts(&self) -> String {
        let mut out = String::new();
        let mut preds: Vec<PredId> = self.base_preds().collect();
        preds.sort_by_key(|&p| self.pred_name(p).to_string());
        for p in preds {
            for t in self.facts_sorted(p) {
                out.push_str(self.pred_name(p));
                out.push('(');
                for (i, c) in t.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match c {
                        Const::Int(n) => out.push_str(&n.to_string()),
                        Const::Sym(s) => {
                            let text = self.resolve(s);
                            let plain = !text.is_empty()
                                && text.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                                && text.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                            if plain {
                                out.push_str(text);
                            } else {
                                out.push('\'');
                                // Symbols containing quotes cannot round-trip
                                // through the DSL; escape by doubling is not
                                // supported, so replace defensively.
                                out.push_str(&text.replace('\'', "\u{2019}"));
                                out.push('\'');
                            }
                        }
                    }
                }
                out.push_str(").\n");
            }
        }
        out
    }
}

use crate::pred::PredId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_with_keys_and_columns() {
        let mut db = Database::new();
        db.load("base Type(tid!, name, sid). derived SubT(a, b).")
            .unwrap();
        let ty = db.pred_id("Type").unwrap();
        assert_eq!(db.pred_decl(ty).arity, 3);
        assert_eq!(db.pred_decl(ty).key.as_deref(), Some(&[0usize][..]));
        assert!(db.pred_id("SubT").is_some());
    }

    #[test]
    fn rules_parse_and_run() {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).\n\
             derived Path(a, b).\n\
             Path(X, Y) :- Edge(X, Y).\n\
             Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
        )
        .unwrap();
        let e = db.pred_id("Edge").unwrap();
        let (a, b, c) = (db.constant("a"), db.constant("b"), db.constant("c"));
        db.insert(e, vec![a, b]).unwrap();
        db.insert(e, vec![b, c]).unwrap();
        let p = db.pred_id("Path").unwrap();
        assert_eq!(db.derived_facts(p).unwrap().len(), 3);
    }

    #[test]
    fn rule_with_negation_and_constants() {
        let mut db = Database::new();
        db.load(
            "base T(x, k).\n\
             base Bad(x).\n\
             derived Ok(x).\n\
             Ok(X) :- T(X, flag), not Bad(X).",
        )
        .unwrap();
        let t = db.pred_id("T").unwrap();
        let bad = db.pred_id("Bad").unwrap();
        let (x1, x2, flag) = (db.constant("x1"), db.constant("x2"), db.constant("flag"));
        db.insert(t, vec![x1, flag]).unwrap();
        db.insert(t, vec![x2, flag]).unwrap();
        db.insert(bad, vec![x2]).unwrap();
        let ok = db.pred_id("Ok").unwrap();
        assert_eq!(db.derived_facts(ok).unwrap().len(), 1);
    }

    #[test]
    fn unknown_predicate_is_reported() {
        let mut db = Database::new();
        let err = db.load("P(X) :- Q(X).").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err:?}");
    }

    #[test]
    fn arity_mismatch_is_reported_with_position() {
        let mut db = Database::new();
        let err = db
            .load("base Q(a, b). derived P(a). P(X) :- Q(X).")
            .unwrap_err();
        assert!(matches!(err.root(), Error::ArityMismatch { .. }), "{err:?}");
        assert!(err.position().is_some(), "{err:?}");
    }

    #[test]
    fn unsafe_rule_is_reported_with_position() {
        let mut db = Database::new();
        let err = db
            .load("base Q(a).\nderived P(a).\nP(X) :- Q(Y).")
            .unwrap_err();
        assert!(matches!(err.root(), Error::UnsafeRule { .. }), "{err:?}");
        assert_eq!(err.position(), Some((3, 1)), "{err:?}");
    }

    #[test]
    fn mid_file_syntax_error_names_the_right_line() {
        let mut db = Database::new();
        // line 1 and 2 are fine; line 3 has the bad statement, starting at
        // column 1 with the error detected at the `)`.
        let err = db
            .load("base Edge(a, b).\nderived Path(a, b).\nPath(X, ) :- Edge(X, Y).")
            .unwrap_err();
        let (line, _) = err.position().expect("positioned");
        assert_eq!(line, 3, "{err:?}");
    }

    #[test]
    fn lenient_parse_recovers_and_collects_all_errors() {
        let mut db = Database::new();
        let report = db.load_lenient(
            "base N(x).\n\
             derived Ok(x).\n\
             derived Bad(x).\n\
             Ok(X) :- N(X).\n\
             Bad(X) :- N(Y).\n\
             Nope(X) :- N(X).\n\
             N(1).",
        );
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        assert!(report.errors.iter().all(|e| e.position().is_some()));
        assert!(matches!(report.errors[0].root(), Error::UnsafeRule { .. }));
        // …and the valid statements all went through.
        assert_eq!(db.rules().len(), 1);
        let ok = db.pred_id("Ok").unwrap();
        assert_eq!(db.derived_facts(ok).unwrap().len(), 1);
    }

    #[test]
    fn rule_and_constraint_metadata_recorded() {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).\nderived Path(a, b).\n\
             Path(X, Y) :- Edge(X, Y).\n\
             constraint c: forall X: !Path(X, X).",
        )
        .unwrap();
        let info = db.rule_info(0);
        assert_eq!(info.pos, Some((3, 1)));
        assert_eq!(info.var_names, vec!["X".to_string(), "Y".to_string()]);
        assert_eq!(info.src, db.load_seq());
        assert_eq!(db.constraint_info(0).pos, Some((4, 1)));
    }

    #[test]
    fn constraint_with_message_and_quantifiers() {
        let mut db = Database::new();
        db.load(
            "base Decl(d!, tc, o, tt).\n\
             base Code(c!, text, d).\n\
             constraint decl_has_code \"every declaration needs code\":\n\
               forall D, Tc, O, Tt: Decl(D, Tc, O, Tt) -> exists C1, C2: Code(C1, C2, D).",
        )
        .unwrap();
        assert_eq!(db.constraints().len(), 1);
        assert_eq!(
            db.constraint("decl_has_code").unwrap().message.as_deref(),
            Some("every declaration needs code")
        );
    }

    #[test]
    fn unquantified_variable_rejected() {
        let mut db = Database::new();
        let err = db
            .load("base P(x). constraint c: forall X: P(X) -> P(Y).")
            .unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err:?}");
    }

    #[test]
    fn quoted_constants_and_negative_ints() {
        let mut db = Database::new();
        db.load(
            "base P(x, n).\n\
             derived Q(x).\n\
             Q(X) :- P(X, -3).\n\
             Q(X) :- P(X, Y), Y = 'ANY'.",
        )
        .unwrap();
        let p = db.pred_id("P").unwrap();
        let a = db.constant("a");
        let any = db.constant("ANY");
        db.insert(p, vec![a, Const::Int(-3)]).unwrap();
        let b = db.constant("b");
        db.insert(p, vec![b, any]).unwrap();
        let q = db.pred_id("Q").unwrap();
        assert_eq!(db.derived_facts(q).unwrap().len(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let mut db = Database::new();
        db.load(
            "% a prolog-style comment\n\
             // a C-style comment\n\
             base P(x). % trailing\n",
        )
        .unwrap();
        assert!(db.pred_id("P").is_some());
    }

    #[test]
    fn operator_precedence_arrow_binds_loosest() {
        let mut db = Database::new();
        db.load(
            "base A(x). base B(x). base C(x).\n\
             constraint c: forall X: A(X) -> B(X) | C(X).",
        )
        .unwrap();
        let f = &db.constraint("c").unwrap().formula;
        match f {
            Formula::Forall(_, inner) => {
                assert!(matches!(inner.as_ref(), Formula::Implies(..)), "{inner:?}");
            }
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn facts_in_program_text_and_roundtrip() {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).\n\
             Edge(1, 2).\n\
             Edge(n1, 'Weird Name').\n",
        )
        .unwrap();
        let e = db.pred_id("Edge").unwrap();
        assert_eq!(db.relation(e).len(), 2);
        let dump = db.dump_facts();
        assert!(dump.contains("Edge(1, 2)."), "{dump}");
        assert!(dump.contains("'Weird Name'"), "{dump}");
        // Round trip into a fresh database.
        let mut db2 = Database::new();
        db2.load("base Edge(a, b).").unwrap();
        db2.load(&dump).unwrap();
        let e2 = db2.pred_id("Edge").unwrap();
        assert_eq!(db2.facts_sorted(e2).len(), 2);
        assert_eq!(db2.dump_facts(), dump);
    }

    #[test]
    fn ground_head_on_derived_pred_is_an_axiom() {
        let mut db = Database::new();
        db.load("base E(a). derived D(a). D(X) :- E(X).").unwrap();
        // A ground `D(...)` on a DERIVED predicate is a bodyless rule — a
        // datalog axiom, not a stored fact.
        db.load("D(1).").unwrap();
        let d = db.pred_id("D").unwrap();
        assert_eq!(db.derived_facts(d).unwrap().len(), 1);
        // …and it is not in the extensional store.
        assert!(db.insert(d, vec![Const::Int(2)]).is_err());
    }

    #[test]
    fn query_text_projects_named_vars() {
        let mut db = Database::new();
        db.load(
            "base Edge(a, b).\n\
             derived Path(a, b).\n\
             Path(X, Y) :- Edge(X, Y).\n\
             Path(X, Z) :- Edge(X, Y), Path(Y, Z).",
        )
        .unwrap();
        let e = db.pred_id("Edge").unwrap();
        let (a, b, c) = (db.constant("a"), db.constant("b"), db.constant("c"));
        db.insert(e, vec![a, b]).unwrap();
        db.insert(e, vec![b, c]).unwrap();
        let (names, rows) = db.query_text("Path(X, Y), Y != 'b'.").unwrap();
        assert_eq!(names, vec!["X".to_string(), "Y".to_string()]);
        assert_eq!(rows.len(), 2); // (a,c) and (b,c)
        let (_, rows2) = db.query_text("Path('a', Z)").unwrap();
        assert_eq!(rows2.len(), 2); // Z = b, c
    }

    #[test]
    fn query_text_rejects_garbage() {
        let mut db = Database::new();
        db.load("base P(x).").unwrap();
        assert!(db.query_text("P(X) P(Y)").is_err());
        assert!(db.query_text("Nope(X)").is_err());
    }

    #[test]
    fn quoted_constants_keep_their_utf8_text() {
        let mut db = Database::new();
        db.load("base R(a, b).\nR('Straße', 2).\nR(\"車\", 3).")
            .unwrap();
        let r = db.pred_id("R").unwrap();
        let grosse = db.constant("größe");
        db.insert(r, vec![grosse, Const::Int(1)]).unwrap();
        let (_, rows) = db.query_text("R('größe', B)").unwrap();
        assert_eq!(rows, vec![Tuple::from([Const::Int(1)])]);
        let (_, rows) = db.query_text("R(A, 2)").unwrap();
        assert_eq!(db.resolve(rows[0].get(0).as_sym().unwrap()), "Straße");
        assert!(db.sym("車").is_some());
        match db.query_text("R(größe, B)") {
            Err(Error::Parse { msg, .. }) => assert!(msg.contains("`ö`"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn integer_literals_cover_i64_and_refuse_overflow() {
        let mut db = Database::new();
        db.load("base R(a).\nR(-9223372036854775808).\nR(9223372036854775807).")
            .unwrap();
        let (_, rows) = db.query_text("R(-9223372036854775808)").unwrap();
        assert_eq!(rows.len(), 1, "a ground query that holds has one row");
        let (_, rows) = db.query_text("R(A)").unwrap();
        let ints: Vec<i64> = rows.iter().filter_map(|t| t.get(0).as_int()).collect();
        assert_eq!(ints, vec![i64::MIN, i64::MAX]);
        for bad in [
            "R(9223372036854775808)",
            "R(-9223372036854775809)",
            "R(99999999999999999999)",
        ] {
            match db.query_text(bad) {
                Err(Error::Parse { msg, .. }) => assert!(msg.contains("out of range"), "{msg}"),
                other => panic!("{bad}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn shadowing_allocates_fresh_vars() {
        let mut db = Database::new();
        db.load(
            "base P(x).\n\
             constraint c: forall X: P(X) -> exists X: P(X).",
        )
        .unwrap();
        let c = db.constraint("c").unwrap();
        assert_eq!(c.var_names.len(), 2); // two distinct variables both named X
    }
}
