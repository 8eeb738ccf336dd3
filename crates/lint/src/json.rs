//! Machine-readable emission: a hand-rolled JSON serializer, so reports
//! are emitted with zero external crates.

use crate::diag::{Diagnostic, LintReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value (strings, i64 numbers, and the usual composites — all a
/// diagnostic needs).
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Value>),
}

/// Serialize a value to compact JSON.
pub fn emit(v: &Value) -> String {
    let mut s = String::new();
    emit_into(v, &mut s);
    s
}

fn emit_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => emit_str(s, out),
        Value::Arr(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_into(x, out);
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_str(k, out);
                out.push(':');
                emit_into(x, out);
            }
            out.push('}');
        }
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----- report -> JSON -------------------------------------------------------

fn diag_to_value(d: &Diagnostic) -> Value {
    let mut m = BTreeMap::new();
    m.insert("code".into(), Value::Str(d.code.into()));
    m.insert("severity".into(), Value::Str(d.severity.name().into()));
    m.insert("message".into(), Value::Str(d.message.clone()));
    match d.span {
        Some(s) => {
            m.insert("line".into(), Value::Int(s.line as i64));
            m.insert("col".into(), Value::Int(s.col as i64));
            m.insert("len".into(), Value::Int(s.len as i64));
        }
        None => {
            m.insert("line".into(), Value::Null);
            m.insert("col".into(), Value::Null);
            m.insert("len".into(), Value::Null);
        }
    }
    m.insert(
        "notes".into(),
        Value::Arr(d.notes.iter().map(|n| Value::Str(n.clone())).collect()),
    );
    m.insert("fix".into(), d.fix.clone().map_or(Value::Null, Value::Str));
    Value::Obj(m)
}

impl LintReport {
    /// Serialize to a JSON array of diagnostic objects.
    pub fn to_json(&self) -> String {
        emit(&Value::Arr(self.diags.iter().map(diag_to_value).collect()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::diag::{Severity, Span};

    #[test]
    fn report_emits_one_object_per_diagnostic() {
        let mut r = LintReport::default();
        r.diags.push(
            Diagnostic::new("L0201", Severity::Error, "negation cycle")
                .with_span(Some(Span::point(3, 7)))
                .with_note("minimal cycle: Foo -> not Bar -> Foo")
                .with_fix("remove one negation"),
        );
        r.diags
            .push(Diagnostic::new("L0503", Severity::Warn, "spanless"));
        assert_eq!(
            r.to_json(),
            "[{\"code\":\"L0201\",\"col\":7,\"fix\":\"remove one negation\",\"len\":1,\
             \"line\":3,\"message\":\"negation cycle\",\
             \"notes\":[\"minimal cycle: Foo -> not Bar -> Foo\"],\"severity\":\"error\"},\
             {\"code\":\"L0503\",\"col\":null,\"fix\":null,\"len\":null,\"line\":null,\
             \"message\":\"spanless\",\"notes\":[],\"severity\":\"warn\"}]"
        );
    }

    #[test]
    fn escapes_are_emitted() {
        let v = Value::Str("a\"b\\c\nd\r\t\u{1}é".into());
        assert_eq!(emit(&v), r#""a\"b\\c\nd\r\t\u0001é""#);
    }
}
