//! Acceptance tests for `gomsh lint`: a fixture exhibiting five distinct
//! problem classes must yield five distinct codes, deny-level exit codes,
//! and JSON that is exactly the serde-free serializer's output.

use std::collections::BTreeSet;
use std::io::Write;
use std::process::{Command, Output, Stdio};

use gomflex::prelude::{lint_source, Database, LintConfig};

/// The `"code":"Lxxxx"` entries of a JSON lint report, in order.
fn json_codes(json: &str) -> Vec<&str> {
    json.split("\"code\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect()
}

/// Negation cycle (L0201), unsafe rule (L0101), arity mismatch (L0302),
/// cartesian product (L0401), dangling type reference (L0501) — plus an
/// unused predicate (L0303) for good measure.
const BAD_FIXTURE: &str = "\
base N(x).
base Type(tid, name, sid).
base Attr(tid, attr, domain).
derived Foo(x).
derived Bar(x).
derived Unsafe(x).
derived Cart(x, y).
derived Wrong(x).
Foo(X) :- N(X), not Bar(X).
Bar(X) :- N(X), not Foo(X).
Unsafe(X) :- N(Y).
Cart(X, Y) :- N(X), N(Y).
Wrong(X) :- N(X, X).
Type('t1', 'T1', 's1').
Attr('t1', 'x', 't_missing').
";

const GOOD_FIXTURE: &str = "\
base E(x, y).
derived Path(x, y).
Path(X, Y) :- E(X, Y).
Path(X, Z) :- E(X, Y), Path(Y, Z).
constraint acyclic: forall X: !Path(X, X).
E('a', 'b').
";

fn fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("gomsh_lint_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn gomsh_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gomsh"))
        .arg("lint")
        .args(args)
        .output()
        .expect("spawn gomsh lint")
}

#[test]
fn bad_fixture_yields_five_distinct_codes() {
    let path = fixture("bad.cdl", BAD_FIXTURE);
    let out = gomsh_lint(&[path.to_str().unwrap(), "--json"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let codes: BTreeSet<&str> = json_codes(&stdout).into_iter().collect();
    for code in ["L0201", "L0101", "L0302", "L0401", "L0501"] {
        assert!(codes.contains(code), "missing {code}; got {codes:?}");
    }
    assert!(codes.len() >= 5, "want >=5 distinct codes, got {codes:?}");
}

#[test]
fn human_output_names_the_file_and_summarizes() {
    let path = fixture("bad_human.cdl", BAD_FIXTURE);
    let out = gomsh_lint(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[L0201]"), "{stdout}");
    assert!(stdout.contains(&format!("{}:", path.display())), "{stdout}");
    assert!(stdout.contains("error(s)"), "{stdout}");
}

#[test]
fn deny_levels_drive_exit_codes() {
    let bad = fixture("bad_exit.cdl", BAD_FIXTURE);
    let good = fixture("good_exit.cdl", GOOD_FIXTURE);
    // Errors present: nonzero under the default gate and under --deny warn.
    assert_eq!(gomsh_lint(&[bad.to_str().unwrap()]).status.code(), Some(1));
    assert_eq!(
        gomsh_lint(&[bad.to_str().unwrap(), "--deny", "warn"])
            .status
            .code(),
        Some(1)
    );
    // A clean program passes even the strictest gate.
    assert_eq!(
        gomsh_lint(&[good.to_str().unwrap(), "--deny", "note"])
            .status
            .code(),
        Some(0)
    );
    // Usage errors are distinguishable from lint failures.
    assert_eq!(gomsh_lint(&["--deny", "bogus"]).status.code(), Some(2));
    assert_eq!(gomsh_lint(&[]).status.code(), Some(2));
}

#[test]
fn json_output_is_the_serde_free_serializers_text() {
    let path = fixture("bad_json.cdl", BAD_FIXTURE);
    let out = gomsh_lint(&[path.to_str().unwrap(), "--json"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = lint_source(&mut Database::new(), BAD_FIXTURE, &LintConfig::default());
    assert_eq!(stdout.trim_end(), report.to_json());
    let codes: Vec<&str> = report.diags.iter().map(|d| d.code).collect();
    assert_eq!(json_codes(&stdout), codes);
    assert!(stdout.starts_with("[{") && stdout.trim_end().ends_with("}]"));
}

#[test]
fn in_shell_lint_command_reports_and_gates() {
    let schema = fixture("car_schema.gom", gomflex::prelude::CAR_SCHEMA_SRC);
    let script = format!(
        "load {}\n\
         lint\n\
         lint deny note\n\
         quit\n",
        schema.display()
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_gomsh"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gomsh");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("gomsh runs");
    assert!(out.status.success(), "gomsh exited nonzero: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("clean: no diagnostics"), "{stdout}");
    assert!(stdout.contains("lint gate armed at `note`"), "{stdout}");
}
