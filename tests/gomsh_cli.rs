//! Drives the `gomsh` shell binary through a script and checks the
//! transcript — the "interactive schema editor" front end of §2.2.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

fn run_script(script: &str) -> String {
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
    String::from_utf8(out.stdout).expect("utf8")
}

/// The car schema as a file, written once per test process. The tests
/// run in parallel (and test processes may overlap); a file rewritten in
/// place could be read half-written by another gomsh, which then loaded
/// an empty schema. The file is written under a private name and renamed
/// into place, so every reader sees a complete copy.
fn write_car_schema() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join("gomsh_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("car_schema.gom");
        let tmp = dir.join(format!("car_schema.gom.{}", std::process::id()));
        std::fs::write(&tmp, gomflex::prelude::CAR_SCHEMA_SRC).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        path
    })
}

#[test]
fn full_fueltype_session_via_shell() {
    let schema = write_car_schema();
    let script = format!(
        "load {}\n\
         new Car@CarSchema\n\
         begin\n\
         add-attr Car@CarSchema fuelType string\n\
         end\n\
         repairs 0\n\
         apply 0 2\n\
         check\n\
         quit\n",
        schema.display()
    );
    let out = run_script(&script);
    assert!(out.contains("defined 1 schema(s), consistent"), "{out}");
    assert!(out.contains("slot_for_every_attr"), "{out}");
    assert!(out.contains("CONVERSION"), "{out}");
    assert!(out.contains("repair executed — session committed"), "{out}");
    assert!(out.contains("consistent"), "{out}");
}

#[test]
fn lint_gate_refusal_of_a_load_leaves_no_session_open() {
    let dir = std::env::temp_dir().join("gomsh_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("shadow.{}.gom", std::process::id()));
    // `x` on the subtype shadows `x` on the supertype: lints as L0502 (warn).
    std::fs::write(
        &path,
        "schema ShadowSchema is\n  type A is [ x : string; ] end type A;\n  \
         type B supertype A is [ x : string; ] end type B;\nend schema ShadowSchema;\n",
    )
    .unwrap();
    let out = run_script(&format!(
        "lint deny warn\nload {}\nbegin\nquit\n",
        path.display()
    ));
    let _ = std::fs::remove_file(&path);
    assert!(out.contains("lint gate (warn)"), "{out}");
    assert!(out.contains("BES — evolution session open"), "{out}");
    assert!(!out.contains("error: session already active"), "{out}");
}

#[test]
fn rollback_via_shell() {
    let schema = write_car_schema();
    let script = format!(
        "load {}\n\
         begin\n\
         del-type Person@CarSchema orphan\n\
         end\n\
         rollback\n\
         check\n\
         quit\n",
        schema.display()
    );
    let out = run_script(&script);
    assert!(out.contains("violation(s); session stays open"), "{out}");
    assert!(out.contains("session rolled back"), "{out}");
    // The final `check` prints a bare `consistent` line.
    assert!(
        out.lines()
            .any(|l| l.trim_end().ends_with("consistent") && !l.contains("violation")),
        "{out}"
    );
}

#[test]
fn query_and_why_via_shell() {
    let schema = write_car_schema();
    let script = format!(
        "load {}\n\
         query SubTypRel(X, Y), Y != 'tid_any'.\n\
         why SubTypRelT tid3 tid2\n\
         quit\n",
        schema.display()
    );
    let out = run_script(&script);
    assert!(out.contains("(1 row(s))"), "{out}"); // City <: Location
    assert!(out.contains("[fact]"), "{out}");
}

#[test]
fn errors_are_reported_not_fatal() {
    let out = run_script(
        "dump Nonexistent\n\
         get ghost attr\n\
         frobnicate\n\
         check\n\
         quit\n",
    );
    assert!(out.contains("error: unknown predicate"), "{out}");
    assert!(out.contains("error: unknown object"), "{out}");
    assert!(out.contains("unknown command"), "{out}");
    assert!(out.contains("consistent"), "{out}");
}
