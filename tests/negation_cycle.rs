//! An unstratifiable program's error names its negation cycle. `Late`
//! reads both `P` and `Q` under negation, so it lands in the highest
//! stratum any relaxation reaches, but it lies on no cycle: the error must
//! name only the predicates of the `P`/`Q` cycle, and the rule that
//! closes it.

use gomflex::deductive::{Database, Error};

#[test]
fn error_names_only_the_predicates_on_the_cycle() {
    let mut db = Database::new();
    db.load(
        "base N(x). derived P(x). derived Q(x). derived Late(x).\n\
         P(X) :- N(X), not Q(X).\n\
         Q(X) :- N(X), not P(X).\n\
         Late(X) :- N(X), not P(X), not Q(X).",
    )
    .unwrap();
    let err = db.evaluate().unwrap_err();
    let Error::NotStratifiable(cycle) = err.root() else {
        panic!("expected a stratification error, got: {err}");
    };
    let named: Vec<&str> = cycle
        .split(" -> ")
        .map(|p| p.trim_start_matches("not "))
        .collect();
    assert!(
        named.len() >= 3 && named.iter().all(|p| ["P", "Q"].contains(p)),
        "{err}"
    );
    assert!(!err.to_string().contains("Late"), "{err}");
    assert_eq!(cycle, "P -> not Q -> P");
    // Anchored at the first rule, whose `not Q` closes the cycle.
    assert_eq!(err.position(), Some((2, 1)));

    // The linter's rendering of the load error shows the same cycle.
    let diag = gomflex::lint::error_to_diag(&err);
    assert_eq!(diag.code, "L0201");
    assert_eq!(diag.notes, ["minimal cycle: P -> not Q -> P"]);
}
