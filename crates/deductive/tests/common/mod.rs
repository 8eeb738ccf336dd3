//! Shared fixtures for the differential tests: a deterministic RNG and a
//! generator for randomized stratified programs (recursion + negation)
//! over randomized EDBs. Failures reproduce from the seed printed in the
//! assertion message.

#![allow(dead_code)] // each test binary uses a subset

use gom_deductive::{Const, Database, Tuple};

/// SplitMix64 — deterministic, dependency-free.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const DOMAIN: usize = 5;

/// One random rule for `head`, guaranteed range-restricted: head args and
/// negated-literal args are drawn from variables bound by a positive
/// literal. `pos_pool` may include `head` itself (recursion); `neg_pool`
/// holds only strictly-lower predicates, so the program stays stratified.
fn gen_rule(
    rng: &mut Rng,
    head: (&str, usize),
    pos_pool: &[(&str, usize)],
    neg_pool: &[(&str, usize)],
) -> String {
    let mut body: Vec<String> = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    let n_pos = 1 + rng.below(3);
    for _ in 0..n_pos {
        let (p, ar) = pos_pool[rng.below(pos_pool.len())];
        let args: Vec<String> = (0..ar)
            .map(|_| {
                if rng.chance(20) {
                    rng.below(DOMAIN).to_string()
                } else {
                    let v = VARS[rng.below(VARS.len())];
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                    v.to_string()
                }
            })
            .collect();
        body.push(format!("{}({})", p, args.join(", ")));
    }
    if bound.is_empty() {
        body.push("B0(X, Y)".to_string());
        bound.extend(["X", "Y"]);
    }
    if !neg_pool.is_empty() && rng.chance(40) {
        let (p, ar) = neg_pool[rng.below(neg_pool.len())];
        let args: Vec<String> = (0..ar)
            .map(|_| {
                if rng.chance(20) {
                    rng.below(DOMAIN).to_string()
                } else {
                    bound[rng.below(bound.len())].to_string()
                }
            })
            .collect();
        body.push(format!("not {}({})", p, args.join(", ")));
    }
    let head_args: Vec<String> = (0..head.1)
        .map(|_| bound[rng.below(bound.len())].to_string())
        .collect();
    format!(
        "{}({}) :- {}.",
        head.0,
        head_args.join(", "),
        body.join(", ")
    )
}

/// A random stratified program over fixed predicates, plus a random EDB.
pub fn build(seed: u64) -> Database {
    let mut db = Database::new();
    build_into(&mut db, seed);
    db
}

/// Load [`build`]'s program and EDB for `seed` into an existing database
/// (whose own predicates must not be named `B*`/`D*`). Returns the
/// generator, positioned after the draws `build` makes, for callers that
/// keep drawing from the same seed.
pub fn build_into(db: &mut Database, seed: u64) -> Rng {
    let mut rng = Rng(seed);
    let b0 = ("B0", 2usize);
    let b1 = ("B1", 1usize);
    let d0 = ("D0", 2usize);
    let d1 = ("D1", 2usize);
    let d2 = ("D2", 1usize);

    let mut text = String::from(
        "base B0(a, b).
         base B1(a).
         derived D0(a, b).
         derived D1(a, b).
         derived D2(a).\n",
    );
    // Stratum 0: D0 over bases + itself. Stratum 1: D1 may negate D0.
    // Stratum 2: D2 may negate D0 and D1.
    for _ in 0..(1 + rng.below(3)) {
        text.push_str(&gen_rule(&mut rng, d0, &[b0, b1, d0], &[]));
        text.push('\n');
    }
    for _ in 0..(1 + rng.below(3)) {
        text.push_str(&gen_rule(&mut rng, d1, &[b0, b1, d0, d1], &[d0]));
        text.push('\n');
    }
    for _ in 0..(1 + rng.below(3)) {
        text.push_str(&gen_rule(&mut rng, d2, &[b0, b1, d0, d1, d2], &[d0, d1]));
        text.push('\n');
    }

    db.load(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{text}"));
    let pb0 = db.pred_id("B0").unwrap();
    let pb1 = db.pred_id("B1").unwrap();
    for _ in 0..rng.below(20) {
        let t = Tuple::from(vec![
            Const::Int(rng.below(DOMAIN) as i64),
            Const::Int(rng.below(DOMAIN) as i64),
        ]);
        db.insert(pb0, t).unwrap();
    }
    for _ in 0..rng.below(8) {
        let t = Tuple::from(vec![Const::Int(rng.below(DOMAIN) as i64)]);
        db.insert(pb1, t).unwrap();
    }
    rng
}

/// One to three random range-restricted constraints over [`build`]'s
/// predicates, as program text. Random EDBs violate them often, so the
/// compiled violation relations are regularly non-empty.
pub fn constraints(rng: &mut Rng, tag: usize) -> String {
    const BIN: [&str; 3] = ["B0", "D0", "D1"];
    const UN: [&str; 2] = ["B1", "D2"];
    let mut text = String::new();
    for i in 0..(1 + rng.below(3)) {
        let (p, q) = (BIN[rng.below(3)], BIN[rng.below(3)]);
        let (u, v) = (UN[rng.below(2)], UN[rng.below(2)]);
        let body = match rng.below(4) {
            0 => format!("forall X, Y: {p}(X, Y) -> {q}(Y, X) | {u}(X)"),
            1 => format!("forall X: {u}(X) -> exists Y: {p}(X, Y)"),
            2 => format!("forall X, Y: {p}(X, Y) -> !{q}(Y, X)"),
            _ => format!("forall X, Y: {p}(X, Y) & {u}(X) -> {v}(Y)"),
        };
        text.push_str(&format!("constraint c{tag}_{i}: {body}.\n"));
    }
    text
}

/// The planned engine's extensions for every derived predicate.
pub fn derived(db: &mut Database) -> Vec<Vec<Tuple>> {
    ["D0", "D1", "D2"]
        .iter()
        .map(|p| {
            let id = db.pred_id(p).unwrap();
            db.derived_facts(id).unwrap()
        })
        .collect()
}

/// The naive reference interpreter's extensions.
pub fn reference(db: &mut Database) -> Vec<Vec<Tuple>> {
    ["D0", "D1", "D2"]
        .iter()
        .map(|p| {
            let id = db.pred_id(p).unwrap();
            db.reference_facts(id).unwrap()
        })
        .collect()
}
