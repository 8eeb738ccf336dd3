//! Differential referee for the incremental schema hierarchy: after every
//! step of a random frame sequence, `Hierarchy::extend` / `revert` must hold
//! exactly the definitions and parent links `Hierarchy::build` computes from
//! the surviving frames, and must reject a frame with the same error.
//!
//! Frames draw schema names from a small pool, so they link to schemas of
//! earlier frames, of their own frame, and to names not (or no longer)
//! defined; they claim schemas that already have a parent, close cycles,
//! and re-define names, including names a rollback removed. Random
//! rollbacks revert the newest uncommitted frames. Each case is drawn from
//! `gom_obs::SplitMix64`, one seed per case, and every failure prints its
//! seed.

use gom_analyzer::ast::{Item, SchemaDef};
use gom_analyzer::parse_source;
use gom_analyzer::paths::{Hierarchy, PathError, Undo};
use gom_obs::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};

/// Random frame sequences, one seed each.
const SEEDS: u64 = 600;

/// Steps (frames, rollbacks, commits) per sequence.
const STEPS: usize = 40;

/// Schema names frames define and link to. `Ghost` is never defined.
const NAMES: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "Ghost"];

/// One random frame: one to three definitions, each listing up to three
/// subschemas, half of them drawn from the `defined` names.
fn frame(rng: &mut SplitMix64, defined: &[&str]) -> Vec<SchemaDef> {
    let mut src = String::new();
    for _ in 0..1 + rng.below(3) {
        let name = NAMES[rng.below(NAMES.len() - 1)];
        src.push_str(&format!("schema {name} is "));
        for _ in 0..rng.below(4) {
            let sub = if !defined.is_empty() && rng.below(2) == 0 {
                defined[rng.below(defined.len())]
            } else {
                NAMES[rng.below(NAMES.len())]
            };
            src.push_str(&format!("subschema {sub}; "));
        }
        src.push_str(&format!("end schema {name};\n"));
    }
    parse_source(&src)
        .unwrap_or_else(|e| panic!("generated frame does not parse: {e}\n{src}"))
        .into_iter()
        .map(|item| match item {
            Item::Schema(s) => s,
            Item::Fashion(_) => unreachable!("frames hold schemas only"),
        })
        .collect()
}

/// `Hierarchy::build` over `frames`, in order.
fn reference(frames: &[Vec<SchemaDef>]) -> Result<Hierarchy, PathError> {
    let items: Vec<Item> = frames
        .iter()
        .flatten()
        .map(|s| Item::Schema(s.clone()))
        .collect();
    Hierarchy::build(&items)
}

fn assert_same(seed: u64, step: usize, what: &str, got: &Hierarchy, want: &Hierarchy) {
    assert_eq!(
        got.defs, want.defs,
        "seed {seed} step {step} ({what}): definitions differ from build"
    );
    assert_eq!(
        got.parent, want.parent,
        "seed {seed} step {step} ({what}): parent links differ from build"
    );
}

/// What the sweep must reach at least 100 times, so that a generator
/// change cannot silently stop covering a case.
const CASES: [&str; 7] = [
    "accepted frames",
    "unknown-schema rejections",
    "two-parent rejections",
    "cycle rejections",
    "re-definitions",
    "re-definitions of rolled-back names",
    "rollbacks",
];

#[test]
fn extend_and_revert_match_build() {
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    let mut count = |case: &'static str| *tally.entry(case).or_default() += 1;
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let mut h = Hierarchy::default();
        // Surviving frames, oldest first; the newest `open.len()` of them
        // are uncommitted and can be rolled back through `open`.
        let mut frames: Vec<Vec<SchemaDef>> = Vec::new();
        let mut open: Vec<Undo> = Vec::new();
        let mut rolled_back: BTreeSet<String> = BTreeSet::new();
        for step in 0..STEPS {
            match rng.below(10) {
                0..=6 => {
                    let defined: Vec<&str> = h.defs.keys().map(String::as_str).collect();
                    let new = frame(&mut rng, &defined);
                    for s in &new {
                        if h.defs.contains_key(&s.name) {
                            count("re-definitions");
                        } else if rolled_back.contains(&s.name) {
                            count("re-definitions of rolled-back names");
                        }
                    }
                    frames.push(new);
                    let want = reference(&frames);
                    let new = frames.last().expect("just pushed");
                    let refs: Vec<&SchemaDef> = new.iter().collect();
                    let got = h.extend(&refs);
                    match (got, want) {
                        (Ok(undo), Ok(want)) => {
                            count("accepted frames");
                            assert_same(seed, step, "extend", &h, &want);
                            open.push(undo);
                        }
                        (Err(got), Err(want)) => {
                            count(match want {
                                PathError::UnknownSchema(_) => "unknown-schema rejections",
                                PathError::TwoParents { .. } => "two-parent rejections",
                                _ => "cycle rejections",
                            });
                            assert_eq!(
                                got, want,
                                "seed {seed} step {step}: extend and build reject differently"
                            );
                            assert_eq!(got.to_string(), want.to_string(), "seed {seed}");
                            frames.pop();
                            let before = reference(&frames).unwrap_or_else(|e| {
                                panic!("seed {seed} step {step}: survivors invalid: {e}")
                            });
                            assert_same(seed, step, "rejected extend", &h, &before);
                        }
                        (got, want) => panic!(
                            "seed {seed} step {step}: extend gave {:?} but build gave {:?}",
                            got.map(|_| ()),
                            want.map(|_| ())
                        ),
                    }
                }
                7 | 8 => {
                    count("rollbacks");
                    let k = rng.below(open.len() + 1);
                    for undo in open.drain(open.len() - k..).rev() {
                        h.revert(undo);
                        for s in frames.pop().expect("one frame per undo") {
                            rolled_back.insert(s.name);
                        }
                    }
                    let want = reference(&frames).unwrap_or_else(|e| {
                        panic!("seed {seed} step {step}: survivors invalid: {e}")
                    });
                    assert_same(seed, step, "rollback", &h, &want);
                }
                _ => open.clear(), // commit: the open frames become permanent
            }
        }
    }
    for case in CASES {
        let n = tally.get(case).copied().unwrap_or(0);
        assert!(
            n >= 100,
            "only {n} {case} over {SEEDS} seeds: the generator lost coverage"
        );
    }
}
