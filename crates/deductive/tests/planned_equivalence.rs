//! Differential test: the planned, index-backed, optionally parallel
//! semi-naive engine computes exactly the same fixpoint as the naive
//! tuple-at-a-time reference interpreter, on randomized stratified
//! programs (recursion + negation) over randomized EDBs.
//!
//! Programs are drawn from `gom_obs::SplitMix64` (`tests/common`) so
//! failures reproduce from the seed printed in the assertion message.

mod common;

use common::{build, derived, reference};
use gom_deductive::Tuple;

/// Planned serial and planned parallel evaluation both equal the naive
/// interpreter on every seed.
#[test]
fn planned_matches_naive_reference() {
    for seed in 0..60u64 {
        let mut db = build(seed);
        let oracle = reference(&mut db);
        db.set_eval_threads(1);
        let serial = derived(&mut db);
        assert_eq!(serial, oracle, "seed {seed}: serial planned != naive");

        let mut db4 = build(seed);
        db4.set_eval_threads(4);
        let parallel = derived(&mut db4);
        assert_eq!(parallel, oracle, "seed {seed}: parallel planned != naive");
    }
}

/// The parallel path is deterministic: two runs at 4 threads and one at
/// 2 threads produce identical extensions for every derived predicate.
#[test]
fn parallel_evaluation_is_deterministic() {
    for seed in [3u64, 17, 29, 41, 53] {
        let mut runs: Vec<Vec<Vec<Tuple>>> = Vec::new();
        for threads in [4usize, 4, 2] {
            let mut db = build(seed);
            db.set_eval_threads(threads);
            runs.push(derived(&mut db));
        }
        assert_eq!(runs[0], runs[1], "seed {seed}: 4-thread runs disagree");
        assert_eq!(runs[0], runs[2], "seed {seed}: 4- vs 2-thread disagree");
    }
}
