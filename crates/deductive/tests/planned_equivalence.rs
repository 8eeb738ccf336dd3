//! Differential test: the planned, index-backed semi-naive engine
//! computes exactly the same fixpoint as the naive tuple-at-a-time
//! reference interpreter, on randomized stratified programs (recursion +
//! negation) over randomized EDBs.
//!
//! Programs are drawn from `gom_obs::SplitMix64` (`tests/common`) so
//! failures reproduce from the seed printed in the assertion message.

mod common;

use common::{build, derived, reference};

/// Planned evaluation equals the naive interpreter on every seed.
#[test]
fn planned_matches_naive_reference() {
    for seed in 0..60u64 {
        let mut db = build(seed);
        let oracle = reference(&mut db);
        let planned = derived(&mut db);
        assert_eq!(planned, oracle, "seed {seed}: planned != naive");
    }
}
