//! SplitMix64 — the workspace's one seedable PRNG.
//!
//! Benchmark workloads, the chaos proxy, client retry jitter and every
//! seeded test sweep draw from it, so a seed printed in a failure message
//! reproduces the run. It needs reproducibility, not statistical quality.

/// SplitMix64: tiny, seedable, dependency-free.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits. (Named like the PRNG literature, not
    /// `Iterator::next` — an infinite generator has no `None`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draw in `[0, bound)`; a zero bound is treated as 1.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        let c: Vec<u64> = (0..8).map(|_| r.next()).collect();
        assert_ne!(a, c);
        // below() respects its bound.
        let mut r = SplitMix64::new(7);
        for bound in [1usize, 2, 10, 255] {
            for _ in 0..32 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    /// Every seeded workload, chaos schedule and test sweep depends on this
    /// exact stream.
    #[test]
    fn first_outputs_are_pinned() {
        let mut r = SplitMix64::new(42);
        let got: Vec<u64> = (0..4).map(|_| r.next()).collect();
        assert_eq!(
            got,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52,
                0x581C_E1FF_0E4A_E394,
            ]
        );
    }
}
