//! Exact sample statistics.
//!
//! Every request's duration is kept; percentiles are read off the sorted
//! samples by nearest rank, never from histogram buckets. A tail figure is
//! the highest percentile (at most p99) that still has at least
//! [`TAIL_BEYOND`] samples above it, so a tail is never one stray sample.

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Highest percentile a tail figure reports.
const TAIL_MAX: f64 = 0.99;

/// Raw samples of one quantity (nanoseconds for timings).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

/// Median and tail of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Tail value (see [`Summary::tail_pct`]), `None` with fewer than
    /// `TAIL_BEYOND + 1` samples.
    pub tail: Option<u64>,
    /// The percentile the tail value sits at, in percent.
    pub tail_pct: f64,
    /// Largest sample.
    pub max: u64,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: u64) {
        self.0.push(v);
    }

    /// Record the time since `start` in nanoseconds.
    pub fn push_since(&mut self, start: std::time::Instant) {
        self.push(nanos(start.elapsed()));
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Median and tail; `None` without samples.
    pub fn summary(&self) -> Option<Summary> {
        let mut v = self.0.clone();
        v.sort_unstable();
        let n = v.len();
        let max = *v.last()?;
        let tail_idx = tail_index(n);
        Some(Summary {
            n,
            p50: v[rank_index(n, 0.5)],
            tail: tail_idx.map(|i| v[i]),
            tail_pct: tail_idx.map_or(0.0, |i| (i + 1) as f64 * 100.0 / n as f64),
            max,
        })
    }
}

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    // The epsilon keeps binary rounding of `q` (0.99 is not exact) from
    // pushing an exact rank up by one.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Index of the tail sample: p99 by nearest rank, lowered until at least
/// `TAIL_BEYOND` samples lie above it.
fn tail_index(n: usize) -> Option<usize> {
    let last_allowed = n.checked_sub(TAIL_BEYOND + 1)?;
    Some(rank_index(n, TAIL_MAX).min(last_allowed))
}

/// A duration in whole nanoseconds, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        // Pushed in reverse so the summary must sort.
        for v in (1..=n).rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(samples(1).summary().unwrap().p50, 1);
        assert_eq!(samples(4).summary().unwrap().p50, 2);
        assert_eq!(samples(5).summary().unwrap().p50, 3);
        assert!(Samples::default().summary().is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Below 11 samples no percentile has ten samples above it.
        assert_eq!(samples(10).summary().unwrap().tail, None);
        // 11 samples: only the smallest has ten above it.
        let s = samples(11).summary().unwrap();
        assert_eq!(s.tail, Some(1));
        // 200 samples: p99 would be value 198 with two above; the rule
        // lowers it to 190, which has exactly ten above.
        let s = samples(200).summary().unwrap();
        assert_eq!(s.tail, Some(190));
        assert!((s.tail_pct - 95.0).abs() < 1e-9);
        // 1000 samples: p99 (990) has exactly ten above.
        let s = samples(1000).summary().unwrap();
        assert_eq!(s.tail, Some(990));
        assert!((s.tail_pct - 99.0).abs() < 1e-9);
        // 5000 samples: the true p99 has far more than ten above.
        let s = samples(5000).summary().unwrap();
        assert_eq!(s.tail, Some(4950));
        assert_eq!(s.max, 5000);
    }

    #[test]
    fn every_tail_leaves_ten_beyond() {
        for n in 11..400u64 {
            let s = samples(n).summary().unwrap();
            let tail = s.tail.unwrap();
            assert!(n - tail >= TAIL_BEYOND as u64, "n={n} tail={tail}");
            assert!(s.tail_pct <= 99.0 + 1e-9);
        }
    }
}
