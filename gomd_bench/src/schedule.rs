//! Fixed-rate schedule for the open-loop writer.
//!
//! Session `k` is due `k` periods after the start, whether or not earlier
//! sessions have finished. A session is timed from its due time, so a
//! stall also charges the wait it imposes on the sessions behind it, and
//! the generator's own lateness (start time minus due time) is reported
//! separately to show whether the schedule was kept.

use std::time::{Duration, Instant};

/// A fixed-rate schedule anchored at `start`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// `rate` sessions per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// Offset of session `k`'s due time from the start.
    pub fn due_offset(&self, k: u64) -> Duration {
        self.period
            .saturating_mul(u32::try_from(k).unwrap_or(u32::MAX))
    }

    /// When session `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.due_offset(k)
    }

    /// How late a session due at `due` started when it started at
    /// `started` (zero when on time or early).
    pub fn lateness(due: Instant, started: Instant) -> Duration {
        started.saturating_duration_since(due)
    }

    /// Block until session `k` is due; returns its due time.
    pub fn wait_for(&self, k: u64) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule::new(Instant::now(), 20.0);
        assert_eq!(s.due_offset(0), Duration::ZERO);
        assert_eq!(s.due_offset(1), Duration::from_millis(50));
        assert_eq!(s.due_offset(40), Duration::from_secs(2));
        assert_eq!(s.due(3) - s.due(2), Duration::from_millis(50));
    }

    #[test]
    fn lateness_counts_only_late_starts() {
        let s = Schedule::new(Instant::now(), 10.0);
        let due = s.due(5);
        assert_eq!(Schedule::lateness(due, due), Duration::ZERO);
        assert_eq!(
            Schedule::lateness(due, due - Duration::from_millis(3)),
            Duration::ZERO,
            "an early start is not late"
        );
        assert_eq!(
            Schedule::lateness(due, due + Duration::from_millis(7)),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn wait_for_does_not_return_before_the_due_time() {
        let s = Schedule::new(Instant::now(), 200.0);
        let due = s.wait_for(2);
        assert!(Instant::now() >= due);
        // A session already overdue is released at once.
        let start = Instant::now();
        s.wait_for(0);
        assert!(start.elapsed() < Duration::from_millis(5));
    }
}
