//! Differential test for the observability layer: instrumentation must be
//! *pure observation*. Evaluating the same randomized stratified programs
//! (seeds shared with `planned_equivalence`) with gom-obs fully enabled —
//! aggregation *and* a live JSONL trace sink — yields a bit-identical IDB
//! to the uninstrumented run.

mod common;

use common::{build, derived};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// gom-obs state is process-global; tests in this binary must not
/// interleave their enable/disable toggles.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An in-memory JSONL sink, so the trace-writing path is exercised too.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn idb_matches_with_obs_on(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        // Uninstrumented run.
        gom_obs::set_enabled(false);
        let mut plain_db = build(seed);
        let plain = derived(&mut plain_db);

        // Instrumented run: aggregation + trace sink.
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        gom_obs::set_trace_writer(Box::new(buf.clone()));
        gom_obs::set_enabled(true);
        let mut obs_db = build(seed);
        let instrumented = derived(&mut obs_db);
        gom_obs::set_enabled(false);
        gom_obs::clear_trace();

        assert_eq!(instrumented, plain, "seed {seed}: instrumented IDB differs");
        // The instrumented run actually recorded something (it was not a
        // silently disabled run).
        let traced = buf.0.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            traced
                .windows(b"eval.fixpoint".len())
                .any(|w| w == b"eval.fixpoint"),
            "seed {seed}: no eval.fixpoint span traced"
        );
    }
}

#[test]
fn instrumented_eval_is_bit_identical() {
    let _g = lock();
    gom_obs::reset();
    idb_matches_with_obs_on(0..30);
}
