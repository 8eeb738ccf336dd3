//! Epoch-based snapshot publication.
//!
//! The writer (the single evolution session) publishes an immutable
//! [`Snapshot`] at every commit point; readers never see a mid-session
//! state. Publication is an epoch bump: readers poll one atomic to learn
//! that a newer snapshot exists, and only then take the (brief) slot lock
//! to clone the `Arc`. A reader holding an old `Arc` keeps a fully
//! consistent view for as long as it likes — snapshots are immutable and
//! reference-counted, so an open session never blocks a reader and a
//! reader never blocks the writer.
//!
//! Capture cost is O(#relations + #pages) `Arc` bumps: the snapshot's meta
//! model shares the writer's row and string pages copy-on-write, and its
//! rules, constraints and predicate registry behind `Arc`s
//! (`Database::snapshot_clone`). The state digest is computed lazily on
//! first request ([`Snapshot::digest`]) — a commit that no client ever
//! digests never pays for the sorted dump. Pages hold their
//! rows and strings flat, so the writer's first write to a shared tail
//! page after a capture copies it with a memcpy, and dropping the last
//! snapshot that holds a page frees it in one call.
//!
//! The digest is computed straight into the snapshot's `Digest` reply
//! frame: one sealed gom-wire frame (header with CRC, `Reply::Ok` tag and
//! length, `epoch N\n`, then the digest text), built at most once per
//! snapshot. Every later `Digest` read on any connection writes those
//! bytes as they are, and [`Snapshot::digest`] serves its text as a slice
//! of the same buffer, so the text is stored once.
//!
//! What a snapshot carries beyond the base facts: while the writer keeps
//! its constraint violations maintained (gomd arms this at start-up, and
//! every session keeps it armed), the capture also shares the writer's
//! compiled program (one `Arc`) and CoW shares of its violation
//! relations. A reader's `check` is then a read of those relations plus
//! the key checks, and queries over base predicates never evaluate; only a
//! query over a derived predicate runs the fixpoint on the reader. None
//! of this enters [`Snapshot::digest`], which covers base predicates only.
//!
//! Read-only verbs (digest/stats/metrics) are served straight from the
//! shared `Arc<Snapshot>`. Queries and checks need `&mut Database`
//! (interning, lazily built indexes), so each connection materialises a
//! *private* mutable clone via [`ReaderCache::view`] — itself a CoW share,
//! refreshed only when the epoch moves and only for connections that run
//! mutable verbs. The rendered check answer is computed once per epoch,
//! by the first connection that asks, and stored in the shared snapshot
//! for every other reader ([`ReaderCache::check`]).

use crate::wire::{self, Reply};
use gom_model::MetaModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// An immutable, consistent view of the schema base at one epoch.
pub struct Snapshot {
    /// Monotonic publication counter (0 = the state at server start).
    pub epoch: u64,
    /// Index-free CoW share of the meta model (with the writer's compiled
    /// program and violation relations when those were maintained).
    pub meta: MetaModel,
    /// The `Digest` reply frame holding the state digest, built on first
    /// request (see [`Snapshot::digest`]).
    digest: OnceLock<DigestFrame>,
    /// Rendered violations of this epoch, filled by the first reader that
    /// checks it (see [`ReaderCache::check`]).
    check: OnceLock<Vec<String>>,
}

impl Snapshot {
    /// Capture the current state of `meta` as the snapshot for `epoch`.
    /// O(#relations + #pages) `Arc` bumps; no row copies, no digest
    /// computation.
    pub fn capture(epoch: u64, meta: &MetaModel) -> Snapshot {
        Snapshot {
            epoch,
            meta: meta.snapshot_clone(),
            digest: OnceLock::new(),
            check: OnceLock::new(),
        }
    }

    /// The state digest, computed on first request and cached for the
    /// snapshot's lifetime. Interner-independent, so a recovered daemon
    /// publishing the same logical state produces a bit-identical digest
    /// — and lazy computation cannot change the bytes, because the
    /// snapshot is immutable from capture on.
    pub fn digest(&self) -> &str {
        let frame = self.digest_built();
        // SAFETY: `bytes[text..]` is a copy of the digest `String`'s bytes
        // (checked in `digest_built`), and the frame is never mutated
        // after it is built, so the slice is UTF-8 and this call stays
        // constant-time instead of re-validating ~125 KB per read.
        unsafe { std::str::from_utf8_unchecked(&frame.bytes[frame.text..]) }
    }

    /// The `Digest` reply (`epoch N\n` and the digest text) as one sealed
    /// frame, built on first request. `None` when its payload exceeds
    /// [`wire::MAX_FRAME`]: such a reply cannot be framed, and the server
    /// answers it on its ordinary path, which refuses it with a typed error.
    pub(crate) fn digest_frame(&self) -> Option<&[u8]> {
        let frame = self.digest_built();
        frame.sealed.then_some(&*frame.bytes)
    }

    fn digest_built(&self) -> &DigestFrame {
        self.digest.get_or_init(|| {
            let digest = self.meta.db.debug_state_digest();
            let reply = Reply::Ok(format!("epoch {}\n{digest}", self.epoch));
            let mut bytes = Vec::new();
            wire::begin_frame(&mut bytes);
            reply.encode_into(&mut bytes);
            let sealed = wire::seal_frame(&mut bytes).is_ok();
            debug_assert_eq!(&bytes[bytes.len() - digest.len()..], digest.as_bytes());
            DigestFrame {
                text: bytes.len() - digest.len(),
                bytes: bytes.into_boxed_slice(),
                sealed,
            }
        })
    }
}

/// A snapshot's `Digest` reply frame and where the digest text starts in it.
struct DigestFrame {
    bytes: Box<[u8]>,
    text: usize,
    /// Whether the header is filled in (the payload fits one frame).
    sealed: bool,
}

/// The publication point: one atomic epoch plus the current snapshot.
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: Mutex<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Install the initial snapshot.
    pub fn new(initial: Snapshot) -> SnapshotCell {
        SnapshotCell {
            epoch: AtomicU64::new(initial.epoch),
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// The currently published epoch (cheap, lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new snapshot. The slot is swapped before the epoch is
    /// bumped, so a reader that observes the new epoch always loads the
    /// new snapshot (a reader racing the swap may load the new snapshot
    /// with the old epoch in hand — it simply refreshes once more later,
    /// which is harmless because snapshots are immutable).
    pub fn publish(&self, snapshot: Snapshot) {
        let epoch = snapshot.epoch;
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
        self.epoch.store(epoch, Ordering::Release);
        gom_obs::counter_add("server.epoch.publishes", 1);
        gom_obs::event("epoch.publish", &[("epoch", gom_obs::Field::U64(epoch))]);
    }

    /// Clone the current snapshot handle (brief lock, never blocked by an
    /// open session).
    pub fn load(&self) -> Arc<Snapshot> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A connection's cached view of the published snapshot: the shared
/// immutable `Arc` (all read-only verbs) plus, only for connections that
/// run query/check/lint, a private mutable materialisation.
#[derive(Default)]
pub struct ReaderCache {
    shared: Option<Arc<Snapshot>>,
    /// The private clone together with the snapshot it was cloned from.
    private: Option<(Arc<Snapshot>, MetaModel)>,
}

impl ReaderCache {
    /// Fresh, empty cache.
    pub fn new() -> ReaderCache {
        ReaderCache::default()
    }

    /// The shared immutable snapshot for the current epoch, refreshing
    /// the `Arc` handle if the cell has published since the last call.
    /// Serves digest/stats/metrics without ever building (or refreshing)
    /// the private clone.
    pub fn snapshot(&mut self, cell: &SnapshotCell) -> &Snapshot {
        self.shared(cell)
    }

    /// [`ReaderCache::snapshot`]'s handle itself, which the server clones
    /// to write the snapshot's digest frame after the request is timed.
    pub(crate) fn shared(&mut self, cell: &SnapshotCell) -> &Arc<Snapshot> {
        let current = cell.epoch();
        if self.shared.as_ref().map(|s| s.epoch) != Some(current) {
            self.shared = Some(cell.load());
        }
        match &self.shared {
            Some(s) => s,
            // Unreachable: the branch above always fills the handle.
            None => unreachable!("shared handle refreshed above"),
        }
    }

    /// The private mutable view of the current epoch, refreshed (as a CoW
    /// share of the shared snapshot, then made probe-ready) only when the
    /// cell has published a newer snapshot since the last call. Returns
    /// `(epoch, meta)` with `meta` privately mutable; mutations stay
    /// connection-local until the next epoch refresh discards them.
    pub fn view(&mut self, cell: &SnapshotCell) -> (u64, &mut MetaModel) {
        let (snap, meta) = self.refreshed(cell);
        (snap.epoch, meta)
    }

    /// The rendered violations of the current epoch. Served from the
    /// shared snapshot when any connection already checked this epoch;
    /// otherwise `compute` runs on the private view and its answer is
    /// stored into the snapshot that view was cloned from — which may be
    /// newer than the one looked up first, if the epoch moved in between.
    /// Errors are returned, not stored.
    pub fn check<E>(
        &mut self,
        cell: &SnapshotCell,
        compute: impl FnOnce(&mut MetaModel) -> Result<Vec<String>, E>,
    ) -> Result<Vec<String>, E> {
        if let Some(answer) = self.snapshot(cell).check.get() {
            return Ok(answer.clone());
        }
        let (snap, meta) = self.refreshed(cell);
        if let Some(answer) = snap.check.get() {
            return Ok(answer.clone());
        }
        let answer = compute(meta)?;
        let _ = snap.check.set(answer.clone());
        Ok(answer)
    }

    /// The private clone and the snapshot it came from, refreshed when
    /// the cell's epoch moved past it.
    fn refreshed(&mut self, cell: &SnapshotCell) -> (&Arc<Snapshot>, &mut MetaModel) {
        let current = cell.epoch();
        let stale = !matches!(&self.private, Some((snap, _)) if snap.epoch == current);
        if stale {
            let snap = Arc::clone(self.shared(cell));
            gom_obs::counter_add("server.reader.refreshes", 1);
            let mut meta = snap.meta.snapshot_clone();
            meta.db.prepare_reader();
            self.private = Some((snap, meta));
        }
        match &mut self.private {
            Some((snap, meta)) => (snap, meta),
            // Unreachable: the branch above always fills the cache.
            None => unreachable!("reader cache refreshed above"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn model_with(name: &str) -> MetaModel {
        let mut m = MetaModel::new().expect("meta");
        m.new_schema(name).expect("schema");
        m
    }

    #[test]
    fn publish_bumps_epoch_and_swaps_snapshot() {
        let m0 = model_with("S0");
        let cell = SnapshotCell::new(Snapshot::capture(0, &m0));
        assert_eq!(cell.epoch(), 0);
        let d0 = cell.load().digest().to_string();

        let m1 = model_with("S1");
        cell.publish(Snapshot::capture(1, &m1));
        assert_eq!(cell.epoch(), 1);
        assert_ne!(cell.load().digest(), d0);
    }

    #[test]
    fn reader_cache_refreshes_only_on_epoch_change() {
        let m0 = model_with("S0");
        let cell = SnapshotCell::new(Snapshot::capture(0, &m0));
        let mut cache = ReaderCache::new();
        let (e0, meta) = cache.view(&cell);
        assert_eq!(e0, 0);
        // The private clone is queryable and mutations stay private.
        meta.new_schema("ReaderLocal").expect("schema");
        let (_, meta_again) = cache.view(&cell);
        assert!(
            meta_again.schema_by_name("ReaderLocal").is_some(),
            "no republish, no refresh"
        );

        let m1 = model_with("S1");
        cell.publish(Snapshot::capture(1, &m1));
        let (e1, meta1) = cache.view(&cell);
        assert_eq!(e1, 1);
        // The refresh replaced the private clone (reader-local edits gone).
        assert!(meta1.schema_by_name("ReaderLocal").is_none());
        assert!(meta1.schema_by_name("S1").is_some());
    }

    #[test]
    fn read_only_verbs_never_build_the_private_clone() {
        let m0 = model_with("S0");
        let cell = SnapshotCell::new(Snapshot::capture(0, &m0));
        let mut cache = ReaderCache::new();
        let d = cache.snapshot(&cell).digest().to_string();
        assert!(!d.is_empty());
        assert!(
            cache.private.is_none(),
            "digest served from the shared Arc only"
        );
        // The same shared handle is reused while the epoch stands still.
        let first = Arc::as_ptr(cache.shared.as_ref().unwrap());
        cache.snapshot(&cell);
        assert_eq!(first, Arc::as_ptr(cache.shared.as_ref().unwrap()));
    }

    #[test]
    fn check_answer_is_computed_once_per_epoch() {
        let m0 = model_with("S0");
        let cell = SnapshotCell::new(Snapshot::capture(0, &m0));
        let mut a = ReaderCache::new();
        let mut b = ReaderCache::new();
        let first = a.check(&cell, |_| Ok::<_, ()>(vec!["v0".to_string()]));
        assert_eq!(first, Ok(vec!["v0".to_string()]));
        // Another connection on the same epoch is served the stored answer.
        let served = b.check(&cell, |_| Err(()));
        assert_eq!(served, Ok(vec!["v0".to_string()]));
        let old = cell.load();

        cell.publish(Snapshot::capture(1, &model_with("S1")));
        // A new epoch starts without an answer; errors are not stored.
        assert_eq!(b.check(&cell, |_| Err(())), Err(()));
        let next = b.check(&cell, |_| Ok::<_, ()>(Vec::new()));
        assert_eq!(next, Ok(Vec::new()));
        assert_eq!(a.check(&cell, |_| Err(())), Ok(Vec::new()));
        // The old epoch keeps its own answer.
        assert_eq!(old.check.get(), Some(&vec!["v0".to_string()]));
    }

    #[test]
    fn an_old_arc_stays_consistent_after_publication() {
        let m0 = model_with("S0");
        let cell = SnapshotCell::new(Snapshot::capture(0, &m0));
        let old = cell.load();
        let m1 = model_with("S1");
        cell.publish(Snapshot::capture(1, &m1));
        assert_eq!(old.epoch, 0);
        assert!(old.meta.schema_by_name("S0").is_some());
        assert!(old.meta.schema_by_name("S1").is_none());
    }

    #[test]
    fn digests_of_equal_states_are_bit_identical() {
        // Two independently built models with the same logical content —
        // e.g. a daemon and its post-recovery incarnation — must digest
        // identically even though interning history differs.
        let mut a = MetaModel::new().expect("meta");
        let mut b = MetaModel::new().expect("meta");
        // Different interning order in `b`.
        b.db.intern("zzz_unrelated");
        a.new_schema("S").expect("schema");
        b.new_schema("S").expect("schema");
        // IdGen draws the same fresh ids in both (deterministic), so the
        // logical states coincide.
        let sa = Snapshot::capture(0, &a);
        let sb = Snapshot::capture(0, &b);
        assert_eq!(sa.digest(), sb.digest());
    }

    #[test]
    fn digest_is_lazy_and_stable() {
        let m = model_with("S0");
        let snap = Snapshot::capture(3, &m);
        assert!(snap.digest.get().is_none(), "not computed at capture");
        let d1 = snap.digest().to_string();
        let d2 = snap.digest().to_string();
        assert_eq!(d1, d2);
        // Matches an eager deep-clone digest of the same state.
        assert_eq!(d1, m.snapshot_clone().db.debug_state_digest());
    }
}
