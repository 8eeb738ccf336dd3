//! Chunked, copy-on-write row storage.
//!
//! Rows live flat in fixed-size pages of [`CHUNK_LEN`] rows: one
//! `Vec<Const>` per page, arity-strided, so row `i` of a page is the slice
//! `vals[i * arity..(i + 1) * arity]`. Pages sit behind `Arc`s. Liveness
//! is tracked in parallel pages of booleans, also `Arc`-shared. All pages
//! except the open tail hold exactly `CHUNK_LEN` rows, so a row id maps to
//! its page with a shift and mask.
//!
//! The point of the layout is snapshot publication: [`ChunkStore::share`]
//! produces a second store over the same pages in O(#chunks) `Arc` bumps —
//! no row is copied. Mutation is copy-on-write via `Arc::make_mut`:
//!
//! * `push` touches only the open tail page. The first write after a share
//!   copies that partial page once: one allocation and one memcpy of its
//!   constants, since a page holds no heap object per row,
//! * `tombstone` copies only the touched *liveness* page (booleans), never
//!   the rows, so a writer removing facts under live snapshots stays
//!   cheap,
//! * frozen full pages are never written again until compaction rebuilds
//!   the store densely packed.
//!
//! Dropping the last reference to a page is one free, whatever its row
//! count. Row ids are insertion-ordered and stable until compaction —
//! iteration order, `sorted()` output and state digests of a shared store
//! are bit-identical to a deep clone.
//!
//! [`ChunkStore`] is the only storage backend: stable insertion-ordered
//! row ids, row access, liveness, append, tombstone and an O(#chunks)
//! `share` — everything `Relation` needs.

use crate::tuple::Row;
use crate::value::Const;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the chunk size: 1024 rows per page.
pub(crate) const CHUNK_BITS: usize = 10;
/// Rows per chunk (all chunks but the tail are exactly this long).
pub(crate) const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_LEN - 1;

/// Process-wide count of rows copied by the storage layer (tail-page
/// copy-on-write, compaction of shared pages, bulk loads). Snapshot
/// publication must not move this counter — the CoW tests assert on it.
static TUPLE_COPIES: AtomicU64 = AtomicU64::new(0);

/// Current value of the storage-layer row-copy counter. Debug/test
/// support for proving that an operation (e.g. `snapshot_clone`) performed
/// zero row copies; not part of the stable API.
#[doc(hidden)]
pub fn debug_tuple_copies() -> u64 {
    TUPLE_COPIES.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn note_tuple_copies(n: usize) {
    TUPLE_COPIES.fetch_add(n as u64, Ordering::Relaxed);
}

/// One page of rows, flat and arity-strided. Only the open tail chunk of
/// a store is ever mutated (appends); a shared tail is re-materialised by
/// `Arc::make_mut` through the counting [`Clone`] below.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    vals: Vec<Const>,
    /// Rows in the page (`vals.len() / arity`, kept so that zero-arity
    /// rows are counted too).
    rows: usize,
}

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        note_tuple_copies(self.rows);
        Chunk {
            vals: self.vals.clone(),
            rows: self.rows,
        }
    }
}

/// Liveness page parallel to a [`Chunk`]: one flag per row. Pages are
/// materialised lazily — `None` in the store means "every row live", so
/// relations that never remove pay nothing per push. Tombstoning a row in
/// a frozen page copies this page only — booleans, never rows.
#[derive(Debug, Default, Clone)]
struct LiveMap {
    live: Vec<bool>,
}

/// The in-memory chunked row store (see module docs).
#[derive(Debug, Default)]
pub(crate) struct ChunkStore {
    chunks: Vec<Arc<Chunk>>,
    /// Liveness pages parallel to `chunks`; `None` means all rows live.
    lives: Vec<Option<Arc<LiveMap>>>,
    /// Constants per row, fixed by the first push into an empty store.
    arity: usize,
    /// Total rows including tombstones.
    len: usize,
    /// Tombstoned rows.
    dead: usize,
    /// Emptied page buffers from `clear`/`compact`, reused by `push` so
    /// steady-state re-evaluation allocates no new pages.
    spare_rows: Vec<Vec<Const>>,
    spare_live: Vec<Vec<bool>>,
}

#[inline]
fn split(id: u32) -> (usize, usize) {
    let id = id as usize;
    (id >> CHUNK_BITS, id & CHUNK_MASK)
}

impl ChunkStore {
    /// Iterate `(id, row)` over live rows in insertion order.
    #[inline]
    pub(crate) fn live_rows(&self) -> LiveRows<'_> {
        LiveRows {
            chunks: &self.chunks,
            lives: if self.dead > 0 { &self.lives } else { &[] },
            arity: self.arity,
            next_ci: 0,
            base: 0,
            vals: &[],
            rows: 0,
            live: None,
            off: 0,
        }
    }

    fn open_tail(&mut self) {
        let mut vals = self.spare_rows.pop().unwrap_or_default();
        vals.clear();
        self.chunks.push(Arc::new(Chunk { vals, rows: 0 }));
        self.lives.push(None);
    }

    /// Materialise the liveness page for chunk `ci` (all-true) if absent,
    /// returning a mutable handle (copy-on-write when shared).
    fn live_page(&mut self, ci: usize) -> &mut LiveMap {
        let rows = self.chunks[ci].rows;
        let slot = &mut self.lives[ci];
        if slot.is_none() {
            let mut live = self.spare_live.pop().unwrap_or_default();
            live.clear();
            live.resize(rows, true);
            *slot = Some(Arc::new(LiveMap { live }));
        }
        match slot {
            Some(lm) => {
                let lm = Arc::make_mut(lm);
                // A stale recycled page (or a frozen page grown since the
                // map was made) is topped up to the chunk length.
                if lm.live.len() < rows {
                    lm.live.resize(rows, true);
                }
                lm
            }
            None => unreachable!("liveness page was just materialised"),
        }
    }
    /// Total rows including tombstones (the next append's id).
    #[inline]
    pub(crate) fn len_rows(&self) -> usize {
        self.len
    }

    /// Tombstoned rows.
    #[inline]
    pub(crate) fn dead(&self) -> usize {
        self.dead
    }

    /// Borrow a row by id (valid for tombstoned rows too, until compaction).
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &Row {
        let (ci, off) = split(id);
        let a = self.arity;
        Row::new(&self.chunks[ci].vals[off * a..off * a + a])
    }

    /// Is the row with this id live?
    #[inline]
    pub(crate) fn is_live(&self, id: u32) -> bool {
        if self.dead == 0 {
            return true;
        }
        let (ci, off) = split(id);
        match &self.lives[ci] {
            None => true,
            Some(lm) => lm.live.get(off).copied().unwrap_or(true),
        }
    }

    /// Append a row, returning its id (`len_rows` before the call).
    ///
    /// # Panics
    /// Panics when `vals` does not have the arity of the rows already
    /// stored: a relation holds the facts of one predicate.
    pub(crate) fn push(&mut self, vals: &[Const]) -> u32 {
        if self.len == 0 {
            self.arity = vals.len();
        }
        assert_eq!(vals.len(), self.arity, "row arity differs from the store's");
        if self.len & CHUNK_MASK == 0 {
            self.open_tail();
        }
        let ci = self.chunks.len() - 1;
        let tail = Arc::make_mut(&mut self.chunks[ci]);
        tail.vals.extend_from_slice(vals);
        tail.rows += 1;
        let id = self.len as u32;
        self.len += 1;
        id
    }

    /// Mark a row dead. The row stays addressable until compaction.
    pub(crate) fn tombstone(&mut self, id: u32) {
        let (ci, off) = split(id);
        let lm = self.live_page(ci);
        if std::mem::replace(&mut lm.live[off], false) {
            self.dead += 1;
        }
    }

    /// A second store over the same pages: O(#chunks) `Arc` bumps, zero
    /// row copies. Writes to either store copy-on-write the touched page.
    pub(crate) fn share(&self) -> ChunkStore {
        ChunkStore {
            chunks: self.chunks.clone(),
            lives: self.lives.clone(),
            arity: self.arity,
            len: self.len,
            dead: self.dead,
            spare_rows: Vec::new(),
            spare_live: Vec::new(),
        }
    }

    /// Drop all rows. Shared pages are released, not copied; the buffers
    /// of uniquely-owned pages are kept for the next pushes.
    pub(crate) fn clear(&mut self) {
        for chunk in self.chunks.drain(..) {
            if let Ok(c) = Arc::try_unwrap(chunk) {
                self.spare_rows.push(c.vals);
            }
        }
        for lm in self.lives.drain(..).flatten() {
            if let Ok(l) = Arc::try_unwrap(lm) {
                self.spare_live.push(l.live);
            }
        }
        self.len = 0;
        self.dead = 0;
    }

    /// Pre-size for about `n` total rows.
    pub(crate) fn reserve(&mut self, n: usize) {
        if n <= self.len {
            return;
        }
        // Size the tail page for the rows that will land in it; later rows
        // open fresh pages, which allocate on demand. Only uniquely-owned
        // tails are touched — reserving is not worth a page copy.
        if let Some(tail) = self.chunks.last_mut() {
            if let Some(c) = Arc::get_mut(tail) {
                let want = (c.rows + (n - self.len)).min(CHUNK_LEN) * self.arity;
                c.vals.reserve(want.saturating_sub(c.vals.len()));
            }
        }
        let pages = n.div_ceil(CHUNK_LEN);
        self.chunks.reserve(pages.saturating_sub(self.chunks.len()));
        self.lives.reserve(pages.saturating_sub(self.lives.len()));
    }

    /// Rebuild densely packed (drop tombstones, renumber ids in live
    /// order). Rows of a page a snapshot still references are counted as
    /// copies; uniquely-owned pages are recycled as the new pages fill.
    pub(crate) fn compact(&mut self) {
        let chunks = std::mem::take(&mut self.chunks);
        let lives = std::mem::take(&mut self.lives);
        let a = self.arity;
        self.len = 0;
        self.dead = 0;
        for (chunk, lm) in chunks.into_iter().zip(lives) {
            let alive = |off: usize| match &lm {
                None => true,
                Some(l) => l.live.get(off).copied().unwrap_or(true),
            };
            let mut kept = 0;
            for off in (0..chunk.rows).filter(|&off| alive(off)) {
                self.push(&chunk.vals[off * a..off * a + a]);
                kept += 1;
            }
            match Arc::try_unwrap(chunk) {
                Ok(c) => self.spare_rows.push(c.vals),
                Err(_) => note_tuple_copies(kept),
            }
            if let Some(Ok(l)) = lm.map(Arc::try_unwrap) {
                self.spare_live.push(l.live);
            }
        }
    }
}

/// Iterator over `(id, row)` pairs of live rows, in insertion order.
/// Iterates one cached page at a time; a store with no tombstones (the
/// common case) skips liveness checks entirely.
pub(crate) struct LiveRows<'a> {
    chunks: &'a [Arc<Chunk>],
    /// Empty when the store has no tombstones — liveness is not consulted.
    lives: &'a [Option<Arc<LiveMap>>],
    arity: usize,
    /// Next chunk to load into the cached page fields below.
    next_ci: usize,
    /// Row id of the current page's first row.
    base: u32,
    vals: &'a [Const],
    rows: usize,
    /// Liveness slice for the current page; `None` = all rows live.
    live: Option<&'a [bool]>,
    off: usize,
}

impl<'a> Iterator for LiveRows<'a> {
    type Item = (u32, &'a Row);

    fn next(&mut self) -> Option<(u32, &'a Row)> {
        loop {
            if self.off >= self.rows {
                let chunk = self.chunks.get(self.next_ci)?;
                self.vals = &chunk.vals;
                self.rows = chunk.rows;
                self.live = self
                    .lives
                    .get(self.next_ci)
                    .and_then(|lm| lm.as_ref())
                    .map(|lm| lm.live.as_slice());
                self.base = (self.next_ci << CHUNK_BITS) as u32;
                self.next_ci += 1;
                self.off = 0;
                continue;
            }
            let off = self.off;
            self.off += 1;
            let alive = match self.live {
                None => true,
                Some(l) => l.get(off).copied().unwrap_or(true),
            };
            if alive {
                let a = self.arity;
                let row = Row::new(&self.vals[off * a..off * a + a]);
                return Some((self.base | off as u32, row));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> [Const; 1] {
        [Const::Int(x)]
    }

    #[test]
    fn push_and_row_across_chunk_boundary() {
        let mut s = ChunkStore::default();
        let n = CHUNK_LEN + 7;
        for i in 0..n {
            assert_eq!(s.push(&t(i as i64)), i as u32);
        }
        assert_eq!(s.len_rows(), n);
        assert_eq!(
            s.row((CHUNK_LEN - 1) as u32).as_slice(),
            &t((CHUNK_LEN - 1) as i64)
        );
        assert_eq!(s.row(CHUNK_LEN as u32).as_slice(), &t(CHUNK_LEN as i64));
        assert_eq!(s.live_rows().count(), n);
    }

    #[test]
    fn share_is_copy_free_and_isolated() {
        let mut s = ChunkStore::default();
        for i in 0..(CHUNK_LEN + 10) {
            s.push(&t(i as i64));
        }
        let before = debug_tuple_copies();
        let shared = s.share();
        assert_eq!(debug_tuple_copies() - before, 0, "share must not copy");

        // Writer mutates: tombstone copies booleans only, push CoWs the
        // partial tail page (bounded by one page of tuples).
        s.tombstone(3);
        assert!(shared.is_live(3), "snapshot unaffected by tombstone");
        s.push(&t(-1));
        assert_eq!(shared.len_rows(), CHUNK_LEN + 10);
        assert_eq!(s.len_rows(), CHUNK_LEN + 11);
        let ids: Vec<u32> = shared.live_rows().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), CHUNK_LEN + 10);
    }

    #[test]
    fn tombstone_never_copies_tuples() {
        let mut s = ChunkStore::default();
        for i in 0..(2 * CHUNK_LEN) {
            s.push(&t(i as i64));
        }
        let _snap = s.share();
        let before = debug_tuple_copies();
        s.tombstone(5); // frozen first page: CoWs the liveness map only
        assert_eq!(debug_tuple_copies() - before, 0);
        assert!(!s.is_live(5));
        assert_eq!(s.dead(), 1);
    }

    #[test]
    fn compact_renumbers_and_preserves_order() {
        let mut s = ChunkStore::default();
        for i in 0..10 {
            s.push(&t(i));
        }
        s.tombstone(0);
        s.tombstone(4);
        s.compact();
        assert_eq!(s.len_rows(), 8);
        assert_eq!(s.dead(), 0);
        let got: Vec<i64> = s
            .live_rows()
            .map(|(_, t)| match t.get(0) {
                Const::Int(n) => n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2, 3, 5, 6, 7, 8, 9]);
    }
}
