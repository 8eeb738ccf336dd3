//! Fact storage for one predicate, with incrementally maintained hash
//! indexes.
//!
//! Rows are stored **once**, flat in insertion-ordered copy-on-write pages
//! ([`crate::storage::ChunkStore`]); the membership table and every index
//! are postings lists mapping a 64-bit key hash to compact `u32` row ids.
//! Indexes are created once (eagerly by the evaluator, which knows every
//! bound-column mask from the compiled plans, see [`crate::compile`]) and
//! afterwards **maintained in place** by `insert`/`remove`: an insert
//! costs one hash-and-push per index, with no per-row or per-key
//! allocations — the fixpoint loop mutates derived relations every round,
//! so this is the engine's hottest write path. Lookups return *borrowed*
//! rows ([`Row`]) and verify the key columns per candidate (hash
//! collisions are possible, exact matches are not assumed).
//!
//! Iteration order is insertion order with removed rows skipped, so any
//! deterministic insertion sequence yields deterministic scans — the
//! evaluator relies on this (see [`crate::eval`]).
//!
//! Snapshot publication uses [`Relation::share`]: the chunk pages are
//! `Arc`-bumped instead of copied, the membership table and indexes are
//! dropped (index contents depend on query history; an index-free view
//! gives every snapshot of equal facts an identical state digest), and the
//! table is lazily rebuilt on the share's first mutation. Read-only probes
//! on an unsynced share fall back to a live-row scan, so shares are always
//! correct even before any rebuild.

use crate::storage::{note_tuple_copies, ChunkStore, LiveRows};
use crate::symbol::FxHashMap;
use crate::tuple::{Row, Tuple};
use crate::value::Const;
use std::collections::hash_map::Entry;

/// Ids of the rows whose key projection hashes to one value. Almost every
/// hash has exactly one row (collisions and duplicate keys are rare for
/// membership tables; index buckets are small), so the single-id case is
/// stored inline — postings inserts then allocate nothing.
#[derive(Debug, Clone)]
enum Ids {
    One(u32),
    Many(Vec<u32>),
}

impl Ids {
    fn as_slice(&self) -> &[u32] {
        match self {
            Ids::One(x) => std::slice::from_ref(x),
            Ids::Many(v) => v,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            Ids::One(x) => *self = Ids::Many(vec![*x, id]),
            Ids::Many(v) => v.push(id),
        }
    }

    /// Ids are unique within a bucket, so the search may start at either
    /// end. It starts at the back: the row removed is most often one
    /// appended shortly before (DRed's phase-1 flip re-inserts a deleted
    /// fact and takes it out again; a session removes what it added), and a
    /// large bucket such as an attribute-domain posting is not walked.
    fn remove_id(&mut self, id: u32) {
        match self {
            Ids::One(x) if *x == id => *self = Ids::Many(Vec::new()),
            Ids::One(_) => {}
            Ids::Many(v) => {
                if let Some(pos) = v.iter().rposition(|&x| x == id) {
                    v.swap_remove(pos);
                }
            }
        }
    }
}

/// Key hash → ids of the rows whose projection hashes to it.
type Postings = FxHashMap<u64, Ids>;

fn push_posting(map: &mut Postings, kh: u64, id: u32) {
    match map.entry(kh) {
        Entry::Occupied(mut e) => e.get_mut().push(id),
        Entry::Vacant(e) => {
            e.insert(Ids::One(id));
        }
    }
}

/// Slot id sentinel: empty slot.
const EMPTY: u32 = u32::MAX;
/// Slot id sentinel: tombstone left by a removal.
const TOMB: u32 = u32::MAX - 1;

/// The membership table: open addressing with linear probing over packed
/// `(tuple hash, row id)` slots. Purpose-built for the fixpoint insert
/// path, which probes this once per derived fact: slots are 16 bytes (a
/// general-purpose map entry holding a postings value is 2-3x larger), a
/// miss inserts in the same probe sequence, and growth moves plain pairs
/// without touching tuples. Equality on hash hits is delegated to the
/// caller, which owns the row storage.
#[derive(Debug, Clone, Default)]
struct RawTable {
    slots: Vec<(u64, u32)>,
    /// Live entries.
    len: usize,
    /// Occupied slots including tombstones (load-factor accounting).
    used: usize,
}

impl RawTable {
    /// Probe for an existing row with hash `h` (confirmed by `eq`); when
    /// none matches, claim a slot for `id` and return `None`.
    fn insert_or_get(&mut self, h: u64, id: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if (self.used + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        let mut free: Option<usize> = None;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == EMPTY {
                let slot = free.unwrap_or(i);
                if self.slots[slot].1 == EMPTY {
                    self.used += 1;
                }
                self.slots[slot] = (h, id);
                self.len += 1;
                return None;
            }
            if sid == TOMB {
                free.get_or_insert(i);
            } else if sh == h && eq(sid) {
                return Some(sid);
            }
            i = (i + 1) & mask;
        }
    }

    /// Claim a slot for a row known not to be present — no equality
    /// probing, no duplicate check. Bulk loads of already-deduplicated rows
    /// (table rebuilds after a share, `without_indexes`) use this to skip
    /// the per-tuple comparison path entirely.
    fn insert_new(&mut self, h: u64, id: u32) {
        if (self.used + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let sid = self.slots[i].1;
            if sid >= TOMB {
                if sid == EMPTY {
                    self.used += 1;
                }
                self.slots[i] = (h, id);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// The row with hash `h` for which `eq` holds, if any.
    fn find(&self, h: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == EMPTY {
                return None;
            }
            if sid != TOMB && sh == h && eq(sid) {
                return Some(sid);
            }
            i = (i + 1) & mask;
        }
    }

    /// Prefetch the first slot line a probe for `h` would read.
    #[inline]
    fn prefetch(&self, h: u64) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            let i = (h as usize) & (self.slots.len() - 1);
            // SAFETY: `i` is in bounds; prefetch has no side effects.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    self.slots.as_ptr().add(i) as *const i8,
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = h;
    }

    /// Tombstone the slot holding (`h`, `id`).
    fn remove(&mut self, h: u64, id: u32) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == EMPTY {
                return;
            }
            if sid != TOMB && sh == h && sid == id {
                self.slots[i].1 = TOMB;
                self.len -= 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.used = 0;
    }

    /// Empty the table while keeping the slot array allocated, for the
    /// relation-recycling path.
    fn reset(&mut self) {
        self.slots.fill((0, EMPTY));
        self.len = 0;
        self.used = 0;
    }

    /// Pre-size the slot array for about `n` live entries, respecting the
    /// 7/8 load factor. One rebuild now instead of log₂(n) doublings (and
    /// their rehashes) spread across the insert path.
    fn reserve(&mut self, n: usize) {
        let needed = ((n * 8).div_ceil(7) + 1).next_power_of_two().max(16);
        if needed > self.slots.len() {
            self.rebuild(needed);
        }
    }

    /// Double the slot array (min 16), dropping tombstones.
    fn grow(&mut self) {
        self.rebuild((self.slots.len() * 2).max(16));
    }

    /// Re-seat every live entry into a slot array of capacity `cap` (a
    /// power of two, larger than the current one).
    fn rebuild(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); cap]);
        let mask = cap - 1;
        for (sh, sid) in old {
            if sid >= TOMB {
                continue;
            }
            let mut i = (sh as usize) & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (sh, sid);
        }
        self.used = self.len;
    }
}

/// FxHash-style multiply-xor fold, one round per constant. Hand-rolled
/// rather than going through the `Hasher` trait: the derived `Hash` for
/// [`Const`] feeds discriminant and payload as separate hasher writes
/// (two multiply rounds per constant), and this fold runs once per
/// derivation in the fixpoint's membership probe — the engine's single
/// hottest instruction sequence.
#[inline]
pub(crate) fn hash_vals(vals: impl Iterator<Item = Const>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    // Arbitrary salt separating `Sym(x)` from `Int(x)` without a second
    // round; collisions are harmless (buckets verify by value).
    const SYM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0;
    for v in vals {
        let x = match v {
            Const::Sym(s) => s.index() as u64 ^ SYM_SALT,
            Const::Int(i) => i as u64,
        };
        h = (h.rotate_left(5) ^ x).wrapping_mul(K);
    }
    h
}

/// The set of facts currently stored (or derived) for one predicate.
///
/// Cloning preserves the membership table and indexes while sharing the
/// row pages copy-on-write, so snapshots taken by incremental maintenance
/// (DRed) keep their lookup structures without copying a single row.
#[derive(Default, Debug)]
pub struct Relation {
    /// Insertion-ordered rows in CoW chunks; removal tombstones instead of
    /// shifting.
    store: ChunkStore,
    /// Full-tuple hash → row id, open-addressed (the membership table).
    table: RawTable,
    /// Set when the table lags the store: [`Relation::share`] drops the
    /// table to keep publication O(#chunks). Mutating entry points rebuild
    /// it first; read-only probes fall back to a live-row scan.
    table_stale: bool,
    /// Sorted column positions → index postings, maintained on mutation.
    indexes: FxHashMap<Box<[usize]>, Postings>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            store: self.store.share(),
            table: self.table.clone(),
            table_stale: self.table_stale,
            indexes: self.indexes.clone(),
        }
    }
}

impl Relation {
    /// Empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.store.len_rows() - self.store.dead()
    }

    /// True when no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find_id(&self, t: &Row) -> Option<u32> {
        if self.table_stale {
            return self
                .store
                .live_rows()
                .find_map(|(id, r)| (r == t).then_some(id));
        }
        let h = hash_vals(t.iter());
        self.table.find(h, |id| self.store.row(id) == t)
    }

    /// Borrow a row by its id. Ids are only valid until the next removal
    /// (compaction renumbers); the evaluator uses them within one fixpoint.
    pub(crate) fn row(&self, id: u32) -> &Row {
        self.store.row(id)
    }

    /// Membership test.
    pub fn contains(&self, t: &Row) -> bool {
        self.find_id(t).is_some()
    }

    /// Membership test on a sequence of constants, without materialising a
    /// tuple (zero-allocation negation checks in the evaluator).
    pub fn contains_vals<I>(&self, vals: I) -> bool
    where
        I: Iterator<Item = Const> + Clone,
    {
        if self.table_stale {
            return self
                .store
                .live_rows()
                .any(|(_, r)| r.iter().eq(vals.clone()));
        }
        let h = hash_vals(vals.clone());
        self.table
            .find(h, |id| self.store.row(id).iter().eq(vals.clone()))
            .is_some()
    }

    /// Rebuild the membership table when it lags the store (after a
    /// [`Self::share`]). Rows in the store are already deduplicated, so the
    /// rebuild claims slots without equality probes. No-op when synced.
    pub(crate) fn ensure_table(&mut self) {
        if !self.table_stale {
            return;
        }
        self.table.clear();
        self.table.reserve(self.len());
        for (id, t) in self.store.live_rows() {
            self.table.insert_new(hash_vals(t.iter()), id);
        }
        self.table_stale = false;
    }

    /// Insert a fact. Returns `true` when the fact was new. All existing
    /// indexes are updated in place.
    pub fn insert(&mut self, t: &Row) -> bool {
        let vals = t.as_slice();
        self.insert_vals(Self::fact_hash(vals), vals).is_some()
    }

    /// The membership hash of a fact, reusable with [`Self::insert_vals`]
    /// so the evaluator's flush can batch-hash a round of derivations and
    /// prefetch their probe slots ahead of the inserts.
    pub(crate) fn fact_hash(t: &[Const]) -> u64 {
        hash_vals(t.iter().copied())
    }

    /// Reset to empty while keeping every allocation: the slot array, the
    /// index postings maps and the row pages. Re-evaluation after a cache
    /// invalidation then runs nearly allocation-free.
    pub(crate) fn recycle(&mut self) {
        self.table.reset();
        self.table_stale = false;
        for map in self.indexes.values_mut() {
            map.clear();
        }
        self.store.clear();
    }

    /// Pre-size row storage and the membership table for about `n` facts.
    /// Called by the evaluator with the previous fixpoint's relation sizes:
    /// re-evaluation converges to a similar extension, so sizing up front
    /// removes incremental growth and rehashing from the insert path.
    pub fn reserve(&mut self, n: usize) {
        self.store.reserve(n);
        self.table.reserve(n);
    }

    /// Insert a fact given as a constant slice with its precomputed
    /// [`Self::fact_hash`], returning its row id when it was new (`None`
    /// for duplicates; the evaluator stages row ids as its per-round
    /// deltas). Duplicate derivations cost one probe and nothing else; a
    /// new fact is appended to the tail page.
    pub(crate) fn insert_vals(&mut self, h: u64, vals: &[Const]) -> Option<u32> {
        self.ensure_table();
        let id = self.store.len_rows() as u32;
        let store = &self.store;
        if self
            .table
            .insert_or_get(h, id, |i| store.row(i).as_slice() == vals)
            .is_some()
        {
            return None;
        }
        for (cols, map) in self.indexes.iter_mut() {
            let kh = hash_vals(cols.iter().map(|&c| vals[c]));
            push_posting(map, kh, id);
        }
        self.store.push(vals);
        Some(id)
    }

    /// Hint the cache to load the membership slot that a probe for hash
    /// `h` will touch first. Purely advisory; a no-op off x86-64.
    #[inline]
    pub(crate) fn prefetch_slot(&self, h: u64) {
        self.table.prefetch(h);
    }

    /// Remove a fact. Returns `true` when the fact was present. All existing
    /// indexes are updated in place. Tombstoning copies only the touched
    /// liveness page when the store is shared with a snapshot — never the
    /// rows.
    pub fn remove(&mut self, t: &Row) -> bool {
        self.ensure_table();
        let Some(id) = self.find_id(t) else {
            return false;
        };
        let h = hash_vals(t.iter());
        self.table.remove(h, id);
        for (cols, map) in self.indexes.iter_mut() {
            let kh = hash_vals(cols.iter().map(|&c| t.get(c)));
            if let Some(ids) = map.get_mut(&kh) {
                ids.remove_id(id);
            }
        }
        self.store.tombstone(id);
        if self.store.dead() > 32 && self.store.dead() * 2 > self.store.len_rows() {
            self.compact();
        }
        true
    }

    /// Drop tombstoned rows and rebuild the table and index postings.
    /// Live rows are repacked into fresh pages; a snapshot still holding
    /// the old pages keeps its own view.
    fn compact(&mut self) {
        self.store.compact();
        self.table.clear();
        self.table.reserve(self.len());
        for (id, t) in self.store.live_rows() {
            self.table.insert_new(hash_vals(t.iter()), id);
        }
        self.table_stale = false;
        for (cols, map) in self.indexes.iter_mut() {
            map.clear();
            for (id, t) in self.store.live_rows() {
                let kh = hash_vals(cols.iter().map(|&c| t.get(c)));
                push_posting(map, kh, id);
            }
        }
    }

    /// Iterate over all facts in insertion order, borrowed.
    pub fn iter(&self) -> impl Iterator<Item = &Row> + '_ {
        self.store.live_rows().map(|(_, t)| t)
    }

    /// Share this relation's pages into a new relation with no membership
    /// table and no indexes: O(#chunks) `Arc` bumps, zero row copies.
    /// Snapshot publication uses this — index contents depend on query
    /// history, so an index-free view gives every snapshot of equal facts
    /// an identical state digest, and iteration order is bit-identical to
    /// the source. The share rebuilds its membership table lazily on first
    /// mutation.
    pub(crate) fn share(&self) -> Relation {
        Relation {
            store: self.store.share(),
            table: RawTable::default(),
            // An empty store needs no rebuild; anything else syncs lazily.
            table_stale: self.store.len_rows() > 0,
            indexes: FxHashMap::default(),
        }
    }

    /// Deep-copy the live facts into a fresh relation with no indexes, no
    /// tombstones, and no shared pages. Rows are already deduplicated, so
    /// the bulk load claims membership slots without per-tuple equality
    /// probes. Recovery replay and differential oracles use this; snapshot
    /// publication shares pages via [`Self::share`] instead.
    pub fn without_indexes(&self) -> Relation {
        let mut out = Relation::new();
        out.reserve(self.len());
        for (_, t) in self.store.live_rows() {
            let h = hash_vals(t.iter());
            note_tuple_copies(1);
            let id = out.store.push(t.as_slice());
            out.table.insert_new(h, id);
        }
        out
    }

    /// All facts, sorted, for deterministic output.
    pub fn sorted(&self) -> Vec<Tuple> {
        // Decorate-sort-undecorate: rows order lexicographically, so an
        // inline copy of the first two constants (`None` marks "past the
        // end", which sorts first, matching slice order for short rows)
        // decides almost every comparison without dereferencing the page;
        // ties on the prefix fall back to the full comparison.
        let mut v: Vec<(Option<Const>, Option<Const>, &Row)> = self
            .iter()
            .map(|t| (t.iter().next(), t.iter().nth(1), t))
            .collect();
        v.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| a.2.cmp(b.2)));
        v.into_iter().map(|(_, _, t)| t.to_tuple()).collect()
    }

    /// Deterministic dump of every maintained index: for each column set,
    /// the live tuples reachable through its posting buckets, sorted.
    /// Debug/test support for state-equality assertions (e.g. proving that
    /// a session rollback restores the indexes, not just the rows).
    #[doc(hidden)]
    pub fn index_dump(&self) -> Vec<(Vec<usize>, Vec<Tuple>)> {
        let mut out: Vec<(Vec<usize>, Vec<Tuple>)> = self
            .indexes
            .iter()
            .map(|(cols, map)| {
                let mut tuples: Vec<Tuple> = map
                    .values()
                    .flat_map(|ids| ids.as_slice().iter().copied())
                    .filter(|&id| self.store.is_live(id))
                    .map(|id| self.store.row(id).to_tuple())
                    .collect();
                tuples.sort_unstable();
                (cols.to_vec(), tuples)
            })
            .collect();
        out.sort();
        out
    }

    /// Build the index on the given column positions if it does not exist
    /// yet (`cols` must be sorted and non-empty). The evaluator calls this
    /// for every bound-column mask occurring in the compiled plans before
    /// running them, so plan execution hits ready indexes.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if self.indexes.contains_key(cols) {
            return;
        }
        let mut map = Postings::default();
        for (id, t) in self.store.live_rows() {
            let kh = hash_vals(cols.iter().map(|&c| t.get(c)));
            push_posting(&mut map, kh, id);
        }
        self.indexes.insert(cols.into(), map);
    }

    /// Bucket lookup on an existing index: the tuples whose projection on
    /// `cols` (sorted positions) equals `key`. Returns `None` when no index
    /// on `cols` exists — callers fall back to a filtered scan. The
    /// iterator verifies the key columns per candidate, so hash collisions
    /// never surface.
    #[inline]
    pub fn bucket<'a>(&'a self, cols: &'a [usize], key: &'a [Const]) -> Option<BucketIter<'a>> {
        Some(self.index_ref(cols)?.bucket(cols, key))
    }

    /// Resolve the index on `cols` once; repeated bucket probes through the
    /// returned handle skip the per-call column-set lookup (the plan
    /// executor probes once per outer tuple of a join).
    #[inline]
    pub fn index_ref(&self, cols: &[usize]) -> Option<IndexRef<'_>> {
        Some(IndexRef {
            store: &self.store,
            map: self.indexes.get(cols)?,
        })
    }

    /// All facts matching the given bound columns, borrowed.
    ///
    /// With an empty binding this iterates the whole fact set; with a bound
    /// set matching an existing index it walks one postings list; otherwise
    /// it falls back to a filtered scan (still zero-copy).
    pub fn select(&self, bound: &[(usize, Const)]) -> Matches<'_> {
        if bound.is_empty() {
            return Matches(MatchesInner::All {
                it: self.store.live_rows(),
            });
        }
        let mut pairs: Vec<(usize, Const)> = bound.to_vec();
        pairs.sort_unstable_by_key(|&(c, _)| c);
        let cols: Vec<usize> = pairs.iter().map(|&(c, _)| c).collect();
        if let Some(map) = self.indexes.get(cols.as_slice()) {
            let kh = hash_vals(pairs.iter().map(|&(_, v)| v));
            let ids = map.get(&kh).map(Ids::as_slice).unwrap_or(&[]);
            return Matches(MatchesInner::Ids {
                store: &self.store,
                ids: ids.iter(),
                bound: pairs,
            });
        }
        // No exact index: walk the bucket of the largest index covering a
        // *subset* of the bound columns and post-filter the rest (the `Ids`
        // iterator re-checks every bound pair anyway). Meta-layer lookups
        // often bind more columns than the plan-driven index masks cover —
        // e.g. Attr by (type, name) with only a (type,) index present — and
        // a bucket walk is O(bucket) where the filter scan is O(rows).
        let mut best: Option<(&[usize], &Postings)> = None;
        for (k, m) in &self.indexes {
            let covered = k.iter().all(|c| cols.contains(c));
            let better = best.is_none_or(|(bk, _)| {
                k.len() > bk.len() || (k.len() == bk.len() && k.as_ref() < bk)
            });
            if covered && better {
                best = Some((k, m));
            }
        }
        if let Some((sub, map)) = best {
            let kh = hash_vals(sub.iter().map(|&c| {
                pairs
                    .iter()
                    .find(|&&(pc, _)| pc == c)
                    .map(|&(_, v)| v)
                    .expect("subset column is bound")
            }));
            let ids = map.get(&kh).map(Ids::as_slice).unwrap_or(&[]);
            return Matches(MatchesInner::Ids {
                store: &self.store,
                ids: ids.iter(),
                bound: pairs,
            });
        }
        Matches(MatchesInner::Filter {
            it: self.store.live_rows(),
            bound: pairs,
        })
    }

    /// Drop all facts (and index contents).
    pub fn clear(&mut self) {
        self.store.clear();
        self.table.clear();
        self.table_stale = false;
        for map in self.indexes.values_mut() {
            map.clear();
        }
    }
}

/// A resolved index on one relation (see [`Relation::index_ref`]).
#[derive(Clone, Copy)]
pub struct IndexRef<'a> {
    store: &'a ChunkStore,
    map: &'a Postings,
}

impl<'a> IndexRef<'a> {
    /// As [`Relation::bucket`], with the column-set lookup already done.
    #[inline]
    pub fn bucket(self, cols: &'a [usize], key: &'a [Const]) -> BucketIter<'a> {
        let ids = self
            .map
            .get(&hash_vals(key.iter().copied()))
            .map(Ids::as_slice)
            .unwrap_or(&[]);
        BucketIter {
            store: self.store,
            ids: ids.iter(),
            cols,
            key,
        }
    }
}

/// Borrowed iterator over one index bucket (see [`Relation::bucket`]).
pub struct BucketIter<'a> {
    store: &'a ChunkStore,
    ids: std::slice::Iter<'a, u32>,
    cols: &'a [usize],
    key: &'a [Const],
}

impl<'a> Iterator for BucketIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        for &id in self.ids.by_ref() {
            let t = self.store.row(id);
            if self.cols.iter().zip(self.key).all(|(&c, &k)| t.get(c) == k) {
                return Some(t);
            }
        }
        None
    }
}

/// Borrowed iterator over the facts matching a [`Relation::select`] call.
pub struct Matches<'a>(MatchesInner<'a>);

enum MatchesInner<'a> {
    All {
        it: LiveRows<'a>,
    },
    Ids {
        store: &'a ChunkStore,
        ids: std::slice::Iter<'a, u32>,
        bound: Vec<(usize, Const)>,
    },
    Filter {
        it: LiveRows<'a>,
        bound: Vec<(usize, Const)>,
    },
}

impl<'a> Iterator for Matches<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        match &mut self.0 {
            MatchesInner::All { it } => it.next().map(|(_, t)| t),
            MatchesInner::Ids { store, ids, bound } => {
                for &id in ids.by_ref() {
                    let t = store.row(id);
                    if bound.iter().all(|&(c, v)| t.get(c) == v) {
                        return Some(t);
                    }
                }
                None
            }
            MatchesInner::Filter { it, bound } => {
                for (_, t) in it.by_ref() {
                    if bound.iter().all(|&(c, v)| t.get(c) == v) {
                        return Some(t);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::debug_tuple_copies;

    fn t(xs: &[i64]) -> Tuple {
        Tuple::from(xs.iter().map(|&x| Const::Int(x)).collect::<Vec<_>>())
    }

    fn hits(r: &Relation, bound: &[(usize, Const)]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = r.select(bound).map(Row::to_tuple).collect();
        v.sort();
        v
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new();
        assert!(r.insert(&t(&[1, 2])));
        assert!(!r.insert(&t(&[1, 2])));
        assert!(r.contains(&t(&[1, 2])));
        assert!(r.contains_vals([Const::Int(1), Const::Int(2)].into_iter()));
        assert!(!r.contains_vals([Const::Int(2), Const::Int(1)].into_iter()));
        assert!(r.remove(&t(&[1, 2])));
        assert!(!r.remove(&t(&[1, 2])));
        assert!(r.is_empty());
    }

    #[test]
    fn select_with_empty_binding_scans_all() {
        let mut r = Relation::new();
        r.insert(&t(&[1, 2]));
        r.insert(&t(&[3, 4]));
        assert_eq!(r.select(&[]).count(), 2);
    }

    #[test]
    fn select_uses_bound_columns_without_index() {
        let mut r = Relation::new();
        r.insert(&t(&[1, 2]));
        r.insert(&t(&[1, 3]));
        r.insert(&t(&[2, 3]));
        assert_eq!(r.select(&[(0, Const::Int(1))]).count(), 2);
        assert_eq!(
            hits(&r, &[(0, Const::Int(1)), (1, Const::Int(3))]),
            vec![t(&[1, 3])]
        );
    }

    #[test]
    fn index_maintained_across_mutations() {
        let mut r = Relation::new();
        r.insert(&t(&[1, 2]));
        r.ensure_index(&[0]);
        assert_eq!(r.select(&[(0, Const::Int(1))]).count(), 1);
        r.insert(&t(&[1, 9]));
        assert_eq!(r.select(&[(0, Const::Int(1))]).count(), 2);
        r.remove(&t(&[1, 2]));
        assert_eq!(hits(&r, &[(0, Const::Int(1))]), vec![t(&[1, 9])]);
        // bucket access agrees
        assert_eq!(r.bucket(&[0], &[Const::Int(1)]).unwrap().count(), 1);
        assert_eq!(r.bucket(&[0], &[Const::Int(7)]).unwrap().count(), 0);
        assert!(r.bucket(&[1], &[Const::Int(9)]).is_none());
    }

    #[test]
    fn clone_preserves_indexes() {
        let mut r = Relation::new();
        r.insert(&t(&[1, 2]));
        r.ensure_index(&[0]);
        let mut c = r.clone();
        c.insert(&t(&[1, 5]));
        assert_eq!(c.bucket(&[0], &[Const::Int(1)]).unwrap().count(), 2);
        // original untouched
        assert_eq!(r.bucket(&[0], &[Const::Int(1)]).unwrap().count(), 1);
    }

    #[test]
    fn multi_column_index() {
        let mut r = Relation::new();
        r.insert(&t(&[1, 2, 3]));
        r.insert(&t(&[1, 2, 4]));
        r.insert(&t(&[1, 5, 3]));
        r.ensure_index(&[0, 1]);
        assert_eq!(
            hits(&r, &[(1, Const::Int(2)), (0, Const::Int(1))]),
            vec![t(&[1, 2, 3]), t(&[1, 2, 4])]
        );
    }

    #[test]
    fn clear_empties_indexes() {
        let mut r = Relation::new();
        r.insert(&t(&[1]));
        r.ensure_index(&[0]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.bucket(&[0], &[Const::Int(1)]).unwrap().count(), 0);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new();
        r.insert(&t(&[3]));
        r.insert(&t(&[1]));
        r.insert(&t(&[2]));
        assert_eq!(r.sorted(), vec![t(&[1]), t(&[2]), t(&[3])]);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut r = Relation::new();
        r.insert(&t(&[3]));
        r.insert(&t(&[1]));
        r.insert(&t(&[2]));
        r.remove(&t(&[1]));
        let got: Vec<Tuple> = r.iter().map(Row::to_tuple).collect();
        assert_eq!(got, vec![t(&[3]), t(&[2])]);
    }

    #[test]
    fn compaction_preserves_contents_and_indexes() {
        let mut r = Relation::new();
        r.ensure_index(&[0]);
        for i in 0..100 {
            r.insert(&t(&[i, i + 1]));
        }
        for i in 0..80 {
            r.remove(&t(&[i, i + 1]));
        }
        assert_eq!(r.len(), 20);
        for i in 80..100 {
            assert!(r.contains(&t(&[i, i + 1])));
            assert_eq!(r.bucket(&[0], &[Const::Int(i)]).unwrap().count(), 1);
        }
        assert_eq!(r.bucket(&[0], &[Const::Int(5)]).unwrap().count(), 0);
    }

    #[test]
    fn share_is_copy_free_and_immutable() {
        let mut r = Relation::new();
        r.ensure_index(&[0]);
        for i in 0..50 {
            r.insert(&t(&[i, i]));
        }
        let before = debug_tuple_copies();
        let snap = r.share();
        assert_eq!(debug_tuple_copies() - before, 0, "share copies no tuples");
        assert!(snap.index_dump().is_empty(), "shares carry no indexes");

        // Unsynced probes fall back to scans and stay correct.
        assert!(snap.contains(&t(&[7, 7])));
        assert!(!snap.contains(&t(&[7, 8])));
        assert!(snap.contains_vals([Const::Int(3), Const::Int(3)].into_iter()));

        // Writer mutations never leak into the share.
        r.remove(&t(&[7, 7]));
        r.insert(&t(&[999, 999]));
        assert!(snap.contains(&t(&[7, 7])));
        assert!(!snap.contains(&t(&[999, 999])));
        assert_eq!(snap.len(), 50);

        // Iteration order of the share matches a deep clone's.
        let deep: Vec<Tuple> = snap.without_indexes().iter().map(Row::to_tuple).collect();
        let shared: Vec<Tuple> = snap.iter().map(Row::to_tuple).collect();
        assert_eq!(deep, shared);
    }

    #[test]
    fn share_survives_writer_compaction() {
        let mut r = Relation::new();
        for i in 0..200 {
            r.insert(&t(&[i]));
        }
        let snap = r.share();
        let expect: Vec<Tuple> = snap.iter().map(Row::to_tuple).collect();
        // Force compaction in the writer (dead > 32 and dead*2 > rows).
        for i in 0..150 {
            r.remove(&t(&[i]));
        }
        assert_eq!(r.len(), 50);
        assert_eq!(snap.len(), 200);
        let got: Vec<Tuple> = snap.iter().map(Row::to_tuple).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn share_can_be_mutated_independently() {
        let mut r = Relation::new();
        for i in 0..10 {
            r.insert(&t(&[i]));
        }
        let mut snap = r.share();
        // First mutation resyncs the membership table lazily.
        assert!(!snap.insert(&t(&[3])), "duplicate still detected");
        assert!(snap.insert(&t(&[77])));
        assert!(snap.remove(&t(&[0])));
        assert_eq!(snap.len(), 10);
        assert_eq!(r.len(), 10);
        assert!(r.contains(&t(&[0])));
        assert!(!r.contains(&t(&[77])));
    }

    #[test]
    fn without_indexes_matches_source() {
        let mut r = Relation::new();
        r.ensure_index(&[0]);
        for i in 0..40 {
            r.insert(&t(&[i, i * 2]));
        }
        for i in 0..10 {
            r.remove(&t(&[i, i * 2]));
        }
        let c = r.without_indexes();
        assert_eq!(c.len(), 30);
        assert_eq!(c.sorted(), r.sorted());
        let a: Vec<Tuple> = r.iter().map(Row::to_tuple).collect();
        let b: Vec<Tuple> = c.iter().map(Row::to_tuple).collect();
        assert_eq!(a, b, "bulk load preserves iteration order");
        assert!(c.contains(&t(&[20, 40])), "bulk-loaded table probes work");
        assert!(!c.contains(&t(&[5, 10])));
    }
}
