//! String interning.
//!
//! Every identifier that enters the deductive database — predicate names,
//! schema names, type names, attribute names, opaque id constants — is
//! interned once and afterwards handled as a 4-byte [`Symbol`]. Fact tuples
//! therefore compare and hash as machine words.
//!
//! Like the relation chunk store, the string table lives in `Arc`-shared
//! append-only pages so snapshot publication shares it with O(#pages)
//! refcount bumps ([`Interner::share`]). A page holds up to 1024 strings
//! as one byte arena plus their end offsets, so the first intern after a
//! share copies the partial tail page with two memcpys, not one heap
//! object per string, and [`Interner::resolve`] returns a slice of the
//! arena. The string → symbol lookup map is keyed by string *hash*
//! (candidates verified against the pages), so it stores no second copy
//! of any string, and shares rebuild it lazily — `resolve`, the only
//! operation digests need, always works straight off the shared pages.
//!
//! The hasher is an FxHash-style multiplicative hash (the algorithm used by
//! rustc). It is implemented locally because the crate set for this project
//! is deliberately minimal; the algorithm is ~20 lines.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An interned string. `Symbol`s are only meaningful relative to the
/// [`Interner`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a symbol from a raw index previously obtained via
    /// [`Symbol::index`]. The caller must guarantee the index came from the
    /// same interner.
    #[inline]
    pub fn from_index(ix: usize) -> Symbol {
        Symbol(ix as u32)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// FxHash: multiplicative word hash, very fast for short keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Strings per interner chunk (must be a power of two).
const STR_CHUNK_BITS: usize = 10;
const STR_CHUNK_LEN: usize = 1 << STR_CHUNK_BITS;
const STR_CHUNK_MASK: usize = STR_CHUNK_LEN - 1;

/// One page of interned strings: their bytes back to back in one arena,
/// and the arena offset at which each string ends.
#[derive(Clone, Default)]
struct StrChunk {
    bytes: String,
    ends: Vec<usize>,
}

impl StrChunk {
    #[inline]
    fn get(&self, off: usize) -> &str {
        let start = match off {
            0 => 0,
            _ => self.ends[off - 1],
        };
        &self.bytes[start..self.ends[off]]
    }

    fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
    }
}

/// Symbols whose string hashes to one value (collisions are verified
/// against the chunk store; duplicates cannot occur).
#[derive(Clone)]
enum SymIds {
    One(Symbol),
    Many(Vec<Symbol>),
}

impl SymIds {
    fn as_slice(&self) -> &[Symbol] {
        match self {
            SymIds::One(s) => std::slice::from_ref(s),
            SymIds::Many(v) => v,
        }
    }

    fn push(&mut self, sym: Symbol) {
        match self {
            SymIds::One(s) => *self = SymIds::Many(vec![*s, sym]),
            SymIds::Many(v) => v.push(sym),
        }
    }
}

#[inline]
fn str_hash(s: &str) -> u64 {
    FxBuildHasher::default().hash_one(s.as_bytes())
}

/// A string interner: bijective map between strings and [`Symbol`]s.
///
/// Strings live in `Arc`-shared append-only pages; [`Interner::share`]
/// publishes a snapshot view with refcount bumps only. The lookup map keys
/// by string hash (no owned string keys) and is rebuilt lazily in shares.
#[derive(Default, Clone)]
pub struct Interner {
    /// Interned strings in insertion order; all chunks except the tail
    /// hold exactly [`STR_CHUNK_LEN`] strings.
    chunks: Vec<Arc<StrChunk>>,
    /// Total interned strings (the tail chunk may be partial).
    len: usize,
    /// String hash → candidate symbols. Never authoritative on its own:
    /// every hit is verified against the chunk store.
    map: FxHashMap<u64, SymIds>,
    /// Set when `map` lags the chunks ([`Interner::share`] publishes with
    /// an empty map). [`Interner::intern`] resyncs; read-only
    /// [`Interner::get`] falls back to a scan.
    map_stale: bool,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn string_at(&self, ix: usize) -> &str {
        self.chunks[ix >> STR_CHUNK_BITS].get(ix & STR_CHUNK_MASK)
    }

    /// Rebuild the hash-keyed lookup map when it lags the chunks (after a
    /// [`Interner::share`]). No-op when synced.
    pub(crate) fn ensure_lookup(&mut self) {
        if !self.map_stale {
            return;
        }
        self.map.clear();
        self.map.reserve(self.len);
        for ix in 0..self.len {
            let h = str_hash(self.string_at(ix));
            let sym = Symbol(ix as u32);
            match self.map.entry(h) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(sym),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(SymIds::One(sym));
                }
            }
        }
        self.map_stale = false;
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.ensure_lookup();
        let h = str_hash(s);
        if let Some(ids) = self.map.get(&h) {
            for &sym in ids.as_slice() {
                if self.string_at(sym.index()) == s {
                    return sym;
                }
            }
        }
        let sym = Symbol(self.len as u32);
        if self.len & STR_CHUNK_MASK == 0 {
            self.chunks.push(Arc::default());
        }
        // CoW: only a partial tail page can still be shared with a
        // snapshot, so at most `STR_CHUNK_LEN - 1` strings are ever copied
        // here, once, regardless of interner size: one byte arena and one
        // offset array.
        let tail = self.chunks.last_mut().expect("tail chunk exists");
        Arc::make_mut(tail).push(s);
        self.len += 1;
        match self.map.entry(h) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(sym),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SymIds::One(sym));
            }
        }
        sym
    }

    /// Look up an already-interned string without inserting. In an
    /// unsynced share this scans the chunk store; mutable holders stay on
    /// the hash path.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.map_stale {
            return (0..self.len)
                .find(|&ix| self.string_at(ix) == s)
                .map(|ix| Symbol(ix as u32));
        }
        let ids = self.map.get(&str_hash(s))?;
        ids.as_slice()
            .iter()
            .copied()
            .find(|&sym| self.string_at(sym.index()) == s)
    }

    /// Resolve a symbol back to its string. Always served straight from
    /// the (possibly shared) chunks — never needs the lookup map.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        assert!(sym.index() < self.len, "symbol from another interner");
        self.string_at(sym.index())
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Intern a fresh symbol guaranteed not to collide with any existing
    /// string, using `prefix` for readability (e.g. `new_slot_1`).
    pub fn fresh(&mut self, prefix: &str) -> Symbol {
        self.ensure_lookup();
        let mut n = self.len;
        loop {
            let candidate = format!("{prefix}_{n}");
            if self.get(&candidate).is_none() {
                return self.intern(&candidate);
            }
            n += 1;
        }
    }

    /// Share the string table into a snapshot view: O(#chunks) `Arc`
    /// bumps, no string copies, empty lookup map (rebuilt lazily if the
    /// share is ever mutated; `resolve`/`get` work without it).
    pub(crate) fn share(&self) -> Interner {
        Interner {
            chunks: self.chunks.clone(),
            len: self.len,
            map: FxHashMap::default(),
            map_stale: self.len > 0,
        }
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Person");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Car");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Person");
        assert_eq!(i.resolve(b), "Car");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        i.intern("x");
        assert!(i.get("x").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn fresh_never_collides() {
        let mut i = Interner::new();
        i.intern("new_slot_0");
        let f = i.fresh("new_slot");
        assert_ne!(i.resolve(f), "new_slot_0");
    }

    #[test]
    fn empty_and_len() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        i.intern("a");
        assert!(!i.is_empty());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn share_resolves_and_scans_without_map() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..2500).map(|n| i.intern(&format!("sym{n}"))).collect();
        let s = i.share();
        assert_eq!(s.len(), 2500);
        for (n, &sym) in syms.iter().enumerate() {
            assert_eq!(s.resolve(sym), format!("sym{n}"));
        }
        assert_eq!(s.get("sym1234"), Some(syms[1234]));
        assert!(s.get("absent").is_none());
        // Writer growth after the share is invisible to it.
        i.intern("later");
        assert_eq!(s.len(), 2500);
        assert!(s.get("later").is_none());
    }

    #[test]
    fn share_can_be_mutated_independently() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let mut s = i.share();
        assert_eq!(s.intern("alpha"), a, "resync keeps old symbols stable");
        let b = s.intern("beta");
        assert_eq!(s.resolve(b), "beta");
        assert!(i.get("beta").is_none());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn clone_across_chunk_boundary_stays_consistent() {
        let mut i = Interner::new();
        for n in 0..1500 {
            i.intern(&format!("s{n}"));
        }
        let mut c = i.clone();
        let x = c.intern("only_in_clone");
        assert_eq!(c.resolve(x), "only_in_clone");
        assert!(i.get("only_in_clone").is_none());
        assert_eq!(i.get("s700"), c.get("s700"));
    }

    #[test]
    fn fx_hasher_differs_on_inputs() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let h = |s: &str| bh.hash_one(s);
        assert_ne!(h("a"), h("b"));
        assert_eq!(h("abc"), h("abc"));
    }
}
