//! Cross-shape fragment store keyed by span-local descriptor runs.
//!
//! [`PoolBuilder`](crate::PoolBuilder)'s span-DAG memo (PR 5) lowers each
//! distinct sub-tree of *one* shape exactly once, but the memo is keyed by a
//! single `ShapeId` and dropped on every shape change. A lowered fragment,
//! however, depends only on three inputs:
//!
//! 1. the [`BuildOptions`] in effect,
//! 2. the span's run of leaf descriptors (structure, property, transpose /
//!    inverse flags, and the *local* size-symbol pattern), and
//! 3. the span-local parenthesization (two trees over the same run lower to
//!    different steps and costs).
//!
//! Crucially, `Shape::size_classes` merges only **adjacent** size symbols, so
//! the size-equivalence partition restricted to a span's positions is fully
//! determined by the span's own operands — two spans with identical descriptor
//! runs are interchangeable no matter which shapes they came from. That makes
//! a cross-shape store sound: [`FragmentCache`] maps
//! `(options, descriptor run, tree)` — all renumbered to a span-local frame —
//! to the lowered `Fragment` (or the [`BuildError`] the lowering produced,
//! so failures are also exact-once).
//!
//! # Frames and relocation
//!
//! Entries remember the *frame* (chain offset + global size symbols) they were
//! lowered in. A lookup from the same frame — the common case when related
//! shapes share a prefix — returns the cached `Arc<Fragment>` with no work at
//! all. A lookup from a different frame relocates the fragment once: leaf
//! indices are shifted and size symbols renamed through
//! [`Poly::rename_vars`](gmc_ir::Poly::rename_vars). Both paths are exact
//! (rational coefficients, structural renames), so pools assembled from the
//! store are bit-identical to pools built with the store disabled.
//!
//! # Bounding and observability
//!
//! The store is LRU-bounded (default
//! [`DEFAULT_FRAG_CACHE_CAPACITY`](crate::DEFAULT_FRAG_CACHE_CAPACITY)
//! entries). A hit, an insert and an eviction each cost O(1) however full
//! the store is: entries sit in a hash map over a recency-linked list,
//! and a full store's victim is the list's tail.
//! The victim is the entry least recently refreshed by a hit or an insert
//! (a frame-mismatch miss refreshes nothing). The store keeps
//! [`FragCacheStats`] counters — hits, misses, insertions and
//! evictions — mirroring the chain cache's
//! [`CacheStats`](crate::CacheStats) treatment. Capacity 0
//! ([`CompileSession::set_fragment_cache_capacity`](crate::CompileSession::set_fragment_cache_capacity))
//! is the one off switch: the session then never hands the store to the
//! pool builder, so no key is built and no lookup is counted.
//!
//! The store lives only in memory. Snapshots ([`crate::persist`]) record
//! decisions, not fragments: a restored session refills its store while
//! restore re-lowers the recorded trees through it.

use std::sync::Arc;

use crate::builder::{BuildError, BuildOptions, Fragment, NodeDesc};
use crate::lru::Lru;
use crate::variant::ValRef;

/// Multiply-rotate hasher (the classic `fxhash` recipe) for the hot-path
/// maps: store keys carry a precomputed SipHash-quality content hash, and
/// the span-DAG interner hashes small id pairs, so both want mixing that
/// costs a couple of cycles instead of a full SipHash permutation.
#[derive(Default)]
pub(crate) struct FxHasher64(u64);

impl FxHasher64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the high bits down: hashbrown derives both its control
        // byte and its bucket index from opposite ends of the word.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
#[derive(Debug, Default, Clone)]
pub(crate) struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;

    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::default()
    }
}

/// Hit/miss/insert/eviction counters for a [`FragmentCache`].
///
/// All counters are cumulative over the cache's lifetime (capacity
/// changes and evictions do not reset them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragCacheStats {
    /// Lookups served from the store (same-frame and relocated alike).
    pub hits: u64,
    /// Lookups that found no entry and fell through to a fresh lowering.
    pub misses: u64,
    /// Fragments (or cached failures) inserted after a miss.
    pub inserts: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl FragCacheStats {
    /// Fraction of lookups served from the store; 0.0 when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate `other` into `self` (used when merging shard stats).
    pub fn absorb(&mut self, other: &FragCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

/// Span-local identity of a lowered fragment.
///
/// `run` holds the span's leaf descriptors with size symbols renumbered to
/// first-occurrence order over the span's positions and sources rebased to
/// `Leaf(0..)`; `tree` is the span-local parenthesization encoded as a
/// preorder bit string (1 = internal node, 0 = leaf), which fits in a `u128`
/// for spans up to 64 leaves. Wider spans bypass the store.
///
/// The run is shared (`Arc`) and its hash precomputed: every tree over the
/// same span reuses one run allocation and one content hash, so keying a
/// node costs O(1) on top of the store's `HashMap` probe — the overhead a
/// cold store pays per miss.
#[derive(Debug, Clone)]
pub(crate) struct FragKey {
    options: BuildOptions,
    tree: u128,
    run: Arc<[NodeDesc]>,
    run_hash: u64,
}

impl FragKey {
    /// Content hash of a descriptor run, computed once per span and shared
    /// by every key over that span (see [`FragKey::from_hashed`]).
    pub(crate) fn hash_run(run: &[NodeDesc]) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        run.hash(&mut h);
        h.finish()
    }

    /// Key a tree over a run whose content hash is already known. The
    /// caller must pass `run_hash == FragKey::hash_run(&run)`; the pool
    /// builder memoizes it per span so keying a node is allocation- and
    /// hash-free.
    pub(crate) fn from_hashed(
        options: BuildOptions,
        tree: u128,
        run: Arc<[NodeDesc]>,
        run_hash: u64,
    ) -> Self {
        debug_assert_eq!(run_hash, Self::hash_run(&run));
        FragKey {
            options,
            tree,
            run,
            run_hash,
        }
    }
}

impl PartialEq for FragKey {
    fn eq(&self, other: &Self) -> bool {
        // run_hash first: a cheap reject for the common bucket collision.
        self.options == other.options
            && self.tree == other.tree
            && self.run_hash == other.run_hash
            && self.run == other.run
    }
}

impl Eq for FragKey {}

impl std::hash::Hash for FragKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.options.hash(state);
        self.tree.hash(state);
        // The run's content hash stands in for the run: equal runs hash
        // equal by construction, and the O(len) work happened once per
        // span in `FragKey::hash_run`.
        self.run_hash.hash(state);
    }
}

/// The frame a fragment was lowered in: the span's chain offset plus the
/// global size symbol backing each local symbol slot (first-occurrence
/// order). Lookups from an identical frame reuse the `Arc` directly; any
/// other frame triggers a one-shot relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    pub(crate) lo: usize,
    /// Shared (`Arc`) so the pool builder can stamp one frame onto every
    /// node of a span without a per-node allocation.
    pub(crate) syms: Arc<[usize]>,
}

#[derive(Debug)]
struct Entry {
    value: Result<Arc<Fragment>, BuildError>,
    frame: Frame,
}

/// Rewrite `frag` from frame `from` into frame `to`.
///
/// Renames every size symbol through the slot correspondence
/// `from.syms[k] -> to.syms[k]` and shifts leaf references by
/// `to.lo - from.lo`. All transforms are structural and exact, so
/// relocate(relocate(f, a, b), b, a) == f.
fn relocate(frag: &Fragment, from: &Frame, to: &Frame) -> Fragment {
    debug_assert_eq!(from.syms.len(), to.syms.len());
    let max_var = from.syms.iter().copied().max().unwrap_or(0);
    let mut map: Vec<usize> = (0..=max_var).collect();
    for (k, &g) in from.syms.iter().enumerate() {
        map[g] = to.syms[k];
    }
    let sym = |s: usize| map.get(s).copied().unwrap_or(s);
    let val = |v: ValRef| match v {
        ValRef::Leaf(i) => ValRef::Leaf(i - from.lo + to.lo),
        ValRef::Temp(t) => ValRef::Temp(t),
    };
    let mut result = frag.result;
    result.rows = sym(result.rows);
    result.cols = sym(result.cols);
    result.source = val(result.source);
    let step = frag.step.map(|mut s| {
        s.left = val(s.left);
        s.right = val(s.right);
        s.triplet = (sym(s.triplet.0), sym(s.triplet.1), sym(s.triplet.2));
        s
    });
    Fragment {
        step,
        cost: frag.cost.rename_vars(&map),
        result,
    }
}

/// Cross-shape, LRU-bounded store of lowered fragments.
///
/// Owned by [`CompileSession`](crate::CompileSession) (one per session, and
/// in `gmc_serve` one per shard). Keys are span-local
/// (options, descriptor run, tree) triples; values are the lowered fragment
/// *or* the error the lowering produced, so failed lowerings short-circuit
/// on repeat encounters exactly like successes.
#[derive(Debug)]
pub struct FragmentCache {
    entries: Lru<FragKey, Entry, FxBuildHasher>,
    stats: FragCacheStats,
}

impl FragmentCache {
    /// Create an empty store bounded to `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FragmentCache {
            entries: Lru::new(capacity),
            stats: FragCacheStats::default(),
        }
    }

    /// Maximum number of entries retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Change the bound, evicting least-recently-used entries if the store
    /// is over the new capacity. Capacity 0 disables retention entirely.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.stats.evictions += self.entries.set_capacity(capacity) as u64;
    }

    /// Number of entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> FragCacheStats {
        self.stats
    }

    /// Look up the fragment for `key`, relocated into `frame`.
    ///
    /// Counts a hit or a miss; a hit refreshes the entry's recency. Cached
    /// failures come back as `Some(Err(..))` so the caller can skip the
    /// lowering altogether.
    pub(crate) fn lookup(
        &mut self,
        key: &FragKey,
        frame: &Frame,
    ) -> Option<Result<Arc<Fragment>, BuildError>> {
        // Impossible for honestly-constructed keys (the run fixes the
        // symbol count), so a mismatched frame is a miss that leaves the
        // entry's recency alone rather than a mis-relocation.
        let fits = |e: &Entry| e.value.is_err() || e.frame.syms.len() == frame.syms.len();
        if !self.entries.peek(key).is_some_and(fits) {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let entry = self.entries.get(key).expect("peeked above");
        match &entry.value {
            Ok(frag) if entry.frame == *frame => Some(Ok(Arc::clone(frag))),
            Ok(frag) => Some(Ok(Arc::new(relocate(frag, &entry.frame, frame)))),
            Err(e) => Some(Err(e.clone())),
        }
    }

    /// Insert the outcome of a fresh lowering under `key`, remembered in the
    /// frame it was lowered in. No-op when the capacity is 0.
    pub(crate) fn insert(
        &mut self,
        key: FragKey,
        value: Result<&Arc<Fragment>, &BuildError>,
        frame: &Frame,
    ) {
        if self.capacity() == 0 {
            return;
        }
        let value = match value {
            Ok(frag) => Ok(Arc::clone(frag)),
            Err(e) => Err(e.clone()),
        };
        let entry = Entry {
            value,
            frame: frame.clone(),
        };
        self.stats.inserts += 1;
        self.stats.evictions += self.entries.insert(key, entry) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{leaf_descs, lower_node};
    use gmc_ir::Shape;

    fn lowered_pair() -> (Fragment, Frame, FragKey) {
        // Lower the span (0,1) of a 3-operand chain by hand.
        let g = gmc_ir::Operand::plain(gmc_ir::Features::general());
        let shape = Shape::new(vec![g, g, g]).unwrap();
        let classes = shape.size_classes();
        let leaves = leaf_descs(&shape, &classes);
        let options = BuildOptions::default();
        let left = Fragment::leaf(leaves[0]);
        let right = Fragment::leaf(leaves[1]);
        let frag = lower_node(&left, 1, &right, 1, &classes, options).unwrap();
        let frame = Frame {
            lo: 0,
            syms: vec![0, 1, 2].into(),
        };
        let run: Arc<[NodeDesc]> = leaves[..2].to_vec().into();
        let key = FragKey::from_hashed(options, 0b100, run.clone(), FragKey::hash_run(&run));
        (frag, frame, key)
    }

    #[test]
    fn same_frame_hits_share_the_arc_and_cross_frame_hits_relocate() {
        let (frag, frame, key) = lowered_pair();
        let mut cache = FragmentCache::new(16);
        assert!(cache.lookup(&key, &frame).is_none());
        let arc = Arc::new(frag);
        cache.insert(key.clone(), Ok(&arc), &frame);

        let hit = cache.lookup(&key, &frame).unwrap().unwrap();
        assert!(Arc::ptr_eq(&hit, &arc));

        // Same run two positions later, backed by different global symbols.
        let shifted = Frame {
            lo: 2,
            syms: vec![4, 5, 6].into(),
        };
        let moved = cache.lookup(&key, &shifted).unwrap().unwrap();
        let step = moved.step.unwrap();
        assert_eq!(step.left, ValRef::Leaf(2));
        assert_eq!(step.right, ValRef::Leaf(3));
        assert_eq!(step.triplet, (4, 5, 6));
        // Relocation round-trips exactly.
        let back = relocate(&moved, &shifted, &frame);
        assert_eq!(back, *arc);

        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts),
            (2, 1, 1),
            "one miss before insert, two hits after"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity_and_counts() {
        let (frag, frame, key) = lowered_pair();
        let arc = Arc::new(frag);
        let mut cache = FragmentCache::new(1);
        cache.insert(key.clone(), Ok(&arc), &frame);
        // A second, distinct key evicts the first.
        let mut key2 = key.clone();
        key2.tree = 0b10100;
        cache.insert(key2.clone(), Ok(&arc), &frame);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key, &frame).is_none());
        assert!(cache.lookup(&key2, &frame).is_some());

        cache.set_capacity(0);
        assert!(cache.is_empty());
        cache.insert(key, Ok(&arc), &frame);
        assert!(cache.is_empty(), "capacity 0 disables retention");
    }
}
