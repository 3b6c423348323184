//! Bonsai Merkle Forests (Freij et al., MICRO'21), the state-of-the-art
//! BMT height-reduction mechanism the paper pairs with SecPB in its
//! Figure 9 study.
//!
//! A BMF splits the single integrity tree into a forest of subtrees whose
//! roots live in a small secure, persisted *root cache*.  While a subtree's
//! root is cached, updating a leaf only walks the subtree (2 levels for
//! DBMF, 5 for SBMF in the paper's configuration) instead of the full
//! 8-level BMT.  When the root cache evicts a subtree root, it is folded
//! back into the *upper tree* so the full-height root still authenticates
//! everything.
//!
//! The forest exposes the same statistics as [`crate::bmt`]: node hashes
//! (energy) and root updates, plus root-cache hit/miss counts used by the
//! Figure 9 timing model.
//!
//! Forests interact with the persistence-policy layer (DESIGN.md §18)
//! only through the baseline root-only contract: Triad-NVM selective
//! depths and the fast-recovery shadow layout are defined over the
//! *monolithic* BMT's level structure, so `PersistencePolicy` rejects
//! non-baseline tree/counter layouts on DBMF/SBMF organisations with
//! `PolicyError::UnsupportedTree` rather than guessing at a forest
//! frontier.

use std::collections::VecDeque;

use secpb_sim::fxhash::FxHashMap;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::backend::CryptoBackend;
use crate::bmt::BonsaiMerkleTree;
use crate::sha512::Digest;

/// Which BMF organisation to model (Figure 9 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BmfMode {
    /// Dynamic BMF: subtrees of height 2 (the paper reduces the 8-level
    /// BMT to 2 levels for cached subtrees).
    Dbmf,
    /// Static BMF: subtrees of height 5.
    Sbmf,
}

impl BmfMode {
    /// The effective update height (levels hashed on a root-cache hit).
    pub fn effective_levels(self) -> u32 {
        match self {
            BmfMode::Dbmf => 2,
            BmfMode::Sbmf => 5,
        }
    }
}

/// Statistics of forest activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BmfStats {
    /// Leaf updates that found their subtree root cached.
    pub cache_hits: u64,
    /// Leaf updates that missed the root cache.
    pub cache_misses: u64,
    /// Subtree roots folded into the upper tree on eviction.
    pub evictions: u64,
    /// Total node hashes performed (subtree + upper tree).
    pub node_hashes: u64,
}

/// A Bonsai Merkle Forest: a two-tier integrity tree with a bounded secure
/// root cache.
///
/// # Example
///
/// ```
/// use secpb_crypto::bmf::{BmfMode, BonsaiMerkleForest};
/// use secpb_crypto::sha512::Sha512;
///
/// let mut forest = BonsaiMerkleForest::new(b"key", 8, 8, BmfMode::Dbmf, 64);
/// let hashes = forest.update_leaf(1234, Sha512::digest(b"ctr"));
/// // First touch misses the root cache; later updates in the same subtree
/// // hash only the 2 subtree levels.
/// let hashes2 = forest.update_leaf(1235, Sha512::digest(b"ctr2"));
/// assert!(hashes2 <= hashes);
/// assert_eq!(hashes2, 2);
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiMerkleForest {
    key: Vec<u8>,
    arity: usize,
    sub_levels: u32,
    /// Upper tree over subtree roots: `full_levels - sub_levels` levels.
    upper: BonsaiMerkleTree,
    subtrees: FxHashMap<u64, BonsaiMerkleTree>,
    /// Subtree ids whose roots are currently in the secure root cache,
    /// in LRU order (front = oldest).
    cache: VecDeque<u64>,
    cache_capacity: usize,
    stats: BmfStats,
    /// Lazy folding, propagated to the upper tree and every subtree (see
    /// [`crate::bmt`]).  Root-cache bookkeeping (and thus the analytic
    /// hash counts) is identical in both modes; only *when* the HMACs
    /// run differs.
    lazy: bool,
    /// Crypto backend propagated to the upper tree and every subtree.
    backend: CryptoBackend,
}

impl BonsaiMerkleForest {
    /// Creates a forest equivalent to a `full_levels`-level BMT of the
    /// given `arity`, with subtree height from `mode` and a root cache of
    /// `root_cache_entries` roots (the paper uses a 4 KB root cache, i.e.
    /// 64 SHA-512 roots).
    ///
    /// # Panics
    ///
    /// Panics if the mode's subtree height is not below `full_levels`.
    pub fn new(
        key: &[u8],
        arity: usize,
        full_levels: u32,
        mode: BmfMode,
        root_cache_entries: usize,
    ) -> Self {
        let sub_levels = mode.effective_levels();
        assert!(
            sub_levels < full_levels,
            "subtree height {sub_levels} must be below the full tree height {full_levels}"
        );
        assert!(
            root_cache_entries > 0,
            "root cache needs at least one entry"
        );
        let upper = BonsaiMerkleTree::new(key, arity, full_levels - sub_levels);
        BonsaiMerkleForest {
            key: key.to_vec(),
            arity,
            sub_levels,
            upper,
            subtrees: FxHashMap::default(),
            cache: VecDeque::new(),
            cache_capacity: root_cache_entries,
            stats: BmfStats::default(),
            lazy: false,
            backend: CryptoBackend::default(),
        }
    }

    /// Selects the crypto backend for batched folds across the whole
    /// forest (upper tree, existing subtrees, and subtrees yet to be
    /// materialized).
    pub fn set_backend(&mut self, backend: CryptoBackend) {
        self.backend = backend;
        self.upper.set_backend(backend);
        for subtree in self.subtrees.values_mut() {
            subtree.set_backend(backend);
        }
    }

    /// The crypto backend batched folds dispatch to.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// Switches the whole forest (upper tree + subtrees) between eager
    /// and lazy folding.  Turning lazy off folds all pending work.
    pub fn set_lazy(&mut self, lazy: bool) {
        self.lazy = lazy;
        self.upper.set_lazy(lazy);
        for subtree in self.subtrees.values_mut() {
            subtree.set_lazy(lazy);
        }
    }

    /// Whether updates defer their hashing to folds.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Whether any tree in the forest has un-folded updates.
    pub fn has_pending(&self) -> bool {
        self.upper.has_pending() || self.subtrees.values().any(|t| t.has_pending())
    }

    /// Hashes actually performed by folds across the forest (performance
    /// metric; the analytic counts live in [`stats`](Self::stats)).
    pub fn fold_hashes(&self) -> u64 {
        self.upper.fold_hashes()
            + self
                .subtrees
                .values()
                .map(BonsaiMerkleTree::fold_hashes)
                .sum::<u64>()
    }

    /// Leaves per subtree.
    pub fn subtree_capacity(&self) -> u64 {
        (self.arity as u64).pow(self.sub_levels)
    }

    /// Subtree height in levels (the effective update height on a
    /// root-cache hit).
    pub fn sub_levels(&self) -> u32 {
        self.sub_levels
    }

    /// Upper-tree height in levels (walked when an evicted subtree root is
    /// folded in).
    pub fn upper_levels(&self) -> u32 {
        self.upper.levels()
    }

    /// Total leaf capacity (same as the equivalent monolithic BMT).
    pub fn capacity(&self) -> u64 {
        self.subtree_capacity() * self.upper.capacity()
    }

    /// The secure root of the whole forest (upper-tree root).  Note that
    /// the security state also includes the cached subtree roots; both are
    /// battery-backed in the paper's design.
    pub fn upper_root(&self) -> Digest {
        self.upper.root()
    }

    /// Activity statistics.
    pub fn stats(&self) -> BmfStats {
        self.stats
    }

    /// Resets the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = BmfStats::default();
    }

    /// Whether a subtree's root currently sits in the secure root cache.
    pub fn is_cached(&self, subtree: u64) -> bool {
        self.cache.contains(&subtree)
    }

    fn touch_lru(&mut self, subtree: u64) {
        if let Some(pos) = self.cache.iter().position(|&s| s == subtree) {
            self.cache.remove(pos);
        }
        self.cache.push_back(subtree);
    }

    /// Updates a leaf, returning the number of node hashes performed
    /// (the quantity the timing model charges at 40 cycles each).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_index` exceeds [`capacity`](Self::capacity).
    pub fn update_leaf(&mut self, leaf_index: u64, leaf_digest: Digest) -> u64 {
        assert!(
            leaf_index < self.capacity(),
            "leaf {leaf_index} out of range"
        );
        let subtree_id = leaf_index / self.subtree_capacity();
        let local_index = leaf_index % self.subtree_capacity();
        let mut hashes = 0u64;

        if self.is_cached(subtree_id) {
            self.stats.cache_hits += 1;
            self.touch_lru(subtree_id);
        } else {
            self.stats.cache_misses += 1;
            if self.cache.len() == self.cache_capacity {
                // Fold the evicted subtree's root into the upper tree.
                // A lazy victim must materialize its root first; the
                // upper-tree update itself may stay deferred (its
                // analytic cost is the same either way).
                let victim = self.cache.pop_front().expect("cache full");
                let victim_sub = self
                    .subtrees
                    .get_mut(&victim)
                    .expect("cached subtree exists");
                victim_sub.fold();
                let victim_root = victim_sub.root();
                hashes += u64::from(self.upper.update_leaf(victim, victim_root));
                self.stats.evictions += 1;
            }
            self.cache.push_back(subtree_id);
        }

        let subtree = self.subtrees.entry(subtree_id).or_insert_with(|| {
            let mut t = BonsaiMerkleTree::new(&self.key, self.arity, self.sub_levels);
            t.set_lazy(self.lazy);
            t.set_backend(self.backend);
            t
        });
        hashes += u64::from(subtree.update_leaf(local_index, leaf_digest));
        self.stats.node_hashes += hashes;
        hashes
    }

    /// Flushes every cached subtree root into the upper tree — the
    /// crash-drain path, after which [`upper_root`](Self::upper_root)
    /// authenticates the complete state.  Returns hashes performed.
    pub fn sync_all(&mut self) -> u64 {
        let mut hashes = 0u64;
        while let Some(subtree_id) = self.cache.pop_front() {
            let subtree = self.subtrees.get_mut(&subtree_id).expect("cached subtree");
            subtree.fold();
            let root = subtree.root();
            hashes += u64::from(self.upper.update_leaf(subtree_id, root));
        }
        if self.lazy {
            self.upper.fold();
        }
        self.stats.node_hashes += hashes;
        hashes
    }

    /// Appends the forest's dynamic state — upper tree, materialized
    /// subtrees (sorted by id), the root cache in exact LRU order, and
    /// statistics — to a checkpoint.  Key, arity, subtree height, cache
    /// capacity, lazy flag, and backend come from the constructor:
    /// [`restore_from`](Self::restore_from) requires a forest built with
    /// the same parameters.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.usize(self.arity);
        w.u32(self.sub_levels);
        w.usize(self.cache_capacity);
        self.upper.encode_into(w);
        let mut subtrees: Vec<_> = self.subtrees.iter().collect();
        subtrees.sort_by_key(|&(id, _)| *id);
        w.usize(subtrees.len());
        for (id, subtree) in subtrees {
            w.u64(*id);
            subtree.encode_into(w);
        }
        w.usize(self.cache.len());
        for id in &self.cache {
            w.u64(*id);
        }
        w.u64(self.stats.cache_hits);
        w.u64(self.stats.cache_misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.node_hashes);
        w.bool(self.lazy);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into) onto
    /// a forest built with the same key and shape.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatch or truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        if r.usize()? != self.arity
            || r.u32()? != self.sub_levels
            || r.usize()? != self.cache_capacity
        {
            return Err(r.malformed("BMF snapshot shape does not match forest"));
        }
        self.upper.restore_from(r)?;
        let n = r.seq_len(8)?;
        let mut subtrees = FxHashMap::default();
        for _ in 0..n {
            let id = r.u64()?;
            let mut subtree = BonsaiMerkleTree::new(&self.key, self.arity, self.sub_levels);
            subtree.set_backend(self.backend);
            subtree.restore_from(r)?;
            subtrees.insert(id, subtree);
        }
        self.subtrees = subtrees;
        let n = r.seq_len(8)?;
        if n > self.cache_capacity {
            return Err(r.malformed("BMF snapshot root cache exceeds capacity"));
        }
        let mut cache = VecDeque::with_capacity(n);
        for _ in 0..n {
            cache.push_back(r.u64()?);
        }
        self.cache = cache;
        self.stats = BmfStats {
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            evictions: r.u64()?,
            node_hashes: r.u64()?,
        };
        self.lazy = r.bool()?;
        Ok(())
    }

    /// Verifies a leaf digest against the forest's secure state (cached
    /// subtree roots plus the upper root).
    pub fn verify_leaf(&self, leaf_index: u64, leaf_digest: Digest) -> bool {
        if leaf_index >= self.capacity() {
            return false;
        }
        let subtree_id = leaf_index / self.subtree_capacity();
        let local_index = leaf_index % self.subtree_capacity();
        match self.subtrees.get(&subtree_id) {
            None => {
                // Never-touched subtree: only the default (zero) leaf
                // verifies.
                let probe = BonsaiMerkleTree::new(&self.key, self.arity, self.sub_levels);
                leaf_digest == probe.leaf(local_index)
            }
            Some(subtree) => {
                let proof = subtree.prove(local_index);
                if !subtree.verify_proof(&proof, leaf_digest) {
                    return false;
                }
                // The subtree root must be vouched for: either directly in
                // the secure cache, or via the upper tree.
                if self.is_cached(subtree_id) {
                    true
                } else {
                    let upper_proof = self.upper.prove(subtree_id);
                    self.upper.verify_proof(&upper_proof, subtree.root())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha512::Sha512;

    fn forest() -> BonsaiMerkleForest {
        // 4-ary, 4 full levels, DBMF (2-level subtrees), 2-entry cache.
        BonsaiMerkleForest::new(b"k", 4, 4, BmfMode::Dbmf, 2)
    }

    #[test]
    fn mode_heights_match_paper() {
        assert_eq!(BmfMode::Dbmf.effective_levels(), 2);
        assert_eq!(BmfMode::Sbmf.effective_levels(), 5);
    }

    #[test]
    fn capacity_matches_monolithic_tree() {
        let f = forest();
        assert_eq!(f.capacity(), 4u64.pow(4));
        assert_eq!(f.subtree_capacity(), 16);
    }

    #[test]
    fn hit_costs_subtree_height_only() {
        let mut f = forest();
        f.update_leaf(0, Sha512::digest(b"a")); // miss
        let hashes = f.update_leaf(1, Sha512::digest(b"b")); // same subtree: hit
        assert_eq!(hashes, 2);
        assert_eq!(f.stats().cache_hits, 1);
        assert_eq!(f.stats().cache_misses, 1);
    }

    #[test]
    fn eviction_folds_root_into_upper_tree() {
        let mut f = forest();
        let upper0 = f.upper_root();
        f.update_leaf(0, Sha512::digest(b"s0")); // subtree 0
        f.update_leaf(16, Sha512::digest(b"s1")); // subtree 1
        assert_eq!(f.upper_root(), upper0, "no eviction yet");
        let hashes = f.update_leaf(32, Sha512::digest(b"s2")); // evicts subtree 0
        assert_eq!(f.stats().evictions, 1);
        // Eviction walks the 2 upper levels plus the 2 subtree levels.
        assert_eq!(hashes, 4);
        assert_ne!(f.upper_root(), upper0);
    }

    #[test]
    fn lru_keeps_recently_used_subtrees() {
        let mut f = forest();
        f.update_leaf(0, Sha512::digest(b"a")); // subtree 0
        f.update_leaf(16, Sha512::digest(b"b")); // subtree 1
        f.update_leaf(1, Sha512::digest(b"c")); // touch subtree 0 again
        f.update_leaf(32, Sha512::digest(b"d")); // should evict subtree 1
        assert!(f.is_cached(0));
        assert!(!f.is_cached(1));
        assert!(f.is_cached(32 / 16));
    }

    #[test]
    fn verify_cached_and_evicted_leaves() {
        let mut f = forest();
        let d0 = Sha512::digest(b"zero");
        f.update_leaf(0, d0);
        assert!(f.verify_leaf(0, d0));
        // Evict subtree 0 by touching two more subtrees.
        f.update_leaf(16, Sha512::digest(b"one"));
        f.update_leaf(32, Sha512::digest(b"two"));
        assert!(!f.is_cached(0));
        assert!(
            f.verify_leaf(0, d0),
            "evicted subtree verifies via upper tree"
        );
        assert!(!f.verify_leaf(0, Sha512::digest(b"forged")));
    }

    #[test]
    fn verify_untouched_leaf_only_default() {
        let f = forest();
        let probe = BonsaiMerkleTree::new(b"k", 4, 2);
        assert!(f.verify_leaf(5, probe.leaf(5)));
        assert!(!f.verify_leaf(5, Sha512::digest(b"not default")));
    }

    #[test]
    fn sync_all_empties_cache() {
        let mut f = forest();
        f.update_leaf(0, Sha512::digest(b"a"));
        f.update_leaf(16, Sha512::digest(b"b"));
        let hashes = f.sync_all();
        assert_eq!(hashes, 2 * 2, "two roots, two upper levels each");
        assert!(!f.is_cached(0));
        assert!(!f.is_cached(1));
        // Everything still verifies via the upper tree.
        assert!(f.verify_leaf(0, Sha512::digest(b"a")));
    }

    #[test]
    fn out_of_range_leaf_fails_verification() {
        let f = forest();
        assert!(!f.verify_leaf(f.capacity(), Sha512::digest(b"x")));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_update_panics() {
        forest().update_leaf(256, Sha512::digest(b"x"));
    }

    #[test]
    fn lazy_forest_matches_eager_after_sync() {
        let mut eager = forest();
        let mut lazy = forest();
        lazy.set_lazy(true);
        // Enough updates to exercise hits, misses, and evictions.
        let pattern: &[u64] = &[0, 1, 16, 2, 32, 17, 0, 48, 33, 1];
        for (i, &leaf) in pattern.iter().enumerate() {
            let d = Sha512::digest(format!("v{i}").as_bytes());
            let he = eager.update_leaf(leaf, d);
            let hl = lazy.update_leaf(leaf, d);
            assert_eq!(he, hl, "analytic hash counts match per update");
        }
        assert_eq!(eager.stats(), lazy.stats());
        let he = eager.sync_all();
        let hl = lazy.sync_all();
        assert_eq!(he, hl);
        assert!(!lazy.has_pending(), "sync folds all deferred work");
        assert_eq!(eager.upper_root(), lazy.upper_root());
    }
    #[test]
    fn lazy_eviction_materializes_victim_root() {
        let mut eager = forest();
        let mut lazy = forest();
        lazy.set_lazy(true);
        // Three subtrees with a 2-entry cache: subtree 0 is evicted while
        // it still has deferred updates; its root must fold first.
        for f in [&mut eager, &mut lazy] {
            f.update_leaf(0, Sha512::digest(b"a"));
            f.update_leaf(1, Sha512::digest(b"b"));
            f.update_leaf(16, Sha512::digest(b"c"));
            f.update_leaf(32, Sha512::digest(b"d"));
        }
        assert_eq!(eager.stats().evictions, 1);
        assert_eq!(eager.stats(), lazy.stats());
        eager.sync_all();
        lazy.sync_all();
        assert_eq!(eager.upper_root(), lazy.upper_root());
    }

    #[test]
    fn lazy_fold_hashes_below_analytic_on_coalescing_trace() {
        let mut lazy = forest();
        lazy.set_lazy(true);
        // Hammer one subtree: analytic charges 2 hashes per update, the
        // fold pays the walk once.
        for i in 0..32u64 {
            lazy.update_leaf(i % 4, Sha512::digest(&i.to_le_bytes()));
        }
        lazy.sync_all();
        assert!(
            lazy.fold_hashes() * 2 <= lazy.stats().node_hashes,
            "fold hashes {} should be at most half the analytic {}",
            lazy.fold_hashes(),
            lazy.stats().node_hashes
        );
    }

    #[test]
    fn lazy_forest_is_backend_invariant() {
        use crate::backend::CryptoBackend;

        let mut reference = forest();
        let pattern: &[u64] = &[0, 1, 16, 2, 32, 17, 0, 48, 33, 1];
        for (i, &leaf) in pattern.iter().enumerate() {
            reference.update_leaf(leaf, Sha512::digest(format!("v{i}").as_bytes()));
        }
        reference.sync_all();
        for backend in CryptoBackend::ALL {
            let mut f = forest();
            f.set_backend(backend);
            assert_eq!(f.backend(), backend);
            f.set_lazy(true);
            for (i, &leaf) in pattern.iter().enumerate() {
                f.update_leaf(leaf, Sha512::digest(format!("v{i}").as_bytes()));
            }
            f.sync_all();
            assert_eq!(f.upper_root(), reference.upper_root(), "{}", backend.name());
        }
    }

    #[test]
    fn wire_round_trip_reproduces_forest_and_lru() {
        use secpb_sim::wire::{WireReader, WireWriter};
        let mut f = forest();
        let pattern: &[u64] = &[0, 1, 16, 2, 32, 17, 0, 48];
        for (i, &leaf) in pattern.iter().enumerate() {
            f.update_leaf(leaf, Sha512::digest(format!("v{i}").as_bytes()));
        }
        let mut w = WireWriter::new();
        f.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut restored = forest();
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.stats(), f.stats());
        // The LRU order must survive: the next updates evict the same
        // victims and land on identical roots.
        for (i, &leaf) in [33u64, 49, 2, 18].iter().enumerate() {
            let d = Sha512::digest(format!("w{i}").as_bytes());
            assert_eq!(f.update_leaf(leaf, d), restored.update_leaf(leaf, d));
        }
        f.sync_all();
        restored.sync_all();
        assert_eq!(f.upper_root(), restored.upper_root());
        assert_eq!(f.stats(), restored.stats());

        // Shape mismatch is rejected.
        let mut other = BonsaiMerkleForest::new(b"k", 4, 4, BmfMode::Dbmf, 4);
        let mut w2 = WireWriter::new();
        f.encode_into(&mut w2);
        assert!(other
            .restore_from(&mut WireReader::new(&w2.into_bytes()))
            .is_err());
    }

    #[test]
    fn sbmf_mode_works_with_8_levels() {
        let mut f = BonsaiMerkleForest::new(b"k", 2, 8, BmfMode::Sbmf, 4);
        let h = f.update_leaf(0, Sha512::digest(b"x"));
        assert_eq!(
            h, 5,
            "SBMF miss with empty cache hashes only subtree levels"
        );
        let h2 = f.update_leaf(1, Sha512::digest(b"y"));
        assert_eq!(h2, 5);
    }
}
