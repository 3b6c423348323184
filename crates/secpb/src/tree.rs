//! Integrity-tree abstraction: a monolithic Bonsai Merkle Tree or a
//! Bonsai Merkle Forest (for the Figure 9 BMF study), behind one
//! interface the system model drives.

use secpb_crypto::backend::CryptoBackend;
use secpb_crypto::bmf::{BmfMode, BonsaiMerkleForest};
use secpb_crypto::bmt::BonsaiMerkleTree;
use secpb_crypto::sha512::Digest;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// Which integrity-tree organisation the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// A single full-height BMT (Table I: 8 levels).
    Monolithic,
    /// A BMF with DBMF subtrees (effective height 2).
    Dbmf,
    /// A BMF with SBMF subtrees (effective height 5).
    Sbmf,
}

/// The integrity tree protecting the counter space.
#[derive(Debug, Clone)]
pub enum IntegrityTree {
    /// One full-height tree.
    Monolithic(BonsaiMerkleTree),
    /// A forest with a secure root cache.
    Forest(BonsaiMerkleForest),
}

impl IntegrityTree {
    /// Root-cache entries for the forest variants: the paper pairs BMF
    /// with a 4 KB root cache (64 SHA-512 roots).
    pub const ROOT_CACHE_ENTRIES: usize = 64;

    /// Builds the tree named by `kind` with the given arity/height.
    pub fn new(kind: TreeKind, key: &[u8], arity: usize, levels: u32) -> Self {
        match kind {
            TreeKind::Monolithic => {
                IntegrityTree::Monolithic(BonsaiMerkleTree::new(key, arity, levels))
            }
            TreeKind::Dbmf => IntegrityTree::Forest(BonsaiMerkleForest::new(
                key,
                arity,
                levels,
                BmfMode::Dbmf,
                Self::ROOT_CACHE_ENTRIES,
            )),
            TreeKind::Sbmf => IntegrityTree::Forest(BonsaiMerkleForest::new(
                key,
                arity,
                levels,
                BmfMode::Sbmf,
                Self::ROOT_CACHE_ENTRIES,
            )),
        }
    }

    /// Updates a leaf, returning the number of node hashes performed
    /// (the timing model charges them at the hash latency).
    pub fn update_leaf(&mut self, leaf: u64, digest: Digest) -> u64 {
        match self {
            IntegrityTree::Monolithic(t) => u64::from(t.update_leaf(leaf, digest)),
            IntegrityTree::Forest(f) => f.update_leaf(leaf, digest),
        }
    }

    /// The number of hash levels an update of `leaf` would walk *right
    /// now* (for early-BMT timing): the full height for a monolithic
    /// tree; the subtree height on a root-cache hit, plus the upper-tree
    /// fold-in of the evicted root on a miss, for a forest.
    pub fn update_cost_hashes(&self, leaf: u64) -> u64 {
        match self {
            IntegrityTree::Monolithic(t) => u64::from(t.levels()),
            IntegrityTree::Forest(f) => {
                let subtree = leaf / f.subtree_capacity();
                if f.is_cached(subtree) {
                    u64::from(f.sub_levels())
                } else {
                    u64::from(f.sub_levels()) + u64::from(f.upper_levels())
                }
            }
        }
    }

    /// The root that would be persisted now (for a forest this is only
    /// authoritative after [`sync`](Self::sync)).
    pub fn root(&self) -> Digest {
        match self {
            IntegrityTree::Monolithic(t) => t.root(),
            IntegrityTree::Forest(f) => f.upper_root(),
        }
    }

    /// Switches the tree between eager and lazy folding (see
    /// [`secpb_crypto::bmt`]).  Turning lazy off folds pending work.
    pub fn set_lazy(&mut self, lazy: bool) {
        match self {
            IntegrityTree::Monolithic(t) => t.set_lazy(lazy),
            IntegrityTree::Forest(f) => f.set_lazy(lazy),
        }
    }

    /// Selects the crypto backend for batched lazy folds (byte-identical
    /// across backends).
    pub fn set_backend(&mut self, backend: CryptoBackend) {
        match self {
            IntegrityTree::Monolithic(t) => t.set_backend(backend),
            IntegrityTree::Forest(f) => f.set_backend(backend),
        }
    }

    /// Whether any deferred updates are awaiting a fold.
    pub fn has_pending(&self) -> bool {
        match self {
            IntegrityTree::Monolithic(t) => t.has_pending(),
            IntegrityTree::Forest(f) => f.has_pending(),
        }
    }

    /// Hashes actually performed by lazy folds (performance metric; the
    /// analytic per-update counts are what the stats report).
    pub fn fold_hashes(&self) -> u64 {
        match self {
            IntegrityTree::Monolithic(t) => t.fold_hashes(),
            IntegrityTree::Forest(f) => f.fold_hashes(),
        }
    }

    /// Folds all cached subtree roots into the upper tree (crash drain);
    /// for a monolithic tree this only folds deferred lazy updates.
    ///
    /// Returns the *analytic* hash count — the hashes the modelled
    /// hardware would perform at this point, which for a monolithic tree
    /// is zero because every update was already charged its full walk.
    /// Lazy-fold hashes are a host-side performance artifact and are
    /// reported via [`fold_hashes`](Self::fold_hashes) instead, so stats
    /// and timing do not depend on whether the tree folds lazily or
    /// walks every update.
    pub fn sync(&mut self) -> u64 {
        match self {
            IntegrityTree::Monolithic(t) => {
                t.fold();
                0
            }
            IntegrityTree::Forest(f) => f.sync_all(),
        }
    }

    /// Total leaf-to-root update walks (Figure 8 metric) — monolithic
    /// trees only; forests report through their own stats.
    pub fn root_updates(&self) -> u64 {
        match self {
            IntegrityTree::Monolithic(t) => t.root_updates(),
            IntegrityTree::Forest(f) => f.stats().cache_hits + f.stats().cache_misses,
        }
    }

    /// The non-default `(index, digest)` nodes of one level, sorted by
    /// index — the durable frontier a Triad-NVM-style policy keeps
    /// online.  `None` for forests, whose subtree roots already play
    /// that role (selective depth is a monolithic-tree policy).
    pub fn level_nodes(&self, level: u32) -> Option<Vec<(u64, Digest)>> {
        match self {
            IntegrityTree::Monolithic(t) => Some(t.level_nodes(level)),
            IntegrityTree::Forest(_) => None,
        }
    }

    /// Recomputes the root from a persisted frontier at `level` (see
    /// [`BonsaiMerkleTree::root_from_level`]); returns the root plus the
    /// node hashes the fold performed.  `None` for forests.
    pub fn root_from_level(&self, level: u32, overlay: &[(u64, Digest)]) -> Option<(Digest, u64)> {
        match self {
            IntegrityTree::Monolithic(t) => Some(t.root_from_level(level, overlay)),
            IntegrityTree::Forest(_) => None,
        }
    }

    /// Appends the tree's dynamic state to a checkpoint.  The variant is
    /// tagged so restore catches a tree-kind mismatch before diving into
    /// the payload.
    pub fn encode_into(&self, w: &mut WireWriter) {
        match self {
            IntegrityTree::Monolithic(t) => {
                w.u8(0);
                t.encode_into(w);
            }
            IntegrityTree::Forest(f) => {
                w.u8(1);
                f.encode_into(w);
            }
        }
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into) onto
    /// a tree built with the same kind, key, and shape.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's variant or shape disagrees with this
    /// tree's, or on truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, IntegrityTree::Monolithic(t)) => t.restore_from(r),
            (1, IntegrityTree::Forest(f)) => f.restore_from(r),
            _ => Err(r.malformed("integrity-tree snapshot kind does not match")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_crypto::sha512::Sha512;

    #[test]
    fn monolithic_update_costs_full_height() {
        let mut t = IntegrityTree::new(TreeKind::Monolithic, b"k", 8, 8);
        assert_eq!(t.update_cost_hashes(0), 8);
        let h = t.update_leaf(0, Sha512::digest(b"x"));
        assert_eq!(h, 8);
        assert_eq!(t.root_updates(), 1);
        assert_eq!(t.sync(), 0);
    }

    #[test]
    fn forest_kinds_have_reduced_heights() {
        let mut d = IntegrityTree::new(TreeKind::Dbmf, b"k", 8, 8);
        let first = d.update_leaf(0, Sha512::digest(b"x"));
        assert_eq!(first, 2, "DBMF miss with empty cache costs subtree height");
        let hit = d.update_leaf(1, Sha512::digest(b"y"));
        assert_eq!(hit, 2);

        let mut s = IntegrityTree::new(TreeKind::Sbmf, b"k", 8, 8);
        assert_eq!(s.update_leaf(0, Sha512::digest(b"x")), 5);
    }

    #[test]
    fn forest_sync_folds_roots() {
        let mut d = IntegrityTree::new(TreeKind::Dbmf, b"k", 8, 8);
        let before = d.root();
        d.update_leaf(0, Sha512::digest(b"x"));
        assert_eq!(d.root(), before, "upper root unchanged until sync");
        let hashes = d.sync();
        assert!(hashes > 0);
        assert_ne!(d.root(), before);
    }

    #[test]
    fn lazy_tree_matches_eager_after_sync() {
        for kind in [TreeKind::Monolithic, TreeKind::Dbmf, TreeKind::Sbmf] {
            let mut eager = IntegrityTree::new(kind, b"k", 8, 8);
            let mut lazy = IntegrityTree::new(kind, b"k", 8, 8);
            lazy.set_lazy(true);
            for i in 0..40u64 {
                let leaf = i * 13 % 96;
                let d = Sha512::digest(&leaf.to_le_bytes());
                assert_eq!(eager.update_leaf(leaf, d), lazy.update_leaf(leaf, d));
            }
            assert_eq!(eager.root_updates(), lazy.root_updates());
            assert_eq!(eager.sync(), lazy.sync());
            assert!(!lazy.has_pending());
            assert_eq!(eager.root(), lazy.root(), "kind {kind:?}");
        }
    }

    #[test]
    fn rebuild_equivalence_for_recovery() {
        // Same leaves => same post-sync root, regardless of update order,
        // which is what recovery relies on.
        let leaves: Vec<(u64, _)> = (0..20u64)
            .map(|i| (i * 37 % 500, Sha512::digest(&[i as u8])))
            .collect();
        let mut a = IntegrityTree::new(TreeKind::Dbmf, b"k", 8, 8);
        let mut b = IntegrityTree::new(TreeKind::Dbmf, b"k", 8, 8);
        for (l, d) in &leaves {
            a.update_leaf(*l, *d);
        }
        for (l, d) in leaves.iter().rev() {
            b.update_leaf(*l, *d);
        }
        a.sync();
        b.sync();
        assert_eq!(a.root(), b.root());
    }
}
