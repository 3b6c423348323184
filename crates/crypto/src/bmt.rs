//! Bonsai Merkle Tree (Rogers et al., MICRO'07).
//!
//! A BMT provides freshness for the counter space: leaves are digests of
//! counter blocks, interior nodes hash their children, and the root lives
//! in an on-chip non-volatile register that never leaves the TCB (Section
//! V-A of the paper).  Data blocks themselves are protected by per-block
//! MACs; replaying an old (data, counter, MAC) triple is caught because the
//! stale counter no longer matches the BMT.
//!
//! The tree here is *sparse*: untouched subtrees hash to precomputed
//! per-level default digests, so an 8-level, 8-ary tree covering 16 M
//! encryption pages costs memory proportional only to the pages actually
//! touched.
//!
//! The tree also keeps the two statistics the paper's evaluation leans on:
//! the number of *root updates* (Figure 8) and the number of *node hashes*
//! (the energy model's per-update cost).
//!
//! ## Lazy folding
//!
//! In [lazy mode](BonsaiMerkleTree::set_lazy) an update writes only the
//! leaf digest and sets the leaf's bit in its 64-leaf chunk's dirty mask;
//! the HMAC leaf-to-root walk is deferred until
//! [`fold`](BonsaiMerkleTree::fold) batches every pending path level by
//! level.  The fold sorts one id per touched chunk, not one entry per
//! update, and expands the masks into the ascending, unique leaf
//! frontier.  N updates under one page coalesce into a
//! single walk and shared interior nodes are hashed once per fold instead
//! of once per update — the PLP-style coalescing the paper's Section IV-A
//! rests on.  The statistics stay *analytic*: `update_leaf` counts the
//! hashes the modeled hardware would perform, identical to eager mode, so
//! Figure 8 and the energy model cannot tell the modes apart.  The hashes
//! a fold actually performs are tracked separately in
//! [`fold_hashes`](BonsaiMerkleTree::fold_hashes).

use secpb_sim::fxhash::FxHashMap;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::backend::CryptoBackend;
use crate::hmac::HmacSha512;
use crate::sha512::Digest;

/// Default tree arity (children per interior node).
pub const DEFAULT_ARITY: usize = 8;

/// Digests per storage chunk of a [`NodeLevel`] (4 KB of digests).
///
/// A power of two at least as large as any practical arity, so a node's
/// whole sibling group lives in one chunk whenever the arity is a power
/// of two ≤ 64 — the per-level child gather is then a single map lookup
/// plus dense index arithmetic instead of `arity` independent lookups.
const LEVEL_CHUNK: u64 = 64;

/// One dense run of [`LEVEL_CHUNK`] digests of a level.
#[derive(Debug, Clone)]
struct Chunk {
    digests: Box<[Digest]>,
    /// Leaf level in lazy mode: bit `i` is set while digest `i` awaits a
    /// fold.  Always 0 elsewhere.
    dirty: u64,
}

/// Sparse-dense storage for one tree level: touched regions are dense
/// 64-digest chunks, untouched regions read as the level's default
/// digest.
///
/// A fully dense array per level would be byte-exact for the top levels
/// but infeasible at the leaves (the paper's 8-level, 8-ary tree covers
/// 16 M leaves), and workloads touch widely separated index bands (store,
/// sequential, and load regions).  Chunking keeps the dense-array index
/// arithmetic on the hot update walk while bounding memory by the
/// *touched* footprint.
#[derive(Debug, Clone)]
struct NodeLevel {
    default: Digest,
    chunks: FxHashMap<u64, Chunk>,
}

impl NodeLevel {
    fn new(default: Digest) -> Self {
        NodeLevel {
            default,
            chunks: FxHashMap::default(),
        }
    }

    /// The digest at `index` (the level default if never written).
    #[inline]
    fn get(&self, index: u64) -> Digest {
        match self.chunks.get(&(index / LEVEL_CHUNK)) {
            Some(chunk) => chunk.digests[(index % LEVEL_CHUNK) as usize],
            None => self.default,
        }
    }

    /// The chunk `id`, materialized (all default, nothing dirty) on first
    /// touch.
    #[inline]
    fn chunk_mut(&mut self, id: u64) -> &mut Chunk {
        let default = self.default;
        self.chunks.entry(id).or_insert_with(|| Chunk {
            digests: vec![default; LEVEL_CHUNK as usize].into_boxed_slice(),
            dirty: 0,
        })
    }

    /// Writes the digest at `index`, materializing its chunk on first
    /// touch.
    #[inline]
    fn set(&mut self, index: u64, digest: Digest) {
        self.chunk_mut(index / LEVEL_CHUNK).digests[(index % LEVEL_CHUNK) as usize] = digest;
    }

    /// Copies the digests of the contiguous sibling group
    /// `first..first + count` into `out`.
    ///
    /// Fast path: when the group does not straddle a chunk boundary (any
    /// power-of-two arity ≤ [`LEVEL_CHUNK`], since `first` is
    /// arity-aligned), this is one map lookup and a slice copy.
    fn siblings(&self, first: u64, count: usize, out: &mut Vec<Digest>) {
        out.clear();
        let offset = (first % LEVEL_CHUNK) as usize;
        if offset + count <= LEVEL_CHUNK as usize {
            match self.chunks.get(&(first / LEVEL_CHUNK)) {
                Some(chunk) => out.extend_from_slice(&chunk.digests[offset..offset + count]),
                None => out.resize(count, self.default),
            }
        } else {
            out.extend((0..count as u64).map(|c| self.get(first + c)));
        }
    }
}

/// A leaf-to-root authentication path, as produced by
/// [`BonsaiMerkleTree::prove`] and checked by
/// [`BonsaiMerkleTree::verify_proof`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// For each level from the leaves upward: the digests of all children
    /// of the node's parent (including the node itself at its position).
    pub levels: Vec<Vec<Digest>>,
}

/// A sparse, keyed Bonsai Merkle Tree with an on-chip root register.
///
/// # Example
///
/// ```
/// use secpb_crypto::bmt::BonsaiMerkleTree;
/// use secpb_crypto::sha512::Sha512;
///
/// let mut bmt = BonsaiMerkleTree::new(b"tree-key", 8, 8);
/// let before = bmt.root();
/// bmt.update_leaf(42, Sha512::digest(b"counter block 42"));
/// assert_ne!(bmt.root(), before);
/// assert_eq!(bmt.root_updates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiMerkleTree {
    hasher: HmacSha512,
    /// Multi-lane dispatch target for batched fold hashing.
    backend: CryptoBackend,
    arity: usize,
    levels: u32,
    /// `nodes[l]` holds the written digests at level `l` (0 = leaves) in
    /// chunked sparse-dense storage; absent nodes read as the level's
    /// default digest.
    nodes: Vec<NodeLevel>,
    root: Digest,
    root_updates: u64,
    node_hashes: u64,
    /// Lazy mode: defer the leaf-to-root walk to [`fold`](Self::fold).
    lazy: bool,
    /// The leaf chunks whose dirty mask is not empty, once each, in the
    /// order they became dirty (sorted at fold time for determinism).
    dirty: Vec<u64>,
    /// Hashes actually performed by folds (performance metric only —
    /// never part of the analytic `node_hashes` statistic).
    fold_hashes: u64,
    /// Number of folds performed.
    folds: u64,
}

impl BonsaiMerkleTree {
    /// Creates a tree of `levels` levels above the leaves with the given
    /// `arity`, covering `arity^levels` leaves.
    ///
    /// The paper's Table I uses an 8-level tree; with arity 8 that covers
    /// 16 M encryption pages (64 GB of protected data at 4 KB pages).
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2` or `levels == 0`.
    pub fn new(key: &[u8], arity: usize, levels: u32) -> Self {
        assert!(arity >= 2, "arity must be at least 2");
        assert!(levels >= 1, "tree needs at least one level");
        let hasher = HmacSha512::new(key);
        // Default digest at the leaf level is the digest of an absent
        // (all-zero) counter block; build parents bottom-up.
        let mut defaults = Vec::with_capacity(levels as usize + 1);
        defaults.push(hasher.compute(&[0u8; 64]));
        for l in 0..levels as usize {
            let child = defaults[l];
            let parts: Vec<&[u8]> = (0..arity).map(|_| child.as_ref()).collect();
            defaults.push(hasher.compute_parts(&parts));
        }
        let root = defaults[levels as usize];
        BonsaiMerkleTree {
            hasher,
            backend: CryptoBackend::default(),
            arity,
            levels,
            nodes: defaults[..levels as usize]
                .iter()
                .map(|&d| NodeLevel::new(d))
                .collect(),
            root,
            root_updates: 0,
            node_hashes: 0,
            lazy: false,
            dirty: Vec::new(),
            fold_hashes: 0,
            folds: 0,
        }
    }

    /// Switches between eager and lazy folding.  Turning lazy *off*
    /// folds any pending updates first, so the tree is always observable
    /// afterwards.
    pub fn set_lazy(&mut self, lazy: bool) {
        if !lazy {
            self.fold();
        }
        self.lazy = lazy;
    }

    /// Whether updates defer their leaf-to-root walk.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Selects the crypto backend used by batched folds.  Every backend
    /// is byte-identical; only the dispatch width differs.
    pub fn set_backend(&mut self, backend: CryptoBackend) {
        self.backend = backend;
    }

    /// The crypto backend batched folds dispatch to.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// Whether any updates are pending a fold.  The root (and any
    /// interior node) is only authoritative when this is `false`.
    pub fn has_pending(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Hashes actually computed by folds (a pure performance metric:
    /// the analytic [`node_hashes`](Self::node_hashes) statistic is what
    /// the timing/energy models consume).
    pub fn fold_hashes(&self) -> u64 {
        self.fold_hashes
    }

    /// Number of [`fold`](Self::fold) calls that performed work.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Folds every pending leaf update into the tree in one batched,
    /// level-by-level walk: each dirty interior node is hashed exactly
    /// once no matter how many dirty leaves sit beneath it, and all of a
    /// level's parent digests are computed in one multi-lane
    /// [`HmacSha512::compute_batch`] dispatch (every message is the same
    /// `arity * 64`-byte sibling group, gathered straight out of the
    /// chunked `NodeLevel` storage).  Returns the hashes performed
    /// (0 when nothing is pending).  A no-op in eager mode, where updates
    /// fold as they happen.
    pub fn fold(&mut self) -> u64 {
        if self.dirty.is_empty() {
            return 0;
        }
        // Chunks in id order, each mask low bit first: the sorted,
        // unique set of updated leaves.
        self.dirty.sort_unstable();
        let mut frontier = Vec::new();
        for id in self.dirty.drain(..) {
            let chunk = self.nodes[0]
                .chunks
                .get_mut(&id)
                .expect("a dirty chunk is stored");
            push_leaves(&mut frontier, id, std::mem::take(&mut chunk.dirty));
        }
        let mut scratch: Vec<Digest> = Vec::with_capacity(self.arity);
        let mut flat: Vec<u8> = Vec::new();
        let mut digests: Vec<Digest> = Vec::new();
        let mut hashes = 0u64;
        for level in 0..self.levels as usize {
            // Parents of a sorted frontier are sorted; dedup collapses
            // siblings so shared ancestors hash once.
            let mut parents: Vec<u64> = frontier.iter().map(|&i| i / self.arity as u64).collect();
            parents.dedup();
            flat.clear();
            for &parent in &parents {
                let first_child = parent * self.arity as u64;
                self.nodes[level].siblings(first_child, self.arity, &mut scratch);
                for d in &scratch {
                    flat.extend_from_slice(&d.0);
                }
            }
            digests.clear();
            self.hasher
                .compute_batch(&self.backend, &flat, self.arity * 64, &mut digests);
            hashes += parents.len() as u64;
            for (&parent, &digest) in parents.iter().zip(&digests) {
                if level + 1 == self.levels as usize {
                    self.root = digest;
                } else {
                    self.nodes[level + 1].set(parent, digest);
                }
            }
            frontier = parents;
        }
        self.fold_hashes += hashes;
        self.folds += 1;
        hashes
    }

    /// Number of levels above the leaves.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Children per interior node.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of leaves the tree covers.
    pub fn capacity(&self) -> u64 {
        (self.arity as u64).pow(self.levels)
    }

    /// The current root digest (the paper's non-volatile root register).
    ///
    /// In lazy mode the root is an observation point: callers must
    /// [`fold`](Self::fold) first (debug builds assert this).
    pub fn root(&self) -> Digest {
        debug_assert!(
            self.dirty.is_empty(),
            "lazy BMT observed with pending updates: fold() first"
        );
        self.root
    }

    /// Total leaf-to-root update walks performed (Figure 8's metric).
    pub fn root_updates(&self) -> u64 {
        self.root_updates
    }

    /// Total interior-node hash computations performed (drives the energy
    /// model: one SHA-512 per node per Table III).
    pub fn node_hashes(&self) -> u64 {
        self.node_hashes
    }

    /// Resets the update/hash statistics (e.g. between measurement
    /// regions).
    pub fn reset_stats(&mut self) {
        self.root_updates = 0;
        self.node_hashes = 0;
    }

    fn node_digest(&self, level: usize, index: u64) -> Digest {
        self.nodes[level].get(index)
    }

    /// Writes a new leaf digest and walks the update to the root (eager
    /// mode), or records the leaf for a later [`fold`](Self::fold) (lazy
    /// mode).
    ///
    /// Returns the number of node hashes the modeled hardware performs
    /// (== `levels`), which the timing model multiplies by the per-hash
    /// latency.  The count is *analytic*: it is identical in both modes,
    /// so statistics cannot distinguish them.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_index` is outside the tree's capacity.
    pub fn update_leaf(&mut self, leaf_index: u64, leaf_digest: Digest) -> u32 {
        assert!(
            leaf_index < self.capacity(),
            "leaf {leaf_index} out of range"
        );
        let id = leaf_index / LEVEL_CHUNK;
        let chunk = self.nodes[0].chunk_mut(id);
        chunk.digests[(leaf_index % LEVEL_CHUNK) as usize] = leaf_digest;
        self.root_updates += 1;
        self.node_hashes += u64::from(self.levels);
        if self.lazy {
            if chunk.dirty == 0 {
                self.dirty.push(id);
            }
            chunk.dirty |= 1 << (leaf_index % LEVEL_CHUNK);
            return self.levels;
        }
        let mut index = leaf_index;
        let mut scratch: Vec<Digest> = Vec::with_capacity(self.arity);
        for level in 0..self.levels as usize {
            let parent = index / self.arity as u64;
            let first_child = parent * self.arity as u64;
            self.nodes[level].siblings(first_child, self.arity, &mut scratch);
            let parts: Vec<&[u8]> = scratch.iter().map(|d| d.as_ref()).collect();
            let parent_digest = self.hasher.compute_parts(&parts);
            if level + 1 == self.levels as usize {
                self.root = parent_digest;
            } else {
                self.nodes[level + 1].set(parent, parent_digest);
            }
            index = parent;
        }
        self.levels
    }

    /// The stored digest of a leaf (default digest if never written).
    pub fn leaf(&self, leaf_index: u64) -> Digest {
        self.node_digest(0, leaf_index)
    }

    /// Produces an authentication path for a leaf.
    ///
    /// An observation point: in lazy mode, [`fold`](Self::fold) first.
    pub fn prove(&self, leaf_index: u64) -> MerkleProof {
        assert!(
            leaf_index < self.capacity(),
            "leaf {leaf_index} out of range"
        );
        debug_assert!(
            self.dirty.is_empty(),
            "lazy BMT observed with pending updates: fold() first"
        );
        let mut levels = Vec::with_capacity(self.levels as usize);
        let mut index = leaf_index;
        for level in 0..self.levels as usize {
            let parent = index / self.arity as u64;
            let first_child = parent * self.arity as u64;
            let children: Vec<Digest> = (0..self.arity as u64)
                .map(|c| self.node_digest(level, first_child + c))
                .collect();
            levels.push(children);
            index = parent;
        }
        MerkleProof { leaf_index, levels }
    }

    /// Verifies an authentication path: the claimed `leaf_digest` must sit
    /// at the right position of the bottom level and hashing upward must
    /// reproduce the current root.
    pub fn verify_proof(&self, proof: &MerkleProof, leaf_digest: Digest) -> bool {
        if proof.levels.len() != self.levels as usize {
            return false;
        }
        let mut index = proof.leaf_index;
        let mut current = leaf_digest;
        for children in &proof.levels {
            if children.len() != self.arity {
                return false;
            }
            let pos = (index % self.arity as u64) as usize;
            if children[pos] != current {
                return false;
            }
            let parts: Vec<&[u8]> = children.iter().map(|d| d.as_ref()).collect();
            current = self.hasher.compute_parts(&parts);
            index /= self.arity as u64;
        }
        current == self.root()
    }

    /// Appends the tree's dynamic state — touched node chunks per level
    /// (sorted by chunk id), root register, statistics, lazy flag, and
    /// the normalized dirty set — to a checkpoint.  The key, arity,
    /// level count, and backend are *not* serialised:
    /// [`restore_from`](Self::restore_from) requires a tree constructed
    /// with the same parameters.  The dirty leaves are written ascending
    /// and once each, the frontier [`fold`](Self::fold) starts from, so
    /// restore + fold is byte-identical to fold on the original.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.u32(self.levels);
        w.usize(self.arity);
        for level in &self.nodes {
            let mut chunks: Vec<_> = level.chunks.iter().collect();
            chunks.sort_by_key(|&(id, _)| *id);
            w.usize(chunks.len());
            for (id, chunk) in chunks {
                w.u64(*id);
                for d in chunk.digests.iter() {
                    w.raw(&d.0);
                }
            }
        }
        w.raw(&self.root.0);
        w.u64(self.root_updates);
        w.u64(self.node_hashes);
        w.bool(self.lazy);
        let mut ids = self.dirty.clone();
        ids.sort_unstable();
        let mut leaves = Vec::new();
        for id in ids {
            push_leaves(&mut leaves, id, self.nodes[0].chunks[&id].dirty);
        }
        w.usize(leaves.len());
        for leaf in leaves {
            w.u64(leaf);
        }
        w.u64(self.fold_hashes);
        w.u64(self.folds);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into) onto
    /// a tree built with the same key, arity, and level count.
    ///
    /// # Errors
    ///
    /// Fails if the encoded shape disagrees with this tree's, on a dirty
    /// leaf whose chunk the image does not store, or on truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        if r.u32()? != self.levels || r.usize()? != self.arity {
            return Err(r.malformed("BMT snapshot shape does not match tree"));
        }
        for level in self.nodes.iter_mut() {
            level.chunks.clear();
            let n = r.seq_len(8 + LEVEL_CHUNK as usize * 64)?;
            for _ in 0..n {
                let id = r.u64()?;
                let mut digests = vec![level.default; LEVEL_CHUNK as usize].into_boxed_slice();
                for d in digests.iter_mut() {
                    *d = Digest(r.array::<64>()?);
                }
                level.chunks.insert(id, Chunk { digests, dirty: 0 });
            }
        }
        self.root = Digest(r.array::<64>()?);
        self.root_updates = r.u64()?;
        self.node_hashes = r.u64()?;
        self.lazy = r.bool()?;
        let n = r.seq_len(8)?;
        self.dirty.clear();
        for _ in 0..n {
            let leaf = r.u64()?;
            let id = leaf / LEVEL_CHUNK;
            let Some(chunk) = self.nodes[0].chunks.get_mut(&id) else {
                return Err(r.malformed(format!("dirty BMT leaf {leaf} has no stored chunk")));
            };
            if chunk.dirty == 0 {
                self.dirty.push(id);
            }
            chunk.dirty |= 1 << (leaf % LEVEL_CHUNK);
        }
        self.fold_hashes = r.u64()?;
        self.folds = r.u64()?;
        Ok(())
    }

    /// The non-default nodes of one level as sorted `(index, digest)`
    /// pairs — the durable frontier a Triad-NVM-style policy persists
    /// when it keeps levels `0..=level` online.
    ///
    /// An observation point: in lazy mode, [`fold`](Self::fold) first.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels` (the root is not a node level).
    pub fn level_nodes(&self, level: u32) -> Vec<(u64, Digest)> {
        assert!(level < self.levels, "level {level} out of range");
        debug_assert!(
            self.dirty.is_empty(),
            "lazy BMT observed with pending updates: fold() first"
        );
        let lvl = &self.nodes[level as usize];
        let mut chunks: Vec<_> = lvl.chunks.iter().collect();
        chunks.sort_by_key(|&(id, _)| *id);
        let mut out = Vec::new();
        for (id, chunk) in chunks {
            for (off, d) in chunk.digests.iter().enumerate() {
                if *d != lvl.default {
                    out.push((id * LEVEL_CHUNK + off as u64, *d));
                }
            }
        }
        out
    }

    /// Recomputes the root by hashing upward from a persisted frontier at
    /// `level`: `overlay` supplies the non-default `(index, digest)` nodes
    /// of that level (absent indices read as the level default), exactly
    /// the shape [`level_nodes`](Self::level_nodes) produces.  Returns the
    /// root and the number of node hashes the walk performed — the exact
    /// recovery fold cost of a Triad-NVM-style selective-persistence
    /// policy that reconstructs levels `level+1..` at recovery.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    pub fn root_from_level(&self, level: u32, overlay: &[(u64, Digest)]) -> (Digest, u64) {
        assert!(level < self.levels, "level {level} out of range");
        let mut cur: Vec<(u64, Digest)> = overlay.to_vec();
        cur.sort_unstable_by_key(|e| e.0);
        cur.dedup_by_key(|e| e.0);
        if cur.is_empty() {
            // All-default frontier: fold one default chain to the root.
            cur.push((0, self.nodes[level as usize].default));
        }
        let mut hashes = 0u64;
        for l in level as usize..self.levels as usize {
            let default = self.nodes[l].default;
            let map: FxHashMap<u64, Digest> = cur.iter().copied().collect();
            let mut parents: Vec<u64> = cur.iter().map(|&(i, _)| i / self.arity as u64).collect();
            parents.dedup();
            let mut next = Vec::with_capacity(parents.len());
            for &parent in &parents {
                let first = parent * self.arity as u64;
                let children: Vec<Digest> = (0..self.arity as u64)
                    .map(|c| map.get(&(first + c)).copied().unwrap_or(default))
                    .collect();
                let parts: Vec<&[u8]> = children.iter().map(|d| d.as_ref()).collect();
                next.push((parent, self.hasher.compute_parts(&parts)));
                hashes += 1;
            }
            cur = next;
        }
        (cur[0].1, hashes)
    }

    /// Rebuilds a tree from scratch over the given `(leaf_index, digest)`
    /// pairs — the post-crash recovery path when the persisted tree nodes
    /// are reconstructed from the persisted counter blocks.
    pub fn rebuild_from_leaves<I>(key: &[u8], arity: usize, levels: u32, leaves: I) -> Self
    where
        I: IntoIterator<Item = (u64, Digest)>,
    {
        let mut tree = Self::new(key, arity, levels);
        for (idx, digest) in leaves {
            tree.update_leaf(idx, digest);
        }
        tree.reset_stats();
        tree
    }
}

/// Appends to `out` the leaves of chunk `id` whose bits are set in
/// `mask`, ascending.
fn push_leaves(out: &mut Vec<u64>, id: u64, mut mask: u64) {
    while mask != 0 {
        out.push(id * LEVEL_CHUNK + u64::from(mask.trailing_zeros()));
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha512::Sha512;

    fn tree() -> BonsaiMerkleTree {
        BonsaiMerkleTree::new(b"k", 4, 3)
    }

    #[test]
    fn empty_tree_roots_are_deterministic() {
        let a = BonsaiMerkleTree::new(b"k", 4, 3);
        let b = BonsaiMerkleTree::new(b"k", 4, 3);
        assert_eq!(a.root(), b.root());
        let c = BonsaiMerkleTree::new(b"other", 4, 3);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn capacity_is_arity_pow_levels() {
        assert_eq!(tree().capacity(), 64);
        assert_eq!(BonsaiMerkleTree::new(b"k", 8, 8).capacity(), 16_777_216);
    }

    #[test]
    fn update_changes_root_and_counts() {
        let mut t = tree();
        let r0 = t.root();
        let hashes = t.update_leaf(5, Sha512::digest(b"leaf5"));
        assert_eq!(hashes, 3);
        assert_ne!(t.root(), r0);
        assert_eq!(t.root_updates(), 1);
        assert_eq!(t.node_hashes(), 3);
    }

    #[test]
    fn same_leaves_same_root_regardless_of_order() {
        let mut a = tree();
        let mut b = tree();
        let items: Vec<(u64, Digest)> = (0..10)
            .map(|i| (i * 6 % 64, Sha512::digest(&[i as u8])))
            .collect();
        for (i, d) in &items {
            a.update_leaf(*i, *d);
        }
        for (i, d) in items.iter().rev() {
            b.update_leaf(*i, *d);
        }
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn proof_verifies_and_detects_tampering() {
        let mut t = tree();
        let d = Sha512::digest(b"payload");
        t.update_leaf(17, d);
        let proof = t.prove(17);
        assert!(t.verify_proof(&proof, d));
        assert!(!t.verify_proof(&proof, Sha512::digest(b"other")));
    }

    #[test]
    fn proof_for_default_leaf_verifies() {
        let mut t = tree();
        t.update_leaf(0, Sha512::digest(b"x"));
        let proof = t.prove(63);
        assert!(t.verify_proof(&proof, t.leaf(63)));
    }

    #[test]
    fn stale_proof_fails_after_update() {
        let mut t = tree();
        let d1 = Sha512::digest(b"v1");
        t.update_leaf(3, d1);
        let proof = t.prove(3);
        t.update_leaf(3, Sha512::digest(b"v2"));
        assert!(
            !t.verify_proof(&proof, d1),
            "replayed old state must be rejected"
        );
    }

    #[test]
    fn sibling_update_invalidates_old_proof_root() {
        let mut t = tree();
        let d = Sha512::digest(b"mine");
        t.update_leaf(8, d);
        let proof = t.prove(8);
        t.update_leaf(9, Sha512::digest(b"sibling"));
        // Proof captured before the sibling changed no longer matches root.
        assert!(!t.verify_proof(&proof, d));
        // A fresh proof does.
        assert!(t.verify_proof(&t.prove(8), d));
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut incr = tree();
        let leaves: Vec<(u64, Digest)> = (0..20)
            .map(|i| (i as u64 * 3 % 64, Sha512::digest(&[i as u8, 1])))
            .collect();
        for (i, d) in &leaves {
            incr.update_leaf(*i, *d);
        }
        let rebuilt = BonsaiMerkleTree::rebuild_from_leaves(b"k", 4, 3, leaves);
        assert_eq!(rebuilt.root(), incr.root());
        assert_eq!(rebuilt.root_updates(), 0, "rebuild resets stats");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut t = tree();
        t.update_leaf(1, Sha512::digest(b"a"));
        t.reset_stats();
        assert_eq!(t.root_updates(), 0);
        assert_eq!(t.node_hashes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        tree().update_leaf(64, Sha512::digest(b"x"));
    }

    #[test]
    fn lazy_fold_matches_eager_root_and_stats() {
        let mut eager = tree();
        let mut lazy = tree();
        lazy.set_lazy(true);
        let items: Vec<(u64, Digest)> = (0..50)
            .map(|i| (i * 13 % 64, Sha512::digest(&[i as u8, 7])))
            .collect();
        for (i, d) in &items {
            eager.update_leaf(*i, *d);
            lazy.update_leaf(*i, *d);
        }
        assert!(lazy.has_pending());
        // Analytic statistics agree before any fold happens.
        assert_eq!(lazy.root_updates(), eager.root_updates());
        assert_eq!(lazy.node_hashes(), eager.node_hashes());
        let folded = lazy.fold();
        assert!(!lazy.has_pending());
        assert_eq!(lazy.root(), eager.root());
        assert_eq!(lazy.fold_hashes(), folded);
        // Coalescing: the batched fold does strictly less hashing than
        // the eager per-update walks (50 updates over <=50 distinct
        // leaves in a 3-level tree).
        assert!(folded < eager.node_hashes());
        // Interior nodes are byte-identical too: proofs verify cross-tree.
        for (i, _) in &items {
            assert!(eager.verify_proof(&lazy.prove(*i), lazy.leaf(*i)));
        }
    }

    #[test]
    fn fold_is_backend_invariant() {
        let mut eager = tree();
        let items: Vec<(u64, Digest)> = (0..37)
            .map(|i| (i * 11 % 64, Sha512::digest(&[i as u8, 3])))
            .collect();
        for (i, d) in &items {
            eager.update_leaf(*i, *d);
        }
        for backend in CryptoBackend::ALL {
            let mut lazy = tree();
            lazy.set_backend(backend);
            assert_eq!(lazy.backend(), backend);
            lazy.set_lazy(true);
            for (i, d) in &items {
                lazy.update_leaf(*i, *d);
            }
            lazy.fold();
            assert_eq!(lazy.root(), eager.root(), "{}", backend.name());
            for (i, _) in &items {
                assert!(eager.verify_proof(&lazy.prove(*i), lazy.leaf(*i)));
            }
        }
    }

    #[test]
    fn lazy_repeated_updates_coalesce_to_one_walk() {
        let mut t = tree();
        t.set_lazy(true);
        let mut last = Sha512::digest(b"x");
        for i in 0..100u8 {
            last = Sha512::digest(&[i]);
            t.update_leaf(5, last);
        }
        let folded = t.fold();
        assert_eq!(folded, u64::from(t.levels()), "one walk for 100 updates");
        let mut eager = tree();
        eager.update_leaf(5, last);
        assert_eq!(t.root(), eager.root());
    }

    #[test]
    fn fold_is_noop_when_clean() {
        let mut t = tree();
        t.set_lazy(true);
        assert_eq!(t.fold(), 0);
        assert_eq!(t.folds(), 0);
        t.update_leaf(0, Sha512::digest(b"a"));
        assert!(t.fold() > 0);
        assert_eq!(t.folds(), 1);
        assert_eq!(t.fold(), 0, "second fold has nothing to do");
    }

    #[test]
    fn disabling_lazy_folds_pending_work() {
        let mut t = tree();
        t.set_lazy(true);
        t.update_leaf(9, Sha512::digest(b"p"));
        t.set_lazy(false);
        assert!(!t.has_pending());
        assert!(!t.is_lazy());
        let mut eager = tree();
        eager.update_leaf(9, Sha512::digest(b"p"));
        assert_eq!(t.root(), eager.root());
    }

    #[test]
    #[should_panic(expected = "fold() first")]
    #[cfg(debug_assertions)]
    fn lazy_root_observation_without_fold_asserts() {
        let mut t = tree();
        t.set_lazy(true);
        t.update_leaf(0, Sha512::digest(b"a"));
        let _ = t.root();
    }

    #[test]
    fn wire_round_trip_reproduces_tree_and_pending_folds() {
        use secpb_sim::wire::{WireReader, WireWriter};
        let mut t = tree();
        t.set_lazy(true);
        for i in 0..30u64 {
            t.update_leaf(i * 7 % 64, Sha512::digest(&[i as u8, 9]));
        }
        let mut w = WireWriter::new();
        t.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut restored = tree();
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert!(restored.is_lazy());
        assert_eq!(restored.root_updates(), t.root_updates());
        // Folding the restored tree matches folding the original: same
        // hash count, same root, same proofs.
        assert_eq!(restored.fold(), t.fold());
        assert_eq!(restored.root(), t.root());
        for i in 0..30u64 {
            let leaf = i * 7 % 64;
            assert!(t.verify_proof(&restored.prove(leaf), restored.leaf(leaf)));
        }

        // Shape mismatch is rejected.
        let mut other = BonsaiMerkleTree::new(b"k", 4, 2);
        assert!(other.restore_from(&mut WireReader::new(&bytes)).is_err());
    }

    /// A 4096-leaf tree (64 leaf chunks) and a seeded update stream
    /// with repeats, clustered around chunk boundaries so runs cross
    /// them.
    fn chunked_tree() -> BonsaiMerkleTree {
        BonsaiMerkleTree::new(b"k", 8, 4)
    }

    fn chunked_updates(seed: u64, n: usize) -> Vec<(u64, Digest)> {
        let mut rng = secpb_sim::rng::Rng::seed_from(seed);
        (0..n)
            .map(|i| {
                let boundary = rng.below(64) * LEVEL_CHUNK;
                let leaf = (boundary + rng.below(8)).saturating_sub(4).min(4095);
                (leaf, Sha512::digest(&(i as u64 ^ seed).to_le_bytes()))
            })
            .collect()
    }

    fn encode(t: &BonsaiMerkleTree) -> Vec<u8> {
        let mut w = WireWriter::new();
        t.encode_into(&mut w);
        w.into_bytes()
    }

    /// The bytes `encode_into` ends with for a lazy tree whose pending
    /// updates touched `updated`: the old sort-and-dedup normalisation.
    fn pending_tail(t: &BonsaiMerkleTree, updated: &[u64]) -> Vec<u8> {
        let mut leaves = updated.to_vec();
        leaves.sort_unstable();
        leaves.dedup();
        let mut w = WireWriter::new();
        w.bool(true);
        w.usize(leaves.len());
        for leaf in leaves {
            w.u64(leaf);
        }
        w.u64(t.fold_hashes());
        w.u64(t.folds());
        w.into_bytes()
    }

    #[test]
    fn dirty_masks_fold_like_the_eager_walk() {
        for seed in 1..=8u64 {
            let mut eager = chunked_tree();
            let mut lazy = chunked_tree();
            lazy.set_lazy(true);
            let mut expected_hashes = 0u64;
            let mut pending: Vec<u64> = Vec::new();
            for (n, (leaf, d)) in chunked_updates(seed, 600).into_iter().enumerate() {
                eager.update_leaf(leaf, d);
                lazy.update_leaf(leaf, d);
                pending.push(leaf);
                if n % 97 == 96 {
                    // The fold hashes each distinct ancestor once.
                    let mut frontier = std::mem::take(&mut pending);
                    frontier.sort_unstable();
                    frontier.dedup();
                    for _ in 0..lazy.levels() {
                        frontier = frontier.iter().map(|i| i / 8).collect();
                        frontier.dedup();
                        expected_hashes += frontier.len() as u64;
                    }
                    lazy.fold();
                    assert_eq!(lazy.root(), eager.root(), "seed {seed} update {n}");
                }
            }
            lazy.fold();
            assert!(!lazy.has_pending());
            assert_eq!(lazy.root(), eager.root(), "seed {seed}");
            assert_eq!(lazy.root_updates(), eager.root_updates());
            assert_eq!(lazy.node_hashes(), eager.node_hashes());
            for level in 0..eager.levels() {
                assert_eq!(lazy.level_nodes(level), eager.level_nodes(level));
            }
            let mut frontier = pending;
            frontier.sort_unstable();
            frontier.dedup();
            for _ in 0..lazy.levels() {
                frontier = frontier.iter().map(|i| i / 8).collect();
                frontier.dedup();
                expected_hashes += frontier.len() as u64;
            }
            assert_eq!(lazy.fold_hashes(), expected_hashes, "seed {seed}");
        }
    }

    #[test]
    fn pending_leaves_encode_once_each_in_ascending_order() {
        let mut t = chunked_tree();
        t.set_lazy(true);
        let updates = chunked_updates(11, 300);
        let (first, rest) = updates.split_at(120);
        for &(leaf, d) in first {
            t.update_leaf(leaf, d);
        }
        t.fold();
        for &(leaf, d) in rest {
            t.update_leaf(leaf, d);
        }
        let updated: Vec<u64> = rest.iter().map(|&(leaf, _)| leaf).collect();
        let bytes = encode(&t);
        assert!(bytes.ends_with(&pending_tail(&t, &updated)));
    }

    #[test]
    fn restore_then_fold_is_byte_identical() {
        let mut t = chunked_tree();
        t.set_lazy(true);
        for (leaf, d) in chunked_updates(5, 400) {
            t.update_leaf(leaf, d);
        }
        let bytes = encode(&t);
        let mut restored = chunked_tree();
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert_eq!(encode(&restored), bytes);
        assert_eq!(restored.fold(), t.fold());
        assert_eq!(encode(&restored), encode(&t));
        // The masks are clear again: more updates still match.
        for (leaf, d) in chunked_updates(6, 50) {
            t.update_leaf(leaf, d);
            restored.update_leaf(leaf, d);
        }
        assert_eq!(encode(&restored), encode(&t));
        assert_eq!(restored.fold(), t.fold());
        assert_eq!(encode(&restored), encode(&t));
    }

    #[test]
    fn dirty_leaf_without_a_stored_chunk_is_rejected() {
        let t = chunked_tree();
        let mut w = WireWriter::new();
        w.u32(t.levels());
        w.usize(t.arity());
        for _ in 0..t.levels() {
            w.usize(0); // no chunks stored
        }
        w.raw(&t.root().0);
        w.u64(0);
        w.u64(0);
        w.bool(true);
        w.usize(1);
        w.u64(100); // a dirty leaf of chunk 1
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let err = chunked_tree()
            .restore_from(&mut WireReader::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed { what, .. } if what.contains("no stored chunk")),
            "{err}"
        );
    }

    #[test]
    fn root_from_level_frontier_reproduces_root() {
        let mut t = tree();
        for i in 0..20u64 {
            t.update_leaf(i * 3 % 64, Sha512::digest(&[i as u8, 5]));
        }
        for level in 0..t.levels() {
            let frontier = t.level_nodes(level);
            let (root, hashes) = t.root_from_level(level, &frontier);
            assert_eq!(root, t.root(), "frontier at level {level}");
            // Higher frontiers fold strictly less.
            assert!(hashes >= u64::from(t.levels() - level));
        }
        // Fold costs shrink as the persisted frontier climbs.
        let costs: Vec<u64> = (0..t.levels())
            .map(|l| t.root_from_level(l, &t.level_nodes(l)).1)
            .collect();
        for pair in costs.windows(2) {
            assert!(pair[0] >= pair[1], "{costs:?}");
        }
    }

    #[test]
    fn root_from_level_empty_overlay_is_default_root() {
        let t = tree();
        let (root, hashes) = t.root_from_level(0, &[]);
        assert_eq!(root, t.root());
        assert_eq!(hashes, u64::from(t.levels()));
        let empty = t.level_nodes(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn level_nodes_round_trip_after_lazy_fold() {
        let mut eager = tree();
        let mut lazy = tree();
        lazy.set_lazy(true);
        for i in 0..30u64 {
            let d = Sha512::digest(&[i as u8, 11]);
            eager.update_leaf(i * 7 % 64, d);
            lazy.update_leaf(i * 7 % 64, d);
        }
        lazy.fold();
        for level in 0..eager.levels() {
            assert_eq!(eager.level_nodes(level), lazy.level_nodes(level));
        }
    }

    #[test]
    fn wrong_shape_proof_rejected() {
        let mut t = tree();
        let d = Sha512::digest(b"x");
        t.update_leaf(0, d);
        let mut proof = t.prove(0);
        proof.levels.pop();
        assert!(!t.verify_proof(&proof, d));
        let mut proof2 = t.prove(0);
        proof2.levels[0].pop();
        assert!(!t.verify_proof(&proof2, d));
    }
}
