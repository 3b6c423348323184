//! The shared security/persistence kernel all three system fronts
//! delegate to.
//!
//! [`SecureSystem`](crate::system::SecureSystem),
//! [`EadrSystem`](crate::eadr::EadrSystem) and
//! [`MultiCoreSystem`](crate::multicore::MultiCoreSystem) differ in *when*
//! and *why* a memory tuple persists (SecPB drains, LLC writebacks, or
//! per-core coherence events) — but the tuple pipeline itself
//! (counter → OTP → BMT → ciphertext → MAC, Figure 4) and the durable
//! state it feeds are one machine.  [`PersistDomain`] owns that machine:
//! the architectural golden state, the logical counters, the NVM store,
//! the crypto engines, and the integrity tree, plus the flush/persist
//! kernels every front drives.  The crash-verdict and recovery kernels
//! live in [`recovery`](crate::recovery), implemented on this type.
//!
//! Two kernels carry every front's persists.  Drained SecPB entries, from
//! a background burst of any scheme down to a single crash-drain or
//! multi-core flush, go through one batched drain kernel
//! (`flush_resolved`): the front resolves each entry's counter, pad and
//! ciphertext in drain order, and the kernel computes the run's MACs in
//! one multi-lane dispatch and its counter digests in another around the
//! in-order NVM writes and leaf updates.  Each write updates its page's
//! counter block in place ([`NvmStore::set_counter`]).  SP's per-store
//! persists and eADR's writebacks go through the one-block
//! `persist_with_counter`.
//! Every counter increment is overflow-aware (`increment_counter`): a
//! minor-counter overflow re-encrypts the page's persisted blocks here,
//! so no front can persist a counter whose major the NVM image lacks.
//!
//! Each front keeps its historical key-derivation salts (a
//! [`DomainKeys`]) so the refactor is bit-identical to the three
//! hand-written implementations it replaces.

use secpb_crypto::backend::CryptoBackend;
use secpb_crypto::counter::{CounterBlock, IncrementOutcome, SplitCounter, MINOR_MAX};
use secpb_crypto::mac::BlockMac;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::{digest64_batch, Digest, Sha512};
use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;
use secpb_sim::changelog::ChangeLog;
use secpb_sim::config::CryptoBackendKind;
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::trace::Access;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::entry::Entry;
use crate::policy::{CounterLayout, PersistencePolicy, PolicyState, TreePersistence};
use crate::tree::{IntegrityTree, TreeKind};

/// BMT arity used throughout (8-ary, 8 levels covers 16 M pages).
pub(crate) const BMT_ARITY: usize = 8;

/// Maps the dependency-free config name to the concrete crypto backend.
pub(crate) fn resolve_backend(kind: CryptoBackendKind) -> CryptoBackend {
    match kind {
        CryptoBackendKind::Auto => CryptoBackend::auto(),
        CryptoBackendKind::Scalar => CryptoBackend::Scalar,
    }
}

/// Per-front key-derivation salts.  The three fronts historically derived
/// their AES/tree keys with different constants; preserving them keeps
/// every persisted image byte-identical to the pre-refactor code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainKeys {
    /// Multiplier mixed into each AES key byte.
    pub aes_mult: u64,
    /// XOR salt applied to the key seed for the integrity-tree key.
    pub tree_xor: u64,
}

impl DomainKeys {
    /// Salts used by the single-core [`SecureSystem`](crate::system::SecureSystem).
    pub const SECPB: DomainKeys = DomainKeys {
        aes_mult: 0x9E37,
        tree_xor: 0xB111_7AB1E,
    };
    /// Salts used by [`EadrSystem`](crate::eadr::EadrSystem).
    pub const EADR: DomainKeys = DomainKeys {
        aes_mult: 0xEAD2,
        tree_xor: 0xEAD2,
    };
    /// Salts used by [`MultiCoreSystem`](crate::multicore::MultiCoreSystem).
    pub const MULTI_CORE: DomainKeys = DomainKeys {
        aes_mult: 0x517C,
        tree_xor: 0xC0_FFEE,
    };
}

/// What a page re-encryption ([`PersistDomain::reencrypt_page`]) did, so
/// each front can translate the work into its own statistics namespace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reencryption {
    /// Persisted blocks of the page re-encrypted and re-MACed under the
    /// bumped major counter.
    pub(crate) blocks: u64,
    /// BMT node hashes charged by the page's leaf update.
    pub(crate) tree_hashes: u64,
}

/// The durable integrity-tree frontier a
/// [`TreePersistence::Levels`] policy keeps online (see
/// [`PersistDomain::persisted_frontier`]).
pub(crate) struct PersistedFrontier {
    /// `(index, digest)` pairs of the frontier level's nodes.
    pub(crate) nodes: Vec<(u64, Digest)>,
    /// The root the frontier folds up to.
    pub(crate) root: Digest,
    /// Hash invocations that fold costs (recovery accounting).
    pub(crate) fold_hashes: u64,
}

/// The shared persist-domain core: golden state, counters, NVM image,
/// crypto engines, and integrity tree.
///
/// Fields are crate-visible so the fronts (and the split
/// `pipeline`/`recovery` modules) can drive them directly; external users
/// go through the fronts or the [`PersistSystem`](crate::facade::PersistSystem)
/// facade.
pub struct PersistDomain {
    pub(crate) tree_kind: TreeKind,
    pub(crate) keys: DomainKeys,
    pub(crate) seed: u64,
    pub(crate) bmt_levels: u32,
    pub(crate) golden: FxHashMap<BlockAddr, [u8; 64]>,
    pub(crate) counters: FxHashMap<u64, CounterBlock>,
    pub(crate) nvm: NvmStore,
    pub(crate) otp_engine: OtpEngine,
    pub(crate) mac_engine: BlockMac,
    pub(crate) tree: IntegrityTree,
    /// Resolved crypto backend every engine dispatches through.
    pub(crate) backend: CryptoBackend,
    /// The persistence policy driving this domain (what metadata is
    /// persisted when); `PersistencePolicy::for_scheme` layouts are the
    /// byte-identical baseline.
    pub(crate) policy: PersistencePolicy,
    /// Dynamic policy state: shadow root + write-amplification counters.
    pub(crate) policy_state: PolicyState,
    /// The keys of `golden` and `counters` written since the last sync
    /// with a twin (see [`snapshot_into`](Self::snapshot_into)).
    pub(crate) golden_log: ChangeLog<BlockAddr>,
    pub(crate) counter_log: ChangeLog<u64>,
}

impl std::fmt::Debug for PersistDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistDomain")
            .field("tree_kind", &self.tree_kind)
            .field("data_blocks", &self.nvm.data_block_count())
            .finish_non_exhaustive()
    }
}

impl PersistDomain {
    /// Builds the kernel, deriving the AES/MAC/tree keys from `key_seed`
    /// with the front's salts.  The tree folds lazily (DESIGN.md §11).
    pub(crate) fn new(
        keys: DomainKeys,
        tree_kind: TreeKind,
        bmt_levels: u32,
        backend_kind: CryptoBackendKind,
        key_seed: u64,
        policy: PersistencePolicy,
    ) -> Self {
        let mut aes_key = [0u8; 24];
        for (i, b) in aes_key.iter_mut().enumerate() {
            *b = (key_seed.rotate_left(i as u32) ^ (i as u64 * keys.aes_mult)) as u8;
        }
        let backend = resolve_backend(backend_kind);
        let mac_key = key_seed.to_le_bytes();
        let tree_key = (key_seed ^ keys.tree_xor).to_le_bytes();
        let mut tree = IntegrityTree::new(tree_kind, &tree_key, BMT_ARITY, bmt_levels);
        tree.set_backend(backend);
        tree.set_lazy(true);
        let mut otp_engine = OtpEngine::new(&aes_key);
        otp_engine.set_backend(backend);
        let mut mac_engine = BlockMac::new(&mac_key);
        mac_engine.set_backend(backend);
        PersistDomain {
            tree_kind,
            keys,
            seed: key_seed,
            bmt_levels,
            golden: FxHashMap::default(),
            counters: FxHashMap::default(),
            nvm: NvmStore::new(),
            otp_engine,
            mac_engine,
            tree,
            backend,
            policy,
            policy_state: PolicyState::default(),
            golden_log: ChangeLog::default(),
            counter_log: ChangeLog::default(),
        }
    }

    /// The persistence policy driving this domain.
    pub fn policy(&self) -> PersistencePolicy {
        self.policy
    }

    /// The policy's dynamic state (shadow root, write-amplification
    /// counters).
    pub fn policy_state(&self) -> &PolicyState {
        &self.policy_state
    }

    /// The architecturally-expected plaintext of a block (all stores
    /// applied).
    pub fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        self.golden.get(&block).copied().unwrap_or([0u8; 64])
    }

    /// Applies a store's architectural effect to the golden state.
    pub(crate) fn apply_store_golden(&mut self, access: Access) {
        let block = access.addr.block();
        let entry = self.golden.entry(block).or_insert([0u8; 64]);
        let off = access.addr.block_offset();
        let size = usize::from(access.size);
        entry[off..off + size].copy_from_slice(&access.value.to_le_bytes()[..size]);
        self.golden_log.note(block, self.golden.len());
    }

    /// Models the root persist that follows every leaf update by
    /// charging the policy's durable metadata traffic (selective node
    /// writes, shadow refreshes).  The charges are analytic, like the
    /// tree's hash counts.  The root register and the shadow root are
    /// written only by [`sync_root`](Self::sync_root): durable roots
    /// are only *read* at recovery, which always follows a sync.
    pub(crate) fn charge_root_persist(&mut self) {
        self.policy_state.leaf_persists += 1;
        self.policy_state.node_writes += self.policy.tree.node_writes_per_persist();
        if self.policy.counters == CounterLayout::Shadow {
            self.policy_state.shadow_writes += 1;
        }
    }

    /// Increments `block`'s logical counter.  On a minor-counter
    /// overflow the page's major counter bumps and its persisted blocks
    /// are re-encrypted under it ([`reencrypt_page`](Self::reencrypt_page))
    /// before the fresh counter is returned with a record of that work.
    pub(crate) fn increment_counter(
        &mut self,
        block: BlockAddr,
    ) -> (SplitCounter, Option<Reencryption>) {
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let cb = self.counters.entry(page).or_default();
        let overflow = cb.increment(slot) == IncrementOutcome::PageOverflow;
        let ctr = cb.counter_of(slot);
        let reencryption = if overflow {
            let fresh = cb.clone();
            Some(self.reencrypt_page(page, fresh))
        } else {
            None
        };
        self.counter_log.note(page, self.counters.len());
        (ctr, reencryption)
    }

    /// Whether the next [`increment_counter`](Self::increment_counter) of
    /// `block` overflows its page — where a drain burst must split, so
    /// the entries resolved under the old major persist before the page
    /// is re-encrypted.
    pub(crate) fn increment_overflows(&self, block: BlockAddr) -> bool {
        self.counters
            .get(&NvmStore::page_of(block))
            .is_some_and(|cb| cb.counter_of(NvmStore::page_slot_of(block)).minor == MINOR_MAX)
    }

    /// Page re-encryption after a minor-counter overflow (Section IV-A
    /// notes SecPB's once-per-dirty-block increments delay it): every
    /// persisted block of `page` is decrypted under the NVM counter
    /// block, re-encrypted and re-MACed under `new_cb` (the page's fresh
    /// logical counters), which is then persisted and folded into the
    /// page's leaf.  In-flight entries are the front's to refresh.
    fn reencrypt_page(&mut self, page: u64, new_cb: CounterBlock) -> Reencryption {
        let old_cb = self.nvm.read_counters(page);
        let blocks: Vec<BlockAddr> = self.nvm.page_blocks(page).collect();
        for &block in &blocks {
            let slot = NvmStore::page_slot_of(block);
            let old_ctr = old_cb.counter_of(slot);
            let new_ctr = new_cb.counter_of(slot);
            let pt = self
                .otp_engine
                .decrypt(&self.nvm.read_data(block), block.index(), old_ctr);
            let ct = self.otp_engine.encrypt(&pt, block.index(), new_ctr);
            let mac = self.mac_engine.compute(&ct, block.index(), new_ctr);
            self.nvm.write_data(block, ct);
            self.nvm.write_mac(block, mac.truncate_u64());
        }
        let digest = Sha512::digest(&new_cb.to_bytes());
        self.nvm.write_counters(page, new_cb);
        let tree_hashes = self.tree.update_leaf(page, digest);
        self.charge_root_persist();
        Reencryption {
            blocks: blocks.len() as u64,
            tree_hashes,
        }
    }

    /// Generates the pad and ciphertext `entry` did not carry early,
    /// under its resolved counter (Figure 4's data chain, at drain time).
    pub(crate) fn seal(&self, entry: &mut Entry) {
        debug_assert!(entry.valid.counter, "sealing requires a resolved counter");
        if !entry.valid.otp {
            entry.otp = self.otp_engine.generate(entry.block.index(), entry.counter);
            entry.valid.otp = true;
        }
        if !entry.valid.ciphertext {
            entry.ciphertext = OtpEngine::apply_pad(&entry.plaintext, &entry.otp);
            entry.valid.ciphertext = true;
        }
    }

    /// The drain kernel every SecPB front flushes through: persists a run
    /// of entries whose counters and ciphertexts are resolved (see
    /// [`seal`](Self::seal)), returning each entry's BMT node-hash
    /// charge.  The run's block MACs are computed in one multi-lane
    /// dispatch and its counter digests in another; everything stateful
    /// — NVM writes, counter blocks, tree leaves — runs per entry in
    /// drain order, so the durable state is byte-identical to persisting
    /// the entries one at a time.
    pub(crate) fn flush_resolved(&mut self, entries: &[Entry]) -> Vec<u64> {
        debug_assert!(
            entries
                .iter()
                .all(|e| e.valid.counter && e.valid.ciphertext),
            "the drain kernel requires resolved counters and ciphertexts"
        );
        let mut tags = Vec::with_capacity(entries.len());
        {
            let refs: Vec<(&[u8; 64], u64, SplitCounter)> = entries
                .iter()
                .map(|e| (&e.ciphertext, e.block.index(), e.counter))
                .collect();
            self.mac_engine.compute_truncated_batch(&refs, &mut tags);
        }
        // Pass 1, in drain order: data/MAC/counter writes, snapshotting
        // each entry's post-write counter block.  A later same-page entry
        // reads the earlier one's update exactly as a one-at-a-time flush
        // would.
        let mut pages: Vec<(u64, [u8; 64])> = Vec::with_capacity(entries.len());
        for (entry, &tag64) in entries.iter().zip(&tags) {
            let block = entry.block;
            self.nvm.write_data(block, entry.ciphertext);
            self.nvm.write_mac(block, tag64);
            let counters = self.nvm.set_counter(block, entry.counter);
            pages.push((NvmStore::page_of(block), counters));
        }
        let mut digests = Vec::with_capacity(pages.len());
        let msgs: Vec<&[u8; 64]> = pages.iter().map(|(_, bytes)| bytes).collect();
        digest64_batch(&self.backend, &msgs, &mut digests);
        // Pass 2, in drain order: leaf updates against the snapshotted
        // digests.  Same-page entries update the leaf once per entry with
        // the same digest sequence as one-at-a-time flushing, so the final
        // tree state and per-entry hash counts are identical.
        pages
            .iter()
            .zip(&digests)
            .map(|(&(page, _), &digest)| {
                let hashes = self.tree.update_leaf(page, digest);
                self.charge_root_persist();
                hashes
            })
            .collect()
    }

    /// Persists a block's full tuple from the golden state with an
    /// already-incremented counter — the per-store kernel shared by the
    /// SP baseline and the eADR writeback path.  Returns the BMT hashes
    /// charged by the leaf update.
    pub(crate) fn persist_with_counter(&mut self, block: BlockAddr, ctr: SplitCounter) -> u64 {
        let pt = self.golden.get(&block).copied().unwrap_or([0u8; 64]);
        let ct = self.otp_engine.encrypt(&pt, block.index(), ctr);
        let mac = self.mac_engine.compute(&ct, block.index(), ctr);
        self.nvm.write_data(block, ct);
        self.nvm.write_mac(block, mac.truncate_u64());
        let digest = Sha512::digest(&self.nvm.set_counter(block, ctr));
        let hashes = self.tree.update_leaf(NvmStore::page_of(block), digest);
        self.charge_root_persist();
        hashes
    }

    /// [`persist_with_counter`](Self::persist_with_counter) preceded by an
    /// overflow-aware counter increment (the eADR tuple-persist kernel).
    pub(crate) fn persist_block(&mut self, block: BlockAddr) -> u64 {
        let (ctr, _) = self.increment_counter(block);
        self.persist_with_counter(block, ctr)
    }

    /// Folds all deferred integrity-tree work; persists the root when
    /// `persist` is set (the fronts gate this on scheme security).
    /// Returns the analytic hash count charged to the sec-sync gap.
    pub(crate) fn sync_root(&mut self, persist: bool) -> u64 {
        let sync_hashes = self.tree.sync();
        if persist {
            self.nvm.set_bmt_root(self.tree.root());
            if self.policy.counters == CounterLayout::Shadow {
                self.policy_state.shadow_root = Some(self.tree.root());
            }
        }
        sync_hashes
    }

    /// The durable tree frontier a [`TreePersistence::Levels`] policy
    /// keeps online, plus the root it folds to and the hashes that fold
    /// costs.  An observation point: callers sync first (every recovery
    /// path does).  `None` under the root-only baseline or on forests.
    pub(crate) fn persisted_frontier(&self) -> Option<PersistedFrontier> {
        let TreePersistence::Levels(n) = self.policy.tree else {
            return None;
        };
        let frontier_level = u32::from(n) - 1;
        let nodes = self.tree.level_nodes(frontier_level)?;
        let (root, fold_hashes) = self.tree.root_from_level(frontier_level, &nodes)?;
        Some(PersistedFrontier {
            nodes,
            root,
            fold_hashes,
        })
    }

    /// Appends the domain's dynamic state — golden image, logical
    /// counters (both in sorted key order), NVM store, and integrity
    /// tree — to a checkpoint.  The crypto engines are pure functions of
    /// the construction scalars and are rebuilt, not serialised.
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        let mut golden: Vec<_> = self.golden.iter().collect();
        golden.sort_by_key(|(b, _)| b.index());
        w.usize(golden.len());
        for (block, bytes) in golden {
            w.u64(block.index());
            w.raw(bytes);
        }
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by_key(|&(page, _)| *page);
        w.usize(counters.len());
        for (page, cb) in counters {
            w.u64(*page);
            w.raw(&cb.to_bytes());
        }
        self.nvm.encode_into(w);
        self.tree.encode_into(w);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into) onto
    /// a domain constructed with the same scalars (salts, tree kind,
    /// backend, key seed).
    pub(crate) fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.seq_len(8 + 64)?;
        let mut golden = FxHashMap::default();
        for _ in 0..n {
            let block = BlockAddr(r.u64()?);
            golden.insert(block, r.array::<64>()?);
        }
        let n = r.seq_len(8 + 64)?;
        let mut counters = FxHashMap::default();
        for _ in 0..n {
            let page = r.u64()?;
            let bytes = r.array::<64>()?;
            counters.insert(page, CounterBlock::from_bytes(&bytes));
        }
        let nvm = NvmStore::decode_from(r)?;
        self.tree.restore_from(r)?;
        self.golden = golden;
        self.counters = counters;
        self.nvm = nvm;
        self.golden_log.saturate();
        self.counter_log.saturate();
        Ok(())
    }

    /// Makes `twin`'s dynamic state — exactly what
    /// [`encode_into`](Self::encode_into) captures, plus the policy
    /// state — equal to this domain's, and starts a new sync interval.
    /// With `incremental`, the golden image, the logical counters and
    /// the NVM image copy only the entries written since the last sync,
    /// which requires `twin` to have matched this domain then and to be
    /// unchanged since.  The tree and the policy state are copied whole.
    /// Both domains must be built from the same scalars; the crypto
    /// engines are left alone.
    pub(crate) fn snapshot_into(&mut self, twin: &mut PersistDomain, incremental: bool) {
        self.golden_log
            .sync(&mut twin.golden, &self.golden, incremental);
        self.counter_log
            .sync(&mut twin.counters, &self.counters, incremental);
        self.nvm.snapshot_into(&mut twin.nvm, incremental);
        twin.tree.clone_from(&self.tree);
        twin.policy_state.clone_from(&self.policy_state);
    }

    /// Makes this domain's dynamic state equal to `twin`'s again, under
    /// the contract of [`snapshot_into`](Self::snapshot_into).
    pub(crate) fn rewind_to(&mut self, twin: &PersistDomain, incremental: bool) {
        self.golden_log
            .sync(&mut self.golden, &twin.golden, incremental);
        self.counter_log
            .sync(&mut self.counters, &twin.counters, incremental);
        self.nvm.rewind_to(&twin.nvm, incremental);
        self.tree.clone_from(&twin.tree);
        self.policy_state.clone_from(&twin.policy_state);
    }

    /// A fresh integrity tree keyed like this domain's, for the recovery
    /// rebuild.
    pub(crate) fn rebuilt_tree(&self) -> IntegrityTree {
        let tree_key = (self.seed ^ self.keys.tree_xor).to_le_bytes();
        let mut rebuilt = IntegrityTree::new(self.tree_kind, &tree_key, BMT_ARITY, self.bmt_levels);
        rebuilt.set_backend(self.backend);
        rebuilt.set_lazy(true);
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::addr::Address;

    #[test]
    fn front_salts_are_distinct() {
        let salts = [DomainKeys::SECPB, DomainKeys::EADR, DomainKeys::MULTI_CORE];
        for (i, a) in salts.iter().enumerate() {
            for b in &salts[i + 1..] {
                assert_ne!(a, b, "fronts must not share a persisted key space");
            }
        }
    }

    #[test]
    fn drain_kernel_persists_a_sealed_entry() {
        let mut d = PersistDomain::new(
            DomainKeys::SECPB,
            TreeKind::Monolithic,
            8,
            CryptoBackendKind::Auto,
            7,
            PersistencePolicy::default(),
        );
        let block = Address(0x1000).block();
        d.golden.insert(block, [3u8; 64]);
        let mut entry = Entry::new(block, secpb_sim::addr::Asid(0), [3u8; 64], 0);
        (entry.counter, _) = d.increment_counter(block);
        entry.valid.counter = true;
        d.seal(&mut entry);
        assert!(entry.valid.otp && entry.valid.ciphertext);
        assert_eq!(d.flush_resolved(std::slice::from_ref(&entry)).len(), 1);
        let ctr = d
            .nvm
            .read_counters(NvmStore::page_of(block))
            .counter_of(NvmStore::page_slot_of(block));
        assert_eq!(ctr, entry.counter);
        assert_eq!(
            d.otp_engine
                .decrypt(&d.nvm.read_data(block), block.index(), ctr),
            [3u8; 64]
        );
        assert!(d.mac_engine.verify_truncated(
            &d.nvm.read_data(block),
            block.index(),
            ctr,
            d.nvm.read_mac(block)
        ));
    }

    #[test]
    fn an_incremental_rewind_undoes_a_golden_resync() {
        let build = || {
            PersistDomain::new(
                DomainKeys::SECPB,
                TreeKind::Monolithic,
                8,
                CryptoBackendKind::Auto,
                7,
                PersistencePolicy::default(),
            )
        };
        let (mut d, mut twin) = (build(), build());
        for i in 0..8 {
            d.apply_store_golden(Access::store(Address(0x10_0000 + i * 64), i));
        }
        let (persisted, lost) = (Address(0x1000), Address(0x2000));
        d.apply_store_golden(Access::store(persisted, 5));
        d.persist_block(persisted.block());
        d.apply_store_golden(Access::store(persisted, 9));
        d.apply_store_golden(Access::store(lost, 6));
        d.snapshot_into(&mut twin, false);
        // The persisted block reads back its durable value, the lost one
        // leaves the golden map: both writes must reach the rewind.
        d.resync_lost(&[persisted.block(), lost.block()], true);
        assert_ne!(d.golden, twin.golden);
        d.rewind_to(&twin, true);
        assert_eq!(d.golden, twin.golden);
    }

    #[test]
    fn persist_block_round_trips_through_decrypt() {
        let mut d = PersistDomain::new(
            DomainKeys::EADR,
            TreeKind::Monolithic,
            8,
            CryptoBackendKind::Auto,
            42,
            PersistencePolicy::default(),
        );
        let block = Address(0x2000).block();
        d.golden.insert(block, [9u8; 64]);
        d.persist_block(block);
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let ctr = d.nvm.read_counters(page).counter_of(slot);
        let pt = d
            .otp_engine
            .decrypt(&d.nvm.read_data(block), block.index(), ctr);
        assert_eq!(pt, [9u8; 64]);
    }
}
