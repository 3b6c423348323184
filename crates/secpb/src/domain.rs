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
//! Each front keeps its historical key-derivation salts (a
//! [`DomainKeys`]) so the refactor is bit-identical to the three
//! hand-written implementations it replaces.

use secpb_crypto::backend::CryptoBackend;
use secpb_crypto::counter::{CounterBlock, SplitCounter};
use secpb_crypto::mac::BlockMac;
use secpb_crypto::memo::DigestMemo;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::{Digest, Sha512};
use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;
use secpb_sim::config::{CryptoBackendKind, MetadataMode};
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
        CryptoBackendKind::MultiBlock => CryptoBackend::MultiBlock,
        CryptoBackendKind::Hw => CryptoBackend::HwCrypto,
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

/// What a `PersistDomain::flush_entry` call actually computed, so each
/// front can translate the work into its own statistics namespace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushRecord {
    /// The entry arrived without a valid counter; the kernel incremented
    /// the logical counter (raw, no overflow handling).
    pub counter_incremented: bool,
    /// The OTP was generated at flush time (was not carried early).
    pub otp_generated: bool,
    /// The ciphertext was generated at flush time.
    pub ciphertext_generated: bool,
    /// The MAC was computed at flush time.
    pub mac_generated: bool,
    /// BMT node hashes charged by the leaf update.
    pub tree_hashes: u64,
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
    pub(crate) mode: MetadataMode,
    /// Resolved crypto backend every engine dispatches through.
    pub(crate) backend: CryptoBackend,
    pub(crate) ctr_digests: DigestMemo,
    /// The persistence policy driving this domain (what metadata is
    /// persisted when); `PersistencePolicy::for_scheme` layouts are the
    /// byte-identical baseline.
    pub(crate) policy: PersistencePolicy,
    /// Dynamic policy state: shadow root + write-amplification counters.
    pub(crate) policy_state: PolicyState,
}

impl std::fmt::Debug for PersistDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistDomain")
            .field("tree_kind", &self.tree_kind)
            .field("mode", &self.mode)
            .field("data_blocks", &self.nvm.data_block_count())
            .finish_non_exhaustive()
    }
}

impl PersistDomain {
    /// Builds the kernel, deriving the AES/MAC/tree keys from `key_seed`
    /// with the front's salts.
    pub(crate) fn new(
        keys: DomainKeys,
        tree_kind: TreeKind,
        bmt_levels: u32,
        mode: MetadataMode,
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
        let mut otp_engine = OtpEngine::new(&aes_key);
        otp_engine.set_backend(backend);
        let mut mac_engine = BlockMac::new(&mac_key);
        mac_engine.set_backend(backend);
        if mode == MetadataMode::Lazy {
            tree.set_lazy(true);
            otp_engine.enable_pad_cache(secpb_crypto::memo::DEFAULT_CAPACITY);
        }
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
            mode,
            backend,
            ctr_digests: DigestMemo::new(secpb_crypto::memo::DEFAULT_CAPACITY),
            policy,
            policy_state: PolicyState::default(),
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
    }

    /// The SHA-512 digest of a counter block, memoized in lazy mode.
    pub(crate) fn counter_digest(&self, page: u64, cb: &CounterBlock) -> Digest {
        let bytes = cb.to_bytes();
        match self.mode {
            MetadataMode::Eager => Sha512::digest(&bytes),
            MetadataMode::Lazy => self.ctr_digests.digest(page, &bytes),
        }
    }

    /// Batched [`counter_digest`](Self::counter_digest): every miss in
    /// the burst rides one multi-lane hash dispatch.  Bit-identical
    /// digests to the per-item path.
    pub(crate) fn counter_digest_batch(&self, items: &[(u64, [u8; 64])], out: &mut Vec<Digest>) {
        match self.mode {
            MetadataMode::Eager => {
                let msgs: Vec<&[u8; 64]> = items.iter().map(|(_, bytes)| bytes).collect();
                secpb_crypto::sha512::digest64_batch(&self.backend, &msgs, out);
            }
            MetadataMode::Lazy => self.ctr_digests.digest_batch(&self.backend, items, out),
        }
    }

    /// Combined hit/miss/eviction counters of the domain's memo caches
    /// (the lazy engine's OTP pad cache and counter-digest memo).
    pub fn memo_stats(&self) -> secpb_crypto::memo::MemoStats {
        let pads = self
            .otp_engine
            .pad_cache()
            .map(|c| c.stats())
            .unwrap_or_default();
        pads.merged(self.ctr_digests.stats())
    }

    /// Persists the tree root into NVM after a leaf update, charging the
    /// policy's durable metadata traffic (selective node writes, shadow
    /// refreshes).  The lazy engine skips the register writes: durable
    /// roots are only *read* at recovery, which always follows a
    /// [`sync_root`](Self::sync_root).  The policy counters are analytic
    /// — charged identically in both modes, like the tree's hash counts.
    pub(crate) fn persist_root(&mut self) {
        self.policy_state.leaf_persists += 1;
        self.policy_state.node_writes += self.policy.tree.node_writes_per_persist();
        if self.policy.counters == CounterLayout::Shadow {
            self.policy_state.shadow_writes += 1;
        }
        if self.mode == MetadataMode::Eager {
            self.nvm.set_bmt_root(self.tree.root());
            if self.policy.counters == CounterLayout::Shadow {
                self.policy_state.shadow_root = Some(self.tree.root());
            }
        }
    }

    /// Raw logical-counter increment (no page-overflow handling — the
    /// eADR and multi-core fronts never re-encrypt; the single-core
    /// pipeline layers overflow handling on top in
    /// `SecureSystem::increment_logical`).
    pub(crate) fn increment_raw(&mut self, block: BlockAddr) -> SplitCounter {
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let cb = self.counters.entry(page).or_default();
        cb.increment(slot);
        cb.counter_of(slot)
    }

    /// Applies an entry's full memory-tuple update to the durable state —
    /// the drain-completion kernel shared by the SecPB fronts.
    ///
    /// With `secure == false` (the insecure `bbb` baseline) only the data
    /// block moves.  Otherwise any metadata the entry did not carry early
    /// is generated here; the returned [`FlushRecord`] says what was.
    pub(crate) fn flush_entry(&mut self, mut entry: Entry, secure: bool) -> FlushRecord {
        let block = entry.block;
        if !secure {
            self.nvm.write_data(block, entry.plaintext);
            return FlushRecord::default();
        }
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let mut rec = FlushRecord::default();

        if !entry.valid.counter {
            entry.counter = self.increment_raw(block);
            entry.valid.counter = true;
            rec.counter_incremented = true;
        }
        let ctr = entry.counter;
        let pad = if entry.valid.otp {
            entry.otp
        } else {
            rec.otp_generated = true;
            self.otp_engine.generate(block.index(), ctr)
        };
        let ct = if entry.valid.ciphertext {
            entry.ciphertext
        } else {
            rec.ciphertext_generated = true;
            OtpEngine::apply_pad(&entry.plaintext, &pad)
        };
        let mac = match entry.mac {
            Some(m) if entry.valid.mac => m,
            _ => {
                // `mac_generated` reports whether the *modeled* MAC unit
                // ran at drain; with `valid.mac` set the unit already ran
                // early and only the host-side tag was deferred here.
                rec.mac_generated = !entry.valid.mac;
                self.mac_engine.compute(&ct, block.index(), ctr)
            }
        };

        self.nvm.write_data(block, ct);
        self.nvm.write_mac(block, mac.truncate_u64());
        let mut cb = self.nvm.read_counters(page);
        cb.set_counter(slot, ctr);
        self.nvm.write_counters(page, cb.clone());
        let digest = self.counter_digest(page, &cb);
        rec.tree_hashes = self.tree.update_leaf(page, digest);
        self.persist_root();
        rec
    }

    /// Flushes a run of entries whose counter and ciphertext are already
    /// valid, computing the (stateless) block MACs in one multi-lane
    /// batch instead of one HMAC per entry.  Everything stateful — NVM
    /// writes, counter blocks, digests, tree leaves — still runs
    /// per-entry in input order, so the result is byte-identical to
    /// calling [`flush_entry`](Self::flush_entry) on each entry in turn.
    pub(crate) fn flush_ready_batch(&mut self, entries: &[Entry]) -> Vec<FlushRecord> {
        debug_assert!(
            entries
                .iter()
                .all(|e| e.valid.counter && e.valid.ciphertext),
            "batched flush requires resolved counters and ciphertexts"
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
        // reads the earlier one's update exactly as the sequential path
        // would.
        let mut pages: Vec<(u64, [u8; 64])> = Vec::with_capacity(entries.len());
        for (entry, &tag64) in entries.iter().zip(&tags) {
            let block = entry.block;
            let page = NvmStore::page_of(block);
            let slot = NvmStore::page_slot_of(block);
            self.nvm.write_data(block, entry.ciphertext);
            self.nvm.write_mac(block, tag64);
            let mut cb = self.nvm.read_counters(page);
            cb.set_counter(slot, entry.counter);
            self.nvm.write_counters(page, cb.clone());
            pages.push((page, cb.to_bytes()));
        }
        // One multi-lane dispatch covers every counter digest the burst
        // needs; memo lookups and inserts stay in drain order.
        let mut digests = Vec::with_capacity(pages.len());
        self.counter_digest_batch(&pages, &mut digests);
        // Pass 2, in drain order: leaf updates against the snapshotted
        // digests.  Same-page entries update the leaf once per entry with
        // the same digest sequence as sequential flushing, so the final
        // tree state and per-entry hash counts are identical.
        entries
            .iter()
            .zip(&digests)
            .map(|(entry, &digest)| {
                let mut rec = FlushRecord {
                    mac_generated: !entry.valid.mac,
                    ..FlushRecord::default()
                };
                let page = NvmStore::page_of(entry.block);
                rec.tree_hashes = self.tree.update_leaf(page, digest);
                self.persist_root();
                rec
            })
            .collect()
    }

    /// Persists a block's full tuple from the golden state with an
    /// already-incremented counter — the per-store kernel shared by the
    /// SP baseline and the eADR writeback path.  Returns the BMT hashes
    /// charged by the leaf update.
    pub(crate) fn persist_with_counter(&mut self, block: BlockAddr, ctr: SplitCounter) -> u64 {
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let pt = self.golden.get(&block).copied().unwrap_or([0u8; 64]);
        let ct = self.otp_engine.encrypt(&pt, block.index(), ctr);
        let mac = self.mac_engine.compute(&ct, block.index(), ctr);
        self.nvm.write_data(block, ct);
        self.nvm.write_mac(block, mac.truncate_u64());
        let mut cb = self.nvm.read_counters(page);
        cb.set_counter(slot, ctr);
        self.nvm.write_counters(page, cb.clone());
        let digest = self.counter_digest(page, &cb);
        let hashes = self.tree.update_leaf(page, digest);
        self.persist_root();
        hashes
    }

    /// [`persist_with_counter`](Self::persist_with_counter) preceded by a
    /// raw counter increment (the eADR tuple-persist kernel).
    pub(crate) fn persist_block(&mut self, block: BlockAddr) -> u64 {
        let ctr = self.increment_raw(block);
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
    /// the construction scalars and are rebuilt, not serialised; the
    /// memo caches are host-side accelerators whose contents never reach
    /// any digested output, so [`restore_from`](Self::restore_from)
    /// simply clears them.
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
    /// metadata mode, backend, key seed).
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
        self.clear_memos();
        Ok(())
    }

    /// Overwrites this domain's dynamic state — exactly what
    /// [`encode_into`](Self::encode_into) captures, plus the policy
    /// state — with `src`'s, reusing this domain's hash tables.  Both
    /// domains must be built from the same scalars; the crypto engines
    /// and memo caches are left alone.
    pub(crate) fn refresh_from(&mut self, src: &PersistDomain) {
        self.golden.clone_from(&src.golden);
        self.counters.clone_from(&src.counters);
        self.nvm.clone_from(&src.nvm);
        self.tree.clone_from(&src.tree);
        self.policy_state.clone_from(&src.policy_state);
    }

    /// Empties the memo caches (after a restore or rewind their keys
    /// may name a state the system no longer holds).
    pub(crate) fn clear_memos(&self) {
        self.ctr_digests.clear();
        if let Some(pads) = self.otp_engine.pad_cache() {
            pads.clear();
        }
    }

    /// A fresh integrity tree keyed like this domain's, for the recovery
    /// rebuild.
    pub(crate) fn rebuilt_tree(&self) -> IntegrityTree {
        let tree_key = (self.seed ^ self.keys.tree_xor).to_le_bytes();
        let mut rebuilt = IntegrityTree::new(self.tree_kind, &tree_key, BMT_ARITY, self.bmt_levels);
        rebuilt.set_backend(self.backend);
        if self.mode == MetadataMode::Lazy {
            rebuilt.set_lazy(true);
        }
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
    fn flush_record_reports_late_work() {
        let mut d = PersistDomain::new(
            DomainKeys::SECPB,
            TreeKind::Monolithic,
            8,
            MetadataMode::Eager,
            CryptoBackendKind::Auto,
            7,
            PersistencePolicy::default(),
        );
        let block = Address(0x1000).block();
        d.golden.insert(block, [3u8; 64]);
        let entry = Entry::new(block, secpb_sim::addr::Asid(0), [3u8; 64], 0);
        let rec = d.flush_entry(entry, true);
        assert!(rec.counter_incremented && rec.otp_generated);
        assert!(rec.ciphertext_generated && rec.mac_generated);
        // Insecure flush does no metadata work at all.
        let entry = Entry::new(block, secpb_sim::addr::Asid(0), [3u8; 64], 0);
        assert_eq!(d.flush_entry(entry, false), FlushRecord::default());
    }

    #[test]
    fn persist_block_round_trips_through_decrypt() {
        let mut d = PersistDomain::new(
            DomainKeys::EADR,
            TreeKind::Monolithic,
            8,
            MetadataMode::Lazy,
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
