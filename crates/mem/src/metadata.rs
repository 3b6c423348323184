//! The volatile metadata caches at the memory controller.
//!
//! Table I gives the SecPB system three separate 128 KB, 8-way metadata
//! caches: one for counters, one for MACs, and one for BMT nodes.  Misses
//! fetch the metadata block from the NVM.  Metadata lives in reserved
//! regions of the physical address space; this module assigns each species
//! a disjoint block-number base so the caches and the NVM banking model
//! see distinct addresses.
//!
//! These caches are *volatile*: what survives a crash is decided one
//! layer up by the persistence policy (`secpb-core`'s `policy` module,
//! DESIGN.md §18) — root-only baselines rebuild everything the caches
//! held from the NVM counter region, while Triad-NVM depths and the
//! fast-recovery shadow layout persist more of it eagerly and charge
//! the extra traffic to the policy's analytic write-amp counters.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::CacheConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::cache::{Cache, LineState};
use crate::nvm::NvmTiming;

/// Block-number base of the counter metadata region.
pub const COUNTER_REGION_BASE: u64 = 1 << 40;
/// Block-number base of the MAC metadata region.
pub const MAC_REGION_BASE: u64 = 2 << 40;
/// Block-number base of the BMT node metadata region.
pub const BMT_REGION_BASE: u64 = 3 << 40;

/// Which metadata species an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataKind {
    /// Split-counter blocks (one per 4 KB encryption page).
    Counter,
    /// Per-block truncated MACs (eight per 64-byte MAC block).
    Mac,
    /// Interior BMT nodes.
    BmtNode,
}

/// Outcome of a metadata access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataAccess {
    /// Whether the metadata cache hit.
    pub hit: bool,
    /// Cycle at which the metadata is available.
    pub done: Cycle,
}

/// The three metadata caches plus their hit/miss bookkeeping.
///
/// # Example
///
/// ```
/// use secpb_mem::metadata::{MetadataCaches, MetadataKind};
/// use secpb_mem::nvm::NvmTiming;
/// use secpb_sim::config::{NvmConfig, SystemConfig};
/// use secpb_sim::cycle::Cycle;
///
/// let cfg = SystemConfig::default();
/// let mut nvm = NvmTiming::new(NvmConfig::default());
/// let mut md = MetadataCaches::new(&cfg);
/// let first = md.access(MetadataKind::Counter, 7, false, Cycle(0), &mut nvm);
/// assert!(!first.hit); // cold miss goes to NVM
/// let again = md.access(MetadataKind::Counter, 7, true, first.done, &mut nvm);
/// assert!(again.hit);
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCaches {
    counter: Cache,
    mac: Cache,
    bmt: Cache,
}

impl MetadataCaches {
    /// Creates the three caches from the system configuration.
    pub fn new(cfg: &secpb_sim::config::SystemConfig) -> Self {
        MetadataCaches {
            counter: Cache::new(cfg.counter_cache),
            mac: Cache::new(cfg.mac_cache),
            bmt: Cache::new(cfg.bmt_cache),
        }
    }

    /// Creates the caches from explicit geometries (for sweeps).
    pub fn with_configs(counter: CacheConfig, mac: CacheConfig, bmt: CacheConfig) -> Self {
        MetadataCaches {
            counter: Cache::new(counter),
            mac: Cache::new(mac),
            bmt: Cache::new(bmt),
        }
    }

    fn cache_mut(&mut self, kind: MetadataKind) -> &mut Cache {
        match kind {
            MetadataKind::Counter => &mut self.counter,
            MetadataKind::Mac => &mut self.mac,
            MetadataKind::BmtNode => &mut self.bmt,
        }
    }

    /// The cache for one species (immutable, for statistics).
    pub fn cache(&self, kind: MetadataKind) -> &Cache {
        match kind {
            MetadataKind::Counter => &self.counter,
            MetadataKind::Mac => &self.mac,
            MetadataKind::BmtNode => &self.bmt,
        }
    }

    /// The NVM block address of metadata element `index` of `kind`.
    pub fn region_block(kind: MetadataKind, index: u64) -> BlockAddr {
        let base = match kind {
            MetadataKind::Counter => COUNTER_REGION_BASE,
            MetadataKind::Mac => MAC_REGION_BASE,
            MetadataKind::BmtNode => BMT_REGION_BASE,
        };
        BlockAddr(base + index)
    }

    /// Accesses metadata element `index` of `kind` at cycle `now`.
    ///
    /// A hit costs the cache's access latency; a miss additionally fetches
    /// the block from NVM.  `write` marks the line dirty in the
    /// *persist-dirty* sense: metadata whose durability the SecPB flow
    /// guarantees is silently discarded on eviction (Section IV-C(a)).
    pub fn access(
        &mut self,
        kind: MetadataKind,
        index: u64,
        write: bool,
        now: Cycle,
        nvm: &mut NvmTiming,
    ) -> MetadataAccess {
        let block = Self::region_block(kind, index);
        let cache = self.cache_mut(kind);
        let hit_latency = cache.config().access_latency;
        let state = if write {
            LineState::PersistDirty
        } else {
            LineState::Clean
        };
        let outcome = cache.access(block, state);
        if outcome.hit {
            MetadataAccess {
                hit: true,
                done: now + hit_latency,
            }
        } else {
            // Persist-dirty/clean evictions are silent; a plain Dirty
            // eviction (only possible via mark_dirty) writes back.
            let mut done = now + hit_latency;
            if let Some((victim, st)) = outcome.evicted {
                if st.needs_writeback() {
                    nvm.write(victim, done);
                }
            }
            done = nvm.read(block, done);
            MetadataAccess { hit: false, done }
        }
    }

    /// Invalidates a metadata element (used when the SecPB migrates or
    /// drains metadata so a future miss re-fetches the updated value, per
    /// Section IV-C(a)).
    pub fn invalidate(&mut self, kind: MetadataKind, index: u64) {
        let block = Self::region_block(kind, index);
        self.cache_mut(kind).invalidate(block);
    }

    /// Drops all metadata cache contents (volatile caches across a power
    /// cycle).
    pub fn clear(&mut self) {
        self.counter.clear();
        self.mac.clear();
        self.bmt.clear();
    }

    /// Makes `twin` equal to these caches species by species (see
    /// [`Cache::snapshot_into`]) and starts a new sync interval.
    pub fn snapshot_into(&mut self, twin: &mut MetadataCaches, incremental: bool) {
        self.counter.snapshot_into(&mut twin.counter, incremental);
        self.mac.snapshot_into(&mut twin.mac, incremental);
        self.bmt.snapshot_into(&mut twin.bmt, incremental);
    }

    /// Makes these caches equal to `twin` again (see
    /// [`Cache::rewind_to`]).
    pub fn rewind_to(&mut self, twin: &MetadataCaches, incremental: bool) {
        self.counter.rewind_to(&twin.counter, incremental);
        self.mac.rewind_to(&twin.mac, incremental);
        self.bmt.rewind_to(&twin.bmt, incremental);
    }

    /// Appends all three species' caches to a checkpoint.  Restore
    /// requires caches built with the same geometries.
    pub fn encode_into(&self, w: &mut WireWriter) {
        self.counter.encode_into(w);
        self.mac.encode_into(w);
        self.bmt.encode_into(w);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Fails on geometry mismatch or truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.counter.restore_from(r)?;
        self.mac.restore_from(r)?;
        self.bmt.restore_from(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::config::{NvmConfig, SystemConfig};

    fn setup() -> (MetadataCaches, NvmTiming) {
        (
            MetadataCaches::new(&SystemConfig::default()),
            NvmTiming::new(NvmConfig::default()),
        )
    }

    #[test]
    fn regions_are_disjoint() {
        let c = MetadataCaches::region_block(MetadataKind::Counter, 5);
        let m = MetadataCaches::region_block(MetadataKind::Mac, 5);
        let b = MetadataCaches::region_block(MetadataKind::BmtNode, 5);
        assert_ne!(c, m);
        assert_ne!(c, b);
        assert_ne!(m, b);
    }

    #[test]
    fn cold_miss_pays_nvm_read() {
        let (mut md, mut nvm) = setup();
        let a = md.access(MetadataKind::Counter, 0, false, Cycle(0), &mut nvm);
        assert!(!a.hit);
        // 2-cycle cache access + 220-cycle NVM read.
        assert_eq!(a.done, Cycle(222));
    }

    #[test]
    fn hit_pays_cache_latency_only() {
        let (mut md, mut nvm) = setup();
        let miss = md.access(MetadataKind::Mac, 3, false, Cycle(0), &mut nvm);
        let hit = md.access(MetadataKind::Mac, 3, false, miss.done, &mut nvm);
        assert!(hit.hit);
        assert_eq!(hit.done, miss.done + 2);
    }

    #[test]
    fn species_do_not_alias() {
        let (mut md, mut nvm) = setup();
        md.access(MetadataKind::Counter, 9, false, Cycle(0), &mut nvm);
        let other = md.access(MetadataKind::BmtNode, 9, false, Cycle(0), &mut nvm);
        assert!(!other.hit, "BMT index 9 must not hit the counter line 9");
    }

    #[test]
    fn invalidate_forces_refetch() {
        let (mut md, mut nvm) = setup();
        md.access(MetadataKind::Counter, 1, true, Cycle(0), &mut nvm);
        md.invalidate(MetadataKind::Counter, 1);
        let again = md.access(MetadataKind::Counter, 1, false, Cycle(1000), &mut nvm);
        assert!(!again.hit);
    }

    #[test]
    fn clear_empties_all_species() {
        let (mut md, mut nvm) = setup();
        for kind in [
            MetadataKind::Counter,
            MetadataKind::Mac,
            MetadataKind::BmtNode,
        ] {
            md.access(kind, 0, true, Cycle(0), &mut nvm);
        }
        md.clear();
        for kind in [
            MetadataKind::Counter,
            MetadataKind::Mac,
            MetadataKind::BmtNode,
        ] {
            assert_eq!(md.cache(kind).occupancy(), 0);
        }
    }

    #[test]
    fn write_lines_evict_silently() {
        // Fill one set far beyond associativity with persist-dirty lines:
        // no NVM writes should be issued for the evictions.
        let (mut md, mut nvm) = setup();
        let sets = md.cache(MetadataKind::Counter).config().sets() as u64;
        let ways = md.cache(MetadataKind::Counter).config().ways as u64;
        let writes_before = nvm.stats().writes;
        for i in 0..(ways + 4) {
            md.access(MetadataKind::Counter, i * sets, true, Cycle(0), &mut nvm);
        }
        assert_eq!(
            nvm.stats().writes,
            writes_before,
            "persist-dirty evictions are silent"
        );
    }
}
