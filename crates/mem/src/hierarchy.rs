//! The three-level data-cache hierarchy (Table I: 64 KB L1 / 512 KB L2 /
//! 4 MB L3, all 64-byte blocks).
//!
//! The hierarchy is a timing filter in front of the NVM: it reports where
//! an access hit, the latency of reaching that level, and any write-backs
//! the access caused.  Persist-dirty lines (blocks whose durability the
//! SecPB already guarantees) propagate down the hierarchy on eviction but
//! are silently discarded when they leave the LLC, per Section IV-C(a) of
//! the paper.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::tracer::{Phase, Tracer};
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::cache::{Cache, LineState};

/// The level at which an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// L2 cache.
    L2,
    /// Last-level cache.
    L3,
    /// Missed everywhere; the caller charges an NVM read.
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the access was satisfied.
    pub hit_level: HitLevel,
    /// Cycles spent traversing cache levels (excludes any NVM latency,
    /// which the caller charges for `HitLevel::Memory`).
    pub latency: u64,
    /// Blocks that must be written back to NVM (truly-dirty LLC victims).
    pub writebacks: Vec<BlockAddr>,
}

/// Per-level access counts accumulated by the hierarchy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses satisfied by the L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the L2.
    pub l2_hits: u64,
    /// Accesses satisfied by the LLC.
    pub l3_hits: u64,
    /// Accesses that missed every level.
    pub memory_accesses: u64,
    /// Truly-dirty LLC victims handed back for NVM write-back.
    pub writebacks: u64,
}

impl HierarchyStats {
    fn note(&mut self, outcome: &HierarchyOutcome) {
        match outcome.hit_level {
            HitLevel::L1 => self.l1_hits += 1,
            HitLevel::L2 => self.l2_hits += 1,
            HitLevel::L3 => self.l3_hits += 1,
            HitLevel::Memory => self.memory_accesses += 1,
        }
        self.writebacks += outcome.writebacks.len() as u64;
    }
}

/// The L1/L2/L3 stack.
///
/// # Example
///
/// ```
/// use secpb_mem::hierarchy::{Hierarchy, HitLevel};
/// use secpb_sim::addr::BlockAddr;
/// use secpb_sim::config::SystemConfig;
///
/// let mut h = Hierarchy::new(&SystemConfig::default());
/// let cold = h.load(BlockAddr(7));
/// assert_eq!(cold.hit_level, HitLevel::Memory);
/// let warm = h.load(BlockAddr(7));
/// assert_eq!(warm.hit_level, HitLevel::L1);
/// assert_eq!(warm.latency, 2);
/// assert_eq!(h.stats().l1_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Builds the hierarchy from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            stats: HierarchyStats::default(),
        }
    }

    /// Per-level hit statistics accumulated so far.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Zeroes the per-level statistics (measurement-region boundary);
    /// cache contents stay warm.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// The L1 cache (for statistics).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (for statistics).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The LLC (for statistics).
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Handles an eviction out of `level` (1-based); dirty and
    /// persist-dirty victims install into the next level, truly-dirty LLC
    /// victims are reported for write-back, persist-dirty LLC victims are
    /// silently discarded.
    fn spill(&mut self, level: u8, victim: BlockAddr, state: LineState, wb: &mut Vec<BlockAddr>) {
        if state == LineState::Clean {
            return;
        }
        match level {
            1 => {
                let out = self.l2.access(victim, state);
                if let Some((v, s)) = out.evicted {
                    self.spill(2, v, s, wb);
                }
            }
            2 => {
                let out = self.l3.access(victim, state);
                if let Some((v, s)) = out.evicted {
                    self.spill(3, v, s, wb);
                }
            }
            _ => {
                if state.needs_writeback() {
                    wb.push(victim);
                }
                // PersistDirty leaving the LLC: silent discard.
            }
        }
    }

    fn access(&mut self, block: BlockAddr, state: LineState) -> HierarchyOutcome {
        let outcome = self.access_inner(block, state);
        self.stats.note(&outcome);
        outcome
    }

    fn access_inner(&mut self, block: BlockAddr, state: LineState) -> HierarchyOutcome {
        let mut writebacks = Vec::new();
        let mut latency = self.l1.config().access_latency;

        let l1_out = self.l1.access(block, state);
        if let Some((v, s)) = l1_out.evicted {
            self.spill(1, v, s, &mut writebacks);
        }
        if l1_out.hit {
            return HierarchyOutcome {
                hit_level: HitLevel::L1,
                latency,
                writebacks,
            };
        }

        // Deeper levels take clean copies: the dirty (write-allocated)
        // line lives in the L1; lower copies only turn dirty when the L1
        // victim spills into them.
        latency += self.l2.config().access_latency;
        let l2_out = self.l2.access(block, LineState::Clean);
        if let Some((v, s)) = l2_out.evicted {
            self.spill(2, v, s, &mut writebacks);
        }
        if l2_out.hit {
            return HierarchyOutcome {
                hit_level: HitLevel::L2,
                latency,
                writebacks,
            };
        }

        latency += self.l3.config().access_latency;
        let l3_out = self.l3.access(block, LineState::Clean);
        if let Some((v, s)) = l3_out.evicted {
            self.spill(3, v, s, &mut writebacks);
        }
        if l3_out.hit {
            return HierarchyOutcome {
                hit_level: HitLevel::L3,
                latency,
                writebacks,
            };
        }

        HierarchyOutcome {
            hit_level: HitLevel::Memory,
            latency,
            writebacks,
        }
    }

    /// A load: fills all levels clean (unless already dirty).
    pub fn load(&mut self, block: BlockAddr) -> HierarchyOutcome {
        self.access(block, LineState::Clean)
    }

    /// A load that also emits a [`Phase::MemRead`] span covering the
    /// cache-walk latency, for cycle-attribution traces.
    pub fn load_traced(
        &mut self,
        block: BlockAddr,
        now: Cycle,
        tracer: &mut Tracer,
    ) -> HierarchyOutcome {
        let outcome = self.load(block);
        tracer.span(Phase::MemRead, now, now + outcome.latency);
        outcome
    }

    /// A store: installs/upgrades the line with `state` (the persistent-
    /// hierarchy flow passes [`LineState::PersistDirty`]; the SP baseline
    /// without a SecPB passes [`LineState::Dirty`]).
    pub fn store(&mut self, block: BlockAddr, state: LineState) -> HierarchyOutcome {
        self.access(block, state)
    }

    /// Collects every dirty or persist-dirty block currently resident, as
    /// the eADR energy model's worst case requires, without changing any
    /// state.
    pub fn dirty_blocks(&self) -> Vec<(BlockAddr, LineState)> {
        let mut out = Vec::new();
        for cache in [&self.l1, &self.l2, &self.l3] {
            for (b, s) in cache.resident() {
                if s != LineState::Clean {
                    out.push((b, s));
                }
            }
        }
        out
    }

    /// Drops all cache contents (power cycle).
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
    }

    /// Makes `twin` equal to this hierarchy level by level (see
    /// [`Cache::snapshot_into`]) and starts a new sync interval.
    pub fn snapshot_into(&mut self, twin: &mut Hierarchy, incremental: bool) {
        self.l1.snapshot_into(&mut twin.l1, incremental);
        self.l2.snapshot_into(&mut twin.l2, incremental);
        self.l3.snapshot_into(&mut twin.l3, incremental);
        twin.stats = self.stats;
    }

    /// Makes this hierarchy equal to `twin` again (see
    /// [`Cache::rewind_to`]).
    pub fn rewind_to(&mut self, twin: &Hierarchy, incremental: bool) {
        self.l1.rewind_to(&twin.l1, incremental);
        self.l2.rewind_to(&twin.l2, incremental);
        self.l3.rewind_to(&twin.l3, incremental);
        self.stats = twin.stats;
    }

    /// Appends all three levels plus the per-level counters to a
    /// checkpoint.  Restore requires a hierarchy built from the same
    /// [`SystemConfig`].
    pub fn encode_into(&self, w: &mut WireWriter) {
        self.l1.encode_into(w);
        self.l2.encode_into(w);
        self.l3.encode_into(w);
        w.u64(self.stats.l1_hits);
        w.u64(self.stats.l2_hits);
        w.u64(self.stats.l3_hits);
        w.u64(self.stats.memory_accesses);
        w.u64(self.stats.writebacks);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Fails on geometry mismatch or truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.l1.restore_from(r)?;
        self.l2.restore_from(r)?;
        self.l3.restore_from(r)?;
        self.stats = HierarchyStats {
            l1_hits: r.u64()?,
            l2_hits: r.u64()?,
            l3_hits: r.u64()?,
            memory_accesses: r.u64()?,
            writebacks: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::config::CacheConfig;

    fn tiny() -> Hierarchy {
        // Small hierarchy for eviction-path tests: L1 2 sets x 1 way,
        // L2 2 sets x 2 ways, L3 4 sets x 2 ways.
        let cfg = SystemConfig {
            l1: CacheConfig::new(2 * 64, 1, 64, 2),
            l2: CacheConfig::new(4 * 64, 2, 64, 20),
            l3: CacheConfig::new(8 * 64, 2, 64, 30),
            ..SystemConfig::default()
        };
        Hierarchy::new(&cfg)
    }

    #[test]
    fn latency_accumulates_down_the_stack() {
        let mut h = Hierarchy::new(&SystemConfig::default());
        let cold = h.load(BlockAddr(0));
        assert_eq!(cold.hit_level, HitLevel::Memory);
        assert_eq!(cold.latency, 2 + 20 + 30);
        assert_eq!(h.load(BlockAddr(0)).latency, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny();
        h.load(BlockAddr(0));
        h.load(BlockAddr(2)); // evicts 0 from 1-way L1 set 0
        let again = h.load(BlockAddr(0));
        assert_eq!(again.hit_level, HitLevel::L2);
        assert_eq!(again.latency, 22);
    }

    #[test]
    fn truly_dirty_llc_victim_is_written_back() {
        let mut h = tiny();
        // Store (SP-style Dirty) to many blocks of the same L3 set to
        // force an LLC eviction of a dirty line.
        let mut wb = Vec::new();
        for i in 0..8u64 {
            let out = h.store(BlockAddr(i * 4), LineState::Dirty);
            wb.extend(out.writebacks);
        }
        assert!(!wb.is_empty(), "a dirty LLC victim must be written back");
    }

    #[test]
    fn persist_dirty_llc_victim_is_silent() {
        let mut h = tiny();
        let mut wb = Vec::new();
        for i in 0..8u64 {
            let out = h.store(BlockAddr(i * 4), LineState::PersistDirty);
            wb.extend(out.writebacks);
        }
        assert!(
            wb.is_empty(),
            "persist-dirty LLC victims are silently discarded"
        );
    }

    #[test]
    fn dirty_victims_propagate_to_lower_levels() {
        let mut h = tiny();
        h.store(BlockAddr(0), LineState::PersistDirty);
        h.store(BlockAddr(2), LineState::PersistDirty); // evicts 0 from L1
                                                        // Block 0 should now live in L2 still marked persist-dirty.
        assert_eq!(h.l2().probe(BlockAddr(0)), Some(LineState::PersistDirty));
    }

    #[test]
    fn dirty_blocks_enumerates_all_levels() {
        let mut h = tiny();
        h.store(BlockAddr(0), LineState::PersistDirty);
        h.store(BlockAddr(2), LineState::Dirty);
        let dirty = h.dirty_blocks();
        let blocks: Vec<_> = dirty.iter().map(|(b, _)| b.index()).collect();
        assert!(blocks.contains(&0));
        assert!(blocks.contains(&2));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = tiny();
        h.store(BlockAddr(0), LineState::Dirty);
        h.clear();
        assert_eq!(h.load(BlockAddr(0)).hit_level, HitLevel::Memory);
        assert!(
            h.dirty_blocks().iter().all(|(b, _)| b.index() != 0) || h.dirty_blocks().is_empty()
        );
    }

    #[test]
    fn stats_count_hits_per_level() {
        let mut h = tiny();
        h.load(BlockAddr(0)); // memory
        h.load(BlockAddr(0)); // L1
        h.load(BlockAddr(2)); // memory, evicts 0 to L2
        h.load(BlockAddr(0)); // L2
        let s = h.stats();
        assert_eq!(s.memory_accesses, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.l3_hits, 0);
        h.reset_stats();
        assert_eq!(h.stats(), HierarchyStats::default());
    }

    #[test]
    fn stats_count_writebacks() {
        let mut h = tiny();
        for i in 0..8u64 {
            h.store(BlockAddr(i * 4), LineState::Dirty);
        }
        assert!(h.stats().writebacks > 0);
    }

    #[test]
    fn load_traced_emits_mem_read_span() {
        let mut h = Hierarchy::new(&SystemConfig::default());
        let (sink, mut reader) = secpb_sim::telemetry::channel(4);
        let mut t = Tracer::new();
        t.set_sink(Some(sink));
        let out = h.load_traced(BlockAddr(3), Cycle(100), &mut t);
        assert_eq!(out.hit_level, HitLevel::Memory);
        assert_eq!(t.count(Phase::MemRead), 1);
        assert_eq!(t.cycles(Phase::MemRead), out.latency);
        assert_eq!(
            reader.pop(),
            Some(secpb_sim::TelemetryEvent::Span {
                phase: Phase::MemRead,
                begin: 100,
                duration: out.latency
            })
        );
        assert!(reader.is_empty());
    }

    #[test]
    fn store_then_load_hits_l1() {
        let mut h = Hierarchy::new(&SystemConfig::default());
        h.store(BlockAddr(9), LineState::PersistDirty);
        let out = h.load(BlockAddr(9));
        assert_eq!(out.hit_level, HitLevel::L1);
        // Load must not downgrade the dirty state.
        assert_eq!(h.l1().probe(BlockAddr(9)), Some(LineState::PersistDirty));
    }
}
