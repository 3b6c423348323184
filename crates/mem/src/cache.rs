//! A set-associative, true-LRU cache model.
//!
//! One implementation serves the L1/L2/L3 data caches and the counter,
//! MAC, and BMT-node metadata caches (the paper's Table I gives them all
//! the same 64-byte-block, set-associative organisation).
//!
//! Lines carry a [`LineState`].  The paper's Section IV-C(a) introduces a
//! special dirty state for blocks from the persistent memory region whose
//! durability is already guaranteed by the SecPB: such *persist-dirty*
//! lines are silently discarded on eviction, like clean lines, instead of
//! being written back.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::CacheConfig;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// The state of a resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Clean: eviction is silent.
    Clean,
    /// Dirty: eviction writes the block back to the next level / NVM.
    Dirty,
    /// Dirty, but durability is already guaranteed by the SecPB; eviction
    /// is silent (Section IV-C(a) of the paper).
    PersistDirty,
}

impl LineState {
    /// Whether eviction of a line in this state requires a write-back.
    pub fn needs_writeback(self) -> bool {
        matches!(self, LineState::Dirty)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    last_use: u64,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was already resident.
    pub hit: bool,
    /// A block evicted to make room, with its state at eviction time.
    /// `None` on hits or when an invalid way was available.
    pub evicted: Option<(BlockAddr, LineState)>,
}

/// Running hit/miss/eviction counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Evictions that required a write-back.
    pub dirty_evictions: u64,
    /// Evictions that were silently discarded.
    pub silent_evictions: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses (0.0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative cache with true LRU replacement.
///
/// # Example
///
/// ```
/// use secpb_mem::cache::{Cache, LineState};
/// use secpb_sim::addr::BlockAddr;
/// use secpb_sim::config::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64, 2));
/// let miss = c.access(BlockAddr(1), LineState::Clean);
/// assert!(!miss.hit);
/// let hit = c.access(BlockAddr(1), LineState::Clean);
/// assert!(hit.hit);
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Flat set-major line storage: `lines[set * ways + way]`.  One
    /// contiguous allocation keeps a whole set in one or two cache lines
    /// of the *host*, where the nested per-set `Vec` layout paid a
    /// pointer chase per simulated access.
    lines: Vec<Option<Line>>,
    sets: usize,
    ways: usize,
    /// `log2(sets)` when the set count is a power of two (every Table I
    /// geometry), letting the hot path shift/mask instead of divide;
    /// `u32::MAX` flags the general divide path.
    set_shift: u32,
    use_clock: u64,
    stats: CacheStats,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            config: self.config,
            lines: self.lines.clone(),
            sets: self.sets,
            ways: self.ways,
            set_shift: self.set_shift,
            use_clock: self.use_clock,
            stats: self.stats,
        }
    }

    /// Refreshes this cache in place: the way array is reused, and since
    /// lines are `Copy` an equal-geometry refresh is one `memcpy`.
    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.lines.clone_from(&source.lines);
        self.sets = source.sets;
        self.ways = source.ways;
        self.set_shift = source.set_shift;
        self.use_clock = source.use_clock;
        self.stats = source.stats;
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let set_shift = if sets.is_power_of_two() {
            sets.trailing_zeros()
        } else {
            u32::MAX
        };
        Cache {
            lines: vec![None; sets * config.ways],
            sets,
            ways: config.ways,
            set_shift,
            config,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        if self.set_shift != u32::MAX {
            (block.index() as usize) & (self.sets - 1)
        } else {
            (block.index() % self.sets as u64) as usize
        }
    }

    #[inline]
    fn tag(&self, block: BlockAddr) -> u64 {
        if self.set_shift != u32::MAX {
            block.index() >> self.set_shift
        } else {
            block.index() / self.sets as u64
        }
    }

    fn block_from(&self, set: usize, tag: u64) -> BlockAddr {
        if self.set_shift != u32::MAX {
            BlockAddr((tag << self.set_shift) | set as u64)
        } else {
            BlockAddr(tag * self.sets as u64 + set as u64)
        }
    }

    /// Accesses `block`, installing it with `fill_state` on a miss.
    ///
    /// On a hit, the line's state is *upgraded*: a write access should pass
    /// the dirty state it wants; `Clean` never downgrades an existing dirty
    /// state.
    pub fn access(&mut self, block: BlockAddr, fill_state: LineState) -> AccessOutcome {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        // Hit path.
        if let Some(line) = set.iter_mut().flatten().find(|l| l.tag == tag) {
            line.last_use = clock;
            if fill_state != LineState::Clean {
                line.state = fill_state;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.stats.misses += 1;

        // Fill path: free way if available.
        if let Some(slot) = set.iter_mut().find(|w| w.is_none()) {
            *slot = Some(Line {
                tag,
                state: fill_state,
                last_use: clock,
            });
            return AccessOutcome {
                hit: false,
                evicted: None,
            };
        }

        // Evict the LRU way.
        let victim_way = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.as_ref().expect("full set").last_use)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = set[victim_way].take().expect("victim present");
        set[victim_way] = Some(Line {
            tag,
            state: fill_state,
            last_use: clock,
        });
        if victim.state.needs_writeback() {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.silent_evictions += 1;
        }
        let evicted_block = self.block_from(set_idx, victim.tag);
        AccessOutcome {
            hit: false,
            evicted: Some((evicted_block, victim.state)),
        }
    }

    /// Returns the state of `block` if resident, without touching LRU or
    /// statistics.
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .flatten()
            .find(|l| l.tag == tag)
            .map(|l| l.state)
    }

    /// Removes `block` if resident, returning its state.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        for way in self.lines[base..base + self.ways].iter_mut() {
            if way.as_ref().is_some_and(|l| l.tag == tag) {
                return way.take().map(|l| l.state);
            }
        }
        None
    }

    /// Overwrites the state of a resident block; no-op if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        if let Some(line) = self.lines[base..base + self.ways]
            .iter_mut()
            .flatten()
            .find(|l| l.tag == tag)
        {
            line.state = state;
        }
    }

    /// Number of resident blocks.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Iterates over all resident blocks and their states.
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.lines.iter().enumerate().filter_map(move |(i, way)| {
            way.as_ref()
                .map(|l| (self.block_from(i / self.ways, l.tag), l.state))
        })
    }

    /// Appends the dynamic state — LRU clock, statistics, and every way
    /// in flat set-major order — to a checkpoint.  Geometry is *not*
    /// serialised; [`restore_from`](Self::restore_from) requires a cache
    /// already built with the same [`CacheConfig`].
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.u64(self.use_clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.dirty_evictions);
        w.u64(self.stats.silent_evictions);
        w.usize(self.lines.len());
        for way in &self.lines {
            match way {
                Some(line) => {
                    w.bool(true);
                    w.u64(line.tag);
                    w.u8(match line.state {
                        LineState::Clean => 0,
                        LineState::Dirty => 1,
                        LineState::PersistDirty => 2,
                    });
                    w.u64(line.last_use);
                }
                None => w.bool(false),
            }
        }
    }

    /// Overlays dynamic state captured by [`encode_into`](Self::encode_into)
    /// onto this cache.
    ///
    /// # Errors
    ///
    /// Fails if the encoded way count does not match this cache's
    /// geometry, on an unknown line-state discriminant, or on truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.use_clock = r.u64()?;
        self.stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            dirty_evictions: r.u64()?,
            silent_evictions: r.u64()?,
        };
        let n = r.seq_len(1)?;
        if n != self.lines.len() {
            return Err(r.malformed("cache way count does not match geometry"));
        }
        for way in self.lines.iter_mut() {
            *way = if r.bool()? {
                let tag = r.u64()?;
                let state = match r.u8()? {
                    0 => LineState::Clean,
                    1 => LineState::Dirty,
                    2 => LineState::PersistDirty,
                    _ => return Err(r.malformed("unknown cache line state")),
                };
                let last_use = r.u64()?;
                Some(Line {
                    tag,
                    state,
                    last_use,
                })
            } else {
                None
            };
        }
        Ok(())
    }

    /// Drops every line (used when modelling a power cycle of volatile
    /// caches).
    pub fn clear(&mut self) {
        for way in self.lines.iter_mut() {
            *way = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets, 2 ways.
        Cache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(BlockAddr(0), LineState::Clean).hit);
        assert!(c.access(BlockAddr(0), LineState::Clean).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean); // set 0
        c.access(BlockAddr(1), LineState::Clean); // set 1
        assert!(c.access(BlockAddr(0), LineState::Clean).hit);
        assert!(c.access(BlockAddr(1), LineState::Clean).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds blocks 0, 2 (both map to set 0 with 2 sets).
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(2), LineState::Clean);
        c.access(BlockAddr(0), LineState::Clean); // touch 0; LRU is 2
        let out = c.access(BlockAddr(4), LineState::Clean);
        assert_eq!(out.evicted, Some((BlockAddr(2), LineState::Clean)));
        assert!(c.probe(BlockAddr(0)).is_some());
        assert!(c.probe(BlockAddr(2)).is_none());
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.access(BlockAddr(2), LineState::Clean);
        let out = c.access(BlockAddr(4), LineState::Clean);
        assert_eq!(out.evicted, Some((BlockAddr(0), LineState::Dirty)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn persist_dirty_evicts_silently() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::PersistDirty);
        c.access(BlockAddr(2), LineState::Clean);
        c.access(BlockAddr(4), LineState::Clean);
        // Block 0 was LRU and persist-dirty: silently discarded.
        assert_eq!(c.stats().dirty_evictions, 0);
        assert_eq!(c.stats().silent_evictions, 1);
        assert!(!LineState::PersistDirty.needs_writeback());
    }

    #[test]
    fn hit_upgrades_state_but_never_downgrades() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(0), LineState::Dirty);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::Dirty));
        // A later clean (read) access keeps the dirty state.
        c.access(BlockAddr(0), LineState::Clean);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::Dirty));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(LineState::Dirty));
        assert_eq!(c.invalidate(BlockAddr(0)), None);
        assert!(c.probe(BlockAddr(0)).is_none());
    }

    #[test]
    fn set_state_changes_resident_only() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.set_state(BlockAddr(0), LineState::PersistDirty);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::PersistDirty));
        c.set_state(BlockAddr(2), LineState::Dirty); // absent: no-op
        assert!(c.probe(BlockAddr(2)).is_none());
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(1), LineState::Dirty);
        assert_eq!(c.occupancy(), 2);
        let mut resident: Vec<_> = c.resident().collect();
        resident.sort_by_key(|(b, _)| b.index());
        assert_eq!(
            resident,
            vec![
                (BlockAddr(0), LineState::Clean),
                (BlockAddr(1), LineState::Dirty)
            ]
        );
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(c.probe(BlockAddr(0)).is_none());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(BlockAddr(0)).is_some());
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(0), LineState::Clean);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn wire_round_trip_preserves_lru_and_stats() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.access(BlockAddr(2), LineState::PersistDirty);
        c.access(BlockAddr(1), LineState::Clean);
        c.access(BlockAddr(0), LineState::Clean); // touch: 2 is now LRU
        let mut w = WireWriter::new();
        c.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut restored = small();
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.stats(), c.stats());
        // Both caches must now evict the same victim.
        let a = c.access(BlockAddr(4), LineState::Clean);
        let b = restored.access(BlockAddr(4), LineState::Clean);
        assert_eq!(a, b);
        assert_eq!(a.evicted, Some((BlockAddr(2), LineState::PersistDirty)));

        // Geometry mismatch is rejected.
        let mut bigger = Cache::new(CacheConfig::new(512, 2, 64, 1));
        assert!(bigger.restore_from(&mut WireReader::new(&bytes)).is_err());
        // Truncation is reported, not panicked on.
        assert!(small()
            .restore_from(&mut WireReader::new(&bytes[..bytes.len() - 1]))
            .is_err());
    }

    #[test]
    fn tags_disambiguate_same_set_blocks() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        // Block 2 maps to set 0 as well but must not hit block 0's line.
        assert!(!c.access(BlockAddr(2), LineState::Clean).hit);
    }
}
