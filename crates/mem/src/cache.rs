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
//!
//! A crash's power cycle loses every line, and it costs one counter
//! bump: each line records the power cycle it was filled in, and only
//! lines of the cache's current cycle are resident.  Rewind points
//! ([`Cache::snapshot_into`] / [`Cache::rewind_to`]) copy only the lines
//! written since the last sync, tracked one bit per line.

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

#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    tag: u64,
    state: LineState,
    /// The power cycle the line was filled in: it is resident only while
    /// this equals its cache's `cycle`.  Fits the padding after `state`.
    cycle: u32,
    last_use: u64,
}

const _: () = assert!(std::mem::size_of::<Line>() == 24);

impl Line {
    /// A way that holds nothing in any power cycle (cycles start at 1).
    const EMPTY: Line = Line {
        tag: 0,
        state: LineState::Clean,
        cycle: 0,
        last_use: 0,
    };
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
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Flat set-major line storage: `lines[set * ways + way]`.  One
    /// contiguous allocation keeps a whole set in one or two cache lines
    /// of the *host*, where the nested per-set `Vec` layout paid a
    /// pointer chase per simulated access.  A way whose `cycle` is not
    /// the cache's holds nothing.
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    /// `log2(sets)` when the set count is a power of two (every Table I
    /// geometry), letting the hot path shift/mask instead of divide;
    /// `u32::MAX` flags the general divide path.
    set_shift: u32,
    use_clock: u64,
    /// The current power cycle, from 1: [`clear`](Self::clear) bumps it,
    /// so every line filled before reads as absent.
    cycle: u32,
    stats: CacheStats,
    /// One bit per line: the lines written since the last sync with a
    /// twin (see [`snapshot_into`](Self::snapshot_into)), so a line
    /// written twice is still copied once.  Empty until the first sync
    /// and after a wholesale change, meaning any line may differ; a cache
    /// that never syncs pays one length check per access.
    changed: Vec<u64>,
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
            lines: vec![Line::EMPTY; sets * config.ways],
            sets,
            ways: config.ways,
            set_shift,
            config,
            use_clock: 0,
            cycle: 1,
            stats: CacheStats::default(),
            changed: Vec::new(),
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

    #[inline]
    fn mark_changed(&mut self, line: usize) {
        if let Some(word) = self.changed.get_mut(line / 64) {
            *word |= 1 << (line % 64);
        }
    }

    /// Starts a sync interval: no line has changed yet.
    fn start_tracking(&mut self) {
        self.changed.clear();
        self.changed.resize(self.lines.len().div_ceil(64), 0);
    }

    /// The flat index of `block`'s resident way, if any.
    #[inline]
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_index(block) * self.ways;
        let (tag, cycle) = (self.tag(block), self.cycle);
        self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.cycle == cycle && l.tag == tag)
            .map(|way| base + way)
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
        let cycle = self.cycle;
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        // Hit path.
        if let Some(way) = set.iter().position(|l| l.cycle == cycle && l.tag == tag) {
            let line = &mut set[way];
            line.last_use = clock;
            if fill_state != LineState::Clean {
                line.state = fill_state;
            }
            self.stats.hits += 1;
            self.mark_changed(base + way);
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.stats.misses += 1;
        let fill = Line {
            tag,
            state: fill_state,
            cycle,
            last_use: clock,
        };

        // Fill path: free way if available.
        if let Some(way) = set.iter().position(|l| l.cycle != cycle) {
            set[way] = fill;
            self.mark_changed(base + way);
            return AccessOutcome {
                hit: false,
                evicted: None,
            };
        }

        // Evict the LRU way.
        let victim_way = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = std::mem::replace(&mut set[victim_way], fill);
        self.mark_changed(base + victim_way);
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
        self.find(block).map(|line| self.lines[line].state)
    }

    /// Removes `block` if resident, returning its state.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let line = self.find(block)?;
        let state = std::mem::replace(&mut self.lines[line], Line::EMPTY).state;
        self.mark_changed(line);
        Some(state)
    }

    /// Overwrites the state of a resident block; no-op if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) {
        if let Some(line) = self.find(block) {
            self.lines[line].state = state;
            self.mark_changed(line);
        }
    }

    /// The lines resident in the current power cycle, with their flat
    /// indices.
    fn resident_lines(&self) -> impl Iterator<Item = (usize, &Line)> + '_ {
        let cycle = self.cycle;
        self.lines
            .iter()
            .enumerate()
            .filter(move |(_, l)| l.cycle == cycle)
    }

    /// Number of resident blocks.
    pub fn occupancy(&self) -> usize {
        self.resident_lines().count()
    }

    /// Iterates over all resident blocks and their states.
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.resident_lines()
            .map(move |(i, l)| (self.block_from(i / self.ways, l.tag), l.state))
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
        for line in &self.lines {
            if line.cycle == self.cycle {
                w.bool(true);
                w.u64(line.tag);
                w.u8(match line.state {
                    LineState::Clean => 0,
                    LineState::Dirty => 1,
                    LineState::PersistDirty => 2,
                });
                w.u64(line.last_use);
            } else {
                w.bool(false);
            }
        }
    }

    /// Overlays dynamic state captured by [`encode_into`](Self::encode_into)
    /// onto this cache.  Present lines join the current power cycle.
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
        self.changed.clear();
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
                Line {
                    tag,
                    state,
                    cycle: self.cycle,
                    last_use,
                }
            } else {
                Line::EMPTY
            };
        }
        Ok(())
    }

    /// Drops every line (used when modelling a power cycle of volatile
    /// caches) by starting a new power cycle.  Only when the counter
    /// would wrap are the ways themselves wiped, since lines filled under
    /// the old values would otherwise come back.
    pub fn clear(&mut self) {
        if self.cycle == u32::MAX {
            self.lines.fill(Line::EMPTY);
            self.cycle = 1;
            self.changed.clear();
        } else {
            self.cycle += 1;
        }
    }

    /// Sets the power-cycle counter, to reach its wrap in a test.
    #[cfg(test)]
    fn set_cycle(&mut self, cycle: u32) {
        self.cycle = cycle;
    }

    /// Makes `twin`, a cache of the same geometry, equal to this one and
    /// starts a new sync interval.  With `incremental`, only the lines
    /// written since the last sync are copied, which requires `twin` to
    /// have matched this cache then and to be unchanged since; otherwise,
    /// or when this cache was not tracking, the whole way array is
    /// copied.  A power cycle in between changes no line, only the
    /// counter, which is always copied.
    pub fn snapshot_into(&mut self, twin: &mut Cache, incremental: bool) {
        copy_lines(&mut twin.lines, &self.lines, &self.changed, incremental);
        twin.use_clock = self.use_clock;
        twin.cycle = self.cycle;
        twin.stats = self.stats;
        self.start_tracking();
    }

    /// Makes this cache equal to `twin` again, under the contract of
    /// [`snapshot_into`](Self::snapshot_into): with `incremental`, only
    /// the lines this cache wrote since the last sync are copied back.
    pub fn rewind_to(&mut self, twin: &Cache, incremental: bool) {
        copy_lines(&mut self.lines, &twin.lines, &self.changed, incremental);
        self.use_clock = twin.use_clock;
        self.cycle = twin.cycle;
        self.stats = twin.stats;
        self.start_tracking();
    }
}

/// Copies from `src` to `dst` the lines flagged in `changed`, or every
/// line when not `incremental` or not tracking.
fn copy_lines(dst: &mut [Line], src: &[Line], changed: &[u64], incremental: bool) {
    if !incremental || changed.is_empty() {
        dst.copy_from_slice(src);
        return;
    }
    for (word_idx, &word) in changed.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let line = word_idx * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            dst[line] = src[line];
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

    fn encode(c: &Cache) -> Vec<u8> {
        let mut w = WireWriter::new();
        c.encode_into(&mut w);
        w.into_bytes()
    }

    /// 64 sets x 2 ways with way 1 the LRU way of each set, so that a
    /// line flagged at the wrong way shows.  Every way is filled but way
    /// 1 of set 44.  Its 128 lines need two words of change bits.
    fn filled() -> Cache {
        let mut c = Cache::new(CacheConfig::new(8192, 2, 64, 1));
        for b in (0..128).chain(0..64) {
            c.access(BlockAddr(b), LineState::Dirty);
        }
        c.invalidate(BlockAddr(108));
        c
    }

    /// A mixed sequence of hits, fills and dirty and silent evictions.
    fn churn(c: &mut Cache) -> Vec<AccessOutcome> {
        (0..40u64)
            .map(|i| {
                let state = [LineState::Clean, LineState::Dirty, LineState::PersistDirty];
                c.access(BlockAddr(i * 7 % 29), state[(i % 3) as usize])
            })
            .collect()
    }

    #[test]
    fn clear_leaves_a_cache_like_a_never_filled_one() {
        let mut c = filled();
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!((0..32).all(|b| c.probe(BlockAddr(b)).is_none()));
        assert_eq!(c.resident().count(), 0);
        let mut fresh = Cache::new(*c.config());
        fresh.use_clock = c.use_clock;
        fresh.stats = c.stats;
        assert_eq!(encode(&c), encode(&fresh));
    }

    #[test]
    fn counter_bump_and_full_wipe_behave_alike() {
        let mut bumped = filled();
        let mut wiped = bumped.clone();
        bumped.clear();
        wiped.lines.fill(Line::EMPTY);
        assert_eq!(churn(&mut bumped), churn(&mut wiped));
        assert_eq!(encode(&bumped), encode(&wiped));
    }

    #[test]
    fn rewind_across_a_power_cycle_restores_the_snapshot() {
        let mut live = filled();
        let mut twin = Cache::new(*live.config());
        live.snapshot_into(&mut twin, false);
        let synced = encode(&live);
        live.clear();
        churn(&mut live);
        live.rewind_to(&twin, true);
        assert_eq!(encode(&live), synced);
        assert_eq!(live.lines, twin.lines);
        // And the other way: a snapshot taken after a power cycle.
        live.clear();
        churn(&mut live);
        live.snapshot_into(&mut twin, true);
        assert_eq!(encode(&twin), encode(&live));
    }

    #[test]
    fn cycle_counter_wipes_on_wrap() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty); // set 0, cycle 1
        c.set_cycle(u32::MAX - 1);
        assert_eq!(c.occupancy(), 0);
        c.access(BlockAddr(1), LineState::PersistDirty); // set 1 only
        c.clear();
        assert_eq!(c.occupancy(), 0);
        c.access(BlockAddr(3), LineState::Clean);
        assert_eq!(c.occupancy(), 1);
        c.clear(); // wraps: every way is wiped, the counter restarts
        assert_eq!(c.cycle, 1);
        assert_eq!(c.occupancy(), 0, "cycle 1's line must not come back");
        assert!((0..4).all(|b| c.probe(BlockAddr(b)).is_none()));
        let mut fresh = small();
        fresh.use_clock = c.use_clock;
        fresh.stats = c.stats;
        assert_eq!(encode(&c), encode(&fresh));
        assert_eq!(churn(&mut c), churn(&mut fresh));
        assert_eq!(encode(&c), encode(&fresh));
        // No line of an old cycle comes back as the counter climbs again.
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn incremental_syncs_copy_every_written_set() {
        // Each mutator below writes lines no other step touches, in way 1
        // of sets 43-47 (lines 87-95, in the second word of change bits),
        // so one that forgot to flag its line, flagged the wrong way or
        // sized its bits by sets, would leave the rewound cache different
        // from a full copy.
        let mut live = filled();
        let mut twin = Cache::new(*live.config());
        live.snapshot_into(&mut twin, false);
        let synced = encode(&live);
        let mutators: [fn(&mut Cache); 6] = [
            |c| {
                c.access(BlockAddr(107), LineState::PersistDirty); // hit
            },
            |c| {
                c.invalidate(BlockAddr(109));
            },
            |c| c.set_state(BlockAddr(110), LineState::Clean),
            |c| {
                c.access(BlockAddr(175), LineState::Clean); // evicts 111
            },
            |c| {
                c.access(BlockAddr(172), LineState::Dirty); // fills way 1
            },
            Cache::clear,
        ];
        for mutate in mutators {
            mutate(&mut live);
            assert_ne!(encode(&live), synced);
            let mut full = live.clone();
            full.rewind_to(&twin, false);
            live.rewind_to(&twin, true);
            assert_eq!(encode(&live), synced);
            assert_eq!(live.lines, full.lines);
        }
        for mutate in mutators {
            mutate(&mut live);
            let mut full = twin.clone();
            live.clone().snapshot_into(&mut full, false);
            live.snapshot_into(&mut twin, true);
            assert_eq!(encode(&twin), encode(&live));
            assert_eq!(twin.lines, full.lines);
        }
    }

    #[test]
    fn tags_disambiguate_same_set_blocks() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        // Block 2 maps to set 0 as well but must not hit block 0's line.
        assert!(!c.access(BlockAddr(2), LineState::Clean).hit);
    }
}
