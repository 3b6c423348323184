//! The ADR write-pending queue (WPQ) in the memory controller.
//!
//! Under Asynchronous DRAM Refresh, the WPQ is inside the persistence
//! domain: a store is durable once it enters the queue, and the queue
//! drains to the NVM in the background.  The paper's baseline (Table I)
//! gives it 32 entries.  What the timing model needs from the WPQ is its
//! *backpressure*: when full, an incoming block must wait for the oldest
//! in-flight NVM write to complete.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use secpb_sim::addr::BlockAddr;
use secpb_sim::cycle::Cycle;
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::nvm::NvmTiming;

/// WPQ statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WpqStats {
    /// Blocks accepted into the queue.
    pub accepted: u64,
    /// Writes that coalesced onto an already-pending entry for the same
    /// block (no additional NVM write issued).
    pub coalesced: u64,
    /// Cycles spent stalled waiting for a free entry.
    pub stall_cycles: u64,
}

/// The write-pending queue model.
///
/// # Example
///
/// ```
/// use secpb_mem::nvm::NvmTiming;
/// use secpb_mem::wpq::WritePendingQueue;
/// use secpb_sim::addr::BlockAddr;
/// use secpb_sim::config::NvmConfig;
/// use secpb_sim::cycle::Cycle;
///
/// let mut nvm = NvmTiming::new(NvmConfig::default());
/// let mut wpq = WritePendingQueue::new(32);
/// let accepted_at = wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
/// assert_eq!(accepted_at, Cycle(0)); // empty queue accepts immediately
/// ```
#[derive(Debug, Clone)]
pub struct WritePendingQueue {
    capacity: usize,
    /// Completion times of in-flight NVM writes (min-heap).
    inflight: BinaryHeap<Reverse<Cycle>>,
    /// Pending completion per block, for write coalescing: a second write
    /// to a block still queued merges into the existing entry.
    pending: FxHashMap<BlockAddr, Cycle>,
    /// `pending`'s entries ordered by completion (min-heap, one entry
    /// per pending block), so retiring pops only what completed instead
    /// of scanning the map.
    pending_by_completion: BinaryHeap<Reverse<(Cycle, BlockAddr)>>,
    stats: WpqStats,
}

impl WritePendingQueue {
    /// Creates an empty WPQ with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ needs at least one entry");
        WritePendingQueue {
            capacity,
            inflight: BinaryHeap::new(),
            pending: FxHashMap::default(),
            pending_by_completion: BinaryHeap::new(),
            stats: WpqStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> WpqStats {
        self.stats
    }

    /// Entries currently occupied at `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.inflight.len()
    }

    fn retire(&mut self, now: Cycle) {
        while self.inflight.peek().is_some_and(|Reverse(c)| *c <= now) {
            self.inflight.pop();
        }
        while let Some(&Reverse((c, block))) = self.pending_by_completion.peek() {
            if c > now {
                break;
            }
            self.pending_by_completion.pop();
            self.pending.remove(&block);
        }
    }

    /// Enqueues a block write at `now`, stalling if the queue is full.
    ///
    /// Returns the cycle at which the block is *accepted* (and therefore
    /// durable under ADR).  A write to a block that is still pending
    /// coalesces onto the existing entry — accepted immediately, no second
    /// NVM write.  Otherwise the NVM write is issued upon acceptance.
    pub fn enqueue(&mut self, block: BlockAddr, now: Cycle, nvm: &mut NvmTiming) -> Cycle {
        self.retire(now);
        if self.pending.contains_key(&block) {
            self.stats.coalesced += 1;
            return now;
        }
        let accept_at = if self.inflight.len() < self.capacity {
            now
        } else {
            let oldest = self.inflight.pop().expect("full queue").0;
            self.stats.stall_cycles += oldest.since(now);
            oldest
        };
        let completion = nvm.write(block, accept_at);
        self.inflight.push(Reverse(completion));
        self.pending.insert(block, completion);
        self.pending_by_completion
            .push(Reverse((completion, block)));
        self.stats.accepted += 1;
        accept_at
    }

    /// The cycle by which every queued write has reached the NVM.
    pub fn drained_at(&self) -> Cycle {
        self.inflight
            .iter()
            .map(|Reverse(c)| *c)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// Appends the in-flight completions (sorted), the pending-block map
    /// (sorted by block), and the counters to a checkpoint.  Capacity is
    /// not serialised; restore requires a queue built with the same one.
    pub fn encode_into(&self, w: &mut WireWriter) {
        let mut inflight: Vec<Cycle> = self.inflight.iter().map(|Reverse(c)| *c).collect();
        inflight.sort();
        w.usize(inflight.len());
        for c in inflight {
            w.u64(c.raw());
        }
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_by_key(|(b, _)| b.index());
        w.usize(pending.len());
        for (block, c) in pending {
            w.u64(block.index());
            w.u64(c.raw());
        }
        w.u64(self.stats.accepted);
        w.u64(self.stats.coalesced);
        w.u64(self.stats.stall_cycles);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Fails if the snapshot holds more in-flight writes than this
    /// queue's capacity, or on truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.seq_len(8)?;
        if n > self.capacity {
            return Err(r.malformed("WPQ snapshot exceeds queue capacity"));
        }
        let mut inflight = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            inflight.push(Reverse(Cycle(r.u64()?)));
        }
        let n = r.seq_len(8 + 8)?;
        let mut pending = FxHashMap::default();
        for _ in 0..n {
            let block = BlockAddr(r.u64()?);
            pending.insert(block, Cycle(r.u64()?));
        }
        self.inflight = inflight;
        self.pending_by_completion = pending.iter().map(|(&b, &c)| Reverse((c, b))).collect();
        self.pending = pending;
        self.stats = WpqStats {
            accepted: r.u64()?,
            coalesced: r.u64()?,
            stall_cycles: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::config::NvmConfig;

    fn setup() -> (WritePendingQueue, NvmTiming) {
        (
            WritePendingQueue::new(2),
            NvmTiming::new(NvmConfig::default()),
        )
    }

    #[test]
    fn accepts_immediately_when_space() {
        let (mut wpq, mut nvm) = setup();
        assert_eq!(wpq.enqueue(BlockAddr(0), Cycle(5), &mut nvm), Cycle(5));
        assert_eq!(wpq.occupancy(Cycle(5)), 1);
    }

    #[test]
    fn full_queue_stalls_until_oldest_completes() {
        let (mut wpq, mut nvm) = setup();
        // Two writes to different banks complete at cycle 600.
        wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
        wpq.enqueue(BlockAddr(1), Cycle(0), &mut nvm);
        let accepted = wpq.enqueue(BlockAddr(2), Cycle(0), &mut nvm);
        assert_eq!(accepted, Cycle(600));
        assert_eq!(wpq.stats().stall_cycles, 600);
    }

    #[test]
    fn entries_retire_over_time() {
        let (mut wpq, mut nvm) = setup();
        wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
        wpq.enqueue(BlockAddr(1), Cycle(0), &mut nvm);
        assert_eq!(wpq.occupancy(Cycle(599)), 2);
        assert_eq!(wpq.occupancy(Cycle(600)), 0);
        // Now a third write is accepted with no stall.
        let accepted = wpq.enqueue(BlockAddr(2), Cycle(700), &mut nvm);
        assert_eq!(accepted, Cycle(700));
        assert_eq!(wpq.stats().accepted, 3);
    }

    #[test]
    fn drained_at_tracks_last_completion() {
        let (mut wpq, mut nvm) = setup();
        assert_eq!(wpq.drained_at(), Cycle::ZERO);
        let banks = nvm.config().banks as u64;
        wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
        // Same bank: serialized behind the first write.
        wpq.enqueue(BlockAddr(banks), Cycle(0), &mut nvm);
        assert_eq!(wpq.drained_at(), Cycle(1200));
    }

    #[test]
    fn repeated_writes_coalesce_while_pending() {
        let (mut wpq, mut nvm) = setup();
        wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
        // Same block, still in flight: coalesces, no second NVM write.
        let accepted = wpq.enqueue(BlockAddr(0), Cycle(10), &mut nvm);
        assert_eq!(accepted, Cycle(10));
        assert_eq!(nvm.stats().writes, 1);
        assert_eq!(wpq.stats().coalesced, 1);
        // After the write completes, a new write is issued again.
        wpq.enqueue(BlockAddr(0), Cycle(700), &mut nvm);
        assert_eq!(nvm.stats().writes, 2);
    }

    /// The coalescing semantics the completion heap replaced: retire by
    /// scanning the whole pending map.
    struct RetainModel {
        pending: FxHashMap<BlockAddr, Cycle>,
        inflight: BinaryHeap<Reverse<Cycle>>,
        capacity: usize,
    }

    impl RetainModel {
        fn enqueue(&mut self, block: BlockAddr, now: Cycle, nvm: &mut NvmTiming) -> Cycle {
            while self.inflight.peek().is_some_and(|Reverse(c)| *c <= now) {
                self.inflight.pop();
            }
            self.pending.retain(|_, &mut c| c > now);
            if self.pending.contains_key(&block) {
                return now;
            }
            let accept_at = if self.inflight.len() < self.capacity {
                now
            } else {
                self.inflight.pop().expect("full queue").0
            };
            let completion = nvm.write(block, accept_at);
            self.inflight.push(Reverse(completion));
            self.pending.insert(block, completion);
            accept_at
        }
    }

    #[test]
    fn completion_heap_retires_like_a_full_scan() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for capacity in [1, 4, 32] {
            let mut wpq = WritePendingQueue::new(capacity);
            let mut model = RetainModel {
                pending: FxHashMap::default(),
                inflight: BinaryHeap::new(),
                capacity,
            };
            let mut nvm = NvmTiming::new(NvmConfig::default());
            let mut model_nvm = nvm.clone();
            let mut now = 0u64;
            for step in 0..5_000 {
                // Mostly forward time with occasional stalls and
                // re-reads of the past; a small block pool coalesces.
                now = match next(10) {
                    0 => now.saturating_sub(next(400)),
                    1..=6 => now + next(150),
                    _ => now,
                };
                let block = BlockAddr(next(48));
                let got = wpq.enqueue(block, Cycle(now), &mut nvm);
                let want = model.enqueue(block, Cycle(now), &mut model_nvm);
                assert_eq!(got, want, "capacity {capacity} step {step}");
                assert_eq!(
                    wpq.pending, model.pending,
                    "capacity {capacity} step {step}"
                );
                assert_eq!(wpq.pending_by_completion.len(), wpq.pending.len());
            }
            assert_eq!(nvm.stats(), model_nvm.stats());
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        WritePendingQueue::new(0);
    }

    #[test]
    fn wire_round_trip_preserves_backpressure() {
        use secpb_sim::wire::{WireReader, WireWriter};
        let (mut wpq, mut nvm) = setup();
        wpq.enqueue(BlockAddr(0), Cycle(0), &mut nvm);
        wpq.enqueue(BlockAddr(1), Cycle(0), &mut nvm);

        let mut w = WireWriter::new();
        wpq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = WritePendingQueue::new(2);
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.stats(), wpq.stats());
        assert_eq!(restored.drained_at(), wpq.drained_at());
        // Both queues stall a third write identically.
        let mut nvm2 = nvm.clone();
        assert_eq!(
            wpq.enqueue(BlockAddr(2), Cycle(0), &mut nvm),
            restored.enqueue(BlockAddr(2), Cycle(0), &mut nvm2)
        );

        // A snapshot larger than the target capacity is rejected.
        let mut tiny = WritePendingQueue::new(1);
        assert!(tiny.restore_from(&mut WireReader::new(&bytes)).is_err());
    }
}
