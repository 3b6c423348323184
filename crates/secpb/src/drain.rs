//! The background drain engine.
//!
//! Entries leave the SecPB for the memory controller when the high
//! watermark is reached (down to the low watermark), when the buffer is
//! full and a new store needs a slot, or wholesale on a crash.  The engine
//! models the MC-side *sec-sync* pipeline: drains are issued back-to-back
//! at an initiation interval set by the busiest shared unit (the BMT hash
//! unit or the MAC unit at 40 cycles each when the scheme leaves that work
//! to drain time), and each drain's slot is only freed when its full
//! memory-tuple update completes — which is what produces the COBCM
//! "backflow" stalls the paper reports for write-intensive workloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use secpb_sim::cycle::Cycle;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// Drain engine statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Drains issued.
    pub issued: u64,
    /// Total cycles from issue request to pipeline acceptance
    /// (initiation-interval queueing).
    pub issue_delay_cycles: u64,
    /// Total end-to-end drain latency (issue request to slot free),
    /// summed over issued drains.
    pub latency_cycles: u64,
    /// Longest single drain observed.
    pub max_latency_cycles: u64,
}

impl DrainStats {
    /// Mean end-to-end latency of a drain, or 0.0 before any issue.
    pub fn mean_latency(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.latency_cycles as f64 / self.issued as f64
        }
    }
}

/// Models the MC-side drain pipeline: bounded in-flight drains with a
/// per-issue initiation interval.
///
/// # Example
///
/// ```
/// use secpb_core::drain::DrainEngine;
/// use secpb_sim::cycle::Cycle;
///
/// let mut eng = DrainEngine::new();
/// let done = eng.issue(Cycle(0), 40, 360);
/// assert_eq!(done, Cycle(360));
/// // The next drain cannot issue before the 40-cycle initiation interval.
/// let done2 = eng.issue(Cycle(0), 40, 360);
/// assert_eq!(done2, Cycle(400));
/// ```
#[derive(Debug, Clone)]
pub struct DrainEngine {
    /// Completion times of in-flight drains, earliest on top (a slot
    /// frees at its drain's completion).
    inflight: BinaryHeap<Reverse<Cycle>>,
    /// Earliest cycle the next drain may issue.
    next_issue: Cycle,
    stats: DrainStats,
}

impl Default for DrainEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DrainEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        DrainEngine {
            inflight: BinaryHeap::new(),
            next_issue: Cycle::ZERO,
            stats: DrainStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> DrainStats {
        self.stats
    }

    /// Issues one drain at `now` with the given initiation interval and
    /// total latency; returns the completion cycle (when the SecPB slot is
    /// free again).
    pub fn issue(&mut self, now: Cycle, initiation_interval: u64, latency: u64) -> Cycle {
        let start = now.max(self.next_issue);
        self.stats.issue_delay_cycles += start.since(now);
        self.next_issue = start + initiation_interval;
        let completion = start + latency;
        self.inflight.push(Reverse(completion));
        self.stats.issued += 1;
        let end_to_end = completion.since(now);
        self.stats.latency_cycles += end_to_end;
        self.stats.max_latency_cycles = self.stats.max_latency_cycles.max(end_to_end);
        completion
    }

    /// Retires completed drains; returns how many slots freed by `now`.
    pub fn retire(&mut self, now: Cycle) -> usize {
        let mut freed = 0;
        while self
            .inflight
            .peek()
            .is_some_and(|&Reverse(done)| done <= now)
        {
            self.inflight.pop();
            freed += 1;
        }
        freed
    }

    /// Number of drains still in flight (after retiring up to `now`).
    pub fn in_flight(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.inflight.len()
    }

    /// The completion time of the earliest in-flight drain, if any.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.inflight.peek().map(|&Reverse(done)| done)
    }

    /// The completion time of the *last* in-flight drain — i.e. when the
    /// whole pipeline runs dry (crash-drain completion).
    pub fn all_complete_at(&mut self) -> Cycle {
        self.inflight
            .drain()
            .fold(self.next_issue, |last, Reverse(done)| last.max(done))
    }

    /// Appends the in-flight completion cycles (sorted ascending, so
    /// the bytes do not depend on the heap's layout), the issue horizon,
    /// and the statistics to a checkpoint.
    pub fn encode_into(&self, w: &mut WireWriter) {
        let mut due: Vec<Cycle> = self.inflight.iter().map(|&Reverse(done)| done).collect();
        due.sort_unstable();
        w.usize(due.len());
        for done in due {
            w.u64(done.raw());
        }
        w.u64(self.next_issue.raw());
        w.u64(self.stats.issued);
        w.u64(self.stats.issue_delay_cycles);
        w.u64(self.stats.latency_cycles);
        w.u64(self.stats.max_latency_cycles);
    }

    /// Rebuilds an engine from [`encode_into`](Self::encode_into) bytes.
    ///
    /// # Errors
    ///
    /// Propagates truncation/malformation with the byte offset.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(8)?;
        let mut inflight = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            inflight.push(Reverse(Cycle(r.u64()?)));
        }
        Ok(DrainEngine {
            inflight,
            next_issue: Cycle(r.u64()?),
            stats: DrainStats {
                issued: r.u64()?,
                issue_delay_cycles: r.u64()?,
                latency_cycles: r.u64()?,
                max_latency_cycles: r.u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_returns_completion() {
        let mut e = DrainEngine::new();
        assert_eq!(e.issue(Cycle(10), 40, 100), Cycle(110));
        assert_eq!(e.stats().issued, 1);
    }

    #[test]
    fn initiation_interval_serializes_issues() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 40, 360);
        let c2 = e.issue(Cycle(5), 40, 360);
        assert_eq!(c2, Cycle(400), "second drain issues at cycle 40");
        assert_eq!(e.stats().issue_delay_cycles, 35);
    }

    #[test]
    fn latency_accounting() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 40, 100); // end-to-end 100
        e.issue(Cycle(0), 40, 100); // queued to 40, end-to-end 140
        let s = e.stats();
        assert_eq!(s.latency_cycles, 240);
        assert_eq!(s.max_latency_cycles, 140);
        assert!((s.mean_latency() - 120.0).abs() < 1e-12);
        assert_eq!(DrainStats::default().mean_latency(), 0.0);
    }

    #[test]
    fn slots_free_at_completion() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 10, 100);
        e.issue(Cycle(0), 10, 100); // completes at 110
        assert_eq!(e.in_flight(Cycle(99)), 2);
        assert_eq!(e.in_flight(Cycle(100)), 1);
        assert_eq!(e.in_flight(Cycle(110)), 0);
    }

    #[test]
    fn retire_counts_freed_slots() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 1, 50);
        e.issue(Cycle(0), 1, 60);
        assert_eq!(e.retire(Cycle(55)), 1);
        assert_eq!(e.retire(Cycle(55)), 0);
        assert_eq!(e.retire(Cycle(61)), 1);
    }

    #[test]
    fn next_completion_is_earliest() {
        let mut e = DrainEngine::new();
        assert_eq!(e.next_completion(), None);
        e.issue(Cycle(0), 1, 100);
        e.issue(Cycle(0), 1, 50); // issues at 1, completes at 51
        assert_eq!(e.next_completion(), Some(Cycle(51)));
    }

    #[test]
    fn checkpoint_lists_in_flight_drains_in_completion_order() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 10, 300);
        e.issue(Cycle(0), 10, 100); // completes at 110, before the first
        e.issue(Cycle(5), 10, 200);
        let mut w = WireWriter::new();
        e.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let due: Vec<u64> = (0..r.usize().unwrap()).map(|_| r.u64().unwrap()).collect();
        assert_eq!(due, [110, 220, 300]);

        let mut back = DrainEngine::decode_from(&mut WireReader::new(&bytes)).unwrap();
        let mut again = WireWriter::new();
        back.encode_into(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(back.stats(), e.stats());
        assert_eq!(back.retire(Cycle(220)), 2);
        assert_eq!(back.all_complete_at(), Cycle(300));
    }

    #[test]
    fn all_complete_drains_pipeline() {
        let mut e = DrainEngine::new();
        e.issue(Cycle(0), 10, 100);
        e.issue(Cycle(0), 10, 100);
        let done = e.all_complete_at();
        assert_eq!(done, Cycle(110));
        assert_eq!(e.in_flight(done), 0);
    }
}
