//! Cycle-attribution tracing: scoped span events over simulated time.
//!
//! Counters say *how often* something happened; the [`Tracer`] says
//! *where the cycles went*.  Model components emit [`Phase`]-tagged spans
//! (`tracer.span(Phase::OtpGen, begin, end)`) as they account simulated
//! work.  The tracer keeps exact per-phase totals (cycles and span
//! counts, O(1) per span); individual spans leave only through an
//! attached telemetry ring, from which
//! [`ChromeTraceStream`](crate::telemetry::ChromeTraceStream) writes a
//! Chrome trace-event JSON, viewable in `about://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! # Example
//!
//! ```
//! use secpb_sim::cycle::Cycle;
//! use secpb_sim::tracer::{Phase, Tracer};
//!
//! let mut t = Tracer::new();
//! t.span(Phase::OtpGen, Cycle(100), Cycle(140));
//! t.span(Phase::OtpGen, Cycle(200), Cycle(240));
//! assert_eq!(t.cycles(Phase::OtpGen), 80);
//! assert_eq!(t.count(Phase::OtpGen), 2);
//! ```

use crate::cycle::Cycle;
use crate::telemetry::{TelemetryEvent, TelemetrySink};

/// The traced phases of the secure persist path.
///
/// The first seven mirror the paper's cycle-consuming components; the
/// `MemRead` phase covers cache-hierarchy fills observed on loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A store entering the persist path (SecPB allocate or coalesce).
    StorePersist,
    /// Fetching (and missing on) an encryption counter.
    CounterFetch,
    /// Generating an OTP (counter-mode AES pad).
    OtpGen,
    /// Updating Bonsai Merkle Tree nodes up to the root.
    BmtUpdate,
    /// Computing a data MAC.
    Mac,
    /// Draining a SecPB entry to the NVM write queue.
    Drain,
    /// The core stalled because the SecPB (or its watermark) was full.
    FullStall,
    /// A demand load filling from the cache hierarchy or NVM.
    MemRead,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 8;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::StorePersist,
        Phase::CounterFetch,
        Phase::OtpGen,
        Phase::BmtUpdate,
        Phase::Mac,
        Phase::Drain,
        Phase::FullStall,
        Phase::MemRead,
    ];

    /// The stable snake_case span name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::StorePersist => "store_persist",
            Phase::CounterFetch => "counter_fetch",
            Phase::OtpGen => "otp_gen",
            Phase::BmtUpdate => "bmt_update",
            Phase::Mac => "mac",
            Phase::Drain => "drain",
            Phase::FullStall => "full_stall",
            Phase::MemRead => "mem_read",
        }
    }

    /// The phase's position in [`Phase::ALL`] — the stable small integer
    /// used as the Chrome-trace tid offset and the telemetry wire code.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`Phase::index`]; `None` if out of range.
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }
}

/// Per-phase cycle aggregation.
///
/// Like [`crate::stats::Stats`], a tracer may carry a live
/// [`TelemetrySink`]: every nonzero-length span is then mirrored into
/// the ring as a [`TelemetryEvent::Span`].  The sink is ignored by
/// `PartialEq`, dropped by `Clone` (clones are snapshots), and kept by
/// [`Tracer::reset`].
#[derive(Debug, Default)]
pub struct Tracer {
    cycles: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
    sink: Option<TelemetrySink>,
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            cycles: self.cycles,
            counts: self.counts,
            sink: None,
        }
    }
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles && self.counts == other.counts
    }
}

impl Tracer {
    /// An empty tracer with no sink.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Attaches (or with `None` detaches) a live telemetry sink; every
    /// nonzero-length span is then mirrored into the ring.  Survives
    /// [`Self::reset`]; dropped by `Clone`.
    pub fn set_sink(&mut self, sink: Option<TelemetrySink>) {
        self.sink = sink;
    }

    /// Records a span covering `[begin, end)` in simulated time.
    ///
    /// Zero-length spans still count toward [`Self::count`] (the event
    /// happened, it just cost no cycles) but are not sent to the sink.
    #[inline]
    pub fn span(&mut self, phase: Phase, begin: Cycle, end: Cycle) {
        let duration = end.since(begin);
        let i = phase.index();
        self.cycles[i] += duration;
        self.counts[i] += 1;
        if duration > 0 {
            if let Some(sink) = &self.sink {
                sink.emit(&TelemetryEvent::Span {
                    phase,
                    begin: begin.raw(),
                    duration,
                });
            }
        }
    }

    /// Total cycles attributed to `phase`.
    pub fn cycles(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Number of spans recorded for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Zeroes the aggregates; an attached sink is kept.  Used at
    /// measurement-region boundaries.
    pub fn reset(&mut self) {
        self.cycles = [0; PHASE_COUNT];
        self.counts = [0; PHASE_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_phase() {
        let mut t = Tracer::new();
        t.span(Phase::Mac, Cycle(10), Cycle(50));
        t.span(Phase::Mac, Cycle(60), Cycle(61));
        t.span(Phase::Drain, Cycle(0), Cycle(5));
        assert_eq!(t.cycles(Phase::Mac), 41);
        assert_eq!(t.count(Phase::Mac), 2);
        assert_eq!(t.cycles(Phase::Drain), 5);
        t.reset();
        assert_eq!((t.cycles(Phase::Mac), t.count(Phase::Mac)), (0, 0));
    }

    #[test]
    fn zero_length_spans_count_but_are_not_sent_to_the_sink() {
        let (sink, mut reader) = crate::telemetry::channel(8);
        let mut t = Tracer::new();
        t.set_sink(Some(sink));
        t.span(Phase::FullStall, Cycle(7), Cycle(7));
        assert_eq!(t.count(Phase::FullStall), 1);
        assert_eq!(t.cycles(Phase::FullStall), 0);
        // Resets keep the sink; clones are snapshots and drop it.
        t.reset();
        t.clone().span(Phase::Mac, Cycle(0), Cycle(5));
        t.span(Phase::Mac, Cycle(9), Cycle(12));
        let sent: Vec<_> = std::iter::from_fn(|| reader.pop()).collect();
        assert_eq!(
            sent,
            [TelemetryEvent::Span {
                phase: Phase::Mac,
                begin: 9,
                duration: 3
            }]
        );
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "store_persist",
                "counter_fetch",
                "otp_gen",
                "bmt_update",
                "mac",
                "drain",
                "full_stall",
                "mem_read"
            ]
        );
    }
}
