//! Live telemetry plane: a lock-free SPSC ring of typed events plus the
//! aggregation layer that turns the stream into periodic health snapshots.
//!
//! The design splits cleanly into three layers:
//!
//! 1. **Transport** — [`channel`] hands back a [`TelemetrySink`] (producer)
//!    and a [`TelemetryReader`] (consumer) over a fixed-capacity ring of
//!    atomic words. The ring is wait-free on both sides, allocation-free
//!    after construction, and written entirely in safe Rust: every slot is
//!    an [`AtomicU64`] and publication happens through monotonic head/tail
//!    counters with acquire/release ordering. When the ring is full the
//!    producer **drops the event and counts it** — telemetry observes the
//!    simulation, it never back-pressures it, and losses are never silent.
//! 2. **Events** — [`TelemetryEvent`] is a closed set of fixed-size
//!    records that encode into exactly three `u64` words, so the ring
//!    never fragments and a slot is always one event. The set holds only
//!    what some fold reads: histogram samples, spans, and crash/recovery
//!    markers. Counters are not streamed; a snapshot reads them off the
//!    live [`Stats`] registry.
//! 3. **Aggregation** — [`HealthMonitor`] folds the stream into per-id
//!    histograms, the span count and the crash/recovery counts and,
//!    combined with authoritative gauges sampled from the
//!    live system, produces [`HealthSnapshot`]s with a stable JSON wire
//!    form. Its [`absorb`](HealthMonitor::absorb) hands every span to a
//!    callback, which is how [`ChromeTraceStream`], the only Chrome-trace
//!    writer, renders spans into the `chrome://tracing` JSON format as
//!    they drain.
//!
//! Determinism contract: sinks are attached to [`Stats`]/tracer instances
//! as pure observers. Emission happens *after* the state change it
//! describes and nothing in the simulation ever reads the ring, so a run
//! with telemetry enabled is byte-identical to one without.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::json::Json;
use crate::stats::{Log2Histogram, Stats};
use crate::tracer::Phase;

/// Number of `u64` words a single encoded event occupies in the ring.
pub const EVENT_WORDS: usize = 3;

/// Default ring capacity (in events) used by convenience constructors.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One typed record flowing through the telemetry ring.
///
/// Every variant encodes into exactly [`EVENT_WORDS`] `u64` words (see
/// [`TelemetryEvent::encode`]), so the ring is a flat array of fixed-size
/// slots and never fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A histogram absorbed one sample.
    HistSample {
        /// Registry index of the histogram (see `HistId::index`).
        id: u32,
        /// The recorded value.
        value: u64,
    },
    /// A pipeline phase span completed.
    Span {
        /// Which pipeline phase the span belongs to.
        phase: Phase,
        /// Start cycle of the span.
        begin: u64,
        /// Length of the span in cycles (always nonzero).
        duration: u64,
    },
    /// A crash was injected at `cycle`.
    CrashMarker {
        /// `true` for power loss (full power cycle), `false` for an
        /// application crash that keeps volatile state alive.
        power_loss: bool,
        /// Cycle at which the crash struck.
        cycle: u64,
    },
    /// A recovery sweep finished.
    RecoveryMarker {
        /// `true` when every surviving block verified consistent.
        consistent: bool,
        /// Number of blocks the sweep checked.
        blocks: u64,
        /// Cycle at which recovery ran.
        cycle: u64,
    },
}

const TAG_HIST: u64 = 1;
const TAG_SPAN: u64 = 2;
const TAG_CRASH: u64 = 3;
const TAG_RECOVERY: u64 = 4;

impl TelemetryEvent {
    /// Packs the event into its three-word wire form.
    ///
    /// Word 0 layout: bits 0..8 = variant tag, bits 8..16 = small
    /// auxiliary payload (phase index or boolean), bits 32..64 =
    /// histogram id. Words 1 and 2 carry the wide payloads.
    #[must_use]
    pub fn encode(&self) -> [u64; EVENT_WORDS] {
        match *self {
            TelemetryEvent::HistSample { id, value } => {
                [TAG_HIST | (u64::from(id) << 32), value, 0]
            }
            TelemetryEvent::Span {
                phase,
                begin,
                duration,
            } => [TAG_SPAN | ((phase.index() as u64) << 8), begin, duration],
            TelemetryEvent::CrashMarker { power_loss, cycle } => {
                [TAG_CRASH | (u64::from(power_loss) << 8), cycle, 0]
            }
            TelemetryEvent::RecoveryMarker {
                consistent,
                blocks,
                cycle,
            } => [TAG_RECOVERY | (u64::from(consistent) << 8), blocks, cycle],
        }
    }

    /// Decodes a three-word wire record produced by [`encode`].
    ///
    /// Returns `None` for an unknown tag or out-of-range phase index,
    /// which cannot happen for words written by this module's encoder.
    ///
    /// [`encode`]: TelemetryEvent::encode
    #[must_use]
    pub fn decode(words: [u64; EVENT_WORDS]) -> Option<TelemetryEvent> {
        let tag = words[0] & 0xFF;
        let aux = (words[0] >> 8) & 0xFF;
        let id = (words[0] >> 32) as u32;
        match tag {
            TAG_HIST => Some(TelemetryEvent::HistSample {
                id,
                value: words[1],
            }),
            TAG_SPAN => Some(TelemetryEvent::Span {
                phase: Phase::from_index(aux as usize)?,
                begin: words[1],
                duration: words[2],
            }),
            TAG_CRASH => Some(TelemetryEvent::CrashMarker {
                power_loss: aux != 0,
                cycle: words[1],
            }),
            TAG_RECOVERY => Some(TelemetryEvent::RecoveryMarker {
                consistent: aux != 0,
                blocks: words[1],
                cycle: words[2],
            }),
            _ => None,
        }
    }
}

/// State shared between the sink and reader halves of a ring.
///
/// `head`/`tail` are monotonic event counters (not wrapped indices); a
/// slot's position is `counter % capacity`. The producer owns `tail`, the
/// consumer owns `head`, and each side only ever *reads* the other's
/// counter, which is what makes the ring SPSC-safe without locks.
struct RingShared {
    /// `capacity * EVENT_WORDS` atomic words of event storage.
    slots: Box<[AtomicU64]>,
    capacity: usize,
    /// Next event number the consumer will read.
    head: AtomicUsize,
    /// Next event number the producer will write.
    tail: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

/// Creates a telemetry channel over a ring holding `capacity` events.
///
/// The sink may be cloned freely (clones share the same ring) but the
/// single-producer contract still applies: at most one thread may emit at
/// a time. In this codebase every simulated system is single-threaded and
/// pool workers each own a private ring, so the contract holds by
/// construction.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn channel(capacity: usize) -> (TelemetrySink, TelemetryReader) {
    assert!(capacity > 0, "telemetry ring capacity must be nonzero");
    let slots: Vec<AtomicU64> = (0..capacity * EVENT_WORDS)
        .map(|_| AtomicU64::new(0))
        .collect();
    let shared = Arc::new(RingShared {
        slots: slots.into_boxed_slice(),
        capacity,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    });
    (
        TelemetrySink {
            shared: Arc::clone(&shared),
        },
        TelemetryReader { shared },
    )
}

/// Producer handle for a telemetry ring.
///
/// Cheap to clone (an [`Arc`] bump); all clones feed the same ring.
/// Attached to a [`Stats`] registry or tracer it turns every histogram
/// sample and nonzero span into a ring event. When detached
/// (`Option::None` everywhere) the emission paths compile down to a
/// skipped branch, so telemetry-off overhead is effectively zero.
#[derive(Clone)]
pub struct TelemetrySink {
    shared: Arc<RingShared>,
}

impl TelemetrySink {
    /// Pushes one event into the ring.
    ///
    /// Returns `true` if the event was enqueued. When the ring is full
    /// the event is discarded, the shared `dropped` counter is bumped,
    /// and `false` is returned — the producer never blocks or spins.
    #[inline]
    pub fn emit(&self, event: &TelemetryEvent) -> bool {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Acquire);
        let tail = s.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) >= s.capacity {
            s.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let base = (tail % s.capacity) * EVENT_WORDS;
        let words = event.encode();
        for (i, word) in words.iter().enumerate() {
            // Relaxed is enough: the Release store of `tail` below
            // publishes these writes to the consumer's Acquire load.
            s.slots[base + i].store(*word, Ordering::Relaxed);
        }
        s.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Total events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("capacity", &self.shared.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Consumer handle for a telemetry ring. Exactly one exists per channel.
#[derive(Debug)]
pub struct TelemetryReader {
    shared: Arc<RingShared>,
}

impl fmt::Debug for RingShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingShared")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TelemetryReader {
    /// Pops the oldest event, or `None` when the ring is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<TelemetryEvent> {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Acquire);
        let head = s.head.load(Ordering::Relaxed);
        if head == tail {
            return None;
        }
        let base = (head % s.capacity) * EVENT_WORDS;
        let mut words = [0u64; EVENT_WORDS];
        for (i, word) in words.iter_mut().enumerate() {
            *word = s.slots[base + i].load(Ordering::Relaxed);
        }
        // Release hands the slot back to the producer for reuse.
        s.head.store(head.wrapping_add(1), Ordering::Release);
        TelemetryEvent::decode(words)
    }

    /// Events currently buffered in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.load(Ordering::Relaxed))
    }

    /// `true` when no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

/// Authoritative gauges sampled directly from the live system at snapshot
/// time.
///
/// The ring is allowed to be lossy under overload, so correctness-critical
/// fields of a [`HealthSnapshot`] never come from the stream: the runner
/// reads them off the [`crate::stats::Stats`] registry and facade instead
/// and passes them here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthGauges {
    /// Current persist-buffer occupancy (entries or dirty lines).
    pub occupancy: u64,
    /// Cumulative model-invariant anomaly count.
    pub anomalies: u64,
    /// NVM writes per persist-buffer entry (write amplification).
    pub nwpe: f64,
    /// Battery energy needed to drain the current occupancy, in joules.
    pub battery_joules: f64,
    /// Estimated cycles a recovery sweep would take right now.
    pub recovery_cycles: u64,
    /// Tenant epoch-parts deferred (shed) under brown-out degradation,
    /// bronze class first.  Shed work is deferred, never dropped.
    pub shed_parts: u64,
    /// Tenant chunks replayed into a shard after a crash-recovery
    /// restore.
    pub replayed_chunks: u64,
    /// Shard restores performed from an epoch checkpoint.
    pub restored_shards: u64,
}

/// Folds the event stream into histograms and span/crash/recovery counts
/// and produces periodic [`HealthSnapshot`]s.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    /// Histograms rebuilt from the stream, keyed by histogram id.
    hists: Vec<Log2Histogram>,
    events: u64,
    spans: u64,
    crashes: u64,
    recoveries: u64,
    seq: u64,
}

impl HealthMonitor {
    /// Creates an empty monitor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the reader, folding every event into the monitor and
    /// handing each span to `on_span(phase, begin, duration)` — the hook
    /// live Chrome-trace emission hangs off (pass `|_, _, _| {}` to only
    /// fold). Returns the number of events absorbed.
    pub fn absorb(
        &mut self,
        reader: &mut TelemetryReader,
        mut on_span: impl FnMut(Phase, u64, u64),
    ) -> u64 {
        let mut absorbed = 0u64;
        while let Some(event) = reader.pop() {
            absorbed += 1;
            match event {
                TelemetryEvent::HistSample { id, value } => {
                    let slot = id as usize;
                    if self.hists.len() <= slot {
                        self.hists.resize_with(slot + 1, Log2Histogram::default);
                    }
                    self.hists[slot].record(value);
                }
                TelemetryEvent::Span {
                    phase,
                    begin,
                    duration,
                } => {
                    self.spans += 1;
                    on_span(phase, begin, duration);
                }
                TelemetryEvent::CrashMarker { .. } => self.crashes += 1,
                TelemetryEvent::RecoveryMarker { .. } => self.recoveries += 1,
            }
        }
        self.events += absorbed;
        absorbed
    }

    /// Total events absorbed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Builds a snapshot combining stream-derived latency distributions
    /// with authoritative `gauges` sampled from the live system.
    ///
    /// `source` is the registry the sink is attached to; it resolves
    /// `drain_hist` (e.g. `"secpb.drain_latency"`) to the histogram
    /// rebuilt from the stream. `dropped` is the ring's cumulative
    /// drop count — when nonzero the snapshot is marked `lossy` and
    /// stream-derived fields are best-effort.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &mut self,
        cycle: u64,
        front: &str,
        scheme: &str,
        source: &Stats,
        gauges: &HealthGauges,
        drain_hist: &str,
        dropped: u64,
    ) -> HealthSnapshot {
        self.seq += 1;
        let empty = Log2Histogram::default();
        let drain = source
            .histogram_entries()
            .find(|(name, _)| *name == drain_hist)
            .and_then(|(_, id)| self.hists.get(id.index()))
            .unwrap_or(&empty);
        HealthSnapshot {
            seq: self.seq,
            cycle,
            front: front.to_string(),
            scheme: scheme.to_string(),
            occupancy: gauges.occupancy,
            drain_p50: drain.percentile(0.50),
            drain_p99: drain.percentile(0.99),
            drain_mean: drain.mean(),
            drain_samples: drain.total(),
            nwpe: gauges.nwpe,
            anomalies: gauges.anomalies,
            battery_joules: gauges.battery_joules,
            recovery_cycles: gauges.recovery_cycles,
            shed: gauges.shed_parts,
            replayed: gauges.replayed_chunks,
            restored: gauges.restored_shards,
            events: self.events,
            spans: self.spans,
            crashes: self.crashes,
            recoveries: self.recoveries,
            dropped,
            lossy: dropped > 0,
        }
    }
}

/// One periodic health observation of a running front.
///
/// The JSON wire form (see [`to_json`]) is stable: field names and
/// nesting are covered by a golden-schema test and must not change
/// without a deliberate schema bump.
///
/// [`to_json`]: HealthSnapshot::to_json
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// 1-based snapshot sequence number within a watch session.
    pub seq: u64,
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
    /// Front label (`secpb`, `eadr`, `mc<N>`).
    pub front: String,
    /// Scheme name (`bbb`, `cobcm`, ...).
    pub scheme: String,
    /// Persist-buffer occupancy at snapshot time.
    pub occupancy: u64,
    /// Median drain latency from the streamed log-2 histogram.
    pub drain_p50: u64,
    /// 99th-percentile drain latency from the streamed histogram.
    pub drain_p99: u64,
    /// Mean drain latency from the streamed histogram.
    pub drain_mean: f64,
    /// Samples in the streamed drain-latency histogram.
    pub drain_samples: u64,
    /// NVM writes per persist-buffer entry.
    pub nwpe: f64,
    /// Cumulative model-invariant anomalies.
    pub anomalies: u64,
    /// Joules required to drain current occupancy on battery.
    pub battery_joules: f64,
    /// Estimated recovery-sweep cycles for the current footprint.
    pub recovery_cycles: u64,
    /// Tenant epoch-parts deferred under brown-out degradation (bronze
    /// first); deferred work is replayed later, never dropped.
    pub shed: u64,
    /// Tenant chunks replayed into shards after crash-recovery restores.
    pub replayed: u64,
    /// Shard restores performed from epoch checkpoints.
    pub restored: u64,
    /// Events absorbed from the ring so far.
    pub events: u64,
    /// Span events absorbed so far.
    pub spans: u64,
    /// Crash markers absorbed so far.
    pub crashes: u64,
    /// Recovery markers absorbed so far.
    pub recoveries: u64,
    /// Events the ring discarded (producer-side overflow).
    pub dropped: u64,
    /// `true` when `dropped > 0`: stream-derived fields are best-effort.
    pub lossy: bool,
}

impl HealthSnapshot {
    /// Serializes to the stable wire form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("seq", self.seq)
            .field("cycle", self.cycle)
            .field("front", self.front.as_str())
            .field("scheme", self.scheme.as_str())
            .field("occupancy", self.occupancy)
            .field(
                "drain_latency",
                Json::obj()
                    .field("p50", self.drain_p50)
                    .field("p99", self.drain_p99)
                    .field("mean", self.drain_mean)
                    .field("samples", self.drain_samples),
            )
            .field("nwpe", self.nwpe)
            .field("anomalies", self.anomalies)
            .field("battery_joules", self.battery_joules)
            .field("recovery_cycles", self.recovery_cycles)
            .field(
                "resilience",
                Json::obj()
                    .field("shed", self.shed)
                    .field("replayed", self.replayed)
                    .field("restored", self.restored),
            )
            .field(
                "telemetry",
                Json::obj()
                    .field("events", self.events)
                    .field("spans", self.spans)
                    .field("crashes", self.crashes)
                    .field("recoveries", self.recoveries)
                    .field("dropped", self.dropped)
                    .field("lossy", self.lossy),
            )
    }

    /// Parses a snapshot back from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<HealthSnapshot, String> {
        fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        }
        fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
        }
        fn str_field(json: &Json, key: &str) -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        }
        let drain = json
            .get("drain_latency")
            .ok_or("missing field \"drain_latency\"")?;
        let resilience = json
            .get("resilience")
            .ok_or("missing field \"resilience\"")?;
        let telemetry = json.get("telemetry").ok_or("missing field \"telemetry\"")?;
        let lossy = match telemetry.get("lossy") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing or non-boolean field \"lossy\"".to_string()),
        };
        Ok(HealthSnapshot {
            seq: u64_field(json, "seq")?,
            cycle: u64_field(json, "cycle")?,
            front: str_field(json, "front")?,
            scheme: str_field(json, "scheme")?,
            occupancy: u64_field(json, "occupancy")?,
            drain_p50: u64_field(drain, "p50")?,
            drain_p99: u64_field(drain, "p99")?,
            drain_mean: f64_field(drain, "mean")?,
            drain_samples: u64_field(drain, "samples")?,
            nwpe: f64_field(json, "nwpe")?,
            anomalies: u64_field(json, "anomalies")?,
            battery_joules: f64_field(json, "battery_joules")?,
            recovery_cycles: u64_field(json, "recovery_cycles")?,
            shed: u64_field(resilience, "shed")?,
            replayed: u64_field(resilience, "replayed")?,
            restored: u64_field(resilience, "restored")?,
            events: u64_field(telemetry, "events")?,
            spans: u64_field(telemetry, "spans")?,
            crashes: u64_field(telemetry, "crashes")?,
            recoveries: u64_field(telemetry, "recoveries")?,
            dropped: u64_field(telemetry, "dropped")?,
            lossy,
        })
    }
}

/// Incremental `chrome://tracing` JSON emitter fed from ring span events
/// — the one Chrome-trace writer.
///
/// Writes one `ph:"X"` complete event per span, with the phase index + 1
/// as the tid, as the ring drains, so a long run streams its trace
/// instead of buffering it. A document holds one or more process tracks
/// (one per scheme in `debug_one`, one in `secpb watch`): each
/// [`process`] call writes that process's metadata events, and the spans
/// after it land on its track. Timestamps are simulated cycles (the
/// viewer labels them µs; the unit is nominal). Call [`finish`] exactly
/// once to close the JSON document.
///
/// [`process`]: ChromeTraceStream::process
/// [`finish`]: ChromeTraceStream::finish
#[derive(Debug)]
pub struct ChromeTraceStream<W: Write> {
    out: W,
    /// Process track the next span lands on.
    pid: u32,
    /// Events written so far, metadata included.
    events: u64,
    finished: bool,
}

impl<W: Write> ChromeTraceStream<W> {
    /// Starts a trace document by opening its `traceEvents` array.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn new(mut out: W) -> io::Result<Self> {
        write!(out, "{{\"traceEvents\": [")?;
        Ok(ChromeTraceStream {
            out,
            pid: 0,
            events: 0,
            finished: false,
        })
    }

    /// Opens the process track `pid`, labelled `name`, with one thread
    /// per phase; spans written after this call land on it.  Call it
    /// before the first span.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn process(&mut self, name: &str, pid: u32) -> io::Result<()> {
        self.pid = pid;
        self.metadata("process_name", 0, name)?;
        for phase in Phase::ALL {
            self.metadata("thread_name", phase.index() as u32 + 1, phase.name())?;
        }
        Ok(())
    }

    fn metadata(&mut self, kind: &str, tid: u32, name: &str) -> io::Result<()> {
        let pid = self.pid;
        self.event(format_args!(
            "{{\"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}}"
        ))
    }

    /// Appends one complete (`ph:"X"`) span event to the current process
    /// track.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn span(&mut self, phase: Phase, begin: u64, duration: u64) -> io::Result<()> {
        let pid = self.pid;
        self.event(format_args!(
            "{{\"name\": \"{}\", \"cat\": \"secpb\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"ts\": {begin}, \"dur\": {duration}}}",
            phase.name(),
            phase.index() + 1,
        ))
    }

    fn event(&mut self, event: fmt::Arguments<'_>) -> io::Result<()> {
        let sep = if self.events == 0 { "" } else { "," };
        self.events += 1;
        write!(self.out, "{sep}\n  {event}")
    }

    /// Closes the JSON document, recording `dropped` ring losses in
    /// `otherData` so a lossy trace is visibly lossy.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `out`.
    pub fn finish(&mut self, dropped: u64) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        write!(
            self.out,
            "\n], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"dropped_spans\": {dropped}}}}}\n"
        )?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::HistSample { id: 2, value: 129 },
            TelemetryEvent::Span {
                phase: Phase::Drain,
                begin: 1_000,
                duration: 42,
            },
            TelemetryEvent::CrashMarker {
                power_loss: true,
                cycle: 6_000,
            },
            TelemetryEvent::RecoveryMarker {
                consistent: true,
                blocks: 99,
                cycle: 7_000,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_the_wire_form() {
        for event in all_variants() {
            assert_eq!(TelemetryEvent::decode(event.encode()), Some(event));
        }
    }

    #[test]
    fn ring_preserves_fifo_order() {
        let (sink, mut reader) = channel(16);
        for event in all_variants() {
            assert!(sink.emit(&event));
        }
        let drained: Vec<_> = std::iter::from_fn(|| reader.pop()).collect();
        assert_eq!(drained, all_variants());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let (sink, mut reader) = channel(4);
        let event = TelemetryEvent::HistSample { id: 0, value: 1 };
        for _ in 0..4 {
            assert!(sink.emit(&event));
        }
        assert!(!sink.emit(&event));
        assert!(!sink.emit(&event));
        assert_eq!(sink.dropped(), 2);
        assert_eq!(reader.dropped(), 2);
        // Draining one slot makes room for exactly one more event.
        assert_eq!(reader.pop(), Some(event));
        assert!(sink.emit(&event));
        assert!(!sink.emit(&event));
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn ring_survives_cross_thread_handoff_in_order() {
        let (sink, mut reader) = channel(64);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                // Spin until there is room so every event survives; the
                // simulation never does this (it drops instead), but it
                // makes the ordering assertion below exact.
                while !sink.emit(&TelemetryEvent::HistSample { id: 1, value: i }) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        while expect < 10_000 {
            if let Some(TelemetryEvent::HistSample { id, value }) = reader.pop() {
                assert_eq!(id, 1);
                assert_eq!(value, expect, "events must arrive in emission order");
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(reader.is_empty());
    }

    #[test]
    fn chrome_trace_stream_emits_valid_json() {
        let mut buf = Vec::new();
        let mut stream = ChromeTraceStream::new(&mut buf).unwrap();
        stream.process("watch", 1).unwrap();
        stream.span(Phase::Drain, 10, 5).unwrap();
        stream.span(Phase::StorePersist, 20, 7).unwrap();
        stream.finish(3).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let json = Json::parse(&text).expect("stream output must parse");
        let events = json.get("traceEvents").unwrap().items();
        // 1 process + PHASE_COUNT thread metadata events + 2 spans.
        assert_eq!(events.len(), 1 + Phase::ALL.len() + 2);
        assert_eq!(
            json.get("otherData")
                .unwrap()
                .get("dropped_spans")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn chrome_trace_stream_puts_each_process_on_its_own_track() {
        let mut buf = Vec::new();
        let mut stream = ChromeTraceStream::new(&mut buf).unwrap();
        stream.process("bbb", 1).unwrap();
        stream.span(Phase::Mac, 0, 2).unwrap();
        stream.process("cobcm", 2).unwrap();
        stream.span(Phase::Drain, 4, 3).unwrap();
        stream.finish(0).unwrap();
        let json = Json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = json.get("traceEvents").unwrap().items();
        // Each process's metadata precedes its span, and both carry its
        // pid.
        let per_process = 1 + Phase::ALL.len() + 1;
        assert_eq!(events.len(), 2 * per_process);
        for (i, event) in events.iter().enumerate() {
            let ph = if i % per_process == per_process - 1 {
                "X"
            } else {
                "M"
            };
            assert_eq!(event.get("ph").and_then(Json::as_str), Some(ph));
            let pid = 1 + (i / per_process) as u64;
            assert_eq!(event.get("pid").and_then(Json::as_u64), Some(pid));
        }
        let process_name = |i: usize| events[i].get("args").unwrap().get("name").unwrap().as_str();
        assert_eq!(process_name(0), Some("bbb"));
        assert_eq!(process_name(per_process), Some("cobcm"));
    }
}
