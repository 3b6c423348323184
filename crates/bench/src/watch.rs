//! `secpb watch`: live health streaming over any front.
//!
//! Runs a workload on any [`StormFront`] with a telemetry ring attached
//! and, at a fixed simulated-cycle interval, drains the ring into a
//! [`HealthMonitor`] and emits a [`HealthSnapshot`] (JSON-lines) — plus,
//! optionally, an incrementally written Chrome trace fed from the same
//! ring.  A storm-style mode crashes, recovers, and resyncs the front
//! every `crash_every` stores so the snapshot stream shows drains,
//! recovery-cycle estimates, and anomaly counters moving under fire.
//!
//! The watch loop is an *observer* of the same deterministic replay the
//! benches run: telemetry events never steer the simulation, so watching
//! a cell does not change what the cell computes.

use std::io::Write;

use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::{counters, histograms};
use secpb_core::scheme::Scheme;
use secpb_sim::config::SystemConfig;
use secpb_sim::telemetry::{
    self, ChromeTraceStream, HealthGauges, HealthMonitor, HealthSnapshot, TelemetryReader,
    DEFAULT_RING_CAPACITY,
};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::storm::{build_front, StormFront};

/// Configuration of one watch session.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Which front to run.
    pub front: StormFront,
    /// The metadata-persistence scheme.
    pub scheme: Scheme,
    /// The workload to replay.
    pub profile: WorkloadProfile,
    /// Instruction budget for the replay.
    pub instructions: u64,
    /// Simulated cycles between health snapshots.
    pub interval: u64,
    /// Storm mode: crash (power loss, full drain), recover, and resync
    /// every this many stores.  `None` replays without crashes.
    pub crash_every: Option<u64>,
    /// Trace and key seed.
    pub seed: u64,
}

impl WatchConfig {
    /// A default session: 200 K instructions, a snapshot every 50 K
    /// cycles, no crashes.
    pub fn new(front: StormFront, scheme: Scheme, profile: WorkloadProfile) -> Self {
        WatchConfig {
            front,
            scheme,
            profile,
            instructions: 200_000,
            interval: 50_000,
            crash_every: None,
            seed: 42,
        }
    }

    /// The `--quick` smoke shape: a short storm-style cell (20 K
    /// instructions, a crash every 500 stores) snapshotting every 5 K
    /// cycles — small enough for CI, busy enough that drains, recovery
    /// estimates, and markers all appear in the stream.
    pub fn quick(mut self) -> Self {
        self.instructions = 20_000;
        self.interval = 5_000;
        self.crash_every = Some(500);
        self
    }
}

/// What a watch session produced.
#[derive(Debug)]
pub struct WatchOutcome {
    /// Every snapshot emitted, in order.
    pub snapshots: Vec<HealthSnapshot>,
    /// Total telemetry events absorbed from the ring.
    pub events: u64,
    /// Events the ring dropped (also carried by every snapshot).
    pub dropped: u64,
    /// Crashes injected by storm mode.
    pub crashes: u64,
    /// Final model-invariant anomaly count.
    pub anomalies: u64,
    /// Final simulated cycle.
    pub cycles: u64,
    /// Whether every storm-mode recovery sweep was consistent.
    pub consistent: bool,
}

/// Runs a watch session.
///
/// Snapshots are appended to `snapshot_out` as JSON lines (one
/// [`HealthSnapshot`] wire object per line) as they are taken; span
/// events stream into `trace_out` if given (the caller finishes the
/// Chrome document afterwards, passing [`WatchOutcome::dropped`]).  Both
/// writers are optional so callers can collect snapshots purely from the
/// returned [`WatchOutcome`].
///
/// # Errors
///
/// Returns a message if the front cannot be built, a storm-mode crash
/// drain fails, or a writer fails.
pub fn run_watch<W: Write, T: Write>(
    cfg: &WatchConfig,
    mut snapshot_out: Option<&mut W>,
    mut trace_out: Option<&mut ChromeTraceStream<T>>,
) -> Result<WatchOutcome, String> {
    let mut sys = build_front(cfg.front, SystemConfig::default(), cfg.scheme, cfg.seed)?;
    let (sink, mut reader) = telemetry::channel(DEFAULT_RING_CAPACITY);
    sys.set_telemetry(Some(sink.clone()));
    let mut monitor = HealthMonitor::new();
    let front_name = cfg.front.name();
    let scheme_name = cfg.front.scheme_label(sys.scheme());
    let joules_per_entry = cfg.front.joules_per_entry(sys.scheme());

    let mut generator = TraceGenerator::new(cfg.profile.clone(), cfg.seed);
    let interval = cfg.interval.max(1);
    let mut next_at = interval;
    let mut snapshots: Vec<HealthSnapshot> = Vec::new();
    let mut stores = 0u64;
    let mut crashes = 0u64;
    let mut consistent = true;

    for item in generator.stream(cfg.instructions) {
        let is_store = item.access.is_some_and(|a| a.is_store());
        sys.step(item);
        if is_store {
            stores += 1;
            if let Some(every) = cfg.crash_every {
                if every > 0 && stores.is_multiple_of(every) {
                    let report = sys
                        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                        .map_err(|e| format!("storm-mode crash drain failed: {e}"))?;
                    let rec = sys.recover_with(&report.lost_blocks);
                    consistent &= rec.is_consistent();
                    sys.resync_lost_golden(&report.lost_blocks);
                    crashes += 1;
                }
            }
        }
        // Drain the ring and snapshot at every interval crossing (a
        // long stall can cross several at once).
        while sys.finish_time().raw() >= next_at {
            emit_snapshot(
                &mut monitor,
                &mut reader,
                sys.as_ref(),
                &front_name,
                scheme_name,
                joules_per_entry,
                next_at,
                &mut snapshot_out,
                &mut trace_out,
                &mut snapshots,
            )?;
            next_at += interval;
        }
    }
    // A final snapshot always covers the tail, so even a session shorter
    // than one interval streams at least one snapshot.
    let final_cycle = sys.finish_time().raw();
    emit_snapshot(
        &mut monitor,
        &mut reader,
        sys.as_ref(),
        &front_name,
        scheme_name,
        joules_per_entry,
        final_cycle,
        &mut snapshot_out,
        &mut trace_out,
        &mut snapshots,
    )?;

    Ok(WatchOutcome {
        events: monitor.events(),
        dropped: sink.dropped(),
        crashes,
        anomalies: sys.anomalies(),
        cycles: final_cycle,
        consistent,
        snapshots,
    })
}

/// Drains the ring into the monitor (routing spans to the Chrome stream)
/// and emits one snapshot.
#[allow(clippy::too_many_arguments)]
fn emit_snapshot<W: Write, T: Write>(
    monitor: &mut HealthMonitor,
    reader: &mut TelemetryReader,
    sys: &dyn PersistSystem,
    front: &str,
    scheme: &str,
    joules_per_entry: f64,
    cycle: u64,
    snapshot_out: &mut Option<&mut W>,
    trace_out: &mut Option<&mut ChromeTraceStream<T>>,
    snapshots: &mut Vec<HealthSnapshot>,
) -> Result<(), String> {
    let mut io_err: Option<std::io::Error> = None;
    monitor.absorb(reader, |phase, begin, duration| {
        if io_err.is_none() {
            if let Some(stream) = trace_out.as_deref_mut() {
                if let Err(e) = stream.span(phase, begin, duration) {
                    io_err = Some(e);
                }
            }
        }
    });
    if let Some(e) = io_err {
        return Err(format!("trace stream write failed: {e}"));
    }
    let occupancy = sys.occupancy();
    let gauges = HealthGauges {
        occupancy,
        anomalies: sys.anomalies(),
        nwpe: sys.stats().ratio(counters::PERSISTS, counters::ALLOCATIONS),
        battery_joules: joules_per_entry * occupancy as f64,
        recovery_cycles: sys.recovery_cost().cycles,
        ..HealthGauges::default()
    };
    let snap = monitor.snapshot(
        cycle,
        front,
        scheme,
        sys.stats(),
        &gauges,
        histograms::DRAIN_LATENCY,
        reader.dropped(),
    );
    if let Some(out) = snapshot_out.as_deref_mut() {
        writeln!(out, "{}", snap.to_json()).map_err(|e| format!("snapshot write failed: {e}"))?;
    }
    snapshots.push(snap);
    Ok(())
}

#[cfg(test)]
mod tests {
    use secpb_energy::drain::{per_entry_drain_energy, secure_eadr_line_energy};

    use super::*;

    fn quick_cfg(front: StormFront) -> WatchConfig {
        WatchConfig::new(
            front,
            Scheme::Cobcm,
            WorkloadProfile::named("gamess").unwrap(),
        )
        .quick()
    }

    #[test]
    fn quick_watch_streams_snapshots_with_zero_anomalies() {
        let mut jsonl: Vec<u8> = Vec::new();
        let outcome =
            run_watch::<_, Vec<u8>>(&quick_cfg(StormFront::SecPb), Some(&mut jsonl), None).unwrap();
        assert!(!outcome.snapshots.is_empty(), "must stream >= 1 snapshot");
        assert_eq!(outcome.anomalies, 0);
        assert!(outcome.consistent);
        assert!(outcome.crashes > 0, "quick mode is storm-style");
        assert!(outcome.events > 0, "the ring must carry events");
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(
            text.lines().count(),
            outcome.snapshots.len(),
            "one JSON line per snapshot"
        );
        // Snapshots are sequenced, cycle-ordered, and drop-accounted.
        let last = outcome.snapshots.last().unwrap();
        assert_eq!(last.seq, outcome.snapshots.len() as u64);
        assert_eq!(last.dropped, outcome.dropped);
        assert_eq!(last.lossy, outcome.dropped > 0);
        assert!(last.crashes >= outcome.crashes, "markers reach the stream");
        assert_eq!(last.front, "secpb");
    }

    #[test]
    fn watch_drives_every_front() {
        for front in [
            StormFront::SecPb,
            StormFront::Eadr,
            StormFront::MultiCore(2),
        ] {
            let outcome = run_watch::<Vec<u8>, Vec<u8>>(&quick_cfg(front), None, None)
                .unwrap_or_else(|e| panic!("{}: {e}", front.name()));
            assert!(!outcome.snapshots.is_empty(), "{}", front.name());
            assert_eq!(outcome.anomalies, 0, "{}", front.name());
            assert!(outcome.consistent, "{}", front.name());
            assert!(outcome.crashes > 0, "{}", front.name());
            // Every crash and recovery reaches the stream as exactly one
            // marker, unless the ring dropped events.
            let last = outcome.snapshots.last().unwrap();
            if !last.lossy {
                assert_eq!(last.crashes, outcome.crashes, "{}", front.name());
                assert_eq!(last.recoveries, outcome.crashes, "{}", front.name());
            }
            assert_eq!(last.scheme, front.scheme_label(Scheme::Cobcm));
            if front == StormFront::Eadr {
                // eADR's gauge prices every dirty line at its share of
                // Table V's secure-eADR worst case, far above a bbb
                // entry's plain write.
                let line = secure_eadr_line_energy();
                assert!(line > 70.0 * per_entry_drain_energy(Scheme::Bbb));
                let dirty: Vec<_> = outcome
                    .snapshots
                    .iter()
                    .filter(|s| s.occupancy > 0)
                    .collect();
                assert!(!dirty.is_empty(), "eADR holds dirty lines between crashes");
                for snap in dirty {
                    let per_line = snap.battery_joules / snap.occupancy as f64;
                    assert!(
                        (per_line - line).abs() < 1e-12 * line,
                        "{per_line} vs {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn watching_does_not_steer_the_simulation() {
        // Same replay with and without a crash-free watch: final cycle
        // counts and stats must agree with a bare facade run.
        let cfg = {
            let mut c = quick_cfg(StormFront::SecPb);
            c.crash_every = None;
            c
        };
        let watched = run_watch::<Vec<u8>, Vec<u8>>(&cfg, None, None).unwrap();
        let mut generator = TraceGenerator::new(cfg.profile.clone(), cfg.seed);
        let mut bare =
            build_front(cfg.front, SystemConfig::default(), cfg.scheme, cfg.seed).unwrap();
        for item in generator.stream(cfg.instructions) {
            bare.step(item);
        }
        assert_eq!(watched.cycles, bare.finish_time().raw());
        let last = watched.snapshots.last().unwrap();
        assert_eq!(last.occupancy, bare.occupancy());
        assert_eq!(last.recovery_cycles, bare.recovery_cost().cycles);
    }

    #[test]
    fn chrome_stream_receives_spans_from_the_ring() {
        let mut trace_buf: Vec<u8> = Vec::new();
        let mut stream = ChromeTraceStream::new(&mut trace_buf).unwrap();
        stream.process("watch", 0).unwrap();
        let outcome =
            run_watch::<Vec<u8>, _>(&quick_cfg(StormFront::SecPb), None, Some(&mut stream))
                .unwrap();
        stream.finish(outcome.dropped).unwrap();
        let text = String::from_utf8(trace_buf).unwrap();
        let json = secpb_sim::json::Json::parse(&text).expect("streamed trace must parse");
        let events = json.get("traceEvents").unwrap().items();
        assert!(
            events.len() as u64 > 9,
            "metadata plus at least one streamed span"
        );
    }
}
