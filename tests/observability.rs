//! Integration tests for the observability layer: log-2 histogram
//! semantics, JSON round-trips, the cycle-attribution invariant, and
//! the determinism of the `--stats-json` / `--trace-out` exports.

use secpb::core::scheme::Scheme;
use secpb::core::tree::TreeKind;
use secpb::sim::config::SystemConfig;
use secpb::sim::json::Json;
use secpb::sim::stats::{Log2Histogram, Stats};
use secpb::sim::telemetry::{self, ChromeTraceStream, HealthMonitor};
use secpb::sim::tracer::{Phase, Tracer};
use secpb_bench::experiments::{run_benchmark_instrumented, run_benchmark_traced};
use secpb_workloads::WorkloadProfile;

/// The `ph:"X"` span events of a streamed Chrome trace document, each as
/// `(pid, name, dur)`, plus its `otherData.dropped_spans`.
fn parse_spans(doc: &[u8]) -> (Vec<(u64, String, u64)>, u64) {
    let json = Json::parse(std::str::from_utf8(doc).expect("utf-8")).expect("valid JSON");
    let spans = json
        .get("traceEvents")
        .expect("traceEvents")
        .items()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let field = |key: &str| e.get(key).and_then(Json::as_u64).expect(key);
            assert!(e.get("ts").is_some() && e.get("tid").is_some());
            let name = e.get("name").and_then(Json::as_str).expect("name");
            (field("pid"), name.to_owned(), field("dur"))
        })
        .collect();
    let dropped = json
        .get("otherData")
        .and_then(|o| o.get("dropped_spans"))
        .and_then(Json::as_u64)
        .expect("dropped_spans");
    (spans, dropped)
}

/// Per-phase summed `dur` of process `pid`'s spans.
fn phase_durations(spans: &[(u64, String, u64)], pid: u64) -> Vec<u64> {
    Phase::ALL
        .iter()
        .map(|phase| {
            spans
                .iter()
                .filter(|(p, name, _)| *p == pid && name == phase.name())
                .map(|(_, _, dur)| dur)
                .sum()
        })
        .collect()
}

#[test]
fn histogram_bucket_boundaries_are_log2() {
    // Bucket 0 holds exactly {0}; bucket i holds [2^(i-1), 2^i - 1].
    assert_eq!(Log2Histogram::bucket_index(0), 0);
    assert_eq!(Log2Histogram::bucket_index(1), 1);
    assert_eq!(Log2Histogram::bucket_index(2), 2);
    assert_eq!(Log2Histogram::bucket_index(3), 2);
    assert_eq!(Log2Histogram::bucket_index(4), 3);
    assert_eq!(Log2Histogram::bucket_index(7), 3);
    assert_eq!(Log2Histogram::bucket_index(8), 4);
    assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);

    for index in 0..=64 {
        let (lo, hi) = Log2Histogram::bucket_range(index);
        assert_eq!(
            Log2Histogram::bucket_index(lo),
            index,
            "lo of bucket {index}"
        );
        assert_eq!(
            Log2Histogram::bucket_index(hi),
            index,
            "hi of bucket {index}"
        );
        if lo > 0 {
            assert_eq!(Log2Histogram::bucket_index(lo - 1), index - 1);
        }
        if hi < u64::MAX {
            assert_eq!(Log2Histogram::bucket_index(hi + 1), index + 1);
        }
    }
}

#[test]
fn histogram_merge_matches_recording_everything_in_one() {
    let values_a = [0u64, 1, 5, 9, 1000, 65_536];
    let values_b = [2u64, 2, 3, 1 << 40];
    let mut a = Log2Histogram::new();
    let mut b = Log2Histogram::new();
    let mut both = Log2Histogram::new();
    for v in values_a {
        a.record(v);
        both.record(v);
    }
    for v in values_b {
        b.record(v);
        both.record(v);
    }
    a.merge(&b);
    assert_eq!(a, both);
    assert_eq!(a.total(), 10);
    assert_eq!(a.min(), 0);
    assert_eq!(a.max(), 1 << 40);
    assert_eq!(a.sum(), both.sum());
}

#[test]
fn histogram_json_round_trips() {
    // JSON numbers are f64, so values stay below 2^53 (the documented
    // exact-round-trip range).
    let mut h = Log2Histogram::new();
    for v in [0u64, 1, 3, 3, 900, 1 << 50] {
        h.record(v);
    }
    let j = h.to_json();
    let back = Log2Histogram::from_json(&j).expect("round trip");
    assert_eq!(back, h);
    // And through the text form too.
    let text = j.to_string();
    let parsed = Json::parse(&text).expect("parse");
    assert_eq!(Log2Histogram::from_json(&parsed).expect("reparse"), h);
}

#[test]
fn stats_json_carries_counters_and_histograms() {
    let mut stats = Stats::new();
    let c = stats.counter("test.counter");
    let h = stats.histogram_id("test.hist");
    stats.add(c, 7);
    stats.record(h, 12);
    let j = stats.to_json();
    assert_eq!(
        j.get("counters")
            .and_then(|c| c.get("test.counter"))
            .and_then(Json::as_u64),
        Some(7)
    );
    let hist = j
        .get("histograms")
        .and_then(|h| h.get("test.hist"))
        .expect("histogram dumped");
    assert_eq!(Log2Histogram::from_json(hist).expect("parse").total(), 1);
}

#[test]
fn tracer_phase_accounting_and_chrome_export() {
    use secpb::sim::cycle::Cycle;
    let (sink, mut reader) = telemetry::channel(16);
    let mut t = Tracer::new();
    t.set_sink(Some(sink));
    t.span(Phase::Mac, Cycle(10), Cycle(50));
    t.span(Phase::Mac, Cycle(60), Cycle(100));
    t.span(Phase::Drain, Cycle(0), Cycle(5));
    t.span(Phase::FullStall, Cycle(7), Cycle(7));
    assert_eq!(t.count(Phase::Mac), 2);
    assert_eq!(t.cycles(Phase::Mac), 80);
    assert_eq!(t.count(Phase::Drain), 1);
    assert_eq!(t.count(Phase::FullStall), 1);

    // The ring's spans, streamed into one process track: per phase the
    // `dur`s sum to the tracer's cycles, and the zero-length stall adds
    // no event.
    let mut doc = Vec::new();
    let mut stream = ChromeTraceStream::new(&mut doc).expect("open");
    stream.process("cm", 3).expect("process");
    HealthMonitor::new().absorb(&mut reader, |phase, begin, duration| {
        stream.span(phase, begin, duration).expect("span");
    });
    stream.finish(reader.dropped()).expect("finish");
    let (spans, dropped) = parse_spans(&doc);
    assert_eq!(dropped, 0);
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().all(|(pid, _, _)| *pid == 3));
    assert_eq!(
        phase_durations(&spans, 3),
        Phase::ALL.map(|phase| t.cycles(phase))
    );
}

/// The paper-facing acceptance check, in-process: for every scheme the
/// cycle breakdown attributes each measured cycle exactly once.
#[test]
fn breakdown_accounts_for_every_cycle() {
    let profile = WorkloadProfile::named("gcc").expect("profile");
    for scheme in Scheme::ALL {
        let (r, _) = run_benchmark_instrumented(
            &profile,
            scheme,
            SystemConfig::default(),
            TreeKind::Monolithic,
            20_000,
        );
        assert_eq!(
            r.breakdown.total(),
            r.cycles,
            "{scheme}: breakdown must sum to cycles"
        );
    }
}

/// Two identical instrumented runs must produce byte-identical stats
/// JSON and Chrome traces — the determinism guarantee behind
/// `debug_one --stats-json` / `--trace-out` diffing.  The trace holds one
/// process per scheme whose spans add up to the tracer's aggregates.
#[test]
fn identical_runs_export_identical_json() {
    let profile = WorkloadProfile::named("povray").expect("profile");
    let schemes = [Scheme::Bbb, Scheme::Cobcm, Scheme::NoGap];
    let run = || {
        let mut dumps = Vec::new();
        let mut cycles = Vec::new();
        let mut trace = Vec::new();
        let mut stream = ChromeTraceStream::new(&mut trace).expect("open");
        let mut dropped = 0;
        for (pid, scheme) in (1..).zip(schemes) {
            let (r, sys, lost) = run_benchmark_traced(
                &profile,
                scheme,
                SystemConfig::default(),
                TreeKind::Monolithic,
                15_000,
                &mut stream,
                pid,
            )
            .expect("in-memory trace");
            dumps.push(r.to_json());
            cycles.push(Phase::ALL.map(|phase| sys.tracer().cycles(phase)).to_vec());
            dropped += lost;
        }
        stream.finish(dropped).expect("finish");
        (Json::Arr(dumps).to_pretty(), trace, cycles)
    };
    let (stats_a, trace_a, cycles) = run();
    let (stats_b, trace_b, _) = run();
    assert_eq!(
        stats_a, stats_b,
        "stats JSON must be byte-identical across runs"
    );
    assert!(
        trace_a == trace_b,
        "Chrome trace must be byte-identical across runs"
    );
    let (spans, dropped) = parse_spans(&trace_a);
    assert_eq!(dropped, 0);
    let mut pids: Vec<u64> = spans.iter().map(|(pid, _, _)| *pid).collect();
    pids.dedup();
    assert_eq!(pids, [1, 2, 3], "one process per scheme, in order");
    for (pid, expected) in (1..).zip(&cycles) {
        assert_eq!(&phase_durations(&spans, pid), expected, "pid {pid}");
    }
}

/// A scheme's instrumented run populates the SecPB histograms and spans.
#[test]
fn instrumented_run_populates_histograms() {
    let profile = WorkloadProfile::named("gcc").expect("profile");
    let (r, sys) = run_benchmark_instrumented(
        &profile,
        Scheme::Cobcm,
        SystemConfig::default(),
        TreeKind::Monolithic,
        20_000,
    );
    let occ = r
        .stats
        .histogram("secpb.occupancy")
        .expect("occupancy histogram");
    assert_eq!(occ.total(), r.stats.get("secpb.persists"));
    let wpe = r
        .stats
        .histogram("secpb.writes_per_entry")
        .expect("writes-per-entry histogram");
    assert_eq!(wpe.total(), r.stats.get("secpb.drains"));
    assert!(sys.tracer().count(Phase::StorePersist) > 0);
    assert!(sys.tracer().count(Phase::Drain) > 0);
}

/// `SecureSystem` keeps typed-handle and string-keyed reads coherent.
#[test]
fn typed_and_string_counter_views_agree() {
    let profile = WorkloadProfile::named("gcc").expect("profile");
    let (r, _) = run_benchmark_instrumented(
        &profile,
        Scheme::Cm,
        SystemConfig::default(),
        TreeKind::Monolithic,
        10_000,
    );
    // Every counter surfaced by iter() is readable by name with the
    // same value; the JSON dump agrees too.
    let j = r.stats.to_json();
    for (name, value) in r.stats.iter() {
        assert_eq!(r.stats.get(name), value);
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64),
            Some(value),
            "{name} diverges in JSON"
        );
    }
}
