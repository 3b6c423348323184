//! The grid workloads: single-core SecPB cells replayed warm, measured,
//! then crash-tested.
//!
//! A round runs every cell of the workload once: generate the cell's
//! trace, build the system and warm it up (set-up), replay the measured
//! region, then `crash(PowerLoss, DrainAll)` and `recover()`.  Rounds
//! repeat until the time budget is spent; every end-to-end figure is the
//! median over rounds, calibrated for host speed (see [`crate::host`]).

use std::time::{Duration, Instant};

use secpb_bench::experiments::warmup_for;
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::{counters, RunResult};
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_crypto::sha512::Sha512;
use secpb_sim::config::SystemConfig;
use secpb_sim::fxhash::derive_seed;
use secpb_sim::trace::TraceItem;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::host::Calibration;
use crate::probe::{self, ratio, Spans, StepProfile};
use crate::report::{self, Kind, Outcome};
use crate::RunCtx;

/// One `(benchmark, scheme)` coordinate, always on the monolithic BMT.
pub struct Cell {
    pub bench: &'static str,
    pub scheme: Scheme,
}

const fn cell(bench: &'static str, scheme: Scheme) -> Cell {
    Cell { bench, scheme }
}

/// Store-heavy cells with little coalescing, at both ends of the paper's
/// early/late split: SecPB allocations, drains and their crypto dominate
/// host time, and each cell recovers tens of thousands of blocks.
pub const STORES: [Cell; 4] = [
    cell("gamess", Scheme::NoGap),
    cell("gamess", Scheme::Cobcm),
    cell("bwaves", Scheme::NoGap),
    cell("bwaves", Scheme::Cobcm),
];

/// Load-heavy and coalescing cells: the cache hierarchy dominates host
/// time, crypto and recovery are small.  A crypto or recovery change
/// should leave this workload unchanged.
pub const LOADS: [Cell; 4] = [
    cell("mcf", Scheme::Bbb),
    cell("mcf", Scheme::Cm),
    cell("povray", Scheme::Bbb),
    cell("povray", Scheme::Cm),
];

/// Digest prefixes of every cell's simulated statistics and recovery
/// verdict, for the default seed at the standard budget.
const PINS: [(&str, Scheme, &str); 8] = [
    ("gamess", Scheme::NoGap, "589501fa92f56420"),
    ("gamess", Scheme::Cobcm, "5a33d17b78f5b774"),
    ("bwaves", Scheme::NoGap, "374525ceb2997023"),
    ("bwaves", Scheme::Cobcm, "a0a9e5111f7e18c6"),
    ("mcf", Scheme::Bbb, "2288565f788f5117"),
    ("mcf", Scheme::Cm, "c3d1ec948a8c1e28"),
    ("povray", Scheme::Bbb, "d392a0379be4498d"),
    ("povray", Scheme::Cm, "9e7e657b192086e4"),
];

/// Host time and simulated work of one round.
#[derive(Default)]
struct Round {
    setup: Duration,
    measure: Duration,
    recover: Duration,
    instructions: u64,
    stores: u64,
}

/// Per-layer accumulators of the traced rounds.
#[derive(Default)]
struct Probe {
    spans: Spans,
    steps: StepProfile,
    gen_ns: u64,
    gen_items: u64,
    crash_ns: u64,
    recover_ns: u64,
    blocks: u64,
    memory_accesses: u64,
    fold_hashes: u64,
    memo_hits: u64,
    memo_lookups: u64,
    counts: [u64; 7],
}

/// The simulator counters the traced run reports per round, in
/// [`Probe::counts`] order.
const COUNTED: [(&str, &str); 7] = [
    ("mem.loads", counters::LOADS),
    ("secpb.persists", counters::PERSISTS),
    ("secpb.allocations", counters::ALLOCATIONS),
    ("secpb.drains", counters::DRAINS),
    ("crypto.bmt_node_hashes", counters::BMT_NODE_HASHES),
    ("crypto.otps", counters::OTPS),
    ("crypto.macs", counters::MACS),
];

/// Runs one grid workload: untraced rounds for the end-to-end metrics,
/// or (`traced`) traced rounds for the per-layer metrics.
///
/// # Errors
///
/// When the metrics cannot be laid out or the span file cannot be
/// written.
pub fn run(cells: &[Cell], ctx: &RunCtx, traced: bool) -> Result<Outcome, String> {
    let deadline = Instant::now() + ctx.seconds;
    let mut out = Outcome::default();
    let mut first_digests: Vec<String> = Vec::new();
    let mut rounds = vec![round(cells, ctx, None, &mut out, &mut first_digests)];
    if !traced {
        // VmHWM after one round: the footprint of one unit of work, read
        // before repeated rounds (or calibration) let the allocator's
        // adaptive thresholds and fragmentation creep in.
        let rss = report::peak_rss_mib()?;
        let mut cal = Calibration::default();
        let mut slowdowns = vec![cal.after_unit()];
        while Instant::now() < deadline {
            rounds.push(round(cells, ctx, None, &mut out, &mut first_digests));
            slowdowns.push(cal.after_unit());
        }
        cal.report();
        let col = |f: &dyn Fn(&Round) -> f64| {
            rounds
                .iter()
                .zip(&slowdowns)
                .map(|(r, &slowdown)| (f(r), slowdown))
                .collect::<Vec<_>>()
        };
        let values = report::summarize(&[
            ("setup_s", Kind::Time, col(&|r| r.setup.as_secs_f64())),
            (
                "sim_minstr_per_s",
                Kind::Rate,
                col(&|r| r.instructions as f64 / r.measure.as_secs_f64() / 1e6),
            ),
            ("recover_s", Kind::Time, col(&|r| r.recover.as_secs_f64())),
            (
                "serve_stores_per_s",
                Kind::Rate,
                col(&|r| r.stores as f64 / r.measure.as_secs_f64()),
            ),
            ("peak_rss_mb", Kind::Size, vec![(rss, 1.0)]),
        ]);
        out.metrics = report::in_schema(&report::END_TO_END, &values, None)?;
        return Ok(out);
    }

    // Traced rounds alternate with untraced ones, so both see the same
    // host load; the difference of their means is the tracing overhead.
    let mut untraced = vec![rounds[0].measure];
    let mut traced_runs = Vec::new();
    let mut p = Probe::default();
    loop {
        traced_runs.push(round(cells, ctx, Some(&mut p), &mut out, &mut first_digests).measure);
        if Instant::now() >= deadline {
            break;
        }
        untraced.push(round(cells, ctx, None, &mut out, &mut first_digests).measure);
    }
    let mean_ms = |d: &[Duration]| d.iter().map(|&d| ms(d)).sum::<f64>() / d.len() as f64;
    let n = traced_runs.len() as f64;
    let traced_ms = mean_ms(&traced_runs);
    let untraced_ms = mean_ms(&untraced);
    let layers_ms = p.steps.total_ns() as f64 / 1e6 / n;
    let floors = probe::kernel_floors();
    let mut values = vec![
        (
            "workloads.gen_ns_per_item",
            ratio(p.gen_ns as f64, p.gen_items as f64),
        ),
        ("mem.load_ns", p.steps.mean_load_ns()),
        ("mem.memory_accesses", p.memory_accesses as f64 / n),
        ("secpb.store_ns", p.steps.mean_store_ns()),
        ("secpb.store_ns_p50", p.steps.store_percentile(50.0)),
        ("secpb.store_ns_p99", p.steps.store_percentile(99.0)),
        (
            "crypto.memo_hit_ratio",
            ratio(p.memo_hits as f64, p.memo_lookups as f64),
        ),
        ("crypto.fold_hashes", p.fold_hashes as f64 / n),
        ("crypto.aes_block_ns", floors.aes_block_ns),
        ("crypto.hmac64_ns", floors.hmac64_ns),
        ("crypto.bmt_update_ns", floors.bmt_update_ns),
        ("recovery.crash_ms", p.crash_ns as f64 / 1e6 / n),
        ("recovery.recover_ms", p.recover_ns as f64 / 1e6 / n),
        (
            "recovery.us_per_block",
            ratio(p.recover_ns as f64 / 1e3, p.blocks as f64),
        ),
        ("recovery.blocks", p.blocks as f64 / n),
        ("trace.traced_ms", traced_ms),
        ("trace.untraced_ms", untraced_ms),
        ("trace.overhead_ms", traced_ms - untraced_ms),
        ("trace.layers_ms", layers_ms),
        ("trace.residual_ms", traced_ms - layers_ms),
    ];
    for ((name, _), count) in COUNTED.iter().zip(p.counts) {
        values.push((name, count as f64 / n));
    }
    out.metrics = report::in_schema(&report::PER_LAYER, &values, Some(0.0))?;
    let path = ctx
        .out_dir
        .join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
    p.spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("hostbench: spans written to {}", path.display());
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every cell once and checks each as one operation: a consistent
/// recovery, no anomalies, a digest equal to the cell's first round (the
/// simulator is deterministic) and, when pinned, to its pin.
fn round(
    cells: &[Cell],
    ctx: &RunCtx,
    mut probe: Option<&mut Probe>,
    out: &mut Outcome,
    first_digests: &mut Vec<String>,
) -> Round {
    let mut r = Round::default();
    let round_span = probe.as_mut().map(|p| p.spans.begin("round", None));
    for (i, cell) in cells.iter().enumerate() {
        let run = run_cell(cell, ctx, probe.as_deref_mut(), round_span);
        r.setup += run.setup;
        r.measure += run.measure;
        r.recover += run.recover;
        r.instructions += run.instructions;
        r.stores += run.stores;
        let mut failure = run.failure;
        if first_digests.len() == i {
            first_digests.push(run.digest.clone());
        } else if first_digests[i] != run.digest && failure.is_none() {
            failure = Some(format!(
                "digest {} differs from the first round's {}",
                run.digest, first_digests[i]
            ));
        }
        if ctx.pinned && failure.is_none() {
            let pin = PINS
                .iter()
                .find(|(b, s, _)| *b == cell.bench && *s == cell.scheme)
                .map_or("unpinned", |(_, _, d)| d);
            if *pin != run.digest {
                failure = Some(format!("digest {} differs from pin {pin}", run.digest));
            }
        }
        out.check(&format!("{}/{}", cell.bench, cell.scheme.name()), failure);
    }
    if let (Some(p), Some(id)) = (probe, round_span) {
        p.spans.end(id);
    }
    r
}

/// One cell's timings, simulated work, digest and verdict.
struct CellRun {
    setup: Duration,
    measure: Duration,
    recover: Duration,
    instructions: u64,
    stores: u64,
    digest: String,
    failure: Option<String>,
}

fn run_cell(
    cell: &Cell,
    ctx: &RunCtx,
    mut probe: Option<&mut Probe>,
    parent: Option<usize>,
) -> CellRun {
    let instructions = ctx.budget.grid_instructions;
    let profile = WorkloadProfile::named(cell.bench).expect("grid cells name SPEC profiles");
    let cell_span = probe.as_mut().map(|p| p.spans.begin("cell", parent));

    let t_gen = Instant::now();
    let mut generator = TraceGenerator::new(profile, derive_seed(ctx.seed, &[cell.bench]));
    let warm = generate(&mut generator, warmup_for(instructions));
    let measured = generate(&mut generator, instructions);
    let generated = (warm.len() + measured.len()) as u64;

    let t_build = Instant::now();
    let mut sys = SecureSystem::with_tree(
        SystemConfig::default(),
        cell.scheme,
        TreeKind::Monolithic,
        derive_seed(ctx.seed, &[cell.scheme.name(), cell.bench]),
    );
    sys.run_trace(warm);
    sys.reset_measurement();

    let t_measure = Instant::now();
    let memo_before = sys.memo_stats();
    let folds_before = sys.integrity_tree().fold_hashes();
    let result = match probe.as_mut() {
        None => sys.run_trace(measured),
        Some(p) => {
            for item in measured {
                p.steps.step(&mut sys, item);
            }
            sys.run_trace(std::iter::empty())
        }
    };
    let memory_accesses = sys.hierarchy_stats().memory_accesses;
    let memo = sys.memo_stats();
    let fold_hashes = sys.integrity_tree().fold_hashes() - folds_before;

    let t_crash = Instant::now();
    let crash = PersistSystem::crash(&mut sys, CrashKind::PowerLoss, DrainPolicy::DrainAll);
    let t_recover = Instant::now();
    let rec = crash.as_ref().ok().map(|_| PersistSystem::recover(&sys));
    let t_end = Instant::now();

    let anomalies = PersistSystem::anomalies(&sys);
    let drained = crash.as_ref().map_or(0, |c| c.work.entries);
    let blocks = rec.as_ref().map_or(0, |r| r.blocks_checked);
    let consistent = rec.as_ref().is_some_and(|r| r.is_consistent());
    let failure = match (&crash, &rec) {
        (Err(e), _) => Some(format!("crash drain failed: {e}")),
        (_, Some(r)) if !r.is_consistent() => Some(format!(
            "recovery inconsistent: root_ok={}, mac_failures={}, plaintext_mismatches={}",
            r.root_ok,
            r.mac_failures.len(),
            r.plaintext_mismatches.len()
        )),
        _ if anomalies > 0 => Some(format!("{anomalies} anomalies")),
        _ => None,
    };

    if let Some(p) = probe {
        p.gen_ns += (t_build - t_gen).as_nanos() as u64;
        p.gen_items += generated;
        p.crash_ns += (t_recover - t_crash).as_nanos() as u64;
        p.recover_ns += (t_end - t_recover).as_nanos() as u64;
        p.blocks += blocks;
        p.memory_accesses += memory_accesses;
        p.fold_hashes += fold_hashes;
        p.memo_hits += memo.hits - memo_before.hits;
        p.memo_lookups += memo.hits + memo.misses - memo_before.hits - memo_before.misses;
        for (count, (_, counter)) in p.counts.iter_mut().zip(COUNTED) {
            *count += result.stats.get(counter);
        }
        let spans = &mut p.spans;
        spans.record("generate", cell_span, t_gen, t_build);
        spans.record("warmup", cell_span, t_build, t_measure);
        spans.record("measure", cell_span, t_measure, t_crash);
        spans.record("crash", cell_span, t_crash, t_recover);
        spans.record("recover", cell_span, t_recover, t_end);
        if let Some(id) = cell_span {
            spans.end(id);
        }
    }

    CellRun {
        setup: t_measure - t_gen,
        measure: t_crash - t_measure,
        recover: t_end - t_crash,
        instructions: result.instructions(),
        stores: result.stats.get(counters::STORES),
        digest: digest(cell, &result, drained, blocks, consistent),
        failure,
    }
}

/// `TraceGenerator::generate`, but into one allocation sized for the
/// stream's upper bound (one item per instruction).  `generate` starts
/// from half the expected length and doubles, so whether a trace ends
/// just below or just above its expected length decided whether it was
/// copied once more, which moved peak memory by 6 MiB from seed to seed.
/// Capacity the trace does not fill is never touched, so never resident.
pub fn generate(generator: &mut TraceGenerator, instructions: u64) -> Vec<TraceItem> {
    let mut items = Vec::with_capacity(instructions as usize);
    items.extend(generator.stream(instructions));
    items
}

/// A 16-hex-digit SHA-512 prefix over the cell's coordinates, measured
/// cycles, every counter and histogram, and its crash/recovery verdict.
fn digest(cell: &Cell, result: &RunResult, drained: u64, blocks: u64, consistent: bool) -> String {
    let mut h = Sha512::new();
    for label in [cell.bench, cell.scheme.name()] {
        h.update(label.as_bytes());
        h.update(b"\0");
    }
    for v in [result.cycles, drained, blocks, u64::from(consistent)] {
        h.update(&v.to_le_bytes());
    }
    for (name, value) in result.stats.iter() {
        h.update(name.as_bytes());
        h.update(&value.to_le_bytes());
    }
    for (name, hist) in result.stats.histograms() {
        h.update(name.as_bytes());
        for &count in hist.counts() {
            h.update(&count.to_le_bytes());
        }
    }
    h.finalize().to_hex()[..16].to_owned()
}
