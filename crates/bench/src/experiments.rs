//! Experiment runners for every table and figure in the paper's
//! evaluation.
//!
//! All timing experiments replay the 18 SPEC-named synthetic workloads
//! (default 1 M instructions each — enough for the statistics to
//! stabilize; the paper's 250 M-instruction SimPoints serve the same
//! purpose on Gem5) and normalize against the insecure `bbb` baseline,
//! exactly as the paper does.  Averages are geometric means, which is the
//! only way the paper's per-benchmark outliers (e.g. gamess at 18× under
//! CM) are consistent with its reported averages.

use std::io::{self, Write};

use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::RunResult;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_energy::battery::BatteryTech;
use secpb_energy::drain::{eadr_energy, secpb_drain_energy, secure_eadr_energy};
use secpb_sim::config::SystemConfig;
use secpb_sim::fxhash::derive_seed;
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_sim::telemetry::{
    self, ChromeTraceStream, HealthMonitor, TelemetrySink, DEFAULT_RING_CAPACITY,
};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

/// Default per-benchmark instruction budget.
pub const DEFAULT_INSTRUCTIONS: u64 = 1_000_000;

/// Maximum warm-up instructions before the measurement region, mirroring
/// the paper's fast-forward to representative SimPoint regions: caches,
/// metadata caches, and working sets are touched before measuring.
/// Short exploratory runs warm proportionally (2× the measured length).
pub const WARMUP_INSTRUCTIONS: u64 = 600_000;

/// The warm-up length used for a given measurement length:
/// `min(WARMUP_INSTRUCTIONS, 2 × instructions)`.
///
/// The contract, including its deliberate asymmetry for tiny exploratory
/// runs:
///
/// * **Short runs** (`instructions < 300_000`) warm *twice* the measured
///   length.  A cold hierarchy inflates the first few thousand cycles; a
///   warm-up shorter than the measurement region would leave quick runs
///   dominated by compulsory misses and mis-rank the schemes.
/// * **At the boundary** (`instructions == 300_000`) both expressions
///   agree at exactly 600 000.
/// * **Long runs** (`instructions > 300_000`) cap at
///   [`WARMUP_INSTRUCTIONS`]: the working sets fit long before that, and
///   warming proportionally forever would double every full-scale
///   experiment for no statistical gain.
///
/// Note the quirk this implies: warm-up as a *fraction* of total work
/// peaks at 2× for every run up to 300 K instructions, then decays — a
/// 50 K-instruction exploratory cell simulates 150 K instructions, while
/// the paper-scale 1 M-instruction cell simulates 1.6 M.
pub fn warmup_for(instructions: u64) -> u64 {
    WARMUP_INSTRUCTIONS.min(instructions * 2)
}

/// Deterministic seed base for all experiments.
pub const SEED: u64 = 0x5EC9_B0A2;

/// The trace seed for a workload: `SEED ⊕ hash(workload)`.
///
/// Depends on the *workload only*, so every scheme — including the `bbb`
/// baseline a slowdown is normalized against — replays the identical
/// instruction stream.  Deriving per-workload (rather than sharing `SEED`
/// verbatim) decorrelates the workloads' random address streams from one
/// another.
pub fn trace_seed(workload: &str) -> u64 {
    derive_seed(SEED, &[workload])
}

/// The per-cell system seed: `SEED ⊕ hash(scheme, workload)`.
///
/// Each grid cell derives its own seed instead of sharing one global RNG,
/// which is what makes cells pure functions of their coordinates: a
/// parallel grid is **byte-identical** to a serial one regardless of
/// worker count or scheduling.  The system seed only derives crypto keys,
/// so it may safely differ between a scheme run and its baseline.
pub fn cell_seed(scheme: Scheme, workload: &str) -> u64 {
    derive_seed(SEED, &[scheme.name(), workload])
}

/// Runs one benchmark under one scheme: warm up, reset measurement,
/// measure.
///
/// Both regions are *streamed* straight from the generator into
/// `run_trace` — no warm-up or measurement `Vec` is ever materialized.
pub fn run_benchmark(
    profile: &WorkloadProfile,
    scheme: Scheme,
    cfg: SystemConfig,
    tree: TreeKind,
    instructions: u64,
) -> RunResult {
    run_benchmark_instrumented(profile, scheme, cfg, tree, instructions).0
}

/// Like [`run_benchmark`] but hands back the system so callers can read
/// its tracer aggregates, cycle breakdown, and hierarchy statistics (the
/// `debug_one` flow).
pub fn run_benchmark_instrumented(
    profile: &WorkloadProfile,
    scheme: Scheme,
    cfg: SystemConfig,
    tree: TreeKind,
    instructions: u64,
) -> (RunResult, SecureSystem) {
    let (mut sys, mut generator) = warmed_up(profile, scheme, cfg, tree, instructions);
    let r = sys.run_trace(generator.stream(instructions));
    (r, sys)
}

/// [`run_benchmark_instrumented`] that also streams the measured region's
/// spans into `trace` as process `pid`, labelled with the scheme's name.
///
/// A telemetry ring is attached after warm-up and drained after every
/// trace item, so it only ever holds one item's events.  The third value
/// is the ring's drop count, which belongs in the document's
/// `otherData.dropped_spans`.
///
/// # Errors
///
/// Propagates write failures from `trace`.
pub fn run_benchmark_traced<W: Write>(
    profile: &WorkloadProfile,
    scheme: Scheme,
    cfg: SystemConfig,
    tree: TreeKind,
    instructions: u64,
    trace: &mut ChromeTraceStream<W>,
    pid: u32,
) -> io::Result<(RunResult, SecureSystem, u64)> {
    let (mut sys, mut generator) = warmed_up(profile, scheme, cfg, tree, instructions);
    let (sink, mut reader) = telemetry::channel(DEFAULT_RING_CAPACITY);
    sys.set_telemetry(Some(sink.clone()));
    trace.process(scheme.name(), pid)?;
    let mut monitor = HealthMonitor::new();
    generator.stream(instructions).try_for_each(|item| {
        sys.step(item);
        let mut written = Ok(());
        monitor.absorb(&mut reader, |phase, begin, duration| {
            if written.is_ok() {
                written = trace.span(phase, begin, duration);
            }
        });
        written
    })?;
    sys.set_telemetry(None);
    Ok((sys.run_result(), sys, sink.dropped()))
}

/// A system replayed through the warm-up region with its measurement
/// reset, and the generator positioned at the measured region.
fn warmed_up(
    profile: &WorkloadProfile,
    scheme: Scheme,
    cfg: SystemConfig,
    tree: TreeKind,
    instructions: u64,
) -> (SecureSystem, TraceGenerator) {
    let mut generator = TraceGenerator::new(profile.clone(), trace_seed(&profile.name));
    let mut sys = SecureSystem::with_tree(cfg, scheme, tree, cell_seed(scheme, &profile.name));
    sys.run_trace(generator.stream(warmup_for(instructions)));
    sys.reset_measurement();
    (sys, generator)
}

// ------------------------------------------------------------------
// The deterministic parallel experiment engine
// ------------------------------------------------------------------

/// One cell of an experiment grid: a `(workload, scheme, config, tree,
/// budget)` coordinate whose result is a pure function of its fields.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The workload to replay.
    pub profile: WorkloadProfile,
    /// The metadata-persistence scheme.
    pub scheme: Scheme,
    /// The system configuration (SecPB size, watermarks, …).
    pub cfg: SystemConfig,
    /// The integrity-tree organisation.
    pub tree: TreeKind,
    /// Measurement-region instruction budget.
    pub instructions: u64,
}

impl GridCell {
    /// A cell with the default configuration and monolithic tree.
    pub fn new(profile: WorkloadProfile, scheme: Scheme, instructions: u64) -> Self {
        GridCell {
            profile,
            scheme,
            cfg: SystemConfig::default(),
            tree: TreeKind::Monolithic,
            instructions,
        }
    }

    /// Replaces the system configuration.
    pub fn with_cfg(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the tree organisation.
    pub fn with_tree(mut self, tree: TreeKind) -> Self {
        self.tree = tree;
        self
    }

    /// Runs this cell (the pure function the pool fans out).
    pub fn run(&self) -> RunResult {
        run_benchmark(
            &self.profile,
            self.scheme,
            self.cfg.clone(),
            self.tree,
            self.instructions,
        )
    }

    /// Runs this cell and then crash-tests it: power loss, full drain,
    /// and verified recovery over the persisted state.  The returned
    /// [`RunResult`] is byte-identical to [`run`](Self::run)'s; the
    /// [`RecoveryCheck`] carries the cell's recovery verdict so grid
    /// reports can surface failures instead of timing alone.
    pub fn run_with_recovery(&self) -> (RunResult, RecoveryCheck) {
        self.run_checked(None)
    }

    /// [`run_with_recovery`](Self::run_with_recovery) with a live
    /// telemetry ring of [`DEFAULT_RING_CAPACITY`] events attached for
    /// the whole run (warm-up, measurement, crash, recovery).  The ring
    /// is drained after the cell completes and summarized as a
    /// [`TelemetryDigest`]; the [`RunResult`] and [`RecoveryCheck`] are
    /// byte-identical to the untelemetered path — events observe, never
    /// steer.
    ///
    /// Each call owns a private ring, so pool workers running many cells
    /// concurrently each keep the single-producer contract.
    pub fn run_with_recovery_telemetered(&self) -> (RunResult, RecoveryCheck, TelemetryDigest) {
        let (sink, mut reader) = telemetry::channel(DEFAULT_RING_CAPACITY);
        let (result, check) = self.run_checked(Some(sink.clone()));
        let mut events = 0u64;
        while reader.pop().is_some() {
            events += 1;
        }
        (
            result,
            check,
            TelemetryDigest {
                events,
                dropped: sink.dropped(),
            },
        )
    }

    fn run_checked(&self, sink: Option<TelemetrySink>) -> (RunResult, RecoveryCheck) {
        let mut generator =
            TraceGenerator::new(self.profile.clone(), trace_seed(&self.profile.name));
        let mut sys = SecureSystem::with_tree(
            self.cfg.clone(),
            self.scheme,
            self.tree,
            cell_seed(self.scheme, &self.profile.name),
        );
        sys.set_telemetry(sink);
        sys.run_trace(generator.stream(warmup_for(self.instructions)));
        sys.reset_measurement();
        let result = sys.run_trace(generator.stream(self.instructions));
        // The crash check drives the shared facade surface — the same
        // entry points the storm and CLI use for every front.
        let sys: &mut dyn PersistSystem = &mut sys;
        let check = match sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll) {
            Err(e) => RecoveryCheck {
                blocks_checked: 0,
                recovery_cycles: 0,
                failure: Some(format!("crash drain failed: {e}")),
            },
            Ok(_) => {
                let rec = sys.recover();
                RecoveryCheck {
                    blocks_checked: rec.blocks_checked,
                    recovery_cycles: sys.recovery_cost().cycles,
                    failure: if rec.is_consistent() {
                        None
                    } else {
                        Some(format!(
                            "recovery inconsistent: root_ok={}, mac_failures={}, \
                             plaintext_mismatches={}",
                            rec.root_ok,
                            rec.mac_failures.len(),
                            rec.plaintext_mismatches.len()
                        ))
                    },
                }
            }
        };
        (result, check)
    }
}

/// The crash-recovery verdict of one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCheck {
    /// Data blocks recovery decrypted and verified.
    pub blocks_checked: u64,
    /// Estimated recovery-sweep latency (cycles) for the cell's
    /// post-crash persisted footprint — the quantity recovery-time work
    /// like Anubis and Triad-NVM optimizes, surfaced per cell so grids
    /// can chart it.  Zero when the crash drain itself failed.
    pub recovery_cycles: u64,
    /// `None` when recovery was fully consistent; otherwise what failed.
    pub failure: Option<String>,
}

impl RecoveryCheck {
    /// Whether the cell recovered consistently.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Transport accounting for one telemetered cell run: how many events
/// flowed through the ring and how many the ring had to drop.  Dropped
/// events are reported, never hidden — the no-silent-caps rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryDigest {
    /// Events drained from the ring after the cell completed.
    pub events: u64,
    /// Events discarded because the ring was full mid-run.
    pub dropped: u64,
}

/// Runs a grid of cells across `jobs` worker threads, returning results
/// in cell order.
///
/// Because every cell seeds its own generator and system from
/// [`cell_seed`]/[`trace_seed`], the output is byte-identical for every
/// `jobs` value — `run_grid(cells, 1)` is the serial engine, and the
/// table/figure runners' reports do not change under `--jobs N`.
pub fn run_grid(cells: &[GridCell], jobs: usize) -> Vec<RunResult> {
    pool::run_indexed(cells.len(), jobs, |i| cells[i].run())
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

// ------------------------------------------------------------------
// Table IV + Figure 6
// ------------------------------------------------------------------

/// One benchmark's normalized execution times across all schemes.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: String,
    /// `(scheme, slowdown vs bbb)` pairs.
    pub slowdowns: Vec<(Scheme, f64)>,
    /// PPTI measured under the bbb baseline.
    pub ppti: f64,
    /// NWPE measured under the bbb baseline.
    pub nwpe: f64,
}

/// Figure 6 / Table IV data: per-benchmark and average slowdowns.
#[derive(Debug, Clone)]
pub struct SlowdownStudy {
    /// The schemes evaluated, in display order.
    pub schemes: Vec<Scheme>,
    /// One row per benchmark.
    pub rows: Vec<BenchmarkRow>,
    /// Geometric-mean slowdown per scheme (Table IV).
    pub averages: Vec<(Scheme, f64)>,
}

/// Runs the Figure 6 study: all benchmarks, all SecPB schemes, 32-entry
/// SecPB, normalized to bbb, fanned across `jobs` workers.
pub fn fig6(instructions: u64, jobs: usize) -> SlowdownStudy {
    slowdown_study(
        SystemConfig::default(),
        &Scheme::SECPB_SCHEMES,
        instructions,
        jobs,
    )
}

/// Table IV is Figure 6's geometric means (the paper tabulates the same
/// run).
pub fn table4(instructions: u64, jobs: usize) -> SlowdownStudy {
    fig6(instructions, jobs)
}

impl SlowdownStudy {
    /// JSON dump (the bins' `--json` payload).
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|r| {
            let slowdowns = self
                .schemes
                .iter()
                .zip(&r.slowdowns)
                .fold(Json::obj(), |o, (s, (_, v))| o.field(s.name(), *v));
            Json::obj()
                .field("name", r.name.as_str())
                .field("ppti", r.ppti)
                .field("nwpe", r.nwpe)
                .field("slowdowns", slowdowns)
        });
        let averages = self
            .averages
            .iter()
            .fold(Json::obj(), |o, (s, v)| o.field(s.name(), *v));
        Json::obj()
            .field("schemes", Json::arr(self.schemes.iter().map(|s| s.name())))
            .field("rows", Json::Arr(rows.collect()))
            .field("averages", averages)
    }
}

/// Generic slowdown study over the SPEC suite, fanned across `jobs`
/// workers.
///
/// The grid is `suite × (bbb baseline + schemes)`, laid out row-major so
/// each benchmark's baseline and scheme cells are adjacent; results come
/// back from [`run_grid`] in that canonical order regardless of `jobs`.
pub fn slowdown_study(
    cfg: SystemConfig,
    schemes: &[Scheme],
    instructions: u64,
    jobs: usize,
) -> SlowdownStudy {
    let suite = WorkloadProfile::spec_suite();
    let stride = 1 + schemes.len();
    let mut cells = Vec::with_capacity(suite.len() * stride);
    for profile in &suite {
        cells.push(GridCell::new(profile.clone(), Scheme::Bbb, instructions).with_cfg(cfg.clone()));
        for &scheme in schemes {
            cells.push(GridCell::new(profile.clone(), scheme, instructions).with_cfg(cfg.clone()));
        }
    }
    let results = run_grid(&cells, jobs);
    let rows: Vec<BenchmarkRow> = suite
        .iter()
        .zip(results.chunks_exact(stride))
        .map(|(profile, chunk)| {
            let base = &chunk[0];
            let slowdowns = schemes
                .iter()
                .zip(&chunk[1..])
                .map(|(&scheme, r)| (scheme, r.slowdown_vs(base)))
                .collect();
            BenchmarkRow {
                name: profile.name.clone(),
                slowdowns,
                ppti: base.ppti(),
                nwpe: base.nwpe(),
            }
        })
        .collect();
    let averages = schemes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let vals: Vec<f64> = rows.iter().map(|r| r.slowdowns[i].1).collect();
            (s, geomean(&vals))
        })
        .collect();
    SlowdownStudy {
        schemes: schemes.to_vec(),
        rows,
        averages,
    }
}

// ------------------------------------------------------------------
// Table V — battery sizes
// ------------------------------------------------------------------

/// One row of Table V.
#[derive(Debug, Clone)]
pub struct BatteryRow {
    /// System name (scheme, eADR variant, or baseline).
    pub system: String,
    /// Battery volume in mm³ for (SuperCap, Li-Thin).
    pub volume_mm3: (f64, f64),
    /// Footprint as % of a client-core's area for (SuperCap, Li-Thin).
    pub core_area_pct: (f64, f64),
}

fn battery_row(system: &str, joules: f64) -> BatteryRow {
    BatteryRow {
        system: system.to_owned(),
        volume_mm3: (
            BatteryTech::SuperCap.volume_mm3(joules),
            BatteryTech::LiThin.volume_mm3(joules),
        ),
        core_area_pct: (
            BatteryTech::SuperCap.core_area_ratio_pct(joules),
            BatteryTech::LiThin.core_area_ratio_pct(joules),
        ),
    }
}

impl BatteryRow {
    /// JSON dump of one Table V row.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("system", self.system.as_str())
            .field(
                "volume_mm3",
                Json::obj()
                    .field("supercap", self.volume_mm3.0)
                    .field("li_thin", self.volume_mm3.1),
            )
            .field(
                "core_area_pct",
                Json::obj()
                    .field("supercap", self.core_area_pct.0)
                    .field("li_thin", self.core_area_pct.1),
            )
    }
}

/// JSON dump of the full Table V row set.
pub fn battery_rows_to_json(rows: &[BatteryRow]) -> Json {
    Json::Arr(rows.iter().map(BatteryRow::to_json).collect())
}

/// Table V: battery estimates for every scheme at 32 entries plus the
/// eADR/BBB reference points.
pub fn table5(entries: usize) -> Vec<BatteryRow> {
    let mut rows: Vec<BatteryRow> = Scheme::SECPB_SCHEMES
        .iter()
        .map(|&s| battery_row(s.name(), secpb_drain_energy(s, entries)))
        .collect();
    rows.push(battery_row("s_eadr", secure_eadr_energy()));
    rows.push(battery_row("bbb", secpb_drain_energy(Scheme::Bbb, entries)));
    rows.push(battery_row("eadr", eadr_energy()));
    rows
}

// ------------------------------------------------------------------
// Table VI — battery vs SecPB size
// ------------------------------------------------------------------

/// One row of Table VI.
#[derive(Debug, Clone)]
pub struct BatterySweepRow {
    /// SecPB entries.
    pub entries: usize,
    /// COBCM volume (SuperCap, Li-Thin) in mm³.
    pub cobcm_mm3: (f64, f64),
    /// NoGap volume (SuperCap, Li-Thin) in mm³.
    pub nogap_mm3: (f64, f64),
}

impl BatterySweepRow {
    /// JSON dump of one Table VI row.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("entries", self.entries)
            .field(
                "cobcm_mm3",
                Json::obj()
                    .field("supercap", self.cobcm_mm3.0)
                    .field("li_thin", self.cobcm_mm3.1),
            )
            .field(
                "nogap_mm3",
                Json::obj()
                    .field("supercap", self.nogap_mm3.0)
                    .field("li_thin", self.nogap_mm3.1),
            )
    }
}

/// JSON dump of the full Table VI row set.
pub fn battery_sweep_to_json(rows: &[BatterySweepRow]) -> Json {
    Json::Arr(rows.iter().map(BatterySweepRow::to_json).collect())
}

/// Table VI: battery capacity for COBCM and NoGap across SecPB sizes.
pub fn table6() -> Vec<BatterySweepRow> {
    [8usize, 16, 32, 64, 128, 256, 512]
        .iter()
        .map(|&entries| {
            let cobcm = secpb_drain_energy(Scheme::Cobcm, entries);
            let nogap = secpb_drain_energy(Scheme::NoGap, entries);
            BatterySweepRow {
                entries,
                cobcm_mm3: (
                    BatteryTech::SuperCap.volume_mm3(cobcm),
                    BatteryTech::LiThin.volume_mm3(cobcm),
                ),
                nogap_mm3: (
                    BatteryTech::SuperCap.volume_mm3(nogap),
                    BatteryTech::LiThin.volume_mm3(nogap),
                ),
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Figure 7 — SecPB size sweep under CM
// ------------------------------------------------------------------

/// Figure 7 data: per-size geometric-mean slowdown (CM model) plus the
/// per-benchmark detail.
#[derive(Debug, Clone)]
pub struct SizeSweep {
    /// SecPB sizes swept.
    pub sizes: Vec<usize>,
    /// Geometric-mean slowdown vs same-size bbb for each size.
    pub averages: Vec<f64>,
    /// Per-benchmark rows: name → slowdown per size.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Runs the Figure 7 sweep: CM with SecPB sizes 8..=512, fanned across
/// `jobs` workers.  The whole `size × benchmark × {bbb, cm}` grid is one
/// flat fan-out, so every cell of every size runs concurrently.
pub fn fig7(instructions: u64, jobs: usize) -> SizeSweep {
    let sizes = vec![8usize, 16, 32, 64, 128, 256, 512];
    let suite = WorkloadProfile::spec_suite();
    let mut cells = Vec::with_capacity(sizes.len() * suite.len() * 2);
    for &size in &sizes {
        let cfg = SystemConfig::default().with_secpb_entries(size);
        for profile in &suite {
            cells.push(
                GridCell::new(profile.clone(), Scheme::Bbb, instructions).with_cfg(cfg.clone()),
            );
            cells.push(
                GridCell::new(profile.clone(), Scheme::Cm, instructions).with_cfg(cfg.clone()),
            );
        }
    }
    let results = run_grid(&cells, jobs);
    let mut rows: Vec<(String, Vec<f64>)> =
        suite.iter().map(|p| (p.name.clone(), Vec::new())).collect();
    for (si, _) in sizes.iter().enumerate() {
        for (pi, row) in rows.iter_mut().enumerate() {
            let pair = &results[(si * suite.len() + pi) * 2..][..2];
            row.1.push(pair[1].slowdown_vs(&pair[0]));
        }
    }
    let averages = (0..sizes.len())
        .map(|i| geomean(&rows.iter().map(|r| r.1[i]).collect::<Vec<_>>()))
        .collect();
    SizeSweep {
        sizes,
        averages,
        rows,
    }
}

// ------------------------------------------------------------------
// Figure 8 — BMT root updates normalized to sec_wt
// ------------------------------------------------------------------

/// Figure 8 data: BMT root updates per store (sec_wt performs exactly one
/// per store, so this ratio *is* the normalized value) per SecPB size.
#[derive(Debug, Clone)]
pub struct BmtUpdateStudy {
    /// SecPB sizes swept.
    pub sizes: Vec<usize>,
    /// Suite-mean fraction of sec_wt's updates for each size.
    pub averages: Vec<f64>,
    /// Per-benchmark rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Shared JSON shape of the sweep studies: a key axis, per-key averages,
/// and per-benchmark value rows.
fn sweep_to_json(axis: &str, keys: Json, averages: &[f64], rows: &[(String, Vec<f64>)]) -> Json {
    let rows = rows.iter().map(|(name, vals)| {
        Json::obj()
            .field("name", name.as_str())
            .field("values", Json::arr(vals.iter().copied()))
    });
    Json::obj()
        .field(axis, keys)
        .field("averages", Json::arr(averages.iter().copied()))
        .field("rows", Json::Arr(rows.collect()))
}

impl SizeSweep {
    /// JSON dump (Figure 7's `--json` payload).
    pub fn to_json(&self) -> Json {
        sweep_to_json(
            "sizes",
            Json::arr(self.sizes.iter().copied()),
            &self.averages,
            &self.rows,
        )
    }
}

impl BmtUpdateStudy {
    /// JSON dump (Figure 8's `--json` payload).
    pub fn to_json(&self) -> Json {
        sweep_to_json(
            "sizes",
            Json::arr(self.sizes.iter().copied()),
            &self.averages,
            &self.rows,
        )
    }
}

/// Runs the Figure 8 study under the CM model, fanned across `jobs`
/// workers.
pub fn fig8(instructions: u64, jobs: usize) -> BmtUpdateStudy {
    let sizes = vec![8usize, 16, 32, 64, 128, 256, 512];
    let suite = WorkloadProfile::spec_suite();
    let mut cells = Vec::with_capacity(sizes.len() * suite.len());
    for &size in &sizes {
        let cfg = SystemConfig::default().with_secpb_entries(size);
        for profile in &suite {
            cells.push(
                GridCell::new(profile.clone(), Scheme::Cm, instructions).with_cfg(cfg.clone()),
            );
        }
    }
    let results = run_grid(&cells, jobs);
    let mut rows: Vec<(String, Vec<f64>)> =
        suite.iter().map(|p| (p.name.clone(), Vec::new())).collect();
    for (si, _) in sizes.iter().enumerate() {
        for (pi, row) in rows.iter_mut().enumerate() {
            // sec_wt would update the root once per persisted store.
            row.1
                .push(results[si * suite.len() + pi].bmt_updates_per_store());
        }
    }
    let averages = (0..sizes.len())
        .map(|i| {
            let v: Vec<f64> = rows.iter().map(|r| r.1[i]).collect();
            v.iter().sum::<f64>() / v.len() as f64
        })
        .collect();
    BmtUpdateStudy {
        sizes,
        averages,
        rows,
    }
}

// ------------------------------------------------------------------
// Figure 9 — BMF study
// ------------------------------------------------------------------

/// Figure 9 data: slowdowns (vs bbb) of SP and CM paired with DBMF/SBMF.
#[derive(Debug, Clone)]
pub struct BmfStudy {
    /// Variant labels in display order.
    pub variants: Vec<String>,
    /// Geometric-mean slowdown per variant.
    pub averages: Vec<f64>,
    /// Per-benchmark rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl BmfStudy {
    /// JSON dump (Figure 9's `--json` payload).
    pub fn to_json(&self) -> Json {
        sweep_to_json(
            "variants",
            Json::arr(self.variants.iter().map(String::as_str)),
            &self.averages,
            &self.rows,
        )
    }
}

/// Runs the Figure 9 study: `sp_dbmf`, `sp_sbmf`, `cm_dbmf`, `cm_sbmf`,
/// fanned across `jobs` workers.
pub fn fig9(instructions: u64, jobs: usize) -> BmfStudy {
    let variants: Vec<(String, Scheme, TreeKind)> = vec![
        ("sp_dbmf".into(), Scheme::Sp, TreeKind::Dbmf),
        ("sp_sbmf".into(), Scheme::Sp, TreeKind::Sbmf),
        ("cm_dbmf".into(), Scheme::Cm, TreeKind::Dbmf),
        ("cm_sbmf".into(), Scheme::Cm, TreeKind::Sbmf),
    ];
    let cfg = SystemConfig::default();
    let suite = WorkloadProfile::spec_suite();
    let stride = 1 + variants.len();
    let mut cells = Vec::with_capacity(suite.len() * stride);
    for profile in &suite {
        cells.push(GridCell::new(profile.clone(), Scheme::Bbb, instructions).with_cfg(cfg.clone()));
        for (_, scheme, tree) in &variants {
            cells.push(
                GridCell::new(profile.clone(), *scheme, instructions)
                    .with_cfg(cfg.clone())
                    .with_tree(*tree),
            );
        }
    }
    let results = run_grid(&cells, jobs);
    let rows: Vec<(String, Vec<f64>)> = suite
        .iter()
        .zip(results.chunks_exact(stride))
        .map(|(profile, chunk)| {
            let base = &chunk[0];
            let vals = chunk[1..].iter().map(|r| r.slowdown_vs(base)).collect();
            (profile.name.clone(), vals)
        })
        .collect();
    let averages = (0..variants.len())
        .map(|i| geomean(&rows.iter().map(|r| r.1[i]).collect::<Vec<_>>()))
        .collect();
    BmfStudy {
        variants: variants.into_iter().map(|(n, _, _)| n).collect(),
        averages,
        rows,
    }
}

// ------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ------------------------------------------------------------------

/// Ablation: the Section IV-A value-independent coalescing optimization
/// on vs off, for a given scheme.  Returns (on, off) geometric-mean
/// slowdowns vs bbb.
pub fn ablation_coalescing(scheme: Scheme, instructions: u64, jobs: usize) -> (f64, f64) {
    let on = slowdown_study(SystemConfig::default(), &[scheme], instructions, jobs).averages[0].1;
    let off = slowdown_study(
        SystemConfig::default().with_value_independent_coalescing(false),
        &[scheme],
        instructions,
        jobs,
    )
    .averages[0]
        .1;
    (on, off)
}

/// Ablation: single in-flight BMT update vs pipelined, for a given
/// scheme.  Returns (single, pipelined) geometric-mean slowdowns.
pub fn ablation_bmt_pipelining(scheme: Scheme, instructions: u64, jobs: usize) -> (f64, f64) {
    let single =
        slowdown_study(SystemConfig::default(), &[scheme], instructions, jobs).averages[0].1;
    let pipelined = slowdown_study(
        SystemConfig::default().with_pipelined_bmt(true),
        &[scheme],
        instructions,
        jobs,
    )
    .averages[0]
        .1;
    (single, pipelined)
}

/// Ablation: speculative vs blocking load verification (Section V-A
/// assumes speculation).  Returns (speculative, blocking) geometric-mean
/// slowdowns.
pub fn ablation_speculative_verification(
    scheme: Scheme,
    instructions: u64,
    jobs: usize,
) -> (f64, f64) {
    let spec = slowdown_study(SystemConfig::default(), &[scheme], instructions, jobs).averages[0].1;
    let blocking = slowdown_study(
        SystemConfig::default().with_speculative_verification(false),
        &[scheme],
        instructions,
        jobs,
    )
    .averages[0]
        .1;
    (spec, blocking)
}

/// Ablation: watermark placement.  Returns slowdowns for each
/// (high, low) pair.
pub fn ablation_watermarks(
    scheme: Scheme,
    pairs: &[(f64, f64)],
    instructions: u64,
    jobs: usize,
) -> Vec<((f64, f64), f64)> {
    pairs
        .iter()
        .map(|&(h, l)| {
            let s = slowdown_study(
                SystemConfig::default().with_watermarks(h, l),
                &[scheme],
                instructions,
                jobs,
            );
            ((h, l), s.averages[0].1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 60_000;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of nothing")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    fn warmup_contract_at_the_boundary() {
        // Below the crossover: proportional warm-up, 2× the measurement.
        assert_eq!(warmup_for(299_999), 599_998);
        assert_eq!(warmup_for(50_000), 100_000);
        assert_eq!(warmup_for(0), 0);
        // Exactly at the crossover both expressions agree.
        assert_eq!(warmup_for(300_000), 600_000);
        assert_eq!(warmup_for(300_000), WARMUP_INSTRUCTIONS);
        // Above it: capped at the fixed budget.
        assert_eq!(warmup_for(300_001), 600_000);
        assert_eq!(warmup_for(DEFAULT_INSTRUCTIONS), WARMUP_INSTRUCTIONS);
        assert_eq!(warmup_for(u64::MAX / 4), WARMUP_INSTRUCTIONS);
    }

    #[test]
    fn seeds_differ_per_cell_but_traces_are_paired() {
        // System seeds: unique per (scheme, workload) coordinate.
        assert_ne!(
            cell_seed(Scheme::Cm, "gamess"),
            cell_seed(Scheme::Cm, "povray")
        );
        assert_ne!(
            cell_seed(Scheme::Cm, "gamess"),
            cell_seed(Scheme::Bbb, "gamess")
        );
        // Trace seeds: a scheme run and its bbb baseline replay the SAME
        // trace (workload-only derivation), but workloads differ.
        assert_ne!(trace_seed("gamess"), trace_seed("povray"));
        assert_ne!(trace_seed("gamess"), cell_seed(Scheme::Bbb, "gamess"));
    }

    #[test]
    fn grid_results_are_identical_for_any_job_count() {
        let profiles = ["gamess", "povray"];
        let cells: Vec<GridCell> = profiles
            .iter()
            .flat_map(|p| {
                [Scheme::Bbb, Scheme::Cm]
                    .into_iter()
                    .map(|s| GridCell::new(WorkloadProfile::named(p).unwrap(), s, 20_000))
            })
            .collect();
        let serial = run_grid(&cells, 1);
        let parallel = run_grid(&cells, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn table4_scheme_ordering_holds() {
        let study = table4(QUICK, secpb_sim::pool::default_jobs());
        let avg: std::collections::HashMap<Scheme, f64> = study.averages.iter().copied().collect();
        assert!(avg[&Scheme::Cobcm] < avg[&Scheme::Bcm]);
        assert!(avg[&Scheme::Obcm] < avg[&Scheme::Bcm]);
        assert!(avg[&Scheme::Bcm] < avg[&Scheme::Cm]);
        assert!(
            avg[&Scheme::Cm] <= avg[&Scheme::M] * 1.02,
            "CM ≈ M, CM slightly better"
        );
        assert!(avg[&Scheme::M] < avg[&Scheme::NoGap]);
        // COBCM should be near-baseline.
        assert!(
            avg[&Scheme::Cobcm] < 1.4,
            "COBCM average {}",
            avg[&Scheme::Cobcm]
        );
    }

    #[test]
    fn table5_rows_cover_all_systems() {
        let rows = table5(32);
        assert_eq!(rows.len(), 9);
        let find = |n: &str| rows.iter().find(|r| r.system == n).unwrap();
        assert!(find("s_eadr").volume_mm3.0 > 100.0 * find("cobcm").volume_mm3.0);
        assert!(find("nogap").volume_mm3.0 < find("cm").volume_mm3.0);
        assert!(find("bbb").volume_mm3.0 < find("nogap").volume_mm3.0);
    }

    #[test]
    fn table6_monotone_in_entries() {
        let rows = table6();
        assert_eq!(rows.len(), 7);
        for pair in rows.windows(2) {
            assert!(pair[1].cobcm_mm3.0 > pair[0].cobcm_mm3.0);
            assert!(pair[1].nogap_mm3.0 > pair[0].nogap_mm3.0);
        }
        // COBCM always needs the bigger battery.
        for r in &rows {
            assert!(r.cobcm_mm3.0 > r.nogap_mm3.0);
        }
    }
}
