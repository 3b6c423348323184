//! Grid-scale wall-clock benchmark of the parallel experiment engine.
//!
//! Runs the same scheme×workload grid serially (timing each cell) and
//! with `--jobs N` workers, verifies the two result sets are
//! **identical** (the engine's determinism contract), and reports
//! wall-clock speedup plus per-cell simulated instructions per second
//! and host nanoseconds per simulated store.
//!
//! Usage:
//! `cargo run --release -p secpb-bench --bin bench_grid [instructions] [--jobs N] [--json out.json] [--smoke] [--backend auto|scalar|multiblock|hw] [--validate-parallel] [--update-baseline]`
//!
//! `--smoke` shrinks the grid to 2 workloads × 2 schemes (the CI
//! determinism gate); the default grid is the full Table IV workload
//! suite × all SecPB schemes.  `--backend` pins the crypto backend
//! (default: auto-detect).  Exits nonzero if parallel results diverge
//! from serial.
//!
//! `--telemetry` attaches a live telemetry ring to every serial cell.
//! Because events observe and never steer, the determinism gate then
//! proves something stronger: the telemetered serial grid must still be
//! identical to the plain parallel grid, i.e. watching a cell costs
//! nothing in fidelity.  The report gains ring accounting
//! (`telemetry_events`, `telemetry_dropped`).
//!
//! The JSON report lands in the temp directory by default so routine
//! runs never dirty the working tree; `--update-baseline` writes the
//! checked-in `BENCH_grid.json` instead, and `--json <path>` overrides
//! both.
//!
//! On a single-core host the parallel pass still runs (it is the
//! determinism check), but its wall-clock time says nothing about the
//! engine, so `speedup` is reported as `null` and
//! `parallel_timing_valid` as `false` rather than shipping a
//! misleading sub-1x figure.  `--validate-parallel` makes that posture
//! explicit for 1-core CI: it pins the parallel pass to 2 workers and
//! records `parallel_determinism_validated: true` in the report —
//! determinism is validated even where timing isn't.

use std::time::Instant;

use secpb_bench::experiments::{run_grid, GridCell, TelemetryDigest};
use secpb_core::metrics::counters;
use secpb_core::scheme::Scheme;
use secpb_sim::config::{CryptoBackendKind, SystemConfig};
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_workloads::WorkloadProfile;

fn build_grid(smoke: bool, instructions: u64, backend: CryptoBackendKind) -> Vec<GridCell> {
    let (profiles, schemes): (Vec<WorkloadProfile>, Vec<Scheme>) = if smoke {
        (
            ["gamess", "povray"]
                .iter()
                .map(|n| WorkloadProfile::named(n).expect("known"))
                .collect(),
            vec![Scheme::Bbb, Scheme::Cobcm],
        )
    } else {
        (
            WorkloadProfile::spec_suite(),
            std::iter::once(Scheme::Bbb)
                .chain(Scheme::SECPB_SCHEMES)
                .collect(),
        )
    };
    let cfg = SystemConfig::default().with_crypto_backend(backend);
    profiles
        .iter()
        .flat_map(|p| {
            schemes
                .iter()
                .map(|&s| GridCell::new(p.clone(), s, instructions).with_cfg(cfg.clone()))
        })
        .collect()
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let update_baseline = raw.iter().any(|a| a == "--update-baseline");
    raw.retain(|a| a != "--update-baseline");
    let telemetry = raw.iter().any(|a| a == "--telemetry");
    raw.retain(|a| a != "--telemetry");
    let validate_parallel = raw.iter().any(|a| a == "--validate-parallel");
    raw.retain(|a| a != "--validate-parallel");
    let backend = match raw.iter().position(|a| a == "--backend") {
        Some(i) => {
            if i + 1 >= raw.len() {
                eprintln!("error: --backend requires a value (auto|scalar|multiblock|hw)");
                std::process::exit(2);
            }
            let parsed = raw[i + 1].parse::<CryptoBackendKind>();
            raw.drain(i..=i + 1);
            match parsed {
                Ok(b) => b,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    std::process::exit(2);
                }
            }
        }
        None => CryptoBackendKind::default(),
    };
    let args = match secpb_bench::args::RunnerArgs::parse(&raw, 200_000) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench_grid [instructions] [--jobs N] [--json out.json] [--smoke] \
                 [--backend auto|scalar|multiblock|hw] [--telemetry] \
                 [--validate-parallel] [--update-baseline]"
            );
            std::process::exit(2);
        }
    };
    // --validate-parallel pins the worker count to 2: the mode exists so
    // 1-core hosts can still prove the serial/parallel byte-identity
    // contract even though their parallel timing is meaningless.
    let jobs = if validate_parallel {
        2
    } else if args.jobs > 1 {
        args.jobs
    } else {
        pool::default_jobs().max(2)
    };

    let cores = pool::default_jobs();
    let parallel_timing_valid = cores >= 2 && !validate_parallel;
    let cells = build_grid(smoke, args.instructions, backend);
    eprintln!(
        "grid: {} cells ({}) @ {} instructions, {} backend, serial vs {jobs} jobs on {cores} core(s)",
        cells.len(),
        if smoke { "smoke" } else { "full" },
        args.instructions,
        backend.name(),
    );
    if !parallel_timing_valid {
        eprintln!(
            "note: parallel pass is determinism-check only ({}); speedup not reported",
            if validate_parallel {
                "--validate-parallel"
            } else {
                "single-core host"
            }
        );
    }

    // Serial pass, timing each cell so per-cell host cost (ns per
    // simulated store) lands in the report alongside the simulated
    // numbers.  Each serial cell is also crash-tested (power loss, full
    // drain, verified recovery) so a cell that persists garbage fails
    // the grid instead of silently reporting timing only.
    let t0 = Instant::now();
    let (serial_checked, cell_seconds): (Vec<_>, Vec<_>) = cells
        .iter()
        .map(|c| {
            let t = Instant::now();
            let (r, check, digest) = if telemetry {
                c.run_with_recovery_telemetered()
            } else {
                let (r, check) = c.run_with_recovery();
                (r, check, TelemetryDigest::default())
            };
            ((r, check, digest), t.elapsed().as_secs_f64())
        })
        .unzip();
    let serial_s = t0.elapsed().as_secs_f64();
    let mut serial = Vec::with_capacity(cells.len());
    let mut recovery = Vec::with_capacity(cells.len());
    let mut digests = Vec::with_capacity(cells.len());
    for (r, check, digest) in serial_checked {
        serial.push(r);
        recovery.push(check);
        digests.push(digest);
    }

    let t1 = Instant::now();
    let parallel = run_grid(&cells, jobs);
    let parallel_s = t1.elapsed().as_secs_f64();

    if serial != parallel {
        if telemetry {
            eprintln!(
                "DETERMINISM VIOLATION: telemetered serial grid differs from plain parallel \
                 (events must observe, never steer)"
            );
        } else {
            eprintln!("DETERMINISM VIOLATION: parallel grid results differ from serial");
        }
        std::process::exit(1);
    }

    let speedup = serial_s / parallel_s;
    // Simulated instructions per wall-clock second: every cell simulates
    // warm-up + measurement; count only measured instructions (stable
    // across warm-up policy changes) for a conservative throughput.
    let simulated: u64 = cells.iter().map(|c| c.instructions).sum();
    let serial_ips = simulated as f64 / serial_s;
    let parallel_ips = simulated as f64 / parallel_s;
    let total_stores: u64 = serial.iter().map(|r| r.stats.get(counters::STORES)).sum();
    let serial_ns_per_store = serial_s * 1e9 / total_stores.max(1) as f64;

    println!("cells                 {}", cells.len());
    println!("serial                {serial_s:.3} s ({serial_ips:.0} instr/s)");
    println!("serial ns/store       {serial_ns_per_store:.1}");
    if parallel_timing_valid {
        println!("parallel ({jobs} jobs)     {parallel_s:.3} s ({parallel_ips:.0} instr/s)");
        println!("speedup               {speedup:.2}x");
    } else {
        println!("parallel ({jobs} jobs)     n/a (determinism check only)");
    }
    println!(
        "determinism           parallel == serial{} ({} cells)",
        if telemetry { " (telemetered)" } else { "" },
        cells.len()
    );
    let telemetry_events: u64 = digests.iter().map(|d| d.events).sum();
    let telemetry_dropped: u64 = digests.iter().map(|d| d.dropped).sum();
    if telemetry {
        println!("telemetry             {telemetry_events} events, {telemetry_dropped} dropped");
    }

    let recovery_failures: Vec<String> = cells
        .iter()
        .zip(&recovery)
        .filter_map(|(c, check)| {
            check
                .failure
                .as_ref()
                .map(|why| format!("{}/{}: {why}", c.profile.name, c.scheme.name()))
        })
        .collect();
    let recovery_blocks: u64 = recovery.iter().map(|c| c.blocks_checked).sum();
    let recovery_cycles_total: u64 = recovery.iter().map(|c| c.recovery_cycles).sum();
    if recovery_failures.is_empty() {
        println!(
            "recovery              all {} cells consistent ({recovery_blocks} blocks verified, \
             {recovery_cycles_total} est. sweep cycles)",
            cells.len()
        );
    } else {
        for f in &recovery_failures {
            eprintln!("RECOVERY FAILURE: {f}");
        }
    }

    // The recovery curve rides along in every grid report: the same
    // instruction budget swept across persistence policies, so the
    // write-amp vs recovery-latency trade-off is versioned next to the
    // timing it trades against.
    let sweep_cfg = {
        let mut c = secpb_bench::recovery_sweep::SweepConfig::new(0x5EC9_B0A2);
        c.instructions = args.instructions;
        c
    };
    let curve = secpb_bench::recovery_sweep::run_sweep(&sweep_cfg);
    if curve.passed() {
        println!(
            "recovery curve        {} points monotone (fastrec <= triad <= eager-ish <= lazy)",
            curve.points.len()
        );
    } else {
        eprint!("RECOVERY CURVE FAILURE:\n{}", curve.render_text());
    }

    let per_cell = cells
        .iter()
        .zip(serial.iter().zip(&cell_seconds))
        .zip(&recovery)
        .map(|((c, (r, secs)), check)| {
            let stores = r.stats.get(counters::STORES);
            Json::obj()
                .field("workload", c.profile.name.as_str())
                .field("scheme", c.scheme.name())
                .field("cycles", r.cycles)
                .field("ipc", r.ipc())
                .field("ns_per_store", secs * 1e9 / stores.max(1) as f64)
                .field("recovery_ok", check.ok())
                .field("recovery_blocks", check.blocks_checked)
                .field("recovery_cycles", check.recovery_cycles)
                .field(
                    "recovery_failure",
                    match &check.failure {
                        Some(why) => Json::from(why.as_str()),
                        None => Json::Null,
                    },
                )
        });
    let payload = Json::obj()
        .field("grid", if smoke { "smoke" } else { "full" })
        .field("cells", cells.len())
        .field("instructions_per_cell", args.instructions)
        .field("crypto_backend", backend.name())
        .field("jobs", jobs)
        .field("host_cores", cores)
        .field("serial_seconds", serial_s)
        .field(
            "parallel_seconds",
            if parallel_timing_valid {
                Json::from(parallel_s)
            } else {
                Json::Null
            },
        )
        .field(
            "speedup",
            if parallel_timing_valid {
                Json::from(speedup)
            } else {
                Json::Null
            },
        )
        .field("parallel_timing_valid", parallel_timing_valid)
        .field("parallel_determinism_validated", true)
        .field("serial_instructions_per_second", serial_ips)
        .field(
            "parallel_instructions_per_second",
            if parallel_timing_valid {
                Json::from(parallel_ips)
            } else {
                Json::Null
            },
        )
        .field("serial_ns_per_store", serial_ns_per_store)
        .field("deterministic", true)
        .field("recovery_ok", recovery_failures.is_empty())
        .field("recovery_blocks_verified", recovery_blocks)
        .field("recovery_cycles_total", recovery_cycles_total)
        .field("telemetry", telemetry)
        .field("telemetry_events", telemetry_events)
        .field("telemetry_dropped", telemetry_dropped)
        .field("recovery_curve", curve.to_json())
        .field("results", Json::Arr(per_cell.collect()));
    // Routine runs must not dirty the working tree: the checked-in
    // baseline is only touched when explicitly asked for.
    let path = match args.json.as_deref() {
        Some(p) => p.to_owned(),
        None if update_baseline => "BENCH_grid.json".to_owned(),
        None => std::env::temp_dir()
            .join("BENCH_grid.json")
            .to_string_lossy()
            .into_owned(),
    };
    std::fs::write(&path, payload.to_pretty()).expect("write json");
    eprintln!("wrote {path}");
    if !recovery_failures.is_empty() {
        eprintln!(
            "bench_grid: {} cell(s) failed recovery checks",
            recovery_failures.len()
        );
        std::process::exit(1);
    }
    if !curve.passed() {
        eprintln!("bench_grid: recovery curve failed (ordering or consistency)");
        std::process::exit(1);
    }
}
