//! Load generator for the sharded persist service: aggregate
//! stores/sec at 1/2/4/8 shards, plus the shard-determinism
//! cross-check.
//!
//! Runs the same multi-tenant workload through `secpb_bench::serve` at
//! each shard count, times the wall clock, and reports aggregate
//! stores per second.  After timing, every populated shard of every
//! multi-shard run is re-run **solo** (one shard hosting only that
//! shard's tenants, same seed) and its `ShardOutcome::digest` must
//! match byte-for-byte — the service's determinism contract: a shard's
//! outcome depends only on its tenants and seed, never on shard count
//! or worker count.
//!
//! Usage:
//! `cargo run --release -p secpb-bench --bin serve_bench [instructions]
//!  [--smoke] [--json out.json] [--update-baseline] [--tenants N]
//!  [--epoch N] [--trace NAME=PATH]...`
//!
//! `--smoke` shrinks the run for CI (fewer instructions, shard counts
//! 1/2/4) and additionally validates the report: throughput fields
//! present, and — only where `scaling_valid` — monotone non-degrading
//! aggregate stores/sec with shard count.  On a single-core host the
//! wall-clock ratios say nothing about the architecture, so the report
//! records `scaling_valid: false` (mirroring BENCH_grid.json's
//! `speedup: null` convention) and the monotonicity gate is skipped;
//! the determinism cross-check always runs.
//!
//! The JSON report lands in the temp directory by default;
//! `--update-baseline` writes the checked-in `BENCH_serve.json` and
//! `--json <path>` overrides both.

use std::collections::HashMap;
use std::time::Instant;

use secpb_bench::serve::{
    run_serve, PrivilegeToken, QosClass, ServeConfig, TenantSpec, SERVE_SEED,
};
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_workloads::WorkloadProfile;

/// Shard counts exercised by the full benchmark.
const FULL_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard counts exercised by `--smoke`.
const SMOKE_COUNTS: [usize; 3] = [1, 2, 4];

/// The fixed tenant population every shard count replays.
fn build_tenants(count: usize, instructions: u64) -> Vec<TenantSpec> {
    let suite = WorkloadProfile::spec_suite();
    let classes = [QosClass::Gold, QosClass::Silver, QosClass::Bronze];
    let token = PrivilegeToken::acquire();
    let mut cfg = ServeConfig::new(1);
    for i in 0..count {
        let profile = suite[i % suite.len()].clone();
        let name = format!("t{i}-{}", profile.name);
        cfg.tenants
            .push(TenantSpec::synthetic(&name, profile, instructions));
        cfg.set_qos(&name, classes[i % classes.len()], &token)
            .expect("tenant just added");
    }
    cfg.tenants
}

fn config_for(shards: usize, tenants: &[TenantSpec], epoch_len: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(shards);
    cfg.epoch_len = epoch_len;
    cfg.tenants = tenants.to_vec();
    cfg
}

struct CountResult {
    shards: usize,
    workers: usize,
    wall_seconds: f64,
    stores: u64,
    persists: u64,
    stores_per_sec: f64,
    /// `(member names, digest)` for every populated shard.
    digests: Vec<(Vec<String>, String)>,
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let update_baseline = raw.iter().any(|a| a == "--update-baseline");
    raw.retain(|a| a != "--update-baseline");
    let mut file_tenants: Vec<(String, String)> = Vec::new();
    while let Some(i) = raw.iter().position(|a| a == "--trace") {
        if i + 1 >= raw.len() {
            eprintln!("error: --trace takes NAME=PATH");
            std::process::exit(2);
        }
        let spec = raw[i + 1].clone();
        raw.drain(i..=i + 1);
        match spec.split_once('=') {
            Some((name, path)) => file_tenants.push((name.to_owned(), path.to_owned())),
            None => {
                eprintln!("error: --trace takes NAME=PATH");
                std::process::exit(2);
            }
        }
    }
    let tenant_count = match raw.iter().position(|a| a == "--tenants") {
        Some(i) => {
            if i + 1 >= raw.len() {
                eprintln!("error: --tenants takes a number");
                std::process::exit(2);
            }
            let n = raw[i + 1].parse::<usize>().unwrap_or_else(|_| {
                eprintln!("error: --tenants takes a number");
                std::process::exit(2);
            });
            raw.drain(i..=i + 1);
            n
        }
        None => 8,
    };
    let epoch_len = match raw.iter().position(|a| a == "--epoch") {
        Some(i) => {
            if i + 1 >= raw.len() {
                eprintln!("error: --epoch takes a number");
                std::process::exit(2);
            }
            let n = raw[i + 1].parse::<usize>().unwrap_or_else(|_| {
                eprintln!("error: --epoch takes a number");
                std::process::exit(2);
            });
            raw.drain(i..=i + 1);
            n
        }
        None => 1024,
    };
    let args = match secpb_bench::args::RunnerArgs::parse(&raw, if smoke { 8_000 } else { 60_000 })
    {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: serve_bench [instructions] [--smoke] [--json out.json] \
                 [--update-baseline] [--tenants N] [--epoch N] [--trace NAME=PATH]..."
            );
            std::process::exit(2);
        }
    };

    let mut tenants = build_tenants(tenant_count, args.instructions);
    for (name, path) in &file_tenants {
        tenants.push(TenantSpec::from_file(name, path));
    }
    let counts: &[usize] = if smoke { &SMOKE_COUNTS } else { &FULL_COUNTS };
    let cores = pool::default_jobs();
    // Wall-clock scaling ratios only mean something with real
    // parallelism under them; on fewer cores than the largest shard
    // count the numbers are still recorded but flagged invalid,
    // mirroring BENCH_grid.json's `speedup: null` convention.
    let scaling_valid = cores >= *counts.last().expect("counts nonempty");
    eprintln!(
        "serve_bench: {} tenants @ {} instructions, epoch {}, shard counts {:?} on {} core(s){}",
        tenants.len(),
        args.instructions,
        epoch_len,
        counts,
        cores,
        if scaling_valid {
            ""
        } else {
            " (scaling_valid: false)"
        }
    );

    // Timing pass: every shard count replays the identical tenant set.
    let mut results: Vec<CountResult> = Vec::with_capacity(counts.len());
    for &shards in counts {
        let cfg = config_for(shards, &tenants, epoch_len);
        let t = Instant::now();
        let out = run_serve(&cfg).unwrap_or_else(|e| {
            eprintln!("serve_bench: {shards}-shard run failed: {e}");
            std::process::exit(1);
        });
        let wall = t.elapsed().as_secs_f64();
        if out.total_anomalies() > 0 || out.total_qos_violations() > 0 || !out.consistent() {
            eprintln!(
                "serve_bench: {shards}-shard run unhealthy: {} anomalies, {} QoS violations, consistent={}",
                out.total_anomalies(),
                out.total_qos_violations(),
                out.consistent()
            );
            std::process::exit(1);
        }
        let stores = out.total_stores();
        let r = CountResult {
            shards,
            workers: cfg.workers,
            wall_seconds: wall,
            stores,
            persists: out.total_persists(),
            stores_per_sec: stores as f64 / wall.max(1e-9),
            digests: out
                .shards
                .iter()
                .filter(|s| !s.tenants.is_empty())
                .map(|s| (s.tenants.clone(), s.digest()))
                .collect(),
        };
        eprintln!(
            "  {shards} shard(s): {:.3} s, {} stores, {:.0} stores/s",
            r.wall_seconds, r.stores, r.stores_per_sec
        );
        results.push(r);
    }

    // Determinism cross-check (after timing, so it cannot pollute it):
    // each populated shard's digest must equal a solo re-run of just
    // that shard's tenants.  Solo digests are cached by member list —
    // the same subset appearing at different shard counts must agree
    // with the same reference.
    let by_name: HashMap<&str, &TenantSpec> =
        tenants.iter().map(|t| (t.name.as_str(), t)).collect();
    let mut solo_cache: HashMap<Vec<String>, String> = HashMap::new();
    let mut checked = 0usize;
    for r in &results {
        for (members, digest) in &r.digests {
            let reference = solo_cache.entry(members.clone()).or_insert_with(|| {
                let subset: Vec<TenantSpec> = members
                    .iter()
                    .map(|n| (*by_name.get(n.as_str()).expect("known tenant")).clone())
                    .collect();
                let solo = config_for(1, &subset, epoch_len);
                let out = run_serve(&solo).unwrap_or_else(|e| {
                    eprintln!("serve_bench: solo determinism re-run failed: {e}");
                    std::process::exit(1);
                });
                out.shards[0].digest()
            });
            if digest != reference {
                eprintln!(
                    "DETERMINISM VIOLATION: shard hosting [{}] at {} shards digests {digest}, \
                     solo re-run digests {reference}",
                    members.join(","),
                    r.shards
                );
                std::process::exit(1);
            }
            checked += 1;
        }
    }
    eprintln!(
        "  determinism: {checked} shard outcome(s) across {:?} shards match solo re-runs",
        counts
    );

    // Monotone non-degrading aggregate throughput — only meaningful
    // where the host could actually run the shards in parallel.  A
    // small tolerance absorbs wall-clock noise.
    let mut monotone_ok = true;
    if scaling_valid {
        for pair in results.windows(2) {
            if pair[1].stores_per_sec < pair[0].stores_per_sec * 0.85 {
                monotone_ok = false;
                eprintln!(
                    "THROUGHPUT REGRESSION: {} shards {:.0} stores/s < {} shards {:.0} stores/s",
                    pair[1].shards, pair[1].stores_per_sec, pair[0].shards, pair[0].stores_per_sec
                );
            }
        }
    }

    let per_count = results.iter().map(|r| {
        Json::obj()
            .field("shards", r.shards)
            .field("workers", r.workers)
            .field("wall_seconds", r.wall_seconds)
            .field("stores", r.stores)
            .field("persists", r.persists)
            .field("aggregate_stores_per_sec", r.stores_per_sec)
            .field(
                "shard_digests",
                Json::Arr(
                    r.digests
                        .iter()
                        .map(|(m, d)| {
                            Json::obj()
                                .field("tenants", m.join(","))
                                .field("digest", d.as_str())
                        })
                        .collect(),
                ),
            )
    });
    let payload = Json::obj()
        .field("bench", if smoke { "smoke" } else { "full" })
        .field("tenants", tenants.len())
        .field("instructions_per_tenant", args.instructions)
        .field("epoch_len", epoch_len)
        .field("seed", SERVE_SEED)
        .field("host_cores", cores)
        .field("scaling_valid", scaling_valid)
        .field("monotone_throughput", scaling_valid && monotone_ok)
        .field("determinism_validated", true)
        .field("shard_outcomes_checked", checked)
        .field("results", Json::Arr(per_count.collect()));
    let path = match args.json.as_deref() {
        Some(p) => p.to_owned(),
        None if update_baseline => "BENCH_serve.json".to_owned(),
        None => std::env::temp_dir()
            .join("BENCH_serve.json")
            .to_string_lossy()
            .into_owned(),
    };
    std::fs::write(&path, payload.to_pretty()).expect("write json");
    eprintln!("wrote {path}");

    if smoke {
        // Self-validate the report shape the CI gate depends on.
        let doc = std::fs::read_to_string(&path).expect("read back json");
        let parsed = Json::parse(&doc).expect("report parses");
        for key in [
            "scaling_valid",
            "determinism_validated",
            "monotone_throughput",
            "results",
        ] {
            assert!(parsed.get(key).is_some(), "report missing `{key}`");
        }
    }
    if !monotone_ok {
        std::process::exit(1);
    }
}
