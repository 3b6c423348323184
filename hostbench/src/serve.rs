//! The serve_faults workload: the sharded persist service under injected
//! shard crashes.
//!
//! Two file tenants, placed on different shards of a two-shard,
//! two-worker service (so client threads never outnumber two cores), with
//! the service defaults: COBCM, the DBMF forest, a checkpoint every 4
//! epochs, and telemetry on.  A crash plan kills a shard every N stores,
//! which forces checkpoint restore plus journal replay.
//!
//! `run_serve` is one call, so the per-layer split comes from a replica
//! of one shard's loop driven from outside with the same public calls:
//! `step` per item, `sync_metadata` per epoch, `checkpoint` at the
//! service's cadence and `restore` at each injected crash.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use secpb_bench::serve::{
    quiet_injected_faults, run_serve, ServeConfig, ServeError, ServeFaultPlan, ServeOutcome,
    ShardOutcome, TenantSpec,
};
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::counters;
use secpb_core::system::SecureSystem;
use secpb_sim::addr::Asid;
use secpb_sim::fault::{CrashTrigger, FaultClock};
use secpb_sim::fxhash::derive_seed;
use secpb_sim::trace::TraceItem;
use secpb_workloads::{trace_io, TraceGenerator, WorkloadProfile};

use crate::grid;
use crate::host::Calibration;
use crate::probe::{self, ratio, Spans, StepProfile};
use crate::report::{self, Kind, Outcome};
use crate::RunCtx;

/// `(tenant name, benchmark)`: two store-heavy tenants with similar store
/// counts, so both shards (and both workers) carry comparable load and
/// every shard sees injected crashes.  The names hash to different shards
/// of a two-shard service; [`reference`] refuses to run otherwise.  The
/// first tenant's shard is the one the replica reproduces.
const TENANTS: [(&str, &str); 2] = [("t0-gamess", "gamess"), ("t1-povray", "povray")];

/// `ShardOutcome::digest` prefixes per shard, for the default seed at the
/// standard budget.
const PINS: [&str; 2] = ["e68d88af00c66324", "23d4b7b0a5392c15"];

/// The tenants' generated traces and the SPB1 files they were written
/// to.  The files are removed when this is dropped.
struct Tenants {
    files: Vec<(String, PathBuf)>,
    items: Vec<Vec<TraceItem>>,
}

impl Drop for Tenants {
    fn drop(&mut self) {
        for (_, path) in &self.files {
            if let Err(e) = std::fs::remove_file(path) {
                eprintln!("hostbench: removing {}: {e}", path.display());
            }
        }
    }
}

/// Generates both tenants' traces and writes them as SPB1 files, the
/// form the service ingests file tenants in.  Returns the tenants and
/// the host time spent generating (the rest was writing).
fn set_up(ctx: &RunCtx) -> Result<(Tenants, Duration), String> {
    let mut tenants = Tenants {
        files: Vec::new(),
        items: Vec::new(),
    };
    let mut generating = Duration::ZERO;
    for (name, bench) in TENANTS {
        let t = Instant::now();
        let profile = WorkloadProfile::named(bench).expect("tenants name SPEC profiles");
        let mut generator = TraceGenerator::new(profile, derive_seed(ctx.seed, &[name]));
        let items = grid::generate(&mut generator, ctx.budget.tenant_instructions);
        generating += t.elapsed();
        let path = ctx
            .out_dir
            .join(format!("{}-{name}.spb", std::process::id()));
        tenants.files.push((name.to_owned(), path.clone()));
        let write = || -> std::io::Result<()> {
            let mut w = BufWriter::new(std::fs::File::create(&path)?);
            trace_io::write_trace(&mut w, &items)?;
            w.flush()
        };
        write().map_err(|e| format!("writing {}: {e}", path.display()))?;
        tenants.items.push(items);
    }
    Ok((tenants, generating))
}

fn config(tenants: &Tenants, faults: ServeFaultPlan) -> ServeConfig {
    let mut cfg = ServeConfig::new(2);
    cfg.workers = 2;
    cfg.telemetry = true;
    cfg.faults = faults;
    for (name, path) in &tenants.files {
        let path = path.to_str().expect("the benchmark's paths are UTF-8");
        cfg.tenants.push(TenantSpec::from_file(name, path));
    }
    cfg
}

fn crash_plan(ctx: &RunCtx) -> ServeFaultPlan {
    ServeFaultPlan::storm(ctx.seed, ctx.budget.crash_every_stores, 0, f64::INFINITY)
}

fn prefix(digest: &str) -> String {
    digest[..16].to_owned()
}

/// The crash-free run every faulted run must reproduce shard for shard.
/// Its shards are checked (and, when pinned, compared with the pins) as
/// operations of their own.  Returns each shard's digest prefix.
fn reference(tenants: &Tenants, ctx: &RunCtx, out: &mut Outcome) -> Result<Vec<String>, String> {
    let cfg = config(tenants, crash_plan(ctx).crash_free());
    let placed: Vec<usize> = TENANTS.iter().map(|(n, _)| cfg.shard_of(n)).collect();
    if placed[0] == placed[1] {
        return Err("the two tenants hash to the same shard".into());
    }
    let served = run_serve(&cfg).map_err(|e| format!("crash-free reference run: {e}"))?;
    let digests: Vec<String> = served.shards.iter().map(|s| prefix(&s.digest())).collect();
    for (shard, digest) in served.shards.iter().zip(&digests) {
        let mut failure = shard_failure(shard);
        if ctx.pinned && failure.is_none() && *digest != PINS[shard.shard] {
            failure = Some(format!(
                "digest {digest} differs from pin {}",
                PINS[shard.shard]
            ));
        }
        out.check(&format!("reference shard {}", shard.shard), failure);
    }
    Ok(digests)
}

/// What makes a shard fail regardless of faults.
fn shard_failure(shard: &ShardOutcome) -> Option<String> {
    if !shard.recovery_consistent {
        Some("final recovery inconsistent".into())
    } else if shard.anomalies > 0 {
        Some(format!("{} anomalies", shard.anomalies))
    } else if shard.qos_violations > 0 {
        Some(format!("{} QoS violations", shard.qos_violations))
    } else {
        None
    }
}

/// Checks every shard of a faulted run: the common checks, at least one
/// injected crash recovered, and the crash-free reference's digest.
fn check_faulted(served: &Result<ServeOutcome, ServeError>, expect: &[String], out: &mut Outcome) {
    match served {
        Err(e) => {
            for shard in 0..expect.len() {
                out.check(&format!("shard {shard}"), Some(format!("run_serve: {e}")));
            }
        }
        Ok(o) => {
            for shard in &o.shards {
                let digest = prefix(&shard.digest());
                let failure = shard_failure(shard).or_else(|| {
                    if shard.restored == 0 {
                        Some("no injected crash fired".into())
                    } else if digest != expect[shard.shard] {
                        Some(format!(
                            "digest {digest} differs from the crash-free reference {}",
                            expect[shard.shard]
                        ))
                    } else {
                        None
                    }
                });
                out.check(&format!("shard {}", shard.shard), failure);
            }
        }
    }
}

/// Runs serve_faults: repeated set-up + `run_serve` samples for the
/// end-to-end metrics, or (`traced`) one instrumented pass for the
/// per-layer metrics.
///
/// # Errors
///
/// When a trace file cannot be written or read back, the tenants share a
/// shard, the crash-free reference fails, or the metrics cannot be laid
/// out.
pub fn run(ctx: &RunCtx, traced: bool) -> Result<Outcome, String> {
    quiet_injected_faults();
    if traced {
        return run_traced(ctx);
    }
    let deadline = Instant::now() + ctx.seconds;
    let mut out = Outcome::default();
    let t = Instant::now();
    let (first, _) = set_up(ctx)?;
    let mut setup = t.elapsed().as_secs_f64();
    let expect = reference(&first, ctx, &mut out)?;

    // The replica rebuilds one shard's end state once; every sample then
    // also times one crash + recover of it, so recovery samples spread
    // over the run like the others.
    let cfg = config(&first, crash_plan(ctx));
    let mut replica = Replica::new(&cfg, &first.items[0]);
    replica.serve(CrashTrigger::Never, None);
    let end_state = PersistSystem::checkpoint(&replica.sys)
        .map_err(|e| format!("checkpointing the replica: {e}"))?;
    check_replica(&replica.finish(), &cfg, &expect, &mut out);
    drop(replica);

    let (mut setups, mut minstr_per_s, mut stores_per_s, mut recovers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tenants = Some(first);
    let mut rss = None;
    let mut cal = Calibration::default();
    loop {
        let cfg = config(tenants.as_ref().expect("set up above"), crash_plan(ctx));
        let t = Instant::now();
        let served = run_serve(&cfg);
        let wall = t.elapsed().as_secs_f64();
        check_faulted(&served, &expect, &mut out);
        let recover = recover_once(&cfg, &end_state)?;
        // VmHWM after one sample: the footprint of one unit of work, read
        // before repeated samples (or calibration) let the allocator's
        // adaptive thresholds and fragmentation creep in.
        if rss.is_none() {
            rss = Some(report::peak_rss_mib()?);
        }
        let slowdown = cal.after_unit();
        setups.push((setup, slowdown));
        recovers.push((recover, slowdown));
        if let Ok(o) = &served {
            let instructions: u64 = o
                .shards
                .iter()
                .map(|s| s.stats.get(counters::INSTRUCTIONS))
                .sum();
            stores_per_s.push((o.total_stores() as f64 / wall, slowdown));
            minstr_per_s.push((instructions as f64 / wall / 1e6, slowdown));
        }
        if Instant::now() >= deadline {
            break;
        }
        // Drop the previous sample's files before writing them again.
        drop(tenants.take());
        let t = Instant::now();
        tenants = Some(set_up(ctx)?.0);
        setup = t.elapsed().as_secs_f64();
    }
    cal.report();
    if stores_per_s.is_empty() {
        return Err("every run_serve call failed".into());
    }

    let values = report::summarize(&[
        ("setup_s", Kind::Time, setups),
        ("sim_minstr_per_s", Kind::Rate, minstr_per_s),
        ("recover_s", Kind::Time, recovers),
        ("serve_stores_per_s", Kind::Rate, stores_per_s),
        (
            "peak_rss_mb",
            Kind::Size,
            rss.into_iter().map(|m| (m, 1.0)).collect(),
        ),
    ]);
    out.metrics = report::in_schema(&report::END_TO_END, &values, None)?;
    Ok(out)
}

/// Restores a fresh shard system from `end_state` and times one
/// `crash(PowerLoss, DrainAll)` plus `recover()` of it, in seconds.
fn recover_once(cfg: &ServeConfig, end_state: &[u8]) -> Result<f64, String> {
    let mut sys = replica_system(cfg, TENANTS[0].0);
    PersistSystem::restore(&mut sys, end_state)
        .map_err(|e| format!("restoring the replica: {e}"))?;
    let t = Instant::now();
    let crashed = PersistSystem::crash(&mut sys, CrashKind::PowerLoss, DrainPolicy::DrainAll);
    let consistent = crashed.is_ok() && PersistSystem::recover(&sys).is_consistent();
    let took = t.elapsed().as_secs_f64();
    if consistent {
        Ok(took)
    } else {
        Err("a restored replica did not recover consistently".into())
    }
}

/// The replica's verdict is one more operation: it must digest like the
/// service's shard.
fn check_replica(end: &ShardOutcome, cfg: &ServeConfig, expect: &[String], out: &mut Outcome) {
    let shard = cfg.shard_of(TENANTS[0].0);
    let digest = prefix(&end.digest());
    let failure = shard_failure(end).or_else(|| {
        (digest != expect[shard]).then(|| {
            format!(
                "digest {digest} differs from the service's shard {shard} ({})",
                expect[shard]
            )
        })
    });
    out.check("replica", failure);
}

fn run_traced(ctx: &RunCtx) -> Result<Outcome, String> {
    let deadline = Instant::now() + ctx.seconds;
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let setup = spans.begin("setup", None);
    let (tenants, generating) = set_up(ctx)?;
    spans.end(setup);
    let generated: usize = tenants.items.iter().map(Vec::len).sum();

    let parse = spans.begin("parse", None);
    let t = Instant::now();
    for ((_, path), items) in tenants.files.iter().zip(&tenants.items) {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parsed = trace_io::read_trace(BufReader::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if parsed != *items {
            return Err(format!("{} does not read back as written", path.display()));
        }
    }
    let parsing = t.elapsed();
    spans.end(parse);

    let expect = reference(&tenants, ctx, &mut out)?;
    let cfg = config(&tenants, crash_plan(ctx));
    let mut split = Split {
        spans,
        ..Split::default()
    };
    // Untraced service samples alternate with traced replicas of one
    // shard, so both see the same host load; the replica's mean total
    // against its shard's share of the mean service wall time is the
    // tracing overhead.
    let mut walls = Vec::new();
    let mut traced_runs = Vec::new();
    let (mut crash_ns, mut recover_ns) = (0, 0);
    let (served, end, stats, tree_folds, memo, memory_accesses) = loop {
        let sample = split.spans.begin("run_serve", None);
        let t = Instant::now();
        let served = run_serve(&cfg);
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        split.spans.end(sample);
        check_faulted(&served, &expect, &mut out);
        let served = served.map_err(|e| format!("run_serve: {e}"))?;

        let mut replica = Replica::new(&cfg, &tenants.items[0]);
        let t = Instant::now();
        replica.serve(cfg.faults.trigger, Some(&mut split));
        traced_runs.push(t.elapsed().as_secs_f64() * 1e3);
        let stats = replica.sys.stats().clone();
        let tree_folds = replica.sys.integrity_tree().fold_hashes();
        let memo = replica.sys.memo_stats();
        let memory_accesses = replica.sys.hierarchy_stats().memory_accesses;
        let end = replica.finish();
        let recovered_at = end.crashed_at + end.crash;
        split
            .spans
            .record("crash", None, end.crashed_at, recovered_at);
        split
            .spans
            .record("recover", None, recovered_at, recovered_at + end.recover);
        crash_ns += end.crash.as_nanos() as u64;
        recover_ns += end.recover.as_nanos() as u64;
        check_replica(&end, &cfg, &expect, &mut out);
        let shard = &served.shards[cfg.shard_of(TENANTS[0].0)];
        let mut mismatch = None;
        for (what, got, want) in [
            ("epochs", end.epochs, shard.epochs),
            ("restored", end.restored, shard.restored),
            ("replayed", end.replayed, shard.replayed),
            ("sync_hashes", end.sync_hashes, shard.sync_hashes),
        ] {
            if got != want && mismatch.is_none() {
                mismatch = Some(format!("replica {what} {got} != service shard's {want}"));
            }
        }
        out.check("replica counts", mismatch);
        if Instant::now() >= deadline {
            break (served, end, stats, tree_folds, memo, memory_accesses);
        }
    };
    let n = traced_runs.len() as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let shard = &served.shards[cfg.shard_of(TENANTS[0].0)];
    let total_items: u64 = served.shards.iter().map(|s| s.items).sum();
    let share_ms = mean(&walls) * ratio(shard.items as f64, total_items as f64);
    let traced_ms = mean(&traced_runs);
    let (crash_ns, recover_ns) = (crash_ns as f64 / n, recover_ns as f64 / n);

    // Per replica run, in ms.
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let layers_ns = split.steps.total_ns() + split.sync_ns + split.checkpoint_ns + split.restore_ns;
    let floors = probe::kernel_floors();
    let sum = |f: &dyn Fn(&ShardOutcome) -> u64| served.shards.iter().map(f).sum::<u64>() as f64;
    let mut values = vec![
        (
            "workloads.gen_ns_per_item",
            generating.as_nanos() as f64 / generated as f64,
        ),
        (
            "workloads.parse_ns_per_item",
            parsing.as_nanos() as f64 / generated as f64,
        ),
        ("mem.load_ns", split.steps.mean_load_ns()),
        ("mem.loads", stats.get(counters::LOADS) as f64),
        ("mem.memory_accesses", memory_accesses as f64),
        ("secpb.store_ns", split.steps.mean_store_ns()),
        ("secpb.store_ns_p50", split.steps.store_percentile(50.0)),
        ("secpb.store_ns_p99", split.steps.store_percentile(99.0)),
        (
            "crypto.memo_hit_ratio",
            ratio(memo.hits as f64, (memo.hits + memo.misses) as f64),
        ),
        ("crypto.fold_hashes", tree_folds as f64),
        ("crypto.aes_block_ns", floors.aes_block_ns),
        ("crypto.hmac64_ns", floors.hmac64_ns),
        ("crypto.bmt_update_ns", floors.bmt_update_ns),
        ("recovery.crash_ms", crash_ns / 1e6),
        ("recovery.recover_ms", recover_ns / 1e6),
        (
            "recovery.us_per_block",
            ratio(recover_ns / 1e3, end.blocks as f64),
        ),
        ("recovery.blocks", end.blocks as f64),
        (
            "checkpoint.ms",
            ratio(split.checkpoint_ns as f64 / 1e6, split.checkpoints as f64),
        ),
        (
            "checkpoint.restore_ms",
            ratio(split.restore_ns as f64 / 1e6, split.restores as f64),
        ),
        ("checkpoint.bytes", split.checkpoint_bytes as f64),
        (
            "checkpoint.ns_per_kb",
            ratio(
                split.checkpoint_ns as f64,
                split.checkpoint_bytes_total as f64 / 1024.0,
            ),
        ),
        ("serve.step_ms", ms(split.steps.total_ns())),
        ("serve.sync_ms", ms(split.sync_ns)),
        ("serve.checkpoint_ms", ms(split.checkpoint_ns)),
        ("serve.restore_ms", ms(split.restore_ns)),
        ("serve.epochs", sum(&|s| s.epochs)),
        ("serve.restored", sum(&|s| s.restored)),
        ("serve.replayed", sum(&|s| s.replayed)),
        ("serve.sync_hashes", sum(&|s| s.sync_hashes)),
        (
            "pool.stolen_frac",
            ratio(served.pool.stolen as f64, served.pool.executed as f64),
        ),
        (
            "pool.backpressure_waits",
            served.pool.backpressure_waits as f64,
        ),
        ("pool.max_queue_depth", served.pool.max_queue_depth as f64),
        ("telemetry.dropped", sum(&|s| s.telemetry_dropped)),
        ("trace.traced_ms", traced_ms),
        ("trace.untraced_ms", share_ms),
        ("trace.overhead_ms", traced_ms - share_ms),
        ("trace.layers_ms", ms(layers_ns)),
        ("trace.residual_ms", traced_ms - ms(layers_ns)),
    ];
    for (name, counter) in [
        ("secpb.persists", counters::PERSISTS),
        ("secpb.allocations", counters::ALLOCATIONS),
        ("secpb.drains", counters::DRAINS),
        ("crypto.bmt_node_hashes", counters::BMT_NODE_HASHES),
        ("crypto.otps", counters::OTPS),
        ("crypto.macs", counters::MACS),
    ] {
        values.push((name, stats.get(counter) as f64));
    }
    out.metrics = report::in_schema(&report::PER_LAYER, &values, Some(0.0))?;
    let path = ctx
        .out_dir
        .join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
    split
        .spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("hostbench: spans written to {}", path.display());
    Ok(out)
}

/// Host time of the replica's loop, split by public call.
#[derive(Default)]
struct Split {
    spans: Spans,
    steps: StepProfile,
    sync_ns: u64,
    checkpoint_ns: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    checkpoint_bytes_total: u64,
    restore_ns: u64,
    restores: u64,
}

/// The shard system exactly as `run_serve` builds it for a shard whose
/// only member is `tenant`.
fn replica_system(cfg: &ServeConfig, tenant: &str) -> SecureSystem {
    SecureSystem::with_tree(
        cfg.sys_cfg.clone(),
        cfg.scheme,
        cfg.tree,
        derive_seed(cfg.seed, &[tenant]),
    )
}

/// Shard accounting a checkpoint rewinds to.
#[derive(Clone, Copy, Default)]
struct Counts {
    epochs: u64,
    items: u64,
    stores: u64,
    sync_hashes: u64,
}

/// One shard's epoch loop, replayed from outside.
struct Replica {
    sys: SecureSystem,
    tenant: &'static str,
    items: Vec<TraceItem>,
    quota: usize,
    checkpoint_every: u64,
    counts: Counts,
    replayed: u64,
    restored: u64,
}

/// The replica's end state, with its final crash and recovery timing.
struct ReplicaEnd {
    outcome: ShardOutcome,
    crashed_at: Instant,
    crash: Duration,
    recover: Duration,
    blocks: u64,
}

impl std::ops::Deref for ReplicaEnd {
    type Target = ShardOutcome;
    fn deref(&self) -> &ShardOutcome {
        &self.outcome
    }
}

impl Replica {
    /// The first tenant's shard: its items tagged with the shard-local
    /// ASID the service gives a shard's first member.
    fn new(cfg: &ServeConfig, items: &[TraceItem]) -> Self {
        let tenant = TENANTS[0].0;
        let spec = cfg
            .tenants
            .iter()
            .find(|t| t.name == tenant)
            .expect("the replicated tenant is configured");
        let items = items
            .iter()
            .map(|&item| {
                let mut item = item;
                if let Some(a) = item.access.as_mut() {
                    a.asid = Asid(1);
                }
                item
            })
            .collect();
        Replica {
            sys: replica_system(cfg, tenant),
            tenant,
            items,
            quota: spec.qos().epoch_quota(cfg.epoch_len),
            checkpoint_every: cfg.checkpoint_every,
            counts: Counts::default(),
            replayed: 0,
            restored: 0,
        }
    }

    /// Serves every epoch.  With a crash trigger the loop checkpoints at
    /// the service's cadence, and at each firing restores the last
    /// checkpoint and replays the journal with the trigger disarmed —
    /// exactly what the service does for a crashed shard.  Without one it
    /// skips checkpoints, which never change the state.
    fn serve(&mut self, trigger: CrashTrigger, mut split: Option<&mut Split>) {
        let armed = trigger != CrashTrigger::Never;
        let items = std::mem::take(&mut self.items);
        let mut queue: VecDeque<&[TraceItem]> = items.chunks(self.quota).collect();
        let mut journal: Vec<&[TraceItem]> = Vec::new();
        let mut clock = FaultClock::new(trigger);
        let mut replay_pending = 0usize;
        let mut checkpoint = if armed {
            Some(self.checkpoint(split.as_deref_mut()))
        } else {
            None
        };
        while let Some(batch) = queue.pop_front() {
            let replaying = replay_pending > 0;
            replay_pending = replay_pending.saturating_sub(1);
            journal.push(batch);
            let epoch = split.as_mut().map(|s| s.spans.begin("epoch", None));
            let t = Instant::now();
            let mut crashed = false;
            for &item in batch {
                let is_store = item.access.is_some_and(|a| a.is_store());
                if is_store {
                    self.counts.stores += 1;
                }
                match split.as_mut() {
                    Some(s) => s.steps.step(&mut self.sys, item),
                    None => self.sys.step(item),
                }
                if is_store && armed && !replaying {
                    let now = self.sys.finish_time().raw();
                    if clock.observe_store(now, PersistSystem::drains_in_flight(&self.sys)) {
                        crashed = true;
                        break;
                    }
                }
            }
            let stepped = Instant::now();
            if let (Some(s), Some(id)) = (split.as_mut(), epoch) {
                s.spans.record("step", Some(id), t, stepped);
            }
            if crashed {
                let (bytes, counts) = checkpoint.as_ref().expect("armed loops checkpoint");
                PersistSystem::restore(&mut self.sys, bytes)
                    .expect("a shard's own checkpoint restores");
                self.counts = *counts;
                let replay = std::mem::take(&mut journal);
                replay_pending = replay.len();
                self.replayed += replay.len() as u64;
                self.restored += 1;
                for b in replay.into_iter().rev() {
                    queue.push_front(b);
                }
                if let (Some(s), Some(id)) = (split.as_mut(), epoch) {
                    let done = Instant::now();
                    s.restore_ns += (done - stepped).as_nanos() as u64;
                    s.restores += 1;
                    s.spans.record("restore", Some(id), stepped, done);
                    s.spans.end(id);
                }
                continue;
            }
            self.counts.sync_hashes += PersistSystem::sync_metadata(&mut self.sys);
            let synced = Instant::now();
            self.counts.items += batch.len() as u64;
            self.counts.epochs += 1;
            if let (Some(s), Some(id)) = (split.as_mut(), epoch) {
                s.sync_ns += (synced - stepped).as_nanos() as u64;
                s.spans.record("sync", Some(id), stepped, synced);
            }
            if armed && self.counts.epochs.is_multiple_of(self.checkpoint_every) {
                checkpoint = Some(self.checkpoint(split.as_deref_mut()));
                journal.clear();
            }
            if let (Some(s), Some(id)) = (split.as_mut(), epoch) {
                s.spans.end(id);
            }
        }
    }

    fn checkpoint(&self, split: Option<&mut Split>) -> (Vec<u8>, Counts) {
        let t = Instant::now();
        let bytes =
            PersistSystem::checkpoint(&self.sys).expect("the single-core front checkpoints");
        let done = Instant::now();
        if let Some(s) = split {
            s.checkpoint_ns += (done - t).as_nanos() as u64;
            s.checkpoints += 1;
            s.checkpoint_bytes = bytes.len() as u64;
            s.checkpoint_bytes_total += bytes.len() as u64;
            s.spans.record("checkpoint", None, t, done);
        }
        (bytes, self.counts)
    }

    /// The service's teardown: crash, recover, and the shard outcome it
    /// digests.
    fn finish(&mut self) -> ReplicaEnd {
        let crashed_at = Instant::now();
        let crashed =
            PersistSystem::crash(&mut self.sys, CrashKind::PowerLoss, DrainPolicy::DrainAll);
        let crash = crashed_at.elapsed();
        let rec = crashed
            .as_ref()
            .ok()
            .map(|_| PersistSystem::recover(&self.sys));
        let recover = crashed_at.elapsed() - crash;
        let stats = self.sys.stats().clone();
        let outcome = ShardOutcome {
            shard: 0,
            tenants: vec![self.tenant.to_owned()],
            epochs: self.counts.epochs,
            items: self.counts.items,
            stores: self.counts.stores,
            persists: stats.get(counters::PERSISTS),
            sync_hashes: self.counts.sync_hashes,
            cycles: self.sys.finish_time().raw(),
            anomalies: PersistSystem::anomalies(&self.sys),
            qos_violations: 0,
            qos_events: Vec::new(),
            shed: 0,
            replayed: self.replayed,
            restored: self.restored,
            crash_drained: crashed.as_ref().ok().map(|c| c.work.entries),
            recovery_consistent: rec.as_ref().is_some_and(|r| r.is_consistent()),
            snapshots: Vec::new(),
            telemetry_dropped: 0,
            stats,
        };
        ReplicaEnd {
            outcome,
            crashed_at,
            crash,
            recover,
            blocks: rec.map_or(0, |r| r.blocks_checked),
        }
    }
}
