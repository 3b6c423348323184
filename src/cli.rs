//! The `secpb` command-line interface.
//!
//! A hand-rolled (dependency-free) dispatcher so the whole surface is
//! unit-testable: [`dispatch`] takes argv and returns the output text or
//! a usage error.
//!
//! ```text
//! secpb run <bench> <scheme> [entries] [instructions] [--front FRONT]  simulate + metrics
//! secpb watch <bench> <scheme> [instructions] [--front FRONT] [...]  stream health snapshots
//! secpb crash <bench> <scheme> [instructions] [--front FRONT]  crash + verified recovery
//! secpb repro <artifact> [instructions] [--jobs N] [--json FILE]  one paper table/figure
//! secpb storm [--quick] [--seed N] [--brown-out F]      crash-storm fault injection
//! secpb battery [entries]                               battery sizing table
//! secpb trace gen <bench> <file> [instructions]         save a trace
//! secpb trace info <file>                               trace statistics
//! secpb trace run <file> <scheme>                       replay a saved trace
//! secpb serve [--quick] [--shards N] [...]              sharded multi-tenant service
//! secpb soak [--quick] [--seed N]                       fault-tolerance soak storm
//! secpb recover-sweep [--quick] [...]                   recovery-latency vs write-amp curve
//! secpb schemes                                         scheme/front/policy table
//! secpb list                                            benchmarks + schemes
//! ```
//!
//! `--front` selects the system front (`secpb`, `eadr`, `mc<N>` for an
//! N-core machine, `triad<N>` for Triad-NVM selective tree persistence,
//! or `fastrec` for the Huang & Hua fast-recovery layout); every front
//! is driven through the
//! [`PersistSystem`](secpb_core::facade::PersistSystem) facade, so
//! `run` and `crash` are written once.  `repro` regenerates one artifact
//! of the paper's evaluation (`table4`, `table5`, `table6`, `fig6`–`fig9`,
//! `ablations`, `characterize`, `validate-ipc`; see
//! [`secpb_bench::repro`]).

use std::fmt::Write as _;

use secpb_bench::repro::Artifact;
use secpb_bench::storm::{build_front, StormFront};
use secpb_bench::watch::{run_watch, WatchConfig};
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_energy::battery::BatteryTech;
use secpb_energy::drain::secpb_drain_energy;
use secpb_sim::config::SystemConfig;
use secpb_sim::pool;
use secpb_sim::telemetry::ChromeTraceStream;
use secpb_sim::trace::TraceSummary;
use secpb_workloads::trace_io;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  secpb run <bench> <scheme> [entries] [instructions] [--front FRONT]
  secpb watch <bench> <scheme> [instructions] [--front FRONT] [--interval N]
              [--out FILE] [--trace-out FILE] [--crash-every N] [--quick]
  secpb crash <bench> <scheme> [instructions] [--front FRONT]
  secpb repro <table4|table5|table6|fig6|fig7|fig8|fig9|ablations|characterize|validate-ipc>
              [instructions] [--jobs N] [--json FILE]
  secpb storm [--quick] [--seed N] [--brown-out F]
  secpb battery [entries]
  secpb trace gen <bench> <file> [instructions]
  secpb trace info <file>
  secpb trace run <file> <scheme>
  secpb serve [--quick] [--shards N] [--workers N] [--tenants N] [--instructions N]
              [--epoch N] [--seed N] [--trace NAME=PATH]...
  secpb soak [--quick] [--seed N]
  secpb recover-sweep [--quick] [--instructions N] [--seed N] [--json FILE]
  secpb schemes
  secpb list

fronts (FRONT): secpb, eadr, mc<N>, triad<N>, fastrec";

/// Executes one CLI invocation (argv without the program name).
///
/// # Errors
///
/// Returns a usage/diagnostic message on bad arguments or I/O failure.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("crash") => cmd_crash(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("storm") => cmd_storm(&args[1..]),
        Some("battery") => cmd_battery(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("recover-sweep") => cmd_recover_sweep(&args[1..]),
        Some("schemes") => Ok(cmd_schemes()),
        Some("list") => Ok(cmd_list()),
        _ => Err(USAGE.to_owned()),
    }
}

fn parse_profile(name: &str) -> Result<WorkloadProfile, String> {
    WorkloadProfile::named(name).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}`; try: {}",
            WorkloadProfile::SPEC_NAMES.join(", ")
        )
    })
}

fn parse_scheme(name: &str) -> Result<Scheme, String> {
    name.parse::<Scheme>().map_err(|e| e.to_string())
}

/// Extracts `--front <name>` from the argument list (defaulting to the
/// single-core SecPB front), returning the front and remaining args.
fn take_front(args: &[String]) -> Result<(StormFront, Vec<String>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut front = StormFront::SecPb;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--front" {
            i += 1;
            front = args
                .get(i)
                .ok_or("--front takes secpb, eadr, mc<N>, triad<N>, or fastrec")?
                .parse()?;
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((front, rest))
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let (front, args) = take_front(args)?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let entries: usize = args
        .get(2)
        .map(|s| s.parse().map_err(|_| USAGE))
        .transpose()?
        .unwrap_or(32);
    let instructions: u64 = args
        .get(3)
        .map(|s| s.parse().map_err(|_| USAGE))
        .transpose()?
        .unwrap_or(200_000);
    let profile = parse_profile(bench)?;
    let cfg = SystemConfig::default().with_secpb_entries(entries);
    let trace = TraceGenerator::new(profile, 42).generate(instructions);
    let mut sys = build_front(front, cfg, scheme, 42)?;
    let r = sys.run_trace(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench={bench} front={} scheme={} entries={entries}",
        front.name(),
        front.scheme_label(sys.scheme())
    );
    let _ = writeln!(out, "cycles       {}", r.cycles);
    let _ = writeln!(out, "ipc          {:.3}", r.ipc());
    let _ = writeln!(out, "ppti         {:.1}", r.ppti());
    let _ = writeln!(out, "nwpe         {:.2}", r.nwpe());
    let _ = writeln!(
        out,
        "bmt/store    {:.1}%",
        r.bmt_updates_per_store() * 100.0
    );
    let anomalies = sys.anomalies();
    let _ = writeln!(out, "anomalies    {anomalies}");
    if anomalies > 0 {
        let _ = writeln!(
            out,
            "WARNING: {anomalies} model-invariant anomalies recorded — the run completed but \
             violated internal invariants; stream details with `secpb watch`"
        );
    }
    Ok(out)
}

/// Parses a `--flag <number>` pair out of `args`, removing both tokens.
fn take_numeric_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} takes a number"));
            }
            let value = args[i + 1]
                .parse::<T>()
                .map_err(|_| format!("{flag} takes a number"))?;
            args.drain(i..=i + 1);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

/// Parses a `--flag <path>` pair out of `args`, removing both tokens.
fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} takes a file path"));
            }
            let value = args[i + 1].clone();
            args.drain(i..=i + 1);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

fn cmd_watch(args: &[String]) -> Result<String, String> {
    let (front, mut args) = take_front(args)?;
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let interval = take_numeric_flag::<u64>(&mut args, "--interval")?;
    let crash_every = take_numeric_flag::<u64>(&mut args, "--crash-every")?;
    let out_path = take_path_flag(&mut args, "--out")?;
    let trace_path = take_path_flag(&mut args, "--trace-out")?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let instructions: Option<u64> = args
        .get(2)
        .map(|s| s.parse().map_err(|_| USAGE))
        .transpose()?;

    let mut cfg = WatchConfig::new(front, scheme, parse_profile(bench)?);
    if quick {
        cfg = cfg.quick();
    }
    if let Some(n) = instructions {
        cfg.instructions = n;
    }
    if let Some(n) = interval {
        cfg.interval = n;
    }
    if let Some(n) = crash_every {
        cfg.crash_every = Some(n);
    }

    let mut jsonl: Vec<u8> = Vec::new();
    let mut trace_stream = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut stream = ChromeTraceStream::new(std::io::BufWriter::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
            stream
                .process("secpb watch", 0)
                .map_err(|e| format!("{path}: {e}"))?;
            Some(stream)
        }
        None => None,
    };
    let outcome = run_watch(&cfg, Some(&mut jsonl), trace_stream.as_mut())?;
    if let Some(stream) = trace_stream.as_mut() {
        stream.finish(outcome.dropped).map_err(|e| e.to_string())?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "watch bench={bench} front={} scheme={} instructions={} interval={}",
        front.name(),
        front.scheme_label(scheme),
        cfg.instructions,
        cfg.interval
    );
    match &out_path {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "snapshots    {} -> {path}", outcome.snapshots.len());
        }
        None => {
            out.push_str(&String::from_utf8_lossy(&jsonl));
            let _ = writeln!(out, "snapshots    {}", outcome.snapshots.len());
        }
    }
    if let Some(path) = &trace_path {
        let _ = writeln!(out, "chrome trace {path}");
    }
    let _ = writeln!(out, "events       {}", outcome.events);
    let _ = writeln!(out, "dropped      {}", outcome.dropped);
    let _ = writeln!(out, "crashes      {}", outcome.crashes);
    let _ = writeln!(out, "cycles       {}", outcome.cycles);
    let _ = writeln!(out, "anomalies    {}", outcome.anomalies);
    let _ = writeln!(out, "consistent   {}", outcome.consistent);
    if outcome.snapshots.is_empty() {
        return Err(format!("watch streamed no snapshots:\n{out}"));
    }
    if outcome.anomalies > 0 {
        return Err(format!("watch observed model-invariant anomalies:\n{out}"));
    }
    if !outcome.consistent {
        return Err(format!("watch recovery sweep was inconsistent:\n{out}"));
    }
    Ok(out)
}

fn cmd_crash(args: &[String]) -> Result<String, String> {
    let (front, args) = take_front(args)?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let instructions: u64 = args
        .get(2)
        .map(|s| s.parse().map_err(|_| USAGE))
        .transpose()?
        .unwrap_or(100_000);
    let profile = parse_profile(bench)?;
    let trace = TraceGenerator::new(profile, 42).generate(instructions);
    let mut sys = build_front(front, SystemConfig::default(), scheme, 42)?;
    sys.run_trace(&trace);
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .map_err(|e| format!("crash drain failed: {e}"))?;
    let recovery = sys.recover();
    let mut out = String::new();
    let _ = writeln!(out, "crash at cycle {}", report.at.raw());
    let _ = writeln!(out, "entries drained      {}", report.work.entries);
    let _ = writeln!(
        out,
        "sec-sync complete    cycle {}",
        report.secsync_complete_at.raw()
    );
    let _ = writeln!(out, "macs on battery      {}", report.work.macs);
    let _ = writeln!(out, "bmt hashes on battery {}", report.work.bmt_node_hashes);
    let _ = writeln!(out, "blocks recovered     {}", recovery.blocks_checked);
    let _ = writeln!(
        out,
        "estimated recovery   {} cycles",
        sys.recovery_cost().cycles
    );
    let _ = writeln!(out, "consistent           {}", recovery.is_consistent());
    if !recovery.is_consistent() {
        return Err(format!("recovery failed:\n{out}"));
    }
    Ok(out)
}

fn cmd_repro(args: &[String]) -> Result<String, String> {
    let artifact = Artifact::named(args.first().ok_or(USAGE)?)?;
    let mut args = args[1..].to_vec();
    // Any `jobs <= 1` runs the grid inline; the output is the same for
    // every count.
    let jobs = take_numeric_flag::<usize>(&mut args, "--jobs")?.unwrap_or_else(pool::default_jobs);
    let json_path = take_path_flag(&mut args, "--json")?;
    if let Some(stray) = args.iter().find(|a| a.starts_with("--")).or(args.get(1)) {
        return Err(format!("unknown repro argument `{stray}`\n{USAGE}"));
    }
    let instructions = match args.first() {
        Some(n) => n
            .parse()
            .map_err(|_| format!("bad instruction count `{n}`\n{USAGE}"))?,
        None => artifact.default_instructions,
    };
    if json_path.is_some() && !artifact.has_json {
        return Err(format!("repro {} has no --json payload", artifact.name));
    }
    let out = artifact.reproduce(instructions, jobs);
    if let (Some(path), Some(json)) = (&json_path, &out.json) {
        std::fs::write(path, json.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(out.text)
}

fn cmd_storm(args: &[String]) -> Result<String, String> {
    let mut quick = false;
    let mut seed: u64 = 0x5EC9_B0A2;
    let mut brown_out: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed takes a number")?;
            }
            "--brown-out" => {
                i += 1;
                let f: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--brown-out takes a fraction in (0, 1]")?;
                if !(0.0..=1.0).contains(&f) || f == 0.0 {
                    return Err("--brown-out takes a fraction in (0, 1]".to_owned());
                }
                brown_out = Some(f);
            }
            other => return Err(format!("unknown storm flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let mut cfg = if quick {
        secpb_bench::storm::StormConfig::quick(seed)
    } else {
        secpb_bench::storm::StormConfig::full(seed)
    };
    if let Some(f) = brown_out {
        cfg = cfg.with_brown_out(f);
    }
    let report = secpb_bench::storm::run_storm(&cfg);
    let text = report.render_text();
    if report.passed() {
        Ok(text)
    } else {
        Err(format!("fault storm failed:\n{text}"))
    }
}

fn cmd_battery(args: &[String]) -> Result<String, String> {
    let entries: usize = args
        .first()
        .map(|s| s.parse().map_err(|_| USAGE))
        .transpose()?
        .unwrap_or(32);
    let mut out = String::new();
    let _ = writeln!(out, "battery sizing for a {entries}-entry SecPB:");
    for scheme in Scheme::SECPB_SCHEMES.into_iter().chain([Scheme::Bbb]) {
        let joules = secpb_drain_energy(scheme, entries);
        let _ = writeln!(
            out,
            " {:<6} {:>10.2} uJ  SuperCap {:>8.3} mm3 ({:>5.1}% core)  Li-Thin {:>7.4} mm3",
            scheme.name(),
            joules * 1e6,
            BatteryTech::SuperCap.volume_mm3(joules),
            BatteryTech::SuperCap.core_area_ratio_pct(joules),
            BatteryTech::LiThin.volume_mm3(joules),
        );
    }
    Ok(out)
}

fn cmd_trace(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let bench = args.get(1).ok_or(USAGE)?;
            let path = args.get(2).ok_or(USAGE)?;
            let instructions: u64 = args
                .get(3)
                .map(|s| s.parse().map_err(|_| USAGE))
                .transpose()?
                .unwrap_or(100_000);
            let profile = parse_profile(bench)?;
            let trace = TraceGenerator::new(profile, 42).generate(instructions);
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            trace_io::write_trace(file, &trace).map_err(|e| e.to_string())?;
            Ok(format!("wrote {} items to {path}\n", trace.len()))
        }
        Some("info") => {
            let path = args.get(1).ok_or(USAGE)?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let trace = trace_io::read_trace(file).map_err(|e| e.to_string())?;
            let s = TraceSummary::of(&trace);
            let mut out = String::new();
            let _ = writeln!(out, "items        {}", trace.len());
            let _ = writeln!(out, "instructions {}", s.instructions);
            let _ = writeln!(out, "loads        {}", s.loads);
            let _ = writeln!(out, "stores       {}", s.stores);
            let _ = writeln!(out, "store blocks {}", s.store_blocks);
            let _ = writeln!(out, "ppti         {:.1}", s.stores_per_kilo_instr());
            let _ = writeln!(out, "stores/block {:.2}", s.stores_per_block());
            Ok(out)
        }
        Some("run") => {
            let path = args.get(1).ok_or(USAGE)?;
            let scheme = parse_scheme(args.get(2).ok_or(USAGE)?)?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let trace = trace_io::read_trace(file).map_err(|e| e.to_string())?;
            let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 42);
            let r = sys.run_trace(trace);
            Ok(format!(
                "scheme={scheme} cycles={} ipc={:.3} ppti={:.1}\n",
                r.cycles,
                r.ipc(),
                r.ppti()
            ))
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    use secpb_bench::serve::{run_serve, PrivilegeToken, QosClass, ServeConfig, TenantSpec};

    let mut args = args.to_vec();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let shards = take_numeric_flag::<usize>(&mut args, "--shards")?;
    let workers = take_numeric_flag::<usize>(&mut args, "--workers")?;
    let tenant_count = take_numeric_flag::<usize>(&mut args, "--tenants")?;
    let instructions = take_numeric_flag::<u64>(&mut args, "--instructions")?;
    let epoch = take_numeric_flag::<usize>(&mut args, "--epoch")?;
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?;
    let mut file_tenants: Vec<(String, String)> = Vec::new();
    while let Some(spec) = take_path_flag(&mut args, "--trace")? {
        let (name, path) = spec
            .split_once('=')
            .ok_or("--trace takes NAME=PATH (a tenant name and an SPB1 trace file)")?;
        file_tenants.push((name.to_owned(), path.to_owned()));
    }
    if let Some(stray) = args.first() {
        return Err(format!("unknown serve argument `{stray}`\n{USAGE}"));
    }

    let mut cfg = if quick {
        ServeConfig::quick()
    } else {
        // Default shape: 2 shards, 4 synthetic tenants over the SPEC
        // suite with cycling QoS classes, telemetry on.
        let mut cfg = ServeConfig::new(2);
        cfg.telemetry = true;
        let suite = WorkloadProfile::spec_suite();
        let classes = [QosClass::Gold, QosClass::Silver, QosClass::Bronze];
        let token = PrivilegeToken::acquire();
        for i in 0..tenant_count.unwrap_or(4) {
            let profile = suite[i % suite.len()].clone();
            let name = format!("t{i}-{}", profile.name);
            cfg.tenants
                .push(TenantSpec::synthetic(&name, profile, 20_000));
            cfg.set_qos(&name, classes[i % classes.len()], &token)
                .expect("tenant just added");
        }
        cfg
    };
    if let Some(n) = shards {
        cfg.shards = n;
        cfg.workers = n.max(1);
    }
    if let Some(n) = workers {
        cfg.workers = n;
    }
    if let Some(n) = epoch {
        cfg.epoch_len = n;
    }
    if let Some(n) = seed {
        cfg.seed = n;
    }
    if let Some(n) = instructions {
        for t in &mut cfg.tenants {
            t.instructions = n;
        }
    }
    for (name, path) in &file_tenants {
        cfg.tenants.push(TenantSpec::from_file(name, path));
    }

    let out = run_serve(&cfg).map_err(|e| e.to_string())?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "serve shards={} workers={} tenants={} epoch={} scheme={} seed={:#x}",
        cfg.shards,
        cfg.workers,
        cfg.tenants.len(),
        cfg.epoch_len,
        cfg.scheme.name(),
        cfg.seed
    );
    for s in out.shards.iter().filter(|s| !s.tenants.is_empty()) {
        let _ = writeln!(
            text,
            "shard {}  tenants=[{}] epochs={} items={} stores={} persists={} \
             sync_hashes={} snapshots={} digest={}",
            s.shard,
            s.tenants.join(","),
            s.epochs,
            s.items,
            s.stores,
            s.persists,
            s.sync_hashes,
            s.snapshots.len(),
            &s.digest()[..16],
        );
    }
    for t in &out.tenants {
        let _ = writeln!(
            text,
            "tenant {}  shard={} asid={} qos={} quota={} items={} stores={} epochs={}",
            t.name,
            t.shard,
            t.asid,
            t.qos.name(),
            t.quota,
            t.items,
            t.stores,
            t.epochs_used
        );
    }
    let _ = writeln!(
        text,
        "resilience      shed={} replayed={} restored={}",
        out.total_shed(),
        out.total_replayed(),
        out.total_restored()
    );
    let _ = writeln!(text, "stores drained  {}", out.total_stores());
    let _ = writeln!(text, "anomalies       {}", out.total_anomalies());
    let _ = writeln!(text, "qos violations  {}", out.total_qos_violations());
    let _ = writeln!(text, "consistent      {}", out.consistent());

    if out.total_stores() == 0 {
        return Err(format!("serve drained zero stores:\n{text}"));
    }
    if out.total_anomalies() > 0 {
        return Err(format!("serve observed model-invariant anomalies:\n{text}"));
    }
    if out.total_qos_violations() > 0 {
        let mut msg = format!(
            "serve observed {} QoS violation(s):\n",
            out.total_qos_violations()
        );
        for v in out.qos_events() {
            let _ = writeln!(msg, "  {v}");
        }
        msg.push_str(&text);
        return Err(msg);
    }
    if !out.consistent() {
        return Err(format!("serve recovery sweep was inconsistent:\n{text}"));
    }
    Ok(text)
}

fn cmd_soak(args: &[String]) -> Result<String, String> {
    use secpb_bench::soak::{run_soak, SoakConfig};

    let mut args = args.to_vec();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?.unwrap_or(0x50AC);
    if let Some(stray) = args.first() {
        return Err(format!("unknown soak argument `{stray}`\n{USAGE}"));
    }

    let cfg = if quick {
        SoakConfig::quick(seed)
    } else {
        SoakConfig::full(seed)
    };
    let out = run_soak(&cfg).map_err(|e| e.to_string())?;
    let text = format!(
        "soak {} seed={seed:#x}\n{}",
        if quick { "--quick" } else { "full" },
        out.render_text()
    );
    if !out.converged() {
        return Err(format!("soak did not converge:\n{text}"));
    }
    Ok(text)
}

fn cmd_recover_sweep(args: &[String]) -> Result<String, String> {
    use secpb_bench::recovery_sweep::{run_sweep, SweepConfig};

    let mut args = args.to_vec();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let instructions = take_numeric_flag::<u64>(&mut args, "--instructions")?;
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?.unwrap_or(0x5EC9_B0A2);
    let json_path = take_path_flag(&mut args, "--json")?;
    if let Some(stray) = args.first() {
        return Err(format!("unknown recover-sweep argument `{stray}`\n{USAGE}"));
    }

    let mut cfg = if quick {
        SweepConfig::quick(seed)
    } else {
        SweepConfig::new(seed)
    };
    if let Some(n) = instructions {
        cfg.instructions = n;
    }
    let report = run_sweep(&cfg);
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json().to_pretty()).map_err(|e| e.to_string())?;
    }
    let text = report.render_text();
    if report.passed() {
        Ok(text)
    } else {
        Err(format!("recovery sweep failed:\n{text}"))
    }
}

fn cmd_schemes() -> String {
    use secpb_core::policy::PersistencePolicy;

    let step_list = |ew: secpb_core::scheme::EarlyWork, early: bool| -> String {
        let steps = [
            (ew.counter, "counter"),
            (ew.otp, "otp"),
            (ew.bmt, "bmt"),
            (ew.ciphertext, "ct"),
            (ew.mac, "mac"),
        ];
        let picked: Vec<&str> = steps
            .iter()
            .filter(|(on, _)| *on == early)
            .map(|(_, n)| *n)
            .collect();
        if picked.is_empty() {
            "-".to_string()
        } else {
            picked.join(",")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:<24} {:<24} policy",
        "scheme", "secure", "early (at persist)", "late (at drain/sync)"
    );
    for scheme in Scheme::ALL {
        let ew = scheme.early_work();
        let policy = PersistencePolicy::for_scheme(scheme);
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:<24} {:<24} {}",
            scheme.name(),
            if scheme.is_secure() { "yes" } else { "no" },
            step_list(ew, true),
            step_list(ew, false),
            if policy.is_baseline() {
                "root-only/plain"
            } else {
                "custom"
            }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "fronts (select with --front):");
    let _ = writeln!(
        out,
        "  secpb     single-core SecPB pipeline (baseline root-only tree)"
    );
    let _ = writeln!(out, "  eadr      secure-eADR whole-hierarchy drain");
    let _ = writeln!(out, "  mc<N>     N-core directory-coherence SecPB");
    let _ = writeln!(
        out,
        "  triad<N>  Triad-NVM selective persistence: tree levels 0..N durable,\n            \
         recovery folds the rest from the level N-1 frontier"
    );
    let _ = writeln!(
        out,
        "  fastrec   Huang & Hua fast-recovery layout: durable shadow of the BMT\n            \
         root, near-constant recovery validation"
    );
    out
}

fn cmd_list() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchmarks: {}",
        WorkloadProfile::SPEC_NAMES.join(", ")
    );
    let schemes: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
    let _ = writeln!(out, "schemes   : {}", schemes.join(", "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]).unwrap_err(), USAGE);
        assert_eq!(run(&["bogus"]).unwrap_err(), USAGE);
    }

    #[test]
    fn list_enumerates() {
        let out = run(&["list"]).unwrap();
        assert!(out.contains("gamess"));
        assert!(out.contains("cobcm"));
    }

    #[test]
    fn run_produces_metrics() {
        let out = run(&["run", "hmmer", "cobcm", "32", "20000"]).unwrap();
        assert!(out.contains("ipc"));
        assert!(out.contains("ppti"));
    }

    #[test]
    fn run_drives_every_front_through_the_facade() {
        for front in ["secpb", "eadr", "mc2", "triad4", "fastrec"] {
            let out = run(&["run", "hmmer", "cobcm", "32", "20000", "--front", front]).unwrap();
            assert!(out.contains(&format!("front={front}")), "{out}");
            assert!(out.contains("cycles"), "{out}");
        }
    }

    #[test]
    fn crash_recovers_on_every_front() {
        for front in ["secpb", "eadr", "mc2", "triad4", "fastrec"] {
            let out = run(&["crash", "sjeng", "bcm", "20000", "--front", front]).unwrap();
            assert!(out.contains("consistent           true"), "{front}: {out}");
        }
    }

    #[test]
    fn triad_front_rejects_depths_beyond_the_tree() {
        let err = run(&[
            "run", "hmmer", "cobcm", "32", "20000", "--front", "triad200",
        ])
        .unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("depth"), "{err}");
    }

    #[test]
    fn invalid_front_configs_get_friendly_messages() {
        let err = run(&["crash", "sjeng", "sp", "20000", "--front", "mc2"]).unwrap_err();
        assert!(
            err.contains("invalid configuration") && err.contains("persist-buffer scheme"),
            "{err}"
        );
        let err = run(&["run", "hmmer", "cobcm", "--front", "mc0"]).unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        let err = run(&["run", "hmmer", "cobcm", "0"]).unwrap_err();
        assert!(
            err.contains("invalid configuration") && err.contains("at least one entry"),
            "{err}"
        );
        let err = run(&["run", "hmmer", "cobcm", "--front", "warp"]).unwrap_err();
        assert!(err.contains("unknown front"), "{err}");
        let err = run(&["run", "hmmer", "cobcm", "--front"]).unwrap_err();
        assert!(err.contains("--front takes"), "{err}");
    }

    #[test]
    fn run_rejects_unknowns() {
        assert!(run(&["run", "nonesuch", "cobcm"])
            .unwrap_err()
            .contains("unknown benchmark"));
        assert!(run(&["run", "hmmer", "nonesuch"])
            .unwrap_err()
            .contains("unknown scheme"));
    }

    #[test]
    fn run_reports_anomaly_counter() {
        let out = run(&["run", "hmmer", "cobcm", "32", "20000"]).unwrap();
        assert!(out.contains("anomalies    0"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");
    }

    #[test]
    fn watch_quick_streams_health_snapshots() {
        let out = run(&["watch", "gamess", "cobcm", "--quick"]).unwrap();
        assert!(out.contains("\"seq\":1"), "{out}");
        assert!(out.contains("\"drain_latency\""), "{out}");
        assert!(out.contains("anomalies    0"), "{out}");
        assert!(out.contains("consistent   true"), "{out}");
        assert!(out.contains("crashes"), "{out}");
    }

    #[test]
    fn watch_writes_jsonl_and_chrome_trace_files() {
        let dir = std::env::temp_dir().join("secpb_cli_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("health.jsonl").to_string_lossy().into_owned();
        let trace = dir.join("trace.json").to_string_lossy().into_owned();
        let out = run(&[
            "watch",
            "gamess",
            "cobcm",
            "--quick",
            "--out",
            &snap,
            "--trace-out",
            &trace,
        ])
        .unwrap();
        assert!(out.contains(&snap), "{out}");
        let jsonl = std::fs::read_to_string(&snap).unwrap();
        for line in jsonl.lines() {
            let parsed = secpb_sim::json::Json::parse(line).expect("each line parses");
            assert!(parsed.get("occupancy").is_some(), "{line}");
        }
        let doc = std::fs::read_to_string(&trace).unwrap();
        assert!(
            secpb_sim::json::Json::parse(&doc).is_ok(),
            "chrome trace must be valid JSON"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn watch_rejects_bad_flags() {
        assert!(run(&["watch"]).is_err());
        assert!(run(&["watch", "gamess"]).is_err());
        assert!(run(&["watch", "gamess", "cobcm", "--interval"])
            .unwrap_err()
            .contains("--interval takes a number"));
        assert!(run(&["watch", "gamess", "cobcm", "--out"])
            .unwrap_err()
            .contains("--out takes a file path"));
    }

    #[test]
    fn repro_table4_ignores_job_count() {
        let serial = run(&["repro", "table4", "20000", "--jobs", "1"]).unwrap();
        let parallel = run(&["repro", "table4", "20000", "--jobs", "4"]).unwrap();
        for name in ["cobcm", "nogap", "cm"] {
            assert!(serial.contains(name), "{serial}");
        }
        assert!(serial.starts_with("TABLE IV"), "{serial}");
        // Byte-identical output regardless of worker count.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn repro_writes_json_and_rejects_bad_arguments() {
        let dir = std::env::temp_dir().join("secpb_cli_repro_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table6.json").to_string_lossy().into_owned();
        let out = run(&["repro", "table6", "--json", &path]).unwrap();
        assert!(out.starts_with("TABLE VI"), "{out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        let parsed = secpb_sim::json::Json::parse(&doc).expect("repro JSON parses");
        assert!(!parsed.items().is_empty(), "{doc}");
        std::fs::remove_file(&path).ok();

        assert_eq!(run(&["repro"]).unwrap_err(), USAGE);
        assert!(run(&["repro", "fig10"])
            .unwrap_err()
            .contains("unknown artifact"));
        assert!(run(&["repro", "table4", "--jobs"]).is_err());
        assert!(run(&["repro", "table4", "--jobs", "x"]).is_err());
        assert!(run(&["repro", "table4", "notanumber"]).is_err());
        assert!(run(&["repro", "table4", "1", "2"])
            .unwrap_err()
            .contains("unknown repro argument `2`"));
        assert!(run(&["repro", "table4", "--frobnicate"])
            .unwrap_err()
            .contains("unknown repro argument `--frobnicate`"));
        assert!(run(&["repro", "ablations", "--json", &path])
            .unwrap_err()
            .contains("no --json payload"));

        // Flags may precede the budget, and `--jobs 0` runs serially
        // like `--jobs 1`.
        let flags_first = run(&["repro", "table4", "--jobs", "0", "5000"]).unwrap();
        assert!(flags_first.starts_with("TABLE IV"), "{flags_first}");
        assert_eq!(
            flags_first,
            run(&["repro", "table4", "5000", "--jobs", "1"]).unwrap()
        );
    }

    #[test]
    fn crash_reports_consistency() {
        let out = run(&["crash", "sjeng", "bcm", "20000"]).unwrap();
        assert!(out.contains("consistent           true"));
        assert!(out.contains("blocks recovered"));
    }

    #[test]
    fn storm_quick_passes_and_rejects_bad_flags() {
        let out = run(&["storm", "--quick", "--seed", "3"]).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("cobcm/drain-all"), "{out}");
        assert!(run(&["storm", "--seed"]).is_err());
        assert!(run(&["storm", "--brown-out", "2.0"]).is_err());
        assert!(run(&["storm", "--bogus"]).is_err());
    }

    #[test]
    fn storm_quick_brown_out_reports_losses() {
        let out = run(&["storm", "--quick", "--brown-out", "0.25"]).unwrap();
        let lost: u64 = out
            .lines()
            .find(|l| l.starts_with("storm:"))
            .and_then(|l| {
                l.split(',')
                    .find(|p| p.contains("entries lost"))
                    .and_then(|p| p.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0);
        assert!(lost > 0, "brown-out storm should lose entries:\n{out}");
    }

    #[test]
    fn recover_sweep_quick_reports_monotone_curve() {
        let out = run(&["recover-sweep", "--quick"]).unwrap();
        for name in ["fastrec", "triad-full", "nogap", "cobcm"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("monotone"), "{out}");
    }

    #[test]
    fn recover_sweep_writes_json_and_rejects_strays() {
        let dir = std::env::temp_dir().join("secpb_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("curve.json").to_string_lossy().into_owned();
        run(&["recover-sweep", "--quick", "--json", &path]).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let parsed = secpb_sim::json::Json::parse(&doc).expect("sweep JSON parses");
        assert!(parsed.get("points").is_some(), "{doc}");
        std::fs::remove_file(&path).ok();
        assert!(run(&["recover-sweep", "--bogus"])
            .unwrap_err()
            .contains("unknown recover-sweep argument"));
        assert!(run(&["recover-sweep", "--seed"]).is_err());
    }

    #[test]
    fn schemes_table_lists_every_scheme_and_front() {
        let out = run(&["schemes"]).unwrap();
        for scheme in Scheme::ALL {
            assert!(out.contains(scheme.name()), "{out}");
        }
        for token in ["counter", "mac", "triad<N>", "fastrec", "root-only/plain"] {
            assert!(out.contains(token), "{out}");
        }
    }

    #[test]
    fn battery_lists_all_schemes() {
        let out = run(&["battery", "64"]).unwrap();
        for name in ["cobcm", "nogap", "bbb"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn trace_gen_info_run_round_trip() {
        let dir = std::env::temp_dir().join("secpb_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spb").to_string_lossy().into_owned();
        let gen = run(&["trace", "gen", "milc", &path, "10000"]).unwrap();
        assert!(gen.contains("wrote"));
        let info = run(&["trace", "info", &path]).unwrap();
        assert!(info.contains("stores"));
        let replay = run(&["trace", "run", &path, "cobcm"]).unwrap();
        assert!(replay.contains("cycles="));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_quick_drains_and_recovers() {
        let out = run(&["serve", "--quick"]).unwrap();
        assert!(out.contains("stores drained"), "{out}");
        assert!(out.contains("anomalies       0"), "{out}");
        assert!(out.contains("qos violations  0"), "{out}");
        assert!(out.contains("consistent      true"), "{out}");
        assert!(out.contains("digest="), "{out}");
        // Telemetry is on in quick mode: shards stream snapshots.
        assert!(!out.contains("snapshots=0"), "{out}");
    }

    #[test]
    fn serve_is_deterministic_across_worker_counts() {
        // Everything but the `serve shards=… workers=…` header.
        let body = |workers: &str| {
            let out = run(&["serve", "--quick", "--workers", workers]).unwrap();
            let (header, body) = out.split_once('\n').unwrap();
            assert!(header.starts_with("serve shards="), "{header}");
            body.to_owned()
        };
        assert_eq!(body("1"), body("4"));
    }

    #[test]
    fn serve_replays_trace_file_tenants() {
        let dir = std::env::temp_dir().join("secpb_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.spb").to_string_lossy().into_owned();
        run(&["trace", "gen", "mcf", &path, "8000"]).unwrap();
        let out = run(&["serve", "--quick", "--trace", &format!("ext={path}")]).unwrap();
        assert!(out.contains("tenant ext"), "{out}");
        assert!(out.contains("consistent      true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_reports_malformed_trace_with_offset() {
        let dir = std::env::temp_dir().join("secpb_cli_serve_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.spb").to_string_lossy().into_owned();
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = run(&["serve", "--quick", "--trace", &format!("bad={path}")]).unwrap_err();
        assert!(err.contains("byte offset"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run(&["serve", "--shards"])
            .unwrap_err()
            .contains("--shards takes a number"));
        assert!(run(&["serve", "--trace", "noequals"])
            .unwrap_err()
            .contains("NAME=PATH"));
        assert!(run(&["serve", "stray"])
            .unwrap_err()
            .contains("unknown serve argument"));
    }

    #[test]
    fn trace_subcommand_usage() {
        assert_eq!(run(&["trace"]).unwrap_err(), USAGE);
        assert!(run(&["trace", "info", "/nonexistent/file"]).is_err());
    }

    #[test]
    fn soak_quick_converges() {
        let out = run(&["soak", "--quick", "--seed", "9"]).unwrap();
        assert!(out.contains("soak crashes="), "{out}");
        assert!(out.contains("match crash-free reference"), "{out}");
        assert!(out.contains("byte-identical"), "{out}");
        assert!(out.contains("converged         true"), "{out}");
    }

    #[test]
    fn soak_rejects_bad_flags() {
        assert!(run(&["soak", "stray"])
            .unwrap_err()
            .contains("unknown soak argument"));
        assert!(run(&["soak", "--seed"])
            .unwrap_err()
            .contains("--seed takes a number"));
    }
}
