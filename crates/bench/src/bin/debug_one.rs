//! Developer tool: detailed counters, cycle breakdown, and span phases
//! for one benchmark across every scheme (including the bbb/SP
//! baselines), with optional Chrome-trace and JSON stats export.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p secpb-bench --bin debug_one -- \
//!     [bench] [instructions] [--trace-out trace.json] [--stats-json stats.json]
//! ```
//!
//! `--trace-out` streams the measured region's spans into a Chrome
//! trace-event document (load it at `chrome://tracing` or in Perfetto);
//! one trace process per scheme, one thread per span phase, and the
//! telemetry ring's losses in `otherData.dropped_spans`.  `--stats-json`
//! writes every scheme's cycles, cycle breakdown, counters, and
//! histograms as one JSON document.

use std::fs::File;
use std::io::BufWriter;

use secpb_bench::experiments::{run_benchmark_instrumented, run_benchmark_traced};
use secpb_bench::report::render_table;
use secpb_core::scheme::Scheme;
use secpb_core::tree::TreeKind;
use secpb_sim::config::SystemConfig;
use secpb_sim::json::Json;
use secpb_sim::telemetry::ChromeTraceStream;
use secpb_sim::tracer::Phase;
use secpb_workloads::WorkloadProfile;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a path"))
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .take(2)
        .collect();
    let name = positional
        .first()
        .map_or("povray", |s| s.as_str())
        .to_owned();
    let instructions: u64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let trace_out = flag_value(&args, "--trace-out");
    let stats_json = flag_value(&args, "--stats-json");
    let profile = WorkloadProfile::named(&name).expect("known benchmark");

    let mut trace = trace_out.as_ref().map(|path| {
        let file = File::create(path).expect("create trace");
        ChromeTraceStream::new(BufWriter::new(file)).expect("write trace")
    });
    let mut dropped = 0;
    let mut scheme_dumps = Vec::new();
    for (pid, scheme) in Scheme::ALL.into_iter().enumerate() {
        let (cfg, tree) = (SystemConfig::default(), TreeKind::Monolithic);
        let (r, sys) = match trace.as_mut() {
            Some(stream) => {
                let pid = pid as u32 + 1;
                let (r, sys, lost) =
                    run_benchmark_traced(&profile, scheme, cfg, tree, instructions, stream, pid)
                        .expect("write trace");
                dropped += lost;
                (r, sys)
            }
            None => run_benchmark_instrumented(&profile, scheme, cfg, tree, instructions),
        };
        println!(
            "{:>6}: cycles={:>9} ipc={:.3} ppti={:.1} nwpe={:.1} allocs={} macs={} full_stall={} sb_stall={} ctr_miss={}",
            scheme.name(),
            r.cycles,
            r.ipc(),
            r.ppti(),
            r.nwpe(),
            r.stats.get("secpb.allocations"),
            r.stats.get("crypto.macs"),
            r.stats.get("secpb.full_stall_cycles"),
            r.stats.get("core.sb_stall_cycles"),
            r.stats.get("metadata.counter_misses"),
        );

        // Cycle breakdown: every measured cycle attributed to one bucket.
        let rows: Vec<Vec<String>> = r
            .breakdown
            .entries()
            .iter()
            .map(|(cat, v)| {
                vec![
                    (*cat).to_owned(),
                    v.to_string(),
                    format!("{:.1}%", 100.0 * *v as f64 / r.cycles.max(1) as f64),
                ]
            })
            .collect();
        println!("{}", render_table(&["category", "cycles", "share"], &rows));

        // Span phases (overlapping work, so shares don't sum to 100%).
        let tracer = sys.tracer();
        let rows: Vec<Vec<String>> = Phase::ALL
            .into_iter()
            .filter(|&p| tracer.count(p) > 0)
            .map(|p| {
                vec![
                    p.name().to_owned(),
                    tracer.count(p).to_string(),
                    tracer.cycles(p).to_string(),
                ]
            })
            .collect();
        if !rows.is_empty() {
            println!("{}", render_table(&["phase", "spans", "cycles"], &rows));
        }
        if stats_json.is_some() {
            scheme_dumps.push(r.to_json());
        }
    }

    if let (Some(mut stream), Some(path)) = (trace, trace_out) {
        stream.finish(dropped).expect("write trace");
        eprintln!("wrote {path}");
    }
    if let Some(path) = stats_json {
        let doc = Json::obj()
            .field("benchmark", name.as_str())
            .field("instructions", instructions)
            .field("schemes", Json::Arr(scheme_dumps));
        std::fs::write(&path, doc.to_pretty()).expect("write stats");
        eprintln!("wrote {path}");
    }
}
