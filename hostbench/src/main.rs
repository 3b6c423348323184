//! Host-time benchmark of the SecPB simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <grid_stores|grid_loads|serve_faults> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each invocation runs one workload in its own process.  Inputs are
//! generated from `--seed` (default: the experiments' seed, for which the
//! simulated outputs are pinned).  With `--trace 0` it prints the
//! end-to-end metrics, with `--trace 1` the per-layer ones; see
//! `README.md` next to this package.  The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.  Exits 1
//! when any operation fails its checks, 2 on a usage error.

mod grid;
mod host;
mod probe;
mod report;
mod serve;
mod summary;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use secpb_bench::experiments::SEED;
use secpb_crypto::CryptoBackend;

const USAGE: &str = "usage: secpb-hostbench --workload <grid_stores|grid_loads|serve_faults> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Fixed simulated work per operation.  Host time scales with these, so
/// they never depend on `--seconds`: that only sets how many times the
/// work repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Measured-region instructions per grid cell (warm-up follows the
    /// experiments' rule, `warmup_for`).
    pub grid_instructions: u64,
    /// Instructions per serve tenant.
    pub tenant_instructions: u64,
    /// The serve crash plan kills a shard every this many stores.
    pub crash_every_stores: u64,
}

impl Budget {
    pub const STANDARD: Budget = Budget {
        grid_instructions: 1_000_000,
        tenant_instructions: 1_000_000,
        crash_every_stores: 5_000,
    };
}

/// Everything a workload run needs to know.
pub struct RunCtx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub budget: Budget,
    /// Whether outputs are compared with the pinned digests (default seed
    /// at the standard budget).
    pub pinned: bool,
    /// Where trace files and span logs go.
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["grid_stores", "grid_loads", "serve_faults"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload in this process.
fn run(ctx: &RunCtx, trace: bool) -> Result<report::Outcome, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
    match ctx.workload {
        "grid_stores" => grid::run(&grid::STORES, ctx, trace),
        "grid_loads" => grid::run(&grid::LOADS, ctx, trace),
        "serve_faults" => serve::run(ctx, trace),
        other => unreachable!("workload `{other}` passed argument parsing"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget::STANDARD;
    let ctx = RunCtx {
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        budget,
        pinned: args.seed == SEED,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"crypto_backend\": \"{}\", \"simd_hash\": {}, \"nproc\": {nproc}, \
         \"grid_instructions\": {}, \"tenant_instructions\": {}, \"crash_every_stores\": {}}}}}",
        ctx.workload,
        ctx.seed,
        u8::from(args.trace),
        args.seconds,
        CryptoBackend::auto().name(),
        CryptoBackend::simd_hash_available(),
        budget.grid_instructions,
        budget.tenant_instructions,
        budget.crash_every_stores,
    );
    let line = run(&ctx, args.trace).and_then(|out| Ok((out.to_json_line()?, out.correct())));
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Budget = Budget {
        grid_instructions: 20_000,
        tenant_instructions: 40_000,
        crash_every_stores: 400,
    };

    fn tiny(workload: &'static str) -> RunCtx {
        RunCtx {
            workload,
            seed: 7,
            seconds: Duration::ZERO,
            budget: TINY,
            pinned: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload grid_loads --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("grid_loads", 3, 12, true)
        );
        let a = args("--workload serve_faults").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (SEED, 10, false));
        for bad in [
            "",
            "--workload nope",
            "--workload grid_loads --trace 2",
            "--workload grid_loads --seed",
            "--workload grid_loads --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// Every workload, untraced and traced, at a tiny budget: zero failed
    /// operations and the full metric schema.
    #[test]
    fn tiny_runs_fail_nothing() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = run(&tiny(workload), trace).unwrap();
                assert!(out.attempted > 0, "{workload} trace={trace}");
                assert_eq!(out.failed, 0, "{workload} trace={trace}");
                let schema: &[(&str, &str)] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                assert_eq!(out.metrics.len(), schema.len());
                out.to_json_line().unwrap();
                if !trace {
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{workload}");
                }
            }
        }
    }
}
