//! A minimal, dependency-free micro-benchmark harness.
//!
//! The `benches/*.rs` targets are `harness = false` binaries built on
//! this module: each calls [`bench()`] (or [`bench_once`] for heavyweight
//! experiment paths) and prints one aligned line per benchmark.  The
//! harness auto-calibrates the batch size so cheap operations are timed
//! over millions of iterations while expensive ones run just a few
//! times, and reports the *best* sample to suppress scheduler noise.
//!
//! This intentionally trades criterion's statistics for zero
//! dependencies: good enough to spot order-of-magnitude regressions and
//! to compare alternatives (e.g. string-keyed vs typed-handle counters
//! in `stats_micro`), not for sub-percent claims.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(25);
/// Timed samples per benchmark; the best is reported.
const SAMPLES: u32 = 5;

/// Formats a nanosecond figure with a unit that keeps 3-5 digits.
fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Times `f` adaptively and prints one report line.
///
/// Returns the best observed per-iteration cost in nanoseconds so
/// callers can compare benchmarks programmatically (see `stats_micro`).
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    // Warm up while estimating the per-iteration cost: grow the batch
    // until one batch takes ~10ms (or the op is clearly expensive).
    let mut iters = 1u64;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(10) || iters >= 1 << 24 {
            break (elapsed.as_nanos() as f64 / iters as f64).max(0.01);
        }
        iters *= 8;
    };

    let batch = ((SAMPLE_TARGET.as_nanos() as f64 / per_iter_ns).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    println!(
        "{name:<44} {:>12}/iter   ({batch} iters/sample)",
        human_ns(best)
    );
    best
}

/// Times `f` over a fixed number of single-iteration samples and prints
/// one report line — for experiment paths that take seconds per call,
/// where [`bench()`]'s calibration loop would be wasteful.
pub fn bench_once<T>(name: &str, samples: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    println!(
        "{name:<44} {:>12}/iter   ({samples} samples)",
        human_ns(best)
    );
    best
}

/// Runs `f` for a fixed number of samples, each returning the duration
/// it measured itself, and prints one report line with the best and the
/// median — for operations that need untimed setup before every call.
pub fn bench_measured(name: &str, samples: u32, mut f: impl FnMut() -> Duration) -> f64 {
    let mut ns: Vec<f64> = (0..samples.max(1)).map(|_| f().as_nanos() as f64).collect();
    ns.sort_by(f64::total_cmp);
    let best = ns[0];
    println!(
        "{name:<44} {:>12}/iter   ({} samples, median {})",
        human_ns(best),
        ns.len(),
        human_ns(ns[ns.len() / 2])
    );
    best
}
