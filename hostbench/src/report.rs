//! The result line, metric naming, provenance and process memory.

use std::fmt::Write as _;

use crate::summary;

/// End-to-end metrics `(name, unit)`: every untraced run prints all of
/// them, in this order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("recover_s", "s"),
    ("serve_stores_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints all of them,
/// in this order.  A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.gen_ns_per_item", "ns"),
    ("workloads.parse_ns_per_item", "ns"),
    ("mem.load_ns", "ns"),
    ("mem.loads", "count"),
    ("mem.memory_accesses", "count"),
    ("secpb.store_ns", "ns"),
    ("secpb.store_ns_p50", "ns"),
    ("secpb.store_ns_p99", "ns"),
    ("secpb.persists", "count"),
    ("secpb.allocations", "count"),
    ("secpb.drains", "count"),
    ("crypto.memo_hit_ratio", "ratio"),
    ("crypto.fold_hashes", "count"),
    ("crypto.bmt_node_hashes", "count"),
    ("crypto.otps", "count"),
    ("crypto.macs", "count"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.hmac64_ns", "ns"),
    ("crypto.bmt_update_ns", "ns"),
    ("recovery.crash_ms", "ms"),
    ("recovery.recover_ms", "ms"),
    ("recovery.us_per_block", "us"),
    ("recovery.blocks", "count"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.ns_per_kb", "ns/KiB"),
    ("serve.step_ms", "ms"),
    ("serve.sync_ms", "ms"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.epochs", "count"),
    ("serve.restored", "count"),
    ("serve.replayed", "count"),
    ("serve.sync_hashes", "count"),
    ("pool.stolen_frac", "ratio"),
    ("pool.backpressure_waits", "count"),
    ("pool.max_queue_depth", "count"),
    ("telemetry.dropped", "count"),
    ("trace.traced_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.residual_ms", "ms"),
];

/// Lays `values` out in `schema` order with the schema's units.  Names
/// the schema lacks are a bug; schema names without a value read
/// `missing` (an error for `None`).
///
/// # Errors
///
/// Names the offending metric.
pub fn in_schema(
    schema: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
    missing: Option<f64>,
) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !schema.iter().any(|(s, _)| s == n))
    {
        return Err(format!("metric `{name}` is not in the benchmark's schema"));
    }
    schema
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .or(missing)
                .map(|v| Metric::new(name, unit, v))
                .ok_or_else(|| format!("metric `{name}` was not measured"))
        })
        .collect()
}

/// What a sampled end-to-end metric measures, which decides whether the
/// host-speed calibration applies to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host seconds, lower is better.
    Time,
    /// Work per host second, higher is better.
    Rate,
    /// Memory; not a time, so never calibrated.
    Size,
}

/// One sample of an end-to-end metric: the value as measured, and the
/// host's slowdown while it was measured
/// ([`Calibration::after_unit`](crate::host::Calibration::after_unit)).
pub type Sample = (f64, f64);

/// Reduces each metric's samples to the median of their calibrated
/// values: times divided by their slowdown, rates multiplied by it, sizes
/// as measured.  First prints one JSON line with every metric's sample
/// count, calibrated median and quartiles, uncalibrated median and raw
/// samples, so the run's own spread is on record.
pub fn summarize(sampled: &[(&'static str, Kind, Vec<Sample>)]) -> Vec<(&'static str, f64)> {
    let mut line = String::from("{\"samples\": {");
    let mut values = Vec::with_capacity(sampled.len());
    for (i, (name, kind, samples)) in sampled.iter().enumerate() {
        let raw: Vec<f64> = samples.iter().map(|&(v, _)| v).collect();
        let calibrated: Vec<f64> = samples
            .iter()
            .map(|&(v, slowdown)| match kind {
                Kind::Time => v / slowdown,
                Kind::Rate => v * slowdown,
                Kind::Size => v,
            })
            .collect();
        let value = summary::median(&calibrated);
        let [q1, _, q3] = summary::quartiles(&calibrated);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"n\": {}, \"median\": {value}, \"q1\": {q1}, \"q3\": {q3}, \"raw_median\": {}, \"raw\": {raw:?}}}",
            samples.len(),
            summary::median(&raw)
        )
        .expect("writing to a String cannot fail");
        values.push((*name, value));
    }
    line.push_str("}}");
    println!("{line}");
    values
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// What one workload run produced: operations attempted and failed (an
/// operation is one grid cell or one serve shard) plus its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation; `failure` says what went wrong, if anything.
    pub fn check(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!("hostbench: {what} failed: {why}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The single-line JSON result.  Values print with every digit
    /// (Rust's shortest round-trip form).
    ///
    /// # Errors
    ///
    /// Names a metric whose name breaks [`valid_name`] or whose value is
    /// not finite.
    pub fn to_json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(m.name) {
                return Err(format!("invalid metric name `{}`", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The metric-name rule: starts with a letter or digit, at most 64
/// characters, each a letter, digit, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident memory of this process in MiB: `VmHWM` less the
/// file-backed pages resident now (`RssFile`, mostly the executable).
/// How much of the executable the kernel maps in depends on the page
/// cache, which moved `VmHWM` alone by 6 MiB between identical runs.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks either line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no {key} line in /proc/self/status"))
    };
    Ok((kib("VmHWM:")? - kib("RssFile:")?) / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_rule() {
        for ok in ["setup_s", "secpb.store_ns_p99", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn json_line_shape_and_rejections() {
        let mut out = Outcome::default();
        out.check("op", None);
        out.metrics.push(Metric::new("latency_ms", "ms", 1.2034));
        out.metrics.push(Metric::new("n", "count", 3.0));
        assert_eq!(
            out.to_json_line().unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        out.check("op", Some("broken".into()));
        assert!(!out.correct());
        out.metrics.push(Metric::new("bad name", "s", 1.0));
        assert!(out.to_json_line().is_err());
        out.metrics.pop();
        out.metrics.push(Metric::new("nan", "s", f64::NAN));
        assert!(out.to_json_line().is_err());
    }

    #[test]
    fn summarize_takes_medians_of_calibrated_samples() {
        let out = summarize(&[
            ("t", Kind::Time, vec![(9.0, 1.0), (4.0, 2.0), (1.0, 1.0)]),
            ("r", Kind::Rate, vec![(4.0, 2.0)]),
            ("m", Kind::Size, vec![(4.0, 2.0)]),
        ]);
        assert_eq!(out, vec![("t", 2.0), ("r", 8.0), ("m", 4.0)]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
