//! The eager↔lazy↔selective↔fast-recovery curve: write amplification
//! vs recovery latency, swept over persistence policies on a fixed
//! workload.
//!
//! Each point runs the same trace under one policy instantiation,
//! crashes it (power loss, full drain), recovers, and records:
//!
//! * **write amplification** — durable metadata writes per leaf persist
//!   from [`PolicyState`](secpb_core::policy::PolicyState),
//! * **crash-flush cycles** — the sec-sync gap the battery must cover,
//! * **recovery cost** — the exact post-crash sweep accounting from
//!   [`RecoveryCost`],
//! * **total recovery latency** — flush + sweep, the figure of merit
//!   recovery-time work (Anubis, Triad-NVM, Huang & Hua) trades
//!   write traffic against.
//!
//! The curve is monotone for a fixed workload: `fastrec` ≤
//! `triad(full)` ≤ the eager-ish all-early baseline ≤ the fully lazy
//! COBCM baseline — [`SweepReport::passed`] pins the ordering so the
//! trade-off cannot silently invert.

use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::policy::RecoveryCost;
use secpb_core::scheme::Scheme;
use secpb_sim::config::SystemConfig;
use secpb_sim::json::Json;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::storm::{build_front, StormFront};

/// Sweep parameters: one workload, one instruction budget, one seed.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Measurement-trace instruction budget per point.
    pub instructions: u64,
    /// Master seed for trace generation and keys (shared across points
    /// so every policy sees the identical store stream).
    pub seed: u64,
    /// The fixed workload every point replays.
    pub workload: String,
}

impl SweepConfig {
    /// The full sweep: the Table IV `milc` profile at a grid-scale
    /// budget.
    pub fn new(seed: u64) -> Self {
        SweepConfig {
            instructions: 200_000,
            seed,
            workload: "milc".to_string(),
        }
    }

    /// A seconds-scale smoke sweep for CI.
    pub fn quick(seed: u64) -> Self {
        SweepConfig {
            instructions: 20_000,
            ..SweepConfig::new(seed)
        }
    }
}

/// The swept policy points as (label, front, scheme), ordered from most
/// write-amplified / fastest-recovering to baseline-lazy.  The first
/// four are the pinned monotone chain; the middle Triad depths chart the
/// knee of the curve.
pub fn sweep_fronts(bmt_levels: u32) -> Vec<(&'static str, StormFront, Scheme)> {
    let full = bmt_levels.min(u8::MAX as u32) as u8;
    vec![
        ("fastrec", StormFront::FastRec, Scheme::NoGap),
        ("triad-full", StormFront::Triad(full), Scheme::NoGap),
        ("nogap", StormFront::SecPb, Scheme::NoGap),
        ("cobcm", StormFront::SecPb, Scheme::Cobcm),
        ("triad4", StormFront::Triad(4), Scheme::NoGap),
        ("triad2", StormFront::Triad(2), Scheme::NoGap),
        ("m", StormFront::SecPb, Scheme::M),
        ("cm", StormFront::SecPb, Scheme::Cm),
    ]
}

/// One measured point of the curve.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Point label.
    pub name: String,
    /// Scheme the point ran.
    pub scheme: Scheme,
    /// Durable metadata writes per leaf persist.
    pub write_amplification: f64,
    /// Cycles from crash detection to sec-sync closure (battery work).
    pub crash_flush_cycles: u64,
    /// The policy's exact post-crash sweep accounting.
    pub cost: RecoveryCost,
    /// `crash_flush_cycles + cost.cycles`.
    pub total_recovery_cycles: u64,
    /// Whether post-crash recovery verified consistent.
    pub consistent: bool,
    /// `None` on success, the reason otherwise.
    pub failure: Option<String>,
}

impl SweepPoint {
    fn failed(name: &str, scheme: Scheme, why: String) -> Self {
        SweepPoint {
            name: name.to_string(),
            scheme,
            write_amplification: 0.0,
            crash_flush_cycles: 0,
            cost: RecoveryCost::default(),
            total_recovery_cycles: 0,
            consistent: false,
            failure: Some(why),
        }
    }

    /// JSON object for machine consumption.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("point", self.name.as_str())
            .field("scheme", self.scheme.name())
            .field("write_amplification", self.write_amplification)
            .field("crash_flush_cycles", self.crash_flush_cycles)
            .field("counter_pages_read", self.cost.counter_pages_read)
            .field("tree_nodes_read", self.cost.tree_nodes_read)
            .field("hashes_folded", self.cost.hashes_folded)
            .field("blocks_swept", self.cost.blocks_swept)
            .field("recovery_cycles", self.cost.cycles)
            .field("total_recovery_cycles", self.total_recovery_cycles)
            .field("consistent", self.consistent)
            .field(
                "failure",
                match &self.failure {
                    Some(why) => Json::from(why.as_str()),
                    None => Json::Null,
                },
            )
    }
}

/// The whole curve plus the pinned ordering verdict.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The workload every point replayed.
    pub workload: String,
    /// Instructions per point.
    pub instructions: u64,
    /// Measured points in [`sweep_fronts`] order.
    pub points: Vec<SweepPoint>,
    /// Ordering violations (empty when the curve is monotone).
    pub violations: Vec<String>,
}

impl SweepReport {
    /// Every point consistent and the fastrec ≤ triad(full) ≤ eager-ish
    /// ≤ lazy ordering intact.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.points.iter().all(|p| p.failure.is_none())
    }

    /// JSON object for machine consumption (`secpb recover-sweep
    /// --json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("workload", self.workload.as_str())
            .field("instructions", self.instructions)
            .field("passed", self.passed())
            .field(
                "violations",
                Json::arr(self.violations.iter().map(String::as_str)),
            )
            .field(
                "points",
                Json::Arr(self.points.iter().map(SweepPoint::to_json).collect()),
            )
    }

    /// Human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "recovery sweep: {} @ {} instructions\n{:<12} {:>8} {:>14} {:>14} {:>14}  ok\n",
            self.workload,
            self.instructions,
            "point",
            "write-amp",
            "flush cycles",
            "sweep cycles",
            "total cycles"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<12} {:>8.3} {:>14} {:>14} {:>14}  {}\n",
                p.name,
                p.write_amplification,
                p.crash_flush_cycles,
                p.cost.cycles,
                p.total_recovery_cycles,
                match &p.failure {
                    None => "yes".to_string(),
                    Some(why) => format!("FAILED: {why}"),
                }
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("ORDERING VIOLATION: {v}\n"));
        }
        if self.passed() {
            out.push_str("curve monotone: fastrec <= triad-full <= nogap <= cobcm\n");
        }
        out
    }
}

fn run_point(cfg: &SweepConfig, name: &str, front: StormFront, scheme: Scheme) -> SweepPoint {
    let Some(profile) = WorkloadProfile::named(&cfg.workload) else {
        return SweepPoint::failed(name, scheme, format!("unknown workload `{}`", cfg.workload));
    };
    let mut sys = match build_front(front, SystemConfig::default(), scheme, cfg.seed) {
        Ok(s) => s,
        Err(why) => return SweepPoint::failed(name, scheme, why),
    };
    // Every point replays the identical store stream: same profile, same
    // generator seed — the policy is the only axis that moves.
    let mut generator = TraceGenerator::new(profile, cfg.seed);
    for item in generator.stream(cfg.instructions) {
        sys.step(item);
    }
    let crash = match sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll) {
        Ok(c) => c,
        Err(e) => return SweepPoint::failed(name, scheme, format!("crash drain failed: {e}")),
    };
    let rec = sys.recover();
    let cost = sys.recovery_cost();
    let flush = crash.secsync_complete_at.raw() - crash.at.raw();
    SweepPoint {
        name: name.to_string(),
        scheme,
        write_amplification: sys.domain().policy_state().write_amplification(),
        crash_flush_cycles: flush,
        cost,
        total_recovery_cycles: flush + cost.cycles,
        consistent: rec.is_consistent(),
        failure: if rec.is_consistent() {
            None
        } else {
            Some(format!(
                "recovery inconsistent: root_ok={}, mac_failures={}",
                rec.root_ok,
                rec.mac_failures.len()
            ))
        },
    }
}

/// Runs the sweep and checks the monotone ordering of the pinned chain
/// (the first four points of [`sweep_fronts`]): total recovery latency
/// must not decrease from `fastrec` through `triad-full` and the
/// all-early baseline to lazy COBCM.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let bmt_levels = SystemConfig::default().security.bmt_levels;
    let points: Vec<SweepPoint> = sweep_fronts(bmt_levels)
        .into_iter()
        .map(|(name, front, scheme)| run_point(cfg, name, front, scheme))
        .collect();
    let mut violations = Vec::new();
    let chain = ["fastrec", "triad-full", "nogap", "cobcm"];
    for pair in chain.windows(2) {
        let find = |n: &str| points.iter().find(|p| p.name == n);
        if let (Some(a), Some(b)) = (find(pair[0]), find(pair[1])) {
            if a.failure.is_none()
                && b.failure.is_none()
                && a.total_recovery_cycles > b.total_recovery_cycles
            {
                violations.push(format!(
                    "{} ({} cycles) should recover no slower than {} ({} cycles)",
                    pair[1], b.total_recovery_cycles, pair[0], a.total_recovery_cycles
                ));
            }
        }
    }
    SweepReport {
        workload: cfg.workload.clone(),
        instructions: cfg.instructions,
        points,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_monotone_and_consistent() {
        let report = run_sweep(&SweepConfig::quick(0x5EC9_B0A2));
        assert!(report.passed(), "{}", report.render_text());
        assert_eq!(report.points.len(), 8);
        // The trade-off is real: fastrec buys its recovery latency with
        // write amplification the baselines do not pay.
        let by_name = |n: &str| report.points.iter().find(|p| p.name == n).unwrap();
        assert!(by_name("fastrec").write_amplification > 1.0);
        assert!(by_name("triad-full").write_amplification > by_name("triad2").write_amplification);
        assert_eq!(by_name("nogap").write_amplification, 1.0);
        assert_eq!(by_name("cobcm").write_amplification, 1.0);
        // And recovery latency orders the other way round.
        assert!(
            by_name("fastrec").cost.cycles <= by_name("triad-full").cost.cycles
                && by_name("triad-full").cost.cycles <= by_name("nogap").cost.cycles
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_sweep(&SweepConfig::quick(11)).to_json().to_pretty();
        let b = run_sweep(&SweepConfig::quick(11)).to_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_every_point() {
        let report = run_sweep(&SweepConfig::quick(3));
        let text = report.render_text();
        for p in &report.points {
            assert!(text.contains(&p.name), "missing {} in\n{text}", p.name);
        }
        let json = report.to_json().to_pretty();
        assert!(json.contains("recovery_cycles"));
    }
}
