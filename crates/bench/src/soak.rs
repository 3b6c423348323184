//! Long-horizon soak storms over the fault-tolerant serve plane.
//!
//! A soak run drives the sharded multi-tenant service through a
//! seed-driven schedule of injected mid-epoch shard crashes and
//! brown-outs, then proves **zero silent corruption** two independent
//! ways:
//!
//! 1. **Serve-plane equivalence** — the faulted run's per-shard digests
//!    ([`ShardOutcome::digest`]) must be byte-identical to an
//!    uninterrupted reference run of the same configuration with
//!    crashes disabled (brown-outs stay on in both: shedding is
//!    deterministic and crash-invariant, which the soak also asserts
//!    via shed-count equality).
//! 2. **Restart-storm equivalence** — a single [`SecureSystem`] is run
//!    epoch-by-epoch under a seeded schedule of checkpoints and full
//!    process restarts (fresh system, [`SecureSystem::restore_bytes`],
//!    then journal replay); its final checkpoint bytes must equal a
//!    straight-through run's, byte for byte.
//!
//! The run is also coupled to the [`StartGap`] wear model: every store
//! the faulted service replayed becomes one wear-leveled line write, so
//! a soak reports how much physical movement the storm's write volume
//! implies.
//!
//! [`ShardOutcome::digest`]: crate::serve::ShardOutcome::digest

use std::fmt::Write as _;

use secpb_core::facade::PersistSystem;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_energy::drain::secpb_drain_energy;
use secpb_mem::wear::StartGap;
use secpb_sim::config::SystemConfig;
use secpb_sim::rng::Rng;
use secpb_sim::trace::TraceItem;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::serve::{
    run_serve, PrivilegeToken, QosClass, ServeConfig, ServeError, ServeFaultPlan, TenantSpec,
};
use crate::storm::energy_scheme;

/// Soak configuration: a serve shape plus the fault and restart
/// schedules layered on top.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The service under storm — including its
    /// [`ServeConfig::faults`] plan and checkpoint cadence.
    pub serve: ServeConfig,
    /// Epochs of the single-system restart storm (phase 2).
    pub restart_epochs: usize,
    /// Items per epoch in the restart storm.
    pub restart_epoch_len: usize,
    /// Master seed for the restart/wear schedules (the serve fault plan
    /// carries its own seed).
    pub seed: u64,
    /// The run fails unless at least this many shard crashes actually
    /// fired — a soak that never faults proves nothing.
    pub min_crashes: u64,
    /// Wear-model region size in lines.
    pub wear_lines: u64,
    /// Start-Gap period: one gap move per `psi` writes.
    pub wear_psi: u32,
}

impl SoakConfig {
    /// The storm-shaped service both presets share: `tenants` synthetic
    /// tenants with cycling QoS classes over the SPEC suite, crashes
    /// every `crash_every` stores per shard, and every third epoch
    /// browned out to a budget that sheds bronze (but not silver).
    fn serve_base(seed: u64, tenants: usize, instructions: u64, crash_every: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(2);
        cfg.epoch_len = 256;
        cfg.telemetry = true;
        cfg.checkpoint_every = 2;
        cfg.seed = seed;
        let suite = WorkloadProfile::spec_suite();
        let classes = [QosClass::Gold, QosClass::Silver, QosClass::Bronze];
        let token = PrivilegeToken::acquire();
        for i in 0..tenants {
            let profile = suite[i % suite.len()].clone();
            let name = format!("s{i}-{}", profile.name);
            cfg.tenants
                .push(TenantSpec::synthetic(&name, profile, instructions));
            cfg.set_qos(&name, classes[i % classes.len()], &token)
                .expect("tenant just added");
        }
        // A budget funding just over half a full drain: bronze sheds,
        // gold and silver keep their slots.
        let budget = 0.6 * secpb_drain_energy(energy_scheme(cfg.scheme), cfg.sys_cfg.secpb.entries);
        cfg.faults = ServeFaultPlan::storm(seed, crash_every, 3, budget);
        cfg
    }

    /// The CI smoke shape: small tenants, a handful of crashes, a short
    /// restart storm.  Finishes in seconds.
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            serve: SoakConfig::serve_base(seed, 4, 6_000, 40),
            restart_epochs: 6,
            restart_epoch_len: 400,
            seed,
            min_crashes: 4,
            wear_lines: 1 << 10,
            wear_psi: 64,
        }
    }

    /// The long-horizon shape: six fat tenants and a crash schedule
    /// dense enough that at least 100 mid-epoch shard crashes fire.
    pub fn full(seed: u64) -> Self {
        SoakConfig {
            serve: SoakConfig::serve_base(seed, 6, 150_000, 64),
            restart_epochs: 24,
            restart_epoch_len: 1_200,
            seed,
            min_crashes: 100,
            wear_lines: 1 << 14,
            wear_psi: 128,
        }
    }
}

/// Everything one soak run measured and verified.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Mid-epoch shard crashes injected and recovered.  Each one rewinds
    /// its shard once, so this equals [`Self::restores`].
    pub crashes: u64,
    /// Shard restores from epoch checkpoints.
    pub restores: u64,
    /// Tenant chunks replayed after those restores.
    pub replayed: u64,
    /// Epoch-parts deferred by brown-outs (faulted run).
    pub shed: u64,
    /// Whether every populated shard's digest matched the uninterrupted
    /// reference run.
    pub digests_match: bool,
    /// Whether the faulted run shed exactly as much as the reference
    /// (shedding must be crash-invariant).
    pub shed_match: bool,
    /// Model-invariant anomalies across both runs (must be 0).
    pub anomalies: u64,
    /// QoS violations across both runs (must be 0).
    pub qos_violations: u64,
    /// Whether every shard's final crash-recovery sweep was consistent.
    pub consistent: bool,
    /// Process restarts performed by the restart storm.
    pub restarts: u64,
    /// Checkpoints taken by the restart storm.
    pub checkpoints: u64,
    /// Whether the restart storm's final state was byte-identical to
    /// the straight-through reference.
    pub restart_equivalent: bool,
    /// Line writes fed to the wear model (one per store replayed).
    pub wear_writes: u64,
    /// Start-Gap line remappings those writes caused.
    pub wear_gap_moves: u64,
    /// The crash floor the run was required to clear.
    pub min_crashes: u64,
}

impl SoakOutcome {
    /// The soak verdict: enough crashes fired, nothing corrupted,
    /// nothing dropped, every equivalence held.
    pub fn converged(&self) -> bool {
        self.crashes >= self.min_crashes
            && self.digests_match
            && self.shed_match
            && self.restart_equivalent
            && self.consistent
            && self.anomalies == 0
            && self.qos_violations == 0
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "soak crashes={} (floor {}) restores={} replayed={} shed={}",
            self.crashes, self.min_crashes, self.restores, self.replayed, self.shed
        );
        let _ = writeln!(
            out,
            "serve digests     {}",
            if self.digests_match {
                "match crash-free reference"
            } else {
                "DIVERGED"
            }
        );
        let _ = writeln!(
            out,
            "shed counts       {}",
            if self.shed_match {
                "crash-invariant"
            } else {
                "DIVERGED"
            }
        );
        let _ = writeln!(
            out,
            "restart storm     restarts={} checkpoints={} {}",
            self.restarts,
            self.checkpoints,
            if self.restart_equivalent {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        let _ = writeln!(
            out,
            "wear              writes={} gap_moves={}",
            self.wear_writes, self.wear_gap_moves
        );
        let _ = writeln!(out, "anomalies         {}", self.anomalies);
        let _ = writeln!(out, "qos violations    {}", self.qos_violations);
        let _ = writeln!(out, "consistent        {}", self.consistent);
        let _ = writeln!(out, "converged         {}", self.converged());
        out
    }
}

/// Generates the restart storm's epoch slices (over-generating because
/// the trace generator budgets instructions, not items).
fn storm_epochs(seed: u64, n: usize, len: usize) -> Vec<Vec<TraceItem>> {
    let profile = WorkloadProfile::named("milc").expect("known benchmark");
    let items = TraceGenerator::new(profile, seed).generate((n * len * 16) as u64);
    assert!(items.len() >= n * len, "soak trace too short");
    items[..n * len]
        .chunks(len)
        .map(<[TraceItem]>::to_vec)
        .collect()
}

/// Phase 2: the single-system restart storm.  Returns
/// `(restarts, checkpoints, equivalent)`.
fn restart_storm(cfg: &SoakConfig) -> (u64, u64, bool) {
    let build = || {
        SecureSystem::with_tree(
            SystemConfig::default(),
            Scheme::Cobcm,
            TreeKind::Dbmf,
            cfg.seed,
        )
    };
    let epochs = storm_epochs(cfg.seed, cfg.restart_epochs, cfg.restart_epoch_len);

    // Straight-through reference.
    let mut reference = build();
    for epoch in &epochs {
        reference.run_trace(epoch.iter().copied());
        reference.sync_metadata();
    }
    let reference = reference.checkpoint_bytes();

    // The storm: seeded checkpoints and restarts.  A restart tears the
    // system down completely, restores the last checkpoint into a fresh
    // build, and replays the journaled epochs — the serve plane's
    // recovery protocol, exercised across whole process lifetimes.
    let mut rng = Rng::seed_from(cfg.seed ^ 0x50AC_50AC);
    let mut sys = build();
    let mut checkpoint = sys.checkpoint_bytes();
    let mut journal: Vec<usize> = Vec::new();
    let mut restarts = 0u64;
    let mut checkpoints = 0u64;
    for (i, epoch) in epochs.iter().enumerate() {
        sys.run_trace(epoch.iter().copied());
        sys.sync_metadata();
        journal.push(i);
        if rng.below(3) == 0 {
            checkpoint = sys.checkpoint_bytes();
            journal.clear();
            checkpoints += 1;
        }
        if rng.below(3) == 0 {
            sys = build();
            sys.restore_bytes(&checkpoint)
                .expect("soak checkpoint bytes restore");
            for &j in &journal {
                sys.run_trace(epochs[j].iter().copied());
                sys.sync_metadata();
            }
            restarts += 1;
        }
    }
    (restarts, checkpoints, sys.checkpoint_bytes() == reference)
}

/// Runs the whole soak: the faulted serve storm, its crash-free
/// reference, the restart storm, and the wear coupling.
///
/// # Errors
///
/// Propagates [`ServeError`] from either serve run (the injected faults
/// themselves never error — they are recovered in-flight).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakOutcome, ServeError> {
    let faulted = run_serve(&cfg.serve)?;
    let mut reference_cfg = cfg.serve.clone();
    reference_cfg.faults = cfg.serve.faults.crash_free();
    let reference = run_serve(&reference_cfg)?;

    let digest_of = |out: &crate::serve::ServeOutcome| {
        out.shards
            .iter()
            .filter(|s| !s.tenants.is_empty())
            .map(|s| (s.tenants.clone(), s.digest()))
            .collect::<Vec<_>>()
    };
    let digests_match = digest_of(&faulted) == digest_of(&reference);
    let shed_match = faulted.total_shed() == reference.total_shed();

    let (restarts, checkpoints, restart_equivalent) = restart_storm(cfg);

    // Wear coupling: every store the faulted service replayed becomes
    // one wear-leveled write to a seeded line address.
    let mut wear = StartGap::new(cfg.wear_lines, cfg.wear_psi);
    let mut rng = Rng::seed_from(cfg.seed ^ 0x5EA2_11FE);
    for _ in 0..faulted.total_stores() {
        wear.on_write(rng.below(cfg.wear_lines));
    }

    Ok(SoakOutcome {
        crashes: faulted.total_restored(),
        restores: faulted.total_restored(),
        replayed: faulted.total_replayed(),
        shed: faulted.total_shed(),
        digests_match,
        shed_match,
        anomalies: faulted.total_anomalies() + reference.total_anomalies(),
        qos_violations: faulted.total_qos_violations() + reference.total_qos_violations(),
        consistent: faulted.consistent() && reference.consistent(),
        restarts,
        checkpoints,
        restart_equivalent,
        wear_writes: wear.total_writes(),
        wear_gap_moves: wear.gap_moves(),
        min_crashes: cfg.min_crashes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_converges() {
        let out = run_soak(&SoakConfig::quick(11)).unwrap();
        assert!(out.converged(), "{}", out.render_text());
        assert!(out.crashes >= 4, "{}", out.render_text());
        assert!(out.restarts > 0, "{}", out.render_text());
        assert!(out.shed > 0, "{}", out.render_text());
        assert!(out.wear_gap_moves > 0, "{}", out.render_text());
    }

    #[test]
    fn quick_soak_is_deterministic() {
        let a = run_soak(&SoakConfig::quick(5)).unwrap();
        let b = run_soak(&SoakConfig::quick(5)).unwrap();
        assert_eq!(
            (a.crashes, a.restores, a.replayed, a.shed, a.wear_gap_moves),
            (b.crashes, b.restores, b.replayed, b.shed, b.wear_gap_moves)
        );
        assert!(a.converged() && b.converged());
    }

    #[test]
    fn render_text_carries_the_verdict() {
        let out = run_soak(&SoakConfig::quick(3)).unwrap();
        let text = out.render_text();
        assert!(text.contains("soak crashes="), "{text}");
        assert!(text.contains("converged         true"), "{text}");
    }
}
