//! Deterministic crash-storm harness: the fault-injection engine that
//! attacks the paper's central claim (the `(C, γ, M, R)` tuple survives
//! power loss at *any* point).
//!
//! A storm replays one trace per `(front, scheme, policy)` cell
//! and crashes the *same surviving system* at every trigger point.  At
//! each crash it:
//!
//! 1. drains under an optional battery brown-out budget (converted from
//!    joules to entries by the energy model) and reconciles the exact
//!    drained/lost split against pre-crash occupancy,
//! 2. injects seed-derived single-bit flips into the persisted
//!    ciphertexts, counter blocks, MACs, and BMT root, asserting every
//!    one is *detected* by recovery (a flip that verifies is a
//!    [`FaultOutcome::SilentCorruption`] — a harness failure),
//! 3. reverts each flip (they are self-inverse XORs) and re-verifies the
//!    clean state, then resynchronises any brown-out-lost blocks so the
//!    storm can continue on the surviving durable image.
//!
//! Everything is seed-driven: the same [`StormConfig`] replays the same
//! crashes, victims, and bit positions, so a storm failure is a
//! deterministic reproducer.

use secpb_core::crash::{CrashKind, DrainPolicy, FaultOutcome};
use secpb_core::eadr::EadrSystem;
use secpb_core::facade::PersistSystem;
use secpb_core::multicore::MultiCoreSystem;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_energy::drain::{
    entries_within_budget, per_entry_drain_energy, secpb_drain_energy, secure_eadr_energy,
    secure_eadr_line_energy, SchemeKind,
};
use secpb_mem::store::NvmStore;
use secpb_sim::addr::{Asid, BlockAddr};
use secpb_sim::config::SystemConfig;
use secpb_sim::fault::{pick_victim, BitFlip, CrashTrigger, FaultClock, FlipTarget};
use secpb_sim::json::Json;
use secpb_sim::trace::{TraceItem, TraceSummary};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

/// The energy-model view of a scheme, for brown-out budget conversion.
/// `Sp` persists the full tuple per store like `NoGap`, so it shares
/// NoGap's per-entry footprint (it never buffers entries anyway).
pub fn energy_scheme(scheme: Scheme) -> SchemeKind {
    match scheme {
        Scheme::Bbb => SchemeKind::Bbb,
        Scheme::Cobcm => SchemeKind::Cobcm,
        Scheme::Obcm => SchemeKind::Obcm,
        Scheme::Bcm => SchemeKind::Bcm,
        Scheme::Cm => SchemeKind::Cm,
        Scheme::M => SchemeKind::M,
        Scheme::NoGap | Scheme::Sp => SchemeKind::NoGap,
    }
}

/// Which system front a storm cell drives through the
/// [`PersistSystem`] facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormFront {
    /// The single-core SecPB system with the full timing pipeline.
    SecPb,
    /// The secure-eADR whole-hierarchy system.
    Eadr,
    /// The per-core-SecPB directory-coherence system with this many
    /// cores (trace accesses are fanned out round-robin across them).
    MultiCore(usize),
    /// The SecPB system under Triad-NVM selective persistence: BMT
    /// levels `0..N` are persisted durably; recovery folds the rest
    /// from the level-`N-1` frontier.
    Triad(u8),
    /// The SecPB system under the Huang & Hua fast-recovery layout: a
    /// durable shadow copy of the BMT root makes recovery a single
    /// comparison instead of a rebuild.
    FastRec,
}

impl StormFront {
    /// Deterministic salt discriminant for victim/bit derivation.
    fn salt(self) -> u64 {
        match self {
            StormFront::SecPb => 0,
            StormFront::Eadr => 1,
            StormFront::MultiCore(n) => 2 + n as u64,
            StormFront::Triad(n) => 0x100 + n as u64,
            StormFront::FastRec => 0x200,
        }
    }

    /// The scheme label this front's reports carry: the scheme it was
    /// built with, except on eADR, which runs the secure-eADR machine
    /// (Table V's `s_eadr`) whatever scheme was asked for, and whose
    /// [`PersistSystem::scheme`] is a `bbb` placeholder.
    pub fn scheme_label(self, scheme: Scheme) -> &'static str {
        match self {
            StormFront::Eadr => "s_eadr",
            _ => scheme.name(),
        }
    }

    /// Worst-case battery energy (J) of one unit of
    /// [`PersistSystem::occupancy`] on this front: a SecPB entry drained
    /// under `scheme`, or on eADR one dirty line completing its tuple.
    pub fn joules_per_entry(self, scheme: Scheme) -> f64 {
        match self {
            StormFront::Eadr => secure_eadr_line_energy(),
            _ => per_entry_drain_energy(energy_scheme(scheme)),
        }
    }

    /// Entries a battery holding `fraction` of this front's provisioned
    /// worst case drains before it browns out, at
    /// [`joules_per_entry`](Self::joules_per_entry) each.  The worst
    /// case is Table V's secure-eADR energy on eADR, `N` full SecPBs of
    /// `entries` on `mc<N>` (whose battery drain spends one budget across
    /// every core's buffer), and one full SecPB elsewhere.
    pub fn brown_out_entries(self, scheme: Scheme, entries: usize, fraction: f64) -> u64 {
        let worst_case = match self {
            StormFront::Eadr => secure_eadr_energy(),
            StormFront::MultiCore(cores) => {
                secpb_drain_energy(energy_scheme(scheme), cores * entries)
            }
            _ => secpb_drain_energy(energy_scheme(scheme), entries),
        };
        entries_within_budget(self.joules_per_entry(scheme), worst_case * fraction)
    }

    /// The stable front label used by the CLI and every report
    /// (`secpb`, `eadr`, `mc<N>`, `triad<N>`, `fastrec`) — the inverse
    /// of the `FromStr` parse.
    pub fn name(self) -> String {
        match self {
            StormFront::SecPb => "secpb".to_string(),
            StormFront::Eadr => "eadr".to_string(),
            StormFront::MultiCore(n) => format!("mc{n}"),
            StormFront::Triad(n) => format!("triad{n}"),
            StormFront::FastRec => "fastrec".to_string(),
        }
    }
}

impl std::str::FromStr for StormFront {
    type Err = String;

    /// Parses `secpb`, `eadr`, `mc<N>` (e.g. `mc4`), `triad<N>`
    /// (e.g. `triad4`), or `fastrec`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "secpb" => Ok(StormFront::SecPb),
            "eadr" => Ok(StormFront::Eadr),
            "fastrec" => Ok(StormFront::FastRec),
            _ => s
                .strip_prefix("mc")
                .and_then(|n| n.parse::<usize>().ok())
                .map(StormFront::MultiCore)
                .or_else(|| {
                    s.strip_prefix("triad")
                        .and_then(|n| n.parse::<u8>().ok())
                        .map(StormFront::Triad)
                })
                .ok_or_else(|| {
                    format!("unknown front `{s}`; try secpb, eadr, mc<N>, triad<N>, or fastrec")
                }),
        }
    }
}

/// Which crash kind + drain policy a storm cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPolicy {
    /// Power loss; everything drains ([`DrainPolicy::DrainAll`]).
    PowerLossDrainAll,
    /// Application crash of ASID 0; only its entries drain
    /// ([`DrainPolicy::DrainProcess`]).
    AppCrashDrainProcess,
}

impl StormPolicy {
    /// Both policies, in sweep order.
    pub const ALL: [StormPolicy; 2] = [
        StormPolicy::PowerLossDrainAll,
        StormPolicy::AppCrashDrainProcess,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StormPolicy::PowerLossDrainAll => "drain-all",
            StormPolicy::AppCrashDrainProcess => "drain-process",
        }
    }

    fn crash_args(self) -> (CrashKind, DrainPolicy) {
        match self {
            StormPolicy::PowerLossDrainAll => (CrashKind::PowerLoss, DrainPolicy::DrainAll),
            StormPolicy::AppCrashDrainProcess => (
                CrashKind::ApplicationCrash(Asid(0)),
                DrainPolicy::DrainProcess,
            ),
        }
    }
}

/// Storm parameters.  Fully determines the run: same config, same
/// faults, same verdicts.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Master seed for trace generation, victim picks, and bit positions.
    pub seed: u64,
    /// Workload profile name (see `WorkloadProfile::SPEC_NAMES`).
    pub workload: String,
    /// Starting trace length in instructions (doubled deterministically
    /// until the trace holds at least `min_stores` stores).
    pub instructions: u64,
    /// Minimum stores the storm trace must contain.
    pub min_stores: u64,
    /// Crash every this-many stores.
    pub crash_every: u64,
    /// Bit flips injected (and reverted) at each crash point.
    pub flips_per_crash: u64,
    /// Brown-out battery budget as a fraction of the scheme's provisioned
    /// worst-case drain energy; `None` models a fully provisioned battery.
    pub brown_out_fraction: Option<f64>,
    /// Schemes under storm.
    pub schemes: Vec<Scheme>,
}

impl StormConfig {
    /// The full acceptance-gate storm: every scheme, a trace of at
    /// least 10k stores.
    pub fn full(seed: u64) -> Self {
        StormConfig {
            seed,
            workload: "milc".to_owned(),
            instructions: 200_000,
            min_stores: 10_000,
            crash_every: 1_000,
            flips_per_crash: 4,
            brown_out_fraction: None,
            schemes: Scheme::ALL.to_vec(),
        }
    }

    /// A seconds-scale CI smoke with the same coverage axes.
    pub fn quick(seed: u64) -> Self {
        StormConfig {
            instructions: 6_000,
            min_stores: 200,
            crash_every: 64,
            flips_per_crash: 2,
            ..StormConfig::full(seed)
        }
    }

    /// Returns a copy with the given brown-out fraction.
    pub fn with_brown_out(mut self, fraction: f64) -> Self {
        self.brown_out_fraction = Some(fraction);
        self
    }
}

/// The verdict of one storm cell (one front × scheme × policy × trigger
/// pass over the trace).
#[derive(Debug, Clone)]
pub struct CellReport {
    /// System front under storm.
    pub front: StormFront,
    /// Scheme under storm.
    pub scheme: Scheme,
    /// Crash kind / drain policy exercised.
    pub policy: StormPolicy,
    /// Trigger description (`every-nth-store` or `mid-drain`).
    pub trigger: &'static str,
    /// Stores replayed.
    pub stores: u64,
    /// Crash points fired.
    pub crashes: u64,
    /// Entries drained across all crashes.
    pub drained: u64,
    /// Entries lost to brown-outs across all crashes.
    pub lost: u64,
    /// Crashes whose battery budget truncated the drain.
    pub brown_out_crashes: u64,
    /// Flips that landed in the persistent footprint.
    pub flips_injected: u64,
    /// Injected flips caught by integrity verification.
    pub flips_detected: u64,
    /// Flips skipped because the target class had no victim (provably
    /// outside the persistent footprint) or the scheme is insecure.
    pub flips_skipped: u64,
    /// Injected flips that recovery accepted — always a failure.
    pub silent_corruptions: u64,
    /// Model-internal invariants broken during the storm (the
    /// `fault.anomalies` counter) — always a failure.
    pub anomalies: u64,
    /// Accounting or sequencing failures detected by the harness itself.
    pub failures: Vec<String>,
}

impl CellReport {
    fn new(front: StormFront, scheme: Scheme, policy: StormPolicy, trigger: &'static str) -> Self {
        CellReport {
            front,
            scheme,
            policy,
            trigger,
            stores: 0,
            crashes: 0,
            drained: 0,
            lost: 0,
            brown_out_crashes: 0,
            flips_injected: 0,
            flips_detected: 0,
            flips_skipped: 0,
            silent_corruptions: 0,
            anomalies: 0,
            failures: Vec::new(),
        }
    }

    /// Whether the cell met the storm contract: zero silent corruptions,
    /// zero anomalies, zero harness failures, every injected flip
    /// detected.
    pub fn passed(&self) -> bool {
        self.silent_corruptions == 0
            && self.anomalies == 0
            && self.failures.is_empty()
            && self.flips_detected == self.flips_injected
    }

    /// One-line cell label, e.g. `cobcm/drain-all/every-nth-store`
    /// (single-core SecPB), `eadr/drain-all/every-nth-store`, or
    /// `mc4-cobcm/drain-all/every-nth-store`.
    pub fn label(&self) -> String {
        let head = match self.front {
            StormFront::SecPb => self.scheme.name().to_owned(),
            StormFront::Eadr => "eadr".to_owned(),
            StormFront::MultiCore(n) => format!("mc{n}-{}", self.scheme.name()),
            StormFront::Triad(n) => format!("triad{n}-{}", self.scheme.name()),
            StormFront::FastRec => format!("fastrec-{}", self.scheme.name()),
        };
        format!("{head}/{}/{}", self.policy.name(), self.trigger)
    }

    /// JSON object for machine consumption.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cell", self.label())
            .field("stores", self.stores)
            .field("crashes", self.crashes)
            .field("drained", self.drained)
            .field("lost", self.lost)
            .field("brown_out_crashes", self.brown_out_crashes)
            .field("flips_injected", self.flips_injected)
            .field("flips_detected", self.flips_detected)
            .field("flips_skipped", self.flips_skipped)
            .field("silent_corruptions", self.silent_corruptions)
            .field("anomalies", self.anomalies)
            .field(
                "failures",
                Json::arr(self.failures.iter().map(String::as_str)),
            )
            .field("passed", self.passed())
    }
}

/// The verdict of a whole storm sweep.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Per-cell verdicts in sweep order.
    pub cells: Vec<CellReport>,
}

impl StormReport {
    /// Whether every cell passed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(CellReport::passed)
    }

    /// Total crash points fired.
    pub fn total_crashes(&self) -> u64 {
        self.cells.iter().map(|c| c.crashes).sum()
    }

    /// Total flips that landed in persistent state.
    pub fn total_flips(&self) -> u64 {
        self.cells.iter().map(|c| c.flips_injected).sum()
    }

    /// Total entries lost to brown-outs.
    pub fn total_lost(&self) -> u64 {
        self.cells.iter().map(|c| c.lost).sum()
    }

    /// JSON report (`{"cells": [...], "passed": ...}`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "cells",
                Json::arr(self.cells.iter().map(CellReport::to_json)),
            )
            .field("total_crashes", self.total_crashes())
            .field("total_flips", self.total_flips())
            .field("total_lost", self.total_lost())
            .field("passed", self.passed())
    }

    /// Aligned text table, one row per cell.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<33} {:>7} {:>7} {:>8} {:>6} {:>6} {:>6} {:>5}\n",
            "cell", "crashes", "drained", "lost", "flips", "caught", "skip", "ok"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<33} {:>7} {:>7} {:>8} {:>6} {:>6} {:>6} {:>5}\n",
                c.label(),
                c.crashes,
                c.drained,
                c.lost,
                c.flips_injected,
                c.flips_detected,
                c.flips_skipped,
                if c.passed() { "pass" } else { "FAIL" }
            ));
            for f in &c.failures {
                out.push_str(&format!("    failure: {f}\n"));
            }
        }
        out.push_str(&format!(
            "storm: {} cells, {} crashes, {} flips injected, {} entries lost -> {}\n",
            self.cells.len(),
            self.total_crashes(),
            self.total_flips(),
            self.total_lost(),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Deterministic per-cell seed salt so different cells attack different
/// victims/bits while staying replayable.  Bit 4 is always set: it once
/// told the metadata engines apart, and keeping it replays every cell's
/// historical victims and bits.
fn cell_salt(front: StormFront, scheme: Scheme, policy: StormPolicy) -> u64 {
    let s = Scheme::ALL.iter().position(|&x| x == scheme).unwrap_or(0) as u64;
    let p = matches!(policy, StormPolicy::AppCrashDrainProcess) as u64;
    (front.salt() << 16) ^ (s << 8) ^ (1 << 4) ^ (p << 2)
}

/// Applies (or, called again with identical arguments, reverts) one
/// self-inverse bit flip against the NVM store.  Returns a description
/// of the victim, or `None` when the target class has no victim in the
/// persistent footprint.
fn apply_flip(store: &mut NvmStore, flip: BitFlip, seed: u64, injection: u64) -> Option<String> {
    match flip.target {
        FlipTarget::Ciphertext => {
            let mut blocks: Vec<BlockAddr> = store.data_blocks().collect();
            blocks.sort_unstable();
            let victim = blocks[pick_victim(seed, injection, blocks.len())?];
            store
                .tamper_data(victim, flip.byte, flip.bit)
                .then(|| format!("ciphertext {victim} byte {} bit {}", flip.byte, flip.bit))
        }
        FlipTarget::Counter => {
            let mut pages: Vec<u64> = store.counter_pages().collect();
            pages.sort_unstable();
            let victim = pages[pick_victim(seed, injection, pages.len())?];
            store
                .tamper_counters(victim, flip.byte, flip.bit)
                .then(|| format!("counter page {victim} byte {} bit {}", flip.byte, flip.bit))
        }
        FlipTarget::Mac => {
            let mut blocks: Vec<BlockAddr> = store.data_blocks().collect();
            blocks.sort_unstable();
            let victim = blocks[pick_victim(seed, injection, blocks.len())?];
            let bit = ((flip.byte * 8 + flip.bit as usize) % 64) as u8;
            store
                .tamper_mac(victim, bit)
                .then(|| format!("mac of {victim} bit {bit}"))
        }
        FlipTarget::TreeRoot => store
            .tamper_root(flip.byte, flip.bit)
            .then(|| format!("bmt root byte {} bit {}", flip.byte, flip.bit)),
    }
}

/// Generates the storm trace: doubles the instruction count until the
/// trace holds at least `min_stores` stores (deterministic in the seed).
fn storm_trace(cfg: &StormConfig) -> Result<Vec<TraceItem>, String> {
    let profile = WorkloadProfile::named(&cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let mut instructions = cfg.instructions.max(1_000);
    for _ in 0..12 {
        let trace = TraceGenerator::new(profile.clone(), cfg.seed).generate(instructions);
        if TraceSummary::of(&trace).stores >= cfg.min_stores {
            return Ok(trace);
        }
        instructions *= 2;
    }
    Err(format!(
        "workload `{}` produced fewer than {} stores even at {} instructions",
        cfg.workload, cfg.min_stores, instructions
    ))
}

/// One crash point: budgeted drain, accounting reconciliation, flip
/// inject/verify/revert cycles, clean re-verification, and golden resync
/// of lost blocks.
fn crash_point(
    sys: &mut dyn PersistSystem,
    cfg: &StormConfig,
    rep: &mut CellReport,
    salt: u64,
    injection: u64,
    budget_entries: Option<u64>,
) {
    let occupancy = sys.occupancy();
    let (kind, policy) = rep.policy.crash_args();
    let report = match sys.crash_with_budget(kind, policy, budget_entries) {
        Ok(r) => r,
        Err(e) => {
            rep.failures.push(format!("crash {injection}: {e}"));
            return;
        }
    };
    rep.crashes += 1;
    rep.drained += report.work.entries;
    rep.lost += report.lost_block_count();
    if report.lost_block_count() > 0 {
        rep.brown_out_crashes += 1;
    }

    // Exact brown-out accounting: the battery drains the oldest
    // min(occupancy, budget) entries and loses the rest — nothing more,
    // nothing less.  (Under drain-process the eligible set is the
    // process's entries, a subset of occupancy.)
    let eligible = report.work.entries + report.lost_block_count();
    if rep.policy == StormPolicy::PowerLossDrainAll && eligible != occupancy {
        rep.failures.push(format!(
            "crash {injection}: drained {} + lost {} != occupancy {occupancy}",
            report.work.entries,
            report.lost_block_count()
        ));
    }
    if let Some(budget) = budget_entries {
        let expected = eligible.min(budget);
        if report.work.entries != expected {
            rep.failures.push(format!(
                "crash {injection}: drained {} entries under a {budget}-entry budget \
                 (expected {expected})",
                report.work.entries
            ));
        }
    }

    let lost = report.lost_blocks.clone();

    // Clean recovery with staleness accounted must verify.
    let clean = sys.recover_with(&lost);
    if FaultOutcome::classify(false, &clean) != FaultOutcome::Recovered {
        rep.failures.push(format!(
            "crash {injection}: clean recovery not consistent (root_ok={}, macs={}, \
             mismatches={})",
            clean.root_ok,
            clean.mac_failures.len(),
            clean.plaintext_mismatches.len()
        ));
        return;
    }

    // Flip storm: inject, demand detection, revert.  Insecure schemes
    // have no integrity metadata to attack, so flips are out of model.
    if sys.secure() {
        for f in 0..cfg.flips_per_crash {
            let idx = injection * cfg.flips_per_crash + f;
            let flip = BitFlip::derive(cfg.seed ^ salt, idx);
            let Some(desc) = apply_flip(sys.nvm_store_mut(), flip, cfg.seed ^ salt, idx) else {
                rep.flips_skipped += 1;
                continue;
            };
            rep.flips_injected += 1;
            let faulty = sys.recover_with(&lost);
            match FaultOutcome::classify(true, &faulty) {
                FaultOutcome::DetectedAndRejected => rep.flips_detected += 1,
                outcome => {
                    rep.silent_corruptions += 1;
                    rep.failures.push(format!(
                        "crash {injection}: flip of {desc} -> {}",
                        outcome.name()
                    ));
                }
            }
            // Self-inverse: the identical tamper restores the bit.
            if apply_flip(sys.nvm_store_mut(), flip, cfg.seed ^ salt, idx).is_none() {
                rep.failures.push(format!(
                    "crash {injection}: could not revert flip of {desc}"
                ));
                return;
            }
        }
        let restored = sys.recover_with(&lost);
        if !restored.is_consistent() {
            rep.failures.push(format!(
                "crash {injection}: state inconsistent after reverting flips"
            ));
            return;
        }
    } else {
        rep.flips_skipped += cfg.flips_per_crash;
    }

    // Brown-out survivors: the application re-reads the (older, verified)
    // durable image before continuing, so the storm's expectations track
    // the truncated state.
    if !lost.is_empty() {
        sys.resync_lost_golden(&lost);
    }
}

/// Builds the system front a storm cell (or the CLI) drives through the
/// facade.  Configuration rejections surface as the typed
/// [`ConfigError`](secpb_core::crash::ConfigError)'s friendly message.
pub fn build_front(
    front: StormFront,
    sys_cfg: SystemConfig,
    scheme: Scheme,
    key_seed: u64,
) -> Result<Box<dyn PersistSystem + Send>, String> {
    match front {
        StormFront::SecPb => SecureSystem::build(sys_cfg, scheme, TreeKind::Monolithic, key_seed)
            .map(|s| Box::new(s) as Box<dyn PersistSystem + Send>)
            .map_err(|e| format!("invalid configuration: {e}")),
        StormFront::Eadr => EadrSystem::new(sys_cfg, key_seed)
            .map(|e| Box::new(e) as Box<dyn PersistSystem + Send>)
            .map_err(|e| format!("invalid configuration: {e}")),
        StormFront::MultiCore(cores) => MultiCoreSystem::new(sys_cfg, scheme, cores, key_seed)
            .map(|m| Box::new(m) as Box<dyn PersistSystem + Send>)
            .map_err(|e| format!("invalid configuration: {e}")),
        StormFront::Triad(levels) => SecureSystem::build(
            sys_cfg.with_triad_levels(levels),
            scheme,
            TreeKind::Monolithic,
            key_seed,
        )
        .map(|s| Box::new(s) as Box<dyn PersistSystem + Send>)
        .map_err(|e| format!("invalid configuration: {e}")),
        StormFront::FastRec => SecureSystem::build(
            sys_cfg.with_shadow_counters(true),
            scheme,
            TreeKind::Monolithic,
            key_seed,
        )
        .map(|s| Box::new(s) as Box<dyn PersistSystem + Send>)
        .map_err(|e| format!("invalid configuration: {e}")),
    }
}

/// Runs one storm cell: replays the trace, crashing at every trigger
/// point on the same surviving system, driven entirely through the
/// [`PersistSystem`] facade.
pub fn run_cell(
    cfg: &StormConfig,
    front: StormFront,
    scheme: Scheme,
    policy: StormPolicy,
    trigger: CrashTrigger,
) -> CellReport {
    let trigger_name = match trigger {
        CrashTrigger::Never => "never",
        CrashTrigger::AtCycle(_) => "at-cycle",
        CrashTrigger::EveryNthStore(_) => "every-nth-store",
        CrashTrigger::MidDrain => "mid-drain",
    };
    let mut rep = CellReport::new(front, scheme, policy, trigger_name);
    let trace = match storm_trace(cfg) {
        Ok(t) => t,
        Err(e) => {
            rep.failures.push(e);
            return rep;
        }
    };
    let salt = cell_salt(front, scheme, policy);
    let mut sys = match build_front(front, SystemConfig::default(), scheme, cfg.seed ^ salt) {
        Ok(s) => s,
        Err(e) => {
            rep.failures.push(e);
            return rep;
        }
    };
    let mut clock = FaultClock::new(trigger);
    let budget_entries = cfg
        .brown_out_fraction
        .map(|fraction| front.brown_out_entries(scheme, sys.config().secpb.entries, fraction));
    // The multi-core front fans the single-threaded trace out across its
    // cores round-robin, so migrations and remote flushes actually fire.
    let fan_out = match front {
        StormFront::MultiCore(cores) => cores as u16,
        _ => 1,
    };
    let mut access_idx = 0u16;

    for mut item in trace {
        if fan_out > 1 {
            if let Some(a) = &mut item.access {
                a.asid = Asid(access_idx % fan_out);
                access_idx = access_idx.wrapping_add(1);
            }
        }
        sys.step(item);
        if !item.access.is_some_and(|a| a.is_store()) {
            continue;
        }
        rep.stores += 1;
        if !clock.observe_store(sys.finish_time().raw(), sys.drains_in_flight()) {
            continue;
        }
        crash_point(
            sys.as_mut(),
            cfg,
            &mut rep,
            salt,
            clock.crashes_fired() - 1,
            budget_entries,
        );
        if !rep.failures.is_empty() {
            break;
        }
    }

    // Close out: a final full-power crash and clean verification, so the
    // trailing partial window is also covered.
    if rep.failures.is_empty() {
        crash_point(
            sys.as_mut(),
            cfg,
            &mut rep,
            salt,
            clock.crashes_fired(),
            None,
        );
    }
    rep.anomalies = sys.anomalies();
    rep
}

/// An every-nth-store crash storm under power loss with a full drain:
/// the cell shape every front runs.
fn drain_all_cell(cfg: &StormConfig, front: StormFront, scheme: Scheme) -> CellReport {
    let every_nth = CrashTrigger::EveryNthStore(cfg.crash_every);
    run_cell(
        cfg,
        front,
        scheme,
        StormPolicy::PowerLossDrainAll,
        every_nth,
    )
}

/// Runs the full storm sweep: for every scheme, an every-nth-store
/// crash storm under both drain policies plus a mid-drain single crash
/// under drain-all — all on the single-core front — plus an
/// every-nth-store drain-all cell on the eADR, 4-core, Triad-NVM and
/// fast-recovery fronts so every facade implementation faces the same
/// flip storm.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let mut report = StormReport::default();
    for &scheme in &cfg.schemes {
        for policy in StormPolicy::ALL {
            report.cells.push(run_cell(
                cfg,
                StormFront::SecPb,
                scheme,
                policy,
                CrashTrigger::EveryNthStore(cfg.crash_every),
            ));
        }
        report.cells.push(run_cell(
            cfg,
            StormFront::SecPb,
            scheme,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::MidDrain,
        ));
    }
    for front in [
        StormFront::Eadr,
        StormFront::MultiCore(4),
        StormFront::Triad(4),
        StormFront::FastRec,
    ] {
        report.cells.push(drain_all_cell(cfg, front, Scheme::Cobcm));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_storm_single_cell_passes() {
        let cfg = StormConfig::quick(0x5EC9_B0A2);
        let cell = drain_all_cell(&cfg, StormFront::SecPb, Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1, "storm should fire repeatedly");
        assert!(cell.flips_injected > 0);
        assert_eq!(cell.flips_detected, cell.flips_injected);
    }

    #[test]
    fn brown_out_budgets_cover_a_fraction_of_each_fronts_worst_case() {
        use secpb_energy::constants::cache_bytes;
        let lines = (cache_bytes::L1 + cache_bytes::L2 + cache_bytes::L3) / 64;
        for scheme in [Scheme::Bbb, Scheme::Cobcm, Scheme::NoGap] {
            let budget = |front: StormFront| front.brown_out_entries(scheme, 32, 0.25);
            assert_eq!(budget(StormFront::SecPb), 8, "{scheme}");
            assert_eq!(budget(StormFront::Eadr), lines / 4, "{scheme}");
            assert_eq!(budget(StormFront::MultiCore(4)), 4 * 32 / 4, "{scheme}");
        }
    }

    #[test]
    fn brown_out_cell_loses_and_accounts() {
        let cfg = StormConfig::quick(7).with_brown_out(0.10);
        let cell = drain_all_cell(&cfg, StormFront::SecPb, Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.lost > 0, "a 10% battery must lose entries");
        assert!(cell.brown_out_crashes > 0);
    }

    #[test]
    fn mid_drain_cell_fires_at_most_once() {
        let cfg = StormConfig::quick(9);
        let cell = run_cell(
            &cfg,
            StormFront::SecPb,
            Scheme::Bcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::MidDrain,
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        // The mid-drain trigger plus the close-out crash.
        assert!(cell.crashes <= 2);
    }

    #[test]
    fn insecure_scheme_skips_flips() {
        let cfg = StormConfig::quick(11);
        let cell = drain_all_cell(&cfg, StormFront::SecPb, Scheme::Bbb);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert_eq!(cell.flips_injected, 0);
        assert!(cell.flips_skipped > 0);
    }

    #[test]
    fn eadr_front_cell_passes() {
        let cfg = StormConfig::quick(19);
        let cell = drain_all_cell(&cfg, StormFront::Eadr, Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert!(cell.flips_injected > 0, "eADR persists a secure image");
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label().starts_with("eadr/"));
    }

    #[test]
    fn multicore_front_cell_passes() {
        let cfg = StormConfig::quick(23);
        let cell = drain_all_cell(&cfg, StormFront::MultiCore(4), Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label().starts_with("mc4-cobcm/"));
    }

    #[test]
    fn triad_front_cell_passes() {
        let cfg = StormConfig::quick(31);
        let cell = drain_all_cell(&cfg, StormFront::Triad(4), Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label().starts_with("triad4-cobcm/"));
    }

    #[test]
    fn fastrec_front_cell_passes() {
        let cfg = StormConfig::quick(37);
        let cell = drain_all_cell(&cfg, StormFront::FastRec, Scheme::Cobcm);
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label().starts_with("fastrec-cobcm/"));
    }

    #[test]
    fn triad_front_depth_beyond_tree_reports_config_error() {
        let cfg = StormConfig::quick(41);
        let cell = run_cell(
            &cfg,
            StormFront::Triad(200),
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::Never,
        );
        assert!(!cell.passed());
        assert!(cell.failures[0].contains("depth"), "{:?}", cell.failures);
    }

    #[test]
    fn front_names_round_trip_through_parse() {
        for front in [
            StormFront::SecPb,
            StormFront::Eadr,
            StormFront::MultiCore(4),
            StormFront::Triad(4),
            StormFront::FastRec,
        ] {
            assert_eq!(front.name().parse::<StormFront>(), Ok(front));
        }
        assert!("triadx".parse::<StormFront>().is_err());
    }

    #[test]
    fn bufferless_scheme_on_multicore_front_reports_config_error() {
        let cfg = StormConfig::quick(29);
        let cell = run_cell(
            &cfg,
            StormFront::MultiCore(2),
            Scheme::Sp,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::Never,
        );
        assert!(!cell.passed());
        assert!(cell.failures[0].contains("persist-buffer scheme"));
    }

    #[test]
    fn storm_is_deterministic() {
        let cfg = StormConfig {
            schemes: vec![Scheme::Bcm],
            ..StormConfig::quick(13)
        };
        let a = run_storm(&cfg).to_json().to_pretty();
        let b = run_storm(&cfg).to_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_and_serializes() {
        let cfg = StormConfig {
            schemes: vec![Scheme::NoGap],
            ..StormConfig::quick(17)
        };
        let report = run_storm(&cfg);
        assert!(report.passed(), "{}", report.render_text());
        let text = report.render_text();
        assert!(text.contains("nogap/drain-all/every-nth-store"));
        assert!(text.contains("PASS"));
        let json = report.to_json();
        assert_eq!(json.get("passed").and_then(Json::as_str), None);
        assert!(json.get("cells").is_some());
    }
}
