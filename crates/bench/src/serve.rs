//! The sharded multi-tenant persist service: `secpb serve`.
//!
//! Runs N independent [`PersistDomain`]-backed shards side by side, each
//! a full single-core SecPB front, and serves the store traces of many
//! tenants:
//!
//! * **Sharding** — a tenant (and its ASID) maps to a shard by a stable
//!   `derive_seed`-style hash of its name, so placement is a pure
//!   function of the tenant, never of config position.
//! * **Ingest** — every tenant's stream is loaded before the first
//!   epoch, so a malformed trace fails startup.  Each shard then runs on
//!   one worker of [`pool::run_indexed`] from start to finish: epoch `e`
//!   is each member's `e`-th quota-sized chunk, in shard-local order,
//!   borrowed straight from the loaded streams.
//! * **Epoch-batched drains** — each shard folds its deferred security
//!   metadata once per epoch ([`PersistSystem::sync_metadata`]): the
//!   lazy engine then hashes whole dirty tree levels in sibling batches
//!   and coalesces counter digests, amortizing metadata cost across the
//!   epoch instead of paying it per store.
//! * **QoS** — every tenant carries a [`QosClass`] that bounds how many
//!   trace items it may contribute to any one epoch.  Classes are only
//!   settable through the privileged config path
//!   ([`ServeConfig::set_qos`] + [`PrivilegeToken`]); the data plane
//!   re-checks the bound per epoch and counts violations, which CI
//!   treats as failures.
//! * **Observability** — with telemetry enabled each shard streams
//!   through its own SPSC ring into a per-shard [`HealthMonitor`],
//!   emitting one [`HealthSnapshot`] per epoch.
//!
//! # Determinism
//!
//! A shard's outcome is a pure function of `(its tenants' traces, its
//! shard seed)`.  The shard seed derives from the shard's tenant names
//! (not the shard index or count), and a shard runs its epochs in order
//! on a single worker — so the same tenants produce **byte-identical**
//! shard stats and recovery verdicts at any shard count or worker count,
//! with telemetry on or off.  [`ShardOutcome::digest`] pins that
//! contract.
//!
//! # Fault tolerance
//!
//! The serve plane survives shard crashes mid-epoch.  Every shard with
//! tenants snapshots its full system state into an in-memory rewind
//! point ([`PersistSystem::snapshot_into`]) every
//! [`ServeConfig::checkpoint_every`] epochs.  The journal is the epochs
//! since that snapshot: their parts are re-derived from the loaded
//! streams, so it needs no storage.  When a [`ServeFaultPlan`] crash
//! trigger fires, the epoch stops where it is and the shard rewinds to
//! its last snapshot ([`PersistSystem::rewind`]), then replays the
//! journal with the trigger disarmed before it serves new ground.
//! Because rewind-then-replay is byte-identical to the uninterrupted run
//! (the [`checkpoint`] module's contract), the recovered shard digests
//! exactly like one that never crashed.  An injected crash is control
//! flow, not a panic: a panic anywhere in a shard is a bug and
//! propagates out of [`run_serve`].  The rewind point never leaves the
//! process, so the shard copies its state instead of encoding SPBC
//! bytes, and each checkpoint or rewind copies only what changed since
//! the previous one.
//! Brown-out epochs degrade gracefully instead: parts whose QoS class
//! the energy budget cannot fund are *deferred* to a later epoch —
//! bronze first, gold never, nothing ever dropped.
//!
//! [`PersistDomain`]: secpb_core::domain::PersistDomain
//! [`checkpoint`]: secpb_core::checkpoint

use secpb_core::checkpoint::Snapshot;
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::{counters, histograms};
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_energy::drain::secpb_drain_energy;
use secpb_sim::addr::Asid;
use secpb_sim::config::SystemConfig;
use secpb_sim::fault::{BrownOut, CrashTrigger, FaultClock};
use secpb_sim::fxhash::derive_seed;
use secpb_sim::pool;
use secpb_sim::telemetry::{
    self, HealthGauges, HealthMonitor, HealthSnapshot, TelemetryReader, DEFAULT_RING_CAPACITY,
};
use secpb_sim::trace::TraceItem;
use secpb_workloads::{trace_io, TraceGenerator, WorkloadProfile};

use crate::storm::energy_scheme;

/// Deterministic seed base for the service plane (tenant placement and
/// shard key derivation both salt from here).
pub const SERVE_SEED: u64 = 0x5E2B_5EED;

/// Why a service run failed.  Typed so callers (the CLI, the soak
/// harness, CI gates) report faults precisely instead of pattern-matching
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The configuration is unusable (shard count, tenant set, a fault
    /// plan without checkpointing).
    Config(String),
    /// A tenant's trace could not be loaded; for malformed SPB1 files
    /// the detail names the item index and byte offset.
    Tenant {
        /// The tenant whose trace failed.
        tenant: String,
        /// I/O or parse detail.
        detail: String,
    },
    /// The final crash drain or recovery sweep of a shard failed.
    CrashCheck {
        /// The failing shard.
        shard: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(detail) => write!(f, "serve: {detail}"),
            ServeError::Tenant { tenant, detail } => {
                write!(f, "serve: tenant `{tenant}`: {detail}")
            }
            ServeError::CrashCheck { shard, detail } => {
                write!(
                    f,
                    "serve: shard {shard}: final crash drain failed: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One data-plane QoS violation: a tenant's epoch contribution exceeded
/// the quota its class guarantees.  [`run_serve`] records these on the
/// [`ShardOutcome`] (the run itself continues); the CLI turns a non-zero
/// count into a failure naming every violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosViolation {
    /// The offending tenant.
    pub tenant: String,
    /// Its QoS class.
    pub qos: QosClass,
    /// The epoch whose batch exceeded the bound.
    pub epoch: u64,
    /// Items the tenant placed into that epoch.
    pub items: u64,
    /// The per-epoch quota the class guarantees.
    pub quota: u64,
}

impl std::fmt::Display for QosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant `{}` (qos {}) placed {} items into epoch {}, quota {}",
            self.tenant,
            self.qos.name(),
            self.items,
            self.epoch,
            self.quota
        )
    }
}

/// Seed-driven fault schedule for a service run.  Every decision is a
/// pure function of the plan and each shard's own epoch stream, so the
/// same plan over the same tenants injects the same faults at any shard
/// count or worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFaultPlan {
    /// Plan seed (schedules and victim picks derive from it).
    pub seed: u64,
    /// Mid-epoch crash trigger, evaluated per shard against its own
    /// store stream.  A firing stops the shard's epoch where it is; the
    /// shard rewinds to its last epoch checkpoint and replays its
    /// journal.  Replayed stores never re-arm the trigger, so recovery
    /// always makes forward progress.
    pub trigger: CrashTrigger,
    /// Every `k`-th epoch batch (per shard) runs under
    /// [`Self::brown_out`]; `0` disables brown-outs.
    pub brown_out_every: u64,
    /// Brown-out severity: the drain-energy budget available during
    /// affected epochs.  Classes the budget cannot fund are shed
    /// bronze-first (work is deferred to a later epoch, never dropped).
    pub brown_out: BrownOut,
}

impl Default for ServeFaultPlan {
    fn default() -> Self {
        ServeFaultPlan::none()
    }
}

impl ServeFaultPlan {
    /// The do-nothing plan: no crashes, no brown-outs.
    pub fn none() -> Self {
        ServeFaultPlan {
            seed: 0,
            trigger: CrashTrigger::Never,
            brown_out_every: 0,
            brown_out: BrownOut::with_budget(f64::INFINITY),
        }
    }

    /// A soak-style schedule: crash every `n` stores per shard, and
    /// every `k`-th epoch browns out to `budget_joules`.
    pub fn storm(seed: u64, every_n_stores: u64, brown_out_every: u64, budget_joules: f64) -> Self {
        ServeFaultPlan {
            seed,
            trigger: CrashTrigger::EveryNthStore(every_n_stores.max(1)),
            brown_out_every,
            brown_out: BrownOut::with_budget(budget_joules),
        }
    }

    /// The same brown-out schedule with crashes disabled — the digest
    /// reference: a faulted run must match this run byte-for-byte.
    pub fn crash_free(&self) -> Self {
        ServeFaultPlan {
            trigger: CrashTrigger::Never,
            ..self.clone()
        }
    }

    /// Whether the plan can fire crashes at all.
    fn crashes(&self) -> bool {
        self.trigger != CrashTrigger::Never
    }
}

/// Does nothing: an injected shard crash is control flow, not a panic,
/// so there is no panic report to silence.  Kept so that callers which
/// still call it build; every panic reaches the default hook.
pub fn quiet_injected_faults() {}

/// A tenant's quality-of-service class: how much of an epoch the tenant
/// may occupy on its shard.
///
/// The class caps the trace items a tenant contributes to any single
/// epoch batch, so a heavy tenant cannot starve its shard-mates: within
/// every epoch each unfinished tenant is guaranteed its own quota
/// regardless of what others submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    /// Full epoch quota.
    Gold,
    /// Half the epoch quota.
    #[default]
    Silver,
    /// A quarter of the epoch quota.
    Bronze,
}

impl QosClass {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Gold => "gold",
            QosClass::Silver => "silver",
            QosClass::Bronze => "bronze",
        }
    }

    /// The per-epoch ingress quota in trace items for a nominal epoch
    /// length (always at least 1, so every tenant makes progress).
    pub fn epoch_quota(self, epoch_len: usize) -> usize {
        let q = match self {
            QosClass::Gold => epoch_len,
            QosClass::Silver => epoch_len / 2,
            QosClass::Bronze => epoch_len / 4,
        };
        q.max(1)
    }
}

/// Capability token for the privileged configuration path.
///
/// QoS classes bound cross-tenant starvation, so letting a tenant pick
/// its own class would be privilege escalation: [`ServeConfig::set_qos`]
/// demands this token, which only the operator assembling the
/// [`ServeConfig`] can mint.  Nothing reachable from the data plane — a
/// [`TenantSpec`], a running service, a trace stream — can construct or
/// obtain one, and a sealed running service exposes no QoS mutation
/// surface at all.
#[derive(Debug)]
pub struct PrivilegeToken {
    _config_time_only: (),
}

impl PrivilegeToken {
    /// Mints the token.  Call this only on the operator/config path,
    /// never on behalf of tenant input.
    pub fn acquire() -> Self {
        PrivilegeToken {
            _config_time_only: (),
        }
    }
}

/// Where a tenant's store trace comes from.
#[derive(Debug, Clone)]
pub enum TenantSource {
    /// Synthetic: the named workload generator, seeded from the tenant
    /// name (same tenant, same trace — at any shard count).
    Synthetic(WorkloadProfile),
    /// Replay of an on-disk `SPB1` trace file (see
    /// [`trace_io::read_trace`]); malformed files fail service startup
    /// with the item index and byte offset.
    File(String),
}

/// One tenant of the service.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name; hashing it places the tenant on a shard.
    pub name: String,
    /// Trace source.
    pub source: TenantSource,
    /// Instruction budget for synthetic tenants (file tenants replay
    /// the whole file).
    pub instructions: u64,
    /// QoS class — private: assigned only via [`ServeConfig::set_qos`].
    qos: QosClass,
}

impl TenantSpec {
    /// A synthetic tenant with the default ([`QosClass::Silver`]) class.
    pub fn synthetic(name: &str, profile: WorkloadProfile, instructions: u64) -> Self {
        TenantSpec {
            name: name.to_owned(),
            source: TenantSource::Synthetic(profile),
            instructions,
            qos: QosClass::default(),
        }
    }

    /// A file-replay tenant with the default class.
    pub fn from_file(name: &str, path: &str) -> Self {
        TenantSpec {
            name: name.to_owned(),
            source: TenantSource::File(path.to_owned()),
            instructions: 0,
            qos: QosClass::default(),
        }
    }

    /// The tenant's QoS class.
    pub fn qos(&self) -> QosClass {
        self.qos
    }
}

/// Service configuration.  Fully determines every shard's outcome.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard (persist-domain) count.
    pub shards: usize,
    /// Worker threads running the shards; each shard runs on one worker
    /// from its first epoch to its final crash check.
    pub workers: usize,
    /// Nominal epoch length in trace items ([`QosClass::Gold`]'s
    /// per-epoch quota; lower classes get a fraction).
    pub epoch_len: usize,
    /// Metadata-persistence scheme every shard runs.
    pub scheme: Scheme,
    /// Integrity-tree organisation per shard.  Defaults to the DBMF
    /// forest: its secure root cache is what epoch-boundary syncs fold
    /// in batch, so the epoch drain actually amortizes tree work
    /// (a monolithic BMT charges every update its full walk up front
    /// and syncs are free).
    pub tree: TreeKind,
    /// Machine configuration per shard.
    pub sys_cfg: SystemConfig,
    /// Master seed (shard keys and synthetic tenant traces derive from
    /// it plus stable names — never from shard indices).
    pub seed: u64,
    /// Attach a per-shard telemetry ring of
    /// [`DEFAULT_RING_CAPACITY`] events and emit one [`HealthSnapshot`]
    /// per epoch.
    pub telemetry: bool,
    /// Epochs between shard checkpoints (in-memory rewind points, see
    /// [`PersistSystem::snapshot_into`]); crash recovery rewinds to the
    /// latest one and replays the journal.  `0` disables checkpointing —
    /// and with it, crash recovery.
    pub checkpoint_every: u64,
    /// Fault schedule: injected crashes and brown-outs.
    pub faults: ServeFaultPlan,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// A service with sane defaults and no tenants yet.
    pub fn new(shards: usize) -> Self {
        ServeConfig {
            shards,
            workers: shards.max(1),
            epoch_len: 1024,
            scheme: Scheme::Cobcm,
            tree: TreeKind::Dbmf,
            sys_cfg: SystemConfig::default(),
            seed: SERVE_SEED,
            telemetry: false,
            checkpoint_every: 4,
            faults: ServeFaultPlan::none(),
            tenants: Vec::new(),
        }
    }

    /// The CI smoke shape: 2 shards, 4 small synthetic tenants with
    /// mixed QoS classes, telemetry on.
    pub fn quick() -> Self {
        let mut cfg = ServeConfig::new(2);
        cfg.epoch_len = 256;
        cfg.telemetry = true;
        let token = PrivilegeToken::acquire();
        for (i, (bench, qos)) in [
            ("gamess", QosClass::Gold),
            ("milc", QosClass::Silver),
            ("povray", QosClass::Bronze),
            ("hmmer", QosClass::Silver),
        ]
        .iter()
        .enumerate()
        {
            let name = format!("t{i}-{bench}");
            cfg.tenants.push(TenantSpec::synthetic(
                &name,
                WorkloadProfile::named(bench).expect("known benchmark"),
                6_000,
            ));
            cfg.set_qos(&name, *qos, &token).expect("tenant just added");
        }
        cfg
    }

    /// Sets a tenant's QoS class — the privileged path.  The required
    /// [`PrivilegeToken`] keeps this off the data plane: a running
    /// service exposes no equivalent, and tenant-supplied input never
    /// reaches this call.
    ///
    /// # Errors
    ///
    /// Returns the unknown tenant name.
    pub fn set_qos(
        &mut self,
        tenant: &str,
        class: QosClass,
        _privilege: &PrivilegeToken,
    ) -> Result<(), String> {
        match self.tenants.iter_mut().find(|t| t.name == tenant) {
            Some(t) => {
                t.qos = class;
                Ok(())
            }
            None => Err(format!("unknown tenant `{tenant}`")),
        }
    }

    /// The shard a tenant name maps to: a stable hash, independent of
    /// tenant order and of everything but `shards` itself.
    pub fn shard_of(&self, tenant: &str) -> usize {
        (derive_seed(SERVE_SEED, &[tenant]) % self.shards.max(1) as u64) as usize
    }
}

/// Per-tenant accounting of one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Shard the tenant was placed on.
    pub shard: usize,
    /// Shard-local ASID the tenant's accesses were tagged with.
    pub asid: u16,
    /// QoS class.
    pub qos: QosClass,
    /// Per-epoch item quota derived from the class.
    pub quota: usize,
    /// Trace items the tenant submitted in total.
    pub items: u64,
    /// Stores among those items.
    pub stores: u64,
    /// Epochs the tenant needed to submit its trace (a throttled tenant
    /// spreads the same items over more epochs).
    pub epochs_used: u64,
    /// Largest item count the tenant placed into any single epoch;
    /// bounded by `quota` — the data plane re-checks this.
    pub max_items_in_epoch: u64,
}

/// The outcome of one shard: everything the determinism contract pins.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Tenant names on this shard, in canonical (config) order.
    pub tenants: Vec<String>,
    /// Epoch batches processed.
    pub epochs: u64,
    /// Trace items replayed.
    pub items: u64,
    /// Stores replayed.
    pub stores: u64,
    /// SecPB-accepted persists (`secpb.persists`).
    pub persists: u64,
    /// Analytic hashes charged to epoch-boundary metadata syncs.
    pub sync_hashes: u64,
    /// Final simulated cycle.
    pub cycles: u64,
    /// Model-invariant anomalies (must be 0).
    pub anomalies: u64,
    /// QoS violations observed by the data-plane re-check (must be 0).
    pub qos_violations: u64,
    /// Every QoS violation with tenant, class, and epoch (empty in a
    /// healthy run).
    pub qos_events: Vec<QosViolation>,
    /// Epoch-parts deferred under brown-out degradation (deferred, never
    /// dropped — flushed before the final crash check).
    pub shed: u64,
    /// Tenant chunks replayed into the shard after crash recoveries.
    pub replayed: u64,
    /// Times the shard was restored from its epoch checkpoint.
    pub restored: u64,
    /// Entries drained by the final crash check.  Always `Some` from
    /// [`run_serve`]; an `Option` so a caller that crashes a system of
    /// its own can record a failed drain.
    pub crash_drained: Option<u64>,
    /// Whether the post-crash recovery sweep was consistent.
    pub recovery_consistent: bool,
    /// Per-epoch health snapshots (empty with telemetry off).
    pub snapshots: Vec<HealthSnapshot>,
    /// Telemetry events dropped by the shard's ring.
    pub telemetry_dropped: u64,
    /// Raw shard statistics.
    pub stats: secpb_sim::stats::Stats,
}

impl ShardOutcome {
    /// A stable hex digest over everything the determinism contract
    /// covers: tenant names, cycles, every stat counter and histogram,
    /// the sync-hash total, and the recovery verdict.  Two runs placing
    /// the same tenants on a shard — at any shard count or worker count,
    /// telemetry on or off — must produce equal digests.
    ///
    /// The fault-tolerance counters ([`Self::shed`], [`Self::replayed`],
    /// [`Self::restored`]) are deliberately excluded: a shard that
    /// crashed and recovered must digest byte-identically to the
    /// uninterrupted reference run.  (Shed counts are still
    /// crash-invariant — the soak harness asserts their equality
    /// separately.)
    pub fn digest(&self) -> String {
        let mut hasher = secpb_crypto::sha512::Sha512::new();
        for t in &self.tenants {
            hasher.update(t.as_bytes());
            hasher.update(b"\0");
        }
        for v in [
            self.epochs,
            self.items,
            self.stores,
            self.persists,
            self.sync_hashes,
            self.cycles,
            self.anomalies,
            self.qos_violations,
            self.crash_drained.unwrap_or(u64::MAX),
            u64::from(self.recovery_consistent),
        ] {
            hasher.update(&v.to_le_bytes());
        }
        for (name, value) in self.stats.iter() {
            hasher.update(name.as_bytes());
            hasher.update(&value.to_le_bytes());
        }
        for (name, hist) in self.stats.histograms() {
            hasher.update(name.as_bytes());
            for &count in hist.counts() {
                hasher.update(&count.to_le_bytes());
            }
        }
        hasher.finalize().to_hex()
    }
}

/// The outcome of a whole service run.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-shard outcomes, indexed by shard (empty shards included).
    pub shards: Vec<ShardOutcome>,
    /// Per-tenant accounting, in config order.
    pub tenants: Vec<TenantReport>,
    /// Epoch batches run; see [`PoolStats`].
    pub pool: PoolStats,
}

/// How many epoch batches the shards ran, plus three fields that always
/// read 0.  Each shard runs its epochs in order on one worker, so no
/// batch is stolen, queued or held back: `stolen`, `backpressure_waits`
/// and `max_queue_depth` remain only because the host-time benchmark's
/// `pool.*` per-layer metrics still read them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Epoch batches run to completion across all shards, journal
    /// replays included (the trailing flush of deferred parts is not a
    /// batch).
    pub executed: u64,
    /// Always 0.
    pub stolen: u64,
    /// Always 0.
    pub backpressure_waits: u64,
    /// Always 0.
    pub max_queue_depth: u64,
}

impl ServeOutcome {
    /// Total stores replayed across all shards.
    pub fn total_stores(&self) -> u64 {
        self.shards.iter().map(|s| s.stores).sum()
    }

    /// Total SecPB-accepted persists across all shards.
    pub fn total_persists(&self) -> u64 {
        self.shards.iter().map(|s| s.persists).sum()
    }

    /// Total model-invariant anomalies (0 in a healthy run).
    pub fn total_anomalies(&self) -> u64 {
        self.shards.iter().map(|s| s.anomalies).sum()
    }

    /// Total QoS violations (0 in a healthy run).
    pub fn total_qos_violations(&self) -> u64 {
        self.shards.iter().map(|s| s.qos_violations).sum()
    }

    /// Whether every shard's recovery sweep was consistent.
    pub fn consistent(&self) -> bool {
        self.shards.iter().all(|s| s.recovery_consistent)
    }

    /// Total epoch-parts deferred by brown-outs.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Total tenant chunks replayed after crash recoveries.
    pub fn total_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    /// Total shard restores from epoch checkpoints.
    pub fn total_restored(&self) -> u64 {
        self.shards.iter().map(|s| s.restored).sum()
    }

    /// Every QoS violation across all shards, in shard order.
    pub fn qos_events(&self) -> impl Iterator<Item = &QosViolation> {
        self.shards.iter().flat_map(|s| s.qos_events.iter())
    }
}

/// One tenant as its shard sees it.
struct Member<'a> {
    name: &'a str,
    qos: QosClass,
    /// Per-epoch item quota derived from the class (at least 1).
    quota: usize,
    /// The tenant's whole ASID-tagged stream, loaded before the first
    /// epoch.
    items: &'a [TraceItem],
}

impl<'a> Member<'a> {
    /// Epochs the member needs to submit its stream at its quota.
    fn epochs(&self) -> u64 {
        self.items.len().div_ceil(self.quota) as u64
    }

    /// The member's part of epoch `epoch`: its `epoch`-th quota-sized
    /// chunk, if its stream reaches that far.
    fn chunk(&self, epoch: u64) -> Option<&'a [TraceItem]> {
        self.items.chunks(self.quota).nth(epoch as usize)
    }
}

/// One part of an epoch: a member's shard-local position and the items
/// it contributes.
type Part<'a> = (usize, &'a [TraceItem]);

/// An injected crash stopped the epoch mid-way; the shard must rewind.
struct Crashed;

/// Shedding priority: higher ranks are shed first during a brown-out.
fn class_rank(qos: QosClass) -> usize {
    match qos {
        QosClass::Gold => 0,
        QosClass::Silver => 1,
        QosClass::Bronze => 2,
    }
}

/// How deep a brown-out cuts: the lowest class rank that gets *shed*
/// (classes at or past the returned rank are deferred).  The budget is
/// compared against the energy of a full SecPB drain for the scheme: a
/// budget that funds a full drain sheds nothing (rank 3 — past bronze);
/// one that funds at least half sheds bronze only; anything tighter
/// sheds silver too.  Gold is never shed, so every brown-out epoch
/// still makes forward progress.
fn shed_rank_floor(plan: &ServeFaultPlan, scheme: Scheme, secpb_entries: usize) -> usize {
    if plan.brown_out_every == 0 {
        return 3;
    }
    let full = secpb_drain_energy(energy_scheme(scheme), secpb_entries);
    let budget = plan.brown_out.budget_joules;
    if budget >= full {
        3
    } else if budget >= full / 2.0 {
        2
    } else {
        1
    }
}

/// The shard-level accounting the determinism contract covers — what a
/// checkpoint captures next to the system and a rewind restores.
/// Telemetry state (monitor, ring reader, emitted snapshots) is
/// deliberately absent: it observes, never steers, so replayed epochs
/// simply re-emit events.
#[derive(Clone, Default)]
struct Progress<'a> {
    epochs: u64,
    items: u64,
    stores: u64,
    sync_hashes: u64,
    qos_violations: u64,
    qos_events: Vec<QosViolation>,
    /// Parts deferred by brown-outs, awaiting the next served epoch.
    deferred: Vec<Part<'a>>,
    shed: u64,
}

/// One shard while it runs.
struct Shard<'a> {
    sys: SecureSystem,
    members: &'a [Member<'a>],
    monitor: HealthMonitor,
    reader: Option<TelemetryReader>,
    front_name: String,
    /// Brown-out epoch period from the fault plan (`0` = never).
    brown_out_every: u64,
    /// Lowest class rank shed during a brown-out (see
    /// [`shed_rank_floor`]).
    shed_floor: usize,
    /// Crash trigger clock (`None` = crash injection disabled).
    fault_clock: Option<FaultClock>,
    /// Checkpoint cadence in epochs (`0` = off).
    checkpoint_every: u64,
    progress: Progress<'a>,
    /// The last checkpoint's rewind point (`None` until the first
    /// checkpoint) and the accounting captured with it.
    rewind_point: Option<Snapshot>,
    saved: Progress<'a>,
    snapshots: Vec<HealthSnapshot>,
    replayed: u64,
    restored: u64,
}

impl<'a> Shard<'a> {
    /// Runs one epoch: brown-out shedding, the data-plane QoS re-check,
    /// trace replay (with the crash trigger `armed` on new ground), the
    /// epoch-boundary metadata drain, and — on cadence — a checkpoint.
    /// A crash leaves the epoch half-done; the caller rewinds.
    fn run_epoch(&mut self, epoch: u64, batch: Vec<Part<'a>>, armed: bool) -> Result<(), Crashed> {
        // Brown-out degradation: during an affected epoch, parts whose
        // class the budget cannot fund are deferred — bronze first,
        // never gold, never dropped.  Previously deferred parts re-enter
        // ahead of the epoch's own parts (oldest work first) and are
        // re-deferred if the brown-out persists.
        let browned = self.brown_out_every > 0 && (epoch + 1).is_multiple_of(self.brown_out_every);
        let deferred = std::mem::take(&mut self.progress.deferred);
        let mut parts = Vec::with_capacity(batch.len() + deferred.len());
        for (member, items) in deferred.into_iter().chain(batch) {
            if browned && class_rank(self.members[member].qos) >= self.shed_floor {
                self.progress.shed += 1;
                self.progress.deferred.push((member, items));
            } else {
                parts.push((member, items));
            }
        }

        let mut epoch_items = 0u64;
        for (member, items) in parts {
            // Data-plane QoS re-check: epochs are cut by quota, so any
            // oversized contribution here is a violated invariant, not a
            // throttling decision.
            let m = &self.members[member];
            if items.len() > m.quota {
                self.progress.qos_violations += 1;
                self.progress.qos_events.push(QosViolation {
                    tenant: m.name.to_owned(),
                    qos: m.qos,
                    epoch,
                    items: items.len() as u64,
                    quota: m.quota as u64,
                });
            }
            self.replay_items(items, armed)?;
            epoch_items += items.len() as u64;
        }
        // The epoch-boundary drain: fold the whole epoch's deferred
        // tree paths and counter digests in one batched observation
        // point.
        self.progress.sync_hashes += self.sys.sync_metadata();
        self.progress.items += epoch_items;
        self.progress.epochs += 1;
        self.snapshot();
        if self.checkpoint_every > 0 && self.progress.epochs.is_multiple_of(self.checkpoint_every) {
            self.take_checkpoint();
        }
        Ok(())
    }

    /// Replays one part's items.  When `armed`, every completed store
    /// advances the crash trigger, and a firing stops the part there.
    fn replay_items(&mut self, items: &[TraceItem], armed: bool) -> Result<(), Crashed> {
        for &item in items {
            let is_store = item.access.is_some_and(|a| a.is_store());
            if is_store {
                self.progress.stores += 1;
            }
            self.sys.step(item);
            if is_store && armed {
                if let Some(clock) = self.fault_clock.as_mut() {
                    if clock
                        .observe_store(self.sys.finish_time().raw(), self.sys.drains_in_flight())
                    {
                        return Err(Crashed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Captures the shard at the current epoch boundary: recovery
    /// rewinds here and replays forward.
    fn take_checkpoint(&mut self) {
        self.sys.snapshot_into(&mut self.rewind_point);
        self.saved.clone_from(&self.progress);
    }

    /// Crash recovery: rewinds to the last checkpoint and returns its
    /// epoch, where the journal replay starts.  The rewind point stays
    /// intact, so a second crash before the next checkpoint rewinds to
    /// it again.
    fn rewind(&mut self) -> u64 {
        let snapshot = self
            .rewind_point
            .as_ref()
            .expect("serve checkpoints every populated shard at startup");
        self.sys
            .rewind(snapshot)
            .expect("a shard rewinds to its own snapshot");
        self.progress.clone_from(&self.saved);
        self.restored += 1;
        self.progress.epochs
    }

    /// Executes any parts still deferred at the end as one trailing
    /// epoch: brown-outs defer, they never drop.  Nothing is shed and
    /// nothing can crash here.
    fn flush_deferred(&mut self) {
        if self.progress.deferred.is_empty() {
            return;
        }
        let mut epoch_items = 0u64;
        for (_, items) in std::mem::take(&mut self.progress.deferred) {
            // Disarmed, so this always runs to the end.
            let _ = self.replay_items(items, false);
            epoch_items += items.len() as u64;
        }
        self.progress.sync_hashes += self.sys.sync_metadata();
        self.progress.items += epoch_items;
        self.progress.epochs += 1;
        self.snapshot();
    }

    /// Drains the telemetry ring into the shard monitor and emits one
    /// snapshot (no-op with telemetry off).
    fn snapshot(&mut self) {
        let Some(reader) = self.reader.as_mut() else {
            return;
        };
        self.monitor.absorb(reader, |_, _, _| {});
        let occupancy = self.sys.occupancy();
        let gauges = HealthGauges {
            occupancy,
            anomalies: self.sys.anomalies(),
            nwpe: self
                .sys
                .stats()
                .ratio(counters::PERSISTS, counters::ALLOCATIONS),
            battery_joules: secpb_drain_energy(
                energy_scheme(self.sys.scheme()),
                occupancy as usize,
            ),
            recovery_cycles: self.sys.recovery_cost().cycles,
            shed_parts: self.progress.shed,
            replayed_chunks: self.replayed,
            restored_shards: self.restored,
        };
        let snap = self.monitor.snapshot(
            self.sys.finish_time().raw(),
            &self.front_name,
            self.sys.scheme().name(),
            self.sys.stats(),
            &gauges,
            histograms::DRAIN_LATENCY,
            reader.dropped(),
        );
        self.snapshots.push(snap);
    }
}

/// Serves one shard from start to finish and returns its outcome plus
/// the epoch batches it ran.
///
/// Builds the shard's system (keyed by its member names, never its
/// index) and takes the epoch-zero rewind point, so even a crash in the
/// first epoch has one.  Then it walks the epochs in order.  The journal
/// is the epochs since the last checkpoint: when the crash trigger
/// fires, the shard rewinds and replays them, trigger disarmed, ahead of
/// the next new epoch.  At the end it flushes the deferred parts, runs
/// the final crash check (power loss, full drain, recovery sweep) and
/// drains the ring once more so late events (crash markers) are
/// accounted.
fn serve_shard(
    cfg: &ServeConfig,
    shard: usize,
    members: &[Member<'_>],
    shed_floor: usize,
) -> Result<(ShardOutcome, u64), ServeError> {
    let names: Vec<&str> = members.iter().map(|m| m.name).collect();
    let mut sys = SecureSystem::with_tree(
        cfg.sys_cfg.clone(),
        cfg.scheme,
        cfg.tree,
        derive_seed(cfg.seed, &names),
    );
    let reader = cfg.telemetry.then(|| {
        let (sink, reader) = telemetry::channel(DEFAULT_RING_CAPACITY);
        sys.set_telemetry(Some(sink));
        reader
    });
    let mut s = Shard {
        sys,
        members,
        monitor: HealthMonitor::new(),
        reader,
        front_name: format!("serve-shard{shard}"),
        brown_out_every: cfg.faults.brown_out_every,
        shed_floor,
        fault_clock: cfg
            .faults
            .crashes()
            .then(|| FaultClock::new(cfg.faults.trigger)),
        checkpoint_every: cfg.checkpoint_every,
        progress: Progress::default(),
        rewind_point: None,
        saved: Progress::default(),
        snapshots: Vec::new(),
        replayed: 0,
        restored: 0,
    };
    let epochs = members.iter().map(Member::epochs).max().unwrap_or(0);
    let batch = |epoch: u64| {
        members
            .iter()
            .enumerate()
            .filter_map(|(m, member)| member.chunk(epoch).map(|items| (m, items)))
            .collect::<Vec<_>>()
    };
    if cfg.checkpoint_every > 0 && epochs > 0 {
        s.take_checkpoint();
    }

    let mut executed = 0u64;
    let mut epoch = 0u64;
    // Epochs before this one are journal replays: the trigger is
    // disarmed there, so recovery always makes forward progress.
    let mut new_ground = 0u64;
    while epoch < epochs {
        match s.run_epoch(epoch, batch(epoch), epoch >= new_ground) {
            Ok(()) => {
                executed += 1;
                epoch += 1;
            }
            Err(Crashed) => {
                new_ground = epoch + 1;
                epoch = s.rewind();
                s.replayed += (epoch..new_ground)
                    .map(|e| batch(e).len() as u64)
                    .sum::<u64>();
            }
        }
    }

    s.flush_deferred();
    let report = s
        .sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .map_err(|e| ServeError::CrashCheck {
            shard,
            detail: e.to_string(),
        })?;
    let recovery_consistent = s.sys.recover().is_consistent();
    s.snapshot();
    let stats = s.sys.stats().clone();
    let p = s.progress;
    let outcome = ShardOutcome {
        shard,
        tenants: names.iter().map(|&n| n.to_owned()).collect(),
        epochs: p.epochs,
        items: p.items,
        stores: p.stores,
        persists: stats.get(counters::PERSISTS),
        sync_hashes: p.sync_hashes,
        cycles: s.sys.finish_time().raw(),
        anomalies: s.sys.anomalies(),
        qos_violations: p.qos_violations,
        qos_events: p.qos_events,
        shed: p.shed,
        replayed: s.replayed,
        restored: s.restored,
        crash_drained: Some(report.work.entries),
        recovery_consistent,
        snapshots: s.snapshots,
        telemetry_dropped: s.reader.as_ref().map_or(0, TelemetryReader::dropped),
        stats,
    };
    Ok((outcome, executed))
}

/// Loads or generates one tenant's full item stream, ASID-tagged.
fn tenant_items(
    cfg: &ServeConfig,
    spec: &TenantSpec,
    asid: Asid,
) -> Result<Vec<TraceItem>, ServeError> {
    let fail = |path: &str, e: &dyn std::fmt::Display| ServeError::Tenant {
        tenant: spec.name.clone(),
        detail: format!("{path}: {e}"),
    };
    let raw = match &spec.source {
        TenantSource::Synthetic(profile) => {
            let seed = derive_seed(cfg.seed, &[spec.name.as_str()]);
            TraceGenerator::new(profile.clone(), seed).generate(spec.instructions)
        }
        TenantSource::File(path) => {
            let file = std::fs::File::open(path).map_err(|e| fail(path, &e))?;
            trace_io::read_trace(std::io::BufReader::new(file)).map_err(|e| fail(path, &e))?
        }
    };
    Ok(raw
        .into_iter()
        .map(|mut item| {
            if let Some(a) = item.access.as_mut() {
                a.asid = asid;
            }
            item
        })
        .collect())
}

/// Runs the service to completion.
///
/// # Errors
///
/// Fails on an invalid configuration (no tenants, duplicate names, a
/// crash plan without checkpointing), an unreadable or malformed tenant
/// trace file (naming the item index and byte offset), or a failed
/// final crash drain — each as its own [`ServeError`] variant.
///
/// # Panics
///
/// A panic inside a shard is a bug, not an injected crash, and
/// propagates to the caller.
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeOutcome, ServeError> {
    if cfg.shards == 0 {
        return Err(ServeError::Config("shard count must be at least 1".into()));
    }
    if cfg.tenants.is_empty() {
        return Err(ServeError::Config("at least one tenant is required".into()));
    }
    for (i, t) in cfg.tenants.iter().enumerate() {
        if cfg.tenants[..i].iter().any(|o| o.name == t.name) {
            return Err(ServeError::Config(format!(
                "duplicate tenant name `{}`",
                t.name
            )));
        }
    }
    if cfg.faults.crashes() && cfg.checkpoint_every == 0 {
        return Err(ServeError::Config(
            "crash injection requires checkpointing (checkpoint_every > 0)".into(),
        ));
    }

    // Placement: tenant → shard by stable name hash; ASID = shard-local
    // position + 1 (0 is reserved), so a shard's ASID map depends only
    // on its own member list.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); cfg.shards];
    for (i, t) in cfg.tenants.iter().enumerate() {
        members[cfg.shard_of(&t.name)].push(i);
    }
    let mut placement = vec![(0usize, 0u16); cfg.tenants.len()];
    for (shard, list) in members.iter().enumerate() {
        for (local, &tenant) in list.iter().enumerate() {
            placement[tenant] = (shard, (local + 1) as u16);
        }
    }

    // Load/generate every tenant's ASID-tagged item stream up front so
    // malformed trace files fail service startup, not mid-flight.
    let mut streams: Vec<Vec<TraceItem>> = Vec::with_capacity(cfg.tenants.len());
    for (i, spec) in cfg.tenants.iter().enumerate() {
        streams.push(tenant_items(cfg, spec, Asid(placement[i].1))?);
    }
    let quotas: Vec<usize> = cfg
        .tenants
        .iter()
        .map(|t| t.qos.epoch_quota(cfg.epoch_len))
        .collect();

    let shed_floor = shed_rank_floor(&cfg.faults, cfg.scheme, cfg.sys_cfg.secpb.entries);
    let served = pool::run_indexed(cfg.shards, cfg.workers, |shard| {
        let list: Vec<Member<'_>> = members[shard]
            .iter()
            .map(|&t| Member {
                name: &cfg.tenants[t].name,
                qos: cfg.tenants[t].qos,
                quota: quotas[t],
                items: &streams[t],
            })
            .collect();
        serve_shard(cfg, shard, &list, shed_floor)
    });
    let mut shards = Vec::with_capacity(cfg.shards);
    let mut pool = PoolStats::default();
    for result in served {
        let (outcome, executed) = result?;
        pool.executed += executed;
        shards.push(outcome);
    }

    let tenants = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (shard, asid) = placement[i];
            let quota = quotas[i];
            let items = streams[i].len() as u64;
            let stores = streams[i]
                .iter()
                .filter(|it| it.access.is_some_and(|a| a.is_store()))
                .count() as u64;
            let epochs_used = items.div_ceil(quota as u64);
            TenantReport {
                name: spec.name.clone(),
                shard,
                asid,
                qos: spec.qos,
                quota,
                items,
                stores,
                epochs_used,
                max_items_in_epoch: (quota as u64).min(items),
            }
        })
        .collect();

    Ok(ServeOutcome {
        shards,
        tenants,
        pool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_cfg(shards: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(shards);
        cfg.epoch_len = 128;
        cfg.tenants = vec![
            TenantSpec::synthetic("alpha", WorkloadProfile::named("gamess").unwrap(), 4_000),
            TenantSpec::synthetic("beta", WorkloadProfile::named("milc").unwrap(), 4_000),
        ];
        cfg
    }

    #[test]
    fn serve_replays_drains_and_recovers() {
        let out = run_serve(&two_tenant_cfg(2)).unwrap();
        assert!(out.total_stores() > 0);
        assert!(out.total_persists() > 0);
        // The DBMF root cache means epoch-boundary syncs fold real
        // deferred tree work — the amortization the service exists for.
        assert!(
            out.shards.iter().any(|s| s.sync_hashes > 0),
            "epoch drains folded no deferred tree work"
        );
        assert_eq!(out.total_anomalies(), 0);
        assert_eq!(out.total_qos_violations(), 0);
        assert!(out.consistent());
        let populated: Vec<_> = out
            .shards
            .iter()
            .filter(|s| !s.tenants.is_empty())
            .collect();
        assert!(!populated.is_empty());
        for s in populated {
            assert!(s.epochs > 0, "shard {} processed no epochs", s.shard);
            assert!(s.crash_drained.is_some());
        }
    }

    #[test]
    fn empty_shards_are_benign() {
        // 8 shards, 2 tenants: most shards stay empty and must not
        // affect the outcome.
        let out = run_serve(&two_tenant_cfg(8)).unwrap();
        assert_eq!(out.shards.len(), 8);
        assert!(out.total_stores() > 0);
        let empty = out.shards.iter().filter(|s| s.tenants.is_empty()).count();
        assert!(empty >= 6);
        for s in out.shards.iter().filter(|s| s.tenants.is_empty()) {
            assert_eq!(s.items, 0);
            assert_eq!(s.epochs, 0);
        }
    }

    #[test]
    fn qos_quota_is_always_at_least_one() {
        assert_eq!(QosClass::Bronze.epoch_quota(1), 1);
        assert_eq!(QosClass::Gold.epoch_quota(0), 1);
        assert_eq!(QosClass::Silver.epoch_quota(100), 50);
        assert_eq!(QosClass::Bronze.epoch_quota(100), 25);
    }

    #[test]
    fn set_qos_requires_known_tenant() {
        let mut cfg = two_tenant_cfg(1);
        let token = PrivilegeToken::acquire();
        assert!(cfg.set_qos("alpha", QosClass::Gold, &token).is_ok());
        assert_eq!(cfg.tenants[0].qos(), QosClass::Gold);
        assert!(cfg.set_qos("nobody", QosClass::Gold, &token).is_err());
    }

    #[test]
    fn duplicate_tenants_are_rejected() {
        let mut cfg = two_tenant_cfg(1);
        cfg.tenants.push(TenantSpec::synthetic(
            "alpha",
            WorkloadProfile::named("gcc").unwrap(),
            100,
        ));
        let err = run_serve(&cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)));
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn crash_injection_without_checkpoints_is_rejected() {
        let mut cfg = two_tenant_cfg(1);
        cfg.checkpoint_every = 0;
        cfg.faults.trigger = CrashTrigger::EveryNthStore(100);
        let err = run_serve(&cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)));
        assert!(err.to_string().contains("checkpoint"));
    }

    fn gamess_items(n: usize) -> Vec<TraceItem> {
        let items: Vec<TraceItem> =
            TraceGenerator::new(WorkloadProfile::named("gamess").unwrap(), 7)
                .generate(200)
                .into_iter()
                .take(n)
                .collect();
        assert_eq!(items.len(), n);
        items
    }

    #[test]
    fn qos_violations_name_tenant_class_and_epoch() {
        // Hand-feed a shard an oversized part to exercise the data-plane
        // re-check (epochs cut by quota never produce one).
        let items = gamess_items(3);
        let members = [Member {
            name: "bob",
            qos: QosClass::Bronze,
            quota: 2,
            items: &items,
        }];
        let mut shard = Shard {
            sys: SecureSystem::with_tree(SystemConfig::default(), Scheme::Cobcm, TreeKind::Dbmf, 1),
            members: &members,
            monitor: HealthMonitor::new(),
            reader: None,
            front_name: "test".into(),
            brown_out_every: 0,
            shed_floor: 3,
            fault_clock: None,
            checkpoint_every: 0,
            progress: Progress::default(),
            rewind_point: None,
            saved: Progress::default(),
            snapshots: Vec::new(),
            replayed: 0,
            restored: 0,
        };
        assert!(shard.run_epoch(5, vec![(0, &items)], true).is_ok());
        let progress = &shard.progress;
        assert_eq!(progress.qos_violations, 1);
        let v = &progress.qos_events[0];
        assert_eq!(
            (v.tenant.as_str(), v.qos, v.epoch),
            ("bob", QosClass::Bronze, 5)
        );
        assert_eq!((v.items, v.quota), (3, 2));
        let text = v.to_string();
        assert!(
            text.contains("bob") && text.contains("bronze") && text.contains("epoch 5"),
            "{text}"
        );
    }

    #[test]
    fn injected_crashes_recover_to_the_crash_free_digests() {
        // (checkpoint every k epochs, crash every n stores): frequent
        // checkpoints, then checkpoints rare enough that several crashes
        // rewind to the same snapshot.
        for (every, crash_stores) in [(2, 40), (16, 40)] {
            let mut cfg = two_tenant_cfg(2);
            cfg.checkpoint_every = every;
            cfg.faults = ServeFaultPlan::storm(7, crash_stores, 0, f64::INFINITY);
            let faulted = run_serve(&cfg).unwrap();
            assert!(faulted.total_restored() > 0, "storm fired no crashes");
            assert!(faulted.total_replayed() > 0);
            assert!(faulted.consistent());
            assert_eq!(faulted.total_anomalies(), 0);
            assert_eq!(faulted.total_qos_violations(), 0);
            if every == 16 {
                // Every boundary checkpoint is taken exactly once (a
                // rewind never goes behind the latest one), plus the
                // epoch-zero one: more restores than checkpoints means
                // some snapshot served at least two crashes.
                let checkpoints: u64 = faulted
                    .shards
                    .iter()
                    .filter(|s| !s.tenants.is_empty())
                    .map(|s| 1 + s.epochs / every)
                    .sum();
                assert!(
                    faulted.total_restored() > checkpoints,
                    "{} restores over {checkpoints} checkpoints",
                    faulted.total_restored()
                );
            }

            let mut reference = cfg.clone();
            reference.faults = cfg.faults.crash_free();
            let reference = run_serve(&reference).unwrap();
            assert_eq!(reference.total_restored(), 0);
            let digests = |o: &ServeOutcome| {
                o.shards
                    .iter()
                    .filter(|s| !s.tenants.is_empty())
                    .map(|s| (s.tenants.clone(), s.digest()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                digests(&faulted),
                digests(&reference),
                "checkpoint every {every}: restored shards diverged from the \
                 uninterrupted reference"
            );
        }
    }

    #[test]
    fn brown_outs_shed_bronze_first_and_never_drop_work() {
        let token = PrivilegeToken::acquire();
        let mut cfg = two_tenant_cfg(1);
        cfg.tenants.push(TenantSpec::synthetic(
            "gamma",
            WorkloadProfile::named("povray").unwrap(),
            4_000,
        ));
        cfg.set_qos("alpha", QosClass::Gold, &token).unwrap();
        cfg.set_qos("beta", QosClass::Silver, &token).unwrap();
        cfg.set_qos("gamma", QosClass::Bronze, &token).unwrap();
        // A budget funding just over half a full drain: bronze defers,
        // gold and silver keep their slots.
        let full = secpb_drain_energy(energy_scheme(cfg.scheme), cfg.sys_cfg.secpb.entries);
        cfg.faults = ServeFaultPlan {
            seed: 3,
            trigger: CrashTrigger::Never,
            brown_out_every: 2,
            brown_out: BrownOut::with_budget(full * 0.6),
        };
        let out = run_serve(&cfg).unwrap();
        assert!(out.total_shed() > 0, "brown-outs shed nothing");
        // Deferred, never dropped: every submitted item reached a shard.
        let tenant_items: u64 = out.tenants.iter().map(|t| t.items).sum();
        let shard_items: u64 = out.shards.iter().map(|s| s.items).sum();
        assert_eq!(tenant_items, shard_items);
        assert_eq!(out.total_qos_violations(), 0);
        assert_eq!(out.total_anomalies(), 0);
        assert!(out.consistent());

        // The same brown-outs with crashes layered on top: digests and
        // shed counts must still match the crash-free run exactly.
        let mut crashed = cfg.clone();
        crashed.checkpoint_every = 2;
        crashed.faults.trigger = CrashTrigger::EveryNthStore(60);
        let crashed = run_serve(&crashed).unwrap();
        assert!(crashed.total_restored() > 0, "no crashes fired");
        assert_eq!(crashed.total_shed(), out.total_shed());
        assert_eq!(
            crashed
                .shards
                .iter()
                .map(ShardOutcome::digest)
                .collect::<Vec<_>>(),
            out.shards
                .iter()
                .map(ShardOutcome::digest)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn quick_config_smokes() {
        let out = run_serve(&ServeConfig::quick()).unwrap();
        assert!(out.total_stores() > 0);
        assert_eq!(out.total_anomalies(), 0);
        assert_eq!(out.total_qos_violations(), 0);
        assert!(out.consistent());
        // Telemetry is on: populated shards stream snapshots.
        assert!(out
            .shards
            .iter()
            .filter(|s| !s.tenants.is_empty())
            .all(|s| !s.snapshots.is_empty()));
    }
}
