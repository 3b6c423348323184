//! The sharded multi-tenant persist service: `secpb serve`.
//!
//! Runs N independent [`PersistDomain`]-backed shards side by side, each
//! a full single-core SecPB front, and serves streaming store traces
//! from many concurrent tenants:
//!
//! * **Sharding** — a tenant (and its ASID) maps to a shard by a stable
//!   `derive_seed`-style hash of its name, so placement is a pure
//!   function of the tenant, never of arrival order.
//! * **Ingest** — one client thread per tenant streams its trace in
//!   per-epoch chunks; an assembler folds the concurrently-arriving
//!   chunks into *canonical* per-shard epoch batches (tenants in
//!   shard-local order) and feeds them to the long-lived shard workers
//!   of [`pool::run_sharded`] through bounded ingress queues with
//!   bounded work stealing.
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
//! (not the shard index or count), epoch batches are assembled in
//! canonical tenant order regardless of chunk arrival, and the pool
//! processes each shard's batches FIFO under an exclusive claim — so the
//! same tenants produce **byte-identical** shard stats and recovery
//! verdicts at any shard count, worker count, interleaving, or steal
//! schedule, with telemetry on or off.  [`ShardOutcome::digest`] pins
//! that contract.
//!
//! # Fault tolerance
//!
//! The serve plane survives its own workers dying mid-epoch.  Every
//! shard with tenants snapshots its full system state into an in-memory
//! rewind point ([`PersistSystem::snapshot_into`]) every
//! [`ServeConfig::checkpoint_every`] epochs and journals the batches
//! processed since.  A worker panic — injected by a [`ServeFaultPlan`]
//! crash trigger or otherwise — is caught by the pool while the shard
//! claim is still held: the shard rewinds to its last snapshot
//! ([`PersistSystem::rewind`]), the journal replays in order ahead of
//! all queued work, and because rewind-then-replay is byte-identical to
//! the uninterrupted run (the [`checkpoint`] module's contract), the
//! recovered shard digests exactly like one that never crashed.  The
//! rewind point never leaves the process, so the shard copies its state
//! instead of encoding SPBC bytes, and each checkpoint or rewind copies
//! only what changed since the previous one.
//! Brown-out epochs degrade gracefully instead: parts whose QoS class
//! the energy budget cannot fund are *deferred* to a later epoch —
//! bronze first, gold never, nothing ever dropped.  Ingress backpressure
//! is bounded: a shard whose queue never frees space turns into a typed
//! [`ServeError::ShardWedged`] instead of an indefinite condvar wait.
//!
//! [`PersistDomain`]: secpb_core::domain::PersistDomain
//! [`checkpoint`]: secpb_core::checkpoint

use std::collections::VecDeque;
use std::sync::mpsc;

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
use secpb_sim::pool::{self, ShardPoolConfig, ShardPoolError, ShardPoolStats};
use secpb_sim::telemetry::{
    self, HealthGauges, HealthMonitor, HealthSnapshot, TelemetryReader, DEFAULT_RING_CAPACITY,
};
use secpb_sim::trace::TraceItem;
use secpb_workloads::{trace_io, TraceGenerator, WorkloadProfile};

use crate::storm::energy_scheme;

/// Deterministic seed base for the service plane (tenant placement and
/// shard key derivation both salt from here).
pub const SERVE_SEED: u64 = 0x5E2B_5EED;

/// Marker prefix of the panics a [`ServeFaultPlan`] crash trigger
/// injects (see [`quiet_injected_faults`]).
const INJECTED_FAULT: &str = "injected shard fault";

/// Why a service run failed.  Typed so callers (the CLI, the soak
/// harness, CI gates) report faults precisely instead of pattern-matching
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The configuration is unusable (shard count, tenant set, a fault
    /// plan without checkpointing, a misrouted task).
    Config(String),
    /// A tenant's trace could not be loaded; for malformed SPB1 files
    /// the detail names the item index and byte offset.
    Tenant {
        /// The tenant whose trace failed.
        tenant: String,
        /// I/O or parse detail.
        detail: String,
    },
    /// A shard's ingress queue stayed full past
    /// [`ServeConfig::wedge_timeout_ms`]: its worker is stuck (or
    /// pathologically slow) and the producer refuses to block forever.
    ShardWedged {
        /// The wedged shard.
        shard: usize,
        /// Total milliseconds the producer waited before giving up.
        waited_ms: u64,
    },
    /// Shard workers died with no recovery path (checkpointing disabled,
    /// or a panic inside recovery itself).
    WorkerPanicked {
        /// How many workers died.
        workers: usize,
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
            ServeError::ShardWedged { shard, waited_ms } => write!(
                f,
                "serve: shard {shard} ingress wedged: no queue space freed after {waited_ms} ms"
            ),
            ServeError::WorkerPanicked { workers } => write!(
                f,
                "serve: {workers} shard worker(s) panicked beyond recovery"
            ),
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
/// pure function of the plan and each shard's own canonical batch
/// stream, so the same plan over the same tenants injects the same
/// faults at any shard count, worker count, or interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFaultPlan {
    /// Plan seed (schedules and victim picks derive from it).
    pub seed: u64,
    /// Mid-epoch crash trigger, evaluated per shard against its own
    /// store stream.  A firing panics the shard worker mid-batch; the
    /// pool catches it, the shard restores its last epoch checkpoint and
    /// replays its journal.  Replayed stores never re-arm the trigger,
    /// so recovery always makes forward progress.
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

/// Installs (once, process-wide) a panic hook that silences the panic
/// reports of *injected* shard faults while forwarding every real panic
/// to the previous hook.  A soak run fires hundreds of injected crashes;
/// without this, each one would spray a backtrace onto stderr even
/// though the pool catches and recovers every single one.
pub fn quiet_injected_faults() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(INJECTED_FAULT));
            if !injected {
                prev(info);
            }
        }));
    });
}

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
    /// Worker threads driving the shards.
    pub workers: usize,
    /// Nominal epoch length in trace items ([`QosClass::Gold`]'s
    /// per-epoch quota; lower classes get a fraction).
    pub epoch_len: usize,
    /// Per-shard ingress queue bound (epoch batches).
    pub queue_capacity: usize,
    /// Bounded work stealing: max batches a non-owner may take per
    /// claim; 0 pins every shard to its owner.
    pub steal_bound: usize,
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
    /// Attach a per-shard telemetry ring and emit one
    /// [`HealthSnapshot`] per epoch.
    pub telemetry: bool,
    /// Ring capacity in events when telemetry is on.
    pub ring_capacity: usize,
    /// Crash (power loss, full drain) and verify recovery of every
    /// shard after the last epoch.
    pub crash_check: bool,
    /// Epochs between shard checkpoints (in-memory rewind points, see
    /// [`PersistSystem::snapshot_into`]); crash recovery rewinds to the
    /// latest one and replays the journal.  `0` disables checkpointing —
    /// and with it, crash recovery and the journal.
    pub checkpoint_every: u64,
    /// Producer-side bound (milliseconds) on waiting for a full shard
    /// ingress queue before failing with [`ServeError::ShardWedged`];
    /// `0` waits forever.
    pub wedge_timeout_ms: u64,
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
            queue_capacity: 4,
            steal_bound: 2,
            scheme: Scheme::Cobcm,
            tree: TreeKind::Dbmf,
            sys_cfg: SystemConfig::default(),
            seed: SERVE_SEED,
            telemetry: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
            crash_check: true,
            checkpoint_every: 4,
            wedge_timeout_ms: 10_000,
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

    /// Adds a tenant (with the default QoS class).
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
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
    /// Entries drained by the final crash check (`None` when
    /// [`ServeConfig::crash_check`] is off).
    pub crash_drained: Option<u64>,
    /// Whether the post-crash recovery sweep was consistent (`true`
    /// when the check is off).
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
    /// the same tenants on a shard — at any shard count, worker count,
    /// or interleaving, telemetry on or off — must produce equal
    /// digests.
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
    /// Pool scheduling stats (steals, queue depths, backpressure).
    pub pool: ShardPoolStats,
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

/// One epoch batch bound for a shard: the canonical concatenation of
/// its tenants' chunks for that epoch.  `Clone` because processed
/// batches are journaled for crash replay.
#[derive(Clone)]
struct EpochBatch {
    epoch: u64,
    /// `(asid, items)` per contributing tenant, in shard-local order.
    parts: Vec<(u16, Vec<TraceItem>)>,
}

/// A chunk (or end-of-stream) from one client thread.
enum ClientMsg {
    Chunk {
        tenant: usize,
        epoch: u64,
        items: Vec<TraceItem>,
    },
    Finished {
        tenant: usize,
    },
}

/// Per-tenant shard-local bookkeeping for the data-plane QoS re-check,
/// violation reporting, and brown-out shedding.
struct TenantQuota {
    asid: u16,
    name: String,
    qos: QosClass,
    quota: u64,
}

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

/// Everything needed to rewind a shard to an epoch boundary: the
/// system's in-memory rewind point plus the shard-level accounting the
/// determinism contract covers.  Refreshed in place at every checkpoint
/// so the system twin's allocations are reused.  Telemetry state
/// (monitor, ring reader, emitted snapshots) is deliberately absent — it
/// observes, never steers, so replayed epochs simply re-emit events.
#[derive(Default)]
struct ShardCheckpoint {
    /// `None` until the first checkpoint.
    sys: Option<Snapshot>,
    epochs: u64,
    items: u64,
    stores: u64,
    sync_hashes: u64,
    qos_violations: u64,
    qos_events: Vec<QosViolation>,
    deferred: Vec<(u16, Vec<TraceItem>)>,
    shed: u64,
}

/// The state one shard worker owns.
struct ShardState {
    sys: Box<dyn PersistSystem + Send>,
    monitor: HealthMonitor,
    reader: Option<TelemetryReader>,
    front_name: String,
    scheme_name: &'static str,
    /// Shard-local tenant table for the QoS re-check and shedding.
    tenants: Vec<TenantQuota>,
    epochs: u64,
    items: u64,
    stores: u64,
    sync_hashes: u64,
    qos_violations: u64,
    qos_events: Vec<QosViolation>,
    snapshots: Vec<HealthSnapshot>,
    /// Brown-out epoch period from the fault plan (`0` = never).
    brown_out_every: u64,
    /// Lowest class rank shed during a brown-out (see
    /// [`shed_rank_floor`]).
    shed_floor: usize,
    /// Parts deferred by brown-outs, awaiting the next served epoch.
    deferred: Vec<(u16, Vec<TraceItem>)>,
    shed: u64,
    /// Crash trigger clock (`None` = crash injection disabled).
    fault_clock: Option<FaultClock>,
    /// Checkpoint cadence in epochs (`0` = off).
    checkpoint_every: u64,
    checkpoint: ShardCheckpoint,
    /// Batches processed since the last checkpoint — the replay log
    /// (always empty with checkpointing off).
    journal: Vec<EpochBatch>,
    /// Batches still being replayed after a restore; while non-zero the
    /// crash trigger is disarmed so recovery always makes progress.
    replay_pending: usize,
    replayed: u64,
    restored: u64,
}

impl ShardState {
    /// Folds one epoch batch into the shard: brown-out shedding, the
    /// data-plane QoS re-check, trace replay (with the crash trigger
    /// armed on new ground), the epoch-boundary metadata drain, and —
    /// on cadence — a checkpoint.
    fn process(&mut self, batch: EpochBatch) {
        let replaying = self.replay_pending > 0;
        if replaying {
            self.replay_pending -= 1;
        }
        // The journal must always hold exactly the batches processed
        // since the last checkpoint — replayed batches included, so a
        // second crash during a replay still has a complete log.  With
        // checkpointing off nothing would ever truncate it.
        if self.checkpoint_every > 0 {
            self.journal.push(batch.clone());
        }

        // Brown-out degradation: during an affected epoch, parts whose
        // class the budget cannot fund are deferred — bronze first,
        // never gold, never dropped.  Previously deferred parts re-enter
        // ahead of the epoch's own parts (oldest work first) and are
        // re-deferred if the brown-out persists.
        let browned =
            self.brown_out_every > 0 && (batch.epoch + 1).is_multiple_of(self.brown_out_every);
        let mut parts = Vec::with_capacity(batch.parts.len() + self.deferred.len());
        for (asid, items) in std::mem::take(&mut self.deferred)
            .into_iter()
            .chain(batch.parts)
        {
            let rank = self
                .tenants
                .iter()
                .find(|t| t.asid == asid)
                .map_or(0, |t| class_rank(t.qos));
            if browned && rank >= self.shed_floor {
                self.shed += 1;
                self.deferred.push((asid, items));
            } else {
                parts.push((asid, items));
            }
        }

        let mut epoch_items = 0u64;
        for (asid, items) in &parts {
            // Data-plane QoS re-check: the ingest layer already chunks
            // by quota, so any oversized contribution here is a
            // violated invariant, not a throttling decision.
            match self.tenants.iter().find(|t| t.asid == *asid) {
                Some(t) if items.len() as u64 > t.quota => {
                    self.qos_violations += 1;
                    self.qos_events.push(QosViolation {
                        tenant: t.name.clone(),
                        qos: t.qos,
                        epoch: batch.epoch,
                        items: items.len() as u64,
                        quota: t.quota,
                    });
                }
                Some(_) => {}
                None => self.qos_violations += 1,
            }
            self.replay_items(items, replaying);
            epoch_items += items.len() as u64;
        }
        // The epoch-boundary drain: fold the whole epoch's deferred
        // tree paths and counter digests in one batched observation
        // point.
        self.sync_hashes += self.sys.sync_metadata();
        self.items += epoch_items;
        self.epochs += 1;
        self.snapshot(batch.epoch);
        if self.checkpoint_every > 0 && self.epochs.is_multiple_of(self.checkpoint_every) {
            self.take_checkpoint();
        }
    }

    /// Replays one part's items.  On new ground (not a journal replay)
    /// every completed store advances the crash trigger; a firing dies
    /// mid-epoch *by design* — the pool catches the panic and calls
    /// [`ShardState::recover`] under the held shard claim.
    fn replay_items(&mut self, items: &[TraceItem], replaying: bool) {
        for item in items {
            let is_store = item.access.is_some_and(|a| a.is_store());
            if is_store {
                self.stores += 1;
            }
            self.sys.step(*item);
            if is_store && !replaying {
                if let Some(clock) = self.fault_clock.as_mut() {
                    if clock
                        .observe_store(self.sys.finish_time().raw(), self.sys.drains_in_flight())
                    {
                        panic!(
                            "{INJECTED_FAULT}: store #{} (crash #{})",
                            clock.stores_seen(),
                            clock.crashes_fired()
                        );
                    }
                }
            }
        }
    }

    /// Captures the shard at the current epoch boundary and truncates
    /// the journal: recovery rewinds here and replays forward.  Fronts
    /// without rewind-point support keep the previous capture.
    fn take_checkpoint(&mut self) {
        let cp = &mut self.checkpoint;
        if self.sys.snapshot_into(&mut cp.sys).is_err() {
            return;
        }
        cp.epochs = self.epochs;
        cp.items = self.items;
        cp.stores = self.stores;
        cp.sync_hashes = self.sync_hashes;
        cp.qos_violations = self.qos_violations;
        cp.qos_events.clone_from(&self.qos_events);
        cp.deferred.clone_from(&self.deferred);
        cp.shed = self.shed;
        self.journal.clear();
    }

    /// Crash recovery, run by the pool while the shard claim is still
    /// held: rewind to the last checkpoint and hand back the journaled
    /// batches for in-order replay ahead of all queued work.  Panics
    /// (fatally, by design) if the rewind fails — a shard that cannot
    /// rewind has no consistent state to serve from.  The rewind point
    /// stays intact, so a second crash before the next checkpoint
    /// rewinds to it again.
    fn recover(&mut self) -> Vec<EpochBatch> {
        let cp = &self.checkpoint;
        let snapshot = cp
            .sys
            .as_ref()
            .expect("serve checkpoints every populated shard at startup");
        self.sys
            .rewind(snapshot)
            .expect("a shard rewinds to its own snapshot");
        self.epochs = cp.epochs;
        self.items = cp.items;
        self.stores = cp.stores;
        self.sync_hashes = cp.sync_hashes;
        self.qos_violations = cp.qos_violations;
        self.qos_events.clone_from(&cp.qos_events);
        self.deferred.clone_from(&cp.deferred);
        self.shed = cp.shed;
        let replay = std::mem::take(&mut self.journal);
        self.replay_pending = replay.len();
        self.replayed += replay.iter().map(|b| b.parts.len() as u64).sum::<u64>();
        self.restored += 1;
        replay
    }

    /// Executes any parts still deferred at shutdown as one trailing
    /// synthetic epoch: brown-outs defer, they never drop.  Runs on the
    /// teardown path after the pool — no crash trigger, no shedding.
    fn flush_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let parts = std::mem::take(&mut self.deferred);
        let epoch = self.epochs;
        let mut epoch_items = 0u64;
        for (_, items) in &parts {
            self.replay_items(items, true);
            epoch_items += items.len() as u64;
        }
        self.sync_hashes += self.sys.sync_metadata();
        self.items += epoch_items;
        self.epochs += 1;
        self.snapshot(epoch);
    }

    /// Drains the telemetry ring into the shard monitor and emits one
    /// per-epoch snapshot (no-op with telemetry off).
    fn snapshot(&mut self, _epoch: u64) {
        let Some(reader) = self.reader.as_mut() else {
            return;
        };
        self.monitor.absorb(reader);
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
            shed_parts: self.shed,
            replayed_chunks: self.replayed,
            restored_shards: self.restored,
        };
        let snap = self.monitor.snapshot(
            self.sys.finish_time().raw(),
            &self.front_name,
            self.scheme_name,
            self.sys.stats(),
            &gauges,
            histograms::DRAIN_LATENCY,
            reader.dropped(),
        );
        self.snapshots.push(snap);
    }
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

/// Assembles concurrently-arriving client chunks into canonical
/// per-shard epoch batches.
struct Assembler {
    rx: mpsc::Receiver<ClientMsg>,
    /// `tenant index → (shard, shard-local position, asid)`.
    placement: Vec<(usize, usize, u16)>,
    /// Per shard: tenants (global indices) in shard-local order.
    members: Vec<Vec<usize>>,
    /// Per shard: next epoch to emit.
    next_epoch: Vec<u64>,
    /// Per shard: buffered chunks by epoch → shard-local slot.
    buffered: Vec<VecDeque<Vec<Option<Vec<TraceItem>>>>>,
    /// Per tenant: epoch after which the tenant contributes nothing.
    finished_at: Vec<Option<u64>>,
    /// Per tenant: highest epoch chunk received so far.
    last_chunk: Vec<Option<u64>>,
    live_clients: usize,
    /// Ready batches not yet handed out.
    ready: VecDeque<(usize, EpochBatch)>,
}

impl Assembler {
    /// True when every member of `shard`'s epoch `at` slot is resolved:
    /// either a buffered chunk or a tenant known to be finished.
    fn epoch_complete(&self, shard: usize, slot: &[Option<Vec<TraceItem>>], at: u64) -> bool {
        self.members[shard].iter().enumerate().all(|(local, &t)| {
            slot[local].is_some() || self.finished_at[t].is_some_and(|f| f <= at)
        })
    }

    /// Emits every complete epoch at the head of each shard's buffer.
    fn harvest(&mut self) {
        for shard in 0..self.members.len() {
            loop {
                let at = self.next_epoch[shard];
                let Some(slot) = self.buffered[shard].front() else {
                    break;
                };
                if !self.epoch_complete(shard, slot, at) {
                    break;
                }
                let slot = self.buffered[shard].pop_front().expect("front exists");
                let parts: Vec<(u16, Vec<TraceItem>)> = slot
                    .into_iter()
                    .enumerate()
                    .filter_map(|(local, items)| {
                        let tenant = self.members[shard][local];
                        let asid = self.placement[tenant].2;
                        items.filter(|i| !i.is_empty()).map(|i| (asid, i))
                    })
                    .collect();
                self.next_epoch[shard] = at + 1;
                if !parts.is_empty() {
                    self.ready
                        .push_back((shard, EpochBatch { epoch: at, parts }));
                }
            }
        }
    }

    fn absorb(&mut self, msg: ClientMsg) {
        match msg {
            ClientMsg::Chunk {
                tenant,
                epoch,
                items,
            } => {
                let (shard, local, _) = self.placement[tenant];
                self.last_chunk[tenant] = Some(epoch);
                let base = self.next_epoch[shard];
                debug_assert!(epoch >= base, "chunks arrive in epoch order per tenant");
                let offset = (epoch - base) as usize;
                while self.buffered[shard].len() <= offset {
                    let width = self.members[shard].len();
                    self.buffered[shard].push_back(vec![None; width]);
                }
                self.buffered[shard][offset][local] = Some(items);
            }
            ClientMsg::Finished { tenant } => {
                self.finished_at[tenant] = Some(self.last_chunk[tenant].map_or(0, |e| e + 1));
                self.live_clients -= 1;
            }
        }
    }
}

impl Iterator for Assembler {
    type Item = (usize, EpochBatch);

    fn next(&mut self) -> Option<(usize, EpochBatch)> {
        loop {
            if let Some(batch) = self.ready.pop_front() {
                return Some(batch);
            }
            if self.live_clients == 0 {
                // Clients are done: flush any trailing partial epochs.
                self.harvest();
                return self.ready.pop_front();
            }
            match self.rx.recv() {
                Ok(msg) => {
                    self.absorb(msg);
                    self.harvest();
                }
                Err(_) => {
                    self.live_clients = 0;
                }
            }
        }
    }
}

/// Runs the service to completion.
///
/// # Errors
///
/// Fails on an invalid configuration (no tenants, duplicate names, a
/// crash plan without checkpointing), an unreadable or malformed tenant
/// trace file (naming the item index and byte offset), a wedged shard
/// ingress queue, a panicking shard worker beyond recovery, or a failed
/// final crash drain — each as its own [`ServeError`] variant.
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
    let mut placement = vec![(0usize, 0usize, 0u16); cfg.tenants.len()];
    for (shard, list) in members.iter().enumerate() {
        for (local, &tenant) in list.iter().enumerate() {
            placement[tenant] = (shard, local, (local + 1) as u16);
        }
    }

    // Load/generate every tenant's ASID-tagged item stream up front so
    // malformed trace files fail service startup, not mid-flight.
    let mut streams: Vec<Vec<TraceItem>> = Vec::with_capacity(cfg.tenants.len());
    for (i, spec) in cfg.tenants.iter().enumerate() {
        streams.push(tenant_items(cfg, spec, Asid(placement[i].2))?);
    }

    // Build the shard fronts.  The key seed derives from the shard's
    // member names — never its index — so a shard hosting the same
    // tenants is byte-identical at any shard count.
    let shed_floor = shed_rank_floor(&cfg.faults, cfg.scheme, cfg.sys_cfg.secpb.entries);
    let mut states: Vec<ShardState> = Vec::with_capacity(cfg.shards);
    for list in &members {
        let names: Vec<&str> = list.iter().map(|&t| cfg.tenants[t].name.as_str()).collect();
        let key_seed = derive_seed(cfg.seed, &names);
        let mut sys: Box<dyn PersistSystem + Send> = Box::new(SecureSystem::with_tree(
            cfg.sys_cfg.clone(),
            cfg.scheme,
            cfg.tree,
            key_seed,
        ));
        let reader = if cfg.telemetry {
            let (sink, reader) = telemetry::channel(cfg.ring_capacity);
            sys.set_telemetry(Some(sink));
            Some(reader)
        } else {
            None
        };
        let scheme_name = sys.scheme().name();
        states.push(ShardState {
            sys,
            monitor: HealthMonitor::new(),
            reader,
            front_name: format!("serve-shard{}", states.len()),
            scheme_name,
            tenants: list
                .iter()
                .map(|&t| TenantQuota {
                    asid: placement[t].2,
                    name: cfg.tenants[t].name.clone(),
                    qos: cfg.tenants[t].qos,
                    quota: cfg.tenants[t].qos.epoch_quota(cfg.epoch_len) as u64,
                })
                .collect(),
            epochs: 0,
            items: 0,
            stores: 0,
            sync_hashes: 0,
            qos_violations: 0,
            qos_events: Vec::new(),
            snapshots: Vec::new(),
            brown_out_every: cfg.faults.brown_out_every,
            shed_floor,
            deferred: Vec::new(),
            shed: 0,
            fault_clock: cfg
                .faults
                .crashes()
                .then(|| FaultClock::new(cfg.faults.trigger)),
            checkpoint_every: cfg.checkpoint_every,
            checkpoint: ShardCheckpoint::default(),
            journal: Vec::new(),
            replay_pending: 0,
            replayed: 0,
            restored: 0,
        });
    }
    // Epoch-zero checkpoints: recovery always has a rewind point, even
    // for a crash in the very first epoch.  A shard with no tenants is
    // never handed a batch, so it never crashes and needs none.
    if cfg.checkpoint_every > 0 {
        for state in states.iter_mut().filter(|s| !s.tenants.is_empty()) {
            state.take_checkpoint();
        }
    }

    // Clients + assembler + shard pool, all inside one scope: clients
    // stream chunks concurrently, the assembler (on this thread, as the
    // pool's producer) canonicalizes them into epoch batches.
    let (tx, rx) = mpsc::channel::<ClientMsg>();
    let pool_cfg = ShardPoolConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        steal_bound: cfg.steal_bound,
        wedge_timeout_ms: cfg.wedge_timeout_ms,
    };
    let quotas: Vec<usize> = cfg
        .tenants
        .iter()
        .map(|t| t.qos.epoch_quota(cfg.epoch_len))
        .collect();

    let (states, pool_stats) = std::thread::scope(|scope| {
        for (tenant, items) in streams.iter().enumerate() {
            let tx = tx.clone();
            let quota = quotas[tenant];
            scope.spawn(move || {
                for (epoch, chunk) in items.chunks(quota.max(1)).enumerate() {
                    if tx
                        .send(ClientMsg::Chunk {
                            tenant,
                            epoch: epoch as u64,
                            items: chunk.to_vec(),
                        })
                        .is_err()
                    {
                        return; // service aborted; stop streaming
                    }
                }
                let _ = tx.send(ClientMsg::Finished { tenant });
            });
        }
        drop(tx);

        let assembler = Assembler {
            rx,
            placement: placement.clone(),
            members: members.clone(),
            next_epoch: vec![0; cfg.shards],
            buffered: (0..cfg.shards).map(|_| VecDeque::new()).collect(),
            finished_at: vec![None; cfg.tenants.len()],
            last_chunk: vec![None; cfg.tenants.len()],
            live_clients: cfg.tenants.len(),
            ready: VecDeque::new(),
        };
        if cfg.checkpoint_every > 0 {
            // Recoverable mode: a panicking shard worker rewinds the
            // shard to its last checkpoint and replays its journal
            // in-order ahead of all queued work.
            pool::run_sharded_recoverable(
                states,
                assembler,
                &pool_cfg,
                |_, state, batch| state.process(batch),
                |_, state| state.recover(),
            )
        } else {
            pool::run_sharded(states, assembler, &pool_cfg, |_, state, batch| {
                state.process(batch)
            })
        }
    })
    .map_err(|e| match e {
        ShardPoolError::Wedged { shard, waited_ms } => ServeError::ShardWedged { shard, waited_ms },
        ShardPoolError::WorkerPanicked { workers } => ServeError::WorkerPanicked { workers },
        e @ ShardPoolError::Misrouted { .. } => ServeError::Config(e.to_string()),
    })?;

    // Tear down: final crash check + outcome assembly.
    let mut shards = Vec::with_capacity(states.len());
    for (shard, mut state) in states.into_iter().enumerate() {
        // Brown-outs defer work, they never drop it: anything still
        // deferred executes now, before the final crash check.
        state.flush_deferred();
        let (crash_drained, recovery_consistent) = if cfg.crash_check {
            let report = state
                .sys
                .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .map_err(|e| ServeError::CrashCheck {
                    shard,
                    detail: e.to_string(),
                })?;
            let rec = state.sys.recover();
            (Some(report.work.entries), rec.is_consistent())
        } else {
            (None, true)
        };
        // One final ring drain so late events (crash markers) are
        // accounted.
        state.snapshot(state.epochs);
        let dropped = state.reader.as_ref().map_or(0, TelemetryReader::dropped);
        let stats = state.sys.stats().clone();
        shards.push(ShardOutcome {
            shard,
            tenants: members[shard]
                .iter()
                .map(|&t| cfg.tenants[t].name.clone())
                .collect(),
            epochs: state.epochs,
            items: state.items,
            stores: state.stores,
            persists: stats.get(counters::PERSISTS),
            sync_hashes: state.sync_hashes,
            cycles: state.sys.finish_time().raw(),
            anomalies: state.sys.anomalies(),
            qos_violations: state.qos_violations,
            qos_events: std::mem::take(&mut state.qos_events),
            shed: state.shed,
            replayed: state.replayed,
            restored: state.restored,
            crash_drained,
            recovery_consistent,
            snapshots: state.snapshots,
            telemetry_dropped: dropped,
            stats,
        });
    }

    let tenants = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (shard, _, asid) = placement[i];
            let quota = quotas[i];
            let items = streams[i].len() as u64;
            let stores = streams[i]
                .iter()
                .filter(|it| it.access.is_some_and(|a| a.is_store()))
                .count() as u64;
            let epochs_used = items.div_ceil(quota.max(1) as u64);
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
        pool: pool_stats,
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

    #[test]
    fn serve_error_display_names_the_wedged_shard() {
        let e = ServeError::ShardWedged {
            shard: 3,
            waited_ms: 12_000,
        };
        let text = e.to_string();
        assert!(
            text.contains("shard 3") && text.contains("12000 ms"),
            "{text}"
        );
    }

    /// A one-tenant shard (`bob`, bronze, quota 2) built by hand, with
    /// no telemetry, faults, or brown-outs.
    fn bare_shard(checkpoint_every: u64) -> ShardState {
        ShardState {
            sys: Box::new(SecureSystem::with_tree(
                SystemConfig::default(),
                Scheme::Cobcm,
                TreeKind::Dbmf,
                1,
            )),
            monitor: HealthMonitor::new(),
            reader: None,
            front_name: "test".into(),
            scheme_name: "cobcm",
            tenants: vec![TenantQuota {
                asid: 1,
                name: "bob".into(),
                qos: QosClass::Bronze,
                quota: 2,
            }],
            epochs: 0,
            items: 0,
            stores: 0,
            sync_hashes: 0,
            qos_violations: 0,
            qos_events: Vec::new(),
            snapshots: Vec::new(),
            brown_out_every: 0,
            shed_floor: 3,
            deferred: Vec::new(),
            shed: 0,
            fault_clock: None,
            checkpoint_every,
            checkpoint: ShardCheckpoint::default(),
            journal: Vec::new(),
            replay_pending: 0,
            replayed: 0,
            restored: 0,
        }
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
        // re-check (the ingest layer never produces one).
        let mut state = bare_shard(0);
        let items = gamess_items(3);
        state.process(EpochBatch {
            epoch: 5,
            parts: vec![(1, items)],
        });
        assert_eq!(state.qos_violations, 1);
        let v = &state.qos_events[0];
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
    fn journal_stays_empty_with_checkpointing_off() {
        // Nothing truncates the journal without checkpoints, so a shard
        // that journaled anyway would hold its whole trace to teardown.
        let mut off = bare_shard(0);
        let mut on = bare_shard(4);
        on.take_checkpoint();
        for epoch in 0..3 {
            let batch = EpochBatch {
                epoch,
                parts: vec![(1, gamess_items(2))],
            };
            off.process(batch.clone());
            on.process(batch);
        }
        assert_eq!(off.epochs, 3);
        assert!(off.journal.is_empty(), "checkpointing off, yet journaled");
        assert!(off.checkpoint.sys.is_none());
        assert_eq!(on.journal.len(), 3, "checkpointing on journals every batch");
    }

    #[test]
    fn injected_crashes_recover_to_the_crash_free_digests() {
        quiet_injected_faults();
        // (checkpoint every k epochs, crash every n stores): frequent
        // checkpoints, then checkpoints rare enough that several crashes
        // rewind to the same snapshot.
        for (every, crash_stores) in [(2, 40), (16, 40)] {
            let mut cfg = two_tenant_cfg(2);
            cfg.checkpoint_every = every;
            cfg.faults = ServeFaultPlan::storm(7, crash_stores, 0, f64::INFINITY);
            let faulted = run_serve(&cfg).unwrap();
            assert!(
                faulted.pool.crash_recoveries > 0,
                "storm fired no crashes: {:?}",
                faulted.pool
            );
            assert!(faulted.total_restored() > 0);
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
            assert_eq!(reference.pool.crash_recoveries, 0);
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
        quiet_injected_faults();
        let mut crashed = cfg.clone();
        crashed.checkpoint_every = 2;
        crashed.faults.trigger = CrashTrigger::EveryNthStore(60);
        let crashed = run_serve(&crashed).unwrap();
        assert!(crashed.pool.crash_recoveries > 0, "no crashes fired");
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
