//! The whole machine: core, caches, SecPB, memory controller, and NVM.
//!
//! [`SecureSystem`] replays instruction traces against one of the
//! Table II schemes, producing both *timing* (execution cycles, the
//! quantity behind Table IV and Figures 6/7/9) and *function* (a real
//! encrypted, MAC'd, BMT-protected persistent image that post-crash
//! recovery decrypts and verifies).  The functional state lives in the
//! shared [`PersistDomain`] kernel; this module owns the timing state and
//! the trace-replay loop, the per-store pipeline lives in
//! [`pipeline`](crate::pipeline), and the crash/recovery kernel in
//! [`recovery`](crate::recovery).
//!
//! ## Timing model
//!
//! The core retires up to `retire_width` instructions per cycle.  Stores
//! retire into a store buffer and are released to the SecPB serially and
//! in order (strict persistency); the acceptance latency of a store is the
//! scheme's *early* metadata work from Figure 4.  The core feels that work
//! two ways: a configurable exposure fraction models store bursts defeating
//! the buffer's latency hiding, and full back-pressure kicks in when the
//! store buffer or the SecPB itself fills.  Draining to the memory
//! controller proceeds in the background through a pipelined drain engine
//! (PLP-style overlapped tree updates); a slot frees only when the full
//! tuple is durable, so NVM write bandwidth backpressures the buffer and
//! produces the COBCM "backflow" stalls the paper reports for
//! write-intensive workloads.

use std::collections::VecDeque;

use secpb_mem::hierarchy::Hierarchy;
use secpb_mem::metadata::MetadataCaches;
use secpb_mem::nvm::NvmTiming;
use secpb_mem::wpq::WritePendingQueue;
use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::stats::{HistId, StatId, Stats};
use secpb_sim::telemetry::TelemetrySink;
use secpb_sim::trace::{AccessKind, TraceItem};
use secpb_sim::tracer::Tracer;

use crate::buffer::SecPb;
use crate::checkpoint::{CheckpointError, Snapshot};
use crate::crash::{CrashKind, CrashReport, DrainPolicy, RecoveryError};
use crate::domain::{DomainKeys, PersistDomain};
use crate::drain::DrainEngine;
use crate::facade::PersistSystem;
use crate::metrics::{counters, histograms, CycleBreakdown, RunResult};
use crate::policy::{PersistencePolicy, PolicyState};
use crate::scheme::Scheme;
use crate::tree::{IntegrityTree, TreeKind};

/// Typed handles for every hot-path counter and histogram, resolved once
/// at construction so the store/drain paths never hash a counter name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StatHandles {
    pub(crate) instructions: StatId,
    pub(crate) loads: StatId,
    pub(crate) stores: StatId,
    pub(crate) persists: StatId,
    pub(crate) allocations: StatId,
    pub(crate) drains: StatId,
    pub(crate) full_stall_cycles: StatId,
    pub(crate) bmt_root_updates: StatId,
    pub(crate) bmt_node_hashes: StatId,
    pub(crate) otps: StatId,
    pub(crate) macs: StatId,
    pub(crate) ciphertexts: StatId,
    pub(crate) counter_increments: StatId,
    pub(crate) counter_misses: StatId,
    pub(crate) page_overflows: StatId,
    pub(crate) load_misses: StatId,
    pub(crate) l1_hits: StatId,
    pub(crate) l2_hits: StatId,
    pub(crate) l3_hits: StatId,
    pub(crate) blocking_verifications: StatId,
    pub(crate) sb_stall_cycles: StatId,
    pub(crate) early_bmt_walks: StatId,
    pub(crate) late_bmt_node_hashes: StatId,
    pub(crate) anomalies: StatId,
    pub(crate) occupancy: HistId,
    pub(crate) drain_latency: HistId,
    pub(crate) entry_lifetime: HistId,
    pub(crate) writes_per_entry: HistId,
}

impl StatHandles {
    fn register(stats: &mut Stats) -> Self {
        StatHandles {
            instructions: stats.counter(counters::INSTRUCTIONS),
            loads: stats.counter(counters::LOADS),
            stores: stats.counter(counters::STORES),
            persists: stats.counter(counters::PERSISTS),
            allocations: stats.counter(counters::ALLOCATIONS),
            drains: stats.counter(counters::DRAINS),
            full_stall_cycles: stats.counter(counters::FULL_STALL_CYCLES),
            bmt_root_updates: stats.counter(counters::BMT_ROOT_UPDATES),
            bmt_node_hashes: stats.counter(counters::BMT_NODE_HASHES),
            otps: stats.counter(counters::OTPS),
            macs: stats.counter(counters::MACS),
            ciphertexts: stats.counter(counters::CIPHERTEXTS),
            counter_increments: stats.counter(counters::COUNTER_INCREMENTS),
            counter_misses: stats.counter(counters::COUNTER_MISSES),
            page_overflows: stats.counter(counters::PAGE_OVERFLOWS),
            load_misses: stats.counter(counters::LOAD_MISSES),
            l1_hits: stats.counter(counters::L1_HITS),
            l2_hits: stats.counter(counters::L2_HITS),
            l3_hits: stats.counter(counters::L3_HITS),
            blocking_verifications: stats.counter(counters::BLOCKING_VERIFICATIONS),
            sb_stall_cycles: stats.counter(counters::SB_STALL_CYCLES),
            early_bmt_walks: stats.counter(counters::EARLY_BMT_WALKS),
            late_bmt_node_hashes: stats.counter(counters::LATE_BMT_NODE_HASHES),
            anomalies: stats.counter(counters::ANOMALIES),
            occupancy: stats.histogram_id(histograms::OCCUPANCY),
            drain_latency: stats.histogram_id(histograms::DRAIN_LATENCY),
            entry_lifetime: stats.histogram_id(histograms::ENTRY_LIFETIME),
            writes_per_entry: stats.histogram_id(histograms::WRITES_PER_ENTRY),
        }
    }
}

/// Attribution target for one core-clock advance (see [`CycleBreakdown`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Attr {
    Retire,
    Load,
    StoreAccept,
    SbStall,
    NogapWait,
}

/// What [`SecureSystem::memo_stats`] reports: always zero, since no
/// crypto memo exists.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Memo lookups answered without computing.
    pub hits: u64,
    /// Memo lookups that computed.
    pub misses: u64,
}

/// The complete simulated system.
pub struct SecureSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) scheme: Scheme,

    // ---- timing state ----
    pub(crate) now: Cycle,
    /// Cycle at which the current measurement region began (see
    /// [`reset_measurement`](Self::reset_measurement)).
    pub(crate) measure_from: Cycle,
    pub(crate) frac: f64,
    pub(crate) pb_busy_until: Cycle,
    pub(crate) bmt_busy_until: Cycle,
    pub(crate) store_buffer: VecDeque<Cycle>,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) metadata: MetadataCaches,
    pub(crate) wpq: WritePendingQueue,
    pub(crate) nvm_timing: NvmTiming,
    pub(crate) drain_engine: DrainEngine,

    // ---- functional state ----
    pub(crate) pb: SecPb,
    /// The shared security/persistence kernel (golden state, counters,
    /// NVM image, crypto engines, integrity tree).
    pub(crate) domain: PersistDomain,

    pub(crate) stats: Stats,
    pub(crate) h: StatHandles,
    pub(crate) tracer: Tracer,
    pub(crate) breakdown: CycleBreakdown,
    /// The token of the last sync with a rewind point, if this system
    /// still matches that point up to its logged changes (see
    /// [`snapshot_into`](Self::snapshot_into)).
    pub(crate) sync_token: Option<u64>,
}

impl std::fmt::Debug for SecureSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSystem")
            .field("scheme", &self.scheme)
            .field("now", &self.now)
            .field("pb_occupancy", &self.pb.occupancy())
            .finish_non_exhaustive()
    }
}

impl SecureSystem {
    /// Builds a system with the default monolithic BMT.
    ///
    /// `key_seed` derives the encryption/MAC/tree keys (any value; runs
    /// with equal seeds are bit-identical).
    pub fn new(cfg: SystemConfig, scheme: Scheme, key_seed: u64) -> Self {
        Self::with_tree(cfg, scheme, TreeKind::Monolithic, key_seed)
    }

    /// Builds a system with an explicit integrity-tree organisation
    /// (Figure 9's DBMF/SBMF variants).
    ///
    /// # Panics
    ///
    /// Panics if the SecPB geometry in `cfg.secpb` (zero entries,
    /// inverted watermarks) is invalid for a scheme that keeps a SecPB,
    /// or if the persistence-policy knobs in `cfg.security`
    /// (`triad_levels`, `shadow_counters`) are illegal for this tree;
    /// use [`build`](Self::build) to get a typed error instead.  The
    /// default configuration is always legal.
    pub fn with_tree(
        cfg: SystemConfig,
        scheme: Scheme,
        tree_kind: TreeKind,
        key_seed: u64,
    ) -> Self {
        Self::build(cfg, scheme, tree_kind, key_seed)
            .expect("invalid SecPB geometry or persistence policy")
    }

    /// [`with_tree`](Self::with_tree) with validation surfaced as a
    /// value.  A scheme that keeps a SecPB needs a valid SecPB geometry
    /// ([`ConfigError::check_secpb`](crate::crash::ConfigError::check_secpb));
    /// the persistence policy is resolved from the scheme plus the
    /// `triad_levels`/`shadow_counters` knobs and rejected when the
    /// combination is illegal (depth beyond the tree height, selective
    /// depth on a forest).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroSecPbEntries`](crate::crash::ConfigError::ZeroSecPbEntries)
    /// or [`ConfigError::InvalidWatermarks`](crate::crash::ConfigError::InvalidWatermarks)
    /// on a degenerate SecPB,
    /// [`ConfigError::Policy`](crate::crash::ConfigError::Policy) on an
    /// illegal policy assignment.
    pub fn build(
        cfg: SystemConfig,
        scheme: Scheme,
        tree_kind: TreeKind,
        key_seed: u64,
    ) -> Result<Self, crate::crash::ConfigError> {
        if scheme.uses_secpb() {
            crate::crash::ConfigError::check_secpb(&cfg.secpb)?;
        }
        let policy = PersistencePolicy::resolve(scheme, &cfg.security, tree_kind)?;
        let domain = PersistDomain::new(
            DomainKeys::SECPB,
            tree_kind,
            cfg.security.bmt_levels,
            cfg.security.crypto_backend,
            key_seed,
            policy,
        );
        let mut stats = Stats::new();
        let h = StatHandles::register(&mut stats);
        Ok(SecureSystem {
            hierarchy: Hierarchy::new(&cfg),
            metadata: MetadataCaches::new(&cfg),
            wpq: WritePendingQueue::new(cfg.wpq_entries),
            nvm_timing: NvmTiming::new(cfg.nvm),
            drain_engine: DrainEngine::new(),
            pb: SecPb::new(cfg.secpb),
            domain,
            stats,
            h,
            tracer: Tracer::new(),
            breakdown: CycleBreakdown::default(),
            now: Cycle::ZERO,
            measure_from: Cycle::ZERO,
            frac: 0.0,
            pb_busy_until: Cycle::ZERO,
            bmt_busy_until: Cycle::ZERO,
            store_buffer: VecDeque::new(),
            sync_token: None,
            scheme,
            cfg,
        })
    }

    /// Analytic write-amplification counters accumulated by the policy.
    pub fn policy_state(&self) -> &PolicyState {
        self.domain.policy_state()
    }

    /// The integrity tree (for inspecting fold statistics).
    pub fn integrity_tree(&self) -> &IntegrityTree {
        &self.domain.tree
    }

    /// Always zero: pads and counter digests are computed where they are
    /// used, with no memo in front of them.  Exists only so hostbench's
    /// per-layer `crypto.memo_hit_ratio` keeps reading.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// The cycle-attribution tracer's per-phase span aggregates.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-level hit counts from the data-cache hierarchy.
    pub fn hierarchy_stats(&self) -> secpb_mem::hierarchy::HierarchyStats {
        self.hierarchy.stats()
    }

    /// The SecPB (for occupancy inspection in tests).
    pub fn persist_buffer(&self) -> &SecPb {
        &self.pb
    }

    // ---------------------------------------------------------------
    // Trace replay
    // ---------------------------------------------------------------

    /// Replays a trace to completion and returns the run result (cycles
    /// counted since the last [`reset_measurement`](Self::reset_measurement),
    /// or from time zero).
    pub fn run_trace<I: IntoIterator<Item = TraceItem>>(&mut self, items: I) -> RunResult {
        for item in items {
            self.step(item);
        }
        self.run_result()
    }

    /// Ends the warm-up region: zeroes the statistics and restarts the
    /// cycle count, keeping all microarchitectural state (cache and SecPB
    /// contents, counters, NVM image) warm — the equivalent of the
    /// paper's fast-forward to a representative SimPoint region.
    pub fn reset_measurement(&mut self) {
        self.measure_from = self.finish_time();
        self.stats.reset();
        self.tracer.reset();
        self.breakdown = CycleBreakdown::default();
        self.hierarchy.reset_stats();
    }

    /// Executes a single trace item.
    pub fn step(&mut self, item: TraceItem) {
        if item.non_mem_instrs > 0 {
            self.stats
                .add(self.h.instructions, u64::from(item.non_mem_instrs));
            self.advance(
                f64::from(item.non_mem_instrs) / f64::from(self.cfg.core.retire_width),
                Attr::Retire,
            );
        }
        if let Some(access) = item.access {
            self.stats.inc(self.h.instructions);
            self.advance(1.0 / f64::from(self.cfg.core.retire_width), Attr::Retire);
            match access.kind {
                AccessKind::Load => self.do_load(access),
                AccessKind::Store => self.do_store(access),
            }
        }
    }

    pub(crate) fn advance(&mut self, cycles: f64, attr: Attr) {
        self.frac += cycles;
        // `frac` is a sum of non-negative latencies, so the truncating
        // cast equals `floor()` exactly — without the libm call the
        // baseline (pre-SSE4.1) target would emit for `floor`.
        let whole = self.frac as u64;
        if whole >= 1 {
            let old = self.now;
            self.now += whole;
            self.frac -= whole as f64;
            self.attribute(attr, old);
        }
    }

    /// Credits the clock movement from `old` to `self.now` to `attr`,
    /// clipped to the measurement region so the breakdown sums exactly to
    /// the measured cycles.
    pub(crate) fn attribute(&mut self, attr: Attr, old: Cycle) {
        let delta = self
            .now
            .max(self.measure_from)
            .since(old.max(self.measure_from));
        if delta == 0 {
            return;
        }
        match attr {
            Attr::Retire => self.breakdown.retire += delta,
            Attr::Load => self.breakdown.load += delta,
            Attr::StoreAccept => self.breakdown.store_accept += delta,
            Attr::SbStall => self.breakdown.sb_stall += delta,
            Attr::NogapWait => self.breakdown.nogap_wait += delta,
        }
    }
}

impl PersistSystem for SecureSystem {
    fn scheme(&self) -> Scheme {
        self.scheme
    }

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn domain(&self) -> &PersistDomain {
        &self.domain
    }

    fn domain_mut(&mut self) -> &mut PersistDomain {
        &mut self.domain
    }

    fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        self.stats.set_sink(sink.clone());
        self.tracer.set_sink(sink);
    }

    fn step(&mut self, item: TraceItem) {
        SecureSystem::step(self, item);
    }

    /// Cycles counted since the last
    /// [`reset_measurement`](SecureSystem::reset_measurement), or from
    /// time zero; the wait for outstanding drains is `drain_wait`.
    fn run_result(&self) -> RunResult {
        let end = self.finish_time();
        let mut breakdown = self.breakdown;
        breakdown.drain_wait = end.since(self.now.max(self.measure_from));
        RunResult {
            scheme: self.scheme,
            cycles: end.since(self.measure_from),
            breakdown,
            stats: self.stats.clone(),
        }
    }

    /// The core must wait for outstanding store-buffer entries to
    /// persist.
    fn finish_time(&self) -> Cycle {
        let sb_tail = self.store_buffer.back().copied().unwrap_or(Cycle::ZERO);
        self.now.max(self.pb_busy_until).max(sb_tail)
    }

    fn occupancy(&self) -> u64 {
        self.pb.occupancy() as u64
    }

    fn drain_on_battery(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        self.battery_drain(kind, policy, max_drain_entries)
    }

    /// Survivors of a [`DrainPolicy::DrainProcess`] drain stay in the
    /// SecPB across the crash.
    fn buffered(&self, block: BlockAddr) -> bool {
        self.pb.contains(block)
    }

    /// Charges the sync's analytic hashes (BMF root-cache folds; zero
    /// for a monolithic tree) to `bmt_node_hashes`.
    fn sync_metadata(&mut self) -> u64 {
        let sync_hashes = self.domain.sync_root(self.scheme.is_secure());
        self.stats.add(self.h.bmt_node_hashes, sync_hashes);
        sync_hashes
    }

    /// Whether background drains are issued but not retired — the
    /// [`secpb_sim::fault::CrashTrigger::MidDrain`] observation point.
    fn drains_in_flight(&self) -> bool {
        self.drain_engine.next_completion().is_some()
    }

    fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        Ok(self.checkpoint_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.restore_bytes(bytes)
    }

    fn snapshot_into(&mut self, slot: &mut Option<Snapshot>) -> Result<(), CheckpointError> {
        SecureSystem::snapshot_into(self, slot);
        Ok(())
    }

    fn rewind(&mut self, to: &Snapshot) -> Result<(), CheckpointError> {
        SecureSystem::rewind(self, to)
    }
}

#[cfg(test)]
#[path = "system_tests.rs"]
mod tests;
