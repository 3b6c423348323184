//! The unified persist-system facade.
//!
//! The three fronts — [`SecureSystem`] (single-core SecPB with the full
//! timing pipeline), [`EadrSystem`] (whole-hierarchy persistence), and
//! [`MultiCoreSystem`] (per-core SecPBs with directory coherence) —
//! share one security/persistence kernel
//! ([`PersistDomain`](crate::domain::PersistDomain)) but historically
//! exposed three slightly different driving surfaces.  [`PersistSystem`]
//! is the common surface, written once so benches, the fault-injection
//! storm, and the CLI can drive *any* front through `&mut dyn
//! PersistSystem`:
//!
//! * replay — [`step`](PersistSystem::step) /
//!   [`run_trace`](PersistSystem::run_trace) /
//!   [`finish_time`](PersistSystem::finish_time),
//! * exposure — [`occupancy`](PersistSystem::occupancy) /
//!   [`drains_in_flight`](PersistSystem::drains_in_flight),
//! * crash — [`crash`](PersistSystem::crash) /
//!   [`crash_with_budget`](PersistSystem::crash_with_budget), normalised
//!   to `Result<CrashReport, RecoveryError>` for every front,
//! * recovery — [`recover`](PersistSystem::recover) /
//!   [`recover_with`](PersistSystem::recover_with) /
//!   [`resync_lost_golden`](PersistSystem::resync_lost_golden),
//! * observation — [`stats`](PersistSystem::stats) /
//!   [`expected_plaintext`](PersistSystem::expected_plaintext) /
//!   [`nvm_store`](PersistSystem::nvm_store).
//!
//! The fronts' inherent methods keep their richer historical signatures
//! (e.g. the eADR crash returns its [`DrainWork`] directly, the
//! multi-core crash returns a drained-entry count); the trait impls
//! translate those into the common [`CrashReport`] shape without losing
//! the accounting a storm reconciles (drained + lost == occupancy).

use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::stats::Stats;
use secpb_sim::telemetry::{TelemetryEvent, TelemetrySink};
use secpb_sim::trace::TraceItem;

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::crash::{CrashKind, CrashReport, DrainPolicy, DrainWork, RecoveryError, RecoveryReport};
use crate::eadr::EadrSystem;
use crate::metrics::{counters, RunResult};
use crate::multicore::MultiCoreSystem;
use crate::policy::{CounterLayout, PersistencePolicy, RecoveryCost};
use crate::scheme::Scheme;
use crate::system::SecureSystem;

/// The common driving surface of every persist-system front.
///
/// Dyn-compatible: storms, benches, and the CLI hold a
/// `&mut dyn PersistSystem` and never know which front they drive.
pub trait PersistSystem {
    /// The metadata-persistence scheme the front runs.  The eADR front
    /// has no scheme spectrum (its metadata is always generated at
    /// writeback/crash time) and reports [`Scheme::Bbb`] as a
    /// placeholder, matching its [`RunResult`].
    fn scheme(&self) -> Scheme;

    /// Whether the persisted image is encrypted/MAC'd/tree-protected.
    /// Not derivable from [`scheme`](Self::scheme) alone: the eADR front
    /// is secure despite its placeholder scheme.
    fn secure(&self) -> bool;

    /// The machine configuration.
    fn config(&self) -> &SystemConfig;

    /// Accumulated statistics.
    fn stats(&self) -> &Stats;

    /// Attaches (or with `None` detaches) a live telemetry sink.
    ///
    /// While attached, the front mirrors stat deltas, histogram samples,
    /// spans, and crash/drain/recovery markers into the sink's ring.
    /// Telemetry observes and never steers: a run with a sink attached
    /// is byte-identical to one without.
    fn set_telemetry(&mut self, sink: Option<TelemetrySink>);

    /// The attached telemetry sink, if any.
    fn telemetry(&self) -> Option<&TelemetrySink>;

    /// Model-internal invariant violations observed so far (the storm
    /// fails a cell on any non-zero value).
    fn anomalies(&self) -> u64 {
        self.stats().get(counters::ANOMALIES)
    }

    /// Folds all deferred integrity-tree work and persists the root
    /// register, returning the analytic hash count charged to the sync.
    /// Every front defers its tree folds to observation points, so
    /// until a sync (or a crash, which syncs) the durable root lags the
    /// NVM counter image.  This is the epoch-boundary observation point
    /// the service plane drains shards at: a whole epoch's tree updates
    /// fold in sibling batches (`compute_batch`), so the per-store
    /// metadata cost amortizes across the batch.
    fn sync_metadata(&mut self) -> u64;

    /// Serialises the complete system state into a versioned checkpoint
    /// (see [`checkpoint`](crate::checkpoint) for the wire format and
    /// the restore+replay equivalence contract).  Only the single-core
    /// front implements this; the others return
    /// [`CheckpointError::Unsupported`].
    fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Overlays a checkpoint taken by [`checkpoint`](Self::checkpoint)
    /// onto this system.  The target must have been constructed with the
    /// identical configuration, scheme, tree kind, and key seed.
    ///
    /// # Errors
    ///
    /// Fails on an unsupported front, header mismatch, or corrupt
    /// payload; after a payload error the target must be discarded.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let _ = bytes;
        Err(CheckpointError::Unsupported)
    }

    /// Refreshes `slot` into an in-memory rewind point of the current
    /// state (see [`Snapshot`]).  Cheaper than
    /// [`checkpoint`](Self::checkpoint) because nothing is encoded, but
    /// the snapshot never leaves the process.  Takes `&mut self` because
    /// a refresh copies only what the system changed since it last
    /// synced with the snapshot, and then starts the system's change
    /// logs afresh.  Only the single-core front implements this; the
    /// others return [`CheckpointError::Unsupported`] and leave `slot`
    /// untouched.
    fn snapshot_into(&mut self, slot: &mut Option<Snapshot>) -> Result<(), CheckpointError> {
        let _ = slot;
        Err(CheckpointError::Unsupported)
    }

    /// Rewinds to a snapshot taken by
    /// [`snapshot_into`](Self::snapshot_into), with the post-conditions
    /// of [`restore`](Self::restore).  The snapshot stays intact for
    /// further rewinds.
    ///
    /// # Errors
    ///
    /// Fails on an unsupported front, or with
    /// [`CheckpointError::ConfigMismatch`] for a snapshot of a
    /// differently built system.
    fn rewind(&mut self, to: &Snapshot) -> Result<(), CheckpointError> {
        let _ = to;
        Err(CheckpointError::Unsupported)
    }

    /// Executes a single trace item.
    fn step(&mut self, item: TraceItem);

    /// Replays a trace slice to completion.
    fn run_trace(&mut self, items: &[TraceItem]) -> RunResult;

    /// The execution time if the trace ended now (outstanding buffered
    /// work included).
    fn finish_time(&self) -> Cycle;

    /// Entries (or dirty lines) currently inside the persistence
    /// domain's volatile staging — the exposure a crash must drain.
    fn occupancy(&self) -> u64;

    /// Whether background drains are in flight (the mid-drain crash
    /// trigger's observation point).  Only the single-core front has a
    /// background drain engine.
    fn drains_in_flight(&self) -> bool {
        false
    }

    /// Handles a crash with a fully provisioned battery.
    fn crash(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
    ) -> Result<CrashReport, RecoveryError> {
        self.crash_with_budget(kind, policy, None)
    }

    /// Handles a crash under a battery budget of at most
    /// `max_drain_entries` drained entries; the rest are lost and
    /// reported in [`CrashReport::lost_blocks`].  Fronts without ASID
    /// tags (eADR, multi-core) treat every kind/policy as a
    /// whole-domain drain.
    fn crash_with_budget(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError>;

    /// Post-crash recovery over the persisted image.
    fn recover(&self) -> RecoveryReport {
        self.recover_with(&[])
    }

    /// [`recover`](Self::recover) with lost-block accounting.
    fn recover_with(&self, lost: &[BlockAddr]) -> RecoveryReport;

    /// Re-reads the durable image of brown-out-lost blocks back into the
    /// architectural expectation so replay can continue.
    fn resync_lost_golden(&mut self, lost: &[BlockAddr]);

    /// The persistence policy the front runs — early-step assignment
    /// plus durable tree/counter layout.  Fronts without a policy knob
    /// surface report their scheme's default resolution.
    fn policy(&self) -> PersistencePolicy {
        PersistencePolicy::for_scheme(self.scheme())
    }

    /// Exact post-crash recovery accounting under the front's
    /// persistence policy: persisted counter pages and tree-frontier
    /// nodes fetched, node hashes folded to revalidate the root, data
    /// blocks fetched/decrypted/MAC-verified, and the total latency in
    /// cycles.  NVM reads pipeline across banks; crypto units pipeline
    /// at their occupancy (one hash per `bmt_hash_latency`).
    ///
    /// This is the quantity recovery-time work like Anubis (Zubair &
    /// Awad, ISCA'19 — the paper's \[74\]) and the Triad-NVM /
    /// fast-recovery policies trade write traffic against; the
    /// `recovery_sweep` bench promotes it to a swept grid metric.  The
    /// default is the root-only rebuild, derived entirely from
    /// [`config`](Self::config) and [`nvm_store`](Self::nvm_store);
    /// policy-aware fronts override it.
    fn recovery_cost(&self) -> RecoveryCost {
        let nvm = self.nvm_store();
        RecoveryCost::root_only(
            self.config(),
            nvm.counter_pages().count() as u64,
            nvm.data_block_count() as u64,
        )
    }

    /// The architecturally expected plaintext of a block.
    fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64];

    /// The durable state, read-only.
    fn nvm_store(&self) -> &NvmStore;

    /// The durable state, for tamper injection.
    fn nvm_store_mut(&mut self) -> &mut NvmStore;
}

impl PersistSystem for SecureSystem {
    fn scheme(&self) -> Scheme {
        SecureSystem::scheme(self)
    }

    fn secure(&self) -> bool {
        SecureSystem::scheme(self).is_secure()
    }

    fn config(&self) -> &SystemConfig {
        SecureSystem::config(self)
    }

    fn stats(&self) -> &Stats {
        SecureSystem::stats(self)
    }

    fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        SecureSystem::set_telemetry(self, sink);
    }

    fn telemetry(&self) -> Option<&TelemetrySink> {
        SecureSystem::telemetry(self)
    }

    fn sync_metadata(&mut self) -> u64 {
        SecureSystem::sync_metadata(self)
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

    fn step(&mut self, item: TraceItem) {
        SecureSystem::step(self, item);
    }

    fn run_trace(&mut self, items: &[TraceItem]) -> RunResult {
        SecureSystem::run_trace(self, items.iter().copied())
    }

    fn finish_time(&self) -> Cycle {
        SecureSystem::finish_time(self)
    }

    fn occupancy(&self) -> u64 {
        self.persist_buffer().occupancy() as u64
    }

    fn drains_in_flight(&self) -> bool {
        SecureSystem::drains_in_flight(self)
    }

    fn crash_with_budget(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        SecureSystem::crash_with_budget(self, kind, policy, max_drain_entries)
    }

    fn recover_with(&self, lost: &[BlockAddr]) -> RecoveryReport {
        SecureSystem::recover_with(self, lost)
    }

    fn resync_lost_golden(&mut self, lost: &[BlockAddr]) {
        SecureSystem::resync_lost_golden(self, lost);
    }

    fn policy(&self) -> PersistencePolicy {
        SecureSystem::policy(self)
    }

    fn recovery_cost(&self) -> RecoveryCost {
        let cfg = SecureSystem::config(self);
        let nvm = SecureSystem::nvm_store(self);
        let pages = nvm.counter_pages().count() as u64;
        let blocks = nvm.data_block_count() as u64;
        let policy = SecureSystem::policy(self);
        if policy.counters == CounterLayout::Shadow {
            RecoveryCost::fast_recovery(cfg, pages, blocks)
        } else if let Some(frontier) = self.domain.persisted_frontier() {
            RecoveryCost::selective(
                cfg,
                pages,
                blocks,
                frontier.nodes.len() as u64,
                frontier.fold_hashes,
            )
        } else {
            RecoveryCost::root_only(cfg, pages, blocks)
        }
    }

    fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        SecureSystem::expected_plaintext(self, block)
    }

    fn nvm_store(&self) -> &NvmStore {
        SecureSystem::nvm_store(self)
    }

    fn nvm_store_mut(&mut self) -> &mut NvmStore {
        SecureSystem::nvm_store_mut(self)
    }
}

impl PersistSystem for EadrSystem {
    fn scheme(&self) -> Scheme {
        Scheme::Bbb
    }

    fn secure(&self) -> bool {
        // eADR generates full tuples at writeback/crash; the persisted
        // image is always encrypted and tree-protected.
        true
    }

    fn config(&self) -> &SystemConfig {
        EadrSystem::config(self)
    }

    fn stats(&self) -> &Stats {
        EadrSystem::stats(self)
    }

    fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        EadrSystem::set_telemetry(self, sink);
    }

    fn telemetry(&self) -> Option<&TelemetrySink> {
        EadrSystem::telemetry(self)
    }

    fn sync_metadata(&mut self) -> u64 {
        EadrSystem::sync_metadata(self)
    }

    fn step(&mut self, item: TraceItem) {
        EadrSystem::step(self, item);
    }

    fn run_trace(&mut self, items: &[TraceItem]) -> RunResult {
        EadrSystem::run_trace(self, items.iter().copied())
    }

    fn finish_time(&self) -> Cycle {
        self.now()
    }

    fn occupancy(&self) -> u64 {
        self.dirty_lines() as u64
    }

    fn crash_with_budget(
        &mut self,
        kind: CrashKind,
        _policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let at = self.now();
        let (work, lost_blocks) = EadrSystem::crash_with_budget(self, max_drain_entries);
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::CrashMarker {
                power_loss: !matches!(kind, CrashKind::ApplicationCrash(_)),
                cycle: at.raw(),
            });
            sink.emit(&TelemetryEvent::DrainMarker {
                entries: work.entries,
                cycle: at.raw(),
            });
        }
        // The eADR drain is not cycle-modelled (the whole hierarchy
        // flushes on battery); the gaps close at the crash instant.
        Ok(CrashReport {
            kind,
            at,
            drain_complete_at: at,
            secsync_complete_at: at,
            work,
            lost_blocks,
        })
    }

    fn recover_with(&self, lost: &[BlockAddr]) -> RecoveryReport {
        let report = EadrSystem::recover_with(self, lost);
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::RecoveryMarker {
                consistent: report.is_consistent(),
                blocks: report.blocks_checked,
                cycle: self.now().raw(),
            });
        }
        report
    }

    fn resync_lost_golden(&mut self, lost: &[BlockAddr]) {
        EadrSystem::resync_lost_golden(self, lost);
    }

    fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        EadrSystem::expected_plaintext(self, block)
    }

    fn nvm_store(&self) -> &NvmStore {
        EadrSystem::nvm_store(self)
    }

    fn nvm_store_mut(&mut self) -> &mut NvmStore {
        EadrSystem::nvm_store_mut(self)
    }
}

impl PersistSystem for MultiCoreSystem {
    fn scheme(&self) -> Scheme {
        MultiCoreSystem::scheme(self)
    }

    fn secure(&self) -> bool {
        // Only SecPB schemes construct (bufferless `SP` is rejected, and
        // `bbb` still runs the full tuple pipeline in this front).
        true
    }

    fn config(&self) -> &SystemConfig {
        MultiCoreSystem::config(self)
    }

    fn stats(&self) -> &Stats {
        MultiCoreSystem::stats(self)
    }

    fn anomalies(&self) -> u64 {
        self.stats().get("mc.anomalies")
    }

    fn set_telemetry(&mut self, sink: Option<TelemetrySink>) {
        MultiCoreSystem::set_telemetry(self, sink);
    }

    fn telemetry(&self) -> Option<&TelemetrySink> {
        MultiCoreSystem::telemetry(self)
    }

    fn sync_metadata(&mut self) -> u64 {
        MultiCoreSystem::sync_metadata(self)
    }

    fn step(&mut self, item: TraceItem) {
        MultiCoreSystem::step(self, item);
    }

    fn run_trace(&mut self, items: &[TraceItem]) -> RunResult {
        MultiCoreSystem::run_trace(self, items.iter().copied())
    }

    fn finish_time(&self) -> Cycle {
        (0..self.cores())
            .map(|c| self.core_time(c))
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    fn occupancy(&self) -> u64 {
        MultiCoreSystem::occupancy(self) as u64
    }

    fn crash_with_budget(
        &mut self,
        kind: CrashKind,
        _policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let at = PersistSystem::finish_time(self);
        let footprint = MultiCoreSystem::scheme(self).entry_footprint_bytes();
        let (drained, lost_blocks) = MultiCoreSystem::crash_with_budget(self, max_drain_entries)?;
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::CrashMarker {
                power_loss: !matches!(kind, CrashKind::ApplicationCrash(_)),
                cycle: at.raw(),
            });
            sink.emit(&TelemetryEvent::DrainMarker {
                entries: drained,
                cycle: at.raw(),
            });
        }
        // The event-cost model tracks entry movement, not the per-phase
        // crypto deltas; only the movement fields are populated.
        let work = DrainWork {
            entries: drained,
            bytes_pb_to_mc: drained * footprint,
            ..DrainWork::default()
        };
        Ok(CrashReport {
            kind,
            at,
            drain_complete_at: at,
            secsync_complete_at: at,
            work,
            lost_blocks,
        })
    }

    fn recover_with(&self, lost: &[BlockAddr]) -> RecoveryReport {
        let report = MultiCoreSystem::recover_with(self, lost);
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::RecoveryMarker {
                consistent: report.is_consistent(),
                blocks: report.blocks_checked,
                cycle: PersistSystem::finish_time(self).raw(),
            });
        }
        report
    }

    fn resync_lost_golden(&mut self, lost: &[BlockAddr]) {
        MultiCoreSystem::resync_lost_golden(self, lost);
    }

    fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        MultiCoreSystem::expected_plaintext(self, block)
    }

    fn nvm_store(&self) -> &NvmStore {
        MultiCoreSystem::nvm_store(self)
    }

    fn nvm_store_mut(&mut self) -> &mut NvmStore {
        MultiCoreSystem::nvm_store_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::addr::Address;
    use secpb_sim::trace::Access;

    fn store_trace(n: u64) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::then(9, Access::store(Address(0x10_0000 + i * 64), i + 1)))
            .collect()
    }

    fn fronts() -> Vec<Box<dyn PersistSystem>> {
        vec![
            Box::new(SecureSystem::new(
                SystemConfig::default(),
                Scheme::Cobcm,
                11,
            )),
            Box::new(EadrSystem::new(SystemConfig::default(), 11)),
            Box::new(MultiCoreSystem::new(SystemConfig::default(), Scheme::Cobcm, 2, 11).unwrap()),
        ]
    }

    #[test]
    fn every_front_replays_crashes_and_recovers_through_dyn() {
        let trace = store_trace(120);
        for mut sys in fronts() {
            let r = sys.run_trace(&trace);
            assert!(r.cycles > 0);
            let report = sys
                .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            assert!(report.drain_was_complete());
            let rec = sys.recover();
            assert!(rec.is_consistent(), "front failed clean recovery");
            assert!(rec.blocks_checked > 0);
            assert_eq!(sys.occupancy(), 0, "crash empties the staging domain");
        }
    }

    #[test]
    fn budgeted_crash_accounting_reconciles_for_every_front() {
        let trace = store_trace(200);
        for mut sys in fronts() {
            sys.run_trace(&trace);
            let exposure = sys.occupancy();
            assert!(exposure > 4, "need buffered exposure to truncate");
            let budget = 3u64;
            let report = sys
                .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(budget))
                .unwrap();
            assert_eq!(report.work.entries, budget);
            assert_eq!(
                report.work.entries + report.lost_block_count(),
                exposure,
                "drained + lost must equal pre-crash exposure"
            );
            let rec = sys.recover_with(&report.lost_blocks);
            assert!(rec.is_consistent(), "accounted staleness is not corruption");
            sys.resync_lost_golden(&report.lost_blocks);
            assert!(sys.recover().is_consistent());
        }
    }

    #[test]
    fn tampering_is_detected_through_the_facade_on_secure_fronts() {
        let trace = store_trace(60);
        for mut sys in fronts() {
            sys.run_trace(&trace);
            sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            assert!(sys.secure());
            let victim = sys.nvm_store().data_blocks().next().unwrap();
            sys.nvm_store_mut().tamper_data(victim, 0, 0);
            assert!(!sys.recover().integrity_ok(), "tamper must be detected");
        }
    }

    #[test]
    fn facade_expected_plaintext_matches_store_stream() {
        let trace = store_trace(10);
        for mut sys in fronts() {
            sys.run_trace(&trace);
            let block = Address(0x10_0000).block();
            assert_eq!(sys.expected_plaintext(block)[..8], 1u64.to_le_bytes());
        }
    }
}
