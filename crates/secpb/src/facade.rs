//! The unified persist-system facade.
//!
//! The three fronts — [`SecureSystem`](crate::system::SecureSystem)
//! (single-core SecPB with the full timing pipeline),
//! [`EadrSystem`](crate::eadr::EadrSystem) (whole-hierarchy persistence),
//! and [`MultiCoreSystem`](crate::multicore::MultiCoreSystem) (per-core
//! SecPBs with directory coherence) — share one security/persistence
//! kernel, [`PersistDomain`].  They differ only in what they stage
//! before the SPoP and how the battery drains it.  [`PersistSystem`] is
//! their one driving surface, so benches, the fault-injection storm, and
//! the CLI drive *any* front through `&mut dyn PersistSystem`.
//!
//! A front supplies only what it knows: its [`scheme`](PersistSystem::scheme),
//! [`config`](PersistSystem::config), [`stats`](PersistSystem::stats) and
//! telemetry attachment, its clocks ([`step`](PersistSystem::step),
//! [`run_result`](PersistSystem::run_result),
//! [`finish_time`](PersistSystem::finish_time)), its staging
//! ([`occupancy`](PersistSystem::occupancy), and
//! [`buffered`](PersistSystem::buffered) where blocks can stay staged),
//! its battery drain ([`drain_on_battery`](PersistSystem::drain_on_battery)),
//! and its [`domain`](PersistSystem::domain).  Everything the domain
//! decides is written once here: the crash/drain/recovery telemetry
//! markers, the recovery sweep and lost-block resync, the persistence
//! policy and its recovery cost, and the durable-image accessors.

use secpb_mem::store::NvmStore;
use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::stats::Stats;
use secpb_sim::telemetry::{TelemetryEvent, TelemetrySink};
use secpb_sim::trace::TraceItem;

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::crash::{CrashKind, CrashReport, DrainPolicy, RecoveryError, RecoveryReport};
use crate::domain::PersistDomain;
use crate::metrics::{counters, RunResult};
use crate::policy::{CounterLayout, PersistencePolicy, RecoveryCost};
use crate::scheme::Scheme;

/// The common driving surface of every persist-system front.
///
/// Dyn-compatible: storms, benches, and the CLI hold a
/// `&mut dyn PersistSystem` and never know which front they drive.
pub trait PersistSystem {
    // ---- supplied by every front ----

    /// The metadata-persistence scheme the front runs.  The eADR front
    /// has no scheme spectrum (its metadata is always generated at
    /// writeback/crash time) and reports [`Scheme::Bbb`] as a
    /// placeholder, matching its [`RunResult`].
    fn scheme(&self) -> Scheme;

    /// The machine configuration.
    fn config(&self) -> &SystemConfig;

    /// Accumulated statistics.
    fn stats(&self) -> &Stats;

    /// The shared security/persistence kernel the front stages into.
    fn domain(&self) -> &PersistDomain;

    /// The kernel, mutably, for the provided methods below; its fields
    /// and mutating operations stay crate-private.
    fn domain_mut(&mut self) -> &mut PersistDomain;

    /// Attaches (or with `None` detaches) a live telemetry sink.
    ///
    /// While attached, the front mirrors stat deltas, histogram samples,
    /// spans, and crash/drain/recovery markers into the sink's ring.
    /// Telemetry observes and never steers: a run with a sink attached
    /// is byte-identical to one without.
    fn set_telemetry(&mut self, sink: Option<TelemetrySink>);

    /// Executes a single trace item.
    fn step(&mut self, item: TraceItem);

    /// The run result so far (cycles, breakdown, statistics).
    fn run_result(&self) -> RunResult;

    /// The execution time if the trace ended now (outstanding buffered
    /// work included).
    fn finish_time(&self) -> Cycle;

    /// Entries (or dirty lines) currently inside the persistence
    /// domain's volatile staging — the exposure a crash must drain.
    fn occupancy(&self) -> u64;

    /// The front's battery drain: empties (at most `max_drain_entries`
    /// of) the staging into the domain, syncs the root register, and
    /// reports the work and the lost blocks.  Fronts without ASID tags
    /// (eADR, multi-core) treat every kind/policy as a whole-domain
    /// drain.  Callers use [`crash_with_budget`](Self::crash_with_budget),
    /// which adds the telemetry markers.
    ///
    /// # Errors
    ///
    /// A staged entry the front's bookkeeping cannot find.
    fn drain_on_battery(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError>;

    // ---- provided, overridden where a front differs ----

    /// Whether the persisted image is encrypted/MAC'd/tree-protected.
    /// Not derivable from [`scheme`](Self::scheme) alone on every front:
    /// the eADR front is secure despite its placeholder scheme.
    fn secure(&self) -> bool {
        self.scheme().is_secure()
    }

    /// Whether `block` is still staged outside the durable image, so a
    /// recovery sweep reads it back stale by construction.  Fronts that
    /// drain their whole staging on a crash never leave one behind.
    fn buffered(&self, block: BlockAddr) -> bool {
        let _ = block;
        false
    }

    /// Folds all deferred integrity-tree work and persists the root
    /// register (secure fronts only), returning the analytic hash count
    /// charged to the sync.  Every front defers its tree folds to
    /// observation points, so until a sync (or a crash, which syncs) the
    /// durable root lags the NVM counter image.  This is the
    /// epoch-boundary observation point the service plane drains shards
    /// at: a whole epoch's tree updates fold in sibling batches
    /// (`compute_batch`), so the per-store metadata cost amortizes
    /// across the batch.
    fn sync_metadata(&mut self) -> u64 {
        let secure = self.secure();
        self.domain_mut().sync_root(secure)
    }

    /// Whether background drains are in flight (the mid-drain crash
    /// trigger's observation point).  Only the single-core front has a
    /// background drain engine.
    fn drains_in_flight(&self) -> bool {
        false
    }

    /// Model-internal invariant violations observed so far (the storm
    /// fails a cell on any non-zero value).
    fn anomalies(&self) -> u64 {
        self.stats().get(counters::ANOMALIES)
    }

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

    // ---- written once for every front ----

    /// The attached telemetry sink, if any.
    fn telemetry(&self) -> Option<&TelemetrySink> {
        self.stats().sink()
    }

    /// Replays a trace slice to completion.
    fn run_trace(&mut self, items: &[TraceItem]) -> RunResult {
        for &item in items {
            self.step(item);
        }
        self.run_result()
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
    /// `max_drain_entries` drained entries, taken in the front's drain
    /// order; the rest are lost and reported in
    /// [`CrashReport::lost_blocks`], modelling a brown-out where the
    /// provisioned energy runs out mid-drain.  `None` means a fully
    /// provisioned battery.  An attached telemetry sink receives a crash
    /// marker at the crash instant and a drain marker when the drain
    /// completes.
    fn crash_with_budget(
        &mut self,
        kind: CrashKind,
        policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let report = self.drain_on_battery(kind, policy, max_drain_entries)?;
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::CrashMarker {
                power_loss: !matches!(kind, CrashKind::ApplicationCrash(_)),
                cycle: report.at.raw(),
            });
            sink.emit(&TelemetryEvent::DrainMarker {
                entries: report.work.entries,
                cycle: report.drain_complete_at.raw(),
            });
        }
        Ok(report)
    }

    /// Post-crash recovery over the persisted image: rebuilds the
    /// integrity tree from the persisted counters, verifies the root
    /// register, decrypts and MAC-verifies every data block, and checks
    /// the plaintext against the architecturally expected state.
    fn recover(&self) -> RecoveryReport {
        self.recover_with(&[])
    }

    /// [`recover`](Self::recover) with lost-block accounting: blocks
    /// listed in `lost` (a brown-out crash report's
    /// [`CrashReport::lost_blocks`]) and blocks still
    /// [`buffered`](Self::buffered) are *expected* to read back stale —
    /// they get [`LostStale`](crate::crash::BlockVerdict::LostStale) /
    /// [`InFlightStale`](crate::crash::BlockVerdict::InFlightStale)
    /// verdicts instead of counting as plaintext mismatches.  An
    /// attached telemetry sink receives a recovery marker.
    fn recover_with(&self, lost: &[BlockAddr]) -> RecoveryReport {
        let report = self
            .domain()
            .recover_report(lost, self.secure(), &|block| self.buffered(block));
        if let Some(sink) = self.telemetry() {
            sink.emit(&TelemetryEvent::RecoveryMarker {
                consistent: report.is_consistent(),
                blocks: report.blocks_checked,
                cycle: self.finish_time().raw(),
            });
        }
        report
    }

    /// Re-reads the durable image of brown-out-lost blocks back into the
    /// architectural expectation so replay can continue.
    fn resync_lost_golden(&mut self, lost: &[BlockAddr]) {
        let secure = self.secure();
        self.domain_mut().resync_lost(lost, secure);
    }

    /// The persistence policy the domain runs — early-step assignment
    /// plus durable tree/counter layout, resolved from the scheme and
    /// the `triad_levels`/`shadow_counters` knobs.
    fn policy(&self) -> PersistencePolicy {
        self.domain().policy()
    }

    /// Exact post-crash recovery accounting under the domain's
    /// persistence policy: persisted counter pages and tree-frontier
    /// nodes fetched, node hashes folded to revalidate the root, data
    /// blocks fetched/decrypted/MAC-verified, and the total latency in
    /// cycles.  NVM reads pipeline across banks; crypto units pipeline
    /// at their occupancy (one hash per `bmt_hash_latency`).
    ///
    /// This is the quantity recovery-time work like Anubis (Zubair &
    /// Awad, ISCA'19 — the paper's \[74\]) and the Triad-NVM /
    /// fast-recovery policies trade write traffic against; the
    /// `recovery_sweep` bench promotes it to a swept grid metric.
    fn recovery_cost(&self) -> RecoveryCost {
        let cfg = self.config();
        let domain = self.domain();
        let pages = domain.nvm.counter_pages().count() as u64;
        let blocks = domain.nvm.data_block_count() as u64;
        if domain.policy().counters == CounterLayout::Shadow {
            RecoveryCost::fast_recovery(cfg, pages, blocks)
        } else if let Some(frontier) = domain.persisted_frontier() {
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

    /// The architecturally expected plaintext of a block (all stores
    /// applied).
    fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        self.domain().expected_plaintext(block)
    }

    /// The durable state, read-only.
    fn nvm_store(&self) -> &NvmStore {
        &self.domain().nvm
    }

    /// The durable state, for tamper injection.
    fn nvm_store_mut(&mut self) -> &mut NvmStore {
        &mut self.domain_mut().nvm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eadr::EadrSystem;
    use crate::multicore::MultiCoreSystem;
    use crate::system::SecureSystem;
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
            Box::new(EadrSystem::new(SystemConfig::default(), 11).unwrap()),
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
