//! Multi-core SecPB system (Section IV-C of the paper, made runnable).
//!
//! The paper evaluates one core (Table I) but specifies how per-core
//! SecPBs must behave in a multi-core machine: a directory prevents
//! metadata/data replication, remote writes *migrate* entries (carrying
//! their data-value-independent metadata so it is not regenerated), and
//! remote reads *flush* the owner's entry to PM while servicing the data
//! in parallel.  [`MultiCoreSystem`] wires the
//! [`CoherenceController`] to the shared
//! [`PersistDomain`] kernel so multi-threaded store streams can be
//! replayed, crashed, and recovered end to end.
//!
//! Timing here is event-cost based (per-event constants for migrations,
//! flushes, and drains) rather than the single-core model's full
//! pipeline: the goal is protocol correctness plus first-order costs
//! (migration counts, flush counts, per-core cycle totals).
//!
//! This front is a thin shell over the [`PersistDomain`]: it owns only
//! the per-core SecPB bank, the directory protocol, and the per-core
//! clocks; the tuple pipeline, the durable image, and the recovery
//! sweep are the domain's.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::stats::Stats;
use secpb_sim::telemetry::{TelemetryEvent, TelemetrySink};
use secpb_sim::trace::{Access, AccessKind, TraceItem};

use crate::coherence::{CoherenceAction, CoherenceController};
use crate::crash::{ConfigError, CrashKind, CrashReport, DrainPolicy, DrainWork, RecoveryError};
use crate::domain::{DomainKeys, PersistDomain};
use crate::entry::Entry;
use crate::facade::PersistSystem;
use crate::metrics::{counters, CycleBreakdown, RunResult};
use crate::policy::PersistencePolicy;
use crate::scheme::Scheme;
use crate::tree::TreeKind;

/// Cycles charged for migrating a SecPB entry between cores (an L2-to-L2
/// class transfer).
const MIGRATION_LATENCY: u64 = 40;

/// Cycles charged to the reader for a remote flush-and-forward.
const REMOTE_READ_LATENCY: u64 = 60;

/// A store observed by one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStore {
    /// Which core issues the store.
    pub core: usize,
    /// The access itself (must be a store).
    pub access: Access,
}

/// The multi-core secure-PM system.
pub struct MultiCoreSystem {
    cfg: SystemConfig,
    scheme: Scheme,
    coherence: CoherenceController,
    core_now: Vec<Cycle>,
    domain: PersistDomain,
    stats: Stats,
}

impl std::fmt::Debug for MultiCoreSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCoreSystem")
            .field("cores", &self.core_now.len())
            .field("scheme", &self.scheme)
            .finish_non_exhaustive()
    }
}

impl MultiCoreSystem {
    /// Creates a system with `cores` cores, each with its own SecPB.
    ///
    /// Rejects zero cores, a scheme that keeps no SecPB, and degenerate
    /// SecPB geometry with a typed [`ConfigError`].
    pub fn new(
        cfg: SystemConfig,
        scheme: Scheme,
        cores: usize,
        key_seed: u64,
    ) -> Result<Self, ConfigError> {
        if !scheme.uses_secpb() {
            return Err(ConfigError::BufferlessScheme(scheme));
        }
        let policy = PersistencePolicy::resolve(scheme, &cfg.security, TreeKind::Monolithic)?;
        let domain = PersistDomain::new(
            DomainKeys::MULTI_CORE,
            TreeKind::Monolithic,
            cfg.security.bmt_levels,
            cfg.security.crypto_backend,
            key_seed,
            policy,
        );
        Ok(MultiCoreSystem {
            coherence: CoherenceController::new(cores, cfg.secpb)?,
            core_now: vec![Cycle::ZERO; cores],
            domain,
            stats: Stats::new(),
            scheme,
            cfg,
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.core_now.len()
    }

    /// A core's local clock.
    pub fn core_time(&self, core: usize) -> Cycle {
        self.core_now[core]
    }

    /// Records a model-invariant violation: bumps `mc.anomalies` and,
    /// when a telemetry sink is attached, emits an anomaly-transition
    /// marker carrying the new cumulative count.
    fn note_anomaly(&mut self) {
        self.stats.bump("mc.anomalies");
        if let Some(sink) = self.stats.sink() {
            sink.emit(&TelemetryEvent::AnomalyMarker {
                count: self.stats.get("mc.anomalies"),
                cycle: self.finish_time().raw(),
            });
        }
    }

    /// The coherence controller (for invariant checks in tests).
    pub fn coherence(&self) -> &CoherenceController {
        &self.coherence
    }

    /// Executes one store from a core, handling coherence.
    ///
    /// # Panics
    ///
    /// Panics if the access is not a store or the core index is out of
    /// range.
    pub fn store(&mut self, store: CoreStore) {
        assert!(store.access.is_store(), "store() requires a store access");
        let core = store.core;
        let block = store.access.addr.block();
        self.domain.apply_store_golden(store.access);
        self.stats.bump("mc.stores");

        // Make room in the requesting core's SecPB first.
        while self.coherence.pb(core).is_full() && !self.coherence.pb(core).contains(block) {
            let Some(victim) = self.coherence.pb(core).oldest() else {
                // A full PB with no oldest entry is a broken invariant;
                // survive it and let the storm see the anomaly counter.
                self.note_anomaly();
                break;
            };
            let Some(entry) = self.coherence.drain(victim) else {
                self.note_anomaly();
                break;
            };
            self.flush_entry(entry);
            self.stats.bump("mc.capacity_drains");
            self.core_now[core] += 8;
        }

        let base = self.domain.expected_plaintext(block);
        let action = self.coherence.write(core, block, store.access.asid, base);
        let latency = match action {
            CoherenceAction::LocalHit => self.cfg.secpb.access_latency,
            CoherenceAction::Allocated => {
                self.stats.bump("mc.allocations");
                self.cfg.secpb.access_latency
            }
            CoherenceAction::MigratedFrom { .. } => {
                self.stats.bump("mc.migrations");
                self.cfg.secpb.access_latency + MIGRATION_LATENCY
            }
            CoherenceAction::FlushedFrom { .. } => {
                // Writes never flush under the protocol; tolerate a
                // misbehaving controller instead of aborting.
                self.note_anomaly();
                self.cfg.secpb.access_latency
            }
        };
        // Apply the store to the (now-local) entry.
        let pb_core = core;
        let applied = self
            .coherence
            .pb_mut(pb_core)
            .entry_mut(block)
            .map(|entry| {
                entry.apply_store(
                    store.access.addr.block_offset(),
                    store.access.value,
                    usize::from(store.access.size),
                );
            })
            .is_some();
        if !applied {
            self.note_anomaly();
        }
        self.core_now[core] += latency;
    }

    /// Executes one load from a core: remote hits flush the owner's entry
    /// to PM (the paper's read rule) and the reader gets the fresh value.
    pub fn load(&mut self, core: usize, block: BlockAddr) -> [u8; 64] {
        self.stats.bump("mc.loads");
        match self.coherence.read(core, block) {
            Some(CoherenceAction::FlushedFrom { .. }) => {
                for entry in self.coherence.take_flushed() {
                    self.flush_entry(entry);
                }
                self.stats.bump("mc.remote_read_flushes");
                self.core_now[core] += REMOTE_READ_LATENCY;
            }
            Some(CoherenceAction::LocalHit) => {
                self.core_now[core] += self.cfg.secpb.access_latency;
            }
            _ => {
                self.core_now[core] += self.cfg.l1.access_latency;
            }
        }
        self.domain.expected_plaintext(block)
    }

    /// Which core a trace access runs on: threads are identified by ASID
    /// and pinned round-robin, so a single-core system replays exactly
    /// the single-threaded stream.
    fn route(&self, access: Access) -> usize {
        usize::from(access.asid.0) % self.cores()
    }

    /// Flushes one entry through the domain's drain kernel as a
    /// one-entry run, resolving its counter (overflow-aware), pad and
    /// ciphertext first.
    fn flush_entry(&mut self, mut entry: Entry) {
        if !entry.valid.counter {
            (entry.counter, _) = self.domain.increment_counter(entry.block);
            entry.valid.counter = true;
        }
        self.domain.seal(&mut entry);
        self.domain.flush_resolved(std::slice::from_ref(&entry));
        self.stats.bump("mc.flushes");
    }
}

impl PersistSystem for MultiCoreSystem {
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
        self.stats.set_sink(sink);
    }

    /// Routes each access to a core by ASID.
    fn step(&mut self, item: TraceItem) {
        let core = item.access.map(|a| self.route(a)).unwrap_or(0);
        if item.non_mem_instrs > 0 {
            self.stats
                .bump_by(counters::INSTRUCTIONS, u64::from(item.non_mem_instrs));
            self.core_now[core] +=
                u64::from(item.non_mem_instrs).div_ceil(u64::from(self.cfg.core.retire_width));
        }
        if let Some(access) = item.access {
            self.stats.bump(counters::INSTRUCTIONS);
            match access.kind {
                AccessKind::Store => self.store(CoreStore { core, access }),
                AccessKind::Load => {
                    self.load(core, access.addr.block());
                }
            }
        }
    }

    /// Cycles are the slowest core's clock (the parallel-section
    /// critical path).
    fn run_result(&self) -> RunResult {
        let cycles = self.finish_time().raw();
        RunResult {
            scheme: self.scheme,
            cycles,
            // The event-cost model has no pipeline attribution: everything
            // is first-order retirement/event work.
            breakdown: CycleBreakdown {
                retire: cycles,
                ..CycleBreakdown::default()
            },
            stats: self.stats.clone(),
        }
    }

    fn finish_time(&self) -> Cycle {
        self.core_now.iter().copied().max().unwrap_or(Cycle::ZERO)
    }

    /// Entries resident across every core's SecPB.
    fn occupancy(&self) -> u64 {
        (0..self.cores())
            .map(|c| self.coherence.pb(c).occupancy() as u64)
            .sum()
    }

    /// Full crash: every core's SecPB drains and all metadata completes.
    /// Under a budget at most `max_drain_entries` entries drain across
    /// all cores (core 0 first, oldest first within a core — the shared
    /// battery powers the drain network serially); the rest are *lost*
    /// with the buffers.  The event-cost model tracks entry movement,
    /// not the per-phase crypto deltas, and the gaps close at the crash
    /// instant.
    fn drain_on_battery(
        &mut self,
        kind: CrashKind,
        _policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let at = self.finish_time();
        let budget = max_drain_entries.unwrap_or(u64::MAX);
        let mut drained = 0u64;
        let mut lost_blocks = Vec::new();
        for core in 0..self.cores() {
            while let Some(block) = self.coherence.pb(core).oldest() {
                let entry = self
                    .coherence
                    .drain(block)
                    .ok_or(RecoveryError::UntrackedEntry(block))?;
                if drained < budget {
                    self.flush_entry(entry);
                    drained += 1;
                } else {
                    // Battery dead: the entry evaporates undrained.
                    lost_blocks.push(block);
                }
            }
        }
        // Observation point: the root register catches up with the drain.
        self.sync_metadata();
        self.stats.bump_by("mc.crash_drains", drained);
        self.stats
            .bump_by("mc.lost_entries", lost_blocks.len() as u64);
        let work = DrainWork {
            entries: drained,
            bytes_pb_to_mc: drained * self.scheme.entry_footprint_bytes(),
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

    /// Only SecPB schemes construct (bufferless `SP` is rejected), and
    /// `bbb` still runs the full tuple pipeline in this front.
    fn secure(&self) -> bool {
        true
    }

    /// A block resident in *any* core's SecPB.
    fn buffered(&self, block: BlockAddr) -> bool {
        (0..self.cores()).any(|c| self.coherence.pb(c).contains(block))
    }

    fn anomalies(&self) -> u64 {
        self.stats.get("mc.anomalies")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::addr::{Address, Asid};

    fn sys(cores: usize) -> MultiCoreSystem {
        MultiCoreSystem::new(SystemConfig::default(), Scheme::Cobcm, cores, 1234).unwrap()
    }

    fn power_loss(m: &mut MultiCoreSystem) -> CrashReport {
        m.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap()
    }

    fn st(core: usize, addr: u64, value: u64) -> CoreStore {
        CoreStore {
            core,
            access: Access::store(Address(addr), value).with_asid(Asid(core as u16)),
        }
    }

    #[test]
    fn independent_cores_do_not_interact() {
        let mut m = sys(2);
        m.store(st(0, 0x10_0000, 1));
        m.store(st(1, 0x20_0000, 2));
        assert_eq!(m.stats().get("mc.migrations"), 0);
        assert!(m.coherence().replication_free());
    }

    #[test]
    fn write_sharing_migrates() {
        let mut m = sys(2);
        m.store(st(0, 0x10_0000, 1));
        m.store(st(1, 0x10_0000, 2));
        assert_eq!(m.stats().get("mc.migrations"), 1);
        assert!(m.coherence().replication_free());
        // The final value is core 1's store.
        assert_eq!(
            m.expected_plaintext(Address(0x10_0000).block())[..8],
            2u64.to_le_bytes()
        );
    }

    #[test]
    fn remote_read_flushes_and_returns_fresh_value() {
        let mut m = sys(2);
        m.store(st(0, 0x10_0000, 7));
        let v = m.load(1, Address(0x10_0000).block());
        assert_eq!(v[..8], 7u64.to_le_bytes());
        assert_eq!(m.stats().get("mc.remote_read_flushes"), 1);
        // The flushed block is already durable and verifiable.
        assert!(m.coherence().replication_free());
    }

    #[test]
    fn crash_recovery_across_cores_is_consistent() {
        let mut m = sys(4);
        for i in 0..200u64 {
            let core = (i % 4) as usize;
            m.store(st(core, 0x10_0000 + (i % 37) * 64, i));
        }
        // Some cross-core traffic too.
        m.store(st(0, 0x10_0000, 999));
        m.store(st(3, 0x10_0000, 1000));
        let drained = power_loss(&mut m).work.entries;
        assert!(drained > 0);
        let rec = m.recover();
        assert!(
            rec.is_consistent(),
            "root_ok={} macs={} mismatches={}",
            rec.root_ok,
            rec.mac_failures.len(),
            rec.plaintext_mismatches.len()
        );
    }

    #[test]
    fn capacity_drains_free_slots() {
        let mut m = MultiCoreSystem::new(
            {
                let mut cfg = SystemConfig::default();
                cfg.secpb.entries = 4;
                cfg
            },
            Scheme::Cobcm,
            1,
            7,
        )
        .unwrap();
        for i in 0..20u64 {
            m.store(st(0, 0x10_0000 + i * 64, i));
        }
        assert!(m.stats().get("mc.capacity_drains") > 0);
        power_loss(&mut m);
        assert!(m.recover().is_consistent());
    }

    #[test]
    fn multicore_brown_out_accounts_lost_entries() {
        let mut m = sys(4);
        for i in 0..40u64 {
            m.store(st((i % 4) as usize, 0x10_0000 + i * 64, i));
        }
        let report = m
            .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(10))
            .unwrap();
        assert_eq!(report.work.entries, 10);
        assert_eq!(report.lost_blocks.len(), 30);
        let rec = m.recover_with(&report.lost_blocks);
        assert!(rec.integrity_ok());
        assert!(rec.is_consistent(), "lost entries are accounted");
        m.resync_lost_golden(&report.lost_blocks);
        assert!(m.recover().is_consistent());
    }

    #[test]
    fn tamper_after_multicore_crash_is_detected() {
        let mut m = sys(2);
        m.store(st(0, 0x10_0000, 1));
        m.store(st(1, 0x20_0000, 2));
        power_loss(&mut m);
        let victim = Address(0x10_0000).block();
        m.nvm_store_mut().tamper_data(victim, 0, 0);
        assert!(!m.recover().integrity_ok());
    }

    #[test]
    fn ping_pong_many_migrations_stay_consistent() {
        let mut m = sys(2);
        for i in 0..50u64 {
            m.store(st((i % 2) as usize, 0x10_0000, i));
        }
        assert_eq!(m.stats().get("mc.migrations"), 49);
        power_loss(&mut m);
        assert!(m.recover().is_consistent());
        assert_eq!(
            m.expected_plaintext(Address(0x10_0000).block())[..8],
            49u64.to_le_bytes()
        );
    }

    #[test]
    fn counter_overflow_reencrypts_the_page_and_recovers() {
        // Six blocks of one page cycle through a 4-entry SecPB, so every
        // store past the fourth capacity-drains a block of the page and
        // its minor counter overflows after 128 drains.
        for cores in [1, 2] {
            let mut cfg = SystemConfig::default();
            cfg.secpb.entries = 4;
            let mut m = MultiCoreSystem::new(cfg, Scheme::Cobcm, cores, 7).unwrap();
            for i in 0..1_000u64 {
                m.store(st(0, 0x40000 + (i % 6) * 64, i));
            }
            power_loss(&mut m);
            assert!(m.recover().is_consistent(), "mc{cores}");
        }
    }

    #[test]
    fn core_clocks_advance_independently() {
        let mut m = sys(2);
        for i in 0..10u64 {
            m.store(st(0, 0x10_0000 + i * 64, i));
        }
        assert!(m.core_time(0) > m.core_time(1));
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        assert_eq!(
            MultiCoreSystem::new(SystemConfig::default(), Scheme::Cobcm, 0, 1)
                .err()
                .map(|e| e.to_string()),
            Some(ConfigError::ZeroCores.to_string())
        );
        assert!(matches!(
            MultiCoreSystem::new(SystemConfig::default(), Scheme::Sp, 2, 1).err(),
            Some(ConfigError::BufferlessScheme(Scheme::Sp))
        ));
        let mut cfg = SystemConfig::default();
        cfg.secpb.entries = 0;
        assert!(matches!(
            MultiCoreSystem::new(cfg, Scheme::Cobcm, 2, 1).err(),
            Some(ConfigError::ZeroSecPbEntries)
        ));
    }

    #[test]
    fn trace_replay_routes_by_asid() {
        let mut m = sys(2);
        let trace: Vec<TraceItem> = (0..40u64)
            .map(|i| {
                TraceItem::then(
                    3,
                    Access::store(Address(0x10_0000 + i * 64), i).with_asid(Asid((i % 2) as u16)),
                )
            })
            .collect();
        let r = m.run_trace(&trace);
        assert_eq!(r.stats.get("mc.stores"), 40);
        assert!(m.core_time(0) > Cycle::ZERO && m.core_time(1) > Cycle::ZERO);
        assert!(r.cycles > 0);
        power_loss(&mut m);
        assert!(m.recover().is_consistent());
    }
}
