//! A secure-eADR system model (the paper's `s_eADR` comparison point,
//! Section V-B, here made runnable rather than analytic-only).
//!
//! Under eADR the *entire cache hierarchy* is inside the persistence
//! domain: a store is durable the moment it reaches the L1, no persist
//! buffer and no flushes.  Security metadata is generated lazily, when a
//! dirty line finally leaves the LLC (or wholesale on a crash) — so the
//! runtime cost is near zero, and the price is the battery that must
//! drain megabytes of dirty cache *and* complete every line's memory
//! tuple on power loss.  [`EadrSystem`] measures both: execution cycles
//! comparable to the SecPB systems, and the crash-drain work the energy
//! model prices for Table V.
//!
//! This front is a thin shell over the shared [`PersistDomain`] kernel:
//! it owns only the cache hierarchy, the core clock, and the
//! whole-hierarchy drain policy; the tuple pipeline, the durable image,
//! and the recovery sweep are the domain's.

use secpb_mem::cache::LineState;
use secpb_mem::hierarchy::{Hierarchy, HitLevel};
use secpb_sim::addr::BlockAddr;
use secpb_sim::config::SystemConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::stats::Stats;
use secpb_sim::telemetry::TelemetrySink;
use secpb_sim::trace::{Access, AccessKind, TraceItem};

use crate::crash::{ConfigError, CrashKind, CrashReport, DrainPolicy, DrainWork, RecoveryError};
use crate::domain::{DomainKeys, PersistDomain};
use crate::facade::PersistSystem;
use crate::metrics::{counters, CycleBreakdown, RunResult};
use crate::policy::PersistencePolicy;
use crate::scheme::Scheme;
use crate::tree::TreeKind;

/// The secure-eADR machine.
pub struct EadrSystem {
    cfg: SystemConfig,
    now: Cycle,
    frac: f64,
    hierarchy: Hierarchy,
    domain: PersistDomain,
    stats: Stats,
}

impl std::fmt::Debug for EadrSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EadrSystem")
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl EadrSystem {
    /// Creates a secure-eADR system.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Policy`] if the persistence-policy knobs in
    /// `cfg.security` are illegal (e.g. a Triad depth deeper than the
    /// tree).
    pub fn new(cfg: SystemConfig, key_seed: u64) -> Result<Self, ConfigError> {
        let policy =
            PersistencePolicy::resolve(Scheme::NoGap, &cfg.security, TreeKind::Monolithic)?;
        let domain = PersistDomain::new(
            DomainKeys::EADR,
            TreeKind::Monolithic,
            cfg.security.bmt_levels,
            cfg.security.crypto_backend,
            key_seed,
            policy,
        );
        Ok(EadrSystem {
            hierarchy: Hierarchy::new(&cfg),
            domain,
            now: Cycle::ZERO,
            frac: 0.0,
            stats: Stats::new(),
            cfg,
        })
    }

    fn advance(&mut self, cycles: f64) {
        self.frac += cycles;
        // Truncating cast == `floor()` for the non-negative accumulator,
        // minus the libm call (see `SecureSystem::advance`).
        let whole = self.frac as u64;
        if whole >= 1 {
            self.now += whole;
            self.frac -= whole as f64;
        }
    }

    fn do_load(&mut self, access: Access) {
        self.stats.bump(counters::LOADS);
        let out = self.hierarchy.load(access.addr.block());
        let extra = out.latency.saturating_sub(self.cfg.l1.access_latency);
        self.writeback(out.writebacks);
        self.advance(self.cfg.core.load_exposure * extra as f64);
    }

    fn do_store(&mut self, access: Access) {
        self.stats.bump(counters::STORES);
        self.stats.bump(counters::PERSISTS); // durable at L1 insert
        let block = access.addr.block();
        self.domain.apply_store_golden(access);
        // Dirty (not persist-dirty): eADR lines must write back with
        // their tuples when they leave the LLC.
        let out = self.hierarchy.store(block, LineState::Dirty);
        if out.hit_level == HitLevel::Memory {
            self.stats.bump("eadr.store_fills");
        }
        self.writeback(out.writebacks);
    }

    /// LLC writebacks carry the full tuple update (pipelined at the MC,
    /// off the critical path).
    fn writeback(&mut self, blocks: Vec<BlockAddr>) {
        for block in blocks {
            self.persist_tuple(block);
            self.stats.bump("eadr.writebacks");
        }
    }

    fn persist_tuple(&mut self, block: BlockAddr) {
        self.domain.persist_block(block);
        self.stats.bump(counters::MACS);
        self.stats.bump(counters::OTPS);
        self.stats.bump(counters::BMT_ROOT_UPDATES);
    }
}

impl PersistSystem for EadrSystem {
    fn scheme(&self) -> Scheme {
        Scheme::Bbb
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

    fn step(&mut self, item: TraceItem) {
        if item.non_mem_instrs > 0 {
            self.stats
                .bump_by(counters::INSTRUCTIONS, u64::from(item.non_mem_instrs));
            self.advance(f64::from(item.non_mem_instrs) / f64::from(self.cfg.core.retire_width));
        }
        if let Some(access) = item.access {
            self.stats.bump(counters::INSTRUCTIONS);
            self.advance(1.0 / f64::from(self.cfg.core.retire_width));
            match access.kind {
                AccessKind::Load => self.do_load(access),
                AccessKind::Store => self.do_store(access),
            }
        }
    }

    /// Stores persist at L1 speed; security work only happens when dirty
    /// lines leave the LLC.
    fn run_result(&self) -> RunResult {
        RunResult {
            scheme: Scheme::Bbb,
            cycles: self.now.raw(),
            // The eADR model has no persist path: everything the core does
            // is plain retirement/exposure work.
            breakdown: CycleBreakdown {
                retire: self.now.raw(),
                ..CycleBreakdown::default()
            },
            stats: self.stats.clone(),
        }
    }

    fn finish_time(&self) -> Cycle {
        self.now
    }

    /// Dirty lines buffered in the cache hierarchy.
    fn occupancy(&self) -> u64 {
        self.hierarchy.dirty_blocks().len() as u64
    }

    /// Power loss: the battery drains **every dirty cache line** (in
    /// block order) and completes its memory tuple — the measured
    /// counterpart of Table V's `s_eADR` worst case.  Under a budget the
    /// youngest lines are lost with the cache contents: megabytes of
    /// dirty lines compete for the same joules, which makes this the
    /// most brown-out-exposed design.  The drain is not cycle-modelled,
    /// so the gaps close at the crash instant.
    fn drain_on_battery(
        &mut self,
        kind: CrashKind,
        _policy: DrainPolicy,
        max_drain_entries: Option<u64>,
    ) -> Result<CrashReport, RecoveryError> {
        let at = self.now;
        let mut dirty: Vec<BlockAddr> = self
            .hierarchy
            .dirty_blocks()
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        // Deterministic drain (and therefore loss) order.
        dirty.sort_unstable();
        let budget = usize::try_from(max_drain_entries.unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
        let lost_blocks: Vec<BlockAddr> = if dirty.len() > budget {
            dirty.split_off(budget)
        } else {
            Vec::new()
        };
        let levels = u64::from(self.cfg.security.bmt_levels);
        for &block in &dirty {
            self.persist_tuple(block);
        }
        // Observation point: the root register catches up with the drain.
        self.sync_metadata();
        self.hierarchy.clear();
        let n = dirty.len() as u64;
        self.stats.bump_by("eadr.crash_lines", n);
        self.stats
            .bump_by("eadr.lost_lines", lost_blocks.len() as u64);
        let work = DrainWork {
            entries: n,
            bytes_pb_to_mc: n * 64,
            bytes_mc_to_pm: 0,
            counter_fetches: n, // worst-case assumption 2: every access misses
            bmt_node_hashes: n * levels,
            bmt_node_fetches: n * levels,
            otps: n,
            macs: n,
            ciphertexts: n,
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

    /// eADR generates full tuples at writeback/crash, so the persisted
    /// image is always encrypted and tree-protected.
    fn secure(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyError;
    use secpb_sim::addr::Address;
    use secpb_sim::config::CacheConfig;

    fn store_trace(n: u64) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::then(9, Access::store(Address(0x10_0000 + i * 64), i)))
            .collect()
    }

    fn eadr(key_seed: u64) -> EadrSystem {
        EadrSystem::new(SystemConfig::default(), key_seed).unwrap()
    }

    fn power_loss(sys: &mut dyn PersistSystem) -> CrashReport {
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap()
    }

    #[test]
    fn stores_are_near_free_at_runtime() {
        let mut sys = eadr(1);
        let r = sys.run_trace(&store_trace(2_000));
        // Durable at L1: no persist-buffer serialization at all.
        assert_eq!(r.stats.get(counters::PERSISTS), 2_000);
        assert_eq!(
            r.stats.get("eadr.writebacks"),
            0,
            "nothing left the 4MB LLC"
        );
        assert!(r.ipc() > 2.0, "IPC {}", r.ipc());
    }

    #[test]
    fn crash_recovery_is_consistent() {
        let mut sys = eadr(2);
        sys.run_trace(&store_trace(500));
        let report = power_loss(&mut sys);
        assert_eq!(report.work.entries, 500);
        let rec = sys.recover();
        assert!(rec.is_consistent());
        assert_eq!(rec.blocks_checked, 500);
    }

    #[test]
    fn eadr_brown_out_loses_youngest_lines_with_accounting() {
        let mut sys = eadr(9);
        sys.run_trace(&store_trace(200));
        let report = sys
            .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(50))
            .unwrap();
        assert_eq!(report.work.entries, 50);
        assert_eq!(report.lost_blocks.len(), 150);
        let rec = sys.recover_with(&report.lost_blocks);
        assert!(rec.integrity_ok(), "partial eADR drain keeps tuples sound");
        assert!(rec.is_consistent(), "lost lines are accounted, not corrupt");
        sys.resync_lost_golden(&report.lost_blocks);
        assert!(sys.recover().is_consistent());
    }

    #[test]
    fn tamper_detected_after_eadr_crash() {
        let mut sys = eadr(4);
        sys.run_trace(&store_trace(50));
        power_loss(&mut sys);
        let victim = Address(0x10_0000).block();
        sys.nvm_store_mut().tamper_data(victim, 3, 3);
        assert!(!sys.recover().integrity_ok());
    }

    #[test]
    fn counter_overflow_reencrypts_the_page_and_recovers() {
        // A 2/4/8-line hierarchy: sixteen conflicting pages evict each
        // round's store, so the two hot blocks of one page write back
        // (and bump their minor counters) every other round.
        let cfg = SystemConfig {
            l1: CacheConfig::new(2 * 64, 1, 64, 2),
            l2: CacheConfig::new(4 * 64, 2, 64, 20),
            l3: CacheConfig::new(8 * 64, 2, 64, 30),
            ..SystemConfig::default()
        };
        let mut sys = EadrSystem::new(cfg, 6).unwrap();
        for round in 0..500u64 {
            sys.step(TraceItem::then(
                0,
                Access::store(Address(0x40000 + (round % 2) * 64), round),
            ));
            for page in 0..16u64 {
                sys.step(TraceItem::then(
                    0,
                    Access::store(Address(0x100_0000 + page * 4096), round),
                ));
            }
        }
        power_loss(&mut sys);
        assert!(sys.recover().is_consistent());
    }

    #[test]
    fn llc_eviction_persists_tuple_during_execution() {
        // Overflow the 4 MB LLC so dirty lines write back with tuples.
        let mut sys = eadr(5);
        let blocks = (4 << 20) / 64 * 2; // 2x LLC capacity
        let trace: Vec<TraceItem> = (0..blocks as u64)
            .map(|i| TraceItem::then(1, Access::store(Address(0x10_0000 + i * 64), i)))
            .collect();
        let r = sys.run_trace(&trace);
        assert!(r.stats.get("eadr.writebacks") > 0);
        assert!(sys.recover().blocks_checked > 0 || sys.nvm_store().data_block_count() > 0);
    }

    #[test]
    fn illegal_policy_knobs_are_typed_errors() {
        let cfg = SystemConfig::default().with_triad_levels(200);
        let err = EadrSystem::new(cfg, 1).unwrap_err();
        assert_eq!(
            err,
            ConfigError::Policy(PolicyError::DepthOutOfRange {
                depth: 200,
                levels: 8,
            })
        );
        assert_eq!(
            err.to_string(),
            "triad persistence depth 200 exceeds the 8-level tree"
        );
    }
}
