//! Tests for the single-core system (trace replay, pipeline, crash and
//! recovery), kept in their own file so `system.rs` stays focused.

use secpb_sim::addr::{Address, Asid};
use secpb_sim::config::SystemConfig;
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::trace::{Access, TraceItem};
use secpb_sim::tracer::Phase;

use crate::crash::{BlockVerdict, CrashKind, DrainPolicy};
use crate::facade::PersistSystem as _;
use crate::metrics::{counters, histograms};
use crate::scheme::Scheme;
use crate::system::SecureSystem;
use crate::tree::TreeKind;

fn store_trace(n: u64, stride: u64) -> Vec<TraceItem> {
    (0..n)
        .map(|i| TraceItem::then(9, Access::store(Address(0x10000 + i * stride), i + 1)))
        .collect()
}

fn system(scheme: Scheme) -> SecureSystem {
    SecureSystem::new(SystemConfig::default(), scheme, 42)
}

#[test]
fn runs_a_simple_trace() {
    let mut sys = system(Scheme::Cobcm);
    let r = sys.run_trace(store_trace(100, 64));
    assert_eq!(r.instructions(), 1000);
    assert!(r.cycles > 0);
    assert_eq!(r.stats.get(counters::STORES), 100);
    assert_eq!(r.stats.get(counters::PERSISTS), 100);
}

#[test]
fn coalescing_reduces_allocations() {
    let mut sys = system(Scheme::Cobcm);
    // 100 stores to the same block: 1 allocation.
    let r = sys.run_trace(store_trace(100, 8).into_iter().map(|mut t| {
        if let Some(a) = &mut t.access {
            a.addr = Address(0x10000 + (a.addr.0 - 0x10000) % 64);
        }
        t
    }));
    assert_eq!(r.stats.get(counters::ALLOCATIONS), 1);
    assert_eq!(r.stats.get(counters::PERSISTS), 100);
}

#[test]
fn eager_schemes_cost_more_cycles() {
    // Mix fresh blocks with reuse so both the allocation path (BMT,
    // OTP) and the coalescing hit path (per-store MAC for NoGap)
    // contribute.
    let trace: Vec<TraceItem> = (0..600u64)
        .map(|i| {
            // Alternate fresh blocks (allocation path) with a 16-block
            // hot set (coalescing hits).
            let addr = if i % 2 == 0 {
                Address(0x100_0000 + i * 64)
            } else {
                Address(0x10000 + (i % 16) * 64)
            };
            TraceItem::then(9, Access::store(addr, i))
        })
        .collect();
    let mut results = Vec::new();
    for scheme in [
        Scheme::Bbb,
        Scheme::Cobcm,
        Scheme::Bcm,
        Scheme::Cm,
        Scheme::NoGap,
    ] {
        let mut sys = system(scheme);
        results.push((scheme, sys.run_trace(trace.clone()).cycles));
    }
    let cycles: FxHashMap<Scheme, u64> = results.into_iter().collect();
    assert!(cycles[&Scheme::Cobcm] >= cycles[&Scheme::Bbb]);
    assert!(cycles[&Scheme::Bcm] > cycles[&Scheme::Cobcm]);
    assert!(cycles[&Scheme::Cm] > cycles[&Scheme::Bcm]);
    assert!(cycles[&Scheme::NoGap] > cycles[&Scheme::Cm]);
}

#[test]
fn crash_then_recover_is_consistent_for_all_schemes() {
    for scheme in Scheme::ALL {
        let mut sys = system(scheme);
        sys.run_trace(store_trace(200, 64));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let rec = sys.recover();
        assert!(
            rec.is_consistent(),
            "{scheme}: root_ok={} macs={:?} pts={:?}",
            rec.root_ok,
            rec.mac_failures.len(),
            rec.plaintext_mismatches.len()
        );
        assert!(rec.blocks_checked > 0, "{scheme}: nothing persisted");
    }
}

#[test]
fn tampering_is_detected_after_crash() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(50, 64));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let victim = sys.nvm_store().data_blocks().next().unwrap();
    sys.nvm_store_mut().tamper_data(victim, 0, 0);
    let rec = sys.recover();
    assert!(!rec.integrity_ok());
    assert!(rec.mac_failures.contains(&victim));
}

#[test]
fn replayed_tuple_is_caught_by_tree() {
    let mut sys = system(Scheme::Cobcm);
    let block = Address(0x10000).block();
    // First round: persist version 1 everywhere.
    sys.run_trace(vec![TraceItem::then(9, Access::store(Address(0x10000), 1))]);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let old_data = sys.nvm_store().read_data(block);
    let old_mac = sys.nvm_store().read_mac(block);
    // Second round: overwrite with version 2.
    sys.run_trace(vec![TraceItem::then(9, Access::store(Address(0x10000), 2))]);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    // Replay the whole old (data, MAC) tuple; the stale counter in the
    // tuple no longer matches the persisted counter block.
    sys.nvm_store_mut().replay_tuple(block, old_data, old_mac);
    let rec = sys.recover();
    assert!(!rec.integrity_ok(), "replay must be detected");
}

#[test]
fn app_crash_drain_process_keeps_other_entries() {
    let mut sys = system(Scheme::Cobcm);
    let a1 = Asid(1);
    let a2 = Asid(2);
    let t1 = TraceItem::then(9, Access::store(Address(0x10000), 1).with_asid(a1));
    let t2 = TraceItem::then(9, Access::store(Address(0x20000), 2).with_asid(a2));
    sys.run_trace(vec![t1, t2]);
    assert_eq!(sys.persist_buffer().occupancy(), 2);
    let report = sys
        .crash(CrashKind::ApplicationCrash(a1), DrainPolicy::DrainProcess)
        .unwrap();
    assert_eq!(report.work.entries, 1);
    assert_eq!(sys.persist_buffer().occupancy(), 1);
    assert!(sys.persist_buffer().contains(Address(0x20000).block()));
}

#[test]
fn drain_all_empties_buffer_on_app_crash() {
    let mut sys = system(Scheme::Cobcm);
    let t1 = TraceItem::then(9, Access::store(Address(0x10000), 1).with_asid(Asid(1)));
    let t2 = TraceItem::then(9, Access::store(Address(0x20000), 2).with_asid(Asid(2)));
    sys.run_trace(vec![t1, t2]);
    sys.crash(CrashKind::ApplicationCrash(Asid(1)), DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(sys.persist_buffer().occupancy(), 0);
}

#[test]
fn brown_out_crash_accounts_every_lost_block() {
    let mut sys = system(Scheme::Cobcm);
    // Round 1: persist version 1 of every block so lost blocks have
    // an *older* durable image to fall back to.
    sys.run_trace(store_trace(40, 4096));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    // Round 2: overwrite with different values, then brown out
    // mid-drain.
    sys.run_trace(
        (0..40u64).map(|i| TraceItem::then(9, Access::store(Address(0x10000 + i * 4096), i + 500))),
    );
    let occupancy = sys.persist_buffer().occupancy() as u64;
    assert!(occupancy > 4, "need buffered entries to lose");
    let budget = 3u64;
    let report = sys
        .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(budget))
        .unwrap();
    assert_eq!(report.work.entries, budget);
    assert_eq!(report.lost_block_count(), occupancy - budget);
    assert!(!report.drain_was_complete());
    assert_eq!(sys.persist_buffer().occupancy(), 0, "power loss empties PB");

    // Recovery with accounting: integrity holds, lost blocks read
    // back stale but are classified, not reported as corruption.
    let rec = sys.recover_with(&report.lost_blocks);
    assert!(rec.integrity_ok(), "partial drain keeps tuple consistent");
    assert!(rec.is_consistent(), "lost staleness is accounted");
    assert!(
        !rec.lost_stale.is_empty(),
        "at least one lost block had an older durable image"
    );
    // Without accounting the same state shows plaintext mismatches.
    let unaccounted = sys.recover();
    assert_eq!(unaccounted.plaintext_mismatches.len(), rec.lost_stale.len());

    // Resync golden to the durable image; now everything verifies.
    let lost = report.lost_blocks.clone();
    sys.resync_lost_golden(&lost);
    assert!(sys.recover().is_consistent());
}

#[test]
fn budgeted_crash_with_enough_budget_loses_nothing() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(30, 4096));
    let occupancy = sys.persist_buffer().occupancy() as u64;
    let report = sys
        .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(occupancy))
        .unwrap();
    assert!(report.drain_was_complete());
    assert_eq!(report.work.entries, occupancy);
    assert!(sys.recover().is_consistent());
}

#[test]
fn recovery_verdicts_cover_every_checked_block() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(60, 64));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let rec = sys.recover();
    assert_eq!(rec.verdicts.len() as u64, rec.blocks_checked);
    assert!(rec
        .verdicts
        .iter()
        .all(|(_, v)| *v == BlockVerdict::Verified));
    let blocks: Vec<_> = rec.verdicts.iter().map(|(b, _)| b.index()).collect();
    let mut sorted = blocks.clone();
    sorted.sort_unstable();
    assert_eq!(blocks, sorted, "verdicts are in block order");
}

#[test]
fn watermark_drains_keep_occupancy_bounded() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(500, 64));
    assert!(sys.persist_buffer().occupancy() <= sys.config().secpb.entries);
    assert!(
        sys.stats().get(counters::DRAINS) > 0,
        "watermark drains must fire"
    );
}

#[test]
fn bmt_updates_coalesce_with_buffer() {
    // Repeated stores to few blocks: far fewer BMT root updates than
    // stores (Figure 8's effect).
    let mut sys = system(Scheme::Cm);
    let trace: Vec<TraceItem> = (0..400u64)
        .map(|i| TraceItem::then(9, Access::store(Address(0x10000 + (i % 4) * 64), i)))
        .collect();
    let r = sys.run_trace(trace);
    let updates = r.stats.get(counters::ALLOCATIONS);
    assert!(
        updates < 40,
        "400 stores to 4 blocks should allocate rarely, got {updates}"
    );
}

#[test]
fn sp_persists_every_store() {
    let mut sys = system(Scheme::Sp);
    let r = sys.run_trace(store_trace(20, 64));
    assert_eq!(r.stats.get(counters::PERSISTS), 20);
    assert_eq!(r.stats.get(counters::BMT_ROOT_UPDATES), 20);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert!(sys.recover().is_consistent());
}

#[test]
fn observer_sees_gap_timing() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(100, 64));
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert!(report.secsync_complete_at >= report.drain_complete_at);
    assert!(report.drain_complete_at >= report.at);
}

#[test]
fn page_overflow_triggers_reencryption_and_stays_consistent() {
    // Hammer blocks of one page so their entries thrash and the minor
    // counters climb past 127, interleaving stores to other pages to
    // force drains.  With 4 entries every drain burst is a single entry;
    // with 16 a burst holds several, so an overflow lands mid-burst and
    // must split it before the page is re-encrypted.  BCM entries carry
    // early counters, which the re-encryption refreshes in flight.
    let cases: [(usize, u64, u64, &[Scheme]); 2] = [
        (4, 2, 600, &[Scheme::Cobcm]),
        (16, 8, 4000, &[Scheme::Cobcm, Scheme::Bcm]),
    ];
    for (entries, hot_blocks, iters, schemes) in cases {
        for &scheme in schemes {
            let mut cfg = SystemConfig::default();
            cfg.secpb.entries = entries;
            let mut sys = SecureSystem::new(cfg, scheme, 7);
            let mut trace = Vec::new();
            for i in 0..iters {
                trace.push(TraceItem::then(
                    0,
                    Access::store(Address(0x40000 + (i % hot_blocks) * 64), i),
                ));
                trace.push(TraceItem::then(
                    0,
                    Access::store(Address(0x80000 + (i % 8) * 4096), i),
                ));
            }
            let r = sys.run_trace(trace);
            assert!(
                r.stats.get(counters::PAGE_OVERFLOWS) > 0,
                "{scheme}/{entries}: expected at least one minor-counter overflow"
            );
            sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            assert!(sys.recover().is_consistent(), "{scheme}/{entries}");
        }
    }
}

#[test]
fn finish_time_waits_for_store_buffer() {
    let mut sys = system(Scheme::NoGap);
    sys.run_trace(store_trace(10, 64));
    assert!(sys.finish_time() >= sys.now);
}

#[test]
fn recovery_time_grows_with_persistent_footprint() {
    let measure = |stores: u64| {
        let mut sys = system(Scheme::Cobcm);
        sys.run_trace(store_trace(stores, 4096));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        sys.recovery_cost().cycles
    };
    let small = measure(20);
    let large = measure(400);
    assert!(small > 0);
    assert!(
        large > 5 * small,
        "recovery time must scale: {small} vs {large}"
    );
}

#[test]
fn empty_system_recovers_instantly() {
    let sys = system(Scheme::Cobcm);
    assert_eq!(sys.recovery_cost().cycles, 0);
}

#[test]
fn blocking_verification_slows_memory_loads() {
    // A load stream with no reuse: every load misses to memory.
    let trace: Vec<TraceItem> = (0..500u64)
        .map(|i| TraceItem::then(9, Access::load(Address(0x800_0000 + i * 4096))))
        .collect();
    let run = |speculative: bool| {
        let cfg = SystemConfig::default().with_speculative_verification(speculative);
        let mut sys = SecureSystem::new(cfg, Scheme::Cobcm, 3);
        sys.run_trace(trace.clone())
    };
    let spec = run(true);
    let blocking = run(false);
    assert!(
        blocking.cycles > spec.cycles,
        "{} !> {}",
        blocking.cycles,
        spec.cycles
    );
    assert_eq!(blocking.stats.get("mem.blocking_verifications"), 500);
    assert_eq!(spec.stats.get("mem.blocking_verifications"), 0);
}

#[test]
fn reset_measurement_starts_a_fresh_region() {
    let mut sys = system(Scheme::Cobcm);
    sys.run_trace(store_trace(100, 64));
    sys.reset_measurement();
    let r = sys.run_trace(store_trace(50, 64));
    assert_eq!(r.stats.get(counters::STORES), 50, "stats restart at zero");
    assert!(
        r.cycles > 0 && r.cycles < 100_000,
        "cycles measured from the region start"
    );
}

#[test]
fn obcm_pays_double_buffer_access_on_allocation() {
    // Pure allocation stream with counter-cache hits: OBCM's extra
    // access is visible against BCM minus the OTP latency.
    let mut obcm = system(Scheme::Obcm);
    let r = obcm.run_trace(store_trace(100, 64));
    assert_eq!(r.stats.get(counters::ALLOCATIONS), 100);
    assert_eq!(r.stats.get(counters::COUNTER_INCREMENTS), 100);
    // OBCM generates no OTPs at store time.
    // (They appear only at drains.)
    let drains = r.stats.get(counters::DRAINS);
    assert_eq!(r.stats.get(counters::OTPS), drains);
}

#[test]
fn breakdown_sums_to_cycles_for_all_schemes() {
    for scheme in Scheme::ALL {
        let mut sys = system(scheme);
        let r = sys.run_trace(store_trace(300, 64));
        assert_eq!(r.breakdown.total(), r.cycles, "{scheme}");
    }
}

#[test]
fn breakdown_sums_after_measurement_reset() {
    for scheme in Scheme::ALL {
        let mut sys = system(scheme);
        sys.run_trace(store_trace(100, 64));
        sys.reset_measurement();
        let r = sys.run_trace(store_trace(200, 64));
        assert_eq!(r.breakdown.total(), r.cycles, "{scheme}");
    }
}

#[test]
fn histograms_and_spans_populate() {
    let mut sys = system(Scheme::Cobcm);
    sys.enable_trace_capture(1 << 16);
    let r = sys.run_trace(store_trace(500, 64));
    let occ = r
        .stats
        .histogram(histograms::OCCUPANCY)
        .expect("occupancy recorded");
    assert_eq!(occ.total(), r.stats.get(counters::PERSISTS));
    let wpe = r
        .stats
        .histogram(histograms::WRITES_PER_ENTRY)
        .expect("NWPE recorded");
    assert_eq!(wpe.total(), r.stats.get(counters::DRAINS));
    let lat = r
        .stats
        .histogram(histograms::DRAIN_LATENCY)
        .expect("latency recorded");
    assert_eq!(lat.total(), r.stats.get(counters::DRAINS));
    assert_eq!(sys.tracer().count(Phase::StorePersist), 500);
    assert!(sys.tracer().count(Phase::Drain) > 0);
    assert!(sys.tracer().cycles(Phase::Drain) > 0);
    assert!(!sys.tracer().events().is_empty(), "capture was enabled");
}

#[test]
fn sp_works_with_forest_trees() {
    for kind in [TreeKind::Dbmf, TreeKind::Sbmf] {
        let mut sys = SecureSystem::with_tree(SystemConfig::default(), Scheme::Sp, kind, 5);
        sys.run_trace(store_trace(40, 4096));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        assert!(sys.recover().is_consistent(), "{kind:?}");
    }
}

#[test]
fn cm_with_forest_recovers() {
    for kind in [TreeKind::Dbmf, TreeKind::Sbmf] {
        let mut sys = SecureSystem::with_tree(SystemConfig::default(), Scheme::Cm, kind, 6);
        sys.run_trace(store_trace(120, 4096));
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        assert!(sys.recover().is_consistent(), "{kind:?}");
    }
}
