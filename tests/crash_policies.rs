//! Integration tests for crash handling policies and the battery
//! provisioning bound: the energy a crash *actually* consumes must never
//! exceed what the worst-case model provisions.

use secpb::core::crash::{CrashKind, DrainPolicy, ObserverPolicy, ObserverView};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::energy::drain::{secpb_drain_energy, SchemeKind};
use secpb::energy::runtime::{measured_energy, MeasuredWork};
use secpb::sim::addr::{Address, Asid};
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::{Access, TraceItem};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn energy_scheme(s: Scheme) -> Option<SchemeKind> {
    match s {
        Scheme::Bbb => Some(SchemeKind::Bbb),
        Scheme::Cobcm => Some(SchemeKind::Cobcm),
        Scheme::Obcm => Some(SchemeKind::Obcm),
        Scheme::Bcm => Some(SchemeKind::Bcm),
        Scheme::Cm => Some(SchemeKind::Cm),
        Scheme::M => Some(SchemeKind::M),
        Scheme::NoGap => Some(SchemeKind::NoGap),
        Scheme::Sp => None,
    }
}

#[test]
fn measured_crash_energy_within_provisioned_budget() {
    for scheme in Scheme::SECPB_SCHEMES {
        let profile = WorkloadProfile::named("zeusmp").unwrap();
        let trace = TraceGenerator::new(profile, 5).generate(40_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 5);
        sys.run_trace(trace);
        let report = sys
            .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();

        let w = report.work;
        let measured = measured_energy(&MeasuredWork {
            entries: w.entries,
            bytes_pb_to_mc: w.bytes_pb_to_mc,
            bytes_mc_to_pm: w.bytes_mc_to_pm,
            counter_fetches: w.counter_fetches,
            bmt_node_hashes: w.bmt_node_hashes,
            bmt_node_fetches: w.bmt_node_fetches,
            otps: w.otps,
            macs: w.macs,
            ciphertexts: w.ciphertexts,
        });
        let kind = energy_scheme(scheme).unwrap();
        let provisioned = secpb_drain_energy(kind, sys.config().secpb.entries);
        assert!(
            measured <= provisioned,
            "{scheme}: measured {measured} J exceeds provisioned {provisioned} J \
             (entries drained: {})",
            w.entries
        );
    }
}

#[test]
fn crash_work_scales_with_buffer_occupancy() {
    let mut small = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
    let mut large = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
    let store = |i: u64| TraceItem::then(50, Access::store(Address(0x10_0000 + i * 64), i));
    small.run_trace((0..3).map(store));
    large.run_trace((0..20).map(store));
    let rs = small
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let rl = large
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(rs.work.entries, 3);
    assert_eq!(rl.work.entries, 20);
    assert!(rl.work.macs > rs.work.macs);
    assert!(rl.work.bmt_node_hashes > rs.work.bmt_node_hashes);
}

#[test]
fn drain_process_preserves_and_later_recovers_other_process() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 2);
    let mut trace = Vec::new();
    for i in 0..10u64 {
        trace.push(TraceItem::then(
            9,
            Access::store(Address(0x10_0000 + i * 64), i).with_asid(Asid(1)),
        ));
        trace.push(TraceItem::then(
            9,
            Access::store(Address(0x20_0000 + i * 64), 100 + i).with_asid(Asid(2)),
        ));
    }
    sys.run_trace(trace);
    // Process 1 crashes; only its entries drain.
    sys.crash(
        CrashKind::ApplicationCrash(Asid(1)),
        DrainPolicy::DrainProcess,
    )
    .unwrap();
    assert!(
        sys.persist_buffer().occupancy() > 0,
        "process 2 keeps coalescing"
    );
    // Later, power is lost: everything drains and recovery covers both.
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(sys.persist_buffer().occupancy(), 0);
    let rec = sys.recover();
    assert!(rec.is_consistent());
    assert_eq!(rec.blocks_checked, 20);
}

#[test]
fn observer_timeline_is_ordered() {
    let profile = WorkloadProfile::named("bwaves").unwrap();
    let trace = TraceGenerator::new(profile, 4).generate(30_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 4);
    sys.run_trace(trace);
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert!(report.at <= report.drain_complete_at);
    assert!(report.drain_complete_at <= report.secsync_complete_at);

    // The blocking observer transitions exactly at sec-sync completion.
    let before = report.observe(ObserverPolicy::Blocking, report.at);
    assert!(
        matches!(before, ObserverView::Blocked { .. }) || report.secsync_complete_at == report.at
    );
    let after = report.observe(ObserverPolicy::Blocking, report.secsync_complete_at);
    assert_eq!(after, ObserverView::Consistent);
}

#[test]
fn execution_can_continue_after_application_crash() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Bcm, 8);
    sys.run_trace(vec![TraceItem::then(
        9,
        Access::store(Address(0x8000), 1).with_asid(Asid(1)),
    )]);
    sys.crash(CrashKind::ApplicationCrash(Asid(1)), DrainPolicy::DrainAll)
        .unwrap();
    // The system keeps running new work after an app crash.
    sys.run_trace(vec![TraceItem::then(
        9,
        Access::store(Address(0x8000), 2).with_asid(Asid(2)),
    )]);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let rec = sys.recover();
    assert!(rec.is_consistent());
    // The final value is the second store's.
    let block = Address(0x8000).block();
    assert_eq!(sys.expected_plaintext(block)[..8], 2u64.to_le_bytes());
}

#[test]
fn nogap_crash_needs_no_secsync_work() {
    // NoGap keeps every tuple complete at store time: crash-drain work
    // contains no late crypto beyond moving entries out.
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::NoGap, 9);
    let store = |i: u64| TraceItem::then(50, Access::store(Address(0x10_0000 + i * 64), i));
    sys.run_trace((0..8).map(store));
    let before_macs = sys.stats().get("crypto.macs");
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(
        report.work.macs, 0,
        "NoGap computes MACs early, not on battery"
    );
    assert_eq!(report.work.otps, 0);
    assert!(before_macs >= 8);
}

#[test]
fn cobcm_crash_does_all_work_on_battery() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 9);
    let store = |i: u64| TraceItem::then(50, Access::store(Address(0x10_0000 + i * 64), i));
    sys.run_trace((0..8).map(store));
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(report.work.entries, 8);
    assert_eq!(report.work.macs, 8, "one MAC per drained entry");
    assert_eq!(report.work.otps, 8);
    assert!(
        report.work.bmt_node_hashes >= 8,
        "at least one hash per root update"
    );
}
