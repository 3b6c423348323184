//! Integration tests for crash handling policies and the battery
//! provisioning bound: the energy a crash *actually* consumes must never
//! exceed what the worst-case model provisions.

use secpb::core::crash::{CrashKind, CrashReport, DrainPolicy, ObserverPolicy, ObserverView};
use secpb::core::eadr::EadrSystem;
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::energy::drain::{
    eadr_energy, per_entry_drain_energy, secpb_drain_energy, secure_eadr_energy,
};
use secpb::energy::runtime::measured_energy;
use secpb::sim::addr::{Address, Asid};
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::{Access, TraceItem};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn power_loss(sys: &mut dyn PersistSystem) -> CrashReport {
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap()
}

#[test]
fn measured_crash_energy_within_provisioned_budget() {
    for scheme in Scheme::SECPB_SCHEMES {
        let profile = WorkloadProfile::named("zeusmp").unwrap();
        let trace = TraceGenerator::new(profile, 5).generate(40_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 5);
        sys.run_trace(trace);
        let w = power_loss(&mut sys).work;

        let measured = measured_energy(&w);
        let provisioned = secpb_drain_energy(scheme, sys.config().secpb.entries);
        assert!(
            measured <= provisioned,
            "{scheme}: measured {measured} J exceeds provisioned {provisioned} J \
             (entries drained: {})",
            w.entries
        );
    }
}

#[test]
fn crash_work_dwarfs_secpb_crash_work() {
    // The paper's Table V point, measured: for the same store stream,
    // s_eADR's battery-powered work is orders of magnitude larger than a
    // 32-entry SecPB's.
    let trace: Vec<TraceItem> = (0..3_000u64)
        .map(|i| TraceItem::then(9, Access::store(Address(0x10_0000 + i * 64), i)))
        .collect();
    let mut s_eadr = EadrSystem::new(SystemConfig::default(), 3).unwrap();
    s_eadr.run_trace(&trace);
    let e_eadr = measured_energy(&power_loss(&mut s_eadr).work);

    let mut secpb = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 3);
    secpb.run_trace(trace);
    let e_secpb = measured_energy(&power_loss(&mut secpb).work);
    assert!(
        e_eadr > 20.0 * e_secpb,
        "eADR {e_eadr} J should dwarf SecPB {e_secpb} J"
    );
}

#[test]
fn battery_prices_are_pinned_to_the_bit() {
    // Table V/VI, every brown-out budget and every battery gauge derive
    // from these; a one-ulp drift in any of them is a change of the
    // energy model, not a refactor.
    let pins = [
        (Scheme::Bbb, 0x3ea9_6c8f_1fe8_52dd_u64),
        (Scheme::Sp, 0x3ec9_d241_5c67_f428),
        (Scheme::Cobcm, 0x3f0c_bee0_6700_2721),
        (Scheme::Obcm, 0x3f0c_5e6d_c4ec_6fe8),
        (Scheme::Bcm, 0x3f0b_c404_17c3_c926),
        (Scheme::Cm, 0x3edb_ca0b_0d1e_3816),
        (Scheme::M, 0x3edf_0453_38ab_369c),
        (Scheme::NoGap, 0x3ec9_d241_5c67_f428),
    ];
    assert_eq!(pins.len(), Scheme::ALL.len());
    for (scheme, bits) in pins {
        let e = per_entry_drain_energy(scheme);
        assert_eq!(e.to_bits(), bits, "{scheme}: {e:e} J per entry");
    }
    assert_eq!(eadr_energy().to_bits(), 0x3fab_85ef_d20b_2941);
    assert_eq!(secure_eadr_energy().to_bits(), 0x4010_6100_3547_5f7f);
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
