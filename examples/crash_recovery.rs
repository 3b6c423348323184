//! Crash-recovery deep dive: crash kinds, drain policies, observer
//! policies, and attack detection.
//!
//! Demonstrates the paper's Section III-B machinery end to end:
//! * a power-loss crash mid-workload with the blocking/warning observer,
//! * an application crash under drain-process vs drain-all,
//! * tamper / splice / counter-rollback attacks being caught by recovery.
//!
//! Run with: `cargo run --release --example crash_recovery`

use secpb::core::crash::{CrashKind, DrainPolicy, ObserverPolicy, ObserverView};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::addr::{Address, Asid};
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::{Access, TraceItem};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn main() {
    power_loss_and_observer();
    application_crash_policies();
    attack_detection();
}

fn power_loss_and_observer() {
    println!("=== power loss mid-run + observer policies ===");
    let profile = WorkloadProfile::named("gcc").unwrap();
    let trace = TraceGenerator::new(profile, 7).generate(100_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 7);
    // Crash halfway through the trace.
    for item in trace.iter().take(trace.len() / 2) {
        sys.step(*item);
    }
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("crash drain");
    println!(
        "  draining gap closed at {}, sec-sync gap closed at {}",
        report.drain_complete_at, report.secsync_complete_at
    );
    // An observer looking immediately after the crash:
    match report.observe(ObserverPolicy::Blocking, report.at) {
        ObserverView::Blocked { until } => println!("  blocking observer: blocked until {until}"),
        v => println!("  blocking observer: {v:?}"),
    }
    match report.observe(ObserverPolicy::Warning, report.at) {
        ObserverView::Warned { consistent_at } => {
            println!("  warning observer: may look, consistent at {consistent_at}")
        }
        v => println!("  warning observer: {v:?}"),
    }
    assert!(sys.recover().is_consistent());
    println!("  recovery after sec-sync: consistent\n");
}

fn application_crash_policies() {
    println!("=== application crash: drain-process vs drain-all ===");
    for policy in [DrainPolicy::DrainProcess, DrainPolicy::DrainAll] {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 9);
        // Two processes interleave stores.
        let mut trace = Vec::new();
        for i in 0..20u64 {
            trace.push(TraceItem::then(
                9,
                Access::store(Address(0x10_0000 + i * 64), i).with_asid(Asid(1)),
            ));
            trace.push(TraceItem::then(
                9,
                Access::store(Address(0x20_0000 + i * 64), i).with_asid(Asid(2)),
            ));
        }
        sys.run_trace(trace);
        let before = sys.persist_buffer().occupancy();
        let report = sys
            .crash(CrashKind::ApplicationCrash(Asid(1)), policy)
            .expect("crash drain");
        println!(
            "  {policy:?}: {before} entries before, drained {}, {} remain",
            report.work.entries,
            sys.persist_buffer().occupancy()
        );
    }
    println!();
}

fn attack_detection() {
    println!("=== attack detection during recovery ===");
    let build = || {
        let profile = WorkloadProfile::named("hmmer").unwrap();
        let trace = TraceGenerator::new(profile, 3).generate(50_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Bcm, 3);
        sys.run_trace(trace);
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .expect("crash drain");
        sys
    };

    // 1. Bit-flip tampering.
    let mut sys = build();
    let victim = sys.nvm_store().data_blocks().next().unwrap();
    sys.nvm_store_mut().tamper_data(victim, 13, 5);
    let r = sys.recover();
    println!(
        "  bit flip on {victim}: integrity_ok={} (MAC catches it)",
        r.integrity_ok()
    );
    assert!(!r.integrity_ok());

    // 2. Splicing a valid tuple to another address.
    let mut sys = build();
    let blocks: Vec<_> = sys.nvm_store().data_blocks().take(2).collect();
    sys.nvm_store_mut().splice(blocks[0], blocks[1]);
    let r = sys.recover();
    println!(
        "  splice {} -> {}: integrity_ok={} (address-bound MAC catches it)",
        blocks[0],
        blocks[1],
        r.integrity_ok()
    );
    assert!(!r.integrity_ok());

    // 3. Rolling a page's counters back to an older version.
    let mut sys = build();
    let page = sys.nvm_store().counter_pages().next().unwrap();
    sys.nvm_store_mut()
        .rollback_counters(page, Default::default());
    let r = sys.recover();
    println!(
        "  counter rollback on page {page}: root_ok={} (BMT catches it)",
        r.root_ok
    );
    assert!(!r.root_ok);

    println!("  all three attacks detected.");
}
