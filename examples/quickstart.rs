//! Quickstart: simulate a secure persistent-memory system with a SecPB,
//! compare two schemes, then crash it and verify recovery.
//!
//! Run with: `cargo run --release --example quickstart`

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::config::SystemConfig;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn main() {
    // 1. Pick a workload: a synthetic stand-in for SPEC2006 gamess,
    //    the paper's most write-intensive benchmark (PPTI 47.4).
    let profile = WorkloadProfile::named("gamess").expect("known benchmark");
    println!(
        "workload: {} ({} stores / kilo-instruction)",
        profile.name, profile.stores_per_kilo
    );

    // 2. Run it on the laziest (COBCM) and most eager (NoGap) schemes.
    let mut results = Vec::new();
    for scheme in [Scheme::Bbb, Scheme::Cobcm, Scheme::NoGap] {
        let trace = TraceGenerator::new(profile.clone(), 42).generate(200_000);
        let mut system = SecureSystem::new(SystemConfig::default(), scheme, 42);
        let result = system.run_trace(trace);
        println!(
            "  {:>6}: {:>9} cycles, IPC {:.2}, PPTI {:.1}, NWPE {:.1}",
            scheme.name(),
            result.cycles,
            result.ipc(),
            result.ppti(),
            result.nwpe()
        );
        results.push((scheme, result, system));
    }
    let bbb = results[0].1.clone();
    for (scheme, result, _) in &results[1..] {
        println!(
            "  {} overhead vs bbb: {:.1}%",
            scheme.name(),
            result.overhead_pct_vs(&bbb)
        );
    }

    // 3. Crash the COBCM system: the battery drains the SecPB and
    //    finishes all security metadata (sec-sync).
    let (_, _, ref mut system) = results[1];
    let report = system
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("crash drain");
    println!(
        "crash at {}: drained {} entries; sec-sync complete at {}",
        report.at, report.work.entries, report.secsync_complete_at
    );

    // 4. Recover: decrypt everything, verify every MAC, rebuild and check
    //    the BMT root.
    let recovery = system.recover();
    println!(
        "recovery: {} blocks checked, root_ok={}, consistent={}",
        recovery.blocks_checked,
        recovery.root_ok,
        recovery.is_consistent()
    );
    assert!(recovery.is_consistent(), "recovery must succeed");
    println!("OK: crash-consistent, encrypted, integrity-verified persistence.");
}
