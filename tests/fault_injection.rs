//! Integration tests for the deterministic fault-injection engine:
//! crash storms, application crashes under `DrainProcess` with
//! interleaved address spaces, NVM tampering, and battery brown-out
//! accounting.

use secpb::bench::storm::{run_storm, StormConfig};
use secpb::core::crash::{BlockVerdict, CrashKind, DrainPolicy, FaultOutcome};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::addr::{Address, Asid};
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::{Access, TraceItem};

/// An interleaved two-process trace: process 1 stores at `0x10_0000+`,
/// process 2 at `0x20_0000+`, round-robin.
fn interleaved_trace(blocks_per_asid: u64) -> Vec<TraceItem> {
    let mut trace = Vec::new();
    for i in 0..blocks_per_asid {
        trace.push(TraceItem::then(
            9,
            Access::store(Address(0x10_0000 + i * 64), i).with_asid(Asid(1)),
        ));
        trace.push(TraceItem::then(
            9,
            Access::store(Address(0x20_0000 + i * 64), 1000 + i).with_asid(Asid(2)),
        ));
    }
    trace
}

#[test]
fn storm_quick_covers_every_scheme_and_mode_with_zero_silent_corruption() {
    let report = run_storm(&StormConfig::quick(0xFA17));
    assert!(report.passed(), "storm failed:\n{}", report.render_text());
    for scheme in Scheme::ALL {
        assert!(
            report.cells.iter().any(|c| c.scheme == scheme),
            "no storm cell for {}",
            scheme.name()
        );
    }
    let injected: u64 = report.cells.iter().map(|c| c.flips_injected).sum();
    let detected: u64 = report.cells.iter().map(|c| c.flips_detected).sum();
    assert!(injected > 0, "quick storm must actually inject flips");
    assert_eq!(detected, injected, "every injected flip must be detected");
    assert_eq!(
        report
            .cells
            .iter()
            .map(|c| c.silent_corruptions)
            .sum::<u64>(),
        0
    );
}

#[test]
fn drain_process_survives_application_crash_with_interleaved_asids() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 7);

    // Round 1: populate both processes' blocks and drain them all, so
    // every block has a durable image.
    sys.run_trace(interleaved_trace(12));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("initial full drain");

    // Round 2: overwrite both processes' blocks with new values.  The
    // new entries are SecPB-resident; the durable images are now stale.
    let mut round2 = Vec::new();
    for i in 0..12u64 {
        round2.push(TraceItem::then(
            9,
            Access::store(Address(0x10_0000 + i * 64), 500 + i).with_asid(Asid(1)),
        ));
        round2.push(TraceItem::then(
            9,
            Access::store(Address(0x20_0000 + i * 64), 2500 + i).with_asid(Asid(2)),
        ));
    }
    sys.run_trace(round2);

    // Process 1 dies; DrainProcess flushes only its entries.  Process 2's
    // entries stay SecPB-resident, so their durable images are stale —
    // recovery must account them as in-flight, not flag corruption.
    let report = sys
        .crash(
            CrashKind::ApplicationCrash(Asid(1)),
            DrainPolicy::DrainProcess,
        )
        .expect("application-crash drain");
    assert!(report.drain_was_complete());
    assert!(
        sys.persist_buffer().occupancy() > 0,
        "process 2's entries must survive the drain"
    );

    let rec = sys.recover();
    assert!(
        rec.is_consistent(),
        "accounted staleness is not corruption: root_ok={} macs={:?} mismatches={:?} verdicts={:?}",
        rec.root_ok,
        rec.mac_failures,
        rec.plaintext_mismatches,
        rec.verdicts
    );
    assert!(
        !rec.in_flight_stale.is_empty(),
        "process 2's stale blocks must be classified in-flight"
    );
    for (block, verdict) in &rec.verdicts {
        if *verdict == BlockVerdict::InFlightStale {
            assert!(
                block.0 * 64 >= 0x20_0000,
                "only process 2 addresses may be in flight, got {block}"
            );
        }
    }
    assert_eq!(FaultOutcome::classify(false, &rec), FaultOutcome::Recovered);

    // A flip in a *drained* block's MAC must still be detected while the
    // survivor's entries are buffered; the tamper is self-inverse.
    let victim = rec
        .verdicts
        .iter()
        .find(|(_, v)| *v == BlockVerdict::Verified)
        .map(|(b, _)| *b)
        .expect("process 1's drained blocks are verified");
    assert!(sys.nvm_store_mut().tamper_mac(victim, 3));
    let tampered = sys.recover();
    assert_eq!(
        FaultOutcome::classify(true, &tampered),
        FaultOutcome::DetectedAndRejected
    );
    assert!(tampered.mac_failures.contains(&victim));
    assert!(sys.nvm_store_mut().tamper_mac(victim, 3));

    // Power then fails for real: everything drains and both processes'
    // blocks verify with nothing left in flight.
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("power-loss drain");
    assert_eq!(sys.persist_buffer().occupancy(), 0);
    let finale = sys.recover();
    assert!(finale.is_consistent());
    assert!(finale.in_flight_stale.is_empty());
    assert_eq!(finale.blocks_checked, 24);
}

#[test]
fn brown_out_losses_reconcile_exactly_against_the_budget() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 11);

    // Give every block a durable image first, then overwrite so the
    // still-buffered entries shadow older durable state.
    sys.run_trace(interleaved_trace(10));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("initial full drain");
    let round2: Vec<TraceItem> = (0..10u64)
        .map(|i| {
            TraceItem::then(
                9,
                Access::store(Address(0x10_0000 + i * 64), 700 + i).with_asid(Asid(1)),
            )
        })
        .collect();
    sys.run_trace(round2);
    let occupancy = sys.persist_buffer().occupancy() as u64;
    assert!(occupancy > 4);

    let budget = 4u64;
    let report = sys
        .crash_with_budget(CrashKind::PowerLoss, DrainPolicy::DrainAll, Some(budget))
        .expect("brown-out drain");
    assert_eq!(report.work.entries, budget, "drain stops at the budget");
    assert_eq!(
        report.lost_block_count(),
        occupancy - budget,
        "drained + lost must reconcile against pre-crash occupancy"
    );
    assert!(!report.drain_was_complete());

    // Lost blocks are stale-but-consistent: integrity holds, the verdict
    // is LostStale, and the episode classifies as recovered.
    let rec = sys.recover_with(&report.lost_blocks);
    assert!(rec.is_consistent(), "brown-out staleness is accounted");
    assert_eq!(rec.lost_stale.len(), report.lost_blocks.len());
    for block in &report.lost_blocks {
        assert!(rec
            .verdicts
            .iter()
            .any(|(b, v)| b == block && *v == BlockVerdict::LostStale));
    }
    assert_eq!(FaultOutcome::classify(false, &rec), FaultOutcome::Recovered);
}

#[test]
fn storm_brown_out_quick_loses_entries_and_accounts_them_all() {
    let report = run_storm(&StormConfig::quick(0xB10C).with_brown_out(0.2));
    assert!(report.passed(), "storm failed:\n{}", report.render_text());
    assert!(
        report.total_lost() > 0,
        "a 20% battery budget must lose entries somewhere"
    );
}
