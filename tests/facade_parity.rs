//! Facade parity suite (the tentpole's behavior-preservation proof):
//!
//! 1. A 1-core [`MultiCoreSystem`] is *observably* the single-core
//!    [`SecureSystem`]: on fuzzed traces, both fronts persist the same
//!    logical state and their post-crash recovery sweeps agree verdict
//!    for verdict.  (Timing and raw NVM bytes differ by design — the
//!    fronts use distinct persisted key spaces — so parity is claimed
//!    on functional observables only.)
//! 2. Driving a front through `dyn PersistSystem` changes nothing:
//!    stats and cycle counts are identical to driving the concrete
//!    type, for every scheme.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::facade::PersistSystem;
use secpb::core::multicore::MultiCoreSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::addr::BlockAddr;
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::TraceItem;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn fuzz_trace(workload: &str, seed: u64, instructions: u64) -> Vec<TraceItem> {
    let profile = WorkloadProfile::named(workload).expect("known workload");
    TraceGenerator::new(profile, seed).generate(instructions)
}

fn store_blocks(trace: &[TraceItem]) -> Vec<BlockAddr> {
    let mut blocks: Vec<BlockAddr> = trace
        .iter()
        .filter_map(|i| i.access.filter(|a| a.is_store()))
        .map(|a| a.addr.block())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// Replays `trace`, crashes with a full battery, and returns the
/// recovery observables: `(blocks_checked, sorted verified blocks)`.
fn crash_observables(sys: &mut dyn PersistSystem, trace: &[TraceItem]) -> (u64, Vec<BlockAddr>) {
    sys.run_trace(trace);
    let report = sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .expect("full-battery crash drains");
    assert!(report.drain_was_complete());
    let rec = sys.recover();
    assert!(rec.is_consistent(), "clean recovery must verify");
    assert!(rec.mac_failures.is_empty());
    let mut verified: Vec<BlockAddr> = rec.verdicts.iter().map(|&(b, _)| b).collect();
    verified.sort_unstable();
    (rec.blocks_checked, verified)
}

#[test]
fn one_core_multicore_matches_single_core_on_fuzzed_traces() {
    for (workload, seed) in [("milc", 0xF077_u64), ("hmmer", 77), ("sjeng", 0xBEEF)] {
        let trace = fuzz_trace(workload, seed, 30_000);
        let cfg = SystemConfig::default();
        let mut single = SecureSystem::new(cfg.clone(), Scheme::Cobcm, seed);
        let mut multi =
            MultiCoreSystem::new(cfg, Scheme::Cobcm, 1, seed).expect("1-core config is valid");

        let (sb, sv) = crash_observables(&mut single, &trace);
        let (mb, mv) = crash_observables(&mut multi, &trace);
        assert_eq!(sb, mb, "{workload}: blocks_checked diverged");
        assert_eq!(sv, mv, "{workload}: verdict block sets diverged");

        // The durable logical state agrees block for block.
        for block in store_blocks(&trace) {
            assert_eq!(
                PersistSystem::expected_plaintext(&single, block),
                PersistSystem::expected_plaintext(&multi, block),
                "{workload}: {block} plaintext diverged"
            );
        }
    }
}

#[test]
fn one_core_multicore_never_migrates_or_remote_flushes() {
    let trace = fuzz_trace("milc", 5, 20_000);
    let mut multi = MultiCoreSystem::new(SystemConfig::default(), Scheme::Bcm, 1, 5).unwrap();
    PersistSystem::run_trace(&mut multi, &trace);
    let stats = PersistSystem::stats(&multi);
    assert_eq!(stats.get("mc.migrations"), 0);
    assert_eq!(stats.get("mc.remote_read_flushes"), 0);
    assert!(stats.get("mc.stores") > 0);
}

#[test]
fn dyn_facade_is_transparent_for_every_scheme() {
    let trace = fuzz_trace("povray", 31, 15_000);
    for scheme in Scheme::ALL {
        // Concrete driving.
        let mut concrete = SecureSystem::new(SystemConfig::default(), scheme, 31);
        let concrete_result = concrete.run_trace(trace.iter().copied());

        // The same front behind the facade.
        let mut boxed: Box<dyn PersistSystem> =
            Box::new(SecureSystem::new(SystemConfig::default(), scheme, 31));
        let dyn_result = boxed.run_trace(&trace);

        assert_eq!(
            concrete_result.cycles, dyn_result.cycles,
            "{scheme}: cycles diverged behind dyn"
        );
        assert_eq!(
            concrete.stats(),
            boxed.stats(),
            "{scheme}: stats diverged behind dyn"
        );
        assert_eq!(boxed.scheme(), scheme);
        assert_eq!(boxed.secure(), scheme.is_secure());
    }
}

#[test]
fn dyn_facade_is_transparent_for_multicore_and_eadr() {
    use secpb::core::eadr::EadrSystem;
    let trace = fuzz_trace("gamess", 13, 15_000);

    let mut concrete = MultiCoreSystem::new(SystemConfig::default(), Scheme::Obcm, 3, 13).unwrap();
    let concrete_result = PersistSystem::run_trace(&mut concrete, &trace);
    let mut boxed: Box<dyn PersistSystem> =
        Box::new(MultiCoreSystem::new(SystemConfig::default(), Scheme::Obcm, 3, 13).unwrap());
    let dyn_result = boxed.run_trace(&trace);
    assert_eq!(concrete_result.cycles, dyn_result.cycles);
    assert_eq!(PersistSystem::stats(&concrete), boxed.stats());

    let mut concrete = EadrSystem::new(SystemConfig::default(), 13).unwrap();
    let concrete_result = PersistSystem::run_trace(&mut concrete, &trace);
    let mut boxed: Box<dyn PersistSystem> =
        Box::new(EadrSystem::new(SystemConfig::default(), 13).unwrap());
    let dyn_result = boxed.run_trace(&trace);
    assert_eq!(concrete_result.cycles, dyn_result.cycles);
    assert_eq!(PersistSystem::stats(&concrete), boxed.stats());
}
