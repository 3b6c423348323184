//! Cross-scheme integration tests: every scheme must produce the *same
//! functional* persistent state — they only differ in *when* security
//! metadata is generated (Section IV), never in *what* recovery observes.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::eadr::EadrSystem;
use secpb::core::facade::PersistSystem;
use secpb::core::metrics::counters;
use secpb::core::multicore::MultiCoreSystem;
use secpb::core::policy::{
    CounterLayout, PersistencePolicy, PolicyError, RecoveryCost, TreePersistence,
};
use secpb::core::scheme::{EarlyWork, Scheme};
use secpb::core::system::SecureSystem;
use secpb::core::tree::TreeKind;
use secpb::sim::addr::Address;
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::{Access, TraceItem};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn run_and_crash(scheme: Scheme, seed: u64) -> SecureSystem {
    let profile = WorkloadProfile::named("gcc").unwrap();
    let trace = TraceGenerator::new(profile, seed).generate(30_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 77);
    sys.run_trace(trace);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    sys
}

#[test]
fn all_schemes_persist_identical_plaintext() {
    let reference = run_and_crash(Scheme::Cobcm, 42);
    let mut ref_blocks: Vec<_> = reference.nvm_store().data_blocks().collect();
    ref_blocks.sort_unstable();
    for scheme in Scheme::ALL {
        let sys = run_and_crash(scheme, 42);
        let mut blocks: Vec<_> = sys.nvm_store().data_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, ref_blocks, "{scheme}: persisted block set differs");
        for &b in &blocks {
            assert_eq!(
                sys.expected_plaintext(b),
                reference.expected_plaintext(b),
                "{scheme}: plaintext of {b} differs"
            );
        }
        assert!(sys.recover().is_consistent(), "{scheme}: recovery failed");
    }
}

#[test]
fn secure_schemes_store_ciphertext_not_plaintext() {
    for scheme in Scheme::SECPB_SCHEMES {
        let sys = run_and_crash(scheme, 7);
        let mut hits = 0;
        for block in sys.nvm_store().data_blocks().take(50) {
            let stored = sys.nvm_store().read_data(block);
            let expected = sys.expected_plaintext(block);
            if stored == expected {
                hits += 1;
            }
        }
        assert!(
            hits <= 1,
            "{scheme}: NVM appears to hold plaintext ({hits} matches)"
        );
    }
}

#[test]
fn insecure_bbb_stores_plaintext() {
    let sys = run_and_crash(Scheme::Bbb, 7);
    for block in sys.nvm_store().data_blocks().take(20) {
        assert_eq!(
            sys.nvm_store().read_data(block),
            sys.expected_plaintext(block)
        );
    }
}

#[test]
fn persists_equal_stores_for_buffer_schemes() {
    for scheme in [Scheme::Bbb, Scheme::Cobcm, Scheme::Cm, Scheme::NoGap] {
        let profile = WorkloadProfile::named("milc").unwrap();
        let trace = TraceGenerator::new(profile, 3).generate(20_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 3);
        let r = sys.run_trace(trace);
        assert_eq!(
            r.stats.get(counters::PERSISTS),
            r.stats.get(counters::STORES),
            "{scheme}: every store should persist at the PB"
        );
    }
}

#[test]
fn scheme_cycle_ordering_on_realistic_workload() {
    let profile = WorkloadProfile::named("astar").unwrap();
    let mut cycles = std::collections::HashMap::new();
    for scheme in Scheme::ALL {
        let trace = TraceGenerator::new(profile.clone(), 5).generate(40_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 5);
        cycles.insert(scheme, sys.run_trace(trace).cycles);
    }
    assert!(cycles[&Scheme::Bbb] <= cycles[&Scheme::Cobcm]);
    assert!(cycles[&Scheme::Cobcm] <= cycles[&Scheme::Obcm]);
    assert!(cycles[&Scheme::Obcm] < cycles[&Scheme::Cm]);
    assert!(cycles[&Scheme::Cm] < cycles[&Scheme::NoGap]);
    assert!(
        cycles[&Scheme::Sp] > cycles[&Scheme::NoGap],
        "SP without a SecPB must be the slowest secure configuration"
    );
}

#[test]
fn eager_schemes_do_more_runtime_crypto_work() {
    let profile = WorkloadProfile::named("hmmer").unwrap();
    let run = |scheme| {
        let trace = TraceGenerator::new(profile.clone(), 9).generate(30_000);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 9);
        sys.run_trace(trace)
    };
    let nogap = run(Scheme::NoGap);
    let cobcm = run(Scheme::Cobcm);
    // NoGap computes a MAC per store; COBCM only per drained entry.
    assert!(
        nogap.stats.get(counters::MACS) > 2 * cobcm.stats.get(counters::MACS),
        "NoGap MACs {} vs COBCM {}",
        nogap.stats.get(counters::MACS),
        cobcm.stats.get(counters::MACS)
    );
}

#[test]
fn scheme_early_work_policy_round_trip() {
    // Scheme → EarlyWork → PersistencePolicy → Scheme is the identity on
    // the paper's named schemes: the scheme axis is one instantiation of
    // the policy, nothing more.
    for scheme in Scheme::SECPB_SCHEMES {
        let policy = PersistencePolicy::for_scheme(scheme);
        assert!(policy.is_baseline(), "{scheme}: named schemes are baseline");
        assert_eq!(policy.early, scheme.early_work());
        assert_eq!(Scheme::from_early_work(policy.early), Some(scheme));
    }
}

#[test]
fn only_legal_prefixes_of_the_dependency_chain_build() {
    // Property sweep over all 32 early-work assignments: exactly the 9
    // legal prefixes of the Figure 4 chain (counter → {OTP → ciphertext
    // → MAC, BMT}) construct; everything else is rejected with the typed
    // error, never a panic or a silently-accepted policy.
    let mut legal = 0;
    for bits in 0u32..32 {
        let ew = EarlyWork {
            counter: bits & 1 != 0,
            otp: bits & 2 != 0,
            bmt: bits & 4 != 0,
            ciphertext: bits & 8 != 0,
            mac: bits & 16 != 0,
        };
        match PersistencePolicy::new(ew, Default::default(), Default::default()) {
            Ok(p) => {
                legal += 1;
                assert!(ew.respects_dependencies());
                assert_eq!(p.early, ew);
            }
            Err(e) => {
                assert!(!ew.respects_dependencies());
                assert_eq!(e, PolicyError::DependencyViolation(ew));
            }
        }
    }
    assert_eq!(legal, 9, "Figure 4 admits exactly 9 assignments");
}

#[test]
fn policy_layouts_leave_scheme_timing_untouched() {
    // The Triad/fast-recovery layouts charge their write traffic in
    // analytic PolicyState counters, never in the timing pipeline — so
    // every swept grid metric must be byte-identical across layouts.
    // This is the forward-looking half of the refactor's byte-identity
    // pin (the backward half is ci.sh's diff of `secpb repro` against
    // results/*).
    let profile = WorkloadProfile::named("mcf").unwrap();
    for scheme in [Scheme::Cobcm, Scheme::NoGap] {
        let run = |cfg: SystemConfig| {
            let trace = TraceGenerator::new(profile.clone(), 11).generate(20_000);
            let mut sys = SecureSystem::build(cfg, scheme, TreeKind::Monolithic, 11).unwrap();
            sys.run_trace(trace)
        };
        let baseline = run(SystemConfig::default());
        let triad = run(SystemConfig::default().with_triad_levels(4));
        let fastrec = run(SystemConfig::default().with_shadow_counters(true));
        assert_eq!(baseline, triad, "{scheme}: triad perturbed timing");
        assert_eq!(baseline, fastrec, "{scheme}: fastrec perturbed timing");
    }
}

#[test]
fn baseline_recovery_cost_is_the_root_only_formula() {
    // The facade's policy-derived recovery accounting must reproduce the
    // historical estimate exactly for every baseline scheme.
    for scheme in Scheme::SECPB_SCHEMES {
        let sys = run_and_crash(scheme, 13);
        let nvm = sys.nvm_store();
        let expect = RecoveryCost::root_only(
            sys.config(),
            nvm.counter_pages().count() as u64,
            nvm.data_block_count() as u64,
        );
        let dyn_sys: &dyn PersistSystem = &sys;
        assert_eq!(dyn_sys.recovery_cost(), expect, "{scheme}");
        assert!(dyn_sys.policy().is_baseline());
    }
}

#[test]
fn every_front_reports_its_domain_policy_and_recovery_cost() {
    // Stores to 3000 distinct counter pages, then a full-battery crash:
    // each front's policy and recovery cost must follow the knobs its
    // domain was built with, not a root-only default.
    let trace: Vec<TraceItem> = (0..3_000u64)
        .map(|i| TraceItem::then(9, Access::store(Address(0x100_0000 + i * 4096), i + 1)))
        .collect();
    let crashed = |mut sys: Box<dyn PersistSystem>| {
        sys.run_trace(&trace);
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        sys
    };
    let fronts = |cfg: &SystemConfig| -> Vec<(&str, Box<dyn PersistSystem>)> {
        vec![
            (
                "secpb",
                Box::new(
                    SecureSystem::build(cfg.clone(), Scheme::Cobcm, TreeKind::Monolithic, 7)
                        .unwrap(),
                ),
            ),
            ("eadr", Box::new(EadrSystem::new(cfg.clone(), 7).unwrap())),
            (
                "mc2",
                Box::new(MultiCoreSystem::new(cfg.clone(), Scheme::Cobcm, 2, 7).unwrap()),
            ),
        ]
    };

    // Triad depth 4: recovery reads the level-3 frontier.  Its shape
    // depends only on which counter pages were written, so the
    // single-core front's tree prices every front's fold.
    let triad = SystemConfig::default().with_triad_levels(4);
    let mut reference =
        SecureSystem::build(triad.clone(), Scheme::Cobcm, TreeKind::Monolithic, 7).unwrap();
    reference.run_trace(trace.iter().copied());
    reference
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let tree = reference.integrity_tree();
    let nodes = tree.level_nodes(3).expect("a monolithic tree has level 3");
    let (_, fold_hashes) = tree.root_from_level(3, &nodes).expect("frontier folds");
    for (front, sys) in fronts(&triad) {
        let sys = crashed(sys);
        assert!(sys.recover().is_consistent(), "{front}");
        assert_eq!(sys.policy().tree, TreePersistence::Levels(4), "{front}");
        assert_eq!(sys.policy().counters, CounterLayout::Plain, "{front}");
        let nvm = sys.nvm_store();
        let (pages, blocks) = (
            nvm.counter_pages().count() as u64,
            nvm.data_block_count() as u64,
        );
        assert_eq!((pages, blocks), (3_000, 3_000), "{front}");
        let expect =
            RecoveryCost::selective(sys.config(), pages, blocks, nodes.len() as u64, fold_hashes);
        assert_eq!(sys.recovery_cost(), expect, "{front}");
    }

    let fastrec = SystemConfig::default().with_shadow_counters(true);
    for (front, sys) in fronts(&fastrec) {
        let sys = crashed(sys);
        assert!(sys.recover().is_consistent(), "{front}");
        assert_eq!(sys.policy().tree, TreePersistence::RootOnly, "{front}");
        assert_eq!(sys.policy().counters, CounterLayout::Shadow, "{front}");
        let nvm = sys.nvm_store();
        let expect = RecoveryCost::fast_recovery(
            sys.config(),
            nvm.counter_pages().count() as u64,
            nvm.data_block_count() as u64,
        );
        assert_eq!(sys.recovery_cost(), expect, "{front}");
    }
}

#[test]
fn bmt_root_updates_match_drains_not_stores() {
    // With the Section IV-A optimization, root updates track entry
    // drains, not stores (Figure 8's foundation).
    let profile = WorkloadProfile::named("povray").unwrap(); // heavy coalescing
    let trace = TraceGenerator::new(profile, 9).generate(40_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cm, 9);
    let r = sys.run_trace(trace);
    let updates = r.stats.get(counters::BMT_ROOT_UPDATES);
    let stores = r.stats.get(counters::STORES);
    let drains = r.stats.get(counters::DRAINS);
    assert!(
        updates <= drains + 2,
        "updates {updates} should track drains {drains}"
    );
    assert!(
        updates * 5 < stores,
        "coalescing should cut far below one per store"
    );
}
