//! The metadata engine checked against a from-scratch root oracle.
//!
//! The engine folds the integrity tree lazily, batches counter digests,
//! and writes the durable root register only at observation points.
//! Recovery's own rebuild shares the lazy fold, so it agrees with a
//! wrong fold.  The oracle is the check Triad-NVM and Zuo
//! et al. build recovery on — rebuild the tree from the persisted
//! counters and match the root register — made of public pieces the
//! engine's fold does not use: a fresh [`IntegrityTree`] in its default
//! per-update-walk mode, counter digests straight from
//! [`Sha512::digest`], and the front's [`DomainKeys`] salts.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::domain::DomainKeys;
use secpb::core::eadr::EadrSystem;
use secpb::core::facade::PersistSystem;
use secpb::core::metrics::counters;
use secpb::core::multicore::MultiCoreSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::core::tree::{IntegrityTree, TreeKind};
use secpb::crypto::bmt::DEFAULT_ARITY;
use secpb::crypto::sha512::{Digest, Sha512};
use secpb::sim::addr::Asid;
use secpb::sim::config::{CacheConfig, SystemConfig};
use secpb::sim::trace::TraceItem;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

/// The fuzzed traces every secure scheme replays: `(workload, seed)`.
const TRACES: [(&str, u64); 3] = [("milc", 11), ("astar", 23), ("hmmer", 37)];

/// One front under test, plus what the oracle needs to rebuild its tree.
struct Case {
    label: String,
    sys: Box<dyn PersistSystem>,
    keys: DomainKeys,
    key_seed: u64,
    kind: TreeKind,
}

/// A single-core case keyed like every case here, from its trace seed.
fn secpb(label: String, cfg: SystemConfig, scheme: Scheme, kind: TreeKind, seed: u64) -> Case {
    let key_seed = seed ^ 0xA5;
    let sys = SecureSystem::build(cfg, scheme, kind, key_seed).expect("legal policy");
    Case {
        label,
        sys: Box::new(sys),
        keys: DomainKeys::SECPB,
        key_seed,
        kind,
    }
}

/// The root a fresh per-update-walk tree reaches over the persisted
/// counter image.
fn oracle_root(case: &Case) -> Digest {
    let nvm = case.sys.nvm_store();
    let key = (case.key_seed ^ case.keys.tree_xor).to_le_bytes();
    let levels = case.sys.config().security.bmt_levels;
    let mut tree = IntegrityTree::new(case.kind, &key, DEFAULT_ARITY, levels);
    let mut pages: Vec<u64> = nvm.counter_pages().collect();
    pages.sort_unstable();
    for page in pages {
        tree.update_leaf(page, Sha512::digest(&nvm.read_counters(page).to_bytes()));
    }
    tree.sync();
    tree.root()
}

/// A 100k-instruction fuzzed trace with its accesses spread round-robin
/// over `asids` address spaces, so an application crash of ASID 0
/// leaves the other processes' entries buffered (and the multi-core
/// front routes them to different cores).
fn trace(workload: &str, seed: u64, asids: u16) -> Vec<TraceItem> {
    let profile = WorkloadProfile::named(workload).expect("known workload");
    let mut trace = TraceGenerator::new(profile, seed).generate(100_000);
    let accesses = trace.iter_mut().filter_map(|item| item.access.as_mut());
    for (i, access) in accesses.enumerate() {
        access.asid = Asid((i % usize::from(asids)) as u16);
    }
    trace
}

/// Replays `trace` in thirds on one surviving system, each third ending
/// at an observation point: a mid-trace sync, an application crash under
/// `DrainProcess`, and a power-loss crash.
fn check(mut case: Case, trace: &[TraceItem]) {
    let mut thirds = trace.chunks(trace.len().div_ceil(3));
    case.sys.run_trace(thirds.next().unwrap());
    let persisted = case.sys.nvm_store().counter_pages().next().is_some();
    assert!(
        persisted,
        "{}: nothing persisted before the sync",
        case.label
    );
    case.sys.sync_metadata();
    assert_oracle_root(&case, "mid-trace sync", false);

    case.sys.run_trace(thirds.next().unwrap());
    let app_crash = CrashKind::ApplicationCrash(Asid(0));
    case.sys
        .crash(app_crash, DrainPolicy::DrainProcess)
        .unwrap();
    assert_oracle_root(&case, "application crash", true);

    case.sys.run_trace(thirds.next().unwrap());
    case.sys
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_oracle_root(&case, "power-loss crash", true);
}

/// The persisted root must equal the oracle's rebuild and recovery must
/// accept it.  After a crash recovery must also be consistent; mid-trace,
/// buffered stores leave blocks stale that not every front accounts as
/// in flight.
fn assert_oracle_root(case: &Case, point: &str, crashed: bool) {
    let label = &case.label;
    assert_eq!(
        case.sys.nvm_store().bmt_root(),
        Some(oracle_root(case)),
        "{label}: {point}: persisted root differs from the rebuild"
    );
    let rec = case.sys.recover();
    assert!(rec.root_ok, "{label}: {point}: recovery rejects the root");
    assert!(
        !crashed || rec.is_consistent(),
        "{label}: {point}: inconsistent"
    );
}

#[test]
fn every_secure_scheme_persists_the_oracle_root() {
    for scheme in Scheme::ALL.into_iter().filter(|s| s.is_secure()) {
        for (workload, seed) in TRACES {
            let label = format!("{scheme}/{workload}");
            let plain = SystemConfig::default();
            let case = secpb(label, plain, scheme, TreeKind::Monolithic, seed);
            check(case, &trace(workload, seed, 2));
        }
    }
}

#[test]
fn forest_and_policy_fronts_persist_the_oracle_root() {
    let (workload, seed) = TRACES[0];
    let plain = SystemConfig::default;
    let triad4 = plain().with_triad_levels(4);
    let fastrec = plain().with_shadow_counters(true);
    for (name, cfg, kind) in [
        ("dbmf", plain(), TreeKind::Dbmf),
        ("sbmf", plain(), TreeKind::Sbmf),
        ("triad4", triad4, TreeKind::Monolithic),
        ("fastrec", fastrec, TreeKind::Monolithic),
    ] {
        let case = secpb(format!("{name}/{workload}"), cfg, Scheme::Cobcm, kind, seed);
        check(case, &trace(workload, seed, 2));
    }
}

#[test]
fn eadr_and_multicore_fronts_persist_the_oracle_root() {
    let (workload, seed) = TRACES[0];
    let key_seed = seed ^ 0xA5;
    let kind = TreeKind::Monolithic;
    // Caches small enough that dirty lines leave the LLC mid-trace, so
    // the eADR front persists tuples before its sync point.
    let small_caches = SystemConfig {
        l1: CacheConfig::new(2 << 10, 4, 64, 4),
        l2: CacheConfig::new(4 << 10, 4, 64, 12),
        l3: CacheConfig::new(8 << 10, 8, 64, 30),
        ..SystemConfig::default()
    };
    let eadr = Case {
        label: format!("eadr/{workload}"),
        sys: Box::new(EadrSystem::new(small_caches, key_seed).expect("valid")),
        keys: DomainKeys::EADR,
        key_seed,
        kind,
    };
    check(eadr, &trace(workload, seed, 1));
    // 8-entry SecPBs fill mid-trace, so capacity drains persist tuples
    // before the sync point.
    let small_pbs = SystemConfig::default().with_secpb_entries(8);
    let mc4 = MultiCoreSystem::new(small_pbs, Scheme::Cobcm, 4, key_seed).expect("valid");
    let mc4 = Case {
        label: format!("mc4/{workload}"),
        sys: Box::new(mc4),
        keys: DomainKeys::MULTI_CORE,
        key_seed,
        kind,
    };
    check(mc4, &trace(workload, seed, 4));
}

#[test]
fn lazy_engine_at_least_halves_hmac_invocations() {
    // The tentpole's performance contract: on a coalescing workload the
    // folds' actual HMAC count is at most half the analytic count the
    // eager engine would execute (>= 2x fewer HMAC invocations).
    let profile = WorkloadProfile::named("povray").unwrap();
    let trace = TraceGenerator::new(profile, 13).generate(30_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 13);
    sys.run_trace(trace);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let analytic = sys.stats().get(counters::BMT_NODE_HASHES);
    let actual = sys.integrity_tree().fold_hashes();
    assert!(analytic > 0 && actual > 0);
    assert!(
        actual * 2 <= analytic,
        "lazy folds performed {actual} HMACs vs {analytic} analytic — expected >= 2x reduction"
    );
}
