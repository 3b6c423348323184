//! Property tests for the paper's two crash-recovery invariants
//! (Section III-A):
//!
//! 1. **Tuple atomicity** — after a crash + battery drain, every persisted
//!    block decrypts to the expected plaintext and passes MAC and BMT
//!    verification, under every scheme.
//! 2. **Persist order** — the recovery observer sees exactly the stores
//!    executed before the crash point: no earlier store missing, no later
//!    store visible.
//!
//! Store streams and crash points are drawn from a seeded [`Rng`]
//! stream, so runs are deterministic and failures reproduce by case
//! index.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::addr::Address;
use secpb::sim::config::SystemConfig;
use secpb::sim::rng::Rng;
use secpb::sim::trace::{Access, TraceItem};

const CASES: usize = 24;

/// A compact encoding of a store stream: (block selector, value).
fn random_store_stream(rng: &mut Rng) -> Vec<(u8, u64)> {
    let len = rng.range(1, 119) as usize;
    (0..len)
        .map(|_| (rng.next_u64() as u8, rng.next_u64()))
        .collect()
}

fn random_scheme(rng: &mut Rng) -> Scheme {
    Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize]
}

fn random_secpb_scheme(rng: &mut Rng) -> Scheme {
    Scheme::SECPB_SCHEMES[rng.below(Scheme::SECPB_SCHEMES.len() as u64) as usize]
}

fn trace_from(stream: &[(u8, u64)]) -> Vec<TraceItem> {
    stream
        .iter()
        .map(|&(sel, value)| {
            // 32 hot blocks + a long tail, mixing coalescing and fresh
            // allocations, within a handful of encryption pages.
            let block = u64::from(sel % 48);
            TraceItem::then(4, Access::store(Address(0x4_0000 + block * 64), value))
        })
        .collect()
}

/// Invariant 1: tuple atomicity for every scheme at every crash point.
#[test]
fn crash_recovery_is_always_consistent() {
    let mut rng = Rng::seed_from(0xEC0_0001);
    for case in 0..CASES {
        let stream = random_store_stream(&mut rng);
        let scheme = random_scheme(&mut rng);
        let trace = trace_from(&stream);
        let crash_at = ((trace.len() as f64 * rng.next_f64()) as usize).min(trace.len());
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 1234);
        for item in &trace[..crash_at] {
            sys.step(*item);
        }
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let report = sys.recover();
        assert!(
            report.is_consistent(),
            "case {case} {scheme}: root_ok={} macs={} mismatches={}",
            report.root_ok,
            report.mac_failures.len(),
            report.plaintext_mismatches.len()
        );
    }
}

/// Invariant 2: the observer sees exactly the pre-crash stores.
#[test]
fn observer_sees_exact_prefix() {
    let mut rng = Rng::seed_from(0xEC0_0002);
    for case in 0..CASES {
        let stream = random_store_stream(&mut rng);
        let scheme = random_scheme(&mut rng);
        let trace = trace_from(&stream);
        let crash_at = ((trace.len() as f64 * rng.next_f64()) as usize).min(trace.len());
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 99);
        for item in &trace[..crash_at] {
            sys.step(*item);
        }
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();

        // Replay the same prefix architecturally.
        let mut expected = std::collections::HashMap::<u64, [u8; 64]>::new();
        for item in &trace[..crash_at] {
            let a = item.access.unwrap();
            let blk = a.addr.block();
            let entry = expected.entry(blk.index()).or_insert([0u8; 64]);
            let off = a.addr.block_offset();
            entry[off..off + 8].copy_from_slice(&a.value.to_le_bytes());
        }
        // Every expected block decrypts to the expected bytes...
        let report = sys.recover();
        assert!(report.is_consistent(), "case {case} {scheme}");
        for (&blk, bytes) in &expected {
            assert_eq!(
                &sys.expected_plaintext(secpb::sim::addr::BlockAddr(blk)),
                bytes,
                "case {case} {scheme}: block {blk} diverged"
            );
        }
        // ...and nothing beyond the prefix is visible: the persisted
        // image holds no blocks outside the expected set.
        for block in sys.nvm_store().data_blocks() {
            assert!(
                expected.contains_key(&block.index()),
                "case {case} {scheme}: phantom block {block} visible after crash"
            );
        }
    }
}

/// Tampering with any persisted byte is detected by recovery, for
/// every secure scheme.
#[test]
fn any_tamper_is_detected() {
    let mut rng = Rng::seed_from(0xEC0_0003);
    let mut checked = 0;
    while checked < CASES {
        let stream = random_store_stream(&mut rng);
        let scheme = random_secpb_scheme(&mut rng);
        let victim_sel = rng.next_u64() as u16;
        let byte = rng.below(64) as usize;
        let bit = rng.below(8) as u8;
        let trace = trace_from(&stream);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 7);
        sys.run_trace(trace);
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let blocks: Vec<_> = sys.nvm_store().data_blocks().collect();
        if blocks.is_empty() {
            continue;
        }
        checked += 1;
        let victim = blocks[victim_sel as usize % blocks.len()];
        sys.nvm_store_mut().tamper_data(victim, byte, bit);
        let report = sys.recover();
        assert!(
            !report.is_consistent(),
            "{scheme}: tamper of {victim} went unnoticed"
        );
        assert!(
            report.mac_failures.contains(&victim) || report.plaintext_mismatches.contains(&victim)
        );
    }
}

/// Rolling back a page's counter block is caught by the BMT root.
#[test]
fn counter_rollback_is_detected() {
    let mut rng = Rng::seed_from(0xEC0_0004);
    let mut checked = 0;
    while checked < CASES {
        let stream = random_store_stream(&mut rng);
        let scheme = random_secpb_scheme(&mut rng);
        let trace = trace_from(&stream);
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 11);
        sys.run_trace(trace.clone());
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let pages: Vec<u64> = sys.nvm_store().counter_pages().collect();
        if pages.is_empty() {
            continue;
        }
        let page = pages[0];
        let current = sys.nvm_store().read_counters(page);
        // Roll the whole page's counters back to fresh zeros.
        let stale = secpb::crypto::counter::CounterBlock::default();
        if current == stale {
            continue;
        }
        checked += 1;
        sys.nvm_store_mut().rollback_counters(page, stale);
        let report = sys.recover();
        assert!(
            !report.root_ok,
            "{scheme}: counter rollback must break the BMT root"
        );
    }

    // One store to each of 300 pages: the tree rebuild spans more than
    // one digest batch, so a rebuild that skipped its short tail batch
    // would already fail the clean recovery, and the rollback lands on
    // a page in that tail.
    let page_bytes = 64 * secpb::mem::store::BLOCKS_PER_PAGE;
    let trace: Vec<TraceItem> = (0..300u64)
        .map(|p| TraceItem::then(4, Access::store(Address(0x4_0000 + p * page_bytes), p + 1)))
        .collect();
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 11);
    sys.run_trace(trace);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    assert_eq!(sys.nvm_store().counter_pages().count(), 300);
    assert!(sys.recover().is_consistent(), "300 pages must recover");
    let last = sys.nvm_store().counter_pages().max().unwrap();
    sys.nvm_store_mut()
        .rollback_counters(last, secpb::crypto::counter::CounterBlock::default());
    assert!(
        !sys.recover().root_ok,
        "rolling back page {last} must break the BMT root"
    );
}

#[test]
fn recovery_of_empty_system_is_trivially_consistent() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 5);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let report = sys.recover();
    assert!(report.is_consistent());
    assert_eq!(report.blocks_checked, 0);
}

#[test]
fn double_crash_is_idempotent() {
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Bcm, 6);
    sys.run_trace(vec![TraceItem::then(4, Access::store(Address(0x8000), 1))]);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let first = sys.recover();
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let second = sys.recover();
    assert!(first.is_consistent());
    assert!(second.is_consistent());
    assert_eq!(first.blocks_checked, second.blocks_checked);
}
