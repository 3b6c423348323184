//! Exhaustive crash-point checking on a short trace: a power loss at
//! every store boundary, under every scheme, must recover consistently,
//! and a one-bit flip of a persisted block must be caught by its MAC.
//!
//! This is a bounded model check of the paper's tuple-atomicity and
//! persist-order invariants (Section III-A): where
//! `tests/recovery_invariants.rs` samples crash points, this test visits
//! all of them.  Each point replays the trace's prefix into a fresh
//! system, crashes it with `PowerLoss` + `DrainAll` and runs the full
//! recovery sweep.  A failure names the scheme, the number of stores
//! before the crash and, for the tamper check, the flipped block.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::addr::Address;
use secpb::sim::config::SystemConfig;
use secpb::sim::rng::Rng;
use secpb::sim::trace::{Access, TraceItem};

/// Stores in the trace; a crash follows each of them.
const STORES: usize = 64;

/// Distinct blocks the stores land on: eight in each of three
/// encryption pages, so drains coalesce and share counter blocks.
const BLOCKS: u64 = 24;

fn trace() -> Vec<TraceItem> {
    let mut rng = Rng::seed_from(0xC4A5_0064);
    (0..STORES)
        .map(|_| {
            let b = rng.below(BLOCKS);
            let addr = Address(0x8_0000 + (b % 3) * 4096 + (b / 3) * 64);
            TraceItem::then(rng.range(1, 8) as u32, Access::store(addr, rng.next_u64()))
        })
        .collect()
}

#[test]
fn every_store_boundary_recovers_and_catches_a_bit_flip() {
    let trace = trace();
    let mut rng = Rng::seed_from(0xF11B);
    let mut points = 0;
    for stores in 1..=STORES {
        for scheme in Scheme::ALL {
            let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 64);
            sys.run_trace(trace[..stores].iter().copied());
            sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap_or_else(|e| panic!("{scheme} after {stores} stores: crash failed: {e}"));
            let clean = sys.recover();
            assert!(
                clean.root_ok
                    && clean.mac_failures.is_empty()
                    && clean.plaintext_mismatches.is_empty()
                    && clean.lost_stale.is_empty()
                    && clean.in_flight_stale.is_empty(),
                "{scheme} after {stores} stores: root_ok={} mac_failures={:?} \
                 mismatches={:?} lost_stale={:?} in_flight_stale={:?}",
                clean.root_ok,
                clean.mac_failures,
                clean.plaintext_mismatches,
                clean.lost_stale,
                clean.in_flight_stale
            );
            points += 1;
            if !scheme.is_secure() {
                continue;
            }
            let mut blocks: Vec<_> = sys.nvm_store().data_blocks().collect();
            blocks.sort_unstable();
            assert!(
                !blocks.is_empty(),
                "{scheme} after {stores} stores: nothing persisted"
            );
            let victim = blocks[rng.below(blocks.len() as u64) as usize];
            let (byte, bit) = (rng.below(64) as usize, rng.below(8) as u8);
            assert!(sys.nvm_store_mut().tamper_data(victim, byte, bit));
            let tampered = sys.recover();
            assert!(
                tampered.mac_failures.contains(&victim),
                "{scheme} after {stores} stores: flip of bit {bit} in byte {byte} of \
                 {victim} not in mac_failures {:?}",
                tampered.mac_failures
            );
            points += 1;
        }
    }
    assert_eq!(points, STORES * (Scheme::ALL.len() + 7), "7 secure schemes");
}
