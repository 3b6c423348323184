//! Crypto-backend equivalence suite: the batched backend is a pure
//! performance feature, so every observable output must be
//! byte-identical no matter which backend computed it.
//!
//! Scalar is the reference engine.  The batched path (the eight-lane
//! AVX-512 or four-lane AVX2 SHA-512 kernel and the AES-NI cipher where
//! the CPU has them, the portable four-lane schedule and the scalar
//! cipher where it does not) must agree with it on digests, batched
//! pads, grid JSON reports, crash/recovery verdicts, and telemetry-on/off
//! parity.  On a host without the ISA the sweep exercises the fallback
//! path, which is exactly the behaviour the fallback must get right.
//!
//! Also here: the arena stress test (churned ASIDs, overflow → slot
//! reuse, stale-handle aliasing) because the arena rides the same PR's
//! hot path and its invariants guard the same buffers the backends
//! encrypt.

use secpb::bench::experiments::GridCell;
use secpb::core::arena::EntryArena;
use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::entry::Entry;
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::crypto::backend::{CryptoBackend, HashBackend};
use secpb::crypto::counter::SplitCounter;
use secpb::crypto::otp::OtpEngine;
use secpb::crypto::sha512::{digest64_batch, Sha512};
use secpb::sim::addr::{Asid, BlockAddr};
use secpb::sim::config::{CryptoBackendKind, SystemConfig};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

/// Deterministic xorshift64* fuzz source (no external RNG crates).
struct Fuzz(u64);

impl Fuzz {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes64(&mut self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for chunk in out.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        out
    }
}

/// Both backend kinds the config can name, swept against the scalar
/// reference.
const KINDS: [CryptoBackendKind; 2] = [CryptoBackendKind::Scalar, CryptoBackendKind::Auto];

fn cfg_with(kind: CryptoBackendKind) -> SystemConfig {
    SystemConfig::default().with_crypto_backend(kind)
}

#[test]
fn fuzzed_digest_batches_agree_across_backends() {
    // 64-byte single-compression batches at awkward sizes (0, 1, lane
    // count, lane count ± 1, large odd) — every backend must reproduce
    // the one-shot scalar digest bit-for-bit.  On an AVX-512 host 8, 12,
    // 13 and 16 run eight lanes alone, 8+4, 8+4+scalar and two
    // eight-lane groups.
    let mut fuzz = Fuzz(0x5EC9_B001);
    for batch_len in [0usize, 1, 3, 4, 5, 17, 64, 8, 12, 13, 16] {
        let msgs: Vec<[u8; 64]> = (0..batch_len).map(|_| fuzz.bytes64()).collect();
        let expected: Vec<_> = msgs.iter().map(|m| Sha512::digest(m)).collect();
        for backend in CryptoBackend::ALL {
            let refs: Vec<&[u8; 64]> = msgs.iter().collect();
            let mut got = Vec::new();
            digest64_batch(&backend, &refs, &mut got);
            assert_eq!(
                got,
                expected,
                "{} backend diverged on a {batch_len}-message batch",
                HashBackend::name(&backend)
            );
        }
    }
}

#[test]
fn fuzzed_pad_batches_agree_across_backends() {
    // Batched pads at every size from 1 to 17 — on an AES-NI host that
    // covers the kernel's eight-block groups, its four-block groups and
    // its single-block tail — must equal the scalar engine's pads one
    // pair at a time.
    let mut fuzz = Fuzz(0x0A7D_B47C);
    let mut reference = OtpEngine::new(&[0x5Cu8; 24]);
    reference.set_backend(CryptoBackend::Scalar);
    for batch_len in 1..=17usize {
        let inputs: Vec<(u64, SplitCounter)> = (0..batch_len)
            .map(|_| {
                let ctr = SplitCounter {
                    major: fuzz.next() >> (fuzz.next() % 64),
                    minor: (fuzz.next() % 128) as u8,
                };
                (fuzz.next(), ctr)
            })
            .collect();
        let expected: Vec<[u8; 64]> = inputs
            .iter()
            .map(|&(addr, ctr)| reference.generate(addr, ctr))
            .collect();
        for backend in CryptoBackend::ALL {
            let mut engine = reference.clone();
            engine.set_backend(backend);
            let mut got = Vec::new();
            engine.generate_batch(&inputs, &mut got);
            assert_eq!(
                got,
                expected,
                "{} backend diverged on a {batch_len}-pad batch",
                HashBackend::name(&backend)
            );
        }
    }
}

#[test]
fn grid_json_reports_agree_across_backends() {
    // A grid-style cell must emit byte-identical JSON whichever backend
    // ran the crypto.
    for scheme in [Scheme::Bbb, Scheme::Cobcm] {
        let profile = WorkloadProfile::named("gamess").unwrap();
        let run = |kind| {
            GridCell::new(profile.clone(), scheme, 15_000)
                .with_cfg(cfg_with(kind))
                .run()
                .to_json()
                .to_pretty()
        };
        let reference = run(CryptoBackendKind::Scalar);
        for kind in KINDS {
            assert_eq!(
                run(kind),
                reference,
                "{scheme}/{}: grid JSON diverged from scalar reference",
                kind.name()
            );
        }
    }
}

#[test]
fn fuzzed_crash_recovery_verdicts_agree_across_backends() {
    // Fuzzed traces per scheme: crash report, persisted BMT root, full
    // stats, and the recovery verdict must all match the scalar run.
    for (scheme, workload, fuzz) in [
        (Scheme::Cobcm, "milc", 101u64),
        (Scheme::Bbb, "astar", 211),
        (Scheme::Cobcm, "hmmer", 307),
    ] {
        let profile = WorkloadProfile::named(workload).unwrap();
        let run = |kind| {
            let trace = TraceGenerator::new(profile.clone(), fuzz).generate(12_000);
            let mut sys = SecureSystem::new(cfg_with(kind), scheme, fuzz ^ 0xC3);
            sys.run_trace(trace);
            let report = sys
                .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            (report, sys)
        };
        let (ref_report, ref_sys) = run(CryptoBackendKind::Scalar);
        let ref_rec = ref_sys.recover();
        assert!(ref_rec.is_consistent());
        for kind in KINDS {
            let (report, sys) = run(kind);
            let name = kind.name();
            assert_eq!(
                report, ref_report,
                "{scheme}/{workload}/{name}: crash report diverged"
            );
            assert_eq!(
                sys.nvm_store().bmt_root(),
                ref_sys.nvm_store().bmt_root(),
                "{scheme}/{workload}/{name}: persisted BMT root diverged"
            );
            assert_eq!(
                sys.stats().to_json().to_pretty(),
                ref_sys.stats().to_json().to_pretty(),
                "{scheme}/{workload}/{name}: stats diverged"
            );
            assert_eq!(
                sys.recover(),
                ref_rec,
                "{scheme}/{workload}/{name}: recovery verdict diverged"
            );
        }
    }
}

#[test]
fn telemetry_on_off_parity_holds_for_every_backend() {
    // Telemetry observes, never steers — attaching a ring must not
    // change the result or the recovery verdict for any backend.
    let profile = WorkloadProfile::named("povray").unwrap();
    for kind in KINDS {
        let cell = GridCell::new(profile.clone(), Scheme::Cobcm, 10_000).with_cfg(cfg_with(kind));
        let (plain, plain_check) = cell.run_with_recovery();
        let (telemetered, tele_check, digest) = cell.run_with_recovery_telemetered();
        let name = kind.name();
        assert_eq!(plain, telemetered, "{name}: telemetry changed the result");
        assert_eq!(
            plain_check, tele_check,
            "{name}: telemetry changed the recovery verdict"
        );
        assert!(digest.events > 0, "{name}: telemetered run emitted nothing");
    }
}

#[test]
fn hw_backend_reports_detection_consistently() {
    // auto() is always the batched path, which picks its kernels at run
    // time; hw_available() reports whether the AES-NI one is among them.
    // Either way the equivalence sweeps above pin its output to the
    // scalar reference.
    assert_eq!(CryptoBackend::auto(), CryptoBackend::HwCrypto);
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        CryptoBackend::hw_available(),
        std::arch::is_x86_feature_detected!("aes")
    );
}

#[test]
fn arena_stress_churned_asids_overflow_and_no_aliasing() {
    // 10k fuzzed operations against a model map: inserts under churned
    // ASIDs, removals in random order, overflow must hand the entry
    // back, freed slots must be reused, and every retired handle must
    // stay dead (generation check) for the rest of the run.
    const CAP: usize = 32;
    let mut arena = EntryArena::with_capacity(CAP);
    let mut fuzz = Fuzz(0xA12E_57A7);
    // Live handles with the (block, asid, seq) identity we stored.
    let mut live: Vec<(secpb::core::arena::Handle, u64, u16, u64)> = Vec::new();
    let mut retired: Vec<secpb::core::arena::Handle> = Vec::new();
    let mut overflows = 0u32;
    let mut max_slot_seen = 0u32;

    for op in 0..10_000u64 {
        let r = fuzz.next();
        let insert = live.is_empty() || (r & 1 == 0);
        if insert {
            let block = r >> 8;
            let asid = (op % 11) as u16; // churn through 11 address spaces
            let entry = Entry::new(BlockAddr(block), Asid(asid), [op as u8; 64], op);
            match arena.insert(entry) {
                Ok(h) => {
                    max_slot_seen = max_slot_seen.max(h.slot());
                    live.push((h, block, asid, op));
                }
                Err(back) => {
                    // Overflow: the arena must be exactly full and must
                    // return our entry untouched.
                    overflows += 1;
                    assert_eq!(arena.live(), CAP, "overflow before the arena was full");
                    assert_eq!(back.block, BlockAddr(block));
                    assert_eq!(back.asid, Asid(asid));
                    assert_eq!(back.seq, op);
                }
            }
        } else {
            let idx = (r as usize >> 2) % live.len();
            let (h, block, asid, seq) = live.swap_remove(idx);
            let e = arena.remove(h).expect("live handle must remove");
            assert_eq!(
                (e.block, e.asid, e.seq),
                (BlockAddr(block), Asid(asid), seq)
            );
            retired.push(h);
        }

        assert_eq!(arena.live(), live.len(), "live count drifted from model");
        // Spot-check a live handle and a retired handle each iteration.
        if let Some(&(h, block, asid, seq)) = live.last() {
            let e = arena.get(h).expect("live handle must resolve");
            assert_eq!(
                (e.block, e.asid, e.seq),
                (BlockAddr(block), Asid(asid), seq)
            );
        }
        if let Some(&stale) = retired.last() {
            assert!(arena.get(stale).is_none(), "stale handle aliased a tenant");
        }
    }

    // The workload must actually have exercised the interesting paths.
    assert!(overflows > 0, "stress never overflowed the arena");
    assert!(retired.len() > 1_000, "stress never churned slots");
    assert!(
        (max_slot_seen as usize) < CAP,
        "arena grew beyond its fixed capacity"
    );
    // Every retired handle is still dead at the end — no aliasing ever.
    for h in retired {
        assert!(arena.get(h).is_none());
        assert!(arena.remove(h).is_none());
    }
}
