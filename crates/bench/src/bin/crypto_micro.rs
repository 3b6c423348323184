//! Microbenchmarks of the crypto hot path: hash/cipher primitives and
//! the batched fold dispatches, per backend.
//!
//! Usage: `cargo run --release -p secpb-bench --bin crypto_micro [--check]`
//!
//! `--check` is the CI regression guard: it exits non-zero unless the
//! multi-block batched HMAC fold is at least 2x faster than the scalar
//! backend on the BMT sibling-group shape (the speedup the batched fold
//! rewrite exists to deliver), where AVX-512F is detected, unless an
//! eight-lane `compress_batch` costs at most 0.75x a four-lane one per
//! block (the eight-lane kernel's reason to exist), and, where AES-NI is
//! detected, unless a pad generated in a recovery-chunk batch costs at
//! most 0.6x a single `otp_generate[hw]` (the interleaved AES-NI kernel's
//! reason to exist).

use std::time::Instant;

use secpb_crypto::backend::{CryptoBackend, HashBackend};
use secpb_crypto::bmt::BonsaiMerkleTree;
use secpb_crypto::counter::SplitCounter;
use secpb_crypto::hmac::HmacSha512;
use secpb_crypto::mac::BlockMac;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::Sha512;
use secpb_crypto::Aes;

/// Times `op` (called with the iteration index) and returns ns/call.
fn bench(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    // Warm up the instruction cache and any lazily derived tables.
    for i in 0..iters / 10 + 1 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn row(name: &str, ns: f64, per: &str) {
    println!("{name:<34} {ns:>10.1} ns/{per}");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    println!("crypto_micro: primitive and batched-dispatch timings");
    println!("hw-crypto compiled: {}", cfg!(feature = "hw-crypto"));
    println!(
        "hw backend available: {} (auto resolves to {})",
        CryptoBackend::hw_available(),
        CryptoBackend::auto().name()
    );
    let hash_kernel = match CryptoBackend::simd_hash_lanes() {
        8 => "sha512x8 (avx512f, 8 lanes)",
        4 => "sha512x4 (avx2, 4 lanes)",
        _ => "portable (4 lanes, no vector kernel)",
    };
    println!("widest hash kernel: {hash_kernel}");
    println!();

    // ---- hash primitives ----
    let msg64 = [0x5Au8; 64];
    row(
        "sha512_digest_64B",
        bench(20_000, |i| {
            let mut m = msg64;
            m[0] = i as u8;
            std::hint::black_box(Sha512::digest(&m));
        }),
        "digest",
    );
    let hmac = HmacSha512::new(b"bench-key");
    row(
        "hmac_64B",
        bench(20_000, |i| {
            let mut m = msg64;
            m[0] = i as u8;
            std::hint::black_box(hmac.compute(&m));
        }),
        "tag",
    );

    // ---- raw compress_batch: one four-lane vs one eight-lane dispatch ----
    let mut lane_ns = [0.0f64; 2];
    for (slot, lanes) in [4usize, 8].into_iter().enumerate() {
        let blocks: Vec<[u8; 128]> = (0..lanes).map(|l| [l as u8 ^ 0x3C; 128]).collect();
        let refs: Vec<&[u8; 128]> = blocks.iter().collect();
        let mut states = vec![[0x6A09_E667_F3BC_C908u64; 8]; lanes];
        let ns = bench(20_000, |_| {
            CryptoBackend::MultiBlock.compress_batch(&mut states, &refs);
            std::hint::black_box(&states);
        }) / lanes as f64;
        row(&format!("compress_batch_{lanes}lanes"), ns, "block");
        lane_ns[slot] = ns;
    }
    let [four_lane_ns, eight_lane_ns] = lane_ns;

    // ---- batched HMAC fold: the BMT sibling-group shape ----
    // One 8-ary node hash is a 512-byte message; a fold level dispatches
    // many of them at once.  Measure per-message cost at batch width 8.
    const LANES: usize = 8;
    const NODE: usize = 512;
    let mut flat = vec![0u8; LANES * NODE];
    for (i, b) in flat.iter_mut().enumerate() {
        *b = (i * 31 % 251) as u8;
    }
    let mut fold_ns = std::collections::BTreeMap::new();
    for backend in CryptoBackend::ALL {
        let mut out = Vec::with_capacity(LANES);
        let ns = bench(2_000, |i| {
            flat[0] = i as u8;
            out.clear();
            hmac.compute_batch(&backend, &flat, NODE, &mut out);
            std::hint::black_box(&out);
        }) / LANES as f64;
        row(
            &format!("hmac_fold_8x512B[{}]", backend.name()),
            ns,
            "message",
        );
        fold_ns.insert(backend.name(), ns);
    }

    // ---- whole-tree fold: dirty-path batching end to end ----
    for backend in CryptoBackend::ALL {
        let ns = bench(200, |i| {
            let mut t = BonsaiMerkleTree::new(b"k", 8, 4);
            t.set_backend(backend);
            t.set_lazy(true);
            for leaf in 0..64u64 {
                t.update_leaf(leaf * 61 % 4096, Sha512::digest(&[leaf as u8, i as u8]));
            }
            std::hint::black_box(t.fold());
        });
        row(
            &format!("bmt_fold_64leaves[{}]", backend.name()),
            ns,
            "fold",
        );
    }

    // ---- cipher primitives ----
    let aes = Aes::new_192(&[7u8; 24]);
    row(
        "aes192_encrypt_block",
        bench(100_000, |i| {
            let mut blk = [0u8; 16];
            blk[0] = i as u8;
            std::hint::black_box(aes.encrypt_block(&blk));
        }),
        "block",
    );
    let mut pad_ns = std::collections::BTreeMap::new();
    for backend in CryptoBackend::ALL {
        let mut engine = OtpEngine::new(&[7u8; 24]);
        engine.set_backend(backend);
        let ns = bench(50_000, |i| {
            std::hint::black_box(engine.generate(i, SplitCounter { major: 1, minor: 2 }));
        });
        row(&format!("otp_generate[{}]", backend.name()), ns, "pad");
        pad_ns.insert(backend.name(), ns);
    }
    // A recovery-sweep chunk's worth of pads in one cipher dispatch.
    const SWEEP_PADS: u64 = 256;
    let pad_inputs: Vec<(u64, SplitCounter)> = (0..SWEEP_PADS)
        .map(|i| (i * 3, SplitCounter { major: 1, minor: 2 }))
        .collect();
    let mut batch_pad_ns = std::collections::BTreeMap::new();
    for backend in CryptoBackend::ALL {
        let mut engine = OtpEngine::new(&[7u8; 24]);
        engine.set_backend(backend);
        let mut pads = Vec::with_capacity(pad_inputs.len());
        let ns = bench(200, |_| {
            pads.clear();
            engine.generate_batch(&pad_inputs, &mut pads);
            std::hint::black_box(&pads);
        }) / SWEEP_PADS as f64;
        row(
            &format!("otp_generate_batch_{SWEEP_PADS}[{}]", backend.name()),
            ns,
            "pad",
        );
        batch_pad_ns.insert(backend.name(), ns);
    }

    // ---- block MAC: single vs recovery-sweep batch ----
    let mac = BlockMac::new(b"mac-key");
    let ct = [0xA5u8; 64];
    row(
        "block_mac_single",
        bench(20_000, |i| {
            std::hint::black_box(mac.compute(&ct, i, SplitCounter { major: 1, minor: 1 }));
        }),
        "tag",
    );
    let blocks: Vec<([u8; 64], u64, SplitCounter)> = (0..256u64)
        .map(|i| ([i as u8; 64], i, SplitCounter { major: 1, minor: 1 }))
        .collect();
    let refs: Vec<(&[u8; 64], u64, SplitCounter)> =
        blocks.iter().map(|(b, a, c)| (b, *a, *c)).collect();
    for backend in CryptoBackend::ALL {
        let mut m = BlockMac::new(b"mac-key");
        m.set_backend(backend);
        let mut tags = Vec::with_capacity(refs.len());
        let ns = bench(200, |_| {
            tags.clear();
            m.compute_truncated_batch(&refs, &mut tags);
            std::hint::black_box(&tags);
        }) / refs.len() as f64;
        row(&format!("mac_sweep_256[{}]", backend.name()), ns, "block");
    }

    // ---- regression guards ----
    let scalar = fold_ns["scalar"];
    let batched = fold_ns[CryptoBackend::auto().name()].min(fold_ns["multiblock"]);
    let speedup = scalar / batched;
    let lane_ratio = eight_lane_ns / four_lane_ns;
    let pad_ratio = batch_pad_ns["hw"] / pad_ns["hw"];
    println!();
    println!("batched fold speedup vs scalar: {speedup:.2}x");
    println!("8-lane vs 4-lane compress cost per block: {lane_ratio:.2}x");
    println!("batched vs single hw pad cost: {pad_ratio:.2}x");
    if check {
        let mut failed = false;
        // Without the vectorized kernel (feature off, or no AVX2 on this
        // host) batching is an equivalence feature, not a speedup — there
        // is nothing to guard, so skip rather than fail.
        if !CryptoBackend::simd_hash_available() {
            println!(
                "check skipped: vectorized hash kernel unavailable \
                 (build with --features hw-crypto on an AVX2 host)"
            );
        } else if speedup < 2.0 {
            eprintln!("FAIL: batched fold must be >= 2x faster than scalar (got {speedup:.2}x)");
            failed = true;
        } else {
            println!("check ok: batched fold >= 2x scalar");
        }
        // Only an AVX-512F host runs eight-lane groups; elsewhere an
        // eight-block batch is two four-lane groups and the ratio is ~1.
        if CryptoBackend::simd_hash_lanes() < 8 {
            println!(
                "lane check skipped: eight-lane kernel unavailable \
                 (build with --features hw-crypto on an AVX-512F host)"
            );
        } else if lane_ratio > 0.75 {
            eprintln!(
                "FAIL: an 8-lane compress must cost <= 0.75x a 4-lane one per block \
                 (got {lane_ratio:.2}x)"
            );
            failed = true;
        } else {
            println!("check ok: 8-lane compress <= 0.75x 4-lane per block");
        }
        // Without AES-NI the hw backend runs the scalar cipher, where a
        // batch is a loop of single pads and the ratio is ~1.
        if !CryptoBackend::hw_available() {
            println!(
                "pad check skipped: AES-NI unavailable \
                 (build with --features hw-crypto on an AES-NI host)"
            );
        } else if pad_ratio > 0.6 {
            eprintln!(
                "FAIL: a batched hw pad must cost <= 0.6x a single one (got {pad_ratio:.2}x)"
            );
            failed = true;
        } else {
            println!("check ok: batched hw pad <= 0.6x single");
        }
        if failed {
            std::process::exit(1);
        }
    }
}
