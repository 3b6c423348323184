//! Microbenchmarks for the cryptographic substrate: the host-side cost
//! of the operations the simulator models at 40 cycles (AES, MAC) and
//! 320 cycles (BMT walk).

use secpb_bench::micro::{bench, black_box};
use secpb_crypto::aes::Aes;
use secpb_crypto::bmt::BonsaiMerkleTree;
use secpb_crypto::counter::{CounterBlock, SplitCounter};
use secpb_crypto::hmac::HmacSha512;
use secpb_crypto::mac::BlockMac;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::Sha512;

fn bench_aes() {
    let aes = Aes::new_192(&[7u8; 24]);
    let block = [0x5Au8; 16];
    bench("aes192_encrypt_block", || {
        aes.encrypt_block(black_box(&block))
    });
    let ct = aes.encrypt_block(&block);
    bench("aes192_decrypt_block", || aes.decrypt_block(black_box(&ct)));
}

fn bench_sha512() {
    let data = vec![0xA5u8; 64];
    bench("sha512_64B", || Sha512::digest(black_box(&data)));
    let big = vec![0xA5u8; 4096];
    bench("sha512_4KB", || Sha512::digest(black_box(&big)));
}

fn bench_hmac_and_mac() {
    let hmac = HmacSha512::new(b"bench-key");
    let data = [0x11u8; 64];
    bench("hmac_sha512_64B", || hmac.compute(black_box(&data)));

    let mac = BlockMac::new(b"bench-key");
    let ctr = SplitCounter { major: 3, minor: 9 };
    bench("block_mac_compute", || {
        mac.compute(black_box(&data), black_box(0x40), ctr)
    });
}

fn bench_otp() {
    let engine = OtpEngine::new(&[9u8; 24]);
    let ctr = SplitCounter { major: 1, minor: 2 };
    let data = [0x42u8; 64];
    bench("otp_generate_64B", || engine.generate(black_box(1234), ctr));
    bench("otp_encrypt_64B", || {
        engine.encrypt(black_box(&data), black_box(1234), ctr)
    });
}

fn bench_bmt() {
    let mut tree = BonsaiMerkleTree::new(b"bench", 8, 8);
    let digest = Sha512::digest(b"leaf");
    let mut i = 0u64;
    bench("bmt8_update_leaf", || {
        i = (i + 1) % 4096;
        tree.update_leaf(black_box(i), digest)
    });

    let mut tree = BonsaiMerkleTree::new(b"bench", 8, 8);
    tree.update_leaf(42, digest);
    bench("bmt8_prove_and_verify", || {
        let proof = tree.prove(black_box(42));
        tree.verify_proof(&proof, digest)
    });
}

/// Lazy vs eager metadata engine: N coalescing `update_leaf` calls plus
/// the observation-point fold, against the same N calls folded eagerly.
fn bench_lazy_bmt() {
    const UPDATES: u64 = 64;
    let digest = Sha512::digest(b"leaf");

    let mut eager = BonsaiMerkleTree::new(b"bench", 8, 8);
    bench("bmt8_eager_64_updates", || {
        for i in 0..UPDATES {
            eager.update_leaf(black_box(i % 8), digest);
        }
        eager.root()
    });

    let mut lazy = BonsaiMerkleTree::new(b"bench", 8, 8);
    lazy.set_lazy(true);
    bench("bmt8_lazy_64_updates_fold", || {
        for i in 0..UPDATES {
            lazy.update_leaf(black_box(i % 8), digest);
        }
        lazy.fold();
        lazy.root()
    });
}

fn bench_counters() {
    let mut cb = CounterBlock::new();
    for i in 0..64 {
        for _ in 0..(i % 11) {
            cb.increment(i);
        }
    }
    bench("counter_block_pack_unpack", || {
        CounterBlock::from_bytes(black_box(&cb.to_bytes()))
    });
}

fn main() {
    bench_aes();
    bench_sha512();
    bench_hmac_and_mac();
    bench_otp();
    bench_bmt();
    bench_lazy_bmt();
    bench_counters();
}
