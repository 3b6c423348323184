//! Property-based tests over the cryptographic substrate: the invariants
//! that secure-memory correctness rests on.
//!
//! Each test draws its cases from a seeded [`Rng`] stream, so runs are
//! deterministic and failures reproduce by case index.

use secpb::crypto::aes::Aes;
use secpb::crypto::bmt::BonsaiMerkleTree;
use secpb::crypto::counter::{CounterBlock, SplitCounter, BLOCKS_PER_PAGE};
use secpb::crypto::hmac::HmacSha512;
use secpb::crypto::mac::BlockMac;
use secpb::crypto::otp::OtpEngine;
use secpb::crypto::sha512::Sha512;
use secpb::sim::rng::Rng;

const CASES: usize = 48;

fn bytes<const N: usize>(rng: &mut Rng) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

fn byte_vec(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len as u64 + 1) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// AES decryption inverts encryption for every key size.
#[test]
fn aes_round_trips() {
    let mut rng = Rng::seed_from(0xA15_0001);
    for case in 0..CASES {
        let key: [u8; 32] = bytes(&mut rng);
        let block: [u8; 16] = bytes(&mut rng);
        let a128 = Aes::new_128(key[..16].try_into().unwrap());
        assert_eq!(
            a128.decrypt_block(&a128.encrypt_block(&block)),
            block,
            "case {case}"
        );
        let a192 = Aes::new_192(key[..24].try_into().unwrap());
        assert_eq!(
            a192.decrypt_block(&a192.encrypt_block(&block)),
            block,
            "case {case}"
        );
        let a256 = Aes::new_256(&key);
        assert_eq!(
            a256.decrypt_block(&a256.encrypt_block(&block)),
            block,
            "case {case}"
        );
    }
}

/// Counter-mode encryption round-trips for arbitrary (key, data,
/// address, counter) tuples.
#[test]
fn otp_round_trips() {
    let mut rng = Rng::seed_from(0xA15_0002);
    for case in 0..CASES {
        let key: [u8; 24] = bytes(&mut rng);
        let data: [u8; 64] = bytes(&mut rng);
        let addr = rng.next_u64();
        let ctr = SplitCounter {
            major: rng.next_u64(),
            minor: rng.below(128) as u8,
        };
        let engine = OtpEngine::new(&key);
        let ct = engine.encrypt(&data, addr, ctr);
        assert_eq!(engine.decrypt(&ct, addr, ctr), data, "case {case}");
    }
}

/// Distinct (address, counter) pairs produce distinct pads — the
/// one-time-pad uniqueness requirement of counter-mode encryption.
#[test]
fn pads_are_unique_per_address_and_counter() {
    let mut rng = Rng::seed_from(0xA15_0003);
    let mut checked = 0;
    while checked < CASES {
        let key: [u8; 24] = bytes(&mut rng);
        let a1 = rng.below(1 << 40);
        let a2 = rng.below(1 << 40);
        let c1 = rng.below(128) as u8;
        let c2 = rng.below(128) as u8;
        if a1 == a2 && c1 == c2 {
            continue;
        }
        checked += 1;
        let engine = OtpEngine::new(&key);
        let p1 = engine.generate(
            a1,
            SplitCounter {
                major: 0,
                minor: c1,
            },
        );
        let p2 = engine.generate(
            a2,
            SplitCounter {
                major: 0,
                minor: c2,
            },
        );
        assert_ne!(p1, p2, "pad collision for ({a1},{c1}) vs ({a2},{c2})");
    }
}

/// The MAC binds all three tuple components: changing any one
/// invalidates the tag.
#[test]
fn mac_binds_the_tuple() {
    let mut rng = Rng::seed_from(0xA15_0004);
    let mac = BlockMac::new(b"integration-key");
    for case in 0..CASES {
        let ct: [u8; 64] = bytes(&mut rng);
        let addr = rng.next_u64();
        let major = rng.next_u64();
        let minor = rng.below(128) as u8;
        let flip_byte = rng.below(64) as usize;
        let ctr = SplitCounter { major, minor };
        let tag = mac.compute(&ct, addr, ctr);
        assert!(mac.verify(&ct, addr, ctr, &tag), "case {case}");
        // Flip data.
        let mut bad = ct;
        bad[flip_byte] ^= 0x01;
        assert!(!mac.verify(&bad, addr, ctr, &tag), "case {case}: data flip");
        // Move address.
        assert!(
            !mac.verify(&ct, addr.wrapping_add(1), ctr, &tag),
            "case {case}: addr"
        );
        // Bump counter.
        let next = SplitCounter {
            major,
            minor: (minor + 1) % 128,
        };
        assert!(!mac.verify(&ct, addr, next, &tag), "case {case}: counter");
    }
}

/// Counter blocks pack/unpack losslessly for arbitrary contents.
#[test]
fn counter_block_serialization_round_trips() {
    let mut rng = Rng::seed_from(0xA15_0005);
    for case in 0..CASES {
        let mut cb = CounterBlock::new();
        for _ in 0..rng.below(64) {
            let slot = rng.below(BLOCKS_PER_PAGE as u64) as usize;
            for _ in 0..rng.range(1, 39) {
                cb.increment(slot);
            }
        }
        let back = CounterBlock::from_bytes(&cb.to_bytes());
        assert_eq!(back, cb, "case {case}");
    }
}

/// The BMT accepts exactly the digests it was given and rejects
/// everything else.
#[test]
fn bmt_proofs_are_sound() {
    let mut rng = Rng::seed_from(0xA15_0006);
    for case in 0..CASES {
        let mut tree = BonsaiMerkleTree::new(b"pt-key", 4, 3);
        let mut current = std::collections::HashMap::new();
        for _ in 0..rng.range(1, 29) {
            let leaf = rng.below(64);
            let digest = Sha512::digest(&rng.next_u64().to_le_bytes());
            tree.update_leaf(leaf, digest);
            current.insert(leaf, digest);
        }
        let probe = rng.below(64);
        let proof = tree.prove(probe);
        let true_digest = tree.leaf(probe);
        assert!(tree.verify_proof(&proof, true_digest), "case {case}");
        // A forged digest never verifies.
        let forged = Sha512::digest(b"forged");
        if Some(&forged) != current.get(&probe) {
            assert!(
                !tree.verify_proof(&proof, forged),
                "case {case}: forgery accepted"
            );
        }
    }
}

/// Incremental HMAC over arbitrary chunkings equals the one-shot tag.
#[test]
fn hmac_is_chunking_invariant() {
    let mut rng = Rng::seed_from(0xA15_0007);
    for case in 0..CASES {
        let key = byte_vec(&mut rng, 199);
        let data = byte_vec(&mut rng, 399);
        let cut = (rng.below(400) as usize).min(data.len());
        let mac = HmacSha512::new(&key);
        let whole = mac.compute(&data);
        let parts = mac.compute_parts(&[&data[..cut], &data[cut..]]);
        assert_eq!(whole, parts, "case {case}");
    }
}

/// SHA-512 incremental hashing is independent of update granularity.
#[test]
fn sha512_chunking_invariant() {
    let mut rng = Rng::seed_from(0xA15_0008);
    for case in 0..CASES {
        let data = byte_vec(&mut rng, 599);
        let chunk = rng.range(1, 96) as usize;
        let one_shot = Sha512::digest(&data);
        let mut h = Sha512::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        assert_eq!(h.finalize(), one_shot, "case {case}");
    }
}

/// The re-encryption path across a minor-counter overflow: data written
/// under pre-overflow counters decrypts with the old counter and
/// re-encrypts with the new one (major bumped, minors reset) without
/// loss.
#[test]
fn reencryption_round_trips_across_minor_overflow() {
    let mut rng = Rng::seed_from(0xA15_0009);
    for case in 0..CASES {
        let key: [u8; 24] = bytes(&mut rng);
        let engine = OtpEngine::new(&key);

        // A page of blocks written under counters about to overflow.
        let mut cb = CounterBlock::new();
        let slot = rng.below(BLOCKS_PER_PAGE as u64) as usize;
        for _ in 0..127 {
            cb.increment(slot); // the 128th increment overflows
        }
        let base_addr = rng.below(1 << 40);
        let blocks: Vec<(u64, [u8; 64], SplitCounter)> = (0..4u64)
            .map(|i| {
                let s = (slot as u64 + i) as usize % BLOCKS_PER_PAGE;
                (base_addr + s as u64, bytes(&mut rng), cb.counter_of(s))
            })
            .collect();
        let old_cts: Vec<[u8; 64]> = blocks
            .iter()
            .map(|(addr, pt, ctr)| engine.encrypt(pt, *addr, *ctr))
            .collect();

        // Overflow: major bumps, minors reset — the reencrypt_page walk.
        assert_eq!(
            cb.increment(slot),
            secpb::crypto::counter::IncrementOutcome::PageOverflow,
            "case {case}"
        );
        for ((addr, pt, old_ctr), old_ct) in blocks.iter().zip(&old_cts) {
            let s = (*addr - base_addr) as usize;
            let new_ctr = cb.counter_of(s);
            assert!(
                new_ctr.major > old_ctr.major,
                "case {case}: major must advance"
            );
            // Old-counter decrypt -> new-counter encrypt.
            let recovered = engine.decrypt(old_ct, *addr, *old_ctr);
            assert_eq!(recovered, *pt, "case {case}: old-counter decrypt");
            let new_ct = engine.encrypt(&recovered, *addr, new_ctr);
            assert_eq!(
                engine.decrypt(&new_ct, *addr, new_ctr),
                *pt,
                "case {case}: new-counter round trip"
            );
            assert_ne!(new_ct, *old_ct, "case {case}: ciphertext must change");
        }
    }
}

#[test]
fn counter_exhaustion_is_eventually_signalled() {
    // 127 increments advance; the 128th overflows the page.
    let mut cb = CounterBlock::new();
    let mut overflowed = false;
    for _ in 0..128 {
        if cb.increment(0) == secpb::crypto::counter::IncrementOutcome::PageOverflow {
            overflowed = true;
            break;
        }
    }
    assert!(overflowed);
    assert_eq!(cb.major(), 1);
}
