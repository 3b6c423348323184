//! HMAC-SHA-512 (RFC 2104 / FIPS 198-1).
//!
//! Used by [`crate::mac`] to bind a memory block's ciphertext, address, and
//! counter into a keyed authentication code, and by [`crate::bmt`] as the
//! keyed node hash of the integrity tree.

use crate::backend::HashBackend;
use crate::sha512::{self, Digest, Sha512};

const BLOCK_LEN: usize = 128;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A keyed HMAC-SHA-512 instance.
///
/// The key schedule is folded all the way into two SHA-512 *midstates* at
/// construction: the compression states after absorbing the inner
/// (`key ^ ipad`) and outer (`key ^ opad`) pad blocks.  A tag over a short
/// (≤ 111-byte) message then costs exactly two compressions instead of the
/// four a from-scratch HMAC pays — mirroring a hardware MAC unit that
/// holds its key schedule in registers.
///
/// # Example
///
/// ```
/// use secpb_crypto::hmac::HmacSha512;
///
/// let mac = HmacSha512::new(b"memory-integrity-key");
/// let tag = mac.compute(b"block contents");
/// assert!(mac.verify(b"block contents", &tag));
/// assert!(!mac.verify(b"tampered contents", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha512 {
    /// SHA-512 state after compressing `key ^ ipad`.
    inner_state: [u64; 8],
    /// SHA-512 state after compressing `key ^ opad`.
    outer_state: [u64; 8],
}

impl std::fmt::Debug for HmacSha512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("HmacSha512").finish_non_exhaustive()
    }
}

impl HmacSha512 {
    /// Creates an HMAC instance from an arbitrary-length key.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha512::digest(key);
            key_block[..64].copy_from_slice(&digest.0);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner_pad = [0u8; BLOCK_LEN];
        let mut outer_pad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_pad[i] = key_block[i] ^ IPAD;
            outer_pad[i] = key_block[i] ^ OPAD;
        }
        let mut inner_state = sha512::initial_state();
        sha512::compress_block(&mut inner_state, &inner_pad);
        let mut outer_state = sha512::initial_state();
        sha512::compress_block(&mut outer_state, &outer_pad);
        HmacSha512 {
            inner_state,
            outer_state,
        }
    }

    /// Computes the HMAC tag of `message`.
    pub fn compute(&self, message: &[u8]) -> Digest {
        let mut inner = Sha512::from_midstate(self.inner_state, 1);
        inner.update(message);
        self.finish_outer(&inner.finalize())
    }

    /// Computes the HMAC over several message parts without concatenating
    /// them (tag equals `compute` of the concatenation).
    pub fn compute_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha512::from_midstate(self.inner_state, 1);
        for p in parts {
            inner.update(p);
        }
        self.finish_outer(&inner.finalize())
    }

    fn finish_outer(&self, inner_digest: &Digest) -> Digest {
        let mut outer = Sha512::from_midstate(self.outer_state, 1);
        outer.update(&inner_digest.0);
        outer.finalize()
    }

    /// Verifies `tag` against `message`.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        self.compute(message) == *tag
    }

    /// Computes the tags of `n` equal-length messages packed back-to-back
    /// in `messages` (`messages.len() == n * msg_len`), appending the tags
    /// to `out` in message order.
    ///
    /// Every message advances in lockstep, one padded 128-byte block per
    /// round, so each round is a single [`HashBackend::compress_batch`]
    /// dispatch over all `n` lanes — sibling BMT nodes and
    /// recovery-sweep block MACs batch through here.
    /// Bit-identical to `n` [`compute`](Self::compute) calls.
    ///
    /// # Panics
    ///
    /// Panics if `msg_len` is zero or does not divide `messages.len()`.
    pub fn compute_batch(
        &self,
        backend: &dyn HashBackend,
        messages: &[u8],
        msg_len: usize,
        out: &mut Vec<Digest>,
    ) {
        assert!(msg_len > 0, "batched messages must be non-empty");
        assert_eq!(
            messages.len() % msg_len,
            0,
            "flat message buffer must be whole messages"
        );
        let n = messages.len() / msg_len;
        if n == 0 {
            return;
        }
        // Inner pass: every lane resumes from the cached post-ipad
        // midstate and absorbs its padded message tail in lockstep.
        let tail_len = sha512::padded_tail_len(msg_len);
        let mut tails = vec![0u8; n * tail_len];
        for (msg, tail) in messages
            .chunks_exact(msg_len)
            .zip(tails.chunks_exact_mut(tail_len))
        {
            sha512::write_padded_tail(msg, 1, tail);
        }
        let mut states = vec![self.inner_state; n];
        let mut round: Vec<&[u8; 128]> = Vec::with_capacity(n);
        for blk in 0..tail_len / 128 {
            round.clear();
            round.extend(tails.chunks_exact(tail_len).map(|tail| {
                let block: &[u8; 128] = tail[blk * 128..(blk + 1) * 128]
                    .try_into()
                    .expect("128 bytes");
                block
            }));
            backend.compress_batch(&mut states, &round);
        }
        // Outer pass: each inner digest is one padded block from the
        // post-opad midstate.
        let mut outer_tails = vec![0u8; n * 128];
        for (state, tail) in states.iter().zip(outer_tails.chunks_exact_mut(128)) {
            let mut inner_digest = [0u8; 64];
            for (i, word) in state.iter().enumerate() {
                inner_digest[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
            }
            sha512::write_padded_tail(&inner_digest, 1, tail);
        }
        let mut outer_states = vec![self.outer_state; n];
        round.clear();
        let outer_round: Vec<&[u8; 128]> = outer_tails
            .chunks_exact(128)
            .map(|block| {
                let block: &[u8; 128] = block.try_into().expect("128 bytes");
                block
            })
            .collect();
        backend.compress_batch(&mut outer_states, &outer_round);
        out.reserve(n);
        for state in &outer_states {
            let mut tag = [0u8; 64];
            for (i, word) in state.iter().enumerate() {
                tag[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
            }
            out.push(Digest(tag));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_test_case_1() {
        // Key = 0x0b repeated 20 times, data = "Hi There".
        let mac = HmacSha512::new(&[0x0b; 20]);
        let tag = mac.compute(b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        // Key = "Jefe", data = "what do ya want for nothing?".
        let mac = HmacSha512::new(b"Jefe");
        let tag = mac.compute(b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        let long_key = vec![0x5Au8; 200];
        let mac_long = HmacSha512::new(&long_key);
        let hashed = Sha512::digest(&long_key);
        let mac_hashed = HmacSha512::new(&hashed.0);
        assert_eq!(mac_long.compute(b"m"), mac_hashed.compute(b"m"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = HmacSha512::new(b"k");
        let tag = mac.compute(b"hello");
        assert!(mac.verify(b"hello", &tag));
        assert!(!mac.verify(b"hellp", &tag));
        let other = HmacSha512::new(b"k2");
        assert!(!other.verify(b"hello", &tag));
    }

    #[test]
    fn compute_parts_matches_concatenation() {
        let mac = HmacSha512::new(b"key");
        let whole = mac.compute(b"abcdef");
        let parts = mac.compute_parts(&[b"ab", b"cd", b"ef"]);
        assert_eq!(whole, parts);
        let empty_parts = mac.compute_parts(&[]);
        assert_eq!(empty_parts, mac.compute(b""));
    }

    #[test]
    fn compute_batch_matches_singles_across_backends() {
        use crate::backend::CryptoBackend;

        let mac = HmacSha512::new(b"batch-key");
        // Message lengths spanning one and several padded blocks,
        // including the 81-byte block-MAC and 512-byte BMT-node shapes.
        for msg_len in [1usize, 64, 81, 88, 111, 112, 512] {
            for n in [1usize, 3, 4, 5, 8, 9, 12, 16] {
                let flat: Vec<u8> = (0..n * msg_len).map(|i| (i * 17 % 251) as u8).collect();
                let singles: Vec<Digest> =
                    flat.chunks_exact(msg_len).map(|m| mac.compute(m)).collect();
                for backend in CryptoBackend::ALL {
                    let mut batch = Vec::new();
                    mac.compute_batch(&backend, &flat, msg_len, &mut batch);
                    assert_eq!(batch, singles, "len {msg_len} n {n} {}", backend.name());
                }
            }
        }
    }

    #[test]
    fn compute_batch_empty_is_empty() {
        let mac = HmacSha512::new(b"k");
        let mut out = Vec::new();
        mac.compute_batch(&crate::backend::CryptoBackend::MultiBlock, &[], 8, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "whole messages")]
    fn ragged_batch_panics() {
        let mac = HmacSha512::new(b"k");
        let mut out = Vec::new();
        mac.compute_batch(
            &crate::backend::CryptoBackend::Scalar,
            &[0u8; 10],
            4,
            &mut out,
        );
    }

    #[test]
    fn debug_hides_key() {
        let mac = HmacSha512::new(&[0x42; 16]);
        let dbg = format!("{mac:?}");
        assert!(!dbg.contains("42"), "pads must not leak: {dbg}");
    }
}
