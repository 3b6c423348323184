//! One-time-pad generation and counter-mode block encryption.
//!
//! Counter-mode memory encryption (Section II-B of the paper) encrypts a
//! 64-byte block by XOR-ing it with a one-time pad: the AES encryption of a
//! nonce built from the block's *address* (spatial uniqueness) and its
//! *split counter* (temporal uniqueness).  Because the pad depends only on
//! address and counter — not data — it can be precomputed while the data is
//! still being written, which is exactly the property the SecPB schemes
//! exploit (the OTP field `O` in the SecPB entry).

use crate::aes::Aes;
use crate::backend::{CipherBackend, CryptoBackend};
use crate::counter::SplitCounter;

/// A 64-byte one-time pad.
pub type Otp = [u8; 64];

/// A 64-byte data block (plaintext or ciphertext).
pub type Block = [u8; 64];

/// The counter-mode encryption engine: AES keyed once, generating pads for
/// (address, counter) pairs.
///
/// # Example
///
/// ```
/// use secpb_crypto::otp::OtpEngine;
/// use secpb_crypto::counter::SplitCounter;
///
/// let engine = OtpEngine::new(&[7u8; 24]);
/// let counter = SplitCounter { major: 1, minor: 3 };
/// let plaintext = [0x11u8; 64];
/// let ct = engine.encrypt(&plaintext, 0x1000, counter);
/// assert_ne!(ct, plaintext);
/// assert_eq!(engine.decrypt(&ct, 0x1000, counter), plaintext);
/// ```
#[derive(Debug, Clone)]
pub struct OtpEngine {
    aes: Aes,
    /// Cipher backend: a pad's four AES blocks go out as one batched
    /// dispatch (AES-NI when available, scalar otherwise).
    backend: CryptoBackend,
}

impl OtpEngine {
    /// Creates an engine with an AES-192 key, matching the paper's
    /// Table III energy model (AES-192 for data encryption).
    pub fn new(key: &[u8; 24]) -> Self {
        OtpEngine {
            aes: Aes::new_192(key),
            backend: CryptoBackend::default(),
        }
    }

    /// Selects the cipher backend for pad generation.  Byte-identical
    /// across backends; only the dispatch differs.
    pub fn set_backend(&mut self, backend: CryptoBackend) {
        self.backend = backend;
    }

    /// The cipher backend pad generation dispatches to.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// Generates the 64-byte pad for a block at `block_addr` (a 64-byte
    /// block number) with encryption counter `counter`.
    ///
    /// The pad is four AES blocks of `E_k(addr ‖ counter ‖ chunk)`; the
    /// chunk index keeps the four 16-byte pads distinct.
    pub fn generate(&self, block_addr: u64, counter: SplitCounter) -> Otp {
        let base = counter.nonce_bytes();
        let addr_bytes = block_addr.to_le_bytes();
        let mut blocks = [base; 4];
        for (chunk, nonce) in blocks.iter_mut().enumerate() {
            // Fold the block address into bytes 9..=15 (the counter uses
            // 0..=8) and the chunk index into byte 15's high bits.
            for i in 0..6 {
                nonce[9 + i] ^= addr_bytes[i];
            }
            nonce[15] ^= addr_bytes[6] ^ addr_bytes[7].rotate_left(4) ^ ((chunk as u8) << 1) ^ 1;
        }
        // All four pad blocks go out as one cipher-backend dispatch.
        self.backend.encrypt_batch(&self.aes, &mut blocks);
        let mut pad = [0u8; 64];
        for (chunk, enc) in blocks.iter().enumerate() {
            pad[16 * chunk..16 * (chunk + 1)].copy_from_slice(enc);
        }
        pad
    }

    /// Encrypts a block: `ciphertext = plaintext XOR pad(addr, counter)`.
    pub fn encrypt(&self, plaintext: &Block, block_addr: u64, counter: SplitCounter) -> Block {
        xor(plaintext, &self.generate(block_addr, counter))
    }

    /// Decrypts a block (identical operation to [`encrypt`](Self::encrypt)
    /// — counter mode is an involution given the same pad).
    pub fn decrypt(&self, ciphertext: &Block, block_addr: u64, counter: SplitCounter) -> Block {
        xor(ciphertext, &self.generate(block_addr, counter))
    }

    /// Applies a precomputed pad (the SecPB `Dc = Dp XOR O` step, a
    /// single-cycle operation in hardware per Section IV).
    pub fn apply_pad(data: &Block, pad: &Otp) -> Block {
        xor(data, pad)
    }
}

fn xor(a: &Block, b: &Block) -> Block {
    let mut out = [0u8; 64];
    for i in 0..64 {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OtpEngine {
        OtpEngine::new(&[0x11; 24])
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let e = engine();
        let mut pt = [0u8; 64];
        for (i, b) in pt.iter_mut().enumerate() {
            *b = (i * 7 % 256) as u8;
        }
        let c = SplitCounter { major: 9, minor: 2 };
        let ct = e.encrypt(&pt, 0xABCD, c);
        assert_eq!(e.decrypt(&ct, 0xABCD, c), pt);
    }

    #[test]
    fn pad_depends_on_address() {
        let e = engine();
        let c = SplitCounter { major: 1, minor: 1 };
        assert_ne!(e.generate(1, c), e.generate(2, c));
    }

    #[test]
    fn pad_depends_on_counter() {
        let e = engine();
        let a = e.generate(5, SplitCounter { major: 1, minor: 1 });
        let b = e.generate(5, SplitCounter { major: 1, minor: 2 });
        let c = e.generate(5, SplitCounter { major: 2, minor: 1 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn pad_chunks_are_distinct() {
        let e = engine();
        let pad = e.generate(3, SplitCounter::default());
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(pad[16 * i..16 * i + 16], pad[16 * j..16 * j + 16]);
            }
        }
    }

    #[test]
    fn wrong_counter_garbles_decryption() {
        let e = engine();
        let pt = [0x42u8; 64];
        let good = SplitCounter { major: 4, minor: 4 };
        let stale = SplitCounter { major: 4, minor: 3 };
        let ct = e.encrypt(&pt, 100, good);
        assert_ne!(
            e.decrypt(&ct, 100, stale),
            pt,
            "stale counter must not decrypt"
        );
    }

    #[test]
    fn apply_pad_equals_encrypt() {
        let e = engine();
        let pt = [0x33u8; 64];
        let c = SplitCounter { major: 2, minor: 7 };
        let pad = e.generate(77, c);
        assert_eq!(OtpEngine::apply_pad(&pt, &pad), e.encrypt(&pt, 77, c));
    }

    #[test]
    fn distinct_keys_distinct_pads() {
        let a = OtpEngine::new(&[1; 24]);
        let b = OtpEngine::new(&[2; 24]);
        let c = SplitCounter::default();
        assert_ne!(a.generate(0, c), b.generate(0, c));
    }

    #[test]
    fn pads_are_backend_invariant() {
        let reference = engine();
        for backend in CryptoBackend::ALL {
            let mut e = engine();
            e.set_backend(backend);
            assert_eq!(e.backend(), backend);
            for addr in [0u64, 7, 0x1000, u64::MAX] {
                let c = SplitCounter { major: 5, minor: 9 };
                assert_eq!(
                    e.generate(addr, c),
                    reference.generate(addr, c),
                    "{}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn addresses_beyond_48_bits_still_distinguished() {
        let e = engine();
        let c = SplitCounter::default();
        let lo = e.generate(0x0000_0000_0001, c);
        let hi = e.generate(0x1_0000_0000_0001, c);
        assert_ne!(lo, hi);
    }
}
