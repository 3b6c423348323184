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
/// (address, counter) pairs, one at a time ([`generate`](Self::generate),
/// the drain path) or a batch per cipher dispatch
/// ([`generate_batch`](Self::generate_batch), the recovery sweep).
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
    /// Cipher backend: a pad's four AES blocks — or a whole batch's, via
    /// [`generate_batch`](Self::generate_batch) — go out as one batched
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
        let mut pad = nonces(block_addr, counter);
        // All four pad blocks go out as one cipher-backend dispatch.
        self.backend.encrypt_batch(&self.aes, pad.as_chunks_mut().0);
        pad
    }

    /// Generates the pads of many `(block_addr, counter)` pairs, appending
    /// them to `out` in input order.  All `4 × inputs.len()` AES blocks go
    /// out as one cipher-backend dispatch, so an interleaving kernel
    /// (AES-NI runs eight independent blocks per round) stays busy across
    /// pads — the recovery sweep's pad path.  Bit-identical to per-pair
    /// [`generate`](Self::generate) on every backend.
    pub fn generate_batch(&self, inputs: &[(u64, SplitCounter)], out: &mut Vec<Otp>) {
        let start = out.len();
        out.extend(inputs.iter().map(|&(addr, ctr)| nonces(addr, ctr)));
        self.backend
            .encrypt_batch(&self.aes, out[start..].as_flattened_mut().as_chunks_mut().0);
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

/// The four AES input blocks of a pad, laid out as the pad itself: the
/// counter's nonce bytes (0..=8) with the block address's low six bytes
/// in bytes 9..=14, and its top two bytes and the chunk index folded
/// into byte 15.
fn nonces(block_addr: u64, counter: SplitCounter) -> Otp {
    let [.., b6, b7] = block_addr.to_le_bytes();
    let nonce = u128::from_le_bytes(counter.nonce_bytes())
        | u128::from(block_addr & 0xFFFF_FFFF_FFFF) << 72
        | u128::from(b6 ^ b7.rotate_left(4) ^ 1) << 120;
    let mut pad = [0u8; 64];
    for (chunk, block) in pad.chunks_exact_mut(16).enumerate() {
        // The chunk index lands in bits 1..=2 of byte 15.
        block.copy_from_slice(&(nonce ^ (chunk as u128) << 121).to_le_bytes());
    }
    pad
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
    fn pads_match_known_answers() {
        // Pins the nonce layout: a change to how address, counter and
        // chunk index fill the AES inputs would re-key every image.
        let hex = |pad: Otp| pad.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let e = engine();
        assert_eq!(
            hex(e.generate(0xABCD, SplitCounter { major: 9, minor: 2 })),
            "a6d58fd31ce7e7f8893f8eb9dacdb1fe568812b5a7157676556219124bbb1634\
             193959a6d7b6542cd2a55fc0abc84b9db9c809a8c3365fe9ec4d39751f39aab8"
        );
        assert_eq!(
            hex(e.generate(
                0x0123_4567_89AB_CDEF,
                SplitCounter {
                    major: 0xFEDC_BA98,
                    minor: 77
                }
            )),
            "d091b9155b0b89c7fa6111c4ebdd36f8cdc5ad7a620cc956870edd19b160f63c\
             0cacad4bbc92348f8ccc4ea1566f50850a2af1dd2752a411accb9c496fe2a526"
        );
    }

    #[test]
    fn batched_pads_equal_single_pads_on_every_backend() {
        let inputs: Vec<(u64, SplitCounter)> = (0..17u64)
            .map(|i| {
                let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 5);
                let ctr = SplitCounter {
                    major: i / 3,
                    minor: (i * 11 % 128) as u8,
                };
                (addr, ctr)
            })
            .collect();
        for backend in CryptoBackend::ALL {
            let mut e = engine();
            e.set_backend(backend);
            for n in 1..=inputs.len() {
                // Appends after whatever the buffer already holds.
                let mut out = vec![[0xEEu8; 64]];
                e.generate_batch(&inputs[..n], &mut out);
                assert_eq!(out.len(), n + 1, "{} n={n}", backend.name());
                assert_eq!(out[0], [0xEEu8; 64]);
                for (pad, &(addr, ctr)) in out[1..].iter().zip(&inputs) {
                    assert_eq!(*pad, e.generate(addr, ctr), "{} n={n}", backend.name());
                }
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
