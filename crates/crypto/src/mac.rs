//! Per-block memory authentication codes.
//!
//! Each 64-byte memory block carries a MAC binding its *ciphertext*, its
//! *address* (anti-splicing: a block cannot be relocated), and its
//! *encryption counter* (anti-replay in combination with the BMT, which
//! guarantees counter freshness).  This mirrors the memory tuple
//! `(C, γ, M, R)` of the paper's Section III-A.
//!
//! The SecPB entry stores the full 512-bit MAC (`M` field, Table in Fig. 5);
//! the MAC metadata space in PM stores the 64-bit truncation, as is usual
//! for 8-bytes-per-block MAC layouts.

use crate::backend::CryptoBackend;
use crate::counter::SplitCounter;
use crate::hmac::HmacSha512;
use crate::otp::Block;
use crate::sha512::Digest;

/// Length of a block-MAC message: 64 ciphertext bytes, the 8-byte
/// little-endian address, the 8-byte major counter, and the minor byte.
const MAC_MSG_LEN: usize = 64 + 8 + 8 + 1;

/// The keyed per-block MAC engine.
///
/// # Example
///
/// ```
/// use secpb_crypto::mac::BlockMac;
/// use secpb_crypto::counter::SplitCounter;
///
/// let mac = BlockMac::new(b"mac-key");
/// let ct = [0xAAu8; 64];
/// let ctr = SplitCounter { major: 1, minor: 5 };
/// let tag = mac.compute(&ct, 0x40, ctr);
/// assert!(mac.verify(&ct, 0x40, ctr, &tag));
/// ```
#[derive(Debug, Clone)]
pub struct BlockMac {
    hmac: HmacSha512,
    /// Multi-lane dispatch target for batched tag computation.
    backend: CryptoBackend,
}

impl BlockMac {
    /// Creates a MAC engine from a key.
    pub fn new(key: &[u8]) -> Self {
        BlockMac {
            hmac: HmacSha512::new(key),
            backend: CryptoBackend::default(),
        }
    }

    /// Selects the crypto backend used by batched tag computation.
    pub fn set_backend(&mut self, backend: CryptoBackend) {
        self.backend = backend;
    }

    /// The crypto backend batched tag computation dispatches to.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// Computes the MAC of a ciphertext block at `block_addr` with counter
    /// `counter`.
    pub fn compute(&self, ciphertext: &Block, block_addr: u64, counter: SplitCounter) -> Digest {
        self.hmac.compute_parts(&[
            ciphertext,
            &block_addr.to_le_bytes(),
            &counter.major.to_le_bytes(),
            &[counter.minor],
        ])
    }

    /// Verifies a full 512-bit tag.
    pub fn verify(
        &self,
        ciphertext: &Block,
        block_addr: u64,
        counter: SplitCounter,
        tag: &Digest,
    ) -> bool {
        self.compute(ciphertext, block_addr, counter) == *tag
    }

    /// Computes the truncated 64-bit tags of many blocks in one batched,
    /// multi-lane dispatch (the recovery sweep's and the drain kernel's
    /// hot loop), appending them to `out` in input order.  Each message
    /// is laid out with its SHA-512 padding as the one 128-byte block its
    /// inner pass compresses
    /// ([`HmacSha512::compute_truncated_in_place`]).  Bit-identical to
    /// per-block [`compute`](Self::compute) + truncation.
    pub fn compute_truncated_batch(
        &self,
        blocks: &[(&Block, u64, SplitCounter)],
        out: &mut Vec<u64>,
    ) {
        let mut messages: Vec<[u8; 128]> = blocks
            .iter()
            .map(|(ciphertext, block_addr, counter)| {
                let mut message = [0u8; 128];
                message[..64].copy_from_slice(&ciphertext[..]);
                message[64..72].copy_from_slice(&block_addr.to_le_bytes());
                message[72..80].copy_from_slice(&counter.major.to_le_bytes());
                message[80] = counter.minor;
                message
            })
            .collect();
        self.hmac
            .compute_truncated_in_place(&self.backend, &mut messages, MAC_MSG_LEN, out);
    }

    /// Verifies against the truncated 64-bit stored form.
    pub fn verify_truncated(
        &self,
        ciphertext: &Block,
        block_addr: u64,
        counter: SplitCounter,
        tag64: u64,
    ) -> bool {
        self.compute(ciphertext, block_addr, counter).truncate_u64() == tag64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> BlockMac {
        BlockMac::new(b"test-mac-key")
    }

    fn ctr(major: u64, minor: u8) -> SplitCounter {
        SplitCounter { major, minor }
    }

    #[test]
    fn accepts_untampered_block() {
        let m = mac();
        let ct = [7u8; 64];
        let tag = m.compute(&ct, 10, ctr(0, 1));
        assert!(m.verify(&ct, 10, ctr(0, 1), &tag));
        assert!(m.verify_truncated(&ct, 10, ctr(0, 1), tag.truncate_u64()));
    }

    #[test]
    fn detects_data_tampering() {
        let m = mac();
        let ct = [7u8; 64];
        let tag = m.compute(&ct, 10, ctr(0, 1));
        let mut tampered = ct;
        tampered[63] ^= 1;
        assert!(!m.verify(&tampered, 10, ctr(0, 1), &tag));
    }

    #[test]
    fn detects_splicing_to_other_address() {
        let m = mac();
        let ct = [7u8; 64];
        let tag = m.compute(&ct, 10, ctr(0, 1));
        assert!(
            !m.verify(&ct, 11, ctr(0, 1), &tag),
            "same data at wrong address must fail"
        );
    }

    #[test]
    fn detects_counter_replay() {
        let m = mac();
        let ct = [7u8; 64];
        let tag_old = m.compute(&ct, 10, ctr(0, 1));
        // After the counter advances, the old tag no longer verifies.
        assert!(!m.verify(&ct, 10, ctr(0, 2), &tag_old));
        assert!(!m.verify(&ct, 10, ctr(1, 1), &tag_old));
    }

    #[test]
    fn address_and_major_do_not_alias() {
        // (addr=1, major=0) and (addr=0, major=1) must produce different
        // tags — a length-prefix-free encoding bug would alias them.
        let m = mac();
        let ct = [0u8; 64];
        let a = m.compute(&ct, 1, ctr(0, 0));
        let b = m.compute(&ct, 0, ctr(1, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn truncated_batch_matches_singles_across_backends() {
        let mut m = mac();
        let blocks: Vec<(Block, u64, SplitCounter)> = (0..9u8)
            .map(|i| ([i; 64], u64::from(i) * 321, ctr(u64::from(i), i)))
            .collect();
        let refs: Vec<(&Block, u64, SplitCounter)> =
            blocks.iter().map(|(b, a, c)| (b, *a, *c)).collect();
        let singles: Vec<u64> = refs
            .iter()
            .map(|(b, a, c)| m.compute(b, *a, *c).truncate_u64())
            .collect();
        for backend in CryptoBackend::ALL {
            m.set_backend(backend);
            assert_eq!(m.backend(), backend);
            let mut batch = Vec::new();
            m.compute_truncated_batch(&refs, &mut batch);
            assert_eq!(batch, singles, "{}", backend.name());
        }
    }

    #[test]
    fn different_keys_disagree() {
        let a = BlockMac::new(b"k1");
        let b = BlockMac::new(b"k2");
        let ct = [1u8; 64];
        assert_ne!(a.compute(&ct, 0, ctr(0, 0)), b.compute(&ct, 0, ctr(0, 0)));
    }
}
