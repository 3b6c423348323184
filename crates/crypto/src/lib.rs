//! # secpb-crypto — the secure-memory cryptographic substrate
//!
//! Everything the SecPB architecture needs to *functionally* secure
//! persistent memory, implemented from scratch:
//!
//! * [`aes`] — the AES-128/192/256 block cipher (FIPS 197), with the S-box
//!   derived from the GF(2⁸) inverse + affine transform rather than a
//!   transcribed table,
//! * [`sha512`] — SHA-512 (FIPS 180-4), with the round constants derived
//!   from prime cube roots at start-up,
//! * [`hmac`] — HMAC-SHA-512 (RFC 2104),
//! * [`counter`] — split counters (major + per-block minor) as used by
//!   counter-mode memory encryption (Yan et al., ISCA'06),
//! * [`otp`] — one-time-pad generation and XOR-based counter-mode
//!   encryption of 64-byte memory blocks,
//! * [`mac`] — per-block memory authentication codes binding ciphertext,
//!   address, and counter,
//! * [`bmt`] — the Bonsai Merkle Tree over counter blocks, with a root
//!   register, leaf-to-root updates, and verification (Rogers et al.,
//!   MICRO'07),
//! * [`bmf`] — Bonsai Merkle Forests (Freij et al., MICRO'21): DBMF/SBMF
//!   height reduction with a persisted root cache, used by the paper's
//!   Figure 9 study.
//!
//! The SecPB paper models crypto units by latency only (40-cycle MAC,
//! 8-level BMT); this crate supplies the *functional* half so that the crash
//! -recovery tests in `secpb-core` can actually decrypt, verify MACs, and
//! check the BMT root after a simulated crash.
//!
//! # Example
//!
//! ```
//! use secpb_crypto::aes::Aes;
//!
//! let key = [0u8; 16];
//! let aes = Aes::new_128(&key);
//! let pt = [0u8; 16];
//! let ct = aes.encrypt_block(&pt);
//! assert_eq!(aes.decrypt_block(&ct), pt);
//! ```

// The only unsafe code in the crate is the `std::arch` kernels (AES-NI,
// AVX2 and AVX-512 SHA-512) behind the `hw-crypto` feature; default
// builds stay forbid-clean.
#![cfg_attr(not(feature = "hw-crypto"), forbid(unsafe_code))]
#![cfg_attr(feature = "hw-crypto", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod aes;
pub mod backend;
pub mod bmf;
pub mod bmt;
pub mod counter;
pub mod hmac;
pub mod mac;
pub mod otp;
pub mod sha512;

pub use aes::Aes;
pub use backend::{CipherBackend, CryptoBackend, HashBackend};
pub use bmt::BonsaiMerkleTree;
pub use counter::{CounterBlock, SplitCounter};
pub use mac::BlockMac;
pub use otp::OtpEngine;
pub use sha512::Sha512;
