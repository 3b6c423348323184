//! Pluggable crypto backends: scalar, software-pipelined multi-block, and
//! feature-gated hardware (AES-NI) implementations of the hash and cipher
//! hot paths.
//!
//! Every fold of an integrity tree, every recovery-sweep MAC check, every
//! drain burst's MACs and counter digests, and every OTP pad is built from
//! two primitive operations: the SHA-512 compression function and the AES
//! block encryption.  Both are *embarrassingly batchable* — sibling nodes
//! of a tree level, the MACs of a recovery chunk or a drain burst, and the
//! four AES blocks of one pad are mutually independent — so the engines
//! dispatch whole batches through the [`HashBackend`] / [`CipherBackend`]
//! traits and let the backend decide how to schedule them:
//!
//! * [`Scalar`] — one block at a time, the reference implementation.
//! * [`MultiBlock`] — interleaved SHA-512 lanes per dispatch.  With the
//!   `hw-crypto` feature a batch runs as eight-lane groups through the
//!   512-bit `sha512x8` kernel when AVX-512F is detected at runtime, then
//!   four-lane groups through the 256-bit `sha512x4` kernel when AVX2 is
//!   (one vector register per round variable, all lanes at once), then a
//!   scalar remainder.  Without the feature or the ISA, four-lane groups
//!   run [`sha512`]'s portable structure-of-arrays compression: four
//!   independent dependency chains the out-of-order core can pipeline.
//! * [`HwCrypto`] — `std::arch` AES-NI for the cipher side (compiled in
//!   only with the `hw-crypto` feature and used only when
//!   `is_x86_feature_detected!` confirms the ISA at runtime, falling back
//!   to scalar otherwise).  x86 offers no SHA-512 instruction (SHA-NI
//!   covers SHA-1/SHA-256 only), so the hash side uses the multi-block
//!   schedule, which under the same feature gate runs the vector kernels.
//!
//! All three backends are bit-identical by construction; the
//! backend-equivalence suite proves it over fuzzed traces, digests, and
//! whole benchmark grids.

use std::str::FromStr;

use crate::aes::Aes;
use crate::sha512::{self, LANES};

/// A batched SHA-512 compression engine.
///
/// `states[i]` absorbs `blocks[i]` for every `i`; the blocks are
/// independent (different messages), not consecutive blocks of one
/// message, so implementations are free to reorder or interleave them.
pub trait HashBackend {
    /// Stable lowercase backend name (reports, benchmarks).
    fn name(&self) -> &'static str;

    /// Compresses `blocks[i]` into `states[i]` for every lane.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `blocks` have different lengths.
    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]);
}

/// A batched AES block-encryption engine over an expanded key schedule.
pub trait CipherBackend {
    /// Stable lowercase backend name (reports, benchmarks).
    fn name(&self) -> &'static str;

    /// Encrypts each 16-byte block in place under `aes`'s key schedule.
    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]);

    /// Decrypts each 16-byte block in place under `aes`'s key schedule.
    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]);
}

/// The reference backend: one scalar compression / AES block at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scalar;

impl HashBackend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        assert_eq!(states.len(), blocks.len(), "lane count mismatch");
        for (state, block) in states.iter_mut().zip(blocks) {
            sha512::compress_block(state, block);
        }
    }
}

impl CipherBackend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        for block in blocks {
            *block = aes.encrypt_block(block);
        }
    }

    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        for block in blocks {
            *block = aes.decrypt_block(block);
        }
    }
}

/// The software-pipelined backend: interleaved SHA-512 lanes per dispatch
/// (eight or four per group on vector hardware, four structure-of-arrays
/// lanes otherwise), scalar AES.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiBlock;

impl HashBackend for MultiBlock {
    fn name(&self) -> &'static str {
        "multiblock"
    }

    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        assert_eq!(states.len(), blocks.len(), "lane count mismatch");
        let mut i = 0;
        // Widest kernel first: eight-lane groups while AVX-512F is
        // present, then four-lane groups, then the scalar remainder.
        #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
        while states.len() - i >= sha512x8::LANES {
            let end = i + sha512x8::LANES;
            let lane_blocks = blocks[i..end].try_into().expect("8 lanes");
            let lane_states = (&mut states[i..end]).try_into().expect("8 lanes");
            if !sha512x8::try_compress8(lane_states, lane_blocks) {
                break;
            }
            i = end;
        }
        while states.len() - i >= LANES {
            let lane_blocks = [blocks[i], blocks[i + 1], blocks[i + 2], blocks[i + 3]];
            let lane_states: &mut [[u64; 8]; LANES] =
                (&mut states[i..i + LANES]).try_into().expect("4 lanes");
            i += LANES;
            // Prefer the explicit 256-bit kernel: the portable SoA
            // schedule needs 32+ live 64-bit values, which spills on the
            // 16-GPR baseline target, so real vector registers are where
            // the batching pays off.
            #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
            if sha512x4::try_compress4(lane_states, lane_blocks) {
                continue;
            }
            sha512::compress4(lane_states, lane_blocks);
        }
        for (state, block) in states[i..].iter_mut().zip(&blocks[i..]) {
            sha512::compress_block(state, block);
        }
    }
}

impl CipherBackend for MultiBlock {
    fn name(&self) -> &'static str {
        "multiblock"
    }

    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        Scalar.encrypt_batch(aes, blocks);
    }

    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        Scalar.decrypt_batch(aes, blocks);
    }
}

/// The hardware backend: AES-NI cipher when compiled with `hw-crypto` and
/// detected at runtime (scalar fallback otherwise), multi-block hashing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwCrypto;

impl HashBackend for HwCrypto {
    fn name(&self) -> &'static str {
        "hw"
    }

    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        // No SHA-512 ISA extension exists on x86; the pipelined software
        // schedule *is* the hardware-class hash path.
        MultiBlock.compress_batch(states, blocks);
    }
}

impl CipherBackend for HwCrypto {
    fn name(&self) -> &'static str {
        "hw"
    }

    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
        if aesni::try_encrypt_batch(aes, blocks) {
            return;
        }
        Scalar.encrypt_batch(aes, blocks);
    }

    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
        if aesni::try_decrypt_batch(aes, blocks) {
            return;
        }
        Scalar.decrypt_batch(aes, blocks);
    }
}

/// A copyable backend selector the crypto engines hold and dispatch
/// through — the enum form of the two traits, so engines stay `Copy`-cheap
/// to clone and need no trait objects on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoBackend {
    /// One block at a time (the reference engine).
    Scalar,
    /// Interleaved SHA-512 lanes per dispatch (eight- and four-lane
    /// vector kernels where available), scalar AES.
    #[default]
    MultiBlock,
    /// AES-NI cipher (with runtime detection and scalar fallback),
    /// multi-block hashing.
    HwCrypto,
}

impl CryptoBackend {
    /// The best backend available on this host: [`CryptoBackend::HwCrypto`]
    /// when the crate was built with `hw-crypto` *and* the CPU advertises
    /// AES-NI, [`CryptoBackend::MultiBlock`] otherwise.
    pub fn auto() -> Self {
        if Self::hw_available() {
            CryptoBackend::HwCrypto
        } else {
            CryptoBackend::MultiBlock
        }
    }

    /// Whether the hardware cipher path is actually usable here (feature
    /// compiled in and ISA detected at runtime).
    pub fn hw_available() -> bool {
        #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
        {
            aesni::available()
        }
        #[cfg(not(all(feature = "hw-crypto", target_arch = "x86_64")))]
        {
            false
        }
    }

    /// Whether a vectorized multi-block hash kernel is actually usable
    /// here (`hw-crypto` compiled in and AVX2 or AVX-512F detected at
    /// runtime; [`simd_hash_lanes`](Self::simd_hash_lanes) says which).
    /// When `false`, batched dispatches still work but run the portable
    /// schedule, so batching is a correctness/equivalence feature rather
    /// than a speedup — benchmark regression guards key off this.
    pub fn simd_hash_available() -> bool {
        Self::simd_hash_lanes() > 0
    }

    /// Lanes of the widest vectorized hash kernel usable here: 8 with
    /// `hw-crypto` on an AVX-512F CPU, 4 on an AVX2 one, 0 when batched
    /// dispatches run the portable schedule.
    pub fn simd_hash_lanes() -> usize {
        #[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
        {
            if sha512x8::available() {
                sha512x8::LANES
            } else if sha512x4::available() {
                LANES
            } else {
                0
            }
        }
        #[cfg(not(all(feature = "hw-crypto", target_arch = "x86_64")))]
        {
            0
        }
    }

    /// Stable lowercase name (CLI flags, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackend::Scalar => HashBackend::name(&Scalar),
            CryptoBackend::MultiBlock => HashBackend::name(&MultiBlock),
            CryptoBackend::HwCrypto => HashBackend::name(&HwCrypto),
        }
    }

    /// Every backend variant, for equivalence sweeps.
    pub const ALL: [CryptoBackend; 3] = [
        CryptoBackend::Scalar,
        CryptoBackend::MultiBlock,
        CryptoBackend::HwCrypto,
    ];
}

impl HashBackend for CryptoBackend {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        match self {
            CryptoBackend::Scalar => Scalar.compress_batch(states, blocks),
            CryptoBackend::MultiBlock => MultiBlock.compress_batch(states, blocks),
            CryptoBackend::HwCrypto => HwCrypto.compress_batch(states, blocks),
        }
    }
}

impl CipherBackend for CryptoBackend {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        match self {
            CryptoBackend::Scalar => Scalar.encrypt_batch(aes, blocks),
            CryptoBackend::MultiBlock => MultiBlock.encrypt_batch(aes, blocks),
            CryptoBackend::HwCrypto => HwCrypto.encrypt_batch(aes, blocks),
        }
    }

    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        match self {
            CryptoBackend::Scalar => Scalar.decrypt_batch(aes, blocks),
            CryptoBackend::MultiBlock => MultiBlock.decrypt_batch(aes, blocks),
            CryptoBackend::HwCrypto => HwCrypto.decrypt_batch(aes, blocks),
        }
    }
}

impl std::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str((*self).name())
    }
}

impl FromStr for CryptoBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(CryptoBackend::Scalar),
            "multiblock" => Ok(CryptoBackend::MultiBlock),
            "hw" => Ok(CryptoBackend::HwCrypto),
            "auto" => Ok(CryptoBackend::auto()),
            other => Err(format!(
                "unknown crypto backend '{other}' (scalar|multiblock|hw|auto)"
            )),
        }
    }
}

/// The `std::arch` AES-NI kernels — the only unsafe code in the crate,
/// compiled in exclusively under the `hw-crypto` feature and entered only
/// behind a runtime `is_x86_feature_detected!("aes")` check.
///
/// An `aesenc` has a latency of several cycles but a throughput of one or
/// two per cycle, so a loop that runs one block's rounds before starting
/// the next leaves the AES unit mostly idle.  Encryption therefore
/// interleaves independent blocks: each round key is applied to eight
/// blocks (then four, then one at a time for the tail) before the next,
/// which keeps as many rounds in flight as the unit can issue.  Batches
/// of one or two pads (4 or 8 blocks) and a recovery chunk's 1,024 blocks
/// all take the wide path.
#[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod aesni {
    use std::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_aesimc_si128, _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Whether the CPU advertises the AES ISA extension.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    /// Encrypts the batch through AES-NI if the ISA is present; returns
    /// `false` (untouched blocks) when the caller must fall back.
    pub(super) fn try_encrypt_batch(aes: &crate::aes::Aes, blocks: &mut [[u8; 16]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed the `aes` (and implied
        // `sse2`) target features on this CPU.
        unsafe { encrypt_batch(aes.round_keys(), blocks) };
        true
    }

    /// Decrypts the batch through AES-NI if the ISA is present; returns
    /// `false` (untouched blocks) when the caller must fall back.
    pub(super) fn try_decrypt_batch(aes: &crate::aes::Aes, blocks: &mut [[u8; 16]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: as in `try_encrypt_batch`.
        unsafe { decrypt_batch(aes.round_keys(), blocks) };
        true
    }

    /// Loads an expanded key schedule into xmm registers (at most 15 round
    /// keys: AES-256).
    #[target_feature(enable = "aes,sse2")]
    unsafe fn load_keys(round_keys: &[[u8; 16]]) -> ([__m128i; 15], usize) {
        let mut keys = [_mm_setzero_si128(); 15];
        for (slot, rk) in keys.iter_mut().zip(round_keys) {
            *slot = _mm_loadu_si128(rk.as_ptr().cast());
        }
        (keys, round_keys.len() - 1)
    }

    /// Encrypts each block in place: groups of eight, then of four, then
    /// single blocks, each group through [`encrypt_group`].
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature.
    #[target_feature(enable = "aes,sse2")]
    pub(super) unsafe fn encrypt_batch(round_keys: &[[u8; 16]], blocks: &mut [[u8; 16]]) {
        let (keys, nr) = load_keys(round_keys);
        let (eights, rest) = blocks.as_chunks_mut::<8>();
        for group in eights {
            encrypt_group(&keys, nr, group);
        }
        let (fours, singles) = rest.as_chunks_mut::<4>();
        for group in fours {
            encrypt_group(&keys, nr, group);
        }
        for block in singles {
            encrypt_group(&keys, nr, std::array::from_mut(block));
        }
    }

    /// Encrypts `N` independent blocks round by round — `AddRoundKey`,
    /// `nr - 1` full `aesenc` rounds, one `aesenclast` — applying each
    /// round key to every block before moving on.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn encrypt_group<const N: usize>(
        keys: &[__m128i; 15],
        nr: usize,
        group: &mut [[u8; 16]; N],
    ) {
        let mut states = [_mm_setzero_si128(); N];
        for (state, block) in states.iter_mut().zip(group.iter()) {
            *state = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), keys[0]);
        }
        for key in &keys[1..nr] {
            for state in &mut states {
                *state = _mm_aesenc_si128(*state, *key);
            }
        }
        for (state, block) in states.iter().zip(group.iter_mut()) {
            _mm_storeu_si128(
                block.as_mut_ptr().cast(),
                _mm_aesenclast_si128(*state, keys[nr]),
            );
        }
    }

    /// Decrypts each block in place via the equivalent inverse cipher:
    /// round keys reversed, interior keys through `aesimc`.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature.
    #[target_feature(enable = "aes,sse2")]
    pub(super) unsafe fn decrypt_batch(round_keys: &[[u8; 16]], blocks: &mut [[u8; 16]]) {
        let (keys, nr) = load_keys(round_keys);
        let mut dec = [_mm_setzero_si128(); 15];
        dec[0] = keys[nr];
        for i in 1..nr {
            dec[i] = _mm_aesimc_si128(keys[nr - i]);
        }
        dec[nr] = keys[0];
        for block in blocks {
            let mut state = _mm_loadu_si128(block.as_ptr().cast());
            state = _mm_xor_si128(state, dec[0]);
            for key in &dec[1..nr] {
                state = _mm_aesdec_si128(state, *key);
            }
            state = _mm_aesdeclast_si128(state, dec[nr]);
            _mm_storeu_si128(block.as_mut_ptr().cast(), state);
        }
    }
}

/// The `std::arch` AVX2 four-lane SHA-512 compression kernel — like
/// [`aesni`], unsafe code compiled in only under the `hw-crypto` feature
/// and entered only behind a runtime `is_x86_feature_detected!("avx2")`
/// check.  x86 has no SHA-512 instruction, but one ymm register holds a
/// 64-bit round variable for all four lanes at once, so every round
/// operation of four independent compressions becomes a single vector
/// instruction instead of four spill-prone scalar ones.
#[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod sha512x4 {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    use crate::sha512::{constants, LANES};

    /// `x >>> n` on each 64-bit lane (AVX2 has no 64-bit rotate, so it is
    /// synthesized from the two shifts).
    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_srli_epi64::<$n>($x),
                _mm256_slli_epi64::<{ 64 - $n }>($x),
            )
        };
    }

    /// Whether the CPU advertises AVX2.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Runs the four-lane compression through AVX2 if the ISA is present;
    /// returns `false` (untouched states) when the caller must fall back.
    pub(super) fn try_compress4(
        states: &mut [[u64; 8]; LANES],
        blocks: [&[u8; 128]; LANES],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed the `avx2` target feature.
        unsafe { compress4(states, blocks) };
        true
    }

    /// Round `i`'s big-endian message word of `block`, as the lane type.
    #[inline(always)]
    pub(super) fn word(block: &[u8; 128], i: usize) -> i64 {
        u64::from_be_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes")) as i64
    }

    /// Four independent SHA-512 compressions, one per 64-bit lane of each
    /// ymm value.  Bit-identical to four scalar `compress_block` calls.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `avx2` target feature.
    #[target_feature(enable = "avx2")]
    unsafe fn compress4(states: &mut [[u64; 8]; LANES], blocks: [&[u8; 128]; LANES]) {
        let (k, _) = constants();
        let mut w = [_mm256_set1_epi64x(0); 80];
        for (i, w_i) in w.iter_mut().take(16).enumerate() {
            *w_i = _mm256_setr_epi64x(
                word(blocks[0], i),
                word(blocks[1], i),
                word(blocks[2], i),
                word(blocks[3], i),
            );
        }
        for i in 16..80 {
            let w15 = w[i - 15];
            let w2 = w[i - 2];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(w15, 1), rotr!(w15, 8)),
                _mm256_srli_epi64::<7>(w15),
            );
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(w2, 19), rotr!(w2, 61)),
                _mm256_srli_epi64::<6>(w2),
            );
            w[i] = _mm256_add_epi64(
                _mm256_add_epi64(w[i - 16], s0),
                _mm256_add_epi64(w[i - 7], s1),
            );
        }
        let mut v = [_mm256_set1_epi64x(0); 8];
        for (r, row) in v.iter_mut().enumerate() {
            *row = _mm256_setr_epi64x(
                states[0][r] as i64,
                states[1][r] as i64,
                states[2][r] as i64,
                states[3][r] as i64,
            );
        }
        let init = v;
        for (&k_i, &w_i) in k.iter().zip(&w) {
            let [a, b, c, d, e, f, g, h] = v;
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 14), rotr!(e, 18)), rotr!(e, 41));
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let kw = _mm256_add_epi64(_mm256_set1_epi64x(k_i as i64), w_i);
            let temp1 = _mm256_add_epi64(_mm256_add_epi64(h, s1), _mm256_add_epi64(ch, kw));
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 28), rotr!(a, 34)), rotr!(a, 39));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let temp2 = _mm256_add_epi64(s0, maj);
            v = [
                _mm256_add_epi64(temp1, temp2),
                a,
                b,
                c,
                _mm256_add_epi64(d, temp1),
                e,
                f,
                g,
            ];
        }
        for (r, (row, row0)) in v.iter().zip(&init).enumerate() {
            let mut lanes = [0u64; LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), _mm256_add_epi64(*row0, *row));
            for (l, lane) in lanes.iter().enumerate() {
                states[l][r] = *lane;
            }
        }
    }
}

/// The `std::arch` AVX-512 eight-lane SHA-512 compression kernel — the
/// [`sha512x4`] schedule on 512-bit registers, likewise compiled in only
/// under the `hw-crypto` feature and entered only behind a runtime
/// `is_x86_feature_detected!("avx512f")` check.  One zmm register holds a
/// round variable for eight lanes; AVX-512F's native 64-bit rotate
/// (`vprorq`) replaces AVX2's shift-shift-or, and the three-input
/// `vpternlogq` computes each Σ/σ XOR, `Ch` and `Maj` in one instruction.
#[cfg(all(feature = "hw-crypto", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod sha512x8 {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_ror_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
        _mm512_srli_epi64, _mm512_storeu_si512, _mm512_ternarylogic_epi64,
    };

    use super::sha512x4::word;
    use crate::sha512::constants;

    /// Lanes per dispatch.
    pub(super) const LANES: usize = 8;

    // `vpternlogq` truth tables: bit `4x + 2y + z` of the immediate is
    // the result for input bits `x`, `y`, `z`.
    /// `x ^ y ^ z`.
    const XOR3: i32 = 0x96;
    /// `Ch(x, y, z) = x ? y : z`.
    const CH: i32 = 0xCA;
    /// `Maj(x, y, z)`: the majority bit.
    const MAJ: i32 = 0xE8;

    /// `(x >>> a) ^ (x >>> b) ^ (x >>> c)` on each 64-bit lane.
    macro_rules! sigma {
        ($x:expr, $a:literal, $b:literal, $c:literal) => {
            _mm512_ternarylogic_epi64::<XOR3>(
                _mm512_ror_epi64::<$a>($x),
                _mm512_ror_epi64::<$b>($x),
                _mm512_ror_epi64::<$c>($x),
            )
        };
    }

    /// The message-schedule σ: `(x >>> a) ^ (x >>> b) ^ (x >> s)`.
    macro_rules! small_sigma {
        ($x:expr, $a:literal, $b:literal, $s:literal) => {
            _mm512_ternarylogic_epi64::<XOR3>(
                _mm512_ror_epi64::<$a>($x),
                _mm512_ror_epi64::<$b>($x),
                _mm512_srli_epi64::<$s>($x),
            )
        };
    }

    /// Whether the CPU advertises AVX-512F.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Runs the eight-lane compression through AVX-512F if the ISA is
    /// present; returns `false` (untouched states) when the caller must
    /// fall back.
    pub(super) fn try_compress8(
        states: &mut [[u64; 8]; LANES],
        blocks: [&[u8; 128]; LANES],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed the `avx512f` target
        // feature.
        unsafe { compress8(states, blocks) };
        true
    }

    /// Eight independent SHA-512 compressions, one per 64-bit lane of
    /// each zmm value.  Bit-identical to eight scalar `compress_block`
    /// calls.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `avx512f` target feature.
    #[target_feature(enable = "avx512f")]
    unsafe fn compress8(states: &mut [[u64; 8]; LANES], blocks: [&[u8; 128]; LANES]) {
        let (k, _) = constants();
        let mut w = [_mm512_set1_epi64(0); 80];
        for (i, w_i) in w.iter_mut().take(16).enumerate() {
            *w_i = _mm512_setr_epi64(
                word(blocks[0], i),
                word(blocks[1], i),
                word(blocks[2], i),
                word(blocks[3], i),
                word(blocks[4], i),
                word(blocks[5], i),
                word(blocks[6], i),
                word(blocks[7], i),
            );
        }
        for i in 16..80 {
            let s0 = small_sigma!(w[i - 15], 1, 8, 7);
            let s1 = small_sigma!(w[i - 2], 19, 61, 6);
            w[i] = _mm512_add_epi64(
                _mm512_add_epi64(w[i - 16], s0),
                _mm512_add_epi64(w[i - 7], s1),
            );
        }
        let mut v = [_mm512_set1_epi64(0); 8];
        for (r, row) in v.iter_mut().enumerate() {
            *row = _mm512_setr_epi64(
                states[0][r] as i64,
                states[1][r] as i64,
                states[2][r] as i64,
                states[3][r] as i64,
                states[4][r] as i64,
                states[5][r] as i64,
                states[6][r] as i64,
                states[7][r] as i64,
            );
        }
        let init = v;
        for (&k_i, &w_i) in k.iter().zip(&w) {
            let [a, b, c, d, e, f, g, h] = v;
            let s1 = sigma!(e, 14, 18, 41);
            let ch = _mm512_ternarylogic_epi64::<CH>(e, f, g);
            let kw = _mm512_add_epi64(_mm512_set1_epi64(k_i as i64), w_i);
            let temp1 = _mm512_add_epi64(_mm512_add_epi64(h, s1), _mm512_add_epi64(ch, kw));
            let s0 = sigma!(a, 28, 34, 39);
            let maj = _mm512_ternarylogic_epi64::<MAJ>(a, b, c);
            let temp2 = _mm512_add_epi64(s0, maj);
            v = [
                _mm512_add_epi64(temp1, temp2),
                a,
                b,
                c,
                _mm512_add_epi64(d, temp1),
                e,
                f,
                g,
            ];
        }
        for (r, (row, row0)) in v.iter().zip(&init).enumerate() {
            let mut lanes = [0u64; LANES];
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), _mm512_add_epi64(*row0, *row));
            for (l, lane) in lanes.iter().enumerate() {
                states[l][r] = *lane;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha512::{Digest, Sha512};

    fn states_and_blocks(n: usize) -> (Vec<[u64; 8]>, Vec<[u8; 128]>) {
        let states = vec![crate::sha512::initial_state(); n];
        let blocks: Vec<[u8; 128]> = (0..n)
            .map(|i| {
                let mut b = [0u8; 128];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (i * 37 + j * 11 + 5) as u8;
                }
                b
            })
            .collect();
        (states, blocks)
    }

    #[test]
    fn all_backends_compress_identically() {
        // On an AVX-512 host 8, 12, 13 and 16 run eight lanes alone,
        // 8+4, 8+4+scalar and two eight-lane groups.
        for n in [0usize, 1, 3, 4, 5, 8, 12, 13, 16] {
            let (base_states, blocks) = states_and_blocks(n);
            let refs: Vec<&[u8; 128]> = blocks.iter().collect();
            let mut results = Vec::new();
            for backend in CryptoBackend::ALL {
                let mut states = base_states.clone();
                backend.compress_batch(&mut states, &refs);
                results.push(states);
            }
            assert_eq!(results[0], results[1], "scalar vs multiblock, n={n}");
            assert_eq!(results[0], results[2], "scalar vs hw, n={n}");
        }
    }

    #[test]
    fn batch_of_one_matches_one_shot_digest() {
        // A single padded block compressed through the batch API must be
        // the digest of the unpadded message.
        let msg = [0xC3u8; 64];
        let mut tail = [0u8; 128];
        crate::sha512::write_padded_tail(&msg, 0, &mut tail);
        let mut states = vec![crate::sha512::initial_state()];
        CryptoBackend::MultiBlock.compress_batch(&mut states, &[&tail]);
        let mut out = [0u8; 64];
        for (i, word) in states[0].iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
        }
        assert_eq!(Digest(out), Sha512::digest(&msg));
    }

    #[test]
    fn all_backends_cipher_identically() {
        let aes = Aes::new_192(&[0x3C; 24]);
        let base: Vec<[u8; 16]> = (0..9u8)
            .map(|i| {
                let mut b = [0u8; 16];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = i.wrapping_mul(29).wrapping_add(j as u8);
                }
                b
            })
            .collect();
        let mut results = Vec::new();
        for backend in CryptoBackend::ALL {
            let mut blocks = base.clone();
            backend.encrypt_batch(&aes, &mut blocks);
            results.push(blocks.clone());
            backend.decrypt_batch(&aes, &mut blocks);
            assert_eq!(blocks, base, "{} round trip", CipherBackend::name(&backend));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
        // And the batch path agrees with the scalar single-block API.
        assert_eq!(results[0][0], aes.encrypt_block(&base[0]));
    }

    #[test]
    fn auto_never_picks_scalar() {
        assert_ne!(CryptoBackend::auto(), CryptoBackend::Scalar);
        if !CryptoBackend::hw_available() {
            assert_eq!(CryptoBackend::auto(), CryptoBackend::MultiBlock);
        }
    }

    #[test]
    fn names_and_parsing() {
        assert_eq!(CryptoBackend::Scalar.name(), "scalar");
        assert_eq!(CryptoBackend::MultiBlock.name(), "multiblock");
        assert_eq!(CryptoBackend::HwCrypto.name(), "hw");
        assert_eq!(CryptoBackend::default(), CryptoBackend::MultiBlock);
        for backend in CryptoBackend::ALL {
            assert_eq!(backend.name().parse::<CryptoBackend>(), Ok(backend));
            assert_eq!(backend.to_string(), backend.name());
        }
        assert_eq!("auto".parse::<CryptoBackend>(), Ok(CryptoBackend::auto()));
        assert!("sse9".parse::<CryptoBackend>().is_err());
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_panic() {
        let (mut states, blocks) = states_and_blocks(2);
        let refs: Vec<&[u8; 128]> = blocks.iter().take(1).collect();
        CryptoBackend::Scalar.compress_batch(&mut states, &refs);
    }
}
