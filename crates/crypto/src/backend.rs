//! The crypto backends: a scalar reference and one batched path over
//! the hash and cipher hot paths.
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
//! * [`CryptoBackend::Scalar`] — one block at a time, the reference
//!   implementation.
//! * [`CryptoBackend::HwCrypto`] — the batched path, using the widest
//!   kernel the CPU offers, detected at run time.  Hashing runs eight-lane
//!   groups through the 512-bit `sha512x8` kernel on AVX-512F, else
//!   four-lane groups through the 256-bit `sha512x4` kernel on AVX2 (one
//!   vector register per round variable, all lanes at once); a trailing
//!   group of two or more lanes fills one more padded call, a lone lane
//!   runs scalar.  Without either ISA, four-lane groups run [`sha512`]'s
//!   portable structure-of-arrays compression (four independent dependency
//!   chains the out-of-order core can pipeline), then a scalar remainder.
//!   The cipher runs the `std::arch` AES-NI kernel where the CPU has it
//!   and the scalar cipher otherwise.  x86 offers no SHA-512 instruction
//!   (SHA-NI covers SHA-1/SHA-256 only), so the vector schedule *is* the
//!   hardware-class hash path.
//!
//! The two backends are bit-identical by construction; the
//! backend-equivalence suite proves it over fuzzed traces, digests, and
//! whole benchmark grids.

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

/// The backend the crypto engines hold and dispatch through — a `Copy`
/// enum implementing both traits, so engines stay cheap to clone and need
/// no trait objects on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoBackend {
    /// One block at a time (the reference engine).
    Scalar,
    /// The batched path: the widest SHA-512 kernel and the AES-NI cipher
    /// where the CPU has them, the portable schedule and the scalar
    /// cipher where it does not.
    #[default]
    HwCrypto,
}

impl CryptoBackend {
    /// The backend the simulator runs by default: always the batched
    /// path, which picks its kernels at run time.
    pub fn auto() -> Self {
        CryptoBackend::HwCrypto
    }

    /// Whether the AES-NI cipher kernel is usable here (the ISA detected
    /// at run time).
    pub fn hw_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            aesni::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether a vectorized multi-block hash kernel is actually usable
    /// here (AVX2 or AVX-512F detected at run time;
    /// [`simd_hash_lanes`](Self::simd_hash_lanes) says which).  When
    /// `false`, batched dispatches still work but run the portable
    /// schedule, so batching is a correctness/equivalence feature rather
    /// than a speedup — benchmark regression guards key off this.
    pub fn simd_hash_available() -> bool {
        Self::simd_hash_lanes() > 0
    }

    /// Lanes of the widest vectorized hash kernel usable here: 8 on an
    /// AVX-512F CPU, 4 on an AVX2 one, 0 when batched dispatches run the
    /// portable schedule.
    pub fn simd_hash_lanes() -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            if sha512x8::available() {
                sha512x8::LANES
            } else if sha512x4::available() {
                LANES
            } else {
                0
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            0
        }
    }

    /// Compresses exactly four lanes through the four-lane kernel: AVX2
    /// where detected, the portable schedule otherwise.  The batched path
    /// never calls it on an AVX-512F host, where four lanes fill an
    /// eight-lane call, so benchmarks that compare the two kernel widths
    /// time it here.
    pub fn compress4(states: &mut [[u64; 8]; 4], blocks: [&[u8; 128]; 4]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(compress4) = sha512x4::kernel() {
            return compress4(states, blocks);
        }
        sha512::compress4(states, blocks);
    }

    /// Stable lowercase name (JSON reports, hostbench's provenance line).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackend::Scalar => "scalar",
            CryptoBackend::HwCrypto => "hw",
        }
    }

    /// Both backends, for equivalence sweeps.
    pub const ALL: [CryptoBackend; 2] = [CryptoBackend::Scalar, CryptoBackend::HwCrypto];
}

impl HashBackend for CryptoBackend {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        assert_eq!(states.len(), blocks.len(), "lane count mismatch");
        match self {
            CryptoBackend::Scalar => {
                for (state, block) in states.iter_mut().zip(blocks) {
                    sha512::compress_block(state, block);
                }
            }
            CryptoBackend::HwCrypto => {
                // The widest vector kernel takes every group, a trailing
                // group of two or more lanes included: one padded call
                // costs less than narrower calls or scalar compressions.
                #[cfg(target_arch = "x86_64")]
                if let Some(compress8) = sha512x8::kernel() {
                    return lane_filled(states, blocks, compress8);
                } else if let Some(compress4) = sha512x4::kernel() {
                    return lane_filled(states, blocks, compress4);
                }
                compress_portable(states, blocks);
            }
        }
    }
}

impl CipherBackend for CryptoBackend {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if *self == CryptoBackend::HwCrypto && aesni::try_encrypt_batch(aes, blocks) {
            return;
        }
        for block in blocks {
            *block = aes.encrypt_block(block);
        }
    }

    fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if *self == CryptoBackend::HwCrypto && aesni::try_decrypt_batch(aes, blocks) {
            return;
        }
        for block in blocks {
            *block = aes.decrypt_block(block);
        }
    }
}

impl std::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str((*self).name())
    }
}

/// The portable structure-of-arrays schedule the batched path falls back
/// to without a vector kernel: four-lane groups, then the scalar
/// remainder.
fn compress_portable(states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
    let (groups, rest) = states.as_chunks_mut::<LANES>();
    for (lane_states, lane_blocks) in groups.iter_mut().zip(blocks.chunks_exact(LANES)) {
        let lane_blocks = lane_blocks.try_into().expect("4 lanes");
        sha512::compress4(lane_states, lane_blocks);
    }
    let done = groups.len() * LANES;
    for (state, block) in rest.iter_mut().zip(&blocks[done..]) {
        sha512::compress_block(state, block);
    }
}

/// A vector kernel's `N`-lane compression.
#[cfg(target_arch = "x86_64")]
type Kernel<const N: usize> = fn(&mut [[u64; 8]; N], [&[u8; 128]; N]);

/// Runs `kernel` over every whole group of `N` lanes, and once more over
/// a trailing group of two or more lanes with the rest of its lanes idle
/// (they compress a copy of the group's first block and are dropped).  A
/// lone trailing lane compresses scalar, which costs less than a call.
#[cfg(target_arch = "x86_64")]
fn lane_filled<const N: usize>(states: &mut [[u64; 8]], blocks: &[&[u8; 128]], kernel: Kernel<N>) {
    let (groups, rest) = states.as_chunks_mut::<N>();
    for (lane_states, lane_blocks) in groups.iter_mut().zip(blocks.chunks_exact(N)) {
        kernel(lane_states, lane_blocks.try_into().expect("N lanes"));
    }
    let rest_blocks = &blocks[groups.len() * N..];
    match rest {
        [] => {}
        [state] => sha512::compress_block(state, rest_blocks[0]),
        _ => {
            let mut lane_states = [[0u64; 8]; N];
            lane_states[..rest.len()].copy_from_slice(rest);
            let mut lane_blocks = [rest_blocks[0]; N];
            lane_blocks[..rest.len()].copy_from_slice(rest_blocks);
            kernel(&mut lane_states, lane_blocks);
            rest.copy_from_slice(&lane_states[..rest.len()]);
        }
    }
}

/// The `std::arch` AES-NI kernels — with the two SHA-512 kernels below,
/// the only unsafe code in the crate, compiled on x86-64 and entered only
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
#[cfg(target_arch = "x86_64")]
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
/// [`aesni`], unsafe code compiled on x86-64 and entered only behind a
/// runtime `is_x86_feature_detected!("avx2")` check.  x86 has no SHA-512 instruction, but one ymm register holds a
/// 64-bit round variable for all four lanes at once, so every round
/// operation of four independent compressions becomes a single vector
/// instruction instead of four spill-prone scalar ones.
#[cfg(target_arch = "x86_64")]
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

    /// The four-lane compression, if the CPU has AVX2.
    pub(super) fn kernel() -> Option<super::Kernel<LANES>> {
        available().then_some(|states, blocks| {
            // SAFETY: handed out only after `available()` confirmed the
            // `avx2` target feature.
            unsafe { compress4(states, blocks) }
        })
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
/// [`sha512x4`] schedule on 512-bit registers, likewise compiled on
/// x86-64 and entered only behind a runtime
/// `is_x86_feature_detected!("avx512f")` check.  One zmm register holds a
/// round variable for eight lanes; AVX-512F's native 64-bit rotate
/// (`vprorq`) replaces AVX2's shift-shift-or, and the three-input
/// `vpternlogq` computes each Σ/σ XOR, `Ch` and `Maj` in one instruction.
#[cfg(target_arch = "x86_64")]
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

    /// The eight-lane compression, if the CPU has AVX-512F.
    pub(super) fn kernel() -> Option<super::Kernel<LANES>> {
        available().then_some(|states, blocks| {
            // SAFETY: handed out only after `available()` confirmed the
            // `avx512f` target feature.
            unsafe { compress8(states, blocks) }
        })
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
    fn every_lane_count_compresses_like_scalar_on_every_backend() {
        // On an AVX-512F host 2..=7 lanes fill one eight-lane call, 9 adds
        // a scalar lane to one, and 10..=15 add a second, padded call; on
        // an AVX2 one 2 and 3 lanes fill one four-lane call.  A vector
        // host never reaches the portable schedule through
        // `compress_batch`, so it is driven directly too.
        for n in 0..=17 {
            let (base_states, blocks) = states_and_blocks(n);
            let refs: Vec<&[u8; 128]> = blocks.iter().collect();
            let mut expect = base_states.clone();
            for (state, block) in expect.iter_mut().zip(&blocks) {
                crate::sha512::compress_block(state, block);
            }
            for backend in CryptoBackend::ALL {
                let mut states = base_states.clone();
                backend.compress_batch(&mut states, &refs);
                assert_eq!(states, expect, "{backend}, {n} lanes");
            }
            let mut states = base_states.clone();
            compress_portable(&mut states, &refs);
            assert_eq!(states, expect, "portable schedule, {n} lanes");
        }
    }

    #[test]
    fn the_four_lane_kernel_compresses_like_scalar() {
        let (mut states, blocks) = states_and_blocks(4);
        let mut expect = states.clone();
        for (state, block) in expect.iter_mut().zip(&blocks) {
            crate::sha512::compress_block(state, block);
        }
        let lanes: &mut [[u64; 8]; 4] = (&mut states[..]).try_into().unwrap();
        CryptoBackend::compress4(lanes, [&blocks[0], &blocks[1], &blocks[2], &blocks[3]]);
        assert_eq!(states, expect);
    }

    #[test]
    fn batch_of_one_matches_one_shot_digest() {
        // A single padded block compressed through the batch API must be
        // the digest of the unpadded message.
        let msg = [0xC3u8; 64];
        let mut tail = [0u8; 128];
        crate::sha512::write_padded_tail(&msg, 0, &mut tail);
        for backend in CryptoBackend::ALL {
            let mut states = vec![crate::sha512::initial_state()];
            backend.compress_batch(&mut states, &[&tail]);
            let mut out = [0u8; 64];
            for (i, word) in states[0].iter().enumerate() {
                out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
            }
            assert_eq!(Digest(out), Sha512::digest(&msg), "{backend}");
        }
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
            assert_eq!(blocks, base, "{backend} round trip");
        }
        assert_eq!(results[0], results[1]);
        // And the batch path agrees with the scalar single-block API.
        assert_eq!(results[0][0], aes.encrypt_block(&base[0]));
    }

    #[test]
    fn auto_is_the_batched_default() {
        assert_eq!(CryptoBackend::auto(), CryptoBackend::HwCrypto);
        assert_eq!(CryptoBackend::default(), CryptoBackend::HwCrypto);
    }

    #[test]
    fn names() {
        assert_eq!(CryptoBackend::Scalar.name(), "scalar");
        assert_eq!(CryptoBackend::HwCrypto.name(), "hw");
        for backend in CryptoBackend::ALL {
            assert_eq!(backend.to_string(), backend.name());
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_panic() {
        let (mut states, blocks) = states_and_blocks(2);
        let refs: Vec<&[u8; 128]> = blocks.iter().take(1).collect();
        CryptoBackend::Scalar.compress_batch(&mut states, &refs);
    }
}
