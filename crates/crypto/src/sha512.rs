//! SHA-512 (FIPS 180-4).
//!
//! The 80 round constants are the first 64 bits of the fractional parts of
//! the cube roots of the first 80 primes, and the initial hash state is the
//! fractional parts of the square roots of the first 8 primes.  Rather than
//! transcribing 88 magic numbers, this module *derives* them at first use
//! with exact integer arithmetic (a tiny 256-bit helper and binary-search
//! roots), then pins the result with known-answer tests — including the
//! canonical `SHA-512("abc")` vector.

use std::fmt;
use std::sync::OnceLock;

/// Minimal 256-bit unsigned integer (little-endian 64-bit limbs), just big
/// enough to compare `x³` against `p·2¹⁹²` during constant derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct U256([u64; 4]);

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Numeric ordering: compare from the most significant limb down.
        self.0.iter().rev().cmp(other.0.iter().rev())
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl U256 {
    fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// `p · 2¹⁹²` for small `p`.
    fn small_shl_192(p: u64) -> Self {
        U256([0, 0, 0, p])
    }

    /// `p · 2¹²⁸` for small `p`.
    fn small_shl_128(p: u64) -> Self {
        U256([0, 0, p, 0])
    }

    fn checked_add(self, other: U256) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let (s1, c1) = a.overflowing_add(*b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry == 0 {
            Some(U256(out))
        } else {
            None
        }
    }

    fn checked_mul_u64(self, m: u64) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        for (o, a) in out.iter_mut().zip(&self.0) {
            let prod = u128::from(*a) * u128::from(m) + carry;
            *o = prod as u64;
            carry = prod >> 64;
        }
        if carry == 0 {
            Some(U256(out))
        } else {
            None
        }
    }

    /// Shift left by one whole 64-bit limb.
    fn checked_shl_64(self) -> Option<U256> {
        if self.0[3] != 0 {
            return None;
        }
        Some(U256([0, self.0[0], self.0[1], self.0[2]]))
    }

    fn checked_mul_u128(self, m: u128) -> Option<U256> {
        let lo = self.checked_mul_u64(m as u64)?;
        let hi_m = (m >> 64) as u64;
        if hi_m == 0 {
            return Some(lo);
        }
        let hi = self.checked_mul_u64(hi_m)?.checked_shl_64()?;
        lo.checked_add(hi)
    }
}

/// `x³ ≤ target`, treating overflow of `x³` past 256 bits as "greater".
fn cube_le(x: u128, target: U256) -> bool {
    U256::from_u128(x)
        .checked_mul_u128(x)
        .and_then(|x2| x2.checked_mul_u128(x))
        .is_some_and(|x3| x3 <= target)
}

/// `x² ≤ target`, treating overflow as "greater".
fn square_le(x: u128, target: U256) -> bool {
    U256::from_u128(x)
        .checked_mul_u128(x)
        .is_some_and(|x2| x2 <= target)
}

/// Largest `x` in `[lo, hi)` with `pred(x)` true, assuming `pred` is
/// monotone (true then false).
fn binary_search_max(mut lo: u128, mut hi: u128, pred: impl Fn(u128) -> bool) -> u128 {
    debug_assert!(pred(lo));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The first `n` primes.
fn primes(n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while out.len() < n {
        if !out.iter().any(|&p| candidate.is_multiple_of(p)) {
            out.push(candidate);
        }
        candidate += 1;
    }
    out
}

/// `floor(frac(p^(1/3)) · 2⁶⁴)`: the SHA-512 round-constant recipe.
fn cube_root_frac_bits(p: u64) -> u64 {
    // x = floor(p^(1/3) · 2^64); the low 64 bits are the fractional part
    // because floor(p^(1/3)) < 8 for p <= 409.
    let target = U256::small_shl_192(p);
    let x = binary_search_max(1, 1u128 << 68, |x| cube_le(x, target));
    x as u64
}

/// `floor(frac(sqrt(p)) · 2⁶⁴)`: the SHA-512 initial-state recipe.
fn sqrt_frac_bits(p: u64) -> u64 {
    let target = U256::small_shl_128(p);
    let x = binary_search_max(1, 1u128 << 68, |x| square_le(x, target));
    x as u64
}

/// The 80 round constants and 8 initial hash words, derived once.
pub(crate) fn constants() -> &'static ([u64; 80], [u64; 8]) {
    static CONSTANTS: OnceLock<([u64; 80], [u64; 8])> = OnceLock::new();
    CONSTANTS.get_or_init(|| {
        let ps = primes(80);
        let mut k = [0u64; 80];
        for (k_i, &p) in k.iter_mut().zip(&ps) {
            *k_i = cube_root_frac_bits(p);
        }
        let mut h = [0u64; 8];
        for (h_i, &p) in h.iter_mut().zip(&ps) {
            *h_i = sqrt_frac_bits(p);
        }
        (k, h)
    })
}

/// The SHA-512 initial hash state H⁽⁰⁾.
pub(crate) fn initial_state() -> [u64; 8] {
    constants().1
}

/// Compresses one 128-byte block into `state` (the FIPS 180-4 SHA-512
/// compression function).
pub(crate) fn compress_block(state: &mut [u64; 8], block: &[u8; 128]) {
    let (k, _) = constants();
    let mut w = [0u64; 80];
    for (i, w_i) in w.iter_mut().take(16).enumerate() {
        *w_i = u64::from_be_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    }
    for i in 16..80 {
        let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
        let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..80 {
        let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Number of interleaved lanes in [`compress4`].
pub(crate) const LANES: usize = 4;

/// Compresses one independent 128-byte block into each of four states.
///
/// The four compressions are laid out structure-of-arrays (each round
/// variable is a `[u64; 4]` with one element per lane) so every round
/// operation is four independent 64-bit adds/rotates/xors — exactly the
/// shape the auto-vectorizer turns into 256-bit AVX2 lanes, and failing
/// that, four independent dependency chains the out-of-order core can
/// software-pipeline.  Bit-identical to four [`compress_block`] calls.
// Lane loops index several `w` rows at fixed round offsets; iterator
// forms would obscure the SoA shape the auto-vectorizer relies on.
#[allow(clippy::needless_range_loop)]
pub(crate) fn compress4(states: &mut [[u64; 8]; LANES], blocks: [&[u8; 128]; LANES]) {
    let (k, _) = constants();
    // Message schedule, lane-minor: w[i][l] is round i's word for lane l.
    let mut w = [[0u64; LANES]; 80];
    for (i, w_i) in w.iter_mut().take(16).enumerate() {
        for (l, block) in blocks.iter().enumerate() {
            w_i[l] = u64::from_be_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
    }
    for i in 16..80 {
        for l in 0..LANES {
            let w15 = w[i - 15][l];
            let w2 = w[i - 2][l];
            let s0 = w15.rotate_right(1) ^ w15.rotate_right(8) ^ (w15 >> 7);
            let s1 = w2.rotate_right(19) ^ w2.rotate_right(61) ^ (w2 >> 6);
            w[i][l] = w[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7][l])
                .wrapping_add(s1);
        }
    }
    let mut v = [[0u64; LANES]; 8];
    for (r, row) in v.iter_mut().enumerate() {
        for (l, state) in states.iter().enumerate() {
            row[l] = state[r];
        }
    }
    for i in 0..80 {
        for l in 0..LANES {
            let [a, b, c, d, e, f, g, h] = [
                v[0][l], v[1][l], v[2][l], v[3][l], v[4][l], v[5][l], v[6][l], v[7][l],
            ];
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i][l]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            v[0][l] = temp1.wrapping_add(temp2);
            v[1][l] = a;
            v[2][l] = b;
            v[3][l] = c;
            v[4][l] = d.wrapping_add(temp1);
            v[5][l] = e;
            v[6][l] = f;
            v[7][l] = g;
        }
    }
    for (l, state) in states.iter_mut().enumerate() {
        for (r, row) in v.iter().enumerate() {
            state[r] = state[r].wrapping_add(row[l]);
        }
    }
}

/// A 64-byte SHA-512 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 64]);

impl Digest {
    /// The first 8 bytes of the digest as a big-endian integer — the
    /// truncated form stored per block in the MAC metadata space.
    pub fn truncate_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..16])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An incremental SHA-512 hasher.
///
/// # Example
///
/// ```
/// use secpb_crypto::sha512::Sha512;
///
/// let mut h = Sha512::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert!(digest.to_hex().starts_with("ddaf35a1"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length_bytes: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        let (_, h) = constants();
        Sha512 {
            state: *h,
            buffer: [0u8; 128],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Resumes hashing from a captured compression state that has already
    /// absorbed `prefix_blocks` whole 128-byte blocks (HMAC's cached
    /// post-key-pad midstates).  Bit-identical to hashing the prefix again.
    pub(crate) fn from_midstate(state: [u64; 8], prefix_blocks: u64) -> Self {
        Sha512 {
            state,
            buffer: [0u8; 128],
            buffered: 0,
            length_bytes: u128::from(prefix_blocks) * 128,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes += data.len() as u128;
        if self.buffered > 0 {
            let take = (128 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 128 {
            let block: [u8; 128] = data[..128].try_into().expect("128 bytes");
            self.compress(&block);
            data = &data[128..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes * 8;
        // Padding: 0x80, zeros, 128-bit big-endian length — written
        // directly into whole blocks rather than byte-at-a-time.
        let buffered = self.buffered;
        self.buffer[buffered] = 0x80;
        if buffered < 112 {
            self.buffer[buffered + 1..112].fill(0);
            self.buffer[112..].copy_from_slice(&bit_len.to_be_bytes());
            let block = self.buffer;
            compress_block(&mut self.state, &block);
        } else {
            self.buffer[buffered + 1..].fill(0);
            let block = self.buffer;
            compress_block(&mut self.state, &block);
            let mut last = [0u8; 128];
            last[112..].copy_from_slice(&bit_len.to_be_bytes());
            compress_block(&mut self.state, &last);
        }
        digest_from_state(&self.state)
    }

    fn compress(&mut self, block: &[u8; 128]) {
        compress_block(&mut self.state, block);
    }
}

/// Serializes a final compression state into a digest.
pub(crate) fn digest_from_state(state: &[u64; 8]) -> Digest {
    let mut out = [0u8; 64];
    for (i, word) in state.iter().enumerate() {
        out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Digests a batch of independent 64-byte messages in one backend
/// dispatch.
///
/// A 64-byte message pads to exactly one 128-byte block (message, `0x80`,
/// zeros, 128-bit length), so the whole batch is a single
/// [`HashBackend::compress_batch`] call — sibling messages ride the
/// multi-lane kernel instead of going one-at-a-time through the streaming
/// hasher.  Bit-identical to [`Sha512::digest`] per message.
///
/// [`HashBackend::compress_batch`]: crate::backend::HashBackend::compress_batch
pub fn digest64_batch(
    backend: &dyn crate::backend::HashBackend,
    msgs: &[&[u8; 64]],
    out: &mut Vec<Digest>,
) {
    let mut blocks: Vec<[u8; 128]> = Vec::with_capacity(msgs.len());
    for msg in msgs {
        let mut block = [0u8; 128];
        block[..64].copy_from_slice(*msg);
        pad_final_block(&mut block, 64, 0);
        blocks.push(block);
    }
    let mut states = vec![initial_state(); msgs.len()];
    let refs: Vec<&[u8; 128]> = blocks.iter().collect();
    backend.compress_batch(&mut states, &refs);
    out.extend(states.iter().map(digest_from_state));
}

/// Serializes a padded SHA-512 tail for a message of `msg.len()` bytes
/// appended to `prefix_blocks` already-absorbed blocks: the message bytes,
/// the 0x80 marker, zeros, and the 128-bit big-endian total bit length,
/// rounded up to whole 128-byte blocks.  Returns the number of bytes
/// written (a multiple of 128).
///
/// # Panics
///
/// Panics (via the slice write) if `out` is shorter than
/// [`padded_tail_len`]`(msg.len())`.
pub(crate) fn write_padded_tail(msg: &[u8], prefix_blocks: u64, out: &mut [u8]) -> usize {
    let total = padded_tail_len(msg.len());
    let bit_len = (u128::from(prefix_blocks) * 128 + msg.len() as u128) * 8;
    out[..msg.len()].copy_from_slice(msg);
    out[msg.len()] = 0x80;
    out[msg.len() + 1..total - 16].fill(0);
    out[total - 16..total].copy_from_slice(&bit_len.to_be_bytes());
    total
}

/// Pads a message of `msg_len` bytes that already fills the front of
/// `block` into its final SHA-512 block, after `prefix_blocks`
/// already-absorbed blocks: the 0x80 marker, zeros, and the 128-bit
/// big-endian total bit length.
///
/// # Panics
///
/// Panics (via the slice write) if `msg_len` exceeds 111, the most one
/// block can hold beside its padding.
pub(crate) fn pad_final_block(block: &mut [u8; 128], msg_len: usize, prefix_blocks: u64) {
    let bit_len = (u128::from(prefix_blocks) * 128 + msg_len as u128) * 8;
    block[msg_len] = 0x80;
    block[msg_len + 1..112].fill(0);
    block[112..].copy_from_slice(&bit_len.to_be_bytes());
}

/// Bytes [`write_padded_tail`] produces for a message of `msg_len` bytes:
/// the smallest multiple of 128 holding `msg_len + 1 + 16` bytes.
pub(crate) fn padded_tail_len(msg_len: usize) -> usize {
    (msg_len + 1 + 16).div_ceil(128) * 128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_match_fips() {
        let (k, h) = constants();
        // Spot-check against the published FIPS 180-4 values.
        assert_eq!(k[0], 0x428a_2f98_d728_ae22);
        assert_eq!(k[1], 0x7137_4491_23ef_65cd);
        assert_eq!(k[79], 0x6c44_198c_4a47_5817);
        assert_eq!(h[0], 0x6a09_e667_f3bc_c908);
        assert_eq!(h[7], 0x5be0_cd19_137e_2179);
    }

    #[test]
    fn first_80_primes_end_at_409() {
        let p = primes(80);
        assert_eq!(p[0], 2);
        assert_eq!(p[7], 19);
        assert_eq!(p[79], 409);
    }

    #[test]
    fn abc_vector() {
        let d = Sha512::digest(b"abc");
        assert_eq!(
            d.to_hex(),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn empty_vector() {
        let d = Sha512::digest(b"");
        assert_eq!(
            d.to_hex(),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let one_shot = Sha512::digest(&data);
        for split in [0, 1, 63, 64, 127, 128, 129, 500, 999, 1000] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), one_shot, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the 112-byte padding threshold and 128-byte block.
        for len in [111, 112, 113, 127, 128, 129, 255, 256] {
            let data = vec![0xABu8; len];
            let a = Sha512::digest(&data);
            let mut h = Sha512::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), a, "len {len}");
        }
    }

    #[test]
    fn avalanche() {
        let a = Sha512::digest(b"the quick brown fox");
        let b = Sha512::digest(b"the quick brown foy");
        let differing_bits: u32 =
            a.0.iter()
                .zip(b.0.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
        // Expect ~256 of 512 bits to flip; anything above 150 shows strong
        // diffusion.
        assert!(differing_bits > 150, "only {differing_bits} bits differ");
    }

    #[test]
    fn truncate_u64_takes_leading_bytes() {
        let d = Sha512::digest(b"abc");
        assert_eq!(d.truncate_u64(), 0xddaf35a193617aba);
    }

    #[test]
    fn compress4_matches_four_scalar_compressions() {
        let mut blocks = [[0u8; 128]; LANES];
        for (l, block) in blocks.iter_mut().enumerate() {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (i * 7 + l * 131 + 3) as u8;
            }
        }
        let mut scalar = [initial_state(); LANES];
        for (state, block) in scalar.iter_mut().zip(&blocks) {
            compress_block(state, block);
        }
        let mut vector = [initial_state(); LANES];
        compress4(
            &mut vector,
            [&blocks[0], &blocks[1], &blocks[2], &blocks[3]],
        );
        assert_eq!(scalar, vector);
    }

    #[test]
    fn midstate_resumes_exactly() {
        let prefix = [0x5Au8; 128];
        let tail = b"tail bytes";
        let mut whole = Sha512::new();
        whole.update(&prefix);
        whole.update(tail);

        let mut state = initial_state();
        compress_block(&mut state, &prefix);
        let mut resumed = Sha512::from_midstate(state, 1);
        resumed.update(tail);
        assert_eq!(whole.finalize(), resumed.finalize());
    }

    #[test]
    fn padded_tail_matches_streaming_digest() {
        // Hashing (prefix block ‖ msg) via explicit padded-tail blocks must
        // equal the streaming hasher, across the 111/112-byte threshold.
        let prefix = [0x36u8; 128];
        for msg_len in [0usize, 1, 64, 81, 88, 111, 112, 127, 128, 512, 513] {
            let msg: Vec<u8> = (0..msg_len).map(|i| (i * 13 % 251) as u8).collect();
            let mut tail = vec![0u8; padded_tail_len(msg_len)];
            let written = write_padded_tail(&msg, 1, &mut tail);
            assert_eq!(written, tail.len());
            let mut state = initial_state();
            compress_block(&mut state, &prefix);
            for block in tail.chunks_exact(128) {
                compress_block(&mut state, block.try_into().expect("128 bytes"));
            }
            let mut streaming = Sha512::new();
            streaming.update(&prefix);
            streaming.update(&msg);
            let expect = streaming.finalize();
            let mut out = [0u8; 64];
            for (i, word) in state.iter().enumerate() {
                out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
            }
            assert_eq!(Digest(out), expect, "msg_len {msg_len}");
        }
    }

    #[test]
    fn final_block_padding_matches_the_padded_tail() {
        for msg_len in [0usize, 64, 81, 111] {
            let msg: Vec<u8> = (0..msg_len).map(|i| (i * 29 % 251) as u8).collect();
            let mut tail = [0u8; 128];
            write_padded_tail(&msg, 1, &mut tail);
            let mut block = [0xEEu8; 128];
            block[..msg_len].copy_from_slice(&msg);
            pad_final_block(&mut block, msg_len, 1);
            assert_eq!(block, tail, "msg_len {msg_len}");
        }
    }

    #[test]
    fn digest64_batch_matches_one_shot() {
        use crate::backend::CryptoBackend;
        let msgs: Vec<[u8; 64]> = (0..7u8)
            .map(|i| {
                let mut m = [0u8; 64];
                for (j, b) in m.iter_mut().enumerate() {
                    *b = i.wrapping_mul(37).wrapping_add(j as u8);
                }
                m
            })
            .collect();
        let refs: Vec<&[u8; 64]> = msgs.iter().collect();
        for backend in CryptoBackend::ALL {
            let mut out = Vec::new();
            digest64_batch(&backend, &refs, &mut out);
            assert_eq!(out.len(), msgs.len());
            for (msg, digest) in msgs.iter().zip(&out) {
                assert_eq!(*digest, Sha512::digest(msg), "{backend}");
            }
        }
    }

    #[test]
    fn digest_traits() {
        let d = Sha512::digest(b"x");
        assert_eq!(d.as_ref().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
        assert_eq!(format!("{d}").len(), 128);
    }
}
