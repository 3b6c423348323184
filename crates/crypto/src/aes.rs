//! AES-128/192/256 block cipher (FIPS 197).
//!
//! The S-box is derived at construction time from its mathematical
//! definition — the multiplicative inverse in GF(2⁸) modulo the Rijndael
//! polynomial x⁸+x⁴+x³+x+1, followed by the affine transform — rather than
//! from a transcribed 256-entry table, eliminating a whole class of
//! copy-paste errors.  Known-answer tests against the FIPS 197 Appendix C
//! vectors pin the implementation down.
//!
//! This is a *model* cipher for the simulator: correctness and clarity over
//! side-channel resistance (table lookups are not constant-time, which is
//! irrelevant inside a simulation).

use std::fmt;
use std::sync::OnceLock;

/// Multiplication in GF(2⁸) modulo the Rijndael polynomial.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); 0 maps to 0.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(2^8 - 2) = a^254 by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// Per-multiplier GF(2⁸) product tables for the MixColumns coefficients
/// (2, 3 forward; 9, 11, 13, 14 inverse), derived once from [`gf_mul`]
/// so the per-byte column mix is a table lookup instead of an 8-iteration
/// shift-and-reduce loop.
fn mul_tables() -> &'static [[u8; 256]; 6] {
    static TABLES: OnceLock<[[u8; 256]; 6]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u8; 256]; 6];
        for (table, m) in tables.iter_mut().zip([2u8, 3, 9, 11, 13, 14]) {
            for (i, slot) in table.iter_mut().enumerate() {
                *slot = gf_mul(i as u8, m);
            }
        }
        tables
    })
}

/// The forward and inverse S-boxes, built once.
fn sboxes() -> &'static ([u8; 256], [u8; 256]) {
    static SBOXES: OnceLock<([u8; 256], [u8; 256])> = OnceLock::new();
    SBOXES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv = [0u8; 256];
        for (i, slot) in sbox.iter_mut().enumerate() {
            let x = gf_inv(i as u8);
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
            let s = x
                ^ x.rotate_left(1)
                ^ x.rotate_left(2)
                ^ x.rotate_left(3)
                ^ x.rotate_left(4)
                ^ 0x63;
            *slot = s;
            inv[s as usize] = i as u8;
        }
        (sbox, inv)
    })
}

/// AES key length variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds. The paper's energy model assumes AES-192
    /// for data encryption (Table III).
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of cipher rounds for this key size.
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }
}

/// An AES cipher instance with an expanded key schedule.
///
/// # Example
///
/// ```
/// use secpb_crypto::aes::Aes;
///
/// // FIPS 197 Appendix C.1.
/// let key: Vec<u8> = (0..16).collect();
/// let pt: Vec<u8> = (0..16).map(|i| i * 0x11).collect();
/// let aes = Aes::new_128(key[..].try_into().unwrap());
/// let ct = aes.encrypt_block(pt[..].try_into().unwrap());
/// assert_eq!(ct[0], 0x69);
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    size: KeySize,
}

impl fmt::Debug for Aes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.debug_struct("Aes")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, KeySize::Aes128)
    }

    /// Creates an AES-192 instance (the paper's Table III energy model
    /// assumes AES-192 for data encryption).
    pub fn new_192(key: &[u8; 24]) -> Self {
        Self::expand(key, KeySize::Aes192)
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, KeySize::Aes256)
    }

    /// The key size of this instance.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// The expanded round keys (`rounds + 1` of them) — consumed by the
    /// hardware cipher backend, which replays the same schedule through
    /// AES-NI.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    fn expand(key: &[u8], size: KeySize) -> Self {
        let (sbox, _) = sboxes();
        let nk = size.key_words();
        let nr = size.rounds();
        let total_words = 4 * (nr + 1);
        let mut w = vec![[0u8; 4]; total_words];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = sbox[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (i, word) in c.iter().enumerate() {
                    rk[4 * i..4 * i + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        Aes { round_keys, size }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let (sbox, _) = sboxes();
        let nr = self.size.rounds();
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..nr {
            sub_bytes(&mut state, sbox);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state, sbox);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[nr]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let (_, inv_sbox) = sboxes();
        let nr = self.size.rounds();
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[nr]);
        for round in (1..nr).rev() {
            inv_shift_rows(&mut state);
            sub_bytes(&mut state, inv_sbox);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        sub_bytes(&mut state, inv_sbox);
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

// State is column-major as in FIPS 197: state[4*c + r] is row r, column c.

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    let [m2, m3, ..] = mul_tables();
    for c in 0..4 {
        let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("4 bytes");
        state[4 * c] = m2[col[0] as usize] ^ m3[col[1] as usize] ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ m2[col[1] as usize] ^ m3[col[2] as usize] ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ m2[col[2] as usize] ^ m3[col[3] as usize];
        state[4 * c + 3] = m3[col[0] as usize] ^ col[1] ^ col[2] ^ m2[col[3] as usize];
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    let [_, _, m9, m11, m13, m14] = mul_tables();
    for c in 0..4 {
        let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("4 bytes");
        state[4 * c] = m14[col[0] as usize]
            ^ m11[col[1] as usize]
            ^ m13[col[2] as usize]
            ^ m9[col[3] as usize];
        state[4 * c + 1] = m9[col[0] as usize]
            ^ m14[col[1] as usize]
            ^ m11[col[2] as usize]
            ^ m13[col[3] as usize];
        state[4 * c + 2] = m13[col[0] as usize]
            ^ m9[col[1] as usize]
            ^ m14[col[2] as usize]
            ^ m11[col[3] as usize];
        state[4 * c + 3] = m11[col[0] as usize]
            ^ m13[col[1] as usize]
            ^ m9[col[2] as usize]
            ^ m14[col[3] as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_well_known_entries() {
        let (sbox, inv) = sboxes();
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        assert_eq!(inv[0x63], 0x00);
        // S-box must be a permutation.
        let mut seen = [false; 256];
        for &v in sbox.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn gf_mul_known_products() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    // FIPS 197 Appendix C known-answer tests: plaintext
    // 00112233445566778899aabbccddeeff under the sequential byte keys.
    #[test]
    fn fips197_appendix_c1_aes128() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key: [u8; 24] = hex("000102030405060708090a0b0c0d0e0f1011121314151617")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_192(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_256(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(ct.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn encrypt_decrypt_round_trip_many() {
        let aes = Aes::new_256(&[0xA5; 32]);
        let mut block = [0u8; 16];
        for i in 0..64u8 {
            block[(i % 16) as usize] ^= i.wrapping_mul(37);
            let ct = aes.encrypt_block(&block);
            assert_ne!(ct, block, "ciphertext must differ from plaintext");
            assert_eq!(aes.decrypt_block(&ct), block);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let pt = [0x42u8; 16];
        let a = Aes::new_128(&[1; 16]).encrypt_block(&pt);
        let b = Aes::new_128(&[2; 16]).encrypt_block(&pt);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_hides_key_material() {
        let aes = Aes::new_128(&[0x77; 16]);
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("Aes"));
        assert!(
            !dbg.contains("77, 77"),
            "round keys must not leak into Debug output"
        );
    }

    #[test]
    fn key_size_accessors() {
        assert_eq!(KeySize::Aes128.rounds(), 10);
        assert_eq!(KeySize::Aes192.rounds(), 12);
        assert_eq!(KeySize::Aes256.rounds(), 14);
        assert_eq!(Aes::new_192(&[0; 24]).key_size(), KeySize::Aes192);
    }
}
