//! Split counters for counter-mode memory encryption (Yan et al.,
//! ISCA'06), the scheme the paper assumes (Section II-B).
//!
//! One 64-byte *counter block* covers one 4 KB *encryption page*: a shared
//! 64-bit major counter plus sixty-four 7-bit minor counters, one per
//! 64-byte data block.  A block's encryption counter is the (major, minor)
//! pair.  When a minor counter overflows, the major counter is incremented,
//! all minors reset, and the whole page must be re-encrypted — the paper's
//! Section IV-A notes that SecPB's once-per-dirty-block increments delay
//! this overflow.

/// Number of 64-byte data blocks covered by one counter block (one 4 KB
/// encryption page).
pub const BLOCKS_PER_PAGE: usize = 64;

/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 0x7F;

/// The logical encryption counter of one data block: the page's major
/// counter paired with the block's minor counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SplitCounter {
    /// Page-shared major counter.
    pub major: u64,
    /// Per-block 7-bit minor counter.
    pub minor: u8,
}

impl SplitCounter {
    /// Packs the counter into the 16-byte nonce block fed to AES when
    /// generating an OTP (combined with the block address by the caller).
    pub fn nonce_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        out[8] = self.minor;
        out
    }
}

/// Outcome of incrementing a minor counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncrementOutcome {
    /// The minor counter advanced normally.
    Advanced,
    /// The minor counter wrapped: the major counter was incremented, all
    /// minors reset, and the caller must re-encrypt the entire page
    /// (every block's effective counter changed).
    PageOverflow,
}

/// A 64-byte counter block covering one encryption page.
///
/// # Example
///
/// ```
/// use secpb_crypto::counter::{CounterBlock, IncrementOutcome};
///
/// let mut cb = CounterBlock::default();
/// assert_eq!(cb.increment(3), IncrementOutcome::Advanced);
/// assert_eq!(cb.counter_of(3).minor, 1);
/// assert_eq!(cb.counter_of(4).minor, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; BLOCKS_PER_PAGE],
}

impl Default for CounterBlock {
    fn default() -> Self {
        CounterBlock {
            major: 0,
            minors: [0; BLOCKS_PER_PAGE],
        }
    }
}

impl CounterBlock {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page-shared major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The logical counter of block `idx` within the page.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= BLOCKS_PER_PAGE`.
    pub fn counter_of(&self, idx: usize) -> SplitCounter {
        SplitCounter {
            major: self.major,
            minor: self.minors[idx],
        }
    }

    /// Increments block `idx`'s minor counter, handling overflow.
    ///
    /// On overflow, the major counter is incremented and every minor is
    /// reset to zero; the caller must re-encrypt the page.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= BLOCKS_PER_PAGE`.
    pub fn increment(&mut self, idx: usize) -> IncrementOutcome {
        if self.minors[idx] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; BLOCKS_PER_PAGE];
            IncrementOutcome::PageOverflow
        } else {
            self.minors[idx] += 1;
            IncrementOutcome::Advanced
        }
    }

    /// Writes a block's counter into this (persisted-view) counter block.
    ///
    /// Used by the drain path: the persisted counter block is updated with
    /// exactly the counter value the drained entry was encrypted under.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or if the majors disagree — a
    /// major mismatch means a page overflow was not propagated through the
    /// re-encryption path first.
    pub fn set_counter(&mut self, idx: usize, counter: SplitCounter) {
        assert_eq!(
            counter.major, self.major,
            "major counter mismatch: page re-encryption must run before persisting"
        );
        self.minors[idx] = counter.minor;
    }

    /// Serializes to the 64-byte storage format: 8-byte little-endian
    /// major followed by sixty-four 7-bit minors packed into 56 bytes.
    ///
    /// The minors pack as a little-endian bit stream, so each group of
    /// eight (56 bits) fills exactly seven bytes: group `g` is bytes
    /// `8 + 7g ..= 14 + 7g`, one 64-bit word per group.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (group, minors) in self.minors.chunks_exact(8).enumerate() {
            let word = minors
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &m)| w | u64::from(m & MINOR_MAX) << (7 * i));
            out[8 + 7 * group..15 + 7 * group].copy_from_slice(&word.to_le_bytes()[..7]);
        }
        out
    }

    /// Deserializes from the 64-byte storage format.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let major = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let mut minors = [0u8; BLOCKS_PER_PAGE];
        for (group, minors) in minors.chunks_exact_mut(8).enumerate() {
            let mut word = [0u8; 8];
            word[..7].copy_from_slice(&bytes[8 + 7 * group..15 + 7 * group]);
            let word = u64::from_le_bytes(word);
            for (i, m) in minors.iter_mut().enumerate() {
                *m = (word >> (7 * i)) as u8 & MINOR_MAX;
            }
        }
        CounterBlock { major, minors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let cb = CounterBlock::new();
        assert_eq!(cb.major(), 0);
        for i in 0..BLOCKS_PER_PAGE {
            assert_eq!(cb.counter_of(i), SplitCounter { major: 0, minor: 0 });
        }
    }

    #[test]
    fn increment_advances_only_target_block() {
        let mut cb = CounterBlock::new();
        assert_eq!(cb.increment(5), IncrementOutcome::Advanced);
        assert_eq!(cb.increment(5), IncrementOutcome::Advanced);
        assert_eq!(cb.counter_of(5).minor, 2);
        assert_eq!(cb.counter_of(6).minor, 0);
    }

    #[test]
    fn overflow_bumps_major_and_resets_page() {
        let mut cb = CounterBlock::new();
        for _ in 0..127 {
            assert_eq!(cb.increment(0), IncrementOutcome::Advanced);
        }
        cb.increment(1); // some other block has history too
        assert_eq!(cb.counter_of(0).minor, MINOR_MAX);
        assert_eq!(cb.increment(0), IncrementOutcome::PageOverflow);
        assert_eq!(cb.major(), 1);
        assert_eq!(cb.counter_of(0).minor, 0);
        assert_eq!(cb.counter_of(1).minor, 0, "all minors reset on overflow");
    }

    #[test]
    fn counters_never_repeat_across_overflow() {
        // The (major, minor) pair must be unique over any increment
        // sequence on one block.
        let mut cb = CounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(cb.counter_of(2)));
        for _ in 0..300 {
            cb.increment(2);
            assert!(
                seen.insert(cb.counter_of(2)),
                "counter repeated: {:?}",
                cb.counter_of(2)
            );
        }
    }

    /// The storage format packed one bit-stream minor at a time: the
    /// reference the word-per-group codec must match byte for byte.
    fn to_bytes_bitwise(cb: &CounterBlock) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&cb.major.to_le_bytes());
        let mut bit_pos = 0usize;
        for &m in &cb.minors {
            let byte = bit_pos / 8;
            let off = bit_pos % 8;
            let v = u16::from(m & MINOR_MAX) << off;
            out[8 + byte] |= (v & 0xFF) as u8;
            if off > 1 {
                out[8 + byte + 1] |= (v >> 8) as u8;
            }
            bit_pos += 7;
        }
        out
    }

    /// The bit-stream unpacking reference.
    fn from_bytes_bitwise(bytes: &[u8; 64]) -> CounterBlock {
        let major = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let mut minors = [0u8; BLOCKS_PER_PAGE];
        let mut bit_pos = 0usize;
        for m in &mut minors {
            let byte = bit_pos / 8;
            let off = bit_pos % 8;
            let mut v = u16::from(bytes[8 + byte]) >> off;
            if off > 1 {
                v |= u16::from(bytes[8 + byte + 1]) << (8 - off);
            }
            *m = (v as u8) & MINOR_MAX;
            bit_pos += 7;
        }
        CounterBlock { major, minors }
    }

    #[test]
    fn word_codec_matches_the_bitwise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let mut cb = CounterBlock::new();
            cb.major = next();
            for m in &mut cb.minors {
                *m = match case % 3 {
                    0 => (next() % 128) as u8,
                    1 => MINOR_MAX,
                    _ => (next() % 2) as u8 * MINOR_MAX,
                };
            }
            let bytes = cb.to_bytes();
            assert_eq!(bytes, to_bytes_bitwise(&cb), "case {case}");
            assert_eq!(CounterBlock::from_bytes(&bytes), cb, "case {case}");
            // Arbitrary bytes (e.g. a tampered image) decode alike.
            let mut raw = [0u8; 64];
            for chunk in raw.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            assert_eq!(
                CounterBlock::from_bytes(&raw),
                from_bytes_bitwise(&raw),
                "case {case}"
            );
        }
    }

    #[test]
    fn pack_round_trip() {
        let mut cb = CounterBlock::new();
        for i in 0..BLOCKS_PER_PAGE {
            for _ in 0..(i % 13) {
                cb.increment(i);
            }
        }
        cb.major = 0xDEAD_BEEF_0123_4567;
        let bytes = cb.to_bytes();
        let back = CounterBlock::from_bytes(&bytes);
        assert_eq!(back, cb);
    }

    #[test]
    fn pack_round_trip_extremes() {
        let mut cb = CounterBlock::new();
        for i in 0..BLOCKS_PER_PAGE {
            cb.minors[i] = if i % 2 == 0 { MINOR_MAX } else { 0 };
        }
        let back = CounterBlock::from_bytes(&cb.to_bytes());
        assert_eq!(back, cb);
    }

    #[test]
    fn storage_is_exactly_64_bytes() {
        // 8 bytes major + 56 bytes of packed minors fills the block with
        // no spare bits beyond the last byte.
        let cb = CounterBlock::new();
        assert_eq!(cb.to_bytes().len(), 64);
        // 64 * 7 = 448 bits = exactly 56 bytes.
        assert_eq!(BLOCKS_PER_PAGE * 7, 56 * 8);
    }

    #[test]
    fn nonce_embeds_major_and_minor() {
        let c = SplitCounter {
            major: 0x0102_0304_0506_0708,
            minor: 0x5A,
        };
        let n = c.nonce_bytes();
        assert_eq!(u64::from_le_bytes(n[..8].try_into().unwrap()), c.major);
        assert_eq!(n[8], 0x5A);
        assert_eq!(&n[9..], &[0u8; 7]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        CounterBlock::new().counter_of(BLOCKS_PER_PAGE);
    }
}
