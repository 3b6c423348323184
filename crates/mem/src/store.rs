//! The functional persistent state: what is actually durable in NVM.
//!
//! While [`crate::nvm::NvmTiming`] models *when* accesses complete, this
//! store models *what* survives a crash: the ciphertext of every data
//! block, the packed split-counter blocks, the truncated per-block MACs,
//! and the BMT root (kept in the paper's on-chip *non-volatile* register —
//! logically part of the persistent state even though it never leaves the
//! TCB).
//!
//! The store also exposes tamper-injection hooks used by the recovery
//! tests to demonstrate that post-crash integrity verification catches
//! data tampering, counter rollback, and MAC splicing.

use secpb_crypto::counter::CounterBlock;
use secpb_crypto::sha512::Digest;
use secpb_sim::addr::BlockAddr;
use secpb_sim::changelog::ChangeLog;
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// The number of data blocks per encryption page (counter-block
/// granularity).
pub const BLOCKS_PER_PAGE: u64 = secpb_crypto::counter::BLOCKS_PER_PAGE as u64;

/// The durable contents of the NVM plus the on-chip NV root register.
///
/// # Example
///
/// ```
/// use secpb_mem::store::NvmStore;
/// use secpb_sim::addr::BlockAddr;
///
/// let mut nvm = NvmStore::new();
/// nvm.write_data(BlockAddr(4), [0xAB; 64]);
/// assert_eq!(nvm.read_data(BlockAddr(4))[0], 0xAB);
/// assert_eq!(nvm.read_data(BlockAddr(5)), [0; 64]); // untouched: zeros
/// ```
#[derive(Debug, Default, Clone)]
pub struct NvmStore {
    data: FxHashMap<BlockAddr, [u8; 64]>,
    counters: FxHashMap<u64, CounterBlock>,
    macs: FxHashMap<BlockAddr, u64>,
    bmt_root: Option<Digest>,
    /// The keys of each map written since the last sync with a twin
    /// (see [`snapshot_into`](Self::snapshot_into)).
    data_log: ChangeLog<BlockAddr>,
    counter_log: ChangeLog<u64>,
    mac_log: ChangeLog<BlockAddr>,
}

impl NvmStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encryption-page index of a data block.
    pub fn page_of(block: BlockAddr) -> u64 {
        block.index() / BLOCKS_PER_PAGE
    }

    /// The index of a data block within its encryption page.
    pub fn page_slot_of(block: BlockAddr) -> usize {
        (block.index() % BLOCKS_PER_PAGE) as usize
    }

    /// Reads a data (ciphertext) block; untouched blocks read as zeros.
    pub fn read_data(&self, block: BlockAddr) -> [u8; 64] {
        self.data.get(&block).copied().unwrap_or([0u8; 64])
    }

    /// Writes a data (ciphertext) block.
    pub fn write_data(&mut self, block: BlockAddr, bytes: [u8; 64]) {
        self.data.insert(block, bytes);
        self.data_log.note(block, self.data.len());
    }

    /// Reads the counter block of a page (fresh zeroed block if never
    /// written).
    pub fn read_counters(&self, page: u64) -> CounterBlock {
        self.counters.get(&page).cloned().unwrap_or_default()
    }

    /// Writes a page's counter block.
    pub fn write_counters(&mut self, page: u64, counters: CounterBlock) {
        self.counters.insert(page, counters);
        self.counter_log.note(page, self.counters.len());
    }

    /// Reads a block's truncated MAC (0 if never written).
    pub fn read_mac(&self, block: BlockAddr) -> u64 {
        self.macs.get(&block).copied().unwrap_or(0)
    }

    /// Writes a block's truncated MAC.
    pub fn write_mac(&mut self, block: BlockAddr, mac: u64) {
        self.macs.insert(block, mac);
        self.mac_log.note(block, self.macs.len());
    }

    /// The persisted BMT root, if one was ever stored.
    pub fn bmt_root(&self) -> Option<Digest> {
        self.bmt_root
    }

    /// Persists the BMT root register.
    pub fn set_bmt_root(&mut self, root: Digest) {
        self.bmt_root = Some(root);
    }

    /// All data blocks ever written (for recovery walks).
    pub fn data_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.data.keys().copied()
    }

    /// All pages with non-default counters.
    pub fn counter_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.counters.keys().copied()
    }

    /// Number of data blocks present.
    pub fn data_block_count(&self) -> usize {
        self.data.len()
    }

    /// Whether a data block was ever written.
    pub fn contains_data(&self, block: BlockAddr) -> bool {
        self.data.contains_key(&block)
    }

    /// Appends the full durable image — data blocks, counter blocks,
    /// MACs, root register — to a checkpoint, visiting every map in
    /// sorted key order so equal stores always produce equal bytes.
    pub fn encode_into(&self, w: &mut WireWriter) {
        let mut data: Vec<_> = self.data.iter().collect();
        data.sort_by_key(|(b, _)| b.index());
        w.usize(data.len());
        for (block, bytes) in data {
            w.u64(block.index());
            w.raw(bytes);
        }
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by_key(|&(page, _)| *page);
        w.usize(counters.len());
        for (page, cb) in counters {
            w.u64(*page);
            w.raw(&cb.to_bytes());
        }
        let mut macs: Vec<_> = self.macs.iter().collect();
        macs.sort_by_key(|(b, _)| b.index());
        w.usize(macs.len());
        for (block, mac) in macs {
            w.u64(block.index());
            w.u64(*mac);
        }
        match self.bmt_root {
            Some(root) => {
                w.bool(true);
                w.raw(&root.0);
            }
            None => w.bool(false),
        }
    }

    /// Rebuilds a store from [`encode_into`](Self::encode_into) bytes.
    ///
    /// # Errors
    ///
    /// Propagates truncation/malformation with the byte offset.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut store = NvmStore::new();
        let n = r.seq_len(8 + 64)?;
        for _ in 0..n {
            let block = BlockAddr(r.u64()?);
            store.data.insert(block, r.array::<64>()?);
        }
        let n = r.seq_len(8 + 64)?;
        for _ in 0..n {
            let page = r.u64()?;
            let bytes = r.array::<64>()?;
            store
                .counters
                .insert(page, CounterBlock::from_bytes(&bytes));
        }
        let n = r.seq_len(8 + 8)?;
        for _ in 0..n {
            let block = BlockAddr(r.u64()?);
            let mac = r.u64()?;
            store.macs.insert(block, mac);
        }
        if r.bool()? {
            store.bmt_root = Some(Digest(r.array::<64>()?));
        }
        Ok(store)
    }

    /// Makes `twin` equal to this image and starts a new sync interval.
    /// With `incremental`, only the entries written since the last sync
    /// are copied, which requires `twin` to have matched this image then
    /// and to be unchanged since; otherwise every map is cloned.
    pub fn snapshot_into(&mut self, twin: &mut NvmStore, incremental: bool) {
        self.data_log.sync(&mut twin.data, &self.data, incremental);
        self.counter_log
            .sync(&mut twin.counters, &self.counters, incremental);
        self.mac_log.sync(&mut twin.macs, &self.macs, incremental);
        twin.bmt_root = self.bmt_root;
    }

    /// Makes this image equal to `twin` again, under the contract of
    /// [`snapshot_into`](Self::snapshot_into): with `incremental`, only
    /// the entries this image wrote since the last sync are copied back.
    pub fn rewind_to(&mut self, twin: &NvmStore, incremental: bool) {
        self.data_log.sync(&mut self.data, &twin.data, incremental);
        self.counter_log
            .sync(&mut self.counters, &twin.counters, incremental);
        self.mac_log.sync(&mut self.macs, &twin.macs, incremental);
        self.bmt_root = twin.bmt_root;
    }

    // ---- Tamper injection (attack modelling for recovery tests) ----

    /// Flips one bit of a stored data block (tampering attack).  Returns
    /// `false` if the block was never written.
    pub fn tamper_data(&mut self, block: BlockAddr, byte: usize, bit: u8) -> bool {
        if let Some(d) = self.data.get_mut(&block) {
            d[byte % 64] ^= 1 << (bit % 8);
            self.data_log.note(block, self.data.len());
            true
        } else {
            false
        }
    }

    /// Flips one bit of a stored counter block's packed 64-byte image
    /// (NVM cell failure / tampering).  Self-inverse: flipping the same
    /// bit again restores the original block.  Returns `false` if the
    /// page has no stored counters.
    pub fn tamper_counters(&mut self, page: u64, byte: usize, bit: u8) -> bool {
        if let Some(cb) = self.counters.get_mut(&page) {
            let mut bytes = cb.to_bytes();
            bytes[byte % 64] ^= 1 << (bit % 8);
            *cb = CounterBlock::from_bytes(&bytes);
            self.counter_log.note(page, self.counters.len());
            true
        } else {
            false
        }
    }

    /// Flips one bit of a stored truncated MAC.  Returns `false` if the
    /// block has no stored MAC.
    pub fn tamper_mac(&mut self, block: BlockAddr, bit: u8) -> bool {
        if let Some(m) = self.macs.get_mut(&block) {
            *m ^= 1u64 << (bit % 64);
            self.mac_log.note(block, self.macs.len());
            true
        } else {
            false
        }
    }

    /// Flips one bit of the persisted BMT root register.  Returns
    /// `false` if no root was ever persisted.
    pub fn tamper_root(&mut self, byte: usize, bit: u8) -> bool {
        if let Some(root) = self.bmt_root.as_mut() {
            root.0[byte % 64] ^= 1 << (bit % 8);
            true
        } else {
            false
        }
    }

    /// Replaces a page's counter block with an older version (replay /
    /// rollback attack).
    pub fn rollback_counters(&mut self, page: u64, old: CounterBlock) {
        self.write_counters(page, old);
    }

    /// Replaces a data block and its MAC with older versions together
    /// (coordinated replay attack — only the BMT catches this).
    pub fn replay_tuple(&mut self, block: BlockAddr, old_data: [u8; 64], old_mac: u64) {
        self.write_data(block, old_data);
        self.write_mac(block, old_mac);
    }

    /// Moves a block's ciphertext+MAC to a different address (splicing
    /// attack).
    pub fn splice(&mut self, from: BlockAddr, to: BlockAddr) -> bool {
        match (self.data.get(&from).copied(), self.macs.get(&from).copied()) {
            (Some(d), Some(m)) => {
                self.write_data(to, d);
                self.write_mac(to, m);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_are_zero_defaults() {
        let s = NvmStore::new();
        assert_eq!(s.read_data(BlockAddr(1)), [0u8; 64]);
        assert_eq!(s.read_mac(BlockAddr(1)), 0);
        assert_eq!(s.read_counters(0), CounterBlock::default());
        assert_eq!(s.bmt_root(), None);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(2), [9u8; 64]);
        s.write_mac(BlockAddr(2), 0xFEED);
        let mut cb = CounterBlock::default();
        cb.increment(3);
        s.write_counters(0, cb.clone());
        assert_eq!(s.read_data(BlockAddr(2)), [9u8; 64]);
        assert_eq!(s.read_mac(BlockAddr(2)), 0xFEED);
        assert_eq!(s.read_counters(0), cb);
        assert_eq!(s.data_block_count(), 1);
    }

    #[test]
    fn wire_round_trip_reproduces_store() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(7), [3u8; 64]);
        s.write_data(BlockAddr(2), [9u8; 64]);
        s.write_mac(BlockAddr(7), 0xFEED);
        let mut cb = CounterBlock::default();
        cb.increment(5);
        s.write_counters(1, cb);
        s.set_bmt_root(secpb_crypto::sha512::Sha512::digest(b"root"));

        let mut w = WireWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        let restored = NvmStore::decode_from(&mut WireReader::new(&bytes)).expect("decode");
        assert_eq!(restored.read_data(BlockAddr(7)), [3u8; 64]);
        assert_eq!(restored.read_data(BlockAddr(2)), [9u8; 64]);
        assert_eq!(restored.read_mac(BlockAddr(7)), 0xFEED);
        assert_eq!(restored.read_counters(1), s.read_counters(1));
        assert_eq!(restored.bmt_root(), s.bmt_root());

        // Re-encoding the restored store is byte-identical.
        let mut w2 = WireWriter::new();
        restored.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);

        // Truncation surfaces an error.
        assert!(NvmStore::decode_from(&mut WireReader::new(&bytes[..9])).is_err());
    }

    #[test]
    fn page_mapping() {
        assert_eq!(NvmStore::page_of(BlockAddr(0)), 0);
        assert_eq!(NvmStore::page_of(BlockAddr(63)), 0);
        assert_eq!(NvmStore::page_of(BlockAddr(64)), 1);
        assert_eq!(NvmStore::page_slot_of(BlockAddr(65)), 1);
    }

    #[test]
    fn tamper_flips_exactly_one_bit() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(0), [0u8; 64]);
        assert!(s.tamper_data(BlockAddr(0), 5, 3));
        let d = s.read_data(BlockAddr(0));
        assert_eq!(d[5], 1 << 3);
        assert_eq!(d.iter().filter(|&&b| b != 0).count(), 1);
        assert!(
            !s.tamper_data(BlockAddr(99), 0, 0),
            "absent block cannot be tampered"
        );
    }

    #[test]
    fn tamper_counters_is_self_inverse() {
        let mut s = NvmStore::new();
        let mut cb = CounterBlock::default();
        cb.increment(3);
        cb.increment(3);
        cb.increment(17);
        s.write_counters(2, cb.clone());
        assert!(s.tamper_counters(2, 11, 5));
        assert_ne!(s.read_counters(2), cb, "flip must change the block");
        assert!(s.tamper_counters(2, 11, 5));
        assert_eq!(s.read_counters(2), cb, "second flip restores it");
        assert!(!s.tamper_counters(9, 0, 0), "absent page");
    }

    #[test]
    fn tamper_mac_and_root_are_self_inverse() {
        let mut s = NvmStore::new();
        s.write_mac(BlockAddr(3), 0xABCD);
        assert!(s.tamper_mac(BlockAddr(3), 70)); // bit taken mod 64
        assert_eq!(s.read_mac(BlockAddr(3)), 0xABCD ^ (1 << 6));
        assert!(s.tamper_mac(BlockAddr(3), 70));
        assert_eq!(s.read_mac(BlockAddr(3)), 0xABCD);
        assert!(!s.tamper_mac(BlockAddr(4), 0), "absent mac");

        assert!(!s.tamper_root(0, 0), "no root persisted yet");
        let d = secpb_crypto::sha512::Sha512::digest(b"r");
        s.set_bmt_root(d);
        assert!(s.tamper_root(63, 7));
        assert_ne!(s.bmt_root(), Some(d));
        assert!(s.tamper_root(63, 7));
        assert_eq!(s.bmt_root(), Some(d));
    }

    #[test]
    fn splice_copies_tuple() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(0), [7u8; 64]);
        s.write_mac(BlockAddr(0), 42);
        assert!(s.splice(BlockAddr(0), BlockAddr(8)));
        assert_eq!(s.read_data(BlockAddr(8)), [7u8; 64]);
        assert_eq!(s.read_mac(BlockAddr(8)), 42);
        assert!(!s.splice(BlockAddr(99), BlockAddr(1)));
    }

    #[test]
    fn replay_restores_old_tuple() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(0), [1u8; 64]);
        s.write_mac(BlockAddr(0), 10);
        let old = (s.read_data(BlockAddr(0)), s.read_mac(BlockAddr(0)));
        s.write_data(BlockAddr(0), [2u8; 64]);
        s.write_mac(BlockAddr(0), 20);
        s.replay_tuple(BlockAddr(0), old.0, old.1);
        assert_eq!(s.read_data(BlockAddr(0)), [1u8; 64]);
        assert_eq!(s.read_mac(BlockAddr(0)), 10);
    }

    #[test]
    fn every_mutator_is_undone_by_an_incremental_rewind() {
        let encode = |s: &NvmStore| {
            let mut w = WireWriter::new();
            s.encode_into(&mut w);
            w.into_bytes()
        };
        let mut live = NvmStore::new();
        for b in 0..8 {
            live.write_data(BlockAddr(b), [b as u8; 64]);
            live.write_mac(BlockAddr(b), b);
            live.write_counters(b, CounterBlock::default());
        }
        let mut twin = NvmStore::new();
        live.snapshot_into(&mut twin, false);
        let synced = encode(&live);
        let mutators: [fn(&mut NvmStore); 8] = [
            |s| s.write_data(BlockAddr(1), [9; 64]),
            |s| s.write_counters(9, CounterBlock::default()),
            |s| s.write_mac(BlockAddr(2), 99),
            |s| assert!(s.tamper_data(BlockAddr(3), 0, 0)),
            |s| assert!(s.tamper_counters(4, 0, 0)),
            |s| assert!(s.tamper_mac(BlockAddr(5), 0)),
            |s| s.replay_tuple(BlockAddr(6), [0; 64], 0),
            |s| assert!(s.splice(BlockAddr(0), BlockAddr(7))),
        ];
        for mutate in mutators {
            mutate(&mut live);
            assert_ne!(encode(&live), synced);
            live.rewind_to(&twin, true);
            assert_eq!(encode(&live), synced);
        }
    }

    #[test]
    fn root_register_round_trip() {
        let mut s = NvmStore::new();
        let d = secpb_crypto::sha512::Sha512::digest(b"root");
        s.set_bmt_root(d);
        assert_eq!(s.bmt_root(), Some(d));
    }

    #[test]
    fn iterators_enumerate_written_state() {
        let mut s = NvmStore::new();
        s.write_data(BlockAddr(1), [0u8; 64]);
        s.write_data(BlockAddr(2), [0u8; 64]);
        s.write_counters(7, CounterBlock::default());
        let mut blocks: Vec<_> = s.data_blocks().map(|b| b.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![1, 2]);
        assert_eq!(s.counter_pages().collect::<Vec<_>>(), vec![7]);
    }
}
