//! Changed-key logs: which keys a map wrote since it last synced with a
//! twin.
//!
//! An in-memory rewind point keeps a twin of the live state.  Refreshing
//! the twin copies the live state into it; rewinding copies the twin back.
//! When the live map notes every key it writes, both copies can visit only
//! the keys written since the two last matched instead of the whole table.
//!
//! A log starts *saturated* ("anything may differ"), so a map that never
//! syncs pays one predictable branch per write and holds no keys.  It also
//! saturates once it would hold more than half as many distinct keys as
//! its map has entries: past that point, cloning the whole table costs no
//! more than visiting the keys.
//!
//! # Example
//!
//! ```
//! use secpb_sim::changelog::ChangeLog;
//! use secpb_sim::fxhash::FxHashMap;
//!
//! let mut live: FxHashMap<u64, u32> = (0..8).map(|k| (k, 0)).collect();
//! let mut twin = FxHashMap::default();
//! let mut log = ChangeLog::default();
//! log.sync(&mut twin, &live, false); // no shared history: copies the table
//! live.insert(3, 7);
//! log.note(3, live.len());
//! log.sync(&mut twin, &live, true); // visits key 3 only
//! assert_eq!(twin, live);
//! ```

use std::hash::Hash;

use crate::fxhash::FxHashMap;

/// The keys a map wrote since its last sync, or *saturated* when
/// everything must be copied (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ChangeLog<K> {
    keys: Vec<K>,
    saturated: bool,
}

impl<K> Default for ChangeLog<K> {
    fn default() -> Self {
        ChangeLog {
            keys: Vec::new(),
            saturated: true,
        }
    }
}

impl<K: Copy + Ord + Hash> ChangeLog<K> {
    /// Records a write of `key` to a map that now holds `len` entries.
    /// A repeat of the last noted key is dropped at once; other repeats
    /// are dropped when the log reaches half of `len` or at the next
    /// [`sync`](Self::sync).
    #[inline]
    pub fn note(&mut self, key: K, len: usize) {
        if self.saturated || self.keys.last() == Some(&key) {
            return;
        }
        if self.keys.len() >= len / 2 {
            self.compact(len);
            if self.saturated {
                return;
            }
        }
        self.keys.push(key);
    }

    /// Drops repeated keys from a log that reached half of `len`, and
    /// saturates it unless that freed at least half of the room, so a
    /// write pays for compactions in amortized `O(log len)`.
    #[cold]
    fn compact(&mut self, len: usize) {
        self.keys.sort_unstable();
        self.keys.dedup();
        if self.keys.len() > len / 4 {
            self.saturate();
        }
    }

    /// Marks every key as changed, as a wholesale replacement of the map
    /// must.
    pub fn saturate(&mut self) {
        self.saturated = true;
        self.keys.clear();
    }

    /// Makes `dst` equal to `src` and starts a new log.
    ///
    /// With `incremental` set and the log not saturated, only the logged
    /// keys are visited: each takes `src`'s entry, or is removed where
    /// `src` has none.  That is correct only when the maps were equal at
    /// the last sync and only the map this log watches was written since.
    /// Otherwise the whole table is cloned.
    pub fn sync<V: Clone>(
        &mut self,
        dst: &mut FxHashMap<K, V>,
        src: &FxHashMap<K, V>,
        incremental: bool,
    ) {
        if incremental && !self.saturated {
            self.keys.sort_unstable();
            self.keys.dedup();
            for key in &self.keys {
                match src.get(key) {
                    Some(value) => {
                        dst.insert(*key, value.clone());
                    }
                    None => {
                        dst.remove(key);
                    }
                }
            }
        } else {
            dst.clone_from(src);
        }
        self.keys.clear();
        self.saturated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(u64, u32)]) -> FxHashMap<u64, u32> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn a_new_log_is_saturated_and_keeps_no_keys() {
        let mut log = ChangeLog::default();
        for k in 0..100 {
            log.note(k, 1000);
        }
        assert!(log.saturated && log.keys.is_empty());
        let mut dst = map(&[(9, 9)]);
        let src = map(&[(1, 1), (2, 2)]);
        log.sync(&mut dst, &src, true);
        assert_eq!(dst, src, "a saturated log copies the whole table");
        assert!(!log.saturated, "a sync starts a fresh log");
    }

    #[test]
    fn incremental_sync_inserts_updates_and_removes_logged_keys() {
        let mut live = map(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]);
        let mut twin = FxHashMap::default();
        let mut log = ChangeLog::default();
        log.sync(&mut twin, &live, false);

        live.insert(2, 20);
        log.note(2, live.len());
        live.insert(7, 7);
        log.note(7, live.len());
        live.insert(2, 21);
        log.note(2, live.len());
        assert_eq!(
            log.keys,
            vec![2, 7, 2],
            "only back-to-back repeats drop early"
        );
        log.sync(&mut twin, &live, true);
        assert_eq!(twin, live);

        // The other direction: roll the live map back to the twin.
        live.insert(8, 8);
        log.note(8, live.len());
        live.insert(1, 10);
        log.note(1, live.len());
        log.sync(&mut live, &twin, true);
        assert_eq!(live, twin, "key 8 is removed, key 1 restored");
    }

    #[test]
    fn the_log_saturates_at_half_its_map_in_distinct_keys() {
        let mut log = ChangeLog::default();
        log.sync(&mut FxHashMap::<u64, u32>::default(), &map(&[]), false);
        for k in [1, 2, 1, 2, 1, 2, 1, 2] {
            log.note(k, 8);
        }
        assert!(!log.saturated, "repeats are compacted away");
        assert_eq!(log.keys, vec![1, 2, 1, 2]);
        for k in 3..6 {
            log.note(k, 8);
        }
        assert!(log.saturated && log.keys.is_empty());
    }
}
