//! Versioned whole-system checkpoints for crash-recovery and soak
//! restarts.
//!
//! A checkpoint captures *everything* a [`SecureSystem`] needs to resume
//! a run mid-stream and stay byte-identical to an uninterrupted
//! execution: the functional kernel (golden state, logical counters, NVM
//! image, integrity tree), the SecPB and its drain pipeline, every
//! timing structure whose state feeds the digested statistics (cache
//! LRU clocks, WPQ backpressure, NVM bank horizons, the store buffer,
//! the fractional-cycle accumulator), and the statistics themselves.
//!
//! ## Wire format
//!
//! ```text
//! magic "SPBC" | version u32 | config fingerprint u64 | checksum u64 | payload
//! payload = sections... | "SPOL" | policy state (shadow root, write-amp counters)
//! ```
//!
//! The fingerprint is the first eight bytes of a SHA-512 over the wire
//! encoding of every configuration scalar plus the scheme, tree kind,
//! and key seed.  Geometry and keys are therefore never serialised —
//! restore targets must be *constructed* with the identical
//! configuration, and the fingerprint rejects a mismatch up front
//! instead of letting a shape check fail deep inside a section.
//!
//! The checksum is [`FxHasher`] over the payload bytes.  Each of its
//! 8-byte steps is a bijection of the running hash (the multiplier is
//! odd), so a change confined to one aligned payload word — every
//! single-bit flip among them — always changes the checksum.  Restore
//! checks it before decoding any section, so corrupt bytes are a typed
//! error and leave the target untouched.
//!
//! ## Restore + replay ≡ straight-through
//!
//! The equivalence argument: every output of a run (the [`ShardOutcome`]
//! digest in the serve plane covers stats counters, histogram counts,
//! and cycle scalars) is a pure function of the state captured here and
//! the remaining trace.  The only state *not* captured is explicitly
//! output-invisible: the tracer's span aggregates (never digested;
//! restore resets them) and the telemetry sink (observes, never steers;
//! it survives a restore).  Everything else overlays exactly, so
//! replaying epochs N..M after restoring at N reproduces the
//! uninterrupted run byte for byte —
//! `tests/checkpoint_replay.rs` pins this for every scheme and tree
//! organisation.
//!
//! ## In-memory rewind points
//!
//! A process that only ever rewinds itself does not need portable bytes.
//! [`Snapshot`] is a twin of the system holding the same state a
//! checkpoint captures, refreshed in place by
//! [`SecureSystem::snapshot_into`] and applied by
//! [`SecureSystem::rewind`].  Neither sorts or encodes anything.
//!
//! Where they can, both copy only what changed since the system last
//! synced with that twin.  The golden image, the logical counters and
//! the NVM maps log the keys they write ([`ChangeLog`]), and every cache
//! flags the sets it writes; a sync visits just those entries and sets.
//! Every sync draws a fresh process-wide token, held by the system and
//! the snapshot alike.  The copy is incremental only when the two tokens
//! match: a refresh of the slot the system last synced with, or a rewind
//! to it.  Anything else copies the whole state, reusing the
//! destination's allocations: the first snapshot, another slot, another
//! system of the same build, or any sync after
//! [`SecureSystem::restore_bytes`].  The integrity tree, the SecPB, the
//! WPQ, the timing scalars and the statistics are always copied whole.
//!
//! Rewinding has the post-conditions of [`SecureSystem::restore_bytes`]
//! and leaves the snapshot intact, so one rewind point serves any number
//! of crashes.
//!
//! [`ChangeLog`]: secpb_sim::changelog::ChangeLog
//! [`FxHasher`]: secpb_sim::fxhash::FxHasher
//!
//! [`ShardOutcome`]: https://docs.rs/secpb-bench

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

use secpb_crypto::sha512::{Digest, Sha512};
use secpb_sim::config::{CacheConfig, SystemConfig};
use secpb_sim::cycle::Cycle;
use secpb_sim::fxhash::FxHasher;
use secpb_sim::stats::Stats;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::buffer::SecPb;
use crate::drain::DrainEngine;
use crate::metrics::CycleBreakdown;
use crate::scheme::Scheme;
use crate::system::SecureSystem;
use crate::tree::TreeKind;

/// The four magic bytes opening every checkpoint.
pub const MAGIC: [u8; 4] = *b"SPBC";

/// Current checkpoint wire-format version.
///
/// Version history:
/// - 1: initial format.
/// - 2: persistence-policy knobs join the config fingerprint and a
///   tagged [`POLICY_TAG`] section carrying the policy's analytic
///   state (shadow root, write-amplification counters) closes the
///   payload.
/// - 3: a payload checksum follows the fingerprint.
/// - 4: the drain engine stores its in-flight completion cycles alone,
///   sorted ascending, without per-drain sequence numbers.
pub const VERSION: u32 = 4;

/// The four tag bytes opening the persistence-policy section (v2+).
pub const POLICY_TAG: [u8; 4] = *b"SPOL";

/// Why a checkpoint could not be produced or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The front does not implement checkpointing (only the single-core
    /// [`SecureSystem`] front does).
    Unsupported,
    /// The bytes do not start with the `SPBC` magic.
    BadMagic,
    /// The checkpoint was written by a different wire-format version.
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The checkpoint was taken on a system with a different
    /// configuration, scheme, tree kind, or key seed.
    ConfigMismatch,
    /// The payload does not match its checksum (truncation or
    /// corruption); nothing was decoded.
    ChecksumMismatch,
    /// The bytes end inside the header, or a section failed to decode
    /// although the payload matched its checksum (bytes not written by
    /// [`SecureSystem::checkpoint_bytes`]).
    Wire(WireError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Unsupported => {
                write!(f, "this front does not support checkpoint/restore")
            }
            CheckpointError::BadMagic => write!(f, "not a SecPB checkpoint (bad magic)"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version {found} does not match supported version {VERSION}"
            ),
            CheckpointError::ConfigMismatch => write!(
                f,
                "checkpoint was taken under a different configuration/scheme/seed"
            ),
            CheckpointError::ChecksumMismatch => write!(
                f,
                "checkpoint payload does not match its checksum (truncated or corrupt)"
            ),
            CheckpointError::Wire(e) => write!(f, "checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

/// Bytes before the payload: magic, version, fingerprint and checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// The payload checksum: [`FxHasher`] over the payload bytes.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

fn encode_cache_config(w: &mut WireWriter, c: &CacheConfig) {
    w.usize(c.size_bytes);
    w.usize(c.ways);
    w.usize(c.block_bytes);
    w.u64(c.access_latency);
}

/// The identity a checkpoint binds to: the first eight bytes of a
/// SHA-512 over every configuration scalar plus the scheme, integrity-
/// tree kind, and key seed.  Two systems with equal fingerprints decode
/// each other's checkpoints; anything else is rejected with
/// [`CheckpointError::ConfigMismatch`].
pub fn config_fingerprint(
    cfg: &SystemConfig,
    scheme: Scheme,
    tree_kind: TreeKind,
    key_seed: u64,
) -> u64 {
    let mut w = WireWriter::new();
    w.str(scheme.name());
    w.u8(match tree_kind {
        TreeKind::Monolithic => 0,
        TreeKind::Dbmf => 1,
        TreeKind::Sbmf => 2,
    });
    w.u64(key_seed);
    w.f64(cfg.core.freq_hz);
    w.u32(cfg.core.retire_width);
    w.usize(cfg.core.store_buffer_entries);
    w.f64(cfg.core.load_exposure);
    w.f64(cfg.core.store_exposure);
    for cache in [
        &cfg.l1,
        &cfg.l2,
        &cfg.l3,
        &cfg.counter_cache,
        &cfg.mac_cache,
        &cfg.bmt_cache,
    ] {
        encode_cache_config(&mut w, cache);
    }
    w.usize(cfg.wpq_entries);
    w.usize(cfg.secpb.entries);
    w.usize(cfg.secpb.entry_bytes);
    w.u64(cfg.secpb.access_latency);
    w.f64(cfg.secpb.high_watermark);
    w.f64(cfg.secpb.low_watermark);
    w.u32(cfg.security.bmt_levels);
    w.u64(cfg.security.mac_latency);
    w.u64(cfg.security.otp_latency);
    w.u64(cfg.security.bmt_hash_latency);
    w.bool(cfg.security.single_inflight_bmt);
    w.bool(cfg.security.value_independent_coalescing);
    w.bool(cfg.security.speculative_verification);
    w.u8(cfg.security.triad_levels);
    w.bool(cfg.security.shadow_counters);
    w.str(cfg.security.crypto_backend.name());
    w.u64(cfg.nvm.size_bytes);
    w.u64(cfg.nvm.read_latency.raw());
    w.u64(cfg.nvm.write_latency.raw());
    w.usize(cfg.nvm.write_queue_entries);
    w.usize(cfg.nvm.read_queue_entries);
    w.usize(cfg.nvm.banks);
    let digest = Sha512::digest(&w.into_bytes());
    u64::from_le_bytes(digest.0[..8].try_into().expect("SHA-512 is 64 bytes"))
}

impl SecureSystem {
    fn fingerprint(&self) -> u64 {
        config_fingerprint(
            &self.cfg,
            self.scheme,
            self.domain.tree_kind,
            self.domain.seed,
        )
    }

    /// Serialises the complete system state into a versioned checkpoint.
    ///
    /// The capture is deterministic: checkpointing the same state twice
    /// produces identical bytes, and checkpointing a restored system
    /// reproduces the original checkpoint.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(&MAGIC);
        w.u32(VERSION);
        w.u64(self.fingerprint());
        // The checksum, patched in once the payload is written.
        w.u64(0);
        // ---- timing scalars ----
        w.u64(self.now.raw());
        w.u64(self.measure_from.raw());
        w.f64(self.frac);
        w.u64(self.pb_busy_until.raw());
        w.u64(self.bmt_busy_until.raw());
        w.usize(self.store_buffer.len());
        for c in &self.store_buffer {
            w.u64(c.raw());
        }
        // ---- timing structures ----
        self.hierarchy.encode_into(&mut w);
        self.metadata.encode_into(&mut w);
        self.wpq.encode_into(&mut w);
        self.nvm_timing.encode_into(&mut w);
        self.drain_engine.encode_into(&mut w);
        // ---- functional state ----
        self.pb.encode_into(&mut w);
        self.domain.encode_into(&mut w);
        // ---- observability ----
        self.stats.encode_into(&mut w);
        for (_, v) in self.breakdown.entries() {
            w.u64(v);
        }
        // ---- persistence-policy section (v2) ----
        w.raw(&POLICY_TAG);
        let ps = self.domain.policy_state();
        match ps.shadow_root {
            Some(d) => {
                w.bool(true);
                w.raw(&d.0);
            }
            None => w.bool(false),
        }
        w.u64(ps.node_writes);
        w.u64(ps.shadow_writes);
        w.u64(ps.leaf_persists);
        let mut bytes = w.into_bytes();
        let checksum = payload_checksum(&bytes[HEADER_LEN..]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Overlays a checkpoint produced by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes) onto this system.
    ///
    /// The target must have been constructed with the identical
    /// configuration, scheme, tree kind, and key seed; the header
    /// fingerprint rejects anything else.  The attached telemetry sink
    /// survives the restore (telemetry observes, never steers); the
    /// tracer's span aggregates, which are output-invisible, are reset.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on bad magic, version or
    /// fingerprint mismatch, or a payload that does not match its
    /// checksum (truncation or corruption); the target is then left
    /// untouched.  Only a payload whose checksum matches but which fails
    /// to decode ([`CheckpointError::Wire`]: bytes not written by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes)) may leave the target
    /// partially overwritten, and it must then be discarded.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        if r.array::<4>().map_err(CheckpointError::Wire)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let found = r.u32()?;
        if found != VERSION {
            return Err(CheckpointError::VersionMismatch { found });
        }
        if r.u64()? != self.fingerprint() {
            return Err(CheckpointError::ConfigMismatch);
        }
        if r.u64()? != payload_checksum(&bytes[HEADER_LEN..]) {
            return Err(CheckpointError::ChecksumMismatch);
        }
        // A wholesale overwrite: no rewind point matches this system now.
        self.sync_token = None;
        // ---- timing scalars ----
        self.now = Cycle(r.u64()?);
        self.measure_from = Cycle(r.u64()?);
        self.frac = r.f64()?;
        self.pb_busy_until = Cycle(r.u64()?);
        self.bmt_busy_until = Cycle(r.u64()?);
        let n = r.seq_len(8)?;
        self.store_buffer.clear();
        for _ in 0..n {
            self.store_buffer.push_back(Cycle(r.u64()?));
        }
        // ---- timing structures ----
        self.hierarchy.restore_from(&mut r)?;
        self.metadata.restore_from(&mut r)?;
        self.wpq.restore_from(&mut r)?;
        self.nvm_timing.restore_from(&mut r)?;
        self.drain_engine = DrainEngine::decode_from(&mut r)?;
        // ---- functional state ----
        self.pb = SecPb::decode_from(self.cfg.secpb, &mut r)?;
        self.domain.restore_from(&mut r)?;
        // ---- observability ----
        let sink = self.stats.sink().cloned();
        let mut stats = Stats::decode_from(&mut r)?;
        stats.set_sink(sink);
        self.stats = stats;
        self.breakdown = CycleBreakdown {
            retire: r.u64()?,
            load: r.u64()?,
            store_accept: r.u64()?,
            sb_stall: r.u64()?,
            nogap_wait: r.u64()?,
            drain_wait: r.u64()?,
        };
        self.tracer.reset();
        // ---- persistence-policy section (v2) ----
        if r.array::<4>()? != POLICY_TAG {
            return Err(CheckpointError::Wire(
                r.malformed("missing persistence-policy section tag"),
            ));
        }
        self.domain.policy_state.shadow_root = if r.bool()? {
            Some(Digest(r.array::<64>()?))
        } else {
            None
        };
        self.domain.policy_state.node_writes = r.u64()?;
        self.domain.policy_state.shadow_writes = r.u64()?;
        self.domain.policy_state.leaf_persists = r.u64()?;
        if !r.is_empty() {
            return Err(CheckpointError::Wire(
                r.malformed("trailing bytes after checkpoint payload"),
            ));
        }
        Ok(())
    }
}

/// An in-memory rewind point of a [`SecureSystem`] (see the
/// [module docs](self#in-memory-rewind-points)).
///
/// Not portable: it lives only as long as the process and rewinds only
/// systems built from the same configuration, scheme, tree kind, and key
/// seed.  SPBC bytes remain the format for anything that must outlive
/// the system or leave the process.
#[derive(Debug)]
pub struct Snapshot {
    twin: SecureSystem,
    fingerprint: u64,
    /// The token of the twin's last sync: a system holding the same
    /// token matches the twin up to its logged changes.
    token: u64,
}

/// Draws a token no sync in this process has used before.  Zero is never
/// drawn, so a snapshot not yet synced matches no system.  `Relaxed`
/// suffices: the token publishes no other data, and `fetch_add` never
/// hands out a value twice.
fn next_sync_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl SecureSystem {
    /// Refreshes `slot` into a rewind point of the current state.
    ///
    /// An empty slot, or one holding a snapshot of a differently built
    /// system, gets a new twin; otherwise the twin is overwritten in
    /// place, reusing its hash tables and cache way arrays.  If this
    /// system last synced with this very snapshot, only the entries and
    /// cache sets written since are copied; otherwise the whole state
    /// is.  Takes `&mut self` because the sync starts this system's
    /// change logs afresh.  The tracer and the telemetry sink are not
    /// copied.
    pub fn snapshot_into(&mut self, slot: &mut Option<Snapshot>) {
        let fingerprint = self.fingerprint();
        let snap = match slot {
            Some(snap) if snap.fingerprint == fingerprint => snap,
            _ => {
                let twin = SecureSystem::build(
                    self.cfg.clone(),
                    self.scheme,
                    self.domain.tree_kind,
                    self.domain.seed,
                )
                .expect("a built system's parameters build again");
                slot.insert(Snapshot {
                    twin,
                    fingerprint,
                    token: 0,
                })
            }
        };
        let incremental = self.sync_token == Some(snap.token);
        let twin = &mut snap.twin;
        self.hierarchy
            .snapshot_into(&mut twin.hierarchy, incremental);
        self.metadata.snapshot_into(&mut twin.metadata, incremental);
        self.domain.snapshot_into(&mut twin.domain, incremental);
        twin.copy_untracked_from(self);
        snap.token = next_sync_token();
        self.sync_token = Some(snap.token);
    }

    /// Rewinds this system to `to`, leaving the snapshot intact.
    ///
    /// If this system last synced with `to`, only the entries and cache
    /// sets it wrote since are copied back; otherwise the whole state is.
    /// Either way the system then counts as synced with `to`.  The
    /// post-conditions are those of [`restore_bytes`](Self::restore_bytes):
    /// the attached telemetry sink survives and the tracer's span
    /// aggregates are reset.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] if the snapshot was taken on a
    /// system with a different configuration, scheme, tree kind, or key
    /// seed; this system is then left untouched.
    pub fn rewind(&mut self, to: &Snapshot) -> Result<(), CheckpointError> {
        if to.fingerprint != self.fingerprint() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let incremental = self.sync_token == Some(to.token);
        let twin = &to.twin;
        self.hierarchy.rewind_to(&twin.hierarchy, incremental);
        self.metadata.rewind_to(&twin.metadata, incremental);
        self.domain.rewind_to(&twin.domain, incremental);
        let sink = self.stats.sink().cloned();
        self.copy_untracked_from(twin);
        self.stats.set_sink(sink);
        self.tracer.reset();
        self.sync_token = Some(to.token);
        Ok(())
    }

    /// Overwrites every field a checkpoint captures that no change log
    /// covers with `src`'s, by `clone_from` so this system's allocations
    /// are reused.  Both systems must be built from the same parameters;
    /// the tracer is left alone, and the statistics come without a
    /// telemetry sink.
    fn copy_untracked_from(&mut self, src: &SecureSystem) {
        self.now = src.now;
        self.measure_from = src.measure_from;
        self.frac = src.frac;
        self.pb_busy_until = src.pb_busy_until;
        self.bmt_busy_until = src.bmt_busy_until;
        self.store_buffer.clone_from(&src.store_buffer);
        self.wpq.clone_from(&src.wpq);
        self.nvm_timing.clone_from(&src.nvm_timing);
        self.drain_engine.clone_from(&src.drain_engine);
        self.pb.clone_from(&src.pb);
        self.stats.clone_from(&src.stats);
        self.h = src.h;
        self.breakdown = src.breakdown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::PersistSystem;
    use secpb_sim::addr::Address;
    use secpb_sim::trace::{Access, TraceItem};

    fn store_trace(base: u64, n: u64) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::then(7, Access::store(Address(base + (i % 40) * 64), i + 1)))
            .collect()
    }

    #[test]
    fn checkpoint_round_trip_is_byte_identical() {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 42);
        sys.run_trace(store_trace(0x10_0000, 300));
        let bytes = sys.checkpoint_bytes();

        let mut restored = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 42);
        restored.restore_bytes(&bytes).unwrap();
        assert_eq!(
            restored.checkpoint_bytes(),
            bytes,
            "checkpointing a restored system must reproduce the checkpoint"
        );
    }

    #[test]
    fn restore_then_replay_matches_straight_through() {
        let first = store_trace(0x10_0000, 250);
        let second = store_trace(0x20_0000, 250);

        let mut reference = SecureSystem::new(SystemConfig::default(), Scheme::Cm, 7);
        reference.run_trace(first.iter().copied());
        let bytes = reference.checkpoint_bytes();
        reference.run_trace(second.iter().copied());
        reference.sync_metadata();

        let mut resumed = SecureSystem::new(SystemConfig::default(), Scheme::Cm, 7);
        resumed.restore_bytes(&bytes).unwrap();
        resumed.run_trace(second.iter().copied());
        resumed.sync_metadata();

        assert_eq!(resumed.checkpoint_bytes(), reference.checkpoint_bytes());
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
        let bytes = sys.checkpoint_bytes();

        let mut other_seed = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 2);
        assert_eq!(
            other_seed.restore_bytes(&bytes),
            Err(CheckpointError::ConfigMismatch)
        );
        let mut other_scheme = SecureSystem::new(SystemConfig::default(), Scheme::Cm, 1);
        assert_eq!(
            other_scheme.restore_bytes(&bytes),
            Err(CheckpointError::ConfigMismatch)
        );
        let mut other_cfg = SecureSystem::new(
            SystemConfig::default().with_secpb_entries(64),
            Scheme::Cobcm,
            1,
        );
        assert_eq!(
            other_cfg.restore_bytes(&bytes),
            Err(CheckpointError::ConfigMismatch)
        );

        let mut same = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
        assert_eq!(
            same.restore_bytes(b"nope"),
            Err(CheckpointError::BadMagic),
            "short/garbage input is not a checkpoint"
        );
        let mut versioned = bytes.clone();
        versioned[4] = 0xFF;
        assert!(matches!(
            same.restore_bytes(&versioned),
            Err(CheckpointError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn truncated_payload_reports_checksum_mismatch() {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 9);
        sys.run_trace(store_trace(0x30_0000, 50));
        let bytes = sys.checkpoint_bytes();
        let mut target = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 9);
        let err = target.restore_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err, CheckpointError::ChecksumMismatch);
        // A header cut short of its checksum is a wire error.
        let err = target.restore_bytes(&bytes[..HEADER_LEN - 3]).unwrap_err();
        assert!(matches!(err, CheckpointError::Wire(_)), "got {err:?}");
    }

    #[test]
    fn every_single_bit_flip_is_rejected_and_leaves_the_target_untouched() {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 5);
        sys.run_trace(store_trace(0x40_0000, 120));
        let original = sys.checkpoint_bytes();
        // One target takes every corrupt restore; it holds a different
        // run, so a partial overwrite would show.
        let mut target = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 5);
        target.run_trace(store_trace(0x50_0000, 60));
        let before = target.checkpoint_bytes();
        // Every bit of the header and checksum field, then seeded flips
        // across the payload: 3,000 in all.
        let header_bits = (HEADER_LEN * 8) as u64;
        let payload_bits = ((original.len() - HEADER_LEN) * 8) as u64;
        let mut rng = secpb_sim::rng::Rng::seed_from(0xF1_1B17);
        let bits = (0..header_bits).chain(
            std::iter::repeat_with(|| header_bits + rng.below(payload_bits))
                .take(3_000 - header_bits as usize),
        );
        let mut bytes = original.clone();
        for bit in bits {
            let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
            bytes[byte] ^= mask;
            let err = target.restore_bytes(&bytes).unwrap_err();
            let expected = match byte {
                0..4 => matches!(err, CheckpointError::BadMagic),
                4..8 => matches!(err, CheckpointError::VersionMismatch { .. }),
                8..16 => err == CheckpointError::ConfigMismatch,
                _ => err == CheckpointError::ChecksumMismatch,
            };
            assert!(expected, "flip of bit {bit} gave {err:?}");
            bytes[byte] ^= mask;
        }
        assert_eq!(
            target.checkpoint_bytes(),
            before,
            "a rejected restore wrote state"
        );
        target.restore_bytes(&original).unwrap();
        assert_eq!(target.checkpoint_bytes(), original);
    }
}
