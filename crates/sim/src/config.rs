//! System configuration (Table I of the paper).
//!
//! [`SystemConfig`] collects every knob of the simulated machine: the core,
//! the three-level cache hierarchy, the volatile metadata caches at the
//! memory controller, the SecPB itself, the security-mechanism latencies,
//! and the PCM-based NVM.  The [`Default`] configuration reproduces Table I
//! exactly; experiment sweeps mutate individual fields through the builder
//! methods.

use crate::cycle::{ns_to_cycles, Cycle};

/// Geometry and access latency of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block size in bytes (64 throughout the paper).
    pub block_bytes: usize,
    /// Access (hit) latency in cycles.
    pub access_latency: u64,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `ways * block_bytes`, or non-power-of-two set count).
    pub fn new(size_bytes: usize, ways: usize, block_bytes: usize, access_latency: u64) -> Self {
        assert!(
            size_bytes > 0 && ways > 0 && block_bytes > 0,
            "degenerate cache geometry"
        );
        assert_eq!(
            size_bytes % (ways * block_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        let sets = size_bytes / (ways * block_bytes);
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        CacheConfig {
            size_bytes,
            ways,
            block_bytes,
            access_latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.block_bytes)
    }

    /// Total number of blocks the cache can hold.
    pub fn blocks(&self) -> usize {
        self.size_bytes / self.block_bytes
    }
}

/// Core model parameters.
///
/// The paper's Gem5 model is a 1-core out-of-order x86 at 4 GHz.  Our
/// abstract core is characterised by a retire width, a base CPI for
/// non-memory instructions, and a store buffer that backpressures the core
/// when the SecPB stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core clock frequency in Hz (4.00 GHz in Table I).
    pub freq_hz: f64,
    /// Maximum instructions retired per cycle.
    pub retire_width: u32,
    /// Store buffer entries between the core and the L1D/SecPB.
    pub store_buffer_entries: usize,
    /// Fraction of a load's miss latency exposed to the core, modelling the
    /// latency tolerance of the OOO window (0.0 = perfectly hidden,
    /// 1.0 = fully exposed, in-order).
    pub load_exposure: f64,
    /// Fraction of a store's *security* work (beyond the plain persist-
    /// buffer access) exposed to the core.  Store bursts partially defeat
    /// the store buffer's latency hiding; this models that exposure, with
    /// full serialization still enforced through the store buffer when
    /// persist work saturates.
    pub store_exposure: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            freq_hz: 4.0e9,
            retire_width: 4,
            store_buffer_entries: 56,
            load_exposure: 0.35,
            store_exposure: 0.5,
        }
    }
}

/// SecPB configuration (Table I, "SecPB" section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecPbConfig {
    /// Number of entries (default 32; swept over 8..=512 in Section VI-D).
    pub entries: usize,
    /// Entry size in bytes (260 B: Dp + O + Dc + C + B + M fields).
    pub entry_bytes: usize,
    /// Access latency in cycles.
    pub access_latency: u64,
    /// High watermark as a fraction of capacity at which background
    /// draining starts (Table I: 75%).
    pub high_watermark: f64,
    /// Low watermark at which background draining stops.
    pub low_watermark: f64,
}

impl Default for SecPbConfig {
    fn default() -> Self {
        SecPbConfig {
            entries: 32,
            entry_bytes: 260,
            access_latency: 2,
            high_watermark: 0.75,
            low_watermark: 0.50,
        }
    }
}

impl SecPbConfig {
    /// Occupancy (entry count) at which draining starts.
    pub fn high_watermark_entries(&self) -> usize {
        ((self.entries as f64) * self.high_watermark).ceil() as usize
    }

    /// Occupancy at which background draining stops.
    pub fn low_watermark_entries(&self) -> usize {
        ((self.entries as f64) * self.low_watermark).floor() as usize
    }
}

/// Which crypto backend the functional engines dispatch hashing and
/// encryption through.  Purely a host-performance knob: every backend is
/// byte-identical (the equivalence suites assert it), so reports, roots,
/// and recovery verdicts never depend on the choice.  The actual backend
/// implementations live in `secpb-crypto`; this enum only *names* them so
/// configuration stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoBackendKind {
    /// Hardware (AES-NI) when compiled in and detected at runtime,
    /// multi-block software pipelining otherwise.
    #[default]
    Auto,
    /// One-block-at-a-time reference implementation.
    Scalar,
    /// Software-pipelined multi-block (interleaved-lane SHA-512) dispatch.
    MultiBlock,
    /// `std::arch` AES-NI cipher kernels (requires the `hw-crypto`
    /// feature and runtime CPU support; falls back to scalar otherwise).
    Hw,
}

impl CryptoBackendKind {
    /// Stable lowercase name (the checkpoint fingerprint records it).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackendKind::Auto => "auto",
            CryptoBackendKind::Scalar => "scalar",
            CryptoBackendKind::MultiBlock => "multiblock",
            CryptoBackendKind::Hw => "hw",
        }
    }
}

/// Security-mechanism latencies (Table I, "Security Mechanisms").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityConfig {
    /// Bonsai Merkle Tree height in levels (8 in Table I).
    pub bmt_levels: u32,
    /// Latency of one MAC computation in processor cycles (40).
    pub mac_latency: u64,
    /// Latency of one AES-based OTP generation in processor cycles.
    /// The paper charges the same 40-cycle crypto latency used for
    /// hashing/MAC units in its IPC validation model.
    pub otp_latency: u64,
    /// Latency of hashing one BMT node (per level of a root update).
    pub bmt_hash_latency: u64,
    /// Whether BMT root updates are serialized to one in flight
    /// (Section VI-B: "constraining the system to one in-flight BMT
    /// update").  The ablation benches flip this.
    pub single_inflight_bmt: bool,
    /// Whether the data-value-independent coalescing optimization of
    /// Section IV-A is enabled (counter/OTP/BMT updated once per dirty
    /// block rather than once per store).
    pub value_independent_coalescing: bool,
    /// Whether integrity verification of loads is speculative (data
    /// forwarded before MAC/BMT checks complete, as in PoisonIvy — the
    /// paper's assumption in Section V-A).  When `false`, a load that
    /// misses to memory stalls for decryption + verification.
    pub speculative_verification: bool,
    /// Crypto backend the functional engines dispatch through (a host
    /// performance knob; observable outputs are identical).
    pub crypto_backend: CryptoBackendKind,
    /// Triad-NVM-style selective tree persistence: persist BMT levels
    /// `0..triad_levels` alongside the root and reconstruct only the
    /// remainder at recovery (Awad et al.).  `0` keeps the baseline
    /// root-only layout.
    pub triad_levels: u8,
    /// Huang & Hua-style write-friendly fast-recovery layout: maintain a
    /// durable shadow copy of the BMT root so recovery validates in
    /// near-constant tree work instead of a full rebuild.
    pub shadow_counters: bool,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        SecurityConfig {
            bmt_levels: 8,
            mac_latency: 40,
            otp_latency: 40,
            bmt_hash_latency: 40,
            single_inflight_bmt: true,
            value_independent_coalescing: true,
            speculative_verification: true,
            crypto_backend: CryptoBackendKind::default(),
            triad_levels: 0,
            shadow_counters: false,
        }
    }
}

/// NVM (PCM) timing model parameters (Table I, "NVM").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Capacity in bytes (8 GB).
    pub size_bytes: u64,
    /// Read latency in core cycles (55 ns at 4 GHz = 220).
    pub read_latency: Cycle,
    /// Write latency in core cycles (150 ns at 4 GHz = 600).
    pub write_latency: Cycle,
    /// Write queue entries (128).
    pub write_queue_entries: usize,
    /// Read queue entries (64).
    pub read_queue_entries: usize,
    /// Number of banks the NVM can service in parallel.  Latency per
    /// access is 55/150 ns, but a buffered 1200 MHz PCM DIMM sustains far
    /// higher bandwidth than 1/latency; 64 banks at 600-cycle writes gives
    /// ~19 GB/s of aggregate write bandwidth (an interleaved multi-DIMM
    /// Table I device), keeping the write path from saturating under the
    /// most store-intensive workloads, as in the paper's baseline.
    pub banks: usize,
}

impl Default for NvmConfig {
    fn default() -> Self {
        let freq = 4.0e9;
        NvmConfig {
            size_bytes: 8 << 30,
            read_latency: Cycle(ns_to_cycles(55.0, freq)),
            write_latency: Cycle(ns_to_cycles(150.0, freq)),
            write_queue_entries: 128,
            read_queue_entries: 64,
            banks: 64,
        }
    }
}

/// The complete machine configuration (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core model.
    pub core: CoreConfig,
    /// L1 data cache: 64 KB, 8-way, 2-cycle.
    pub l1: CacheConfig,
    /// L2 cache: 512 KB, 16-way, 20-cycle.
    pub l2: CacheConfig,
    /// L3 cache: 4 MB, 32-way, 30-cycle.
    pub l3: CacheConfig,
    /// Counter metadata cache: 128 KB, 8-way, 2-cycle.
    pub counter_cache: CacheConfig,
    /// MAC metadata cache: 128 KB, 8-way, 2-cycle.
    pub mac_cache: CacheConfig,
    /// BMT metadata cache: 128 KB, 8-way, 2-cycle.
    pub bmt_cache: CacheConfig,
    /// Write pending queue entries in the memory controller (32).
    pub wpq_entries: usize,
    /// SecPB parameters.
    pub secpb: SecPbConfig,
    /// Security mechanism latencies.
    pub security: SecurityConfig,
    /// NVM timing.
    pub nvm: NvmConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            core: CoreConfig::default(),
            l1: CacheConfig::new(64 << 10, 8, 64, 2),
            l2: CacheConfig::new(512 << 10, 16, 64, 20),
            l3: CacheConfig::new(4 << 20, 32, 64, 30),
            counter_cache: CacheConfig::new(128 << 10, 8, 64, 2),
            mac_cache: CacheConfig::new(128 << 10, 8, 64, 2),
            bmt_cache: CacheConfig::new(128 << 10, 8, 64, 2),
            wpq_entries: 32,
            secpb: SecPbConfig::default(),
            security: SecurityConfig::default(),
            nvm: NvmConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Returns a copy with a different SecPB entry count (Section VI-D
    /// sweeps 8..=512).
    pub fn with_secpb_entries(mut self, entries: usize) -> Self {
        self.secpb.entries = entries;
        self
    }

    /// Returns a copy with a different BMT height (the BMF study of
    /// Section VI-E reduces 8 levels to 2 for DBMF and 5 for SBMF).
    pub fn with_bmt_levels(mut self, levels: u32) -> Self {
        self.security.bmt_levels = levels;
        self
    }

    /// Returns a copy with the Section IV-A coalescing optimization
    /// toggled.
    pub fn with_value_independent_coalescing(mut self, on: bool) -> Self {
        self.security.value_independent_coalescing = on;
        self
    }

    /// Returns a copy allowing multiple in-flight BMT root updates.
    pub fn with_pipelined_bmt(mut self, pipelined: bool) -> Self {
        self.security.single_inflight_bmt = !pipelined;
        self
    }

    /// Returns a copy with speculative load verification toggled
    /// (Section V-A assumes speculation; `false` models a blocking
    /// verify-before-use pipeline).
    pub fn with_speculative_verification(mut self, speculative: bool) -> Self {
        self.security.speculative_verification = speculative;
        self
    }

    /// Returns a copy with the functional crypto backend switched
    /// (scalar reference, multi-block software pipelining, or hardware
    /// AES-NI).  Observable outputs are identical in all of them.
    pub fn with_crypto_backend(mut self, backend: CryptoBackendKind) -> Self {
        self.security.crypto_backend = backend;
        self
    }

    /// Returns a copy with Triad-NVM-style selective tree persistence:
    /// BMT levels `0..levels` are persisted alongside the root; the rest
    /// of the tree is reconstructed at recovery.  `0` restores the
    /// baseline root-only layout.
    pub fn with_triad_levels(mut self, levels: u8) -> Self {
        self.security.triad_levels = levels;
        self
    }

    /// Returns a copy with the Huang & Hua-style write-friendly
    /// fast-recovery metadata layout toggled.
    pub fn with_shadow_counters(mut self, on: bool) -> Self {
        self.security.shadow_counters = on;
        self
    }

    /// Returns a copy with different SecPB drain watermarks.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= low <= high <= 1.0`.
    pub fn with_watermarks(mut self, high: f64, low: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low <= high,
            "watermarks must satisfy 0 <= low <= high <= 1"
        );
        self.secpb.high_watermark = high;
        self.secpb.low_watermark = low;
        self
    }

    /// Full latency in cycles of a BMT root update from leaf to root,
    /// assuming every level hits in the BMT cache (Section VI-B:
    /// 8 x 40 = 320 cycles).
    pub fn bmt_root_update_latency(&self) -> u64 {
        u64::from(self.security.bmt_levels) * self.security.bmt_hash_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = SystemConfig::default();
        assert_eq!(c.l1.size_bytes, 64 << 10);
        assert_eq!(c.l1.ways, 8);
        assert_eq!(c.l1.access_latency, 2);
        assert_eq!(c.l2.size_bytes, 512 << 10);
        assert_eq!(c.l2.access_latency, 20);
        assert_eq!(c.l3.size_bytes, 4 << 20);
        assert_eq!(c.l3.access_latency, 30);
        assert_eq!(c.wpq_entries, 32);
        assert_eq!(c.secpb.entries, 32);
        assert_eq!(c.secpb.entry_bytes, 260);
        assert_eq!(c.security.bmt_levels, 8);
        assert_eq!(c.security.mac_latency, 40);
        assert_eq!(c.nvm.read_latency, Cycle(220));
        assert_eq!(c.nvm.write_latency, Cycle(600));
        assert_eq!(c.nvm.write_queue_entries, 128);
        assert_eq!(c.nvm.read_queue_entries, 64);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::new(64 << 10, 8, 64, 2);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.blocks(), 1024);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn cache_rejects_ragged_capacity() {
        CacheConfig::new(1000, 8, 64, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_rejects_non_pow2_sets() {
        CacheConfig::new(3 * 8 * 64, 8, 64, 2);
    }

    #[test]
    fn bmt_root_update_latency_is_levels_times_hash() {
        let c = SystemConfig::default();
        assert_eq!(c.bmt_root_update_latency(), 320);
        assert_eq!(c.with_bmt_levels(2).bmt_root_update_latency(), 80);
    }

    #[test]
    fn watermark_entry_counts() {
        let pb = SecPbConfig::default();
        assert_eq!(pb.high_watermark_entries(), 24);
        assert_eq!(pb.low_watermark_entries(), 16);
        let small = SecPbConfig { entries: 8, ..pb };
        assert_eq!(small.high_watermark_entries(), 6);
        assert_eq!(small.low_watermark_entries(), 4);
    }

    #[test]
    fn builders_modify_copies() {
        let base = SystemConfig::default();
        let swept = base.clone().with_secpb_entries(128);
        assert_eq!(swept.secpb.entries, 128);
        assert_eq!(base.secpb.entries, 32);
        let pipelined = base.clone().with_pipelined_bmt(true);
        assert!(!pipelined.security.single_inflight_bmt);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn watermark_builder_validates() {
        SystemConfig::default().with_watermarks(0.2, 0.8);
    }

    #[test]
    fn crypto_backend_defaults_to_auto() {
        assert_eq!(CryptoBackendKind::default(), CryptoBackendKind::Auto);
        assert_eq!(
            SystemConfig::default().security.crypto_backend,
            CryptoBackendKind::Auto
        );
        let cfg = SystemConfig::default().with_crypto_backend(CryptoBackendKind::Scalar);
        assert_eq!(cfg.security.crypto_backend, CryptoBackendKind::Scalar);
    }
}
