//! # secpb — secure battery-backed persist buffers for non-volatile memory
//!
//! A full reproduction of *SecPB: Architectures for Secure Non-Volatile
//! Memory with Battery-Backed Persist Buffers* (HPCA 2023) as a Rust
//! library: the SecPB architecture and its six metadata-persistence
//! schemes, every substrate it depends on (counter-mode encryption, MACs,
//! Bonsai Merkle Trees/Forests, a cache-hierarchy + NVM timing model), a
//! battery/energy model, synthetic SPEC-2006-style workloads, and an
//! experiment harness regenerating every table and figure of the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`sim`] | `secpb-sim` | cycles, addresses, config, stats, traces |
//! | [`crypto`] | `secpb-crypto` | AES, SHA-512, HMAC, split counters, OTP, MAC, BMT, BMF |
//! | [`mem`] | `secpb-mem` | caches, memory controller, WPQ, NVM model |
//! | [`core`] | `secpb-core` | the SecPB, schemes, crash/recovery, coherence |
//! | [`energy`] | `secpb-energy` | drain energy and battery sizing |
//! | [`workloads`] | `secpb-workloads` | trace generation, SPEC profiles |
//!
//! # Quickstart
//!
//! ```
//! use secpb::core::scheme::Scheme;
//! use secpb::core::system::SecureSystem;
//! use secpb::core::crash::{CrashKind, DrainPolicy};
//! use secpb::core::facade::PersistSystem;
//! use secpb::sim::config::SystemConfig;
//! use secpb::workloads::{TraceGenerator, WorkloadProfile};
//!
//! // Run a synthetic gamess-like workload on the COBCM scheme.
//! let profile = WorkloadProfile::named("gamess").unwrap();
//! let trace = TraceGenerator::new(profile, 42).generate(50_000);
//! let mut system = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 42);
//! let result = system.run_trace(trace);
//! assert!(result.ipc() > 0.0);
//!
//! // Crash, then verify the persisted state recovers byte-for-byte.
//! system.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll).expect("crash drain");
//! assert!(system.recover().is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use secpb_bench as bench;
pub use secpb_core as core;
pub use secpb_crypto as crypto;
pub use secpb_energy as energy;
pub use secpb_mem as mem;
pub use secpb_sim as sim;
pub use secpb_workloads as workloads;
