//! # secpb-sim — simulation kernel for the SecPB memory-system model
//!
//! This crate provides the deterministic building blocks shared by every
//! other crate in the workspace:
//!
//! * [`cycle`] — the [`Cycle`] time base and nanosecond conversions at a
//!   configurable core frequency,
//! * [`addr`] — physical [`Address`]es and cache-block arithmetic
//!   (64-byte blocks throughout, per the paper's Table I),
//! * [`changelog`] — changed-key logs that let an in-memory rewind point
//!   copy only the map entries written since its last sync,
//! * [`config`] — the full system configuration from Table I of the paper
//!   with a builder for sweeps,
//! * [`stats`] — typed-handle counters and log-2 histograms used for
//!   PPTI/NWPE style measurements,
//! * [`tracer`] — exact per-phase cycle attribution; individual spans
//!   leave only through an attached telemetry ring,
//! * [`json`] — the dependency-free JSON value used by every exporter,
//! * [`event`] — a small deterministic event wheel used by the drain engine,
//! * [`fault`] — deterministic fault-injection plans (crash triggers,
//!   battery brown-outs, NVM bit flips) interpreted by the model crates,
//! * [`fxhash`] — a deterministic multiply-rotate hasher (`FxHashMap`) for
//!   the trusted-key hot-path maps, also the basis of per-cell seed
//!   derivation,
//! * [`pool`] — a dependency-free work-stealing scoped-thread pool that
//!   fans index spaces out and reassembles results in canonical order,
//! * [`rng`] — a seedable SplitMix64/xoshiro256** generator so simulations
//!   are reproducible without pulling `rand` into the model crates,
//! * [`telemetry`] — the live telemetry plane: a lock-free SPSC ring of
//!   histogram samples, spans and crash/recovery markers attachable to
//!   [`stats`]/[`tracer`] as a pure observer, plus the
//!   [`telemetry::HealthSnapshot`] fold and
//!   [`telemetry::ChromeTraceStream`], the one Chrome trace-event writer,
//! * [`trace`] — the trace record types produced by `secpb-workloads` and
//!   consumed by `secpb-core`,
//! * [`wire`] — the little-endian offset-tracking codec checkpoint
//!   images are built from.
//!
//! # Example
//!
//! ```
//! use secpb_sim::cycle::Cycle;
//! use secpb_sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::default();
//! // PCM read latency from Table I: 55 ns at 4 GHz = 220 cycles.
//! assert_eq!(cfg.nvm.read_latency, Cycle(220));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod changelog;
pub mod config;
pub mod cycle;
pub mod event;
pub mod fault;
pub mod fxhash;
pub mod json;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod tracer;
pub mod wire;

pub use addr::{Address, BlockAddr, BLOCK_SIZE};
pub use config::SystemConfig;
pub use cycle::Cycle;
pub use fxhash::{FxHashMap, FxHashSet};
pub use json::Json;
pub use stats::Stats;
pub use telemetry::{TelemetryEvent, TelemetryReader, TelemetrySink};
pub use tracer::{Phase, Tracer};
