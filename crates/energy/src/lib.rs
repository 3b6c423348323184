//! # secpb-energy — battery and drain-energy models
//!
//! The analytical energy model of Section V-B and Tables III/V/VI of the
//! paper: how much energy a battery (or supercapacitor) must provision to
//! drain a SecPB — or, for (secure) eADR, the entire cache hierarchy — and
//! finish every in-flight memory-tuple update on a crash.
//!
//! It prices the system model's own types: a [`Scheme`] from
//! `secpb-core` (its early work and entry footprint) for the worst case,
//! and a crash's [`DrainWork`] for what a drain actually cost, with
//! Table I's geometry read from `secpb-sim`'s default configuration.
//!
//! * [`constants`] — Table III energy costs and the battery energy
//!   densities,
//! * [`battery`] — battery technologies, volume, and core-area-ratio
//!   arithmetic,
//! * [`drain`] — worst-case per-entry drain energy for every scheme, plus
//!   the eADR / secure-eADR whole-hierarchy models (Table V) and the
//!   SecPB-size sweep (Table VI),
//! * [`runtime`] — converting the *measured* crash-drain work reported by
//!   the system model into joules, for comparison against the
//!   worst-case provisioning.
//!
//! [`Scheme`]: secpb_core::scheme::Scheme
//! [`DrainWork`]: secpb_core::crash::DrainWork
//!
//! # Example
//!
//! ```
//! use secpb_core::scheme::Scheme;
//! use secpb_energy::battery::BatteryTech;
//! use secpb_energy::drain::secpb_drain_energy;
//!
//! let joules = secpb_drain_energy(Scheme::Cobcm, 32);
//! let volume = BatteryTech::SuperCap.volume_mm3(joules);
//! assert!(volume > 4.0 && volume < 6.0); // Table V: 4.89 mm³
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod constants;
pub mod drain;
pub mod runtime;

pub use battery::BatteryTech;
