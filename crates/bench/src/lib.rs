//! # secpb-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper's evaluation
//! (Section VI), each reached through `secpb repro <artifact>`
//! ([`repro`]):
//!
//! | Artifact | Module entry point | Command |
//! |----------|--------------------|---------|
//! | Table IV — average slowdowns, 32-entry SecPB | [`experiments::table4`] | `secpb repro table4` |
//! | Figure 6 — per-benchmark execution time | [`experiments::fig6`] | `secpb repro fig6` |
//! | Table V — battery sizes per scheme | [`experiments::table5`] | `secpb repro table5` |
//! | Table VI — battery vs SecPB size | [`experiments::table6`] | `secpb repro table6` |
//! | Figure 7 — execution time vs SecPB size (CM) | [`experiments::fig7`] | `secpb repro fig7` |
//! | Figure 8 — BMT root updates, normalized to sec_wt | [`experiments::fig8`] | `secpb repro fig8` |
//! | Figure 9 — BMF study (DBMF/SBMF) | [`experiments::fig9`] | `secpb repro fig9` |
//! | §VI-B IPC validation (gamess, NoGap) | [`analytic`] | `secpb repro validate-ipc` |
//! | Design-choice ablations | [`experiments::ablation_coalescing`] and siblings | `secpb repro ablations` |
//! | Workload reuse characterization | [`secpb_workloads::characterize`] | `secpb repro characterize` |
//! | Recovery-latency vs write-amp curve | [`recovery_sweep`] | `secpb recover-sweep` |
//!
//! The [`report`] module renders results as aligned text tables; each
//! artifact also dumps machine-readable JSON next to its table when asked
//! (`--json FILE`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod experiments;
pub mod micro;
pub mod recovery_sweep;
pub mod report;
pub mod repro;
pub mod serve;
pub mod soak;
pub mod storm;
pub mod watch;
