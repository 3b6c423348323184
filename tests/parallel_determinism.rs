//! The parallel experiment engine's determinism contract, end to end:
//!
//! 1. on the full grid (every SPEC profile × BBB and the six SecPB
//!    schemes), every cell recovers consistently from a power loss, and
//!    `run_grid(cells, 4)` returns `RunResult`s **equal** to the serial
//!    sweep's — per-cell seed derivation makes every cell a pure
//!    function of its coordinates, so scheduling cannot leak in,
//! 2. a full table runner produces byte-identical ordered-JSON reports
//!    serially and in parallel,
//! 3. the streaming trace path yields exactly the items the materialized
//!    path does, so swapping `generate` for `stream` in the hot path is
//!    invisible to the simulated system,
//! 4. attaching telemetry rings changes neither side: a telemetered
//!    serial sweep equals the plain parallel grid cell for cell, and the
//!    merged registries render byte-identically.

use secpb_bench::experiments::{run_grid, table4, GridCell};
use secpb_core::scheme::Scheme;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

const QUICK: u64 = 30_000;

#[test]
fn full_grid_recovers_every_cell_and_four_jobs_equal_serial() {
    let cells: Vec<GridCell> = WorkloadProfile::spec_suite()
        .into_iter()
        .flat_map(|profile| {
            std::iter::once(Scheme::Bbb)
                .chain(Scheme::SECPB_SCHEMES)
                .map(move |s| GridCell::new(profile.clone(), s, QUICK))
        })
        .collect();
    // The serial sweep also crashes each cell (power loss, full drain)
    // and verifies its recovery, so a cell that persists garbage fails
    // here rather than only reporting cycles.
    let serial: Vec<_> = cells
        .iter()
        .map(|cell| {
            let (result, check) = cell.run_with_recovery();
            assert!(
                check.ok(),
                "{}/{}: {:?}",
                cell.profile.name,
                cell.scheme.name(),
                check.failure
            );
            result
        })
        .collect();
    // `run_indexed` spawns the four workers whatever the host's core
    // count, so this holds on a 1-core host too.
    let parallel = run_grid(&cells, 4);
    assert_eq!(serial, parallel, "parallel grid must replay the serial one");
}

#[test]
fn table4_report_is_byte_identical_serial_vs_parallel() {
    let serial = table4(QUICK, 1).to_json().to_pretty();
    let parallel = table4(QUICK, 4).to_json().to_pretty();
    assert_eq!(serial, parallel);
}

#[test]
fn telemetered_cells_match_the_parallel_grid_cell_for_cell() {
    let cells: Vec<GridCell> = ["gamess", "soplex"]
        .iter()
        .flat_map(|name| {
            [Scheme::Bbb, Scheme::Cobcm]
                .into_iter()
                .map(|s| GridCell::new(WorkloadProfile::named(name).unwrap(), s, QUICK))
        })
        .collect();
    // The parallel pool runs plain cells; the serial sweep runs each
    // cell with a live telemetry ring attached.  Telemetry events
    // observe and never steer, so the two sweeps must be equal.
    let parallel = run_grid(&cells, 4);
    for (cell, plain) in cells.iter().zip(&parallel) {
        let (telemetered, check, digest) = cell.run_with_recovery_telemetered();
        assert_eq!(
            &telemetered,
            plain,
            "{}/{}: telemetered serial != plain parallel",
            cell.profile.name,
            cell.scheme.name()
        );
        assert!(check.ok(), "{}: {:?}", cell.profile.name, check.failure);
        assert!(digest.events > 0, "the ring must have carried events");
        // The merged stats registries render byte-identically: the sink
        // never leaks into values, ordering, or the JSON export.
        assert_eq!(
            telemetered.stats.to_json().to_pretty(),
            plain.stats.to_json().to_pretty()
        );
    }
}

#[test]
fn streamed_traces_match_materialized_traces_item_for_item() {
    for name in ["gamess", "povray", "omnetpp"] {
        let profile = WorkloadProfile::named(name).unwrap();
        let materialized = TraceGenerator::new(profile.clone(), 7).generate(25_000);
        let mut generator = TraceGenerator::new(profile, 7);
        let streamed: Vec<_> = generator.stream(25_000).collect();
        assert_eq!(materialized, streamed, "{name}");
    }
}
