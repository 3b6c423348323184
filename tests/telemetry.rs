//! Integration tests for the live telemetry plane:
//!
//! 1. `secpb watch` streams at least one [`HealthSnapshot`] over a
//!    storm-style cell with zero model-invariant anomalies, and ring
//!    drops are carried on every snapshot (never silently truncated),
//! 2. attaching a telemetry ring to a grid cell changes **nothing** —
//!    the telemetered run's `RunResult` and recovery verdict are equal
//!    to the plain run's (events observe, never steer),
//! 3. the `HealthSnapshot` wire schema is stable: live snapshots carry
//!    exactly the field set of the checked-in golden snapshot, and the
//!    wire form round-trips exactly through the in-repo JSON parser.

use secpb::core::scheme::Scheme;
use secpb::sim::json::Json;
use secpb::sim::telemetry::HealthSnapshot;
use secpb_bench::experiments::GridCell;
use secpb_bench::storm::StormFront;
use secpb_bench::watch::{run_watch, WatchConfig};
use secpb_workloads::WorkloadProfile;

fn quick_cfg() -> WatchConfig {
    WatchConfig::new(
        StormFront::SecPb,
        Scheme::Cobcm,
        WorkloadProfile::named("gamess").unwrap(),
    )
    .quick()
}

#[test]
fn watch_streams_snapshots_with_zero_anomalies_and_accounted_drops() {
    let outcome = run_watch::<Vec<u8>, Vec<u8>>(&quick_cfg(), None, None).unwrap();
    assert!(!outcome.snapshots.is_empty(), "must stream >= 1 snapshot");
    assert_eq!(outcome.anomalies, 0);
    assert!(outcome.consistent);
    assert!(outcome.crashes > 0, "quick watch is storm-style");
    // Losslessness accounting: the final snapshot's drop counter equals
    // the ring's, and `lossy` mirrors it — drops are visible, not silent.
    let last = outcome.snapshots.last().unwrap();
    assert_eq!(last.dropped, outcome.dropped);
    assert_eq!(last.lossy, outcome.dropped > 0);
    // Snapshot sequence numbers are dense from 1.
    for (i, snap) in outcome.snapshots.iter().enumerate() {
        assert_eq!(snap.seq, i as u64 + 1);
    }
}

#[test]
fn telemetry_ring_does_not_steer_a_grid_cell() {
    let cell = GridCell::new(
        WorkloadProfile::named("povray").unwrap(),
        Scheme::Cobcm,
        30_000,
    );
    let (plain, plain_check) = cell.run_with_recovery();
    let (telemetered, tel_check, digest) = cell.run_with_recovery_telemetered();
    assert_eq!(
        plain, telemetered,
        "telemetry-on must be byte-identical to telemetry-off"
    );
    assert_eq!(plain_check, tel_check);
    assert!(digest.events > 0, "the ring must have carried events");
}

#[test]
fn health_snapshot_wire_form_round_trips_exactly() {
    let outcome = run_watch::<Vec<u8>, Vec<u8>>(&quick_cfg(), None, None).unwrap();
    for snap in &outcome.snapshots {
        let wire = snap.to_json().to_string();
        let parsed = Json::parse(&wire).expect("wire form parses");
        let back = HealthSnapshot::from_json(&parsed).expect("wire form decodes");
        assert_eq!(&back, snap, "round-trip must be exact, including floats");
    }
}

/// Collects every dotted field path of a JSON object tree, e.g.
/// `drain_latency.p50`.  Arrays contribute their element paths under the
/// array's own path.
fn field_paths(json: &Json, prefix: &str, out: &mut Vec<String>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.push(path.clone());
                field_paths(value, &path, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                field_paths(item, prefix, out);
            }
        }
        _ => {}
    }
}

#[test]
fn health_snapshot_schema_matches_the_checked_in_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_health_snapshot.json"
    );
    let golden_text = std::fs::read_to_string(golden_path).expect("golden snapshot present");
    let golden = Json::parse(golden_text.trim()).expect("golden parses");
    // The current reader must still accept the golden wire form.
    HealthSnapshot::from_json(&golden).expect("golden decodes with the current schema");

    let outcome = run_watch::<Vec<u8>, Vec<u8>>(&quick_cfg(), None, None).unwrap();
    let live = outcome.snapshots.last().unwrap().to_json();

    let mut golden_fields = Vec::new();
    field_paths(&golden, "", &mut golden_fields);
    let mut live_fields = Vec::new();
    field_paths(&live, "", &mut live_fields);
    assert_eq!(
        live_fields, golden_fields,
        "HealthSnapshot wire schema drifted from tests/golden_health_snapshot.json; \
         if the change is intentional, regenerate the golden with \
         `secpb watch gamess cobcm --quick --out <file>` and update this file"
    );
}
