//! Shard-determinism contract of the multi-tenant persist service.
//!
//! The service promises that a shard's outcome is a pure function of
//! `(its tenants' traces, its shard seed)`: the same tenants produce
//! byte-identical shard stats and recovery verdicts at shard counts 1,
//! 2, and 4, with telemetry on and off, at any worker count.  These
//! tests pin that promise, plus the QoS epoch bound and the trace-file
//! ingest error contract.

use secpb_bench::serve::{
    run_serve, PrivilegeToken, QosClass, ServeConfig, ServeError, ServeOutcome, TenantSpec,
};
use secpb_workloads::{trace_io, TraceGenerator, WorkloadProfile};

/// The four-tenant population used throughout (mixed QoS classes).
fn tenants() -> Vec<TenantSpec> {
    let token = PrivilegeToken::acquire();
    let mut cfg = ServeConfig::new(1);
    for (i, (bench, qos)) in [
        ("gamess", QosClass::Gold),
        ("milc", QosClass::Silver),
        ("povray", QosClass::Bronze),
        ("hmmer", QosClass::Silver),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("t{i}-{bench}");
        cfg.tenants.push(TenantSpec::synthetic(
            &name,
            WorkloadProfile::named(bench).expect("known benchmark"),
            5_000,
        ));
        cfg.set_qos(&name, *qos, &token).expect("tenant just added");
    }
    cfg.tenants
}

fn serve(shards: usize, telemetry: bool, tenants: Vec<TenantSpec>) -> ServeOutcome {
    let mut cfg = ServeConfig::new(shards);
    cfg.epoch_len = 192;
    cfg.telemetry = telemetry;
    cfg.tenants = tenants;
    run_serve(&cfg).expect("serve run succeeds")
}

/// `(member names, digest, recovery verdict)` for every populated shard.
fn shard_digests(out: &ServeOutcome) -> Vec<(Vec<String>, String, bool)> {
    out.shards
        .iter()
        .filter(|s| !s.tenants.is_empty())
        .map(|s| (s.tenants.clone(), s.digest(), s.recovery_consistent))
        .collect()
}

#[test]
fn single_tenant_is_byte_identical_at_shard_counts_1_2_4() {
    let spec = vec![TenantSpec::synthetic(
        "solo",
        WorkloadProfile::named("gamess").unwrap(),
        5_000,
    )];
    let mut reference: Option<(String, bool)> = None;
    for shards in [1usize, 2, 4] {
        for telemetry in [false, true] {
            let out = serve(shards, telemetry, spec.clone());
            let populated = shard_digests(&out);
            assert_eq!(populated.len(), 1, "one tenant occupies exactly one shard");
            let (_, digest, consistent) = &populated[0];
            assert!(consistent, "{shards} shards: recovery must be consistent");
            match &reference {
                None => reference = Some((digest.clone(), *consistent)),
                Some((ref_digest, ref_consistent)) => {
                    assert_eq!(
                        digest, ref_digest,
                        "shard digest diverged at {shards} shards, telemetry={telemetry}"
                    );
                    assert_eq!(consistent, ref_consistent);
                }
            }
        }
    }
}

#[test]
fn every_populated_shard_matches_a_solo_rerun_of_its_tenants() {
    let population = tenants();
    for shards in [2usize, 4] {
        for telemetry in [false, true] {
            let out = serve(shards, telemetry, population.clone());
            for (members, digest, consistent) in shard_digests(&out) {
                // Re-run just this shard's tenants on a 1-shard
                // service: the shard seed derives from member names, so
                // the outcome must be byte-identical.
                let subset: Vec<TenantSpec> = members
                    .iter()
                    .map(|name| {
                        population
                            .iter()
                            .find(|t| &t.name == name)
                            .expect("member is a known tenant")
                            .clone()
                    })
                    .collect();
                let solo = serve(1, false, subset);
                let solo_digests = shard_digests(&solo);
                assert_eq!(solo_digests.len(), 1);
                assert_eq!(
                    digest,
                    solo_digests[0].1,
                    "shard [{}] at {shards} shards (telemetry={telemetry}) \
                     diverged from its solo re-run",
                    members.join(",")
                );
                assert_eq!(consistent, solo_digests[0].2);
            }
        }
    }
}

#[test]
fn worker_count_never_changes_shard_outcomes() {
    let population = tenants();
    let run = |workers: usize| {
        let mut cfg = ServeConfig::new(4);
        cfg.epoch_len = 192;
        cfg.workers = workers;
        cfg.tenants = population.clone();
        let out = run_serve(&cfg).expect("serve run succeeds");
        shard_digests(&out)
    };
    let reference = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(
            run(workers),
            reference,
            "outcome changed with workers={workers}"
        );
    }
}

#[test]
fn stats_not_just_digests_are_identical_across_shard_counts() {
    // The digest test could in principle hide a weak hash; compare the
    // raw stats tables of a single tenant's shard across shard counts.
    let spec = vec![TenantSpec::synthetic(
        "solo",
        WorkloadProfile::named("milc").unwrap(),
        5_000,
    )];
    let pick = |out: &ServeOutcome| {
        out.shards
            .iter()
            .find(|s| !s.tenants.is_empty())
            .map(|s| (s.stats.clone(), s.items, s.epochs, s.sync_hashes))
            .expect("tenant occupies one shard")
    };
    let a = pick(&serve(1, false, spec.clone()));
    let b = pick(&serve(2, true, spec.clone()));
    let c = pick(&serve(4, false, spec));
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn qos_quotas_bound_every_epoch_and_are_never_violated() {
    let out = serve(2, false, tenants());
    assert_eq!(out.total_qos_violations(), 0);
    assert_eq!(out.total_anomalies(), 0);
    assert!(out.consistent());
    for t in &out.tenants {
        assert!(
            t.max_items_in_epoch <= t.quota as u64,
            "tenant {} exceeded its epoch quota",
            t.name
        );
        // A throttled class spreads the same items over more epochs.
        assert_eq!(t.epochs_used, t.items.div_ceil(t.quota as u64));
    }
    // Bronze gets a quarter of Gold's quota.
    let quota_of = |qos: QosClass| {
        out.tenants
            .iter()
            .find(|t| t.qos == qos)
            .map(|t| t.quota)
            .expect("class present")
    };
    assert_eq!(quota_of(QosClass::Gold), 4 * quota_of(QosClass::Bronze));
}

#[test]
fn trace_file_tenants_replay_deterministically() {
    let dir = std::env::temp_dir().join("secpb_serve_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenant.spb");
    let trace = TraceGenerator::new(WorkloadProfile::named("mcf").unwrap(), 7).generate(4_000);
    let file = std::fs::File::create(&path).unwrap();
    trace_io::write_trace(std::io::BufWriter::new(file), &trace).unwrap();

    let spec = vec![TenantSpec::from_file(
        "replay",
        path.to_str().expect("utf-8 temp path"),
    )];
    let a = shard_digests(&serve(1, false, spec.clone()));
    let b = shard_digests(&serve(4, true, spec));
    assert_eq!(a, b, "file-backed tenant diverged across shard counts");
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_trace_file_reports_item_and_byte_offset() {
    let dir = std::env::temp_dir().join("secpb_serve_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.spb");
    // A valid header + one item, then truncate mid-record.
    let trace = TraceGenerator::new(WorkloadProfile::named("mcf").unwrap(), 7).generate(500);
    let mut bytes = Vec::new();
    trace_io::write_trace(&mut bytes, &trace).unwrap();
    bytes.truncate(bytes.len() - 3);
    std::fs::write(&path, &bytes).unwrap();

    let spec = vec![TenantSpec::from_file(
        "broken",
        path.to_str().expect("utf-8 temp path"),
    )];
    let mut cfg = ServeConfig::new(1);
    cfg.tenants = spec;
    let err = run_serve(&cfg).expect_err("truncated trace must fail startup");
    assert!(
        matches!(&err, ServeError::Tenant { tenant, .. } if tenant == "broken"),
        "typed error names the tenant: {err:?}"
    );
    let text = err.to_string();
    assert!(text.contains("broken"), "names the tenant: {text}");
    assert!(
        text.contains("item") && text.contains("byte offset"),
        "carries the item index and byte offset: {text}"
    );
    std::fs::remove_file(&path).ok();
}
