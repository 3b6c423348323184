//! Checkpoint/restore equivalence suite: getting a system back to epoch
//! N and replaying epochs N..M must be byte-identical to the
//! uninterrupted run — for every scheme, both metadata engines, and
//! every integrity-tree organisation, and both ways back: restoring
//! SPBC checkpoint bytes into a fresh system, or rewinding the system
//! to its own in-memory snapshot.  This is the contract the serve
//! plane's shard crash-recovery and the soak harness's restarts build
//! on: a crashed shard rewound to its last checkpoint and fed the
//! replayed epochs is indistinguishable from one that never crashed.

use secpb::core::checkpoint::Snapshot;
use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::facade::PersistSystem;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::core::tree::TreeKind;
use secpb::core::CheckpointError;
use secpb::sim::config::{MetadataMode, SystemConfig};
use secpb::sim::trace::TraceItem;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn epochs(workload: &str, seed: u64, n: usize, len: usize) -> Vec<Vec<TraceItem>> {
    // `generate` takes an instruction budget; each item covers several
    // instructions, so over-generate and slice into exactly `n` epochs
    // of `len` items.
    let profile = WorkloadProfile::named(workload).unwrap();
    let items = TraceGenerator::new(profile, seed).generate((n * len * 16) as u64);
    assert!(
        items.len() >= n * len,
        "trace too short for requested epochs"
    );
    items[..n * len].chunks(len).map(|c| c.to_vec()).collect()
}

fn build(mode: MetadataMode, scheme: Scheme, kind: TreeKind, seed: u64) -> SecureSystem {
    SecureSystem::with_tree(
        SystemConfig::default().with_metadata_mode(mode),
        scheme,
        kind,
        seed,
    )
}

/// Runs one epoch and syncs at its boundary (the serve plane's
/// observation point).
fn run_epoch(sys: &mut SecureSystem, epoch: &[TraceItem]) {
    sys.run_trace(epoch.iter().copied());
    sys.sync_metadata();
}

/// How a run gets back to its epoch-N capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resume {
    /// Restore the SPBC checkpoint bytes into a freshly built system.
    Restore,
    /// Rewind the run's own system to its in-memory snapshot.
    Rewind,
}

/// Runs `epochs` straight through on a system from `make`, capturing
/// epoch `n` both as checkpoint bytes and as a snapshot.  Then, for each
/// [`Resume`], gets back to epoch `n` — the resumed state must encode to
/// the captured bytes — and replays epochs `n+1..`, which must end
/// byte-identical to the straight-through run, policy state included.
/// The rewound system then rewinds and replays a second time from the
/// same snapshot, as a shard crashing twice between checkpoints does.
/// Returns the replayed systems for further checks.
fn check_resumes(
    label: &str,
    make: impl Fn() -> SecureSystem,
    epochs: &[Vec<TraceItem>],
    n: usize,
) -> Vec<(Resume, SecureSystem)> {
    let mut sys = make();
    let mut at_n = Vec::new();
    let mut snapshot: Option<Snapshot> = None;
    for (i, epoch) in epochs.iter().enumerate() {
        run_epoch(&mut sys, epoch);
        if i == n {
            at_n = sys.checkpoint_bytes();
            sys.snapshot_into(&mut snapshot);
        }
    }
    let straight = sys.checkpoint_bytes();
    let straight_policy = sys.policy_state().clone();
    let snapshot = snapshot.expect("epoch n was captured");

    let mut restored = make();
    restored.restore_bytes(&at_n).unwrap();
    sys.rewind(&snapshot).unwrap();
    let mut out = vec![(Resume::Restore, restored), (Resume::Rewind, sys)];
    for (how, resumed) in &mut out {
        let passes = if *how == Resume::Rewind { 2 } else { 1 };
        for pass in 1..=passes {
            if pass > 1 {
                resumed.rewind(&snapshot).unwrap();
            }
            assert_eq!(
                resumed.checkpoint_bytes(),
                at_n,
                "{label}/{how:?} #{pass}: resumed state differs from the epoch-{n} capture"
            );
            for epoch in &epochs[n + 1..] {
                run_epoch(resumed, epoch);
            }
            assert_eq!(
                resumed.checkpoint_bytes(),
                straight,
                "{label}/{how:?} #{pass}: resumed+replayed state diverged from straight-through"
            );
            assert_eq!(
                resumed.policy_state(),
                &straight_policy,
                "{label}/{how:?} #{pass}: policy state (shadow root / write-amp) diverged"
            );
        }
    }
    out
}

#[test]
fn restore_at_epoch_n_plus_replay_matches_straight_through_for_all_schemes() {
    for scheme in Scheme::ALL {
        for mode in [MetadataMode::Eager, MetadataMode::Lazy] {
            let epochs = epochs("milc", 0xC0FFEE ^ scheme as u64, 6, 1500);
            check_resumes(
                &format!("{scheme}/{}", mode.name()),
                || build(mode, scheme, TreeKind::Monolithic, 17),
                &epochs,
                2,
            );
        }
    }
}

#[test]
fn forest_trees_replay_identically_after_restore() {
    for kind in [TreeKind::Dbmf, TreeKind::Sbmf] {
        for mode in [MetadataMode::Eager, MetadataMode::Lazy] {
            let epochs = epochs("povray", 99, 5, 1200);
            check_resumes(
                &format!("{kind:?}/{}", mode.name()),
                || build(mode, Scheme::Cobcm, kind, 5),
                &epochs,
                1,
            );
        }
    }
}

#[test]
fn restored_system_survives_crash_and_recovery_identically() {
    // Crash/recovery verdicts after a restore or rewind plus replay must
    // match the uninterrupted run's: same drained work, same recovery
    // report.
    let epochs = epochs("hmmer", 3, 4, 1500);
    let make = || build(MetadataMode::Lazy, Scheme::Bcm, TreeKind::Monolithic, 31);
    let mut reference = make();
    for epoch in &epochs {
        run_epoch(&mut reference, epoch);
    }
    let ref_report = reference
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let ref_recovery = reference.recover();
    assert!(ref_recovery.is_consistent());

    for (how, mut resumed) in check_resumes("hmmer/bcm", make, &epochs, 1) {
        let report = resumed
            .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let recovery = resumed.recover();
        assert_eq!(report.work, ref_report.work, "{how:?}");
        assert_eq!(report.at, ref_report.at, "{how:?}");
        assert!(recovery.is_consistent(), "{how:?}");
        assert_eq!(
            recovery.blocks_checked, ref_recovery.blocks_checked,
            "{how:?}"
        );
        assert_eq!(
            resumed.nvm_store().bmt_root(),
            reference.nvm_store().bmt_root(),
            "{how:?}"
        );
    }
}

#[test]
fn policy_fronts_replay_identically_after_restore() {
    // The v2 checkpoint carries the persistence-policy section (shadow
    // root + write-amp counters), so the Triad and fast-recovery fronts
    // must satisfy the same restore@N + replay ≡ straight-through
    // contract as every baseline scheme — including the policy state the
    // recovery sweep reads.
    let fronts: [(&str, SystemConfig); 2] = [
        ("triad4", SystemConfig::default().with_triad_levels(4)),
        (
            "fastrec",
            SystemConfig::default().with_shadow_counters(true),
        ),
    ];
    for (name, cfg) in &fronts {
        for mode in [MetadataMode::Eager, MetadataMode::Lazy] {
            let epochs = epochs("milc", 0xFA57 ^ mode as u64, 5, 1500);
            let cfg = cfg.clone().with_metadata_mode(mode);
            let label = format!("{name}/{}", mode.name());
            let make = || {
                SecureSystem::build(cfg.clone(), Scheme::NoGap, TreeKind::Monolithic, 23).unwrap()
            };
            for (how, resumed) in check_resumes(&label, make, &epochs, 2) {
                assert!(resumed.recover().is_consistent(), "{label}/{how:?}");
            }
        }
    }
}

#[test]
fn policy_knobs_fingerprint_the_checkpoint() {
    // A checkpoint taken under one policy must not restore into a system
    // running another: the knobs are part of the config fingerprint.
    let plain = SecureSystem::new(SystemConfig::default(), Scheme::NoGap, 9);
    let bytes = plain.checkpoint_bytes();
    let mut triad = SecureSystem::build(
        SystemConfig::default().with_triad_levels(4),
        Scheme::NoGap,
        TreeKind::Monolithic,
        9,
    )
    .unwrap();
    assert_eq!(
        triad.restore_bytes(&bytes),
        Err(CheckpointError::ConfigMismatch)
    );
    let mut shadow = SecureSystem::build(
        SystemConfig::default().with_shadow_counters(true),
        Scheme::NoGap,
        TreeKind::Monolithic,
        9,
    )
    .unwrap();
    assert_eq!(
        shadow.restore_bytes(&bytes),
        Err(CheckpointError::ConfigMismatch)
    );
}

#[test]
fn facade_exposes_checkpoint_only_on_the_single_core_front() {
    let mut secure: Box<dyn PersistSystem> =
        Box::new(SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1));
    let bytes = secure.checkpoint().expect("single-core front checkpoints");
    secure.restore(&bytes).expect("single-core front restores");
    let mut slot = None;
    secure
        .snapshot_into(&mut slot)
        .expect("single-core front snapshots");
    let snapshot = slot.expect("a snapshot was taken");
    secure.rewind(&snapshot).expect("single-core front rewinds");

    let mut eadr: Box<dyn PersistSystem> = Box::new(secpb::core::eadr::EadrSystem::new(
        SystemConfig::default(),
        1,
    ));
    assert_eq!(eadr.checkpoint(), Err(CheckpointError::Unsupported));
    assert_eq!(eadr.restore(&bytes), Err(CheckpointError::Unsupported));
    let mut slot = None;
    assert_eq!(
        eadr.snapshot_into(&mut slot),
        Err(CheckpointError::Unsupported)
    );
    assert!(slot.is_none(), "an unsupported front leaves the slot alone");
    assert_eq!(eadr.rewind(&snapshot), Err(CheckpointError::Unsupported));

    let mut mc: Box<dyn PersistSystem> = Box::new(
        secpb::core::multicore::MultiCoreSystem::new(SystemConfig::default(), Scheme::Cobcm, 2, 1)
            .unwrap(),
    );
    assert_eq!(mc.checkpoint(), Err(CheckpointError::Unsupported));
    assert_eq!(
        mc.snapshot_into(&mut slot),
        Err(CheckpointError::Unsupported)
    );
    assert_eq!(mc.rewind(&snapshot), Err(CheckpointError::Unsupported));
}

#[test]
fn rewind_rejects_a_snapshot_of_a_differently_built_system() {
    let epochs = epochs("gcc", 4, 2, 800);
    let mut seed1 = build(MetadataMode::Lazy, Scheme::Cobcm, TreeKind::Dbmf, 1);
    run_epoch(&mut seed1, &epochs[0]);
    let mut slot = None;
    seed1.snapshot_into(&mut slot);

    let mut seed2 = build(MetadataMode::Lazy, Scheme::Cobcm, TreeKind::Dbmf, 2);
    run_epoch(&mut seed2, &epochs[1]);
    let before = seed2.checkpoint_bytes();
    assert_eq!(
        seed2.rewind(slot.as_ref().unwrap()),
        Err(CheckpointError::ConfigMismatch)
    );
    assert_eq!(
        seed2.checkpoint_bytes(),
        before,
        "a rejected rewind leaves the system untouched"
    );
    let mut other_scheme = build(MetadataMode::Lazy, Scheme::Cm, TreeKind::Dbmf, 1);
    assert_eq!(
        other_scheme.rewind(slot.as_ref().unwrap()),
        Err(CheckpointError::ConfigMismatch)
    );

    // Snapshotting into a slot that holds another system's snapshot
    // replaces it with one this system can rewind to.
    seed2.snapshot_into(&mut slot);
    run_epoch(&mut seed2, &epochs[0]);
    seed2.rewind(slot.as_ref().unwrap()).unwrap();
    assert_eq!(seed2.checkpoint_bytes(), before);
}

#[test]
fn checkpoint_of_restored_system_reproduces_original_bytes() {
    // Determinism of the capture itself: checkpoint → restore →
    // checkpoint is the identity on bytes, even mid-stream with live
    // SecPB occupancy and in-flight drains.
    let epochs = epochs("gcc", 8, 3, 2000);
    let mut sys = build(MetadataMode::Lazy, Scheme::Cobcm, TreeKind::Dbmf, 77);
    sys.run_trace(epochs[0].iter().copied());
    // No sync: leave lazy folds pending and drains in flight.
    let bytes = sys.checkpoint_bytes();
    let mut target = build(MetadataMode::Lazy, Scheme::Cobcm, TreeKind::Dbmf, 77);
    target.restore_bytes(&bytes).unwrap();
    assert_eq!(target.checkpoint_bytes(), bytes);
}
