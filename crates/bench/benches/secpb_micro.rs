//! Microbenchmarks for the SecPB core: per-store simulation throughput
//! under each scheme, drain costs, crash/recovery walks, and in-memory
//! rewind points.

use std::time::Instant;

use secpb_bench::micro::{bench, bench_measured, bench_once, black_box};
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_sim::addr::Address;
use secpb_sim::config::SystemConfig;
use secpb_sim::trace::{Access, TraceItem};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

fn bench_store_throughput() {
    for scheme in [Scheme::Bbb, Scheme::Cobcm, Scheme::Cm, Scheme::NoGap] {
        let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 1);
        let mut i = 0u64;
        bench(&format!("simulated_store/{}", scheme.name()), || {
            i += 1;
            // 16-block hot set: mostly coalescing hits.
            let addr = Address(0x10_0000 + (i % 16) * 64);
            sys.step(black_box(TraceItem::then(9, Access::store(addr, i))));
        });
    }
}

fn bench_workload_replay() {
    for scheme in [Scheme::Bbb, Scheme::Cobcm, Scheme::NoGap] {
        let profile = WorkloadProfile::named("gcc").unwrap();
        bench_once(
            &format!("replay_10k_instructions/{}", scheme.name()),
            10,
            || {
                let trace = TraceGenerator::new(profile.clone(), 3).generate(10_000);
                let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 3);
                sys.run_trace(black_box(trace))
            },
        );
    }
}

fn bench_crash_recovery() {
    bench_once("crash_and_recover/cobcm_2k_blocks", 10, || {
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 9);
        let trace: Vec<TraceItem> = (0..2000u64)
            .map(|i| TraceItem::then(4, Access::store(Address(0x10_0000 + i * 64), i)))
            .collect();
        sys.run_trace(trace);
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        let report = sys.recover();
        assert!(report.is_consistent());
        report.blocks_checked
    });
}

/// A serve shard's rewind-point costs on a gamess COBCM DBMF system
/// warmed with 1M instructions: a snapshot into an empty slot (a new
/// twin and a whole copy), a refresh of the same slot after one synced
/// 1024-item epoch, and a rewind after one.
fn bench_rewind_points() {
    let profile = WorkloadProfile::named("gamess").unwrap();
    let mut generator = TraceGenerator::new(profile, 11);
    let mut sys =
        SecureSystem::with_tree(SystemConfig::default(), Scheme::Cobcm, TreeKind::Dbmf, 11);
    sys.run_trace(generator.stream(1_000_000));
    sys.sync_metadata();
    let trace = generator.generate(2_000_000);
    let mut epochs = trace.chunks_exact(1024).cycle();
    let mut run_epoch = |sys: &mut SecureSystem| {
        sys.run_trace(epochs.next().unwrap().iter().copied());
        sys.sync_metadata();
    };

    bench_measured("rewind_point/first_snapshot", 10, || {
        let mut slot = None;
        let start = Instant::now();
        sys.snapshot_into(&mut slot);
        start.elapsed()
    });
    let mut slot = None;
    sys.snapshot_into(&mut slot);
    bench_measured("rewind_point/refresh_after_1024_item_epoch", 50, || {
        run_epoch(&mut sys);
        let start = Instant::now();
        sys.snapshot_into(&mut slot);
        start.elapsed()
    });
    let snapshot = slot.expect("a snapshot was taken");
    bench_measured("rewind_point/rewind_after_1024_item_epoch", 50, || {
        run_epoch(&mut sys);
        let start = Instant::now();
        sys.rewind(&snapshot).unwrap();
        start.elapsed()
    });
}

fn bench_trace_generation() {
    let profile = WorkloadProfile::named("gamess").unwrap();
    let mut seed = 0u64;
    bench("generate_100k_instructions", || {
        seed += 1;
        TraceGenerator::new(profile.clone(), seed)
            .generate(100_000)
            .len()
    });
    // The streaming path feeds run_trace without materializing a Vec —
    // the delta vs the bench above is the allocation/copy cost saved per
    // experiment cell.
    let mut seed = 0u64;
    bench("stream_100k_instructions", || {
        seed += 1;
        TraceGenerator::new(profile.clone(), seed)
            .stream(100_000)
            .count()
    });
    let mut seed = 0u64;
    bench("replay_streamed_10k/cobcm", || {
        seed += 1;
        let mut generator = TraceGenerator::new(profile.clone(), seed);
        let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, seed);
        sys.run_trace(generator.stream(10_000)).cycles
    });
}

fn bench_grid_engine() {
    use secpb_bench::experiments::{run_grid, GridCell};
    let cells: Vec<GridCell> = ["gamess", "povray", "milc", "soplex"]
        .iter()
        .flat_map(|n| {
            [Scheme::Bbb, Scheme::Cobcm, Scheme::Cm, Scheme::NoGap]
                .into_iter()
                .map(|s| GridCell::new(WorkloadProfile::named(n).unwrap(), s, 20_000))
        })
        .collect();
    let serial_ns = bench_once("grid_16_cells/serial", 3, || run_grid(&cells, 1).len());
    let jobs = secpb_sim::pool::default_jobs();
    let parallel_ns = bench_once(&format!("grid_16_cells/{jobs}_jobs"), 3, || {
        run_grid(&cells, jobs).len()
    });
    println!(
        "\ngrid speedup at {jobs} jobs: {:.2}x",
        serial_ns / parallel_ns.max(0.01)
    );
}

fn main() {
    bench_store_throughput();
    bench_workload_replay();
    bench_crash_recovery();
    bench_rewind_points();
    bench_trace_generation();
    bench_grid_engine();
}
