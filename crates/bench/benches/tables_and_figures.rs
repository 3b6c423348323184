//! Wrapper over the table/figure regenerators at reduced scale: one
//! benchmark per experiment so `cargo bench` exercises every
//! reproduction path and reports its cost.  (The full-resolution runs
//! are `secpb repro table4`/`fig6`/.../`fig9`.)

use secpb_bench::experiments::{fig6, fig7, fig8, fig9, table5, table6};
use secpb_bench::micro::bench_once;
use secpb_sim::pool;

/// Small instruction budget: these benches verify the experiment paths
/// and give a cost estimate, not publication numbers.
const QUICK: u64 = 10_000;

fn main() {
    bench_once("experiments/table4_fig6_quick", 3, || {
        let study = fig6(QUICK, pool::default_jobs());
        assert_eq!(study.rows.len(), 18);
        study.averages.len()
    });

    bench_once("experiments/fig7_size_sweep_quick", 3, || {
        let sweep = fig7(QUICK, pool::default_jobs());
        assert_eq!(sweep.sizes.len(), 7);
        sweep.averages.len()
    });

    bench_once("experiments/fig8_bmt_updates_quick", 3, || {
        let study = fig8(QUICK, pool::default_jobs());
        assert!(study.averages[0] > 0.0);
        study.averages.len()
    });

    bench_once("experiments/fig9_bmf_quick", 3, || {
        let study = fig9(QUICK, pool::default_jobs());
        assert_eq!(study.variants.len(), 4);
        study.averages.len()
    });

    bench_once("experiments/table5_battery", 3, || {
        let rows = table5(32);
        assert_eq!(rows.len(), 9);
        rows.len()
    });

    bench_once("experiments/table6_battery_sweep", 3, || {
        let rows = table6();
        assert_eq!(rows.len(), 7);
        rows.len()
    });
}
