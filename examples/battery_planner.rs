//! Battery planner: given a supercapacitor/battery area budget, find the
//! laziest (fastest) SecPB scheme whose worst-case drain energy fits —
//! the design exercise of the paper's Section VI-C ("the best solution in
//! the performance-battery size trade off space depends on the cost and
//! form factor limitations").
//!
//! Run with:
//! `cargo run --release --example battery_planner [budget_pct_of_core] [entries] [tech]`
//!
//! e.g. `cargo run --release --example battery_planner 20 32 supercap`

use secpb::core::scheme::Scheme;
use secpb::energy::battery::BatteryTech;
use secpb::energy::drain::secpb_drain_energy;

/// Paper Table IV average overheads, used as the performance side of the
/// trade-off (a planning tool wants the published numbers, not a
/// simulation run).
const PERF_OVERHEAD_PCT: [(Scheme, f64); 6] = [
    (Scheme::Cobcm, 1.3),
    (Scheme::Obcm, 1.5),
    (Scheme::Bcm, 14.8),
    (Scheme::Cm, 71.3),
    (Scheme::M, 73.8),
    (Scheme::NoGap, 118.4),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget_pct: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(20.0);
    let entries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let tech = match args.get(2).map(String::as_str) {
        Some("lithin") | Some("li-thin") => BatteryTech::LiThin,
        _ => BatteryTech::SuperCap,
    };

    println!("budget : {budget_pct}% of core area ({tech})");
    println!("secpb  : {entries} entries\n");

    println!(
        " {:<7} | {:>12} | {:>10} | {:>9} | fits?",
        "scheme", "energy (uJ)", "vol (mm3)", "area %"
    );
    println!("{}", "-".repeat(60));
    let mut best: Option<(Scheme, f64)> = None;
    for (scheme, perf) in PERF_OVERHEAD_PCT {
        let joules = secpb_drain_energy(scheme, entries);
        let volume = tech.volume_mm3(joules);
        let area_pct = tech.core_area_ratio_pct(joules);
        let fits = area_pct <= budget_pct;
        println!(
            " {:<7} | {:>12.2} | {:>10.3} | {:>8.1}% | {}",
            scheme.name(),
            joules * 1e6,
            volume,
            area_pct,
            if fits { "yes" } else { "no" }
        );
        if fits {
            // Among fitting schemes, prefer the lowest runtime overhead.
            if best.is_none_or(|(_, p)| perf < p) {
                best = Some((scheme, perf));
            }
        }
    }
    println!();
    match best {
        Some((scheme, perf)) => println!(
            "recommendation: {} — lowest runtime overhead ({perf}% in the paper's Table IV) \
             within the battery budget",
            scheme.name()
        ),
        None => println!(
            "no SecPB scheme fits a {budget_pct}% budget at {entries} entries; \
             shrink the SecPB or switch battery technology"
        ),
    }
}
