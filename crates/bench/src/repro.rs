//! `secpb repro <artifact>`: regenerates one table or figure of the
//! paper's evaluation (Section VI) as aligned text tables, plus its
//! machine-readable JSON payload where the artifact has one.
//!
//! Every artifact is a pure function of its instruction budget; the
//! worker count only fans the cells out (results are byte-identical for
//! any `jobs`, see [`experiments::run_grid`]).  Table V and Table VI are
//! analytic (energy model only) and ignore both.

use std::fmt::Write as _;

use secpb_core::metrics::RunResult;
use secpb_core::scheme::Scheme;
use secpb_core::tree::TreeKind;
use secpb_sim::config::SystemConfig;
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_workloads::characterize::ReuseProfile;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::analytic::validate;
use crate::experiments::{self, run_benchmark, DEFAULT_INSTRUCTIONS as FULL};
use crate::report::{bar_chart, mm3, overhead_pct, render_table, slowdown_label};

/// Appends an artifact's text at a budget and worker count, returning
/// its JSON payload if it has one.
type Render = fn(out: &mut String, instructions: u64, jobs: usize) -> Option<Json>;

/// One reproducible artifact of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The command-line name.
    pub name: &'static str,
    /// The measurement budget per benchmark when none is given; zero
    /// for the analytic tables.
    pub default_instructions: u64,
    /// Whether the artifact has a `--json` payload.
    pub has_json: bool,
    render: Render,
}

const fn artifact(name: &'static str, budget: u64, has_json: bool, render: Render) -> Artifact {
    Artifact {
        name,
        default_instructions: budget,
        has_json,
        render,
    }
}

/// Every artifact, in the order `secpb repro` lists them.
pub const ARTIFACTS: [Artifact; 10] = [
    artifact("table4", FULL, true, table4),
    artifact("table5", 0, true, table5),
    artifact("table6", 0, true, table6),
    artifact("fig6", FULL, true, fig6),
    artifact("fig7", FULL, true, fig7),
    artifact("fig8", FULL, true, fig8),
    artifact("fig9", FULL, true, fig9),
    artifact("ablations", FULL / 4, false, ablations),
    artifact("characterize", FULL / 5, false, characterize),
    artifact("validate-ipc", FULL, false, validate_ipc),
];

/// A regenerated artifact.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// The rendered tables, charts and paper anchors.
    pub text: String,
    /// The machine-readable payload (`None` unless
    /// [`Artifact::has_json`]).
    pub json: Option<Json>,
}

impl Artifact {
    /// Looks an artifact up by its command-line name.
    ///
    /// # Errors
    ///
    /// An unknown name, with the list of known ones.
    pub fn named(name: &str) -> Result<Artifact, String> {
        ARTIFACTS
            .into_iter()
            .find(|a| a.name == name)
            .ok_or_else(|| {
                let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                format!("unknown artifact `{name}`; try: {}", names.join(", "))
            })
    }

    /// Regenerates the artifact at `instructions` per benchmark on
    /// `jobs` workers.
    pub fn reproduce(&self, instructions: u64, jobs: usize) -> Reproduction {
        let mut text = String::new();
        let json = (self.render)(&mut text, instructions, jobs);
        Reproduction { text, json }
    }
}

/// Appends a titled table — the title line, the aligned table, a blank
/// line — then each line of `notes`.
fn section<H: AsRef<str>>(
    out: &mut String,
    title: &str,
    headers: &[H],
    rows: &[Vec<String>],
    notes: &[&str],
) {
    let headers: Vec<&str> = headers.iter().map(AsRef::as_ref).collect();
    let _ = writeln!(out, "{title}\n{}", render_table(&headers, rows));
    for line in notes {
        let _ = writeln!(out, "{line}");
    }
}

/// `label`, then every value through `cell`.
fn row(label: &str, values: &[f64], cell: impl Fn(f64) -> String) -> Vec<String> {
    let mut cells = vec![label.to_owned()];
    cells.extend(values.iter().map(|&v| cell(v)));
    cells
}

fn three_places(v: f64) -> String {
    format!("{v:.3}")
}

fn one_place(v: f64) -> String {
    format!("{v:.1}")
}

fn table4(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let study = experiments::table4(instructions, jobs);
    let paper = [1.3, 1.5, 14.8, 71.3, 73.8, 118.4];
    let rows: Vec<Vec<String>> = study
        .averages
        .iter()
        .zip(paper)
        .map(|((s, v), p)| vec![s.name().to_owned(), overhead_pct(*v), format!("{p}%")])
        .collect();
    let title = "TABLE IV: performance overheads, 32-entry SecPB (geometric mean)";
    let headers = ["model", "slowdown (ours)", "slowdown (paper)"];
    section(out, title, &headers, &rows, &[]);
    let bars: Vec<(String, f64)> = study
        .averages
        .iter()
        .map(|(s, v)| (s.name().to_owned(), *v))
        .collect();
    let chart = bar_chart(&bars, 48);
    let _ = writeln!(out, "normalized execution time (1.0 = bbb):\n{chart}");
    Some(study.to_json())
}

fn table5(out: &mut String, _: u64, _: usize) -> Option<Json> {
    let rows = experiments::table5(32);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (v, a) = (r.volume_mm3, r.core_area_pct);
            let pct = |x: f64| format!("{x:.1}%");
            vec![r.system.clone(), mm3(v.0), mm3(v.1), pct(a.0), pct(a.1)]
        })
        .collect();
    let title = "TABLE V: energy-source size, 32-entry SecPB (per core)";
    let headers = [
        "system",
        "SuperCap mm3",
        "Li-Thin mm3",
        "SuperCap %core",
        "Li-Thin %core",
    ];
    let anchors = [
        "paper anchors: cobcm 4.89/0.049, bcm 4.72/0.047, nogap 0.28/0.003,",
        "               s_eadr 3706/37.06, bbb 0.07/0.001, eadr 149.32/1.490",
    ];
    section(out, title, &headers, &table, &anchors);
    Some(experiments::battery_rows_to_json(&rows))
}

fn table6(out: &mut String, _: u64, _: usize) -> Option<Json> {
    let rows = experiments::table6();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (c, n) = (r.cobcm_mm3, r.nogap_mm3);
            vec![
                r.entries.to_string(),
                mm3(c.0),
                mm3(c.1),
                mm3(n.0),
                mm3(n.1),
            ]
        })
        .collect();
    let title = "TABLE VI: battery capacity (mm3) vs SecPB size";
    let headers = [
        "entries",
        "COBCM SuperCap",
        "COBCM Li-Thin",
        "NoGap SuperCap",
        "NoGap Li-Thin",
    ];
    let anchors = "paper anchors @32: COBCM 4.89/0.049, NoGap 0.28/0.003; \
                   @512: COBCM 76.10/0.761, NoGap 4.35/0.044";
    section(out, title, &headers, &table, &[anchors]);
    Some(experiments::battery_sweep_to_json(&rows))
}

fn fig6(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let study = experiments::fig6(instructions, jobs);
    let slowdowns = |pairs: &[(Scheme, f64)]| -> Vec<String> {
        pairs.iter().map(|&(_, v)| three_places(v)).collect()
    };
    let mut rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            let mut cells = row(&r.name, &[r.ppti, r.nwpe], one_place);
            cells.extend(slowdowns(&r.slowdowns));
            cells
        })
        .collect();
    let mut mean = vec!["geomean".to_owned(), String::new(), String::new()];
    mean.extend(slowdowns(&study.averages));
    rows.push(mean);
    let title = "FIGURE 6: execution time normalized to bbb (32-entry SecPB)";
    let mut headers = vec!["benchmark", "ppti", "nwpe"];
    headers.extend(study.schemes.iter().map(|s| s.name()));
    section(out, title, &headers, &rows, &[]);
    Some(study.to_json())
}

/// Figures 7 and 8: `benchmark | <size>e ...` headers and one row per
/// `(label, per-size values)`.
fn size_table(
    sizes: &[usize],
    rows: &[(String, Vec<f64>)],
    cell: fn(f64) -> String,
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(sizes.iter().map(|s| format!("{s}e")));
    let table = rows.iter().map(|(label, v)| row(label, v, cell)).collect();
    (headers, table)
}

fn fig7(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let sweep = experiments::fig7(instructions, jobs);
    let mut rows = sweep.rows.clone();
    rows.push(("geomean".to_owned(), sweep.averages.clone()));
    let (headers, table) = size_table(&sweep.sizes, &rows, three_places);
    let title = "FIGURE 7: CM execution time normalized to bbb, by SecPB size";
    let anchors = "paper anchors: ~2.12x at 8 entries, ~1.24x at 512 entries; \
                   diminishing returns past 32-64";
    section(out, title, &headers, &table, &[anchors]);
    Some(sweep.to_json())
}

fn fig8(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let study = experiments::fig8(instructions, jobs);
    let mut rows = study.rows.clone();
    rows.push(("mean".to_owned(), study.averages.clone()));
    let (headers, table) = size_table(&study.sizes, &rows, |v| format!("{:.1}%", v * 100.0));
    let title = "FIGURE 8: BMT root updates as a fraction of sec_wt's (one per store)";
    let anchors = "paper anchors: 12.7% at 8 entries, 1.8% at 512 entries";
    section(out, title, &headers, &table, &[anchors]);
    Some(study.to_json())
}

fn fig9(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let study = experiments::fig9(instructions, jobs);
    let mut rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|(name, vals)| row(name, vals, three_places))
        .collect();
    rows.push(row("geomean", &study.averages, slowdown_label));
    let title = "FIGURE 9: BMF study, execution time normalized to bbb";
    let mut headers = vec!["benchmark"];
    headers.extend(study.variants.iter().map(String::as_str));
    section(out, title, &headers, &rows, &[]);
    let bars: Vec<(String, f64)> = study
        .variants
        .iter()
        .cloned()
        .zip(study.averages.iter().copied())
        .collect();
    let chart = bar_chart(&bars, 48);
    let _ = writeln!(out, "geomean normalized execution time:\n{chart}");
    let _ = writeln!(
        out,
        "paper anchors: sp_dbmf 88.9%, sp_sbmf 3.43x, cm_dbmf 33.3%, cm_sbmf 56.6%\n\
         expected shape: cm_dbmf < cm_sbmf < sp_dbmf < sp_sbmf"
    );
    Some(study.to_json())
}

/// One row per scheme: its name, then the two overheads `study` measures.
fn scheme_pairs(schemes: &[Scheme], study: impl Fn(Scheme) -> (f64, f64)) -> Vec<Vec<String>> {
    schemes
        .iter()
        .map(|&s| {
            let (a, b) = study(s);
            vec![s.name().to_owned(), overhead_pct(a), overhead_pct(b)]
        })
        .collect()
}

fn ablations(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    // 1. Coalescing (most impactful for the eager schemes, Section IV-A).
    let mut rows = Vec::new();
    for scheme in [Scheme::Cm, Scheme::M, Scheme::NoGap] {
        let (on, off) = experiments::ablation_coalescing(scheme, instructions, jobs);
        let benefit = format!("{:.2}x", off / on);
        rows.push(vec![
            scheme.name().to_owned(),
            overhead_pct(on),
            overhead_pct(off),
            benefit,
        ]);
    }
    let title = "ABLATION 1: value-independent coalescing (Section IV-A)";
    let headers = ["scheme", "with (geomean)", "without", "benefit"];
    section(out, title, &headers, &rows, &[]);

    // 2. BMT pipelining on the early path.
    let rows = scheme_pairs(&[Scheme::Cm, Scheme::NoGap], |s| {
        experiments::ablation_bmt_pipelining(s, instructions, jobs)
    });
    let title = "ABLATION 2: one in-flight BMT update vs pipelined (early path)";
    section(out, title, &["scheme", "single", "pipelined"], &rows, &[]);

    // 3. Watermarks (COBCM lives off its drain engine).
    let pairs = [(0.9, 0.75), (0.75, 0.5), (0.5, 0.25)];
    let results = experiments::ablation_watermarks(Scheme::Cobcm, &pairs, instructions, jobs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|((h, l), v)| vec![format!("{h:.2}/{l:.2}"), overhead_pct(*v)])
        .collect();
    let title = "ABLATION 3: drain watermarks (COBCM)";
    section(out, title, &["high/low", "overhead"], &rows, &[]);

    // 4. Speculative vs blocking load verification (Section V-A).
    let rows = scheme_pairs(&[Scheme::Cobcm, Scheme::Cm], |s| {
        experiments::ablation_speculative_verification(s, instructions, jobs)
    });
    let title = "ABLATION 4: speculative vs blocking load verification";
    section(
        out,
        title,
        &["scheme", "speculative", "blocking"],
        &rows,
        &[],
    );
    None
}

/// One row per workload, each an independent cell on the pool.
fn per_workload(
    jobs: usize,
    cells: impl Fn(&str, &WorkloadProfile) -> Vec<String> + Sync,
) -> Vec<Vec<String>> {
    let names = WorkloadProfile::SPEC_NAMES;
    pool::run_indexed(names.len(), jobs, |i| {
        let profile = WorkloadProfile::named(names[i]).expect("known");
        cells(names[i], &profile)
    })
}

/// One run of `profile` on the default machine and monolithic tree.
fn run_default(profile: &WorkloadProfile, scheme: Scheme, instructions: u64) -> RunResult {
    let cfg = SystemConfig::default();
    run_benchmark(profile, scheme, cfg, TreeKind::Monolithic, instructions)
}

fn characterize(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let rows = per_workload(jobs, |name, profile| {
        let trace = TraceGenerator::new(profile.clone(), 1).generate(instructions);
        let reuse = ReuseProfile::of(&trace, &ReuseProfile::SECPB_BUCKETS);
        let run = run_default(profile, Scheme::Cobcm, instructions);
        let hit = |within: u64| format!("{:.0}%", reuse.hit_fraction_within(within) * 100.0);
        let mut cells = row(name, &[run.ppti()], one_place);
        cells.extend([hit(8), hit(32), hit(256)]);
        cells.extend([reuse.predicted_nwpe(32), run.nwpe()].map(one_place));
        cells
    });
    let title = "workload characterization (reuse distances of the store stream):";
    let headers = [
        "benchmark",
        "ppti",
        "hit<=8",
        "hit<=32",
        "hit<=256",
        "nwpe pred@32",
        "nwpe sim@32",
    ];
    let caveat = [
        "prediction uses ideal residency; the simulator's watermark draining",
        "shortens effective residency, so simulated NWPE trails the prediction.",
    ];
    section(out, title, &headers, &rows, &caveat);
    None
}

fn validate_ipc(out: &mut String, instructions: u64, jobs: usize) -> Option<Json> {
    let rows = per_workload(jobs, |name, profile| {
        let run = run_default(profile, Scheme::NoGap, instructions);
        let (est, measured, ratio) = validate(&run);
        let mut cells = row(name, &[run.ppti(), run.nwpe()], one_place);
        cells.extend([
            three_places(est),
            three_places(measured),
            format!("{ratio:.2}"),
        ]);
        cells
    });
    let title = "Analytical IPC model vs simulator (NoGap):";
    let headers = [
        "benchmark",
        "ppti",
        "nwpe",
        "est ipc",
        "measured ipc",
        "ratio",
    ];
    let anchors = [
        "paper anchor: gamess est 0.11, measured 0.13 (ratio 1.18);",
        "measured should exceed the estimate slightly (MAC/BMT overlap).",
    ];
    section(out, title, &headers, &rows, &anchors);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_and_unknowns_list_the_choices() {
        for artifact in ARTIFACTS {
            assert_eq!(Artifact::named(artifact.name).unwrap().name, artifact.name);
        }
        let err = Artifact::named("fig10").unwrap_err();
        assert!(
            err.contains("unknown artifact") && err.contains("validate-ipc"),
            "{err}"
        );
    }

    #[test]
    fn analytic_tables_carry_their_json_payload() {
        for name in ["table5", "table6"] {
            let artifact = Artifact::named(name).unwrap();
            assert_eq!(artifact.default_instructions, 0);
            let r = artifact.reproduce(0, 1);
            assert!(r.text.starts_with("TABLE V"), "{}", r.text);
            assert!(r.text.contains("paper anchors"), "{}", r.text);
            assert_eq!(r.json.is_some(), artifact.has_json);
        }
    }
}
