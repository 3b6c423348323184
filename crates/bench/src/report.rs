//! Plain-text table rendering for `secpb repro` and the bench binaries.
//!
//! Every regenerator prints rows shaped like the paper's tables; these
//! helpers keep the columns aligned without pulling in a table crate.

use std::fmt::Write as _;

/// Renders a table with a header row and aligned columns.
///
/// # Example
///
/// ```
/// use secpb_bench::report::render_table;
///
/// let t = render_table(
///     &["model", "slowdown"],
///     &[vec!["cobcm".into(), "1.3%".into()], vec!["nogap".into(), "118.4%".into()]],
/// );
/// assert!(t.contains("cobcm"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged row: {row:?}");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", render_row(&header_cells));
    let _ = writeln!(out, "{rule}");
    for row in rows {
        let _ = writeln!(out, "{}", render_row(row));
    }
    out
}

/// Formats a slowdown ratio as the paper's overhead percentage
/// (1.713 → `"71.3%"`).
pub fn overhead_pct(slowdown: f64) -> String {
    format!("{:.1}%", (slowdown - 1.0) * 100.0)
}

/// Formats a slowdown as a multiplier when large (18.2×) or a percentage
/// when small, matching how the paper mixes both.
pub fn slowdown_label(slowdown: f64) -> String {
    if slowdown >= 3.0 {
        format!("{slowdown:.1}x")
    } else {
        overhead_pct(slowdown)
    }
}

/// Formats a battery volume in mm³ with sensible precision.
pub fn mm3(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a horizontal ASCII bar chart — the terminal rendition of the
/// paper's figures.
///
/// Bars scale to the largest value; each row shows the label, the bar,
/// and the numeric value.
///
/// # Example
///
/// ```
/// use secpb_bench::report::bar_chart;
///
/// let chart = bar_chart(&[("cobcm".into(), 1.013), ("nogap".into(), 2.184)], 40);
/// assert!(chart.contains("nogap"));
/// ```
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            " {label:<label_w$} |{} {value:.3}",
            "#".repeat(bar_len)
        );
    }
    out
}

/// Renders a multi-series chart (one bar group per label), used for the
/// size sweeps where each benchmark has one value per SecPB size.
pub fn grouped_chart(series: &[&str], rows: &[(String, Vec<f64>)], width: usize) -> String {
    let max = rows
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(0.0f64, f64::max);
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(series.iter().map(|s| s.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, values) in rows {
        let _ = writeln!(out, " {label}:");
        for (name, value) in series.iter().zip(values) {
            let bar_len = if max > 0.0 {
                ((value / max) * width as f64).round() as usize
            } else {
                0
            };
            let _ = writeln!(
                out,
                "   {name:<label_w$} |{} {value:.3}",
                "#".repeat(bar_len)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long_header"],
            &[
                vec!["xxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn overhead_formatting() {
        assert_eq!(overhead_pct(1.013), "1.3%");
        assert_eq!(overhead_pct(2.184), "118.4%");
        assert_eq!(slowdown_label(18.2), "18.2x");
        assert_eq!(slowdown_label(1.148), "14.8%");
    }

    #[test]
    fn mm3_precision() {
        assert_eq!(mm3(3706.0), "3706");
        assert_eq!(mm3(4.89), "4.89");
        assert_eq!(mm3(0.049), "0.049");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(&[("a".into(), 1.0), ("b".into(), 2.0)], 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].matches('#').count(), 5);
        assert_eq!(lines[1].matches('#').count(), 10);
        assert!(lines[1].contains("2.000"));
    }

    #[test]
    fn bar_chart_handles_zero_and_empty() {
        let chart = bar_chart(&[("a".into(), 0.0)], 10);
        assert!(!chart.contains('#'));
        assert_eq!(bar_chart(&[], 10), "");
    }

    #[test]
    fn grouped_chart_lists_series_per_row() {
        let chart = grouped_chart(
            &["8e", "32e"],
            &[
                ("gcc".into(), vec![2.0, 1.0]),
                ("mcf".into(), vec![1.0, 1.0]),
            ],
            8,
        );
        assert!(chart.contains("gcc:"));
        assert!(chart.contains("8e"));
        assert_eq!(chart.lines().count(), 6);
    }
}
