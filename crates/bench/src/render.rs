//! Plain-text rendering of figure data.
//!
//! Every experiment report is plain monospace text: a compact CDF grid per
//! curve (the same series a plotting tool would consume), plus the headline
//! numbers the paper's prose quotes.

use std::borrow::Borrow;

use detour_stats::Cdf;

/// Renders a family of labelled CDFs sampled on a common grid, one column
/// per curve. The series may own or borrow their labels and curves.
///
/// The output mirrors the paper's figures: x in metric units, columns in
/// cumulative fraction.
pub fn cdf_grid<S: AsRef<str>, C: Borrow<Cdf>>(
    series: &[(S, C)],
    lo: f64,
    hi: f64,
    rows: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>12}", "x"));
    for (label, _) in series {
        out.push_str(&format!(" {:>14}", label.as_ref()));
    }
    out.push('\n');
    for i in 0..=rows {
        let x = lo + (hi - lo) * i as f64 / rows as f64;
        out.push_str(&format!("{x:>12.3}"));
        for (_, cdf) in series {
            out.push_str(&format!(" {:>14.4}", cdf.borrow().eval(x)));
        }
        out.push('\n');
    }
    out
}

/// One "paper vs measured" line for EXPERIMENTS.md-style reports.
pub fn check(label: &str, paper: &str, measured: String) -> String {
    format!("  {label:<52} paper: {paper:<22} measured: {measured}\n")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// Section header.
pub fn header(title: &str) -> String {
    format!(
        "\n=== {title} {}\n",
        "=".repeat(66usize.saturating_sub(title.len()))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_shape() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0]);
        let s = cdf_grid(&[("a", &c), ("b", &c)], 0.0, 4.0, 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 rows
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        // Final row at x=4 must read 1.0 for both curves.
        assert!(lines[5].matches("1.0000").count() == 2);
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(0.333), "33%");
        assert_eq!(pct(1.0), "100%");
    }

    #[test]
    fn check_is_aligned() {
        let line = check("fraction better", "30-55%", "42%".to_string());
        assert!(line.contains("paper: 30-55%"));
        assert!(line.contains("measured: 42%"));
    }
}
