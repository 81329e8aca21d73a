//! The declarative experiment registry.
//!
//! Each report — paper artifact, extra or fault sweep — is one
//! [`Experiment`]: an id, the derived artifacts it needs (stated as
//! [`Need`]s: a [`DatasetId`] and core's [`ArtifactKind`]), and a run
//! function over the shared [`Study`]. The engine ([`run_all`]) resolves
//! the union of the requested experiments' needs, prebuilds those
//! artifacts in parallel, then fans the experiments out concurrently —
//! each borrowing the same [`detour_core::AnalysisContext`]s and timed
//! under its own `experiment/<id>` span — and merges reports in request
//! order, so the output is byte-identical at every thread count
//! (`tests/golden_reports.rs` compares 1-, 2- and 8-worker runs with the
//! committed snapshots).
//!
//! Each report places the paper's published expectation beside the
//! measured value. The absolute numbers live on a simulated Internet and
//! will not match the 1995–1999 measurements; the *shapes* — who wins, by
//! what rough factor, where the crossovers sit — are the reproduction
//! targets (see EXPERIMENTS.md).

use detour_core::analysis::{
    aspop, cdf, confidence, contribution, episodes, hostremoval, median, propagation, timeofday,
};
use detour_core::ArtifactKind::{self, Bandwidth, Intervals, Weights};
use detour_core::{
    pool, AnalysisContext, Loss, LossComposition, MetricKind, PropDelay, Rtt, SearchDepth,
};
use detour_datasets::DatasetId;
use detour_stats::ttest::VerdictCounts;

use crate::extras;
use crate::render::{cdf_grid, check, header, pct};
use crate::study::Study;

/// One derived artifact an experiment consumes, in registry declarations:
/// which dataset's context, and which of its artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Need(pub DatasetId, pub ArtifactKind);

impl Need {
    /// Builds the named artifact in the study (idempotent).
    pub fn build(&self, study: &Study) {
        study.ctx(self.0).ensure(self.1);
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Identifier ("fig1", "table2", …).
    pub id: &'static str,
    /// The derived artifacts the run function touches. The engine
    /// prebuilds these; anything touched but not declared still works (the
    /// context builds it lazily) but serializes behind the experiment.
    pub needs: &'static [Need],
    /// The report generator.
    pub run: fn(&Study) -> String,
}

impl Experiment {
    const fn new(id: &'static str, needs: &'static [Need], run: fn(&Study) -> String) -> Self {
        Experiment { id, needs, run }
    }
}

/// The four datasets of the headline RTT/loss figures, in legend order.
const HEADLINE: [DatasetId; 4] = [
    DatasetId::Uw1,
    DatasetId::Uw3,
    DatasetId::D2Na,
    DatasetId::D2,
];

const HEADLINE_RTT: &[Need] = &[
    Need(DatasetId::Uw1, Weights(Rtt)),
    Need(DatasetId::Uw3, Weights(Rtt)),
    Need(DatasetId::D2Na, Weights(Rtt)),
    Need(DatasetId::D2, Weights(Rtt)),
];

const HEADLINE_LOSS: &[Need] = &[
    Need(DatasetId::Uw1, Weights(Loss)),
    Need(DatasetId::Uw3, Weights(Loss)),
    Need(DatasetId::D2Na, Weights(Loss)),
    Need(DatasetId::D2, Weights(Loss)),
];

/// Tables 2-3 read each headline dataset's pair intervals, which are built
/// from the same metric's weight matrix.
const HEADLINE_RTT_INTERVALS: &[Need] = &[
    Need(DatasetId::Uw1, Weights(Rtt)),
    Need(DatasetId::Uw3, Weights(Rtt)),
    Need(DatasetId::D2Na, Weights(Rtt)),
    Need(DatasetId::D2, Weights(Rtt)),
    Need(DatasetId::Uw1, Intervals(Rtt)),
    Need(DatasetId::Uw3, Intervals(Rtt)),
    Need(DatasetId::D2Na, Intervals(Rtt)),
    Need(DatasetId::D2, Intervals(Rtt)),
];

const HEADLINE_LOSS_INTERVALS: &[Need] = &[
    Need(DatasetId::Uw1, Weights(Loss)),
    Need(DatasetId::Uw3, Weights(Loss)),
    Need(DatasetId::D2Na, Weights(Loss)),
    Need(DatasetId::D2, Weights(Loss)),
    Need(DatasetId::Uw1, Intervals(Loss)),
    Need(DatasetId::Uw3, Intervals(Loss)),
    Need(DatasetId::D2Na, Intervals(Loss)),
    Need(DatasetId::D2, Intervals(Loss)),
];

const BANDWIDTH_N2: &[Need] = &[
    Need(DatasetId::N2, Bandwidth),
    Need(DatasetId::N2Na, Bandwidth),
];

const UW1_RTT: &[Need] = &[Need(DatasetId::Uw1, Weights(Rtt))];
const UW3_RTT: &[Need] = &[Need(DatasetId::Uw3, Weights(Rtt))];
const UW3_RTT_INTERVALS: &[Need] = &[
    Need(DatasetId::Uw3, Weights(Rtt)),
    Need(DatasetId::Uw3, Intervals(Rtt)),
];
const UW3_LOSS_INTERVALS: &[Need] = &[
    Need(DatasetId::Uw3, Weights(Loss)),
    Need(DatasetId::Uw3, Intervals(Loss)),
];
const UW3_PROP_RTT: &[Need] = &[
    Need(DatasetId::Uw3, Weights(PropDelay)),
    Need(DatasetId::Uw3, Weights(Rtt)),
];
const UW4B_RTT: &[Need] = &[Need(DatasetId::Uw4B, Weights(Rtt))];
const D2NA_RTT: &[Need] = &[Need(DatasetId::D2Na, Weights(Rtt))];

/// Every registered experiment: the paper artifacts in paper order
/// ([`ALL_EXPERIMENTS`]), then the six extras, then the fault sweep. This
/// is the order `figures all` runs and prints.
pub const REGISTRY: &[Experiment] = &[
    Experiment::new("table1", &[], table1),
    Experiment::new("fig1", HEADLINE_RTT, fig1),
    Experiment::new("fig2", HEADLINE_RTT, fig2),
    Experiment::new("fig3", HEADLINE_LOSS, fig3),
    Experiment::new("fig4", BANDWIDTH_N2, fig4),
    Experiment::new("fig5", BANDWIDTH_N2, fig5),
    Experiment::new("fig6", D2NA_RTT, fig6),
    Experiment::new("fig7", UW3_RTT_INTERVALS, fig7),
    Experiment::new("fig8", UW3_LOSS_INTERVALS, fig8),
    Experiment::new("table2", HEADLINE_RTT_INTERVALS, table2),
    Experiment::new("table3", HEADLINE_LOSS_INTERVALS, table3),
    // Figures 9-10 slice the dataset by time of day and rebuild throwaway
    // per-slice tables; they use no whole-dataset artifacts.
    Experiment::new("fig9", &[], fig9),
    Experiment::new("fig10", &[], fig10),
    Experiment::new("fig11", UW4B_RTT, fig11),
    Experiment::new("fig12", UW3_RTT, fig12),
    Experiment::new("fig13", UW3_RTT, fig13),
    Experiment::new("fig14", UW1_RTT, fig14),
    Experiment::new("fig15", UW3_PROP_RTT, fig15),
    Experiment::new("fig16", UW3_RTT, fig16),
    // Beyond the paper (DESIGN.md §5/§5b): the Paxson-phenomenon checks,
    // then the routing-policy ablation, which generates spec-built
    // datasets, and the overlay evaluation, which builds its own networks;
    // neither touches a study artifact.
    Experiment::new("asymmetry", &[], extras::asymmetry_report),
    Experiment::new("prevalence", &[], extras::prevalence_report),
    Experiment::new("independence", &[], extras::independence_report),
    Experiment::new("sensitivity", UW3_RTT, extras::sensitivity_report),
    Experiment::new("ablation", &[], extras::ablation_report),
    Experiment::new("overlay", &[], extras::overlay_report),
    // Self-contained: generates its own tiny faulted datasets, touching no
    // study artifact.
    Experiment::new("outage_sweep", &[], outage_sweep),
];

/// The paper's 19 artifacts, in paper order: the head of [`REGISTRY`], and
/// the set the `benchmark/` package times.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table3",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Dispatches one experiment by id.
pub fn run(id: &str, study: &Study) -> Option<String> {
    find(id).map(|e| (e.run)(study))
}

/// The union of the named experiments' needs, first-use ordered and
/// deduplicated. Unknown ids contribute nothing.
pub fn resolve_needs(ids: &[&str]) -> Vec<Need> {
    let mut union: Vec<Need> = Vec::new();
    for id in ids {
        for need in find(id).map_or(&[][..], |e| e.needs) {
            if !union.contains(need) {
                union.push(*need);
            }
        }
    }
    union
}

/// Builds every artifact in `needs` on the pool, under an
/// `engine/prebuild` span. Artifacts are independent, and `OnceLock`
/// makes each build idempotent, so order does not matter; afterwards,
/// experiments only ever *read* the caches.
pub fn prebuild(study: &Study, needs: &[Need]) {
    let _span = detour_obs::current().span("engine/prebuild");
    pool::parallel_map(needs, |need| need.build(study));
}

/// The parallel experiment engine: prebuilds the union of artifact needs,
/// runs the named experiments concurrently over the shared study, each
/// under its own `experiment/<id>` span, and returns their reports in
/// request order.
///
/// # Panics
/// On an unknown experiment id (callers validate ids against
/// [`REGISTRY`] first).
pub fn run_all(study: &Study, ids: &[&str]) -> Vec<String> {
    prebuild(study, &resolve_needs(ids));
    pool::parallel_map(ids, |id| {
        let e = find(id).unwrap_or_else(|| panic!("unknown experiment {id:?}"));
        let _span = detour_obs::current().span(&format!("experiment/{id}"));
        (e.run)(study)
    })
}

fn rtt_comparisons(cx: &AnalysisContext) -> Vec<detour_core::PathComparison> {
    cdf::compare_all_pairs(cx, &Rtt, SearchDepth::Unrestricted)
}

// ---------------------------------------------------------------------------
// Table 1 — dataset characteristics
// ---------------------------------------------------------------------------

/// Paper Table-1 reference rows: (dataset, method, days, hosts,
/// measurements, coverage %).
const TABLE1_PAPER: [(DatasetId, &str, f64, usize, usize, f64); 8] = [
    (DatasetId::D2Na, "traceroute", 48.0, 22, 14_896, 95.0),
    (DatasetId::D2, "traceroute", 48.0, 33, 35_109, 97.0),
    (DatasetId::N2Na, "tcpanaly", 44.0, 20, 7_582, 86.0),
    (DatasetId::N2, "tcpanaly", 44.0, 31, 18_274, 88.0),
    (DatasetId::Uw1, "traceroute", 34.0, 36, 54_034, 88.0),
    (DatasetId::Uw3, "traceroute", 7.0, 39, 94_420, 87.0),
    (DatasetId::Uw4A, "traceroute", 14.0, 15, 216_928, 100.0),
    (DatasetId::Uw4B, "traceroute", 14.0, 15, 9_169, 100.0),
];

/// Table 1: characteristics of the regenerated datasets vs. the paper's.
pub fn table1(s: &Study) -> String {
    let mut out = header("Table 1: dataset characteristics");
    out.push_str(&format!(
        "{:<8} {:<11} {:>6} {:>12} {:>10} | {:>6} {:>12} {:>10}\n",
        "dataset", "method", "hosts", "meas.", "coverage", "hosts", "meas.", "coverage"
    ));
    out.push_str(&format!(
        "{:<8} {:<11} {:>30} | {:>30}\n",
        "", "", "——— paper ———", "—— measured ——"
    ));
    for (id, method, _days, p_hosts, p_meas, p_cov) in TABLE1_PAPER {
        let (name, c) = (id.name(), s.ctx(id).dataset().characteristics());
        out.push_str(&format!(
            "{:<8} {:<11} {:>6} {:>12} {:>9.0}% | {:>6} {:>12} {:>9.1}%\n",
            name, method, p_hosts, p_meas, p_cov, c.hosts, c.measurements, c.coverage_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 1-3 — RTT and loss CDFs
// ---------------------------------------------------------------------------

/// Figure 1: CDF of mean-RTT difference (default − best alternate).
pub fn fig1(s: &Study) -> String {
    let mut out = header("Figure 1: RTT improvement CDF (UW1, UW3, D2-NA, D2)");
    // The four datasets analyze independently; the pool merges in input
    // order so the report is identical at any thread count.
    let comparisons = pool::parallel_map(&HEADLINE, |&key| rtt_comparisons(s.ctx(key)));
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let summary = cdf::summarize(cs, 20.0);
        out.push_str(&check(
            &format!("{name}: fraction with a faster alternate"),
            "30-55%",
            pct(summary.frac_better),
        ));
        out.push_str(&check(
            &format!("{name}: fraction improved >= 20 ms"),
            "a smaller fraction",
            pct(summary.frac_significantly_better),
        ));
        curves.push((name.clone(), cdf::improvement_cdf(cs)));
    }
    out.push_str(&cdf_grid(&curves, -50.0, 150.0, 20));
    out
}

/// Figure 2: CDF of the RTT ratio (default / best alternate).
pub fn fig2(s: &Study) -> String {
    let mut out = header("Figure 2: relative RTT improvement (UW1, UW3, D2-NA, D2)");
    let comparisons = pool::parallel_map(&HEADLINE, |&key| rtt_comparisons(s.ctx(key)));
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let ratios = cdf::ratio_cdf(cs);
        out.push_str(&check(
            &format!("{name}: fraction with >= 50% better latency"),
            "~10%",
            pct(ratios.fraction_above(1.5)),
        ));
        curves.push((name.clone(), ratios));
    }
    // The paper notes the D2 vs D2-NA imbalance "largely disappears" in
    // relative terms — visible in the grid below.
    out.push_str(&cdf_grid(&curves, 0.0, 3.0, 20));
    out
}

/// Figure 3: CDF of the mean-loss-rate difference.
pub fn fig3(s: &Study) -> String {
    let mut out = header("Figure 3: loss-rate improvement CDF (UW1, UW3, D2-NA, D2)");
    let comparisons = pool::parallel_map(&HEADLINE, |&key| {
        cdf::compare_all_pairs(s.ctx(key), &Loss, SearchDepth::Unrestricted)
    });
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let summary = cdf::summarize(cs, 0.05);
        out.push_str(&check(
            &format!("{name}: fraction with a lower-loss alternate"),
            "75-85%",
            pct(summary.frac_better),
        ));
        out.push_str(&check(
            &format!("{name}: fraction improved >= 5 pct points"),
            "5-50% (D2 highest)",
            pct(summary.frac_significantly_better),
        ));
        curves.push((name.clone(), cdf::improvement_cdf(cs)));
    }
    out.push_str(&cdf_grid(&curves, -0.05, 0.15, 20));
    out
}

// ---------------------------------------------------------------------------
// Figures 4-5 — bandwidth
// ---------------------------------------------------------------------------

/// Figure 4: CDF of the bandwidth difference (best one-hop alternate −
/// default), optimistic and pessimistic loss composition.
pub fn fig4(s: &Study) -> String {
    let mut out = header("Figure 4: bandwidth improvement CDF (N2, N2-NA)");
    let mut curves = Vec::new();
    for key in [DatasetId::N2, DatasetId::N2Na] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        for mode in [LossComposition::Pessimistic, LossComposition::Optimistic] {
            let cs = cdf::compare_all_pairs_bandwidth(cx, mode);
            let c = cdf::improvement_cdf(&cs);
            out.push_str(&check(
                &format!("{name} {}: fraction with more bandwidth", mode.label()),
                "70-80%",
                pct(c.fraction_above(0.0)),
            ));
            curves.push((format!("{name} {}", mode.label()), c));
        }
    }
    out.push_str(&cdf_grid(&curves, -100.0, 200.0, 20));
    out
}

/// Figure 5: CDF of the bandwidth ratio (alternate / default).
pub fn fig5(s: &Study) -> String {
    let mut out = header("Figure 5: relative bandwidth improvement (N2, N2-NA)");
    let mut curves = Vec::new();
    for key in [DatasetId::N2, DatasetId::N2Na] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        for mode in [LossComposition::Pessimistic, LossComposition::Optimistic] {
            let cs = cdf::compare_all_pairs_bandwidth(cx, mode);
            let ratios = cdf::ratio_cdf(&cs);
            out.push_str(&check(
                &format!("{name} {}: fraction with >= 3x bandwidth", mode.label()),
                "10-20%",
                pct(ratios.fraction_above(3.0)),
            ));
            curves.push((format!("{name} {}", mode.label()), ratios));
        }
    }
    out.push_str(&cdf_grid(&curves, 0.0, 6.0, 20));
    out
}

// ---------------------------------------------------------------------------
// Figure 6 — mean vs median
// ---------------------------------------------------------------------------

/// Figure 6: mean-based vs convolved-median-based improvement (D2-NA,
/// one-hop alternates).
pub fn fig6(s: &Study) -> String {
    let mut out = header("Figure 6: mean vs median RTT improvement (D2-NA, one-hop)");
    let cmp = median::analyze(s.ctx(DatasetId::D2Na));
    let gap = median::max_cdf_gap(&cmp, -50.0, 150.0, 200);
    // The paper's "negligible difference" is a visual judgment on a
    // ~200 ms-wide axis, so report the *horizontal* displacement between
    // the curves (how many ms apart matching quantiles sit), not just the
    // KS-style vertical gap, which exaggerates any shift where the CDF is
    // steep.
    let hshift = |q: f64| {
        cmp.mean_based.inverse(q).unwrap_or(0.0) - cmp.median_based.inverse(q).unwrap_or(0.0)
    };
    out.push_str(&check(
        "horizontal offset between curves at the quartiles",
        "negligible (~a few ms)",
        format!(
            "{:+.1} / {:+.1} / {:+.1} ms",
            hshift(0.25),
            hshift(0.5),
            hshift(0.75)
        ),
    ));
    out.push_str(&check(
        "max vertical gap between mean and median CDFs",
        "small",
        format!("{gap:.3}"),
    ));
    // The conclusion-level robustness check: does either statistic change
    // the headline fraction of improvable pairs?
    out.push_str(&check(
        "fraction improved, mean-based vs median-based",
        "same conclusion",
        format!(
            "{} vs {}",
            pct(cmp.mean_based.fraction_above(0.0)),
            pct(cmp.median_based.fraction_above(0.0)),
        ),
    ));
    out.push_str(&cdf_grid(
        &[("mean", &cmp.mean_based), ("median", &cmp.median_based)],
        -50.0,
        150.0,
        20,
    ));
    out
}

// ---------------------------------------------------------------------------
// Figures 7-8 and Tables 2-3 — confidence intervals
// ---------------------------------------------------------------------------

fn interval_report(cx: &AnalysisContext, metric: &MetricKind, unit: &str) -> String {
    let series = confidence::interval_cdf_series(cx.intervals(metric));
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12} {:>10} {:>12}   ({} improvement, every 8th path)\n",
        "improvement", "fraction", "95% ±", unit
    ));
    for (i, &(impr, frac, hw)) in series.iter().enumerate() {
        if i % 8 == 0 {
            out.push_str(&format!("{impr:>12.3} {frac:>10.3} {hw:>12.3}\n"));
        }
    }
    out
}

/// Figure 7: the Figure-1 CDF for UW3 with 95 % confidence error bars.
pub fn fig7(s: &Study) -> String {
    let mut out = header("Figure 7: RTT improvement with 95% CIs (UW3)");
    out.push_str(&check(
        "most paths have relatively tight error bounds",
        "yes",
        "see half-widths below".to_string(),
    ));
    out.push_str(&interval_report(s.ctx(DatasetId::Uw3), &Rtt, "ms"));
    out
}

/// Figure 8: the loss-rate CDF for UW3 with 95 % confidence error bars.
pub fn fig8(s: &Study) -> String {
    let mut out = header("Figure 8: loss improvement with 95% CIs (UW3)");
    out.push_str(&check(
        "loss error bars are wider than RTT's (binary samples)",
        "yes",
        "see half-widths below".to_string(),
    ));
    out.push_str(&interval_report(s.ctx(DatasetId::Uw3), &Loss, "rate"));
    out
}

fn verdict_row(name: &str, counts: &VerdictCounts, with_zero: bool) -> String {
    let (bet, ind, wor, zer) = counts.percentages();
    if with_zero {
        format!("{name:<8} {bet:>8.0}% {ind:>14.0}% {wor:>7.0}% {zer:>6.0}%\n")
    } else {
        format!("{name:<8} {bet:>8.0}% {ind:>14.0}% {wor:>7.0}%\n")
    }
}

/// Table 2: t-test classification for round-trip time.
pub fn table2(s: &Study) -> String {
    let mut out = header("Table 2: RTT t-test at 95% (UW1, UW3, D2-NA, D2)");
    out.push_str(&check(
        "alternate significantly better",
        "20-32%",
        "per-dataset rows below".to_string(),
    ));
    out.push_str(&format!(
        "{:<8} {:>9} {:>15} {:>8}\n",
        "dataset", "better", "indeterminate", "worse"
    ));
    for key in HEADLINE {
        let cx = s.ctx(key);
        let counts = confidence::verdict_table(cx.intervals(&Rtt));
        out.push_str(&verdict_row(&cx.dataset().name, &counts, false));
    }
    out
}

/// Table 3: t-test classification for loss rate (with the "zero" bucket).
pub fn table3(s: &Study) -> String {
    let mut out = header("Table 3: loss t-test at 95% (UW1, UW3, D2-NA, D2)");
    out.push_str(&format!(
        "{:<8} {:>9} {:>15} {:>8} {:>7}\n",
        "dataset", "better", "indeterminate", "worse", "zero"
    ));
    for key in HEADLINE {
        let cx = s.ctx(key);
        let counts = confidence::verdict_table(cx.intervals(&Loss));
        out.push_str(&verdict_row(&cx.dataset().name, &counts, true));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 9-10 — time of day
// ---------------------------------------------------------------------------

fn timeofday_report(cx: &AnalysisContext, metric: &MetricKind, lo: f64, hi: f64) -> String {
    let slices = timeofday::improvement_by_slice(cx, metric, SearchDepth::Unrestricted);
    let mut out = String::new();
    for (slice, cdf) in &slices {
        out.push_str(&format!(
            "  {:<12} pairs: {:>5}  better: {:>4}  median impr: {:>8.3}\n",
            slice.label(),
            cdf.len(),
            pct(cdf.fraction_above(0.0)),
            cdf.inverse(0.5).unwrap_or(0.0),
        ));
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        slices.iter().map(|(s, c)| (s.label(), c)).collect();
    out.push_str(&cdf_grid(&refs, lo, hi, 16));
    out
}

/// Figure 9: RTT improvement by time of day (UW3).
pub fn fig9(s: &Study) -> String {
    let mut out = header("Figure 9: RTT improvement by time of day (UW3)");
    out.push_str(&check(
        "effect occurs in every slice; strongest 06-12 PST",
        "yes",
        "see slice medians".to_string(),
    ));
    out.push_str(&timeofday_report(s.ctx(DatasetId::Uw3), &Rtt, -50.0, 100.0));
    out
}

/// Figure 10: loss improvement by time of day (UW3).
pub fn fig10(s: &Study) -> String {
    let mut out = header("Figure 10: loss improvement by time of day (UW3)");
    out.push_str(&check(
        "effect occurs in every slice; weekend/night weakest",
        "yes",
        "see slice medians".to_string(),
    ));
    out.push_str(&timeofday_report(s.ctx(DatasetId::Uw3), &Loss, -0.05, 0.15));
    out
}

// ---------------------------------------------------------------------------
// Figure 11 — episodes vs long-term average
// ---------------------------------------------------------------------------

/// Figure 11: UW4-B time-averaged vs UW4-A pair-averaged vs unaveraged.
pub fn fig11(s: &Study) -> String {
    let mut out = header("Figure 11: long-term average vs simultaneous (UW4)");
    let a = episodes::analyze(s.ctx(DatasetId::Uw4A), s.ctx(DatasetId::Uw4B), &Rtt);
    out.push_str(&format!("  episodes analyzed: {}\n", a.episodes));
    out.push_str(&check(
        "simultaneous finds (slightly) more improvement",
        "pair-avg >= time-avg",
        format!(
            "{} vs {}",
            pct(a.pair_averaged.fraction_above(0.0)),
            pct(a.time_averaged.fraction_above(0.0)),
        ),
    ));
    let tail_un =
        a.unaveraged.inverse(0.99).unwrap_or(0.0) - a.unaveraged.inverse(0.01).unwrap_or(0.0);
    let tail_pa =
        a.pair_averaged.inverse(0.99).unwrap_or(0.0) - a.pair_averaged.inverse(0.01).unwrap_or(0.0);
    out.push_str(&check(
        "unaveraged tail much broader than pair-averaged",
        "yes",
        format!("p1-p99 span {tail_un:.0} ms vs {tail_pa:.0} ms"),
    ));
    out.push_str(&cdf_grid(
        &[
            ("UW4-B", &a.time_averaged),
            ("pair-avg A", &a.pair_averaged),
            ("unavg A", &a.unaveraged),
        ],
        -100.0,
        150.0,
        20,
    ));
    out
}

// ---------------------------------------------------------------------------
// Figures 12-14 — hypothesis 1: is it a few hosts/ASes?
// ---------------------------------------------------------------------------

/// Figure 12: greedy removal of the "top ten" hosts (UW3, RTT).
pub fn fig12(s: &Study) -> String {
    let mut out = header("Figure 12: removing the top-ten hosts (UW3)");
    let a = hostremoval::greedy_removal(s.ctx(DatasetId::Uw3), &Rtt, 10);
    let (before, after) = hostremoval::improved_fractions(&a);
    out.push_str(&format!("  removed hosts: {:?}\n", a.removed));
    out.push_str(&check(
        "effect survives removing the ten most influential hosts",
        "curve shifts only modestly",
        format!("better {} -> {}", pct(before), pct(after)),
    ));
    out.push_str(&cdf_grid(
        &[("all hosts", &a.full), ("without top ten", &a.reduced)],
        -50.0,
        150.0,
        20,
    ));
    out
}

/// Figure 13: normalized per-host improvement contribution (UW3, RTT).
pub fn fig13(s: &Study) -> String {
    let mut out = header("Figure 13: per-host improvement contribution (UW3)");
    let a = contribution::analyze(s.ctx(DatasetId::Uw3), &Rtt);
    out.push_str(&check(
        "no heavy tail (no host with an outsized contribution)",
        "max share far below 1",
        format!("max single-host share {:.2}", contribution::max_share(&a)),
    ));
    out.push_str(&cdf_grid(&[("contribution", &a.cdf)], 0.0, 400.0, 16));
    out
}

/// Figure 14: AS appearances in default vs best alternate paths (UW1, RTT).
pub fn fig14(s: &Study) -> String {
    let mut out = header("Figure 14: AS scatter, default vs alternate (UW1)");
    let pts = aspop::analyze(s.ctx(DatasetId::Uw1), &Rtt);
    out.push_str(&check(
        "no AS substantially over-represented on either axis",
        "points hug the diagonal",
        format!(
            "log-correlation {:.2} over {} ASes",
            aspop::log_correlation(&pts).unwrap_or(f64::NAN),
            pts.len()
        ),
    ));
    out.push_str(&format!(
        "{:>8} {:>10} {:>11}\n",
        "AS", "default", "alternate"
    ));
    for p in &pts {
        out.push_str(&format!(
            "{:>8} {:>10} {:>11}\n",
            p.asn, p.default_count, p.alternate_count
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 15-16 — hypothesis 2: congestion vs propagation delay
// ---------------------------------------------------------------------------

/// Figure 15: propagation-delay improvement CDF vs the mean-RTT CDF (UW3).
pub fn fig15(s: &Study) -> String {
    let mut out = header("Figure 15: propagation vs mean-RTT improvement (UW3)");
    let c = propagation::propagation_cdfs(s.ctx(DatasetId::Uw3));
    out.push_str(&check(
        "superior alternates exist by propagation delay alone",
        "~50% of paths",
        pct(c.propagation.fraction_above(0.0)),
    ));
    out.push_str(&check(
        "magnitude is cut vs mean RTT (upper tail of improvements)",
        "substantially smaller",
        format!(
            "p90 {:.1} ms vs {:.1} ms",
            c.propagation.inverse(0.9).unwrap_or(0.0),
            c.mean_rtt.inverse(0.9).unwrap_or(0.0),
        ),
    ));
    out.push_str(&cdf_grid(
        &[("propagation", &c.propagation), ("mean rtt", &c.mean_rtt)],
        -100.0,
        150.0,
        20,
    ));
    out
}

/// Figure 16: Δtotal vs Δpropagation decomposition and six-group census
/// (UW3).
pub fn fig16(s: &Study) -> String {
    let mut out = header("Figure 16: propagation/queuing decomposition (UW3)");
    let d = propagation::decompose(s.ctx(DatasetId::Uw3));
    out.push_str(&format!(
        "  groups 1..6: {:?}  (n = {})\n",
        d.group_counts,
        d.points.len()
    ));
    out.push_str(&check(
        "group 3 nearly empty (few default wins with worse prop)",
        "very few paths",
        format!("{} paths", d.group_counts[2]),
    ));
    out.push_str(&check(
        "group 6 well populated (alternates dodging congestion)",
        "much more than group 3",
        format!("{} vs {}", d.group_counts[5], d.group_counts[2]),
    ));
    out.push_str(&check(
        "neither congestion nor propagation dominates alone",
        "mixed groups",
        format!(
            "typical(1,4): {}, prop-heavy(2,5): {}, queue-dodging(6): {}",
            d.group_counts[0] + d.group_counts[3],
            d.group_counts[1] + d.group_counts[4],
            d.group_counts[5],
        ),
    ));
    out
}

// ---------------------------------------------------------------------------
// outage_sweep — detour prevalence under injected failures (DESIGN.md §6e)
// ---------------------------------------------------------------------------

/// The fault-intensity grid the sweep walks. `0` is the fault-free
/// control; `1` matches the per-class defaults of
/// [`detour_faults::FaultConfig::with_intensity`]; the geometric tail
/// pushes into the regime where host downtime starves pairs below the
/// paper's minimum-sample filter.
const SWEEP_INTENSITIES: [f64; 4] = [0.0, 1.0, 4.0, 16.0];

/// Seed for the sweep's fault schedules and its simulated Internet.
const SWEEP_SEED: u64 = 0x6f75_7467; // "outg"

/// A small UW3-like collection the sweep regenerates per intensity: one
/// simulated day, a dozen NA traceroute hosts, paired exponential
/// requests. Small enough that four generations stay test-affordable,
/// long enough that ~1/day failure processes actually fire. It keeps
/// UW3's host filter and the paper's 30-sample minimum: the schedule
/// budgets ~2x that per directed pair, so the fault-free control passes
/// comfortably while heavy host downtime pushes pairs below it — which is
/// the effect the sweep exists to surface.
fn sweep_spec(faults: detour_faults::FaultConfig) -> detour_datasets::DatasetSpec {
    detour_datasets::DatasetSpec {
        name: "SWEEP",
        network_seed: SWEEP_SEED,
        campaign_seed: SWEEP_SEED ^ 1,
        duration_days: 1.0,
        n_hosts: 12,
        n_hosts_na: 12,
        schedule: detour_measure::Schedule::PairwiseExponentialPaired { mean_s: 20.0 },
        faults,
        ..detour_datasets::uw3::spec()
    }
}

/// Sweep: how the paper's headline result — 30-80 % of pairs have a
/// better alternate — degrades (or does not) as link, router, BGP, host,
/// and storm failures intensify. Each intensity regenerates the same
/// small collection with only the fault knob turned, then reruns the
/// Figure-1 analysis on whatever the degraded campaign still measured.
pub fn outage_sweep(_s: &Study) -> String {
    let mut out = header("Sweep: detour prevalence vs failure intensity");
    // Each intensity is an independent generate→analyze chain; the pool
    // merges in input order so the report is byte-identical at any thread
    // count (and the fault schedules themselves are pure functions of the
    // seed, so the whole table replays exactly).
    let rows = pool::parallel_map(&SWEEP_INTENSITIES, |&intensity| {
        let faults = detour_faults::FaultConfig::with_intensity(SWEEP_SEED ^ 2, intensity);
        let mut ds = detour_datasets::generate(&sweep_spec(faults), detour_datasets::Scale::full());
        ds.name = format!("SWEEP-x{intensity}");
        let cx = AnalysisContext::from_dataset(&ds);
        let deg = cx.degradation();
        let cs = rtt_comparisons(&cx);
        let summary = cdf::summarize(&cs, 20.0);
        (intensity, deg, cs.len(), summary)
    });
    out.push_str(&format!(
        "{:>10} {:>8} {:>9} {:>9} {:>8} {:>10}  {}\n",
        "intensity", "compared", "starved", "isolated", "better", ">=20ms", "health"
    ));
    for (intensity, deg, pairs, summary) in &rows {
        let (better, signif) = if *pairs == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                pct(summary.frac_better),
                pct(summary.frac_significantly_better),
            )
        };
        out.push_str(&format!(
            "{:>10} {:>8} {:>9} {:>9} {:>8} {:>10}  {}\n",
            intensity,
            pairs,
            deg.starved_pairs,
            deg.isolated_hosts,
            better,
            signif,
            deg.summary(),
        ));
    }
    let control = &rows[0];
    let heaviest = rows.last().expect("non-empty grid");
    out.push_str(&check(
        "fault-free control inside the paper's headline band",
        "30-80% better",
        pct(control.3.frac_better),
    ));
    out.push_str(&check(
        "faults starve pairs rather than silently vanishing",
        "starved/isolated grow with intensity",
        format!(
            "starved {} -> {}, isolated {} -> {}",
            control.1.starved_pairs,
            heaviest.1.starved_pairs,
            control.1.isolated_hosts,
            heaviest.1.isolated_hosts,
        ),
    ));
    out.push_str(&check(
        "the detour phenomenon survives on the measured remainder",
        "better-fraction stays in band",
        pct(heaviest.3.frac_better),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bundle;
    use detour_datasets::Scale;

    #[test]
    fn registry_is_paper_ids_then_extras_then_the_sweep() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        let (paper, rest) = ids.split_at(ALL_EXPERIMENTS.len());
        assert_eq!(paper, ALL_EXPERIMENTS);
        assert_eq!(
            rest,
            [
                "asymmetry",
                "prevalence",
                "independence",
                "sensitivity",
                "ablation",
                "overlay",
                "outage_sweep"
            ]
        );
    }

    #[test]
    fn unknown_ids_return_none() {
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        assert!(run("fig99", &s).is_none());
    }

    #[test]
    fn needs_union_dedups_in_first_use_order() {
        let needs = resolve_needs(&["fig1", "fig2", "fig12", "nonsense"]);
        assert_eq!(
            needs,
            vec![
                Need(DatasetId::Uw1, Weights(Rtt)),
                Need(DatasetId::Uw3, Weights(Rtt)),
                Need(DatasetId::D2Na, Weights(Rtt)),
                Need(DatasetId::D2, Weights(Rtt)),
            ]
        );
    }

    /// Sum of every `context/*_builds` counter — the old scalar
    /// `artifact_builds` reading, reconstructed from the recorder.
    fn total_builds(rec: &detour_obs::Recorder) -> u64 {
        [
            "context/table_builds",
            "context/weights_rtt_builds",
            "context/weights_loss_builds",
            "context/weights_prop_builds",
            "context/bandwidth_builds",
            "context/interval_builds",
        ]
        .iter()
        .map(|c| rec.counter(c))
        .sum()
    }

    #[test]
    fn engine_prebuilds_exactly_the_declared_artifacts() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        // Eight contexts eagerly build one table each.
        assert_eq!(rec.counter("context/table_builds"), 8);
        assert_eq!(total_builds(&rec), 8);
        let reports = run_all(&s, &["fig1", "fig2"]);
        assert_eq!(reports.len(), 2);
        // fig1 + fig2 share the same four RTT matrices; nothing builds twice.
        assert_eq!(rec.counter("context/weights_rtt_builds"), 4);
        assert_eq!(total_builds(&rec), 12);
        run_all(&s, &["fig1"]);
        assert_eq!(total_builds(&rec), 12, "warm rerun builds nothing");
    }

    #[test]
    fn engine_report_matches_sequential_runs() {
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        let ids = ["table1", "fig1", "fig9"];
        let engine = run_all(&s, &ids);
        for (id, report) in ids.iter().zip(&engine) {
            assert_eq!(run(id, &s).as_deref(), Some(report.as_str()), "{id}");
        }
    }

    /// Every artifact a study can hold.
    fn every_need() -> Vec<Need> {
        DatasetId::all()
            .iter()
            .flat_map(|&k| {
                [
                    Need(k, Weights(Rtt)),
                    Need(k, Weights(Loss)),
                    Need(k, Weights(PropDelay)),
                    Need(k, Intervals(Rtt)),
                    Need(k, Intervals(Loss)),
                    Need(k, Intervals(PropDelay)),
                    Need(k, Bandwidth),
                ]
            })
            .collect()
    }

    /// Each registry entry's `needs` name every study artifact its run
    /// touches: on a fresh study with only those prebuilt, the run builds
    /// nothing more. The counters cannot tell the study's builds from the
    /// private contexts `ablation` and `outage_sweep` build, so the study
    /// is probed after the run instead: every undeclared artifact must
    /// still record its one build. Each run also records its
    /// `experiment/<id>` span.
    #[test]
    fn every_entry_declares_the_study_artifacts_it_builds() {
        let bundle = Bundle::generate(Scale::reduced(8, 24));
        for e in REGISTRY {
            let s = Study::from_bundle(bundle.clone());
            prebuild(&s, e.needs);
            let rec = detour_obs::Recorder::new();
            let report = {
                let _obs = detour_obs::install(rec.clone());
                run_all(&s, &[e.id]).remove(0)
            };
            assert!(report.len() > 50, "{} report too short:\n{report}", e.id);
            let span = format!("experiment/{}", e.id);
            assert!(rec.snapshot().spans.contains_key(&span), "no span {span}");

            let probe = detour_obs::Recorder::new();
            let _obs = detour_obs::install(probe.clone());
            let undeclared: Vec<Need> = every_need()
                .into_iter()
                .filter(|n| !e.needs.contains(n))
                .collect();
            prebuild(&s, &undeclared);
            assert_eq!(
                total_builds(&probe),
                undeclared.len() as u64,
                "{} built a study artifact it does not declare",
                e.id
            );
        }
    }
}
