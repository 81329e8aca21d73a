//! Experiments beyond the paper's figures: the Paxson-phenomenon checks
//! its methodology leans on, the routing-policy ablation, and the overlay
//! evaluation (DESIGN.md §5/§5b). Each is a [`crate::experiments::REGISTRY`]
//! entry and runs through the same engine as the paper set; the ablation
//! generates spec-built datasets (UW3 once per routing mode) and the
//! overlay evaluation builds its own networks, and both ignore the study.

use detour_core::analysis::cdf::{compare_all_pairs, improvement_cdf, ratio_cdf};
use detour_core::analysis::{asymmetry, prevalence};
use detour_core::{AnalysisContext, Rtt, SearchDepth};
use detour_datasets::{generate, uw3, DatasetId, DatasetSpec, Scale};
use detour_netsim::sim::clock::SimTime;
use detour_netsim::{Era, HostId, Network, NetworkConfig, RoutingMode};
use detour_overlay::{evaluate, EvalConfig, Overlay, OverlayConfig};
use detour_prng::Xoshiro256pp;

use crate::render::{check, header, pct};
use crate::study::Study;

/// Temporal-dependence audit of the paper's §4.1 independence assumption.
pub fn independence_report(s: &Study) -> String {
    use detour_core::analysis::independence;
    let mut out = header("Extra: sample-independence audit (paper 4.1 assumption)");
    for key in [DatasetId::Uw3, DatasetId::D2] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        let r = independence::analyze(cx);
        out.push_str(&check(
            &format!("{name}: median lag-1 autocorrelation of per-path RTTs"),
            "positive (diurnal drift)",
            format!("{:+.2}", r.median_lag1()),
        ));
        out.push_str(&check(
            &format!("{name}: median effective/nominal sample-size ratio"),
            "< 1 (CIs optimistic)",
            format!("{:.2}", r.median_ess_ratio()),
        ));
    }
    out.push_str(
        "  (the paper argues the net bias of dependence is conservative; the\n   ratio above is the discount an exact analysis would apply to n)\n",
    );
    out
}

/// Fragility of the best alternate (paper 6.4's instability, k-best view).
pub fn sensitivity_report(s: &Study) -> String {
    use detour_core::analysis::sensitivity;
    let mut out = header("Extra: best-alternate sensitivity (k-best view)");
    let r = sensitivity::analyze(s.ctx(DatasetId::Uw3), &Rtt);
    out.push_str(&check(
        "pairs with a second distinct alternate",
        "nearly all",
        format!("{}", r.pairs.len()),
    ));
    out.push_str(&check(
        "median runner-up penalty vs the best detour",
        "small (the best is replaceable)",
        format!("{:+.1}%", 100.0 * r.gap_cdf.inverse(0.5).unwrap_or(0.0)),
    ));
    out.push_str(&check(
        "runner-up shares no host with the best",
        "common (diverse backups exist)",
        pct(r.disjoint_fraction),
    ));
    out
}

/// Routing asymmetry (Paxson 1996, cited in paper §2).
pub fn asymmetry_report(s: &Study) -> String {
    let mut out = header("Extra: routing asymmetry (Paxson-96 phenomenon)");
    for key in [DatasetId::Uw3, DatasetId::Uw1, DatasetId::D2] {
        let cx = s.ctx(key);
        let r = asymmetry::analyze(cx);
        out.push_str(&check(
            &format!(
                "{}: fraction of pairs with asymmetric AS routes",
                cx.dataset().name
            ),
            "large (Pax96: ~50% host-pair granularity)",
            format!(
                "{} of {} bidirectional pairs",
                pct(r.asymmetric_fraction()),
                r.pairs_bidirectional
            ),
        ));
    }
    out.push_str(
        "  (hot-potato egress selection makes forward and reverse router paths\n   diverge even when the AS sequence matches, so AS-level asymmetry is a\n   lower bound on path asymmetry)\n",
    );
    out
}

/// Route prevalence (Paxson 1996: paths dominated by a single route).
pub fn prevalence_report(s: &Study) -> String {
    let mut out = header("Extra: route prevalence (Paxson-96 phenomenon)");
    for key in [DatasetId::Uw3, DatasetId::D2] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        let r = prevalence::analyze(cx);
        out.push_str(&check(
            &format!("{name}: pairs dominated (>=90%) by one route"),
            "the vast majority",
            pct(r.dominated_fraction(0.9)),
        ));
        out.push_str(&check(
            &format!("{name}: pairs that ever saw a second route"),
            "a minority (route flaps)",
            format!("{} of {}", r.fluctuating_pairs(), r.dominance.len()),
        ));
    }
    out
}

/// One routing mode's row of the routing-policy ablation: the fractions
/// of UW3's measured pairs whose best alternate path beats the default
/// RTT at all, by at least 20 ms, and by at least 50 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationRow {
    /// The routing mode, as the report names it.
    pub label: &'static str,
    /// Pairs with any RTT improvement.
    pub better: f64,
    /// Pairs improved by at least 20 ms.
    pub better_by_20ms: f64,
    /// Pairs whose default RTT is at least 1.5× the alternate's.
    pub better_by_half: f64,
}

/// The DESIGN.md §5 routing-policy ablation: UW3's spec generated at
/// reduced scale once per routing mode — same era, seed and campaign,
/// only the path-selection rule differs — in the order policy with hot
/// potato (the measured Internet), policy with best exit, and ideal
/// shortest-delay routing (the negative control).
pub fn ablation() -> [AblationRow; 3] {
    [
        ("policy+hot-potato", RoutingMode::PolicyHotPotato),
        ("policy+best-exit", RoutingMode::PolicyBestExit),
        ("ideal shortest-delay", RoutingMode::GlobalShortestDelay),
    ]
    .map(|(label, mode)| {
        let spec = DatasetSpec {
            routing: mode,
            ..uw3::spec()
        };
        let ds = generate(&spec, Scale::reduced(22, 4));
        let cx = AnalysisContext::from_dataset(&ds);
        let cs = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
        let cdf = improvement_cdf(&cs);
        AblationRow {
            label,
            better: cdf.fraction_above(0.0),
            better_by_20ms: cdf.fraction_above(20.0),
            better_by_half: ratio_cdf(&cs).fraction_above(1.5),
        }
    })
}

/// The routing-policy ablation's report ([`ablation`]).
pub fn ablation_report(_s: &Study) -> String {
    let mut out = header("Extra: routing-policy ablation (reduced scale)");
    out.push_str(&format!(
        "  {:<22} {:>13} {:>13} {:>15}\n",
        "mode", "pairs better", ">=20ms", ">=50% better"
    ));
    for r in ablation() {
        out.push_str(&format!(
            "  {:<22} {:>12.1}% {:>12.1}% {:>14.1}%\n",
            r.label,
            100.0 * r.better,
            100.0 * r.better_by_20ms,
            100.0 * r.better_by_half,
        ));
    }
    out.push_str(&check(
        "ideal routing strips most large wins",
        "yes (negative control)",
        "see last row".to_string(),
    ));
    out
}

/// Overlay routing evaluated against default paths.
pub fn overlay_report(_s: &Study) -> String {
    let mut out = header("Extra: Detour/RON-style overlay evaluation");
    let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, 0xe41a, 2.0));
    let members: Vec<HostId> = net
        .hosts()
        .iter()
        .step_by(5)
        .take(8)
        .map(|h| h.id)
        .collect();
    let mut overlay = Overlay::new(members, OverlayConfig::default());
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let cfg = EvalConfig {
        duration_s: 2.0 * 3600.0,
        epoch_s: 180.0,
    };
    let r = evaluate(&net, &mut overlay, SimTime::from_hours(38.0), cfg, &mut rng);
    out.push_str(&check(
        "overlay vs default, mean RTT saving per pair-send",
        ">= 0 (hysteresis prevents harm)",
        format!("{:+.2} ms", r.mean_saving_ms()),
    ));
    out.push_str(&check(
        "pair-epochs choosing a detour",
        "a meaningful minority",
        format!("{} of {}", r.detours_selected, r.total),
    ));
    out.push_str(&check(
        "packets rescued vs sacrificed",
        "rescued >= sacrificed",
        format!("{} vs {}", r.overlay_rescued, r.overlay_dropped),
    ));

    // The probing-bill trade-off, evaluated on an outage-prone network:
    // fresh estimates buy outage *detection* (rescues). Mean latency saving
    // is less sensitive to staleness — persistent congestion stays where it
    // was, so even old estimates route around it (the paper's long-term
    // averages work for the same reason).
    let mut outage_cfg = NetworkConfig::for_era(Era::Y1999, 0xe41a, 2.0);
    outage_cfg.load.outages.mtbf_s = 86_400.0 / 2.0; // two a day
    outage_cfg.load.outages.mttr_s = 10.0 * 60.0;
    let flaky = Network::generate(&outage_cfg);
    let members: Vec<HostId> = flaky
        .hosts()
        .iter()
        .step_by(5)
        .take(8)
        .map(|h| h.id)
        .collect();
    let sweep = detour_overlay::interval_sweep(
        &flaky,
        members,
        &[30.0, 120.0, 600.0],
        SimTime::from_hours(12.0),
        EvalConfig {
            duration_s: 3.0 * 3600.0,
            epoch_s: 180.0,
        },
        &mut rng,
    );
    out.push_str(&format!(
        "  {:<16} {:>10} {:>10} {:>10} {:>13}   (outage-prone net)\n",
        "probe interval", "probes/s", "win rate", "rescued", "sacrificed"
    ));
    for p in &sweep {
        out.push_str(&format!(
            "  {:>13.0} s {:>10.2} {:>9.0}% {:>10} {:>13}\n",
            p.probe_interval_s,
            p.budget.probes_per_second,
            100.0 * p.report.win_rate(),
            p.report.overlay_rescued,
            p.report.overlay_dropped,
        ));
    }
    out
}
