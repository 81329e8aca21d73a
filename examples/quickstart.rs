//! Quickstart: the paper's headline experiment in ~60 lines.
//!
//! Generates a reduced UW3-style dataset over the simulated Internet,
//! builds the measurement graph, and asks for every host pair: *is there an
//! alternate path through other measured hosts that beats the default?*
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use detour::core::analysis::cdf::{compare_all_pairs, improvement_cdf, ratio_cdf, summarize};
use detour::core::{AnalysisContext, Loss, Rtt, SearchDepth};
use detour::datasets::DatasetId;

fn main() {
    // A reduced instance (20 hosts, 1/4 of the 7-day trace) generates in a
    // couple of seconds; swap in `generate(Scale::full())` for paper scale.
    println!("generating a reduced UW3 dataset over the simulated Internet...");
    let ds = DatasetId::Uw3.generate_scaled(20, 4);
    let c = ds.characteristics();
    println!(
        "dataset {}: {} hosts, {} measurements, {:.0}% of paths covered\n",
        c.name, c.hosts, c.measurements, c.coverage_pct
    );

    // One shared context: the pair table (the graph) builds once here, and
    // each metric's weight matrix builds once on first use below.
    let cx = AnalysisContext::from_dataset(&ds);

    // --- Round-trip time (the paper's Figures 1-2) ---
    let rtt_cmp = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
    let rtt = summarize(&rtt_cmp, 20.0);
    let ratios = ratio_cdf(&rtt_cmp);
    println!("round-trip time across {} host pairs:", rtt.pairs);
    println!(
        "  {:>5.1}%  have a faster alternate path",
        100.0 * rtt.frac_better
    );
    println!(
        "  {:>5.1}%  improve by 20 ms or more",
        100.0 * rtt.frac_significantly_better
    );
    println!(
        "  {:>5.1}%  improve by 50% or more (ratio >= 1.5)",
        100.0 * ratios.fraction_above(1.5)
    );

    // --- Loss rate (the paper's Figure 3) ---
    let loss_cmp = compare_all_pairs(&cx, &Loss, SearchDepth::Unrestricted);
    let loss = summarize(&loss_cmp, 0.05);
    println!("\nloss rate across {} host pairs:", loss.pairs);
    println!(
        "  {:>5.1}%  have a lower-loss alternate path",
        100.0 * loss.frac_better
    );
    println!(
        "  {:>5.1}%  improve by 5 percentage points or more",
        100.0 * loss.frac_significantly_better
    );

    // --- One concrete detour, spelled out ---
    let best = rtt_cmp
        .iter()
        .max_by(|a, b| a.improvement().partial_cmp(&b.improvement()).unwrap())
        .expect("at least one comparison");
    let name = |h| {
        ds.hosts
            .iter()
            .find(|m| m.id == h)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("{h:?}"))
    };
    println!("\nlargest single win:");
    println!("  {} -> {}", name(best.pair.src), name(best.pair.dst));
    println!("  default path:   {:>7.1} ms", best.default_value);
    println!(
        "  via {:<28} {:>7.1} ms  ({:+.1} ms)",
        best.via
            .iter()
            .map(|&h| name(h))
            .collect::<Vec<_>>()
            .join(" -> "),
        best.alternate_value,
        -best.improvement()
    );

    // A CDF like the paper's Figure 1, as text.
    let cdf = improvement_cdf(&rtt_cmp);
    println!("\nCDF of RTT improvement (default - best alternate):");
    for (x, y) in cdf.sample_grid(-50.0, 100.0, 15) {
        let bar = "#".repeat((y * 40.0).round() as usize);
        println!("  {x:>7.1} ms  {y:>5.2}  {bar}");
    }
}
