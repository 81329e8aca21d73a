//! ISP audit: which networks are implicated when default paths lose?
//!
//! The paper's §7.1 asks whether routing inefficiency concentrates in a few
//! hosts or ASes. This example runs that audit the way an operator would:
//! measure, find the pairs with superior alternates, and attribute the
//! default path's loss to the ASes it crossed — then cross-check against
//! the per-AS appearance counts of Figure 14.
//!
//! ```text
//! cargo run --release --example isp_audit
//! ```

use std::collections::HashMap;

use detour::core::analysis::aspop;
use detour::core::analysis::cdf::compare_all_pairs;
use detour::core::{AnalysisContext, Rtt, SearchDepth};
use detour::datasets::DatasetId;

fn main() {
    println!("generating a reduced UW1 dataset (public traceroute servers)...");
    let ds = DatasetId::Uw1.generate_scaled(24, 4);
    let cx = AnalysisContext::from_dataset(&ds);
    let table = cx.table();

    let comparisons = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
    let losers: Vec<_> = comparisons.iter().filter(|c| c.alternate_wins()).collect();
    println!(
        "{} of {} measured pairs have a faster alternate\n",
        losers.len(),
        comparisons.len()
    );

    // Attribute each losing default path to the transit ASes it crossed
    // (endpoints excluded: the stub ASes can't route around themselves).
    let mut blame_ms: HashMap<u16, f64> = HashMap::new();
    let mut appearances: HashMap<u16, usize> = HashMap::new();
    for cmp in &losers {
        let (Some(s), Some(d)) = (
            table.host_index(cmp.pair.src),
            table.host_index(cmp.pair.dst),
        ) else {
            continue;
        };
        let path = cx.modal_as_path(s, d);
        if path.len() <= 2 {
            continue;
        }
        for &asn in &path[1..path.len() - 1] {
            *blame_ms.entry(asn).or_default() += cmp.improvement();
            *appearances.entry(asn).or_default() += 1;
        }
    }

    let mut ranked: Vec<(u16, f64)> = blame_ms.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("transit ASes on losing default paths, by summed forgone improvement:");
    println!("{:>6} {:>12} {:>10}   note", "AS", "ms forgone", "paths");
    for (asn, ms) in ranked.iter().take(10) {
        println!(
            "{asn:>6} {ms:>12.0} {:>10}   {}",
            appearances[asn],
            if *ms > ranked[0].1 * 0.5 {
                "heavily implicated"
            } else {
                ""
            }
        );
    }

    // Cross-check against the Figure-14 view: if inefficiency were the
    // fault of a few rogue ASes, their alternate-path counts would crater
    // relative to their default-path counts. The paper (and this model)
    // find they do not.
    let points = aspop::analyze(&cx, &Rtt);
    let corr = aspop::log_correlation(&points).unwrap_or(f64::NAN);
    println!("\nFigure-14 cross-check over {} ASes:", points.len());
    println!("  log-correlation(default appearances, alternate appearances) = {corr:.2}");
    println!(
        "  → {}",
        if corr > 0.5 {
            "ASes appear on alternates roughly as often as on defaults: the\n    inefficiency is structural (policy + congestion), not a few bad ISPs."
        } else {
            "alternate usage diverges from default usage: a handful of ASes\n    dominate — unlike the paper's finding."
        }
    );
}
