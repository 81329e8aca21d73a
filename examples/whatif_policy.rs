//! What-if: turn the routing-policy knobs and watch Figure 1 move.
//!
//! The paper argues (§3) that policy routing — early-exit egress selection,
//! AS-path-length route choice, no-valley export — is why alternate paths
//! exist. The simulator lets us test that causal claim directly:
//!
//! * **hot potato** (the measured Internet): BGP + early exit;
//! * **best exit**: BGP, but each AS hands packets off at the egress that
//!   minimizes its local delay to the next AS;
//! * **ideal**: global shortest-propagation-delay routing, no policy at
//!   all — the negative control, where alternate paths should buy little.
//!
//! The rows are `detour_bench::extras::ablation`'s, the numbers of
//! `figures ablation` (`results/ablation.txt`) in a wider layout.
//!
//! ```text
//! cargo run --release --example whatif_policy
//! ```

use detour_bench::extras::ablation;

fn main() {
    println!(
        "{:<22} {:>14} {:>14} {:>16}",
        "routing mode", "pairs better", ">=20ms better", ">=50% better"
    );
    // Same era, same seed, same measurement campaign — only the
    // path-selection rule differs.
    for r in ablation() {
        println!(
            "{:<22} {:>13.1}% {:>13.1}% {:>15.1}%",
            r.label,
            100.0 * r.better,
            100.0 * r.better_by_20ms,
            100.0 * r.better_by_half,
        );
    }

    println!();
    println!("reading the table:");
    println!("  • hot potato vs best exit shows the cost of early-exit egress choice;");
    println!("  • ideal routing cannot be beaten on propagation, so what remains");
    println!("    there is purely congestion avoidance and measurement noise —");
    println!("    the floor the paper's §3 argument predicts.");
}
