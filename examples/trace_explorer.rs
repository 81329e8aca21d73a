//! Trace explorer: save a dataset to a `.trace2` file, reload it, and
//! summarize it — the workflow of a trace-driven study.
//!
//! ```text
//! cargo run --release --example trace_explorer [path/to/file.trace2]
//! ```
//!
//! With no argument it generates a reduced UW4-B dataset, writes it to a
//! temp file, and explores that. Point it at any trace written by this
//! workspace to explore it instead; a file it cannot load is reported
//! with its typed error and exit status 1.

use std::collections::HashMap;
use std::path::PathBuf;

use detour::core::analysis::prevalence;
use detour::core::AnalysisContext;
use detour::datasets::{trace2, DatasetId};
use detour::measure::Dataset;
use detour::stats::quantile::percentile;

fn main() {
    let path: PathBuf = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            let p = std::env::temp_dir().join("detour-explorer-uw4b.trace2");
            println!(
                "no trace given; generating a reduced UW4-B to {}",
                p.display()
            );
            let ds = DatasetId::Uw4B.generate_scaled(10, 4);
            trace2::save(&ds, &p).expect("write trace");
            p
        }
    };

    let ds: Dataset = match trace2::load(&path) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("trace_explorer: cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let c = ds.characteristics();
    println!("\ntrace {} ({})", path.display(), ds.name);
    println!(
        "  {} hosts, {} measurements over {:.1} days, {:.0}% coverage",
        c.hosts, c.measurements, c.duration_days, c.coverage_pct
    );
    println!(
        "  {} probes in {} invocation rows, {} transfers, {} distinct AS paths, {} detected rate limiters",
        ds.probes.len(),
        ds.probes.rows().len(),
        ds.transfers.len(),
        ds.as_paths.len(),
        ds.detected_rate_limited.len()
    );

    // Per-host probe volume and loss.
    let mut sent: HashMap<_, usize> = HashMap::new();
    let mut lost: HashMap<_, usize> = HashMap::new();
    for p in &ds.probes {
        *sent.entry(p.src).or_default() += 1;
        if p.lost() {
            *lost.entry(p.src).or_default() += 1;
        }
    }
    println!("\nper-host view (as initiator):");
    println!("  {:<34} {:>8} {:>8}", "host", "probes", "loss%");
    let mut hosts = ds.hosts.clone();
    hosts.sort_by_key(|h| std::cmp::Reverse(sent.get(&h.id).copied().unwrap_or(0)));
    for h in hosts.iter().take(10) {
        let s = sent.get(&h.id).copied().unwrap_or(0);
        let l = lost.get(&h.id).copied().unwrap_or(0);
        println!(
            "  {:<34} {:>8} {:>7.1}%",
            h.name,
            s,
            100.0 * l as f64 / s.max(1) as f64
        );
    }

    // RTT distribution across all returned probes.
    let rtts: Vec<f64> = ds.probes.iter().filter_map(|p| p.rtt_ms).collect();
    if !rtts.is_empty() {
        println!("\nRTT distribution over {} returned probes:", rtts.len());
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            println!("  p{:<4} {:>9.1} ms", p, percentile(&rtts, p).unwrap());
        }
    }

    // Route stability.
    let prev = prevalence::analyze(&AnalysisContext::from_dataset(&ds));
    println!("\nroute stability:");
    println!(
        "  {:.0}% of pairs ≥90% dominated by one route; {} pairs saw multiple routes",
        100.0 * prev.dominated_fraction(0.9),
        prev.fluctuating_pairs()
    );
}
