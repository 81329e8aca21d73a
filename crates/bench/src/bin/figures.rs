//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p detour-bench --release --bin figures -- all
//! cargo run -p detour-bench --release --bin figures -- fig1 fig3 table2
//! cargo run -p detour-bench --release --bin figures -- --scaled all
//! cargo run -p detour-bench --release --bin figures -- --threads 4 --scaled all
//! cargo run -p detour-bench --release --bin figures -- --seed 7 --scaled fig1
//! cargo run -p detour-bench --release --bin figures -- --fresh --scaled all
//! ```
//!
//! Ids are the entries of [`REGISTRY`]; `all` (or no id) runs every entry
//! in registry order. `--threads N` sets the engine's worker count (0 or
//! absent = one per core); output is bit-identical at any setting. `--seed
//! S` regenerates the whole study on a different simulated Internet (S = 0
//! is the canonical run). An unknown id or flag, or a value flag given
//! twice, exits with status 2.
//!
//! Every run goes through [`canonical::run`]: the datasets come from the
//! trace cache under `results/cache/` (the first run at a given seed and
//! scale simulates and saves, later runs load the lossless traces;
//! `--fresh` purges the cache first), and the reports go to stdout. The
//! canonical run (full scale, seed 0), the one the `baseline` binary times,
//! also writes each to `results/<id>.txt`, the committed reports; any other
//! run leaves `results/` alone and says so on stderr. A cache or results
//! path the run cannot use is reported with its I/O error and exits with
//! status 1.

use std::path::Path;
use std::process::exit;

use detour_bench::cache;
use detour_bench::canonical::{self, CACHE_DIR};
use detour_bench::experiments::REGISTRY;
use detour_core::pool;
use detour_datasets::Scale;

fn parse_flag(args: &mut Vec<String>, name: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        eprintln!("{name} needs a value");
        exit(2);
    }
    let v = args[i + 1].parse().unwrap_or_else(|_| {
        eprintln!("{name} needs a non-negative integer, got {:?}", args[i + 1]);
        exit(2);
    });
    args.drain(i..=i + 1);
    if args.iter().any(|a| a == name) {
        eprintln!("figures: {name} given more than once");
        exit(2);
    }
    Some(v)
}

/// Reports an I/O failure on the cache or results path and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("figures: {msg}");
    exit(1)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = parse_flag(&mut args, "--threads").unwrap_or(0);
    let seed = parse_flag(&mut args, "--seed").unwrap_or(0);
    let flag_ok = |a: &&String| !a.starts_with("--") || *a == "--scaled" || *a == "--fresh";
    if let Some(a) = args.iter().find(|a| !flag_ok(a)) {
        eprintln!("figures: unknown flag {a:?}; known: --threads N, --seed S, --scaled, --fresh");
        exit(2);
    }
    let scaled = args.iter().any(|a| a == "--scaled");
    let fresh = args.iter().any(|a| a == "--fresh");
    pool::set_threads(threads as usize);

    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    let ids = if ids.is_empty() || ids.contains(&"all") {
        known.clone()
    } else {
        ids
    };
    if let Some(id) = ids.iter().find(|id| !known.contains(id)) {
        eprintln!("unknown experiment {id:?}; known: {known:?}");
        exit(2);
    }

    if fresh {
        let removed = cache::purge(Path::new(CACHE_DIR))
            .unwrap_or_else(|e| fail(format!("cannot purge {CACHE_DIR}: {e}")));
        eprintln!("purged {removed} cached trace(s) from {CACHE_DIR}");
    }

    let scale = if scaled {
        Scale::reduced(12, 8)
    } else {
        Scale::full()
    }
    .with_seed_offset(seed);
    eprintln!(
        "loading the eight datasets at {} scale (seed offset {seed}, {} worker{})...",
        if scaled { "reduced" } else { "full paper" },
        pool::threads(),
        if pool::threads() == 1 { "" } else { "s" },
    );
    // Pool workers inherit the recorder; the cache and engine layers report
    // through it.
    let rec = detour_obs::current();
    let (reports, secs) = rec.time("figures/run", || canonical::run(scale, &ids));
    let reports = reports.unwrap_or_else(|e| fail(e));
    let load_secs = rec.snapshot().spans["cache/load"].seconds;
    eprintln!(
        "datasets ready in {load_secs:.1}s ({} cached, {} generated); \
         {} experiment(s) done in {:.1}s",
        rec.counter("cache/hits"),
        rec.counter("cache/misses"),
        ids.len(),
        secs - load_secs,
    );
    for report in &reports {
        println!("{report}");
    }
    if scale != Scale::full() {
        eprintln!(
            "results/ left alone: only the full-scale seed-0 run writes the committed reports"
        );
    }
}
