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
//! Ids are the entries of [`REGISTRY`]; `all` (or no id) runs
//! every entry in registry order. Every requested id goes through one
//! engine call ([`run_all`]).
//!
//! `--threads N` sets the experiment engine's worker count (0 or absent =
//! one worker per core); output is bit-identical at any setting. `--seed S`
//! regenerates the whole study on a different simulated Internet (S = 0 is
//! the canonical run). An unknown id or flag, or a value flag given twice,
//! exits with status 2.
//!
//! Datasets come from the trace cache under `results/cache/`: the first
//! run at a given (seed, scale) simulates and saves, later runs load the
//! saved traces and skip the simulator entirely (the round-trip is
//! lossless, so reports are byte-identical either way). `--fresh` purges
//! the cache first.
//!
//! Reports go to stdout. The canonical run (full scale, seed 0) also writes
//! each to `results/<id>.txt`, the committed reports; any other run leaves
//! `results/` alone and says so on stderr. A cache directory or results
//! path the run cannot use (unreadable, or a regular file where a directory
//! belongs) is reported with its I/O error and exits with status 1.

use std::fs;
use std::path::Path;
use std::process::exit;

use detour_bench::experiments::{run_all, REGISTRY};
use detour_bench::{cache, Bundle, Study};
use detour_core::pool;
use detour_datasets::Scale;
use detour_obs::Recorder;

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
fn fail(what: &str, path: &Path, e: std::io::Error) -> ! {
    eprintln!("figures: cannot {what} {}: {e}", path.display());
    exit(1);
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

    let cache_dir = Path::new("results/cache");
    if fresh {
        let removed = cache::purge(cache_dir).unwrap_or_else(|e| fail("purge", cache_dir, e));
        eprintln!(
            "purged {removed} cached trace(s) from {}",
            cache_dir.display()
        );
    }

    eprintln!(
        "loading the eight datasets at {} scale (seed offset {seed}, {} worker{})...",
        if scaled { "reduced" } else { "full paper" },
        pool::threads(),
        if pool::threads() == 1 { "" } else { "s" },
    );
    // One recorder for the whole run: pool workers inherit it, and the
    // cache/engine layers report their counters through it.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());
    let (bundle, load_secs) = rec.time("figures/load", || {
        let scale = if scaled {
            Scale::reduced(12, 8)
        } else {
            Scale::full()
        };
        Bundle::generate_cached(scale.with_seed_offset(seed), cache_dir)
            .unwrap_or_else(|e| fail("use the trace cache", cache_dir, e))
    });
    eprintln!(
        "datasets ready in {load_secs:.1}s ({} cached, {} generated)",
        rec.counter("cache/hits"),
        rec.counter("cache/misses"),
    );
    let study = Study::from_bundle(bundle);

    // Every id runs through the parallel engine: prebuilt shared
    // artifacts, one `experiment/<id>` span each, request-ordered reports.
    let (reports, engine_secs) = rec.time("figures/engine", || run_all(&study, &ids));
    eprintln!("[{} experiment(s) done in {engine_secs:.1}s]", ids.len());

    for report in &reports {
        println!("{report}");
    }
    if scaled || seed != 0 {
        eprintln!(
            "results/ left alone: only the full-scale seed-0 run writes the committed reports"
        );
        return;
    }
    let results = Path::new("results");
    fs::create_dir_all(results).unwrap_or_else(|e| fail("create", results, e));
    for (id, report) in ids.iter().zip(reports) {
        let path = results.join(format!("{id}.txt"));
        fs::write(&path, &report).unwrap_or_else(|e| fail("write", &path, e));
    }
}
