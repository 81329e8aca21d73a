//! Produces `BENCH_baseline.json`: wall-clock timings of the shared-artifact
//! experiment engine at several worker counts, plus the byte-identity
//! checks that justify calling the parallelism (and the refactor) safe.
//!
//! ```text
//! cargo run -p detour-bench --release --bin baseline -- [out.json]
//! ```
//!
//! Every timing and count in this binary flows through one `detour-obs`
//! [`Recorder`] installed at the top of `main`: the pipeline's own spans
//! and counters (`net/*`, `dataset/*`, `cache/*`, `context/*`,
//! `kernel/*`, `engine/*`, `faults/*`, `pool/*`) accumulate alongside the
//! baseline's own `baseline/*` spans, and the full report is written to
//! `results/obs_report.json` (schema `detour-obs-v1`) and rendered as a
//! table on stderr at the end of the run. The JSON written to the output
//! path keeps its historical field names — `scripts/verify.sh` extracts
//! them with `sed` — but every number in it is read back out of the
//! recorder rather than from ad-hoc stat structs.
//!
//! The run starts **cold**: the trace cache under `results/cache/` is
//! purged and regenerated once (eight misses), timing how much a cold
//! start costs. Every subsequent "run" is **warm** — it loads the eight
//! datasets from the cache (eight hits; the datasets are byte-identical to
//! generation because the tracefile round-trip is lossless), builds the
//! [`Study`] of shared `AnalysisContext`s, and executes every paper
//! experiment through the declarative engine ([`run_all`]), with the
//! wall-clock split per stage: cache load, context construction, and the
//! experiment sweep. The run repeats at 1, 2, 4, and
//! `available_parallelism` workers — except on a single-core host, where
//! only the 1-worker run executes: multi-worker rows there measure pure
//! scheduling overhead (0.85–0.96× "speedups") and would read as
//! regressions, so they are suppressed rather than printed. Two gates,
//! both fatal:
//!
//! * every report must be byte-identical across worker counts (the
//!   golden suite, `tests/golden_reports.rs`, pins the bytes themselves);
//! * on a multi-core host, the 2-worker warm run must reach a 1.2×
//!   speedup over 1 worker (experiments are the parallelism unit, and the
//!   artifact store removes the rebuild serialization that used to eat the
//!   win).
//!
//! The JSON also records the cache hit/miss counters of every run
//! (`cache/hits`, `cache/misses`) and the per-run artifact build count —
//! the sum of the `context/*_builds` counters: eight tables and one
//! weight matrix per (dataset, metric-family) actually used — which proves
//! each artifact was built exactly once no matter how many experiments
//! shared it.
//!
//! A separate `fig12_greedy` entry times the Figure-12 greedy host
//! removal (the mask-based flat-kernel loop) at one worker, as an absolute
//! per-layer timing.
//!
//! A `scale_sweep` entry times the source-batched best-alternate kernel on
//! the 128-host SCALE dataset ([`detour_bench::scale`], generated through
//! the same trace cache) at every worker count, byte-compares every run
//! against the first and against the retained per-pair reference
//! ([`reference::per_pair_sweep`]), and records the fix-up/avoided
//! re-search counts (the `kernel/sweep_*` counters). The dataset's load
//! path is timed two ways — `load_cold_seconds` (post-purge, so
//! generation plus the first `.trace2` write) and `load_seconds` (warm
//! decode, best of three via [`Recorder::best_of`]) — both loads asserted
//! equal. Two gates ride on it: the batched kernel must beat the per-pair
//! reference ≥ 3× at one worker (always), and two workers must beat one by
//! ≥ 1.3× (multi-core hosts only).
//!
//! Two further sections map where dataset generation itself spends its
//! time (it is all cold-start cost now that warm runs load traces):
//!
//! * `generate_stages` — one representative reduced UW3 generation per
//!   worker count, split into network-build / routing-precompute /
//!   campaign / assemble wall-clock, read from the pipeline's own
//!   `net/build`, `net/routing`, `dataset/campaign`, and
//!   `dataset/assemble` spans;
//! * `campaign` — the measurement campaign alone (fixed network, fixed
//!   request list) at each worker count, with the output byte-compared to
//!   the 1-worker run. On a multi-core host the 2-worker campaign must
//!   reach a 1.3× speedup.

use std::fmt::Write as _;
use std::path::Path;

use detour_bench::experiments::{run_all, ALL_EXPERIMENTS};
use detour_bench::{cache, reference, scale as scale_workload, Bundle, Study};
use detour_core::altpath::SearchDepth;
use detour_core::analysis::hostremoval::greedy_removal;
use detour_core::kernel;
use detour_core::{pool, AnalysisContext, Rtt};
use detour_datasets::Scale;
use detour_measure::{run_campaign, CampaignConfig, RawMeasurements, Request, Schedule};
use detour_netsim::Network;
use detour_obs::{Recorder, RunReport};
use detour_prng::Xoshiro256pp;

/// The benchmark scale: big enough that stage timings dominate the timer
/// granularity, small enough to keep the baseline quick.
const SCALE: (usize, u32) = (10, 16);

/// Where the trace cache lives (matches the `figures` binary).
const CACHE_DIR: &str = "results/cache";

/// Where the full observability report lands (matches `scripts/verify.sh`
/// and the `obscheck` manifest gate).
const OBS_REPORT_PATH: &str = "results/obs_report.json";

fn scale() -> Scale {
    Scale::reduced(SCALE.0, SCALE.1)
}

/// Stage timings of one warm run, in seconds.
struct Stages {
    load: f64,
    context: f64,
    experiments: f64,
}

impl Stages {
    fn total(&self) -> f64 {
        self.load + self.context + self.experiments
    }
}

/// Sum of the `context/*_builds` counters in a report delta — the number
/// of shared artifacts (pair tables, weight matrices, bandwidth matrices)
/// constructed during that window.
fn artifact_builds(d: &RunReport) -> u64 {
    [
        "context/table_builds",
        "context/weights_rtt_builds",
        "context/weights_loss_builds",
        "context/weights_prop_builds",
        "context/bandwidth_builds",
    ]
    .iter()
    .map(|name| d.counter(name))
    .sum()
}

/// One warm engine run: cache load → context build → experiment sweep.
/// Returns the stage timings, the concatenated reports, the cache
/// (hits, misses) delta, and the artifact build count — the last two read
/// from the recorder instead of hand-threaded stat structs.
fn warm_run(rec: &Recorder, dir: &Path) -> (Stages, Vec<String>, (u64, u64), u64) {
    let before = rec.snapshot();
    let (bundle, load) = rec.time("baseline/warm_load", || {
        Bundle::generate_cached(scale(), dir).expect("trace cache")
    });
    let (study, context) = rec.time("baseline/warm_context", || Study::from_bundle(bundle));
    let (reports, experiments) = rec.time("baseline/warm_experiments", || {
        run_all(&study, ALL_EXPERIMENTS)
    });
    let d = rec.snapshot().delta_since(&before);
    (
        Stages {
            load,
            context,
            experiments,
        },
        reports,
        (d.counter("cache/hits"), d.counter("cache/misses")),
        artifact_builds(&d),
    )
}

/// Host count and removal count for the `fig12_greedy` timing.
const FIG12_HOSTS: usize = 20;
const FIG12_REMOVALS: usize = 5;

/// Times the Figure-12 greedy on one graph; returns the seconds taken.
fn time_fig12_greedy(rec: &Recorder) -> f64 {
    let ds = detour_datasets::DatasetId::Uw3.generate_scaled(FIG12_HOSTS, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    rec.time("baseline/fig12_masked_kernel", || {
        greedy_removal(&cx, &Rtt, FIG12_REMOVALS)
    })
    .1
}

/// The wall-clock split of one dataset generation, read from the
/// pipeline's own spans rather than a bespoke stage struct.
struct GenStages {
    network_build: f64,
    routing_precompute: f64,
    campaign: f64,
    assemble: f64,
}

/// One representative reduced UW3 generation. The generation pipeline
/// instruments itself (`net/build`, `net/routing`, `dataset/campaign`,
/// `dataset/assemble`); this just runs it and reads the span delta so the
/// JSON (and `scripts/verify.sh`) can show where generation time goes as
/// workers scale.
fn staged_generate(rec: &Recorder) -> GenStages {
    let before = rec.snapshot();
    let spec = detour_datasets::uw3::spec();
    let _ = detour_datasets::generate(&spec, scale());
    let d = rec.snapshot().delta_since(&before);
    GenStages {
        network_build: d.span_seconds("net/build"),
        routing_precompute: d.span_seconds("net/routing"),
        campaign: d.span_seconds("dataset/campaign"),
        assemble: d.span_seconds("dataset/assemble"),
    }
}

/// A fixed campaign workload for the thread-scaling entry: one reduced
/// 1999 network and a pairwise-exponential request list, both independent
/// of the worker count.
fn campaign_workload() -> (Network, Vec<Request>) {
    let spec = detour_datasets::uw3::spec();
    let net = detour_datasets::build_network(&spec, scale());
    let hosts: Vec<_> = net.hosts().iter().take(10).map(|h| h.id).collect();
    let requests = Schedule::PairwiseExponential { mean_s: 6.0 }.generate(
        &hosts,
        12.0 * 3600.0,
        &mut Xoshiro256pp::seed_from_u64(17),
    );
    (net, requests)
}

/// Times the campaign alone at the current worker count.
fn time_campaign(rec: &Recorder, net: &Network, requests: &[Request]) -> (f64, RawMeasurements) {
    let (raw, secs) = rec.time("baseline/campaign", || {
        run_campaign(net, requests, &CampaignConfig::traceroute(), 17)
    });
    (secs, raw)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cache_dir = Path::new(CACHE_DIR);

    // One recorder for the whole run: installed here, inherited by every
    // pool worker, snapshotted at the end into `results/obs_report.json`.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());

    // On a single-core host, multi-worker rows measure scheduling overhead,
    // not parallelism — suppress them instead of printing 0.9x "speedups".
    let mut counts = if cores > 1 {
        vec![1usize, 2, 4, cores]
    } else {
        vec![1usize]
    };
    counts.sort_unstable();
    counts.dedup();

    pool::set_threads(0);

    // Cold start: purge the trace cache and generate every dataset exactly
    // once (the only simulation work in the whole run).
    cache::purge(cache_dir).expect("purge trace cache");
    let before_cold = rec.snapshot();
    let (_, cold_secs) = rec.time("baseline/cold_generate", || {
        Bundle::generate_cached(scale(), cache_dir).expect("cold generate")
    });
    let cold_delta = rec.snapshot().delta_since(&before_cold);
    let (cold_hits, cold_misses) = (
        cold_delta.counter("cache/hits"),
        cold_delta.counter("cache/misses"),
    );
    assert_eq!(
        (cold_hits, cold_misses),
        (0, 8),
        "cold run must generate all eight datasets"
    );
    eprintln!("baseline: cold generate {cold_secs:.2} s ({cold_misses} misses -> {CACHE_DIR})");

    // The campaign workload is built once, outside the timed loop, so every
    // worker count measures the same network and request list.
    let (camp_net, camp_reqs) = campaign_workload();

    let mut reference_reports: Option<Vec<String>> = None;
    let mut camp_reference: Option<RawMeasurements> = None;
    let mut runs: Vec<(usize, Stages, (u64, u64), u64)> = Vec::new();
    let mut gen_runs: Vec<(usize, GenStages)> = Vec::new();
    let mut camp_runs: Vec<(usize, f64)> = Vec::new();
    for &n in &counts {
        pool::set_threads(n);
        let (stages, reports, (hits, misses), builds) = warm_run(&rec, cache_dir);
        eprintln!(
            "baseline: {n} worker(s): {:.2} s (load {:.2} + contexts {:.2} + experiments {:.2}), {} artifact builds",
            stages.total(),
            stages.load,
            stages.context,
            stages.experiments,
            builds,
        );
        assert_eq!(
            (hits, misses),
            (8, 0),
            "warm run must load all eight datasets from the cache"
        );

        // Gate 1: byte identity across worker counts (vs the first run).
        match &reference_reports {
            None => reference_reports = Some(reports.clone()),
            Some(r) => {
                if *r != reports {
                    eprintln!(
                        "baseline: FAIL — reports at {n} workers differ from {} workers",
                        counts[0]
                    );
                    std::process::exit(1);
                }
            }
        }
        runs.push((n, stages, (hits, misses), builds));

        let gs = staged_generate(&rec);
        eprintln!(
            "baseline: {n} worker(s) generate stages: network {:.3} + routing {:.3} + campaign {:.3} + assemble {:.3} s",
            gs.network_build, gs.routing_precompute, gs.campaign, gs.assemble,
        );
        gen_runs.push((n, gs));

        let (camp_secs, raw) = time_campaign(&rec, &camp_net, &camp_reqs);
        eprintln!(
            "baseline: {n} worker(s) campaign alone: {camp_secs:.3} s ({} requests)",
            camp_reqs.len()
        );
        match &camp_reference {
            None => camp_reference = Some(raw),
            Some(r) => {
                if *r != raw {
                    eprintln!(
                        "baseline: FAIL — campaign output at {n} workers differs from 1 worker"
                    );
                    std::process::exit(1);
                }
            }
        }
        camp_runs.push((n, camp_secs));
    }

    // Figure-12 greedy on the masked kernel, single worker so the timing
    // measures the algorithm, not the fan-out.
    pool::set_threads(1);
    let fig12_kernel = time_fig12_greedy(&rec);
    eprintln!("baseline: fig12_greedy: masked kernel {fig12_kernel:.3} s");
    pool::set_threads(0);

    // scale_sweep: the 128-host kernel workload. The batched sweep runs at
    // every worker count (byte-compared against the first run), then the
    // retained per-pair reference runs once at one worker for the headline
    // algorithmic speedup.
    // The initial purge wiped the SCALE entry too, so the first load pays
    // for generation — that is the *cold* row. The *warm* row times the
    // `.trace2` decode alone, best of three.
    let ((scale_ds, scale_hit), scale_cold_secs) = rec.time("baseline/scale_load_cold", || {
        scale_workload::load_or_generate(cache_dir).expect("scale dataset")
    });
    eprintln!(
        "baseline: scale_sweep dataset: {} hosts, cache {} (cold {scale_cold_secs:.2} s)",
        scale_ds.hosts.len(),
        if scale_hit { "hit" } else { "miss" },
    );
    assert!(
        scale_ds.hosts.len() >= 120,
        "scale_sweep needs >= 120 hosts, got {}",
        scale_ds.hosts.len()
    );
    let (_, scale_load_secs) = rec.best_of("baseline/scale_load_warm", 3, || {
        let (warm_ds, warm_hit) =
            scale_workload::load_or_generate(cache_dir).expect("warm scale dataset");
        assert!(warm_hit, "warm scale load must be a cache hit");
        assert_eq!(
            warm_ds, scale_ds,
            "warm .trace2 load must be byte-identical"
        );
    });
    eprintln!("baseline: scale_sweep load: warm .trace2 {scale_load_secs:.3} s");
    let scale_cx = AnalysisContext::from_dataset(&scale_ds);
    let scale_m = scale_cx.weights(&Rtt);
    let scale_mask = scale_m.no_mask();
    let mut sweep_runs: Vec<(usize, f64)> = Vec::new();
    let mut sweep_reference = None;
    let mut sweep_stats = (0u64, 0u64, 0u64);
    for &n in &counts {
        pool::set_threads(n);
        let before = rec.snapshot();
        let (out, secs) = rec.time("baseline/scale_sweep", || {
            kernel::sweep(scale_m, &scale_mask, &Rtt, SearchDepth::Unrestricted)
        });
        let d = rec.snapshot().delta_since(&before);
        let stats = (
            d.counter("kernel/sweep_pairs"),
            d.counter("kernel/sweep_fixups"),
            d.counter("kernel/sweep_avoided"),
        );
        eprintln!(
            "baseline: scale_sweep {n} worker(s): {secs:.3} s ({} pairs, {} fixups, {} avoided)",
            stats.0, stats.1, stats.2
        );
        match &sweep_reference {
            None => {
                sweep_reference = Some(out);
                sweep_stats = stats;
            }
            Some(r) => {
                if *r != out || sweep_stats != stats {
                    eprintln!(
                        "baseline: FAIL — scale_sweep output at {n} workers differs from {} workers",
                        counts[0]
                    );
                    std::process::exit(1);
                }
            }
        }
        sweep_runs.push((n, secs));
    }
    // The per-pair reference, single-worker, and the batched kernel's
    // matching single-worker time for the algorithmic (not fan-out) ratio.
    pool::set_threads(1);
    let (per_pair, sweep_ref_secs) = rec.time("baseline/scale_sweep_reference", || {
        reference::per_pair_sweep(scale_m, &scale_mask, &Rtt, SearchDepth::Unrestricted)
    });
    pool::set_threads(0);
    if sweep_reference.as_deref() != Some(&per_pair[..]) {
        eprintln!("baseline: FAIL — scale_sweep batched kernel differs from per-pair reference");
        std::process::exit(1);
    }
    let sweep_t1 = sweep_runs[0].1;
    let sweep_algo_speedup = sweep_ref_secs / sweep_t1.max(1e-9);
    let sweep_2thread_speedup = sweep_runs
        .iter()
        .find(|(n, _)| *n == 2)
        .map(|&(_, s)| sweep_t1 / s.max(1e-9));
    eprintln!(
        "baseline: scale_sweep: per-pair reference {sweep_ref_secs:.3} s, batched \
         {sweep_t1:.3} s ({sweep_algo_speedup:.1}x)"
    );

    let t1 = runs[0].1.total();
    let two_thread_speedup = runs
        .iter()
        .find(|(n, ..)| *n == 2)
        .map(|(_, s, ..)| t1 / s.total());

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"engine_all_experiments_shared_artifacts\",\n  \"cores\": {cores},\n  \"experiments\": {},\n  \"byte_identical_across_thread_counts\": true,\n  \"cache\": {{\"dir\": \"{CACHE_DIR}\", \"cold_seconds\": {cold_secs:.3}, \"cold_hits\": {cold_hits}, \"cold_misses\": {cold_misses}}},\n  \"runs\": [",
        ALL_EXPERIMENTS.len(),
    );
    for (i, (n, s, (hits, misses), builds)) in runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"threads\": {n}, \"seconds\": {:.3}, \"load_seconds\": {:.3}, \"context_seconds\": {:.3}, \"experiment_seconds\": {:.3}, \"cache_hits\": {hits}, \"cache_misses\": {misses}, \"artifact_builds\": {builds}, \"speedup_vs_1\": {:.2}}}",
            s.total(),
            s.load,
            s.context,
            s.experiments,
            t1 / s.total()
        );
    }
    json.push_str("\n  ],\n  \"generate_stages\": [");
    for (i, (n, gs)) in gen_runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let total = gs.network_build + gs.routing_precompute + gs.campaign + gs.assemble;
        let _ = write!(
            json,
            "\n    {{\"threads\": {n}, \"network_build_seconds\": {:.3}, \"routing_precompute_seconds\": {:.3}, \"campaign_seconds\": {:.3}, \"assemble_seconds\": {:.3}, \"total_seconds\": {total:.3}}}",
            gs.network_build, gs.routing_precompute, gs.campaign, gs.assemble,
        );
    }
    let camp_t1 = camp_runs[0].1;
    let campaign_2thread_speedup = camp_runs
        .iter()
        .find(|(n, _)| *n == 2)
        .map(|&(_, s)| camp_t1 / s.max(1e-9));
    json.push_str("\n  ],\n  \"campaign\": [");
    for (i, (n, s)) in camp_runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"threads\": {n}, \"seconds\": {s:.3}, \"speedup_vs_1\": {:.2}}}",
            camp_t1 / s.max(1e-9)
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"campaign_requests\": {},\n  \"fig12_greedy\": {{\n    \"hosts\": {FIG12_HOSTS},\n    \"removals\": {FIG12_REMOVALS},\n    \"masked_kernel_seconds\": {fig12_kernel:.3}\n  }},\n  \"scale_sweep\": {{\n    \"scale_hosts\": {}, \"pairs\": {}, \"fixups\": {}, \"avoided\": {},\n    \"cache_hit\": {scale_hit}, \"load_cold_seconds\": {scale_cold_secs:.3},\n    \"load_seconds\": {scale_load_secs:.4},\n    \"reference_seconds\": {sweep_ref_secs:.3}, \"batched_speedup_vs_reference\": {sweep_algo_speedup:.2},\n    \"runs\": [",
        camp_reqs.len(),
        scale_ds.hosts.len(),
        sweep_stats.0,
        sweep_stats.1,
        sweep_stats.2,
    );
    for (i, (n, s)) in sweep_runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n      {{\"threads\": {n}, \"sweep_seconds\": {s:.3}, \"sweep_speedup_vs_1\": {:.2}}}",
            sweep_t1 / s.max(1e-9)
        );
    }
    json.push_str("\n    ]\n  }\n}\n");

    std::fs::write(&out_path, &json).expect("write baseline json");
    eprintln!("baseline: wrote {out_path}");
    print!("{json}");

    // The full observability report: headline ratios become gauges, then
    // the recorder snapshot goes to disk (stable JSON, `detour-obs-v1`)
    // and to stderr as a table.
    rec.set_gauge("baseline/batched_speedup_vs_reference", sweep_algo_speedup);
    let report = rec.snapshot();
    if let Some(dir) = Path::new(OBS_REPORT_PATH).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(OBS_REPORT_PATH, report.to_json()).expect("write obs report");
    eprintln!("baseline: wrote {OBS_REPORT_PATH}");
    eprint!("{}", report.to_table());

    // Gate 2. Byte identity already enforced above; on a real multi-core
    // machine, two workers must beat one by a real margin end-to-end (the
    // experiments fan out whole, and artifact prebuilding parallelizes),
    // and the campaign alone — embarrassingly parallel over requests —
    // must too, as must the batched sweep on the scale workload.
    if cores > 1 {
        if let Some(s) = two_thread_speedup {
            if s < 1.2 {
                eprintln!("baseline: FAIL — 2-worker speedup {s:.2} < 1.2 on {cores} cores");
                std::process::exit(1);
            }
        }
        if let Some(s) = campaign_2thread_speedup {
            if s < 1.3 {
                eprintln!(
                    "baseline: FAIL — 2-worker campaign speedup {s:.2} < 1.3 on {cores} cores"
                );
                std::process::exit(1);
            }
        }
        if let Some(s) = sweep_2thread_speedup {
            if s < 1.3 {
                eprintln!(
                    "baseline: FAIL — 2-worker scale_sweep speedup {s:.2} < 1.3 on {cores} cores"
                );
                std::process::exit(1);
            }
        }
    }

    // Gate 3, unconditional: the batched kernel must beat the per-pair
    // reference by an algorithmic margin at one worker — one SSSP per
    // source plus a minority of fix-up re-searches vs. one full Dijkstra
    // per pair.
    if sweep_algo_speedup < 3.0 {
        eprintln!(
            "baseline: FAIL — scale_sweep batched/reference speedup {sweep_algo_speedup:.2} < 3.0"
        );
        std::process::exit(1);
    }
}
