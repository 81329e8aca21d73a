//! The performance baseline: one run of the pipeline under one `detour-obs`
//! [`Recorder`], written to `results/obs_report.json` (schema
//! `detour-obs-v1`) and printed as a table on stdout.
//!
//! ```text
//! cargo run -p detour-bench --release --bin baseline
//! ```
//!
//! The pipeline records its own spans and counters (`net/*`, `dataset/*`,
//! `cache/*`, `context/*`, `kernel/*`, `engine/*`, `experiment/*`,
//! `pool/*`); this binary adds `baseline/*` spans around its phases, and
//! `baseline/*` gauges for the values no span or counter carries. The run:
//!
//! 1. **Cold start.** The trace cache under `results/cache/` is purged and
//!    the eight paper datasets are generated once (0 hits, 8 misses). The
//!    pipeline's `net/build`, `net/routing`, `dataset/campaign` and
//!    `dataset/assemble` spans split the generation time.
//! 2. **SCALE load.** The 128-host [`detour_bench::scale`] dataset is
//!    generated into the cache (`baseline/scale_load_cold`), then decoded
//!    warm, best of three (`baseline/scale_load_warm`).
//! 3. **One pass at one worker** ([`pass`]): a warm engine run (cache load
//!    with 8 hits and 0 misses, [`Study`] construction, every paper
//!    experiment through [`run_all`]), a fixed measurement campaign, and
//!    the batched best-alternate sweep on SCALE.
//! 4. **The Figure-12 greedy host removal**, at one worker.
//! 5. **Multi-core hosts only:** the pass again at 2, 4 and all-cores
//!    workers, each under its own scoped recorder. The report therefore
//!    describes exactly one 1-worker pass on any host, and its counters do
//!    not depend on the core count.
//!
//! Every gate is fatal (exit 1):
//!
//! * reports, campaign output and sweep output are identical across worker
//!   counts (the golden suite pins the report bytes themselves);
//! * the SCALE RTT and loss sweeps' outputs hash to
//!   [`SCALE_SWEEP_DIGESTS`], and the RTT sweep's fix-up split and
//!   re-settled vertices equal [`SCALE_SWEEP_COUNTS`];
//! * on a multi-core host, two workers beat one by ≥ 1.2× end to end and
//!   ≥ 1.3× on the campaign and the sweep
//!   (`baseline/speedup_2w_{engine,campaign,scale_sweep}`);
//! * every report name appears in `scripts/obs_manifest.txt`, so new
//!   instrumentation cannot land without a manifest (and review) entry.

use std::path::Path;
use std::process::exit;

use detour_bench::experiments::{run_all, ALL_EXPERIMENTS};
use detour_bench::{cache, scale as scale_workload, Bundle, Study};
use detour_core::analysis::hostremoval::greedy_removal;
use detour_core::{
    kernel, pool, AnalysisContext, Loss, PathComparison, Rtt, SearchDepth, WeightMatrix,
};
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

/// Where the report lands.
const OBS_REPORT_PATH: &str = "results/obs_report.json";

/// The SCALE RTT and loss sweeps' outputs as [`sweep_digest`] hashes
/// them; one textbook Dijkstra per pair gives these bytes. The RTT sums
/// are all distinct, so the loss sweep, whose lossless edges weigh exactly
/// zero and tie whole subtrees, is the one that pins the extraction
/// tie-break.
const SCALE_SWEEP_DIGESTS: [(&str, u64); 2] = [
    ("rtt", 0x720f_a529_49cb_ea59),
    ("loss", 0xa6f9_e951_5dd2_cbd1),
];

/// The SCALE RTT sweep's `kernel/sweep_fixups`, `kernel/sweep_avoided`
/// and `kernel/resettled`: each of the 128 sources re-settles its 127
/// other hosts over its fix-ups, so a fix-up answered by a search of its
/// own, which re-settles nothing, shows here.
const SCALE_SWEEP_COUNTS: (u64, u64, u64) = (5_123, 11_133, 127 * 128);

/// The committed name vocabulary: one kind-prefixed name per line
/// (`span net/build`, `counter cache/hits`), `#` comments.
const MANIFEST: &str = include_str!("../../../../scripts/obs_manifest.txt");

fn scale() -> Scale {
    Scale::reduced(SCALE.0, SCALE.1)
}

/// Prints a gate failure and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("baseline: FAIL — {msg}");
    exit(1)
}

/// Hashes a sweep's output with [`detour_datasets::trace2::checksum`]:
/// each comparison in order, its pair, the bits of its default and
/// alternate values, and its via hosts.
fn sweep_digest(sweep: &[PathComparison]) -> u64 {
    let mut bytes = Vec::new();
    for c in sweep {
        bytes.extend(c.pair.src.0.to_le_bytes());
        bytes.extend(c.pair.dst.0.to_le_bytes());
        bytes.extend(c.default_value.to_bits().to_le_bytes());
        bytes.extend(c.alternate_value.to_bits().to_le_bytes());
        bytes.extend((c.via.len() as u32).to_le_bytes());
        for h in &c.via {
            bytes.extend(h.0.to_le_bytes());
        }
    }
    detour_datasets::trace2::checksum(&bytes)
}

/// The report names that the manifest does not list.
fn unknown_names(report: &RunReport, manifest: &str) -> Vec<String> {
    let known: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    report
        .names()
        .into_iter()
        .filter(|n| !known.contains(&n.as_str()))
        .collect()
}

/// A fixed campaign workload: one reduced 1999 network and a
/// pairwise-exponential request list, both independent of the worker
/// count.
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

/// What one [`pass`] produced. The outputs must not depend on the worker
/// count; the seconds may.
struct Pass {
    reports: Vec<String>,
    campaign: RawMeasurements,
    sweep: Vec<PathComparison>,
    /// `kernel/sweep_fixups`, `kernel/sweep_avoided` and
    /// `kernel/resettled` of the sweep alone.
    sweep_counts: (u64, u64, u64),
    engine_secs: f64,
    campaign_secs: f64,
    sweep_secs: f64,
}

/// One pass at the current worker count, recorded into the current
/// recorder: a warm engine run (cache load, contexts, every experiment),
/// the fixed campaign, and the batched sweep on the SCALE matrix.
fn pass(dir: &Path, (net, requests): &(Network, Vec<Request>), m: &WeightMatrix) -> Pass {
    let rec = detour_obs::current();
    let before = rec.snapshot();
    let (bundle, load) = rec.time("baseline/warm_load", || {
        Bundle::generate_cached(scale(), dir).expect("trace cache")
    });
    let d = rec.snapshot().delta_since(&before);
    assert_eq!(
        (d.counter("cache/hits"), d.counter("cache/misses")),
        (8, 0),
        "warm run must load all eight datasets from the cache"
    );
    let (study, context) = rec.time("baseline/warm_context", || Study::from_bundle(bundle));
    let (reports, experiments) = rec.time("baseline/warm_experiments", || {
        run_all(&study, ALL_EXPERIMENTS)
    });
    let (campaign, campaign_secs) = rec.time("baseline/campaign", || {
        run_campaign(net, requests, &CampaignConfig::traceroute(), 17)
    });
    let before = rec.snapshot();
    let (sweep, sweep_secs) = rec.time("baseline/scale_sweep", || {
        kernel::sweep(m, &m.no_mask(), SearchDepth::Unrestricted)
    });
    let d = rec.snapshot().delta_since(&before);
    Pass {
        reports,
        campaign,
        sweep,
        sweep_counts: (
            d.counter("kernel/sweep_fixups"),
            d.counter("kernel/sweep_avoided"),
            d.counter("kernel/resettled"),
        ),
        engine_secs: load + context + experiments,
        campaign_secs,
        sweep_secs,
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cache_dir = Path::new(CACHE_DIR);

    // One recorder for the report: installed here and inherited by every
    // pool worker. Only the extra multi-core passes record elsewhere.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());
    rec.set_gauge("baseline/cores", cores as f64);

    // Cold start: purge the trace cache and generate every dataset once.
    cache::purge(cache_dir).expect("purge trace cache");
    let before = rec.snapshot();
    rec.time("baseline/cold_generate", || {
        Bundle::generate_cached(scale(), cache_dir).expect("cold generate")
    });
    let d = rec.snapshot().delta_since(&before);
    assert_eq!(
        (d.counter("cache/hits"), d.counter("cache/misses")),
        (0, 8),
        "cold run must generate all eight datasets"
    );

    // The purge wiped the SCALE entry too, so the first load generates it;
    // the warm row times the `.trace2` decode alone.
    let ((scale_ds, _), _) = rec.time("baseline/scale_load_cold", || {
        scale_workload::load_or_generate(cache_dir).expect("scale dataset")
    });
    assert!(
        scale_ds.hosts.len() >= 120,
        "scale_sweep needs >= 120 hosts, got {}",
        scale_ds.hosts.len()
    );
    rec.best_of("baseline/scale_load_warm", 3, || {
        let (warm_ds, warm_hit) =
            scale_workload::load_or_generate(cache_dir).expect("warm scale dataset");
        assert!(warm_hit, "warm scale load must be a cache hit");
        assert_eq!(
            warm_ds, scale_ds,
            "warm .trace2 load must be byte-identical"
        );
    });
    let scale_cx = AnalysisContext::from_dataset(&scale_ds);
    let scale_m = scale_cx.weights(&Rtt);
    let camp = campaign_workload();

    pool::set_threads(1);
    let one = pass(cache_dir, &camp, scale_m);
    rec.set_gauge("baseline/scale_sweep_fixups", one.sweep_counts.0 as f64);
    rec.set_gauge("baseline/scale_sweep_avoided", one.sweep_counts.1 as f64);
    // The loss sweep runs under a scoped recorder, so the report keeps the
    // counters of the one pass.
    let loss = {
        let _scope = detour_obs::install(Recorder::new());
        let m = scale_cx.weights(&Loss);
        kernel::sweep(m, &m.no_mask(), SearchDepth::Unrestricted)
    };
    for ((metric, pinned), sweep) in SCALE_SWEEP_DIGESTS.into_iter().zip([&one.sweep, &loss]) {
        let digest = sweep_digest(sweep);
        if digest != pinned {
            fail(&format!(
                "scale_sweep {metric} digest {digest:#018x} != pinned {pinned:#018x}"
            ));
        }
    }
    if one.sweep_counts != SCALE_SWEEP_COUNTS {
        fail(&format!(
            "scale_sweep (fixups, avoided, resettled) {:?} != pinned {SCALE_SWEEP_COUNTS:?}",
            one.sweep_counts
        ));
    }

    // The Figure-12 greedy host removal on the masked kernel: five
    // removals from a 20-host UW3, at one worker.
    let fig12_ds = detour_datasets::DatasetId::Uw3.generate_scaled(20, 16);
    let fig12_cx = AnalysisContext::from_dataset(&fig12_ds);
    rec.time("baseline/fig12_masked_kernel", || {
        greedy_removal(&fig12_cx, &Rtt, 5)
    });

    // On a multi-core host, repeat the pass at more workers, each under a
    // scoped recorder so the report keeps exactly one 1-worker pass. The
    // 2-worker speedups: (gauge suffix, minimum, measured).
    let mut speedups = Vec::new();
    if cores > 1 {
        let mut counts = vec![2, 4, cores];
        counts.sort_unstable();
        counts.dedup();
        for n in counts {
            pool::set_threads(n);
            let p = {
                let _scope = detour_obs::install(Recorder::new());
                pass(cache_dir, &camp, scale_m)
            };
            if p.reports != one.reports {
                fail(&format!("reports at {n} workers differ from 1 worker"));
            }
            if p.campaign != one.campaign {
                fail(&format!(
                    "campaign output at {n} workers differs from 1 worker"
                ));
            }
            if (&p.sweep, p.sweep_counts) != (&one.sweep, one.sweep_counts) {
                fail(&format!(
                    "scale_sweep output at {n} workers differs from 1 worker"
                ));
            }
            if n == 2 {
                let ratio = |t1: f64, t2: f64| t1 / t2.max(1e-9);
                speedups = vec![
                    ("engine", 1.2, ratio(one.engine_secs, p.engine_secs)),
                    ("campaign", 1.3, ratio(one.campaign_secs, p.campaign_secs)),
                    ("scale_sweep", 1.3, ratio(one.sweep_secs, p.sweep_secs)),
                ];
            }
        }
    }
    pool::set_threads(0);
    for &(name, _, s) in &speedups {
        rec.set_gauge(&format!("baseline/speedup_2w_{name}"), s);
    }

    let report = rec.snapshot();
    if let Some(dir) = Path::new(OBS_REPORT_PATH).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(OBS_REPORT_PATH, report.to_json()).expect("write obs report");
    eprintln!("baseline: wrote {OBS_REPORT_PATH}");
    print!("{}", report.to_table());

    let unknown = unknown_names(&report, MANIFEST);
    for n in &unknown {
        eprintln!("baseline: FAIL — report name missing from scripts/obs_manifest.txt: {n}");
    }
    if !unknown.is_empty() {
        exit(1);
    }
    for (name, min, s) in speedups {
        if s < min {
            fail(&format!(
                "2-worker {name} speedup {s:.2} < {min} on {cores} cores"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_check_lists_only_unknown_names() {
        let rec = Recorder::new();
        rec.record_seconds("net/build", 0.1);
        rec.add("cache/hits", 1);
        rec.set_gauge("baseline/cores", 2.0);
        // A commented-out name does not count as listed; blank lines and
        // a listed name absent from the run are fine.
        let manifest = "# gauge baseline/cores\n\nspan net/build\n  counter cache/hits  \n\ncounter cache/misses\n";
        assert_eq!(
            unknown_names(&rec.snapshot(), manifest),
            vec!["gauge baseline/cores".to_string()]
        );
        assert!(unknown_names(&RunReport::default(), manifest).is_empty());
    }

    #[test]
    fn committed_manifest_lists_the_baseline_gauges() {
        let rec = Recorder::new();
        for name in [
            "cores",
            "scale_sweep_fixups",
            "scale_sweep_avoided",
            "speedup_2w_engine",
            "speedup_2w_campaign",
            "speedup_2w_scale_sweep",
        ] {
            rec.set_gauge(&format!("baseline/{name}"), 1.0);
        }
        assert_eq!(
            unknown_names(&rec.snapshot(), MANIFEST),
            Vec::<String>::new()
        );
    }
}
