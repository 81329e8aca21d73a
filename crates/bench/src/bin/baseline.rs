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
//! `baseline/*` gauges for the values no span or counter carries. Its
//! workload is the canonical run ([`canonical::run`] at full scale over
//! every registry entry, as `figures all` makes it), at one worker except
//! in the extra passes of step 5:
//!
//! 1. **Cold phase.** The trace cache under `results/cache/` is purged and
//!    the canonical run generates the eight paper datasets, runs every
//!    experiment and writes every `results/<id>.txt`
//!    (`baseline/canonical_cold`).
//! 2. **SCALE load.** The 128-host [`detour_bench::scale`] dataset is
//!    generated into the cache (`baseline/scale_load_cold`), then decoded
//!    warm, best of three (`baseline/scale_load_warm`).
//! 3. **One pass** ([`pass`]): the canonical run again on the primed cache
//!    (`baseline/canonical_warm`), a fixed measurement campaign, and the
//!    batched best-alternate sweep on SCALE.
//! 4. **The SCALE digests.** The pass's RTT sweep and a loss sweep, under a
//!    scoped recorder, hash to pinned values.
//! 5. **Multi-core hosts only:** the pass again at 2, 4 and all-cores
//!    workers, each under its own scoped recorder, so the report's
//!    counters do not depend on the core count.
//!
//! The committed report is the run's expectation: it is read before the
//! run starts, and overwritten only by a run that matches it. Every gate
//! is fatal (exit 1):
//!
//! * every counter equals the committed one, names and values alike, and
//!   the span names are the committed ones; each difference is listed as
//!   `name: committed → now` (timings and gauges are host facts and are
//!   not compared). A run that differs writes its report to
//!   `results/obs_report.new.json` and leaves the committed one as it is,
//!   so the gate fails until the new report is moved into place;
//! * the warm reports equal the cold ones byte for byte (the trace cache's
//!   round trip at full scale), and reports, campaign output, sweep output
//!   and the pass's counters are identical across worker counts
//!   (`scripts/verify.sh` then diffs `results/*.txt` with the committed
//!   reports);
//! * the SCALE RTT and loss sweeps' outputs hash to
//!   [`SCALE_SWEEP_DIGESTS`], which pin tie-breaks no counter sees;
//! * on a multi-core host, two workers beat one by ≥ 1.2× end to end and
//!   ≥ 1.3× on the campaign and the sweep
//!   (`baseline/speedup_2w_{engine,campaign,scale_sweep}`).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::process::exit;

use detour_bench::canonical::{self, CACHE_DIR};
use detour_bench::experiments::REGISTRY;
use detour_bench::{cache, scale as scale_workload};
use detour_core::{
    kernel, pool, AnalysisContext, Loss, PathComparison, Rtt, SearchDepth, WeightMatrix,
};
use detour_datasets::Scale;
use detour_faults::FaultConfig;
use detour_measure::{run_campaign, CampaignConfig, RawMeasurements, Request, Schedule};
use detour_netsim::Network;
use detour_obs::{Recorder, RunReport};
use detour_prng::Xoshiro256pp;

/// Where the report lands, and the run's expectation.
const OBS_REPORT_PATH: &str = "results/obs_report.json";

/// Where a report that differs from the committed one lands instead.
const NEW_REPORT_PATH: &str = "results/obs_report.new.json";

/// The SCALE RTT and loss sweeps' outputs as [`sweep_digest`] hashes
/// them; one textbook Dijkstra per pair gives these bytes. The RTT sums
/// are all distinct, so the loss sweep, whose lossless edges weigh exactly
/// zero and tie whole subtrees, is the one that pins the extraction
/// tie-break.
const SCALE_SWEEP_DIGESTS: [(&str, u64); 2] = [
    ("rtt", 0xbe13_a2c1_1ced_e464),
    ("loss", 0xa6f9_e951_5dd2_cbd1),
];

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

/// Each name whose value differs between `was` and `now`, as
/// `name: was → now`, with `absent` for a side that lacks the name.
fn diff<V: PartialEq + Display>(
    was: &BTreeMap<String, V>,
    now: &BTreeMap<String, V>,
) -> Vec<String> {
    let show = |v: Option<&V>| v.map_or("absent".to_string(), V::to_string);
    let mut names: Vec<&String> = was.keys().chain(now.keys()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter(|&n| was.get(n) != now.get(n))
        .map(|n| format!("{n}: {} → {}", show(was.get(n)), show(now.get(n))))
        .collect()
}

/// What of the committed report `now` does not reproduce: each counter
/// that moved, appeared or vanished, then each span recorded on one side
/// only (`span x: absent → recorded`).
fn expectation_diff(committed: &RunReport, now: &RunReport) -> Vec<String> {
    let spans = |r: &RunReport| -> BTreeMap<String, &str> {
        r.spans
            .keys()
            .map(|k| (format!("span {k}"), "recorded"))
            .collect()
    };
    let mut out = diff(&committed.counters, &now.counters);
    out.extend(diff(&spans(committed), &spans(now)));
    out
}

/// A fixed campaign workload: one reduced 1999 network (UW3's at 10
/// hosts and 1/16 of its time) and a pairwise-exponential request list,
/// both independent of the worker count.
fn campaign_workload() -> (Network, Vec<Request>) {
    let spec = detour_datasets::uw3::spec();
    let net = detour_datasets::build_network(&spec, Scale::reduced(10, 16));
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
    /// Every counter the pass moved, by how much.
    counters: BTreeMap<String, u64>,
    engine_secs: f64,
    campaign_secs: f64,
    sweep_secs: f64,
}

/// The canonical run over every registry entry, timed under `span`.
fn canonical_run(span: &str) -> (Vec<String>, f64) {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    detour_obs::current().time(span, || {
        canonical::run(Scale::full(), &ids).unwrap_or_else(|e| fail(&e.to_string()))
    })
}

/// One pass at the current worker count, recorded into the current
/// recorder: the warm canonical run (cache load, contexts, every
/// experiment, the written reports), the fixed campaign, and the batched
/// sweep on the SCALE matrix. It sets the
/// `baseline/scale_sweep_{fixups,avoided}` gauges to the sweep's split.
fn pass((net, requests): &(Network, Vec<Request>), m: &WeightMatrix) -> Pass {
    let rec = detour_obs::current();
    let start = rec.snapshot();
    let (reports, engine_secs) = canonical_run("baseline/canonical_warm");
    let (campaign, campaign_secs) = rec.time("baseline/campaign", || {
        run_campaign(
            net,
            requests,
            &CampaignConfig::traceroute(),
            17,
            &FaultConfig::none(),
        )
    });
    let before = rec.snapshot();
    let (sweep, sweep_secs) = rec.time("baseline/scale_sweep", || {
        kernel::sweep(m, SearchDepth::Unrestricted)
    });
    let d = rec.snapshot().delta_since(&before);
    for split in ["fixups", "avoided"] {
        let n = d.counter(&format!("kernel/sweep_{split}"));
        rec.set_gauge(&format!("baseline/scale_sweep_{split}"), n as f64);
    }
    // `delta_since` keeps a counter that first appeared at zero and drops
    // one that stayed there, so zeros say nothing about the pass.
    let mut counters = rec.snapshot().delta_since(&start).counters;
    counters.retain(|_, &mut n| n != 0);
    Pass {
        reports,
        campaign,
        sweep,
        counters,
        engine_secs,
        campaign_secs,
        sweep_secs,
    }
}

fn main() {
    let committed = std::fs::read_to_string(OBS_REPORT_PATH)
        .map_err(|e| e.to_string())
        .and_then(|text| RunReport::from_json(&text))
        .unwrap_or_else(|e| fail(&format!("cannot read {OBS_REPORT_PATH}: {e}")));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cache_dir = Path::new(CACHE_DIR);

    // One recorder for the report: installed here and inherited by every
    // pool worker. Only the extra multi-core passes record elsewhere, and
    // only they run at more than one worker.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());
    rec.set_gauge("baseline/cores", cores as f64);
    pool::set_threads(1);

    // Cold phase: purge the trace cache, then the canonical run generates
    // every dataset and writes every report.
    cache::purge(cache_dir).expect("purge trace cache");
    let (cold, _) = canonical_run("baseline/canonical_cold");

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

    let one = pass(&camp, scale_m);
    if one.reports != cold {
        fail("warm reports differ from the cold run's");
    }
    // The loss sweep runs under a scoped recorder, so the report keeps the
    // counters of the one pass.
    let loss = {
        let _scope = detour_obs::install(Recorder::new());
        kernel::sweep(scale_cx.weights(&Loss), SearchDepth::Unrestricted)
    };
    for ((metric, pinned), sweep) in SCALE_SWEEP_DIGESTS.into_iter().zip([&one.sweep, &loss]) {
        let digest = sweep_digest(sweep);
        if digest != pinned {
            fail(&format!(
                "scale_sweep {metric} digest {digest:#018x} != pinned {pinned:#018x}"
            ));
        }
    }

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
                pass(&camp, scale_m)
            };
            for (what, same) in [
                ("reports", p.reports == one.reports),
                ("campaign output", p.campaign == one.campaign),
                ("scale_sweep output", p.sweep == one.sweep),
            ] {
                if !same {
                    fail(&format!("{what} at {n} workers differ from 1 worker"));
                }
            }
            if p.counters != one.counters {
                fail(&format!(
                    "counters at {n} workers differ from 1 worker (1 → {n}): {}",
                    diff(&one.counters, &p.counters).join(", ")
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

    // A run that differs from the committed report leaves it untouched,
    // so the gate keeps failing until the new report is moved into place.
    let report = rec.snapshot();
    let moved = expectation_diff(&committed, &report);
    let path = if moved.is_empty() {
        OBS_REPORT_PATH
    } else {
        NEW_REPORT_PATH
    };
    std::fs::write(path, report.to_json()).expect("write obs report");
    eprintln!("baseline: wrote {path}");
    print!("{}", report.to_table());
    if !moved.is_empty() {
        eprintln!("baseline: FAIL — the run differs from the committed report (committed → now):");
        for line in &moved {
            eprintln!("  {line}");
        }
        eprintln!(
            "baseline: review the changes, then `mv {NEW_REPORT_PATH} {OBS_REPORT_PATH}` \
             and commit it with the change"
        );
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
    fn the_expectation_diff_lists_each_moved_counter_and_span() {
        let committed = Recorder::new();
        committed.add("cache/hits", 11);
        committed.add("cache/misses", 9);
        committed.add("kernel/resettled", 28_188);
        committed.record_seconds("net/build", 0.1);
        committed.set_gauge("baseline/cores", 1.0);
        let committed = committed.snapshot();

        let now = Recorder::new();
        now.add("cache/hits", 12);
        now.add("kernel/resettled", 28_188);
        now.add("x/y", 1);
        now.record_seconds("net/build", 0.7);
        now.record_seconds("net/routing", 0.2);
        now.set_gauge("baseline/cores", 2.0);
        assert_eq!(
            expectation_diff(&committed, &now.snapshot()),
            [
                "cache/hits: 11 → 12",
                "cache/misses: 9 → absent",
                "x/y: absent → 1",
                "span net/routing: absent → recorded",
            ]
        );
        // Timings and gauges never count as a difference.
        assert!(expectation_diff(&committed, &committed).is_empty());
    }

    #[test]
    fn a_span_missing_from_the_run_is_listed() {
        let committed = Recorder::new();
        committed.record_seconds("experiment/fig1", 0.1);
        assert_eq!(
            expectation_diff(&committed.snapshot(), &RunReport::default()),
            ["span experiment/fig1: recorded → absent"]
        );
    }
}
