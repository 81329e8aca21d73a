//! `detour-benchmark`: the end-to-end and per-layer benchmark of the
//! detour reproduction. See `benchmark/README.md` for the workloads and
//! the metric dictionary; `benchmark/run.sh` builds and runs it.
//!
//! ```text
//! detour-benchmark --workload W --seed S --seconds T --trace 0|1 [--threads N] [--out DIR] [--smoke]
//! detour-benchmark [--seed S] [--seconds T] [--threads N] [--out DIR] [--repeat K] [--smoke]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is a JSON result. Without it, every workload runs
//! `--repeat` times, each in its own child process, and the medians,
//! quartiles and spreads land in `DIR/results.json`.

mod alloc;
mod check;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use detour_bench::experiments::ALL_EXPERIMENTS;
use detour_core::pool;
use detour_measure::PairTable;
use detour_obs::{Recorder, Stopwatch};

use crate::alloc::Counting;
use crate::check::Checker;
use crate::trace::{json_str, total, SpanRec, Tracer};
use crate::workloads::{Cfg, Facts, FaultedCold, PaperRun, ScaleMesh, Workload, NAMES};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const USAGE: &str = "usage: detour-benchmark [--workload W --trace 0|1] [--seed S] [--seconds T] \
                     [--threads N] [--out DIR] [--repeat K] [--smoke]";

/// The trace-cache counters reported as `obs.*` metrics. The traced
/// iteration calls the layers beneath the cache one at a time, so these
/// come from the first timed iteration instead.
const CACHE_COUNTERS: [&str; 2] = ["cache/hits", "cache/misses"];

/// The detour-obs counters of the traced iteration reported as `obs.*`
/// metrics.
const OBS_COUNTERS: [&str; 18] = [
    "context/bandwidth_builds",
    "context/graph_builds",
    "context/table_builds",
    "context/weights_loss_builds",
    "context/weights_prop_builds",
    "context/weights_rtt_builds",
    "faults/host_down_requests",
    "faults/host_episodes",
    "faults/link_episodes",
    "faults/router_episodes",
    "faults/storm_episodes",
    "faults/truncated_requests",
    "faults/withdrawal_episodes",
    "kernel/sweep_avoided",
    "kernel/sweep_fixups",
    "kernel/sweep_pairs",
    "pool/items",
    "pool/maps",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    out: PathBuf,
    repeat: usize,
    smoke: bool,
}

/// All cores but one, and at least one: a pool that fans out over every
/// core waits on whichever worker the rest of the machine preempts. On a
/// 2-core host, two workers spread `scale_mesh`'s `iter_s` by 14 % from
/// run to run, one worker by 5 %.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: f64::NAN,
        trace: false,
        threads: default_threads(),
        out: PathBuf::from("target/detour-benchmark"),
        repeat: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => a.workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("one of {NAMES:?}"))),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--threads" => a.threads = value.parse().map_err(|_| bad("an integer"))?,
            "--out" => a.out = PathBuf::from(value),
            "--repeat" => {
                a.repeat = value
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| bad("a positive integer"))?
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if a.seconds.is_nan() {
        // A smoke run is one iteration per workload.
        a.seconds = if a.smoke { 0.0 } else { 20.0 };
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pool::set_threads(args.threads);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => suite(&args),
    }
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0 of an empty f64 sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `VmHWM` of this process, in MB (2^20 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns free heap pages to the kernel, so RSS counts live data only.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, is thread-safe, and
    // only releases memory no allocation holds.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let tmp = args.out.join(format!("tmp-{name}-{}", std::process::id()));
    let cfg = Cfg {
        seed: args.seed,
        smoke: args.smoke,
        tmp: tmp.clone(),
    };
    let code = match name {
        "paper_cold" => measure(PaperRun::new(cfg, false), name, args),
        "paper_warm" => measure(PaperRun::new(cfg, true), name, args),
        "scale_mesh" => measure(ScaleMesh::new(cfg), name, args),
        _ => measure(FaultedCold::new(cfg), name, args),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    code
}

/// Sets up, runs untraced iterations for `--seconds`, optionally runs the
/// traced iteration, and prints the result.
fn measure<W: Workload>(mut w: W, name: &str, args: &Args) -> ExitCode {
    let clock = Stopwatch::start();
    match catch_unwind(AssertUnwindSafe(|| w.setup())) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("{name}: setup failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("{name}: setup panicked");
            return ExitCode::FAILURE;
        }
    }
    let setup_s = clock.seconds();
    let mut checker = Checker::new(w.expected());
    // Writing 5 resets VmHWM to the current RSS; set-up's freed heap goes
    // back to the kernel first, so the peak is the first iteration's own.
    release_free_heap();
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("{name}: cannot reset VmHWM; peak_rss_mb includes set-up");
    }
    let mut peak = None;
    let mut iters = Vec::new();
    let mut run_alls = Vec::new();
    // Counters of the first timed iteration.
    let first = Recorder::new();
    let clock = Stopwatch::start();
    loop {
        let result = {
            let _obs = iters.is_empty().then(|| detour_obs::install(first.clone()));
            catch_unwind(AssertUnwindSafe(|| w.iterate()))
        };
        match result {
            Ok((product, laps)) => {
                peak.get_or_insert_with(peak_rss_mb);
                iters.push(laps.iter_s);
                run_alls.extend(laps.run_all_s);
                checker.iteration(&w.outputs(&product));
            }
            Err(_) => {
                // Later iterations would panic the same way.
                checker.panicked();
                break;
            }
        }
        if clock.seconds() >= args.seconds {
            break;
        }
    }
    // After the timed loop, so their memory and time stay out of it.
    match w.input_checks() {
        Ok(checks) => checks
            .into_iter()
            .for_each(|(what, ok)| checker.check(what, ok)),
        Err(e) => {
            eprintln!("{name}: input check failed: {e}");
            checker.check("input check ran", false);
        }
    }

    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("iter_s", stats::median(&iters), "s"),
        metric("peak_rss_mb", peak.unwrap_or(0.0), "MB"),
    ];
    let per_layer = args
        .trace
        .then(|| traced(&mut w, name, args, &mut checker, &first, &iters, &run_alls));

    for m in &end_to_end {
        let note = match m.name.as_str() {
            "iter_s" => format!(" n={}", iters.len()),
            _ => String::new(),
        };
        println!("{name} {} {} {}{note}", m.name, m.value, m.unit);
    }
    for m in per_layer.iter().flatten() {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let attempted = checker.attempted.max(1);
    println!(
        "{name} error_rate {} ratio",
        checker.failed as f64 / attempted as f64
    );
    println!("{name} digest {:016x}", checker.digest.unwrap_or(0));

    let shown = per_layer.as_ref().unwrap_or(&end_to_end);
    let mut json = String::new();
    for (i, m) in shown.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    let correct = checker.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checker.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pair coverage summed over the analysed datasets.
#[derive(Default)]
struct Coverage {
    measured: usize,
    possible: usize,
    starved: usize,
    isolated: usize,
}

/// Runs the traced iteration, writes `trace-<workload>.json`, and returns
/// the per-layer metrics. `first` holds the first timed iteration's
/// counters.
fn traced<W: Workload>(
    w: &mut W,
    name: &str,
    args: &Args,
    checker: &mut Checker,
    first: &Recorder,
    iters: &[f64],
    run_alls: &[f64],
) -> Vec<Metric> {
    let rec = Recorder::new();
    let mut t = Tracer::new(iters.len());
    let mut facts = Facts::default();
    let product = {
        let _obs = detour_obs::install(rec.clone());
        Counting::enable(true);
        let p = catch_unwind(AssertUnwindSafe(|| w.traced(&mut t, &mut facts)));
        Counting::enable(false);
        p
    };
    let mut cov = Coverage::default();
    match product {
        Ok(p) => {
            checker.iteration(&w.outputs(&p));
            for cx in w.contexts(&p) {
                let d = cx.degradation();
                cov.measured += d.measured_pairs;
                cov.possible += d.possible_pairs;
                cov.starved += d.starved_pairs;
                cov.isolated += d.isolated_hosts;
                // Outside the iteration span: the context built its table
                // inside `AnalysisContext::new`, where no span can reach.
                t.call("measure", "pairtable", &cx.dataset().name, || {
                    PairTable::build(cx.dataset())
                });
            }
        }
        Err(_) => checker.panicked(),
    }
    // Counters outside the fixed list still print, so new instrumentation
    // shows up before the metric list catches up.
    for (c, v) in rec.snapshot().counters {
        if !OBS_COUNTERS.contains(&c.as_str()) {
            println!("{name} obs.{} {v} count (unlisted)", c.replace('/', "."));
        }
    }
    let path = args.out.join(format!("trace-{name}.json"));
    let doc = trace::to_json(name, args.seed, pool::threads(), t.spans());
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("{name}: cannot write {}: {e}", path.display());
    }
    let counter = |c: &str| {
        if CACHE_COUNTERS.contains(&c) {
            first.counter(c)
        } else {
            rec.counter(c)
        }
    };
    layer_metrics(
        t.spans(),
        &facts,
        &cov,
        &counter,
        stats::median(iters),
        run_alls,
    )
}

/// The per-layer metrics, in `BENCHMARK.json` order, from the traced
/// iteration's spans and counters. A layer the workload does not call
/// reads 0.
fn layer_metrics(
    spans: &[SpanRec],
    facts: &Facts,
    cov: &Coverage,
    counter: &dyn Fn(&str) -> u64,
    untraced_s: f64,
    run_alls: &[f64],
) -> Vec<Metric> {
    let root = spans.iter().position(|s| s.call == "iteration");
    let wall = root.map_or(0.0, |r| spans[r].dur());
    let secs = |layer, call| total(spans, layer, call).secs;
    let build = total(spans, "netsim", "build_network");
    let generate = total(spans, "measure", "generate_on");
    let records = (facts.probes + facts.transfers) as f64;
    let context = total(spans, "core", "context");
    let mb = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    let count = |c: &str| counter(c) as f64;

    let mut out = vec![
        metric("netsim.build_s", build.secs, "s"),
        metric("netsim.builds", build.count as f64, "count"),
        metric("netsim.allocs", build.allocs as f64, "count"),
        metric("measure.generate_s", generate.secs, "s"),
        metric("measure.probes", facts.probes as f64, "count"),
        metric("measure.transfers", facts.transfers as f64, "count"),
        metric(
            "measure.ns_per_probe",
            ratio(generate.secs * 1e9, records),
            "ns",
        ),
        metric(
            "measure.allocs_per_probe",
            ratio(generate.allocs as f64, records),
            "allocs/probe",
        ),
        metric("measure.restrict_s", secs("measure", "restrict_na"), "s"),
        metric("measure.pairtable_s", secs("measure", "pairtable"), "s"),
        metric(
            "faults.measured_pair_ratio",
            ratio(cov.measured as f64, cov.possible as f64),
            "ratio",
        ),
        metric("faults.starved_pairs", cov.starved as f64, "count"),
        metric("faults.isolated_hosts", cov.isolated as f64, "count"),
        metric("datasets.save_s", secs("datasets", "save"), "s"),
        metric("datasets.save_mb", mb(facts.saved_bytes), "MB"),
        metric("datasets.load_s", secs("datasets", "load"), "s"),
        metric(
            "datasets.load_mb_per_s",
            ratio(mb(facts.loaded_bytes), secs("datasets", "load")),
            "MB/s",
        ),
        metric("core.context_s", context.secs, "s"),
        metric("core.context_allocs", context.allocs as f64, "count"),
        metric("core.artifacts_s", secs("core", "artifacts"), "s"),
        metric("core.compare_s", secs("core", "compare"), "s"),
        metric("core.greedy_s", secs("core", "greedy"), "s"),
        metric(
            "core.fixup_ratio",
            ratio(count("kernel/sweep_fixups"), count("kernel/sweep_pairs")),
            "ratio",
        ),
        metric("engine.prebuild_s", secs("engine", "prebuild"), "s"),
    ];
    let exp: Vec<f64> = ALL_EXPERIMENTS
        .iter()
        .map(|id| {
            spans
                .iter()
                .filter(|s| s.layer == "engine" && s.call == "run" && s.detail == *id)
                .map(SpanRec::dur)
                .sum()
        })
        .collect();
    for (id, s) in ALL_EXPERIMENTS.iter().zip(&exp) {
        out.push(metric(format!("engine.exp.{id}_s"), *s, "s"));
    }
    let exp_sum: f64 = exp.iter().sum();
    out.push(metric("engine.exp_sum_s", exp_sum, "s"));
    out.push(metric(
        "engine.exp_max_s",
        exp.iter().copied().fold(0.0, f64::max),
        "s",
    ));
    out.push(metric(
        "engine.parallel_efficiency",
        ratio(exp_sum, pool::threads() as f64 * stats::median(run_alls)),
        "ratio",
    ));
    for c in CACHE_COUNTERS.into_iter().chain(OBS_COUNTERS) {
        out.push(metric(
            format!("obs.{}", c.replace('/', ".")),
            count(c),
            "count",
        ));
    }
    out.push(metric(
        "trace.overhead_pct",
        (ratio(wall, untraced_s) - 1.0) * 100.0,
        "%",
    ));
    out.push(metric(
        "trace.covered_pct",
        root.map_or(0.0, |r| trace::covered_share(spans, r) * 100.0),
        "%",
    ));
    out
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

/// Runs every workload `--repeat` times in child processes and summarises.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (workload, metric) -> (unit, values), in first-seen order.
    let mut keys: Vec<(String, String)> = Vec::new();
    let mut values: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..args.repeat {
        for w in NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", "1"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--threads", &pool::threads().to_string()])
                .arg("--out")
                .arg(&args.out)
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{w}: cannot start: {e}");
                    ok = false;
                    continue;
                }
            };
            if !out.status.success() {
                eprintln!("{w} (run {}): exited with {}", rep + 1, out.status);
                ok = false;
            }
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                if line.starts_with('{') {
                    continue;
                }
                println!("{line}");
                let f: Vec<&str> = line.split_whitespace().collect();
                if let [wl, name, value, unit, ..] = f[..] {
                    if let Ok(v) = value.parse::<f64>() {
                        let key = (wl.to_string(), name.to_string());
                        let entry = values.entry(key.clone()).or_insert_with(|| {
                            keys.push(key);
                            (unit.to_string(), Vec::new())
                        });
                        entry.1.push(v);
                    }
                }
            }
        }
    }

    let mut json = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"threads\": {}, \"repeat\": {}, \"smoke\": {}, \
         \"ok\": {ok}, \"metrics\": [\n",
        args.seed,
        args.seconds,
        pool::threads(),
        args.repeat,
        args.smoke
    );
    if args.repeat > 1 {
        println!("# workload metric median q1 q3 spread bound unit");
    }
    for (i, key) in keys.iter().enumerate() {
        let (unit, vs) = &values[key];
        let (q1, med, q3) = stats::quartiles(vs);
        let spread = stats::spread(vs);
        let bound = stats::bound(spread, med, stats::floor_for(unit));
        if args.repeat > 1 {
            println!(
                "# {} {} {med} {q1} {q3} {spread:.4} {bound:.4} {unit}",
                key.0, key.1
            );
        }
        let vs: Vec<String> = vs.iter().map(f64::to_string).collect();
        let _ = writeln!(
            json,
            "  {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {med}, \"q1\": {q1}, \
             \"q3\": {q3}, \"spread\": {spread}, \"bound\": {bound}, \"values\": [{}]}}{}",
            json_str(&key.0),
            json_str(&key.1),
            json_str(unit),
            vs.join(", "),
            if i + 1 < keys.len() { "," } else { "" }
        );
    }
    json.push_str("]}\n");
    let path = args.out.join("results.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        parse_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn workload_flags_parse_and_bad_values_are_refused() {
        let a = args(&[
            "--workload",
            "scale_mesh",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("scale_mesh"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert_eq!(args(&["--smoke"]).unwrap().seconds, 0.0);
    }

    /// Every metric the program reports is declared in `BENCHMARK.json`,
    /// and nothing more.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let zero = |_: &str| 0;
        let layer = layer_metrics(
            &[],
            &Facts::default(),
            &Coverage::default(),
            &zero,
            1.0,
            &[],
        );
        let names: Vec<String> = ["setup_s", "iter_s", "peak_rss_mb"]
            .into_iter()
            .map(String::from)
            .chain(layer.into_iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{n}\"")),
                "{n} is not declared"
            );
        }
        assert_eq!(
            spec.matches("\"unit\"").count(),
            names.len(),
            "undeclared extras"
        );
    }
}
