//! # detour-obs
//!
//! The unified observability core: one span/counter layer replacing every
//! ad-hoc stat struct and hand-rolled `Instant` timer in the pipeline.
//!
//! Every layer of the workspace used to report on itself through a private
//! mechanism — `GenerateStages` in the dataset pipeline, `SweepStats` in
//! the analysis kernel, `CacheStats` in the trace cache, the
//! `artifact_builds` integer on the analysis context, raw `Instant`
//! arithmetic in the bench binaries. This crate replaces all of them with
//! a single substrate:
//!
//! * **[`Span`]s** — hierarchical wall-clock timings, named
//!   `layer/operation` (e.g. `net/routing`, `engine/prebuild`). Spans with
//!   the same name *merge*: their durations sum and their activations
//!   count, across threads, so per-worker timings aggregate into one row.
//! * **[`Recorder::add`] counters** — named monotonic event counts
//!   (`cache/hits`, `kernel/sweep_fixups`). Counters record *work done*,
//!   which is deterministic in the inputs — so counter values are
//!   **thread-count-invariant**, a property the workspace tests pin down.
//! * **Gauges** — last-write-wins named values for run parameters
//!   (`baseline/cores`).
//!
//! The cardinal rule: **instrumentation is a side channel.** Nothing
//! recorded here may feed back into results; golden reports and
//! byte-identity comparisons never include timing fields, and counters
//! must not depend on scheduling. Timings (spans) are allowed to vary
//! between runs and thread counts; counters and gauges are not.
//!
//! ## Scoping
//!
//! A [`Recorder`] is a cheap-to-clone handle (an `Arc` around the store).
//! Library code records into [`current`] — the recorder installed on the
//! calling thread, falling back to the process-wide [`global`] one. Tests
//! and the bench binaries scope their measurements by installing a fresh
//! recorder with [`install`]; `detour-pool` propagates the caller's
//! current recorder into its workers, so a scoped recorder sees the whole
//! fan-out, not just the spawning thread.
//!
//! ## Reports
//!
//! [`Recorder::snapshot`] captures a [`RunReport`]: an ordered map of
//! spans, counters, and gauges. It renders as a human table
//! ([`RunReport::to_table`]) and as stable machine-readable JSON
//! ([`RunReport::to_json`] — keys sorted, one entry per line, fixed
//! number formatting), which [`RunReport::from_json`] reads back. The
//! `baseline` binary reads the committed report this way and requires its
//! counters and span names to recur exactly, so a moved counter or a
//! renamed span is always a deliberate, reviewed change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Accumulated wall-clock of one named span: how many times it was entered
/// and the summed duration. Spans merge across threads — the pool records
/// one `pool/worker` span per worker and they all land in one entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStat {
    /// Times the span was entered (activations).
    pub count: u64,
    /// Total seconds across all activations.
    pub seconds: f64,
}

#[derive(Default)]
struct Store {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

/// A cheap-to-clone, thread-safe handle to one observability store.
///
/// Clones share the store; a `Recorder` can be handed to pool workers (or
/// propagated automatically via [`install`] + `detour-pool`) and every
/// record lands in the same report.
#[derive(Clone, Default)]
pub struct Recorder {
    store: Arc<Mutex<Store>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("Recorder")
            .field("spans", &s.spans.len())
            .field("counters", &s.counters.len())
            .field("gauges", &s.gauges.len())
            .finish()
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        // A poisoned store only means some other thread panicked mid-record;
        // the side channel must never compound a failure.
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `n` to the named monotonic counter (creating it at 0 first).
    /// Counter values must be deterministic in the workload — never derive
    /// them from scheduling, timing, or thread identity.
    pub fn add(&self, name: &str, n: u64) {
        let mut s = self.lock();
        match s.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                s.counters.insert(name.to_string(), n);
            }
        }
    }

    /// The current value of a counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a named gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Folds one activation of `seconds` into the named span.
    pub fn record_seconds(&self, name: &str, seconds: f64) {
        let mut s = self.lock();
        match s.spans.get_mut(name) {
            Some(v) => {
                v.count += 1;
                v.seconds += seconds;
            }
            None => {
                s.spans
                    .insert(name.to_string(), SpanStat { count: 1, seconds });
            }
        }
    }

    /// Opens a span; its wall-clock records under `name` when the guard
    /// drops (or [`Span::finish`] is called to also read the duration).
    pub fn span(&self, name: &str) -> Span {
        Span {
            rec: self.clone(),
            name: name.to_string(),
            start: Instant::now(),
            done: false,
        }
    }

    /// Times `f` under a span, returning its result and the elapsed
    /// seconds — the replacement for `let t = Instant::now(); …;
    /// t.elapsed()` pairs in the binaries.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.span(name);
        let out = f();
        let secs = span.finish();
        (out, secs)
    }

    /// Runs `f` `rounds` times and records the **fastest** round under
    /// `name` — the shared best-of-N timing loop (warm cache loads, text
    /// vs binary parses) that used to be hand-rolled at every call site.
    /// Returns the last round's result and the best seconds. Per-round
    /// invariants (e.g. "every load is byte-identical") belong inside `f`.
    pub fn best_of<R>(&self, name: &str, rounds: usize, mut f: impl FnMut() -> R) -> (R, f64) {
        assert!(rounds >= 1, "best_of needs at least one round");
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..rounds {
            let t = Stopwatch::start();
            out = Some(f());
            best = best.min(t.seconds());
        }
        self.record_seconds(name, best);
        (out.expect("rounds >= 1"), best)
    }

    /// Captures the current state of the store.
    pub fn snapshot(&self) -> RunReport {
        let s = self.lock();
        RunReport {
            spans: s.spans.clone(),
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
        }
    }
}

/// An open span: RAII wall-clock measurement that records into its
/// [`Recorder`] on drop.
pub struct Span {
    rec: Recorder,
    name: String,
    start: Instant,
    done: bool,
}

impl Span {
    /// Closes the span now and returns the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.rec.record_seconds(&self.name, secs);
        self.done = true;
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            let secs = self.start.elapsed().as_secs_f64();
            self.rec.record_seconds(&self.name, secs);
        }
    }
}

/// A monotonic stopwatch — the workspace's one sanctioned wall-clock
/// primitive (library and bin code uses this instead of raw
/// `std::time::Instant`, so timing stays inside the obs layer).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

// ---------------------------------------------------------------------------
// Scoping: per-thread current recorder with a process-global fallback.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static CURRENT: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default recorder (what [`current`] falls back to when
/// no recorder is installed on the calling thread).
pub fn global() -> Recorder {
    GLOBAL.get_or_init(Recorder::new).clone()
}

/// The recorder the calling thread should record into: the innermost
/// [`install`]ed one, else [`global`].
pub fn current() -> Recorder {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Installs `rec` as the calling thread's current recorder until the
/// returned guard drops (installs nest). `detour-pool` re-installs the
/// spawning thread's current recorder inside each worker, so an installed
/// recorder observes the whole fan-out.
pub fn install(rec: Recorder) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(rec));
    InstallGuard { _priv: () }
}

/// Uninstalls the matching [`install`]ed recorder on drop.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// An immutable snapshot of one recorder: ordered spans, counters, gauges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Merged spans by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
}

impl RunReport {
    /// The change since an earlier snapshot of the *same* recorder: span
    /// counts/durations and counters subtract; gauges keep their current
    /// value. This is how the bench binaries attribute work to one phase
    /// of a longer run without resetting the recorder mid-flight.
    pub fn delta_since(&self, earlier: &RunReport) -> RunReport {
        let spans = self
            .spans
            .iter()
            .filter_map(|(k, v)| {
                let e = earlier.spans.get(k).copied().unwrap_or_default();
                let d = SpanStat {
                    count: v.count.saturating_sub(e.count),
                    seconds: (v.seconds - e.seconds).max(0.0),
                };
                (d.count > 0).then(|| (k.clone(), d))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                let fresh = !earlier.counters.contains_key(k);
                (d > 0 || fresh).then(|| (k.clone(), d))
            })
            .collect();
        RunReport {
            spans,
            counters,
            gauges: self.gauges.clone(),
        }
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the report as an aligned human table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .spans
            .keys()
            .chain(self.counters.keys())
            .chain(self.gauges.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "  {:<width$} {:>10} {:>12}",
                "span", "count", "seconds"
            );
            for (name, s) in &self.spans {
                let _ = writeln!(out, "  {name:<width$} {:>10} {:>12.3}", s.count, s.seconds);
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  {:<width$} {:>23}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$} {v:>23}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "  {:<width$} {:>23}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$} {v:>23.3}");
            }
        }
        out
    }

    /// Renders the report as stable machine-readable JSON: sorted keys,
    /// one entry per line, fixed formatting — so diffs are meaningful.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"detour-obs-v1\",\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{name}\": {{\"count\": {}, \"seconds\": {:.6}}}",
                s.count, s.seconds
            );
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {v}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {v:.6}");
        }
        out.push_str(if self.gauges.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }

    /// Reads back what [`RunReport::to_json`] writes, and only that fixed
    /// format: the schema line, then the spans, counters and gauges
    /// sections in that order, one entry per line. The error names the
    /// first line that breaks the format.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        fn next<'a>(
            lines: &mut impl Iterator<Item = (usize, &'a str)>,
        ) -> Result<(usize, &'a str), String> {
            lines
                .next()
                .ok_or_else(|| "the report ends early".to_string())
        }
        fn bad((n, line): (usize, &str)) -> String {
            format!("line {n}: unexpected `{line}`")
        }
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        for want in ["{", "\"schema\": \"detour-obs-v1\","] {
            let line = next(&mut lines)?;
            if line.1 != want {
                return Err(bad(line));
            }
        }
        let mut report = RunReport::default();
        for (section, close) in [("spans", "},"), ("counters", "},"), ("gauges", "}")] {
            let head = next(&mut lines)?;
            if head.1 == format!("\"{section}\": {{{close}") {
                continue;
            }
            if head.1 != format!("\"{section}\": {{") {
                return Err(bad(head));
            }
            loop {
                let line = next(&mut lines)?;
                if line.1 == close {
                    break;
                }
                let entry = line.1.strip_suffix(',').unwrap_or(line.1);
                let (name, value) = entry
                    .strip_prefix('"')
                    .and_then(|e| e.split_once("\": "))
                    .ok_or_else(|| bad(line))?;
                let name = name.to_string();
                let fresh = match section {
                    "spans" => {
                        let (count, seconds) = value
                            .strip_prefix("{\"count\": ")
                            .and_then(|v| v.strip_suffix('}'))
                            .and_then(|v| v.split_once(", \"seconds\": "))
                            .ok_or_else(|| bad(line))?;
                        let stat = SpanStat {
                            count: count.parse().map_err(|_| bad(line))?,
                            seconds: seconds.parse().map_err(|_| bad(line))?,
                        };
                        report.spans.insert(name, stat).is_none()
                    }
                    "counters" => {
                        let v = value.parse().map_err(|_| bad(line))?;
                        report.counters.insert(name, v).is_none()
                    }
                    _ => {
                        let v = value.parse().map_err(|_| bad(line))?;
                        report.gauges.insert(name, v).is_none()
                    }
                };
                if !fresh {
                    return Err(format!("line {}: a repeated name", line.0));
                }
            }
        }
        let end = next(&mut lines)?;
        if end.1 != "}" {
            return Err(bad(end));
        }
        match lines.find(|(_, l)| !l.is_empty()) {
            Some(extra) => Err(bad(extra)),
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let r = Recorder::new();
        r.add("a/b", 3);
        r.add("a/b", 4);
        r.add("a/c", 1);
        assert_eq!(r.counter("a/b"), 7);
        assert_eq!(r.counter("a/c"), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn spans_merge_by_name() {
        let r = Recorder::new();
        r.record_seconds("x", 1.0);
        r.record_seconds("x", 2.0);
        let snap = r.snapshot();
        let s = snap.spans.get("x").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.seconds - 3.0).abs() < 1e-12);
    }

    #[test]
    fn span_guard_records_on_drop_and_finish_returns_elapsed() {
        let r = Recorder::new();
        {
            let _g = r.span("guarded");
        }
        let secs = r.span("finished").finish();
        assert!(secs >= 0.0);
        let snap = r.snapshot();
        assert_eq!(snap.spans.get("guarded").unwrap().count, 1);
        assert_eq!(snap.spans.get("finished").unwrap().count, 1);
    }

    #[test]
    fn time_and_best_of_record_and_return() {
        let r = Recorder::new();
        let (v, secs) = r.time("t", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let mut calls = 0;
        let (v, best) = r.best_of("b", 3, || {
            calls += 1;
            calls
        });
        assert_eq!((v, calls), (3, 3));
        assert!(best >= 0.0);
        let snap = r.snapshot();
        assert_eq!(
            snap.spans.get("b").unwrap().count,
            1,
            "best_of records once"
        );
    }

    #[test]
    fn clones_share_one_store() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.add("shared", 5);
        assert_eq!(r.counter("shared"), 5);
    }

    #[test]
    fn install_scopes_current_and_nests() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        {
            let _a = install(outer.clone());
            current().add("depth", 1);
            {
                let _b = install(inner.clone());
                current().add("depth", 10);
            }
            current().add("depth", 1);
        }
        assert_eq!(outer.counter("depth"), 2);
        assert_eq!(inner.counter("depth"), 10);
    }

    #[test]
    fn current_falls_back_to_global() {
        // Only checks identity-of-store, not values: other tests in this
        // process may also write to the global recorder.
        let g = global();
        g.add("obs-test/global-fallback", 1);
        assert!(current().counter("obs-test/global-fallback") >= 1);
    }

    #[test]
    fn delta_since_subtracts_and_drops_unchanged() {
        let r = Recorder::new();
        r.add("c", 5);
        r.record_seconds("s", 1.0);
        let before = r.snapshot();
        r.add("c", 2);
        r.add("fresh", 0);
        r.record_seconds("s2", 0.5);
        let d = r.snapshot().delta_since(&before);
        assert_eq!(d.counter("c"), 2);
        assert_eq!(d.counter("fresh"), 0);
        assert!(d.counters.contains_key("fresh"), "new 0-counters survive");
        assert!(!d.spans.contains_key("s"), "untouched spans drop out");
        assert_eq!(d.spans.get("s2").unwrap().count, 1);
    }

    #[test]
    fn json_is_stable_sorted_and_fixed_format() {
        let r = Recorder::new();
        r.add("cache/misses", 0);
        r.add("cache/hits", 8);
        r.record_seconds("net/build", 0.25);
        r.set_gauge("baseline/cores", 8.0);
        assert_eq!(
            r.snapshot().to_json(),
            "{\n  \"schema\": \"detour-obs-v1\",\n  \"spans\": {\n    \
             \"net/build\": {\"count\": 1, \"seconds\": 0.250000}\n  },\n  \
             \"counters\": {\n    \"cache/hits\": 8,\n    \"cache/misses\": 0\n  },\n  \
             \"gauges\": {\n    \"baseline/cores\": 8.000000\n  }\n}\n"
        );
    }

    #[test]
    fn from_json_reads_back_what_to_json_writes() {
        let r = Recorder::new();
        r.add("cache/misses", 0);
        r.add("kernel/resettled", 28_188);
        r.record_seconds("net/build", 0.25);
        r.record_seconds("net/build", 0.5);
        r.set_gauge("baseline/cores", 2.0);
        let report = r.snapshot();
        assert_eq!(RunReport::from_json(&report.to_json()), Ok(report));
        let empty = RunReport::default();
        assert_eq!(RunReport::from_json(&empty.to_json()), Ok(empty));
    }

    #[test]
    fn from_json_rejects_what_to_json_never_writes() {
        let r = Recorder::new();
        r.add("cache/hits", 8);
        r.record_seconds("net/build", 0.25);
        let json = r.snapshot().to_json();
        for (text, line) in [
            (String::new(), None),
            ("not json".to_string(), Some(1)),
            (json.replace("detour-obs-v1", "detour-obs-v0"), Some(2)),
            (
                json.replace("\"cache/hits\": 8", "\"cache/hits\": -8"),
                Some(7),
            ),
            (json.replace("\"count\": 1", "\"count\": x"), Some(4)),
            (json.replace("\"counters\"", "\"gauges\""), Some(6)),
            (json.replace("8\n", "8,\n    \"cache/hits\": 8\n"), Some(8)),
            (json.replace("}\n}\n", "}\n"), None),
            (format!("{json}}}\n"), Some(11)),
        ] {
            let err = RunReport::from_json(&text).expect_err(&text);
            match line {
                Some(n) => assert!(err.starts_with(&format!("line {n}:")), "{err}"),
                None => assert_eq!(err, "the report ends early"),
            }
        }
    }

    #[test]
    fn empty_report_renders_empty_sections() {
        assert_eq!(
            RunReport::default().to_json(),
            "{\n  \"schema\": \"detour-obs-v1\",\n  \"spans\": {},\n  \
             \"counters\": {},\n  \"gauges\": {}\n}\n"
        );
        assert_eq!(RunReport::default().to_table(), "");
    }

    #[test]
    fn table_lists_every_kind() {
        let r = Recorder::new();
        r.add("k/count", 3);
        r.record_seconds("k/span", 0.5);
        r.set_gauge("k/gauge", 1.5);
        let t = r.snapshot().to_table();
        assert!(t.contains("k/count") && t.contains("k/span") && t.contains("k/gauge"));
    }
}
