//! Spans of the traced iteration, recorded around each call the benchmark
//! makes into a layer, kept in memory and written out at the end.

use std::fmt::Write as _;

use detour_obs::Stopwatch;

use crate::alloc::Counting;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The layer called (`netsim`, `measure`, `datasets`, `core`, `engine`),
    /// or `benchmark` for the iteration itself.
    pub layer: &'static str,
    /// The function called.
    pub call: &'static str,
    /// Its argument: a dataset name or an experiment id.
    pub detail: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iter: usize,
    /// Allocations made while the span was open, on every thread.
    pub allocs: u64,
}

impl SpanRec {
    /// Wall seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans for one iteration. Calls are made one at a time from the
/// benchmark's thread, so a stack gives each span its parent.
pub struct Tracer {
    clock: Stopwatch,
    iter: usize,
    spans: Vec<SpanRec>,
    stack: Vec<(usize, u64)>,
}

impl Tracer {
    /// A tracer whose spans carry iteration id `iter`.
    pub fn new(iter: usize) -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            iter,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, layer: &'static str, call: &'static str, detail: &str) {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            layer,
            call,
            detail: detail.to_string(),
            start: self.clock.seconds(),
            end: 0.0,
            parent: self.stack.last().map(|&(p, _)| p),
            iter: self.iter,
            allocs: 0,
        });
        self.stack.push((id, Counting::count()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let (id, allocs0) = self.stack.pop().expect("end() matches a begin()");
        let span = &mut self.spans[id];
        span.end = self.clock.seconds();
        span.allocs = Counting::count() - allocs0;
    }

    /// Runs `f` inside a span.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        detail: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(layer, call, detail);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Seconds, count and allocations summed over the spans of one call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Summed wall seconds.
    pub secs: f64,
    /// Spans matched.
    pub count: u64,
    /// Summed allocations.
    pub allocs: u64,
}

/// Sums the spans of `layer::call`.
pub fn total(spans: &[SpanRec], layer: &str, call: &str) -> Total {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .fold(Total::default(), |t, s| Total {
            secs: t.secs + s.dur(),
            count: t.count + 1,
            allocs: t.allocs + s.allocs,
        })
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut sum, mut reach) = (0.0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    (0..spans.len())
        .map(|i| {
            let children = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            spans[i].dur() - covered(children, spans[i].start, spans[i].end)
        })
        .collect()
}

/// The share of span `root`'s wall time that its child spans cover.
pub fn covered_share(spans: &[SpanRec], root: usize) -> f64 {
    let r = &spans[root];
    if r.dur() <= 0.0 {
        return 0.0;
    }
    1.0 - self_times(spans)[root] / r.dur()
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The spans as a JSON document, one span per line, with self times.
pub fn to_json(workload: &str, seed: u64, threads: usize, spans: &[SpanRec]) -> String {
    let selfs = self_times(spans);
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \"spans\": [\n",
        json_str(workload)
    );
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"parent\": {parent}, \"iter\": {}, \"layer\": {}, \"name\": {}, \
             \"detail\": {}, \"start_s\": {}, \"end_s\": {}, \"dur_s\": {}, \"self_s\": {self_s}, \
             \"allocs\": {}}}{}",
            s.iter,
            json_str(s.layer),
            json_str(s.call),
            json_str(&s.detail),
            s.start,
            s.end,
            s.dur(),
            s.allocs,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: f64, end: f64) -> SpanRec {
        SpanRec {
            layer: "core",
            call: "compare",
            detail: String::new(),
            start,
            end,
            parent,
            iter: 0,
            allocs: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 4.0),
            // Overlaps the previous child: the overlap counts once.
            span(Some(0), 3.0, 5.0),
            span(Some(0), 8.0, 9.0),
            // A grandchild is covered by its parent, not by the root.
            span(Some(3), 8.0, 8.5),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 5.0).abs() < 1e-12);
        assert!((selfs[1] - 3.0).abs() < 1e-12);
        assert!((selfs[3] - 0.5).abs() < 1e-12);
        assert!((covered_share(&spans, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(None, 2.0, 4.0), span(Some(0), 1.0, 3.0)];
        assert!((self_times(&spans)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(3);
        t.begin("benchmark", "iteration", "");
        let x = t.call("core", "compare", "rtt", || 2 + 2);
        t.call("core", "compare", "loss", || ());
        t.end();
        assert_eq!(x, 4);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].iter, 3);
        let tot = total(s, "core", "compare");
        assert_eq!(tot.count, 2);
        assert!(tot.secs <= s[0].dur());
    }

    #[test]
    fn json_escapes_and_lists_every_span() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        let doc = to_json("w", 1, 2, &[span(None, 0.0, 1.0), span(Some(0), 0.0, 0.5)]);
        assert_eq!(doc.matches("\"self_s\"").count(), 2);
        assert!(doc.contains("\"parent\": 0"));
    }
}
