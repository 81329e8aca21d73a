//! # detour-pool
//!
//! Scoped thread-pool executor for the workspace's hot paths.
//!
//! The workloads this pool serves — per-pair best-alternate sweeps in
//! `detour-core`, per-source routing precomputation in `detour-netsim`,
//! per-request measurement campaigns in `detour-measure` — are all
//! embarrassingly parallel: every item reads shared state and writes
//! nothing. [`parallel_map`] fans such work out over `std::thread::scope`
//! workers (no dependencies, no unsafe) and merges results **in input
//! order**, so output is bit-identical at every thread count — a property
//! the determinism integration tests pin down.
//!
//! This crate sits at the bottom of the dependency graph (std only), so
//! the simulator and the measurement engine can use it without depending
//! on the analysis crate; `detour_core::pool` re-exports it for the
//! existing call sites.
//!
//! Design points:
//!
//! * **Global thread budget.** [`set_threads`] (driven by the `figures`
//!   binary's `--threads` flag) configures the whole process; `0` means
//!   "use every available core". Analyses stay signature-compatible —
//!   nothing threads a pool handle through twelve layers of calls.
//! * **Chunked claiming via an atomic cursor.** Workers claim index
//!   *ranges* with a single `fetch_add` and return one result `Vec` per
//!   chunk through their join handle. The earlier per-item
//!   `mpsc::send((index, result))` design paid one allocation plus one
//!   channel synchronization per item, which produced *negative* scaling
//!   on cheap items; chunking amortizes the claim to a few atomics per
//!   worker while small chunk sizes keep the load balanced when item
//!   costs are skewed (well-connected pairs terminate early).
//! * **Per-worker state.** [`parallel_map_init`] hands every worker one
//!   `init()` value reused across all items it claims — how the
//!   best-alternate sweeps recycle one worker's tree and re-settle
//!   buffers across its sources instead of allocating them per task.
//! * **No nested fan-out.** A worker that itself calls [`parallel_map`]
//!   runs the inner map sequentially (tracked with a thread-local), so
//!   parallelizing both the per-dataset loop of an experiment and the
//!   per-pair sweep inside it cannot multiply thread counts.

//! * **Panic context.** A panic inside `init` or a mapped item is caught
//!   in its worker and re-raised on the calling thread as
//!   `pool worker {w} panicked on item {i}: {payload}`, so the caller
//!   sees where the fault fired instead of an opaque join failure.
//! * **Observability propagation.** Every fan-out re-installs the
//!   spawning thread's current `detour-obs` recorder inside each worker,
//!   so a recorder scoped with `obs::install` observes work done by pool
//!   workers, not just the installing thread. The pool reports through
//!   that recorder itself: `pool/maps` / `pool/items` counters (how many
//!   fan-outs ran, over how many items — deterministic in the workload,
//!   so thread-count-invariant) and a per-worker `pool/worker` busy span
//!   (occupancy; timing only, excluded from determinism comparisons).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Re-raises a panic caught in worker `worker` on input index `item`,
/// stringifying its payload (panics carry `&str` or `String` in practice;
/// anything else gets a placeholder).
fn repanic(worker: usize, item: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let payload = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    };
    panic!("pool worker {worker} panicked on item {item}: {payload}")
}

/// Requested thread count; 0 = auto (all available cores).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Chunks each worker should expect to claim, on average. More chunks =
/// better load balancing for skewed item costs; fewer = less claiming
/// overhead. Eight per worker keeps the worst-case imbalance under ~1/8 of
/// one worker's share while the cursor stays off the hot path.
const CHUNKS_PER_WORKER: usize = 8;

thread_local! {
    /// True inside a pool worker — makes nested `parallel_map` sequential.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the process-wide thread budget. `0` restores the default (one
/// thread per available core). Safe to call at any time; maps already in
/// flight keep the budget they started with.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The resolved thread budget a new `parallel_map` would use.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Maps `f` over `items` on the process thread budget, returning results
/// in input order (deterministic merge regardless of execution order).
///
/// Falls back to a plain sequential map when the budget is one thread,
/// the input is tiny, or the caller is itself a pool worker.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    parallel_map_init(items, || (), |(), item| f(item))
}

/// Maps `f` over `items` and concatenates the per-item `Vec`s in input
/// order — the fan-out shape for *batched* work, where each task carries a
/// slice's worth of real computation (a request batch in the measurement
/// campaign, one source's pair group in the sweep kernel) instead of a
/// single cheap item. Equivalent to
/// `parallel_map(items, f).into_iter().flatten().collect()` but spelled
/// once, so call sites keep the deterministic-merge property obvious.
pub fn parallel_flat_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> Vec<R> + Sync) -> Vec<R> {
    let nested = parallel_map(items, f);
    let mut out = Vec::with_capacity(nested.iter().map(Vec::len).sum());
    for v in nested {
        out.extend(v);
    }
    out
}

/// Like [`parallel_map`], but each worker first builds one `init()` state
/// and threads it mutably through every item it claims — scratch buffers
/// live once per worker, not once per item. The sequential fallback uses a
/// single state for all items, which is indistinguishable for any state
/// that only caches capacity (the intended use).
///
/// A panic inside `init` or `f` is re-raised on the calling thread with
/// the worker and item index attached; already-claimed work on other
/// workers completes first. For a deterministic `f`, the reported item
/// and payload are stable across runs and thread counts; the worker index
/// is whichever thread claimed the poisoned chunk. When several items
/// panic, the lowest-indexed worker's panic wins.
pub fn parallel_map_init<T: Sync, R: Send, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let rec = detour_obs::current();
    rec.add("pool/maps", 1);
    rec.add("pool/items", items.len() as u64);
    let workers = threads().min(items.len());
    if workers <= 1 || IN_POOL.with(|p| p.get()) {
        let current = std::cell::Cell::new(0usize);
        return catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    current.set(i);
                    f(&mut state, item)
                })
                .collect()
        }))
        .unwrap_or_else(|p| repanic(0, current.get(), p));
    }

    // Chunk size: enough chunks for stealing to balance skewed costs, but
    // never one item per claim.
    let chunk = items.len().div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let init = &init;
                let f = &f;
                let rec = rec.clone();
                scope.spawn(move || {
                    // Workers inherit the spawning thread's recorder, so a
                    // scoped `obs::install` sees the whole fan-out. The span
                    // measures this worker's busy time (occupancy).
                    let _obs_guard = detour_obs::install(rec.clone());
                    let _busy = rec.span("pool/worker");
                    IN_POOL.with(|p| p.set(true));
                    // Tracks the item under evaluation so a caught panic
                    // can report *where* it fired.
                    let current = std::cell::Cell::new(0usize);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut state = init();
                        let mut chunks: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            let mut out = Vec::with_capacity(end - start);
                            for (k, item) in items[start..end].iter().enumerate() {
                                current.set(start + k);
                                out.push(f(&mut state, item));
                            }
                            chunks.push((start, out));
                        }
                        chunks
                    }));
                    IN_POOL.with(|p| p.set(false));
                    result.map_err(|p| (current.get(), p))
                })
            })
            .collect();

        // Index-ordered merge: place each chunk at its claimed offset, so
        // the output is bit-identical to the sequential map no matter which
        // worker ran which chunk.
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut first_panic = None;
        for (w, h) in handles.into_iter().enumerate() {
            match h.join().map_err(|p| (0, p)) {
                Ok(Ok(chunks)) => {
                    for (start, chunk_results) in chunks {
                        for (k, r) in chunk_results.into_iter().enumerate() {
                            slots[start + k] = Some(r);
                        }
                    }
                }
                Ok(Err((item, payload))) | Err((item, payload)) => {
                    first_panic.get_or_insert((w, item, payload));
                }
            }
        }
        if let Some((w, item, payload)) = first_panic {
            repanic(w, item, payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced exactly one result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test that mutates the process-wide thread budget:
    /// `set_threads` is global state, and the test harness runs tests
    /// concurrently in one process, so unguarded budget changes can race
    /// (one test asserting `threads() == 3` while another sets 8).
    fn thread_budget_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A poisoned lock only means another test failed; the budget is
        // still safe to use.
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn respects_an_explicit_thread_budget() {
        let _guard = thread_budget_lock();
        set_threads(3);
        assert_eq!(threads(), 3);
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 50);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let _guard = thread_budget_lock();
        let items: Vec<u64> = (0..500).collect();
        let mut baseline = None;
        for t in [1, 2, 8] {
            set_threads(t);
            // A mildly uneven workload to scramble completion order.
            let out = parallel_map(&items, |&x| {
                (0..(x % 7)).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
            });
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(b, &out, "thread count {t} changed results"),
            }
        }
        set_threads(0);
    }

    #[test]
    fn nested_maps_do_not_explode() {
        let _guard = thread_budget_lock();
        set_threads(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map(&outer, |&i| {
            let inner: Vec<usize> = (0..20).collect();
            parallel_map(&inner, |&j| i * 100 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..20).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
        set_threads(0);
    }

    #[test]
    fn flat_map_concatenates_in_input_order() {
        let _guard = thread_budget_lock();
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items
            .iter()
            .flat_map(|&x| (0..x % 4).map(move |k| x * 10 + k))
            .collect();
        for t in [1usize, 2, 8] {
            set_threads(t);
            let out = parallel_flat_map(&items, |&x| (0..x % 4).map(|k| x * 10 + k).collect());
            assert_eq!(out, expect, "thread count {t} changed results");
        }
        set_threads(0);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn init_state_is_reused_within_workers() {
        let _guard = thread_budget_lock();
        set_threads(4);
        let items: Vec<u64> = (0..300).collect();
        // State = a scratch buffer; correctness must not depend on which
        // worker processed which item, only on the item itself.
        let out = parallel_map_init(&items, Vec::<u64>::new, |scratch, &x| {
            scratch.clear();
            scratch.extend((0..(x % 5)).map(|i| x + i));
            scratch.iter().sum::<u64>()
        });
        let mut state = Vec::new();
        let expect: Vec<u64> = items
            .iter()
            .map(|&x| {
                state.clear();
                state.extend((0..(x % 5)).map(|i| x + i));
                state.iter().sum::<u64>()
            })
            .collect();
        assert_eq!(out, expect);
        set_threads(0);
    }

    /// The message a pool re-panic carries (it formats a `String`).
    fn panic_message(caught: Box<dyn std::any::Any + Send>) -> String {
        caught.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn map_repanics_with_item_and_payload() {
        let _guard = thread_budget_lock();
        for t in [1usize, 4] {
            set_threads(t);
            let items: Vec<u64> = (0..200).collect();
            let caught = std::panic::catch_unwind(|| {
                parallel_map(&items, |&x| {
                    if x == 17 {
                        panic!("original payload");
                    }
                    x * 2
                })
            })
            .expect_err("parallel_map must panic on a poisoned item");
            let msg = panic_message(caught);
            assert!(
                msg.contains("item 17") && msg.contains("original payload"),
                "threads={t}: re-panic should carry item and payload, got: {msg}"
            );
        }
        set_threads(0);
    }

    #[test]
    fn panicking_init_repanics_with_its_payload() {
        let _guard = thread_budget_lock();
        for t in [1usize, 4] {
            set_threads(t);
            let items: Vec<u32> = (0..100).collect();
            let caught = std::panic::catch_unwind(|| {
                parallel_map_init(&items, || -> u32 { panic!("init exploded") }, |_, &x| x)
            })
            .expect_err("an init panic must propagate");
            let msg = panic_message(caught);
            assert!(msg.contains("init exploded"), "threads={t}: got: {msg}");
        }
        set_threads(0);
    }

    #[test]
    fn recorder_reaches_workers_and_pool_counters_are_thread_invariant() {
        let _guard = thread_budget_lock();
        let items: Vec<u64> = (0..200).collect();
        let expect_marks: u64 = items.iter().map(|x| x % 2).sum();
        let mut baseline: Option<(u64, u64)> = None;
        for t in [1usize, 2, 8] {
            set_threads(t);
            let rec = detour_obs::Recorder::new();
            let _g = detour_obs::install(rec.clone());
            let out = parallel_map(&items, |&x| {
                // Records from whatever thread claimed the item; all marks
                // must land in the installed recorder.
                detour_obs::current().add("test/marks", x % 2);
                x
            });
            assert_eq!(out, items);
            assert_eq!(
                rec.counter("test/marks"),
                expect_marks,
                "threads={t}: worker records must reach the installed recorder"
            );
            let counts = (rec.counter("pool/maps"), rec.counter("pool/items"));
            assert_eq!(counts.0, 1);
            assert_eq!(counts.1, items.len() as u64);
            match &baseline {
                None => baseline = Some(counts),
                Some(b) => assert_eq!(b, &counts, "threads={t} changed pool counters"),
            }
        }
        set_threads(0);
    }

    #[test]
    fn init_determinism_across_thread_counts() {
        let _guard = thread_budget_lock();
        let items: Vec<u64> = (0..400).collect();
        let mut baseline: Option<Vec<u64>> = None;
        for t in [1usize, 2, 8] {
            set_threads(t);
            let out = parallel_map_init(
                &items,
                || 0u64,
                |acc, &x| {
                    *acc = acc.wrapping_add(x); // worker-local, must not leak
                    x.wrapping_mul(2654435761)
                },
            );
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(b, &out, "thread count {t} changed results"),
            }
        }
        set_threads(0);
    }
}
