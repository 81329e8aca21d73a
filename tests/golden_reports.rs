//! Golden report snapshots.
//!
//! Every registered experiment's tiny-scale report is committed under
//! `tests/golden/` and byte-compared on every test run: the whole pipeline
//! — simulator, faulted campaigns, assembly, analysis, rendering — must
//! replay exactly, across thread counts, cache states, and refactors. The
//! experiments that read the study (the paper set and four extras) are
//! generated and run through the shared-artifact engine
//! ([`detour_bench::experiments::run_all`]) at 1, 2 and 8 workers, and
//! every run is compared against the same snapshots.
//!
//! The [`SELF_CONTAINED`] experiments build their own networks and ignore
//! the study, so they run once, in their own test. `outage_sweep` pins the
//! fault-injection replay (schedules, degraded-report flags, starved-pair
//! accounting); `ablation` and `overlay` do not depend on scale either, so
//! their snapshots must also equal the committed full-run `results/` files.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DETOUR_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! and commit the diff under `tests/golden/` with the change that caused
//! it.

use std::path::PathBuf;

use detour::core::pool;
use detour::datasets::Scale;
use detour_bench::experiments::{run_all, REGISTRY};
use detour_bench::{Bundle, Study};

/// The registry entries that ignore the study.
const SELF_CONTAINED: &[&str] = &["ablation", "overlay", "outage_sweep"];

/// The scale every snapshot is taken at.
fn scale() -> Scale {
    Scale::reduced(8, 24)
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

/// Writes `report` as the snapshot for `id` when blessing, otherwise
/// asserts it equals the committed snapshot.
fn check_or_bless(id: &str, report: &str, bless: bool, context: &str) {
    let path = golden_path(id);
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, report).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run DETOUR_BLESS=1 cargo test \
             --test golden_reports to create it",
            path.display()
        )
    });
    assert_eq!(
        report, want,
        "{id} ({context}) diverged from its golden snapshot; if the change \
         is intentional, re-bless with DETOUR_BLESS=1 and commit the diff"
    );
}

#[test]
fn reports_match_committed_golden_snapshots() {
    let bless = std::env::var_os("DETOUR_BLESS").is_some();
    let ids: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.id)
        .filter(|id| !SELF_CONTAINED.contains(id))
        .collect();
    for threads in [1usize, 2, 8] {
        // Generation runs at each worker count too, so the snapshots pin
        // the whole pipeline, not only the analysis, per worker count.
        pool::set_threads(threads);
        let study = Study::from_bundle(Bundle::generate(scale()));
        let reports = run_all(&study, &ids);
        assert_eq!(reports.len(), ids.len());
        for (id, report) in ids.iter().zip(&reports) {
            check_or_bless(id, report, bless, &format!("{threads} worker(s)"));
        }
        if bless {
            break;
        }
    }
    pool::set_threads(0);
}

#[test]
fn self_contained_reports_match_snapshots_and_committed_results() {
    let bless = std::env::var_os("DETOUR_BLESS").is_some();
    let study = Study::from_bundle(Bundle::generate(scale()));
    let reports = run_all(&study, SELF_CONTAINED);
    for (id, report) in SELF_CONTAINED.iter().zip(&reports) {
        check_or_bless(id, report, bless, "self-contained");
        let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("{id}.txt"));
        assert_eq!(
            Some(report),
            std::fs::read_to_string(&committed).ok().as_ref(),
            "{id} differs from {}",
            committed.display()
        );
    }
}
