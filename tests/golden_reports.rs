//! Golden report snapshots.
//!
//! Every paper experiment's tiny-scale report is committed under
//! `tests/golden/` and byte-compared on every test run: the whole pipeline
//! — simulator, faulted campaigns, assembly, analysis, rendering — must
//! replay exactly, across thread counts, cache states, and refactors. The
//! paper set is generated and run through the shared-artifact engine
//! ([`detour_bench::experiments::run_all`]) at 1, 2 and 8 workers, and
//! every run is compared against the same snapshots.
//! `outage_sweep` is in the set deliberately: it pins the fault-injection
//! replay (schedules, degraded-report flags, starved-pair accounting), not
//! just the benign paper path. `asymmetry` pins the modal AS paths, which
//! no paper figure prints directly.
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
use detour_bench::experiments::{self, run_all, ALL_EXPERIMENTS};
use detour_bench::extras;
use detour_bench::{Bundle, Study};

/// The snapshotted experiments beyond the paper set: the fault sweep and
/// the routing-asymmetry census.
const EXTRA: &[&str] = &["outage_sweep", "asymmetry"];

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
    let scale = Scale::reduced(8, 24);
    let mut study = None;
    for threads in [1usize, 2, 8] {
        // Generation runs at each worker count too, so the snapshots pin
        // the whole pipeline, not only the analysis, per worker count.
        pool::set_threads(threads);
        let s = study.insert(Study::from_bundle(Bundle::generate(scale)));
        let reports = run_all(s, ALL_EXPERIMENTS);
        assert_eq!(reports.len(), ALL_EXPERIMENTS.len());
        for (id, report) in ALL_EXPERIMENTS.iter().zip(&reports) {
            check_or_bless(id, report, bless, &format!("{threads} worker(s)"));
        }
        if bless {
            break;
        }
    }
    pool::set_threads(0);
    let study = study.expect("at least one run");
    for id in EXTRA {
        let report = extras::run(id, &study)
            .or_else(|| experiments::run(id, &study))
            .unwrap_or_else(|| panic!("{id} not in the registry"));
        check_or_bless(id, &report, bless, "extra");
    }
}
