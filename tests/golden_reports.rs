//! Golden report snapshots.
//!
//! Every paper experiment's tiny-scale report is committed under
//! `tests/golden/` and byte-compared on every test run: the whole pipeline
//! — simulator, faulted campaigns, assembly, analysis, rendering — must
//! replay exactly, across thread counts, cache states, and refactors.
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

use detour::datasets::Scale;
use detour_bench::{experiments, extras};
use detour_bench::{Bundle, Study};

/// The snapshotted experiments beyond the paper set: the fault sweep and
/// the routing-asymmetry census.
const EXTRA: &[&str] = &["outage_sweep", "asymmetry"];

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

#[test]
fn reports_match_committed_golden_snapshots() {
    let bless = std::env::var_os("DETOUR_BLESS").is_some();
    let study = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
    for id in experiments::ALL_EXPERIMENTS.iter().chain(EXTRA) {
        let report = experiments::run(id, &study)
            .or_else(|| extras::run(id, &study))
            .unwrap_or_else(|| panic!("{id} not in the registry"));
        let path = golden_path(id);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &report).unwrap();
            continue;
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
            "{id} diverged from its golden snapshot; if the change is \
             intentional, re-bless with DETOUR_BLESS=1 and commit the diff"
        );
    }
}
