//! The `figures` binary treats its arguments and its cache directory as
//! untrusted input: an unknown flag or id ends the run with status 2 before
//! any work, and a cache path it cannot use ends it with the I/O error and
//! status 1, never a panic. Only the canonical run (full scale, seed 0)
//! writes `results/<id>.txt`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch working directory whose `results/cache` is a regular file, so
/// any run that gets as far as the trace cache fails fast with status 1
/// instead of generating datasets.
fn poisoned_cwd(name: &str) -> PathBuf {
    let cwd = std::env::temp_dir().join(format!("detour-figures-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(cwd.join("results")).unwrap();
    std::fs::write(cwd.join("results/cache"), b"not a directory").unwrap();
    cwd
}

fn figures(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap();
    (status.code(), String::from_utf8_lossy(&stderr).into_owned())
}

#[test]
fn unusable_cache_directory_exits_nonzero_without_panicking() {
    let cwd = poisoned_cwd("cache");
    for args in [
        &["--scaled", "table1"][..],
        &["--fresh", "--scaled", "table1"],
    ] {
        let (code, stderr) = figures(&cwd, args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("results/cache"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn unknown_flags_and_ids_exit_2_before_any_work() {
    let cwd = poisoned_cwd("args");
    for args in [
        &["--sclaed", "table1"][..],
        &["--scaled", "--thread", "2", "table1"],
        &["--scaled", "fig99"],
        &["--threads", "2", "--threads", "3", "table1"],
    ] {
        let (code, stderr) = figures(&cwd, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("results/cache"), "{args:?}: {stderr}");
    }
    let (_, stderr) = figures(&cwd, &["--sclaed"]);
    assert!(
        stderr.contains("--threads N, --seed S, --scaled, --fresh"),
        "{stderr}"
    );
    let (_, stderr) = figures(&cwd, &["--seed", "1", "--seed", "1"]);
    assert!(
        stderr.contains("figures: --seed given more than once"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn a_non_canonical_run_prints_its_reports_but_writes_no_results() {
    let cwd = std::env::temp_dir().join(format!("detour-figures-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scaled", "--seed", "1", "table1"])
        .current_dir(&cwd)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(
        String::from_utf8_lossy(&stdout).contains("Table 1"),
        "the report still goes to stdout"
    );
    assert!(stderr.contains("results/ left alone"), "{stderr}");
    assert!(!cwd.join("results/table1.txt").exists());
    std::fs::remove_dir_all(&cwd).unwrap();
}
