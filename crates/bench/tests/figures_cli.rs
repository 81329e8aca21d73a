//! The `figures` binary treats its cache directory as untrusted input: a
//! cache path it cannot use ends the run with the I/O error and a non-zero
//! exit status, never a panic.

use std::process::Command;

#[test]
fn unusable_cache_directory_exits_nonzero_without_panicking() {
    let cwd = std::env::temp_dir().join(format!("detour-figures-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(cwd.join("results")).unwrap();
    // A regular file where the cache directory belongs.
    std::fs::write(cwd.join("results/cache"), b"not a directory").unwrap();
    for args in [
        &["--scaled", "table1"][..],
        &["--fresh", "--scaled", "table1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("results/cache"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
