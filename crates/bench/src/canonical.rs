//! The one run both binaries make: the eight datasets through the trace
//! cache under [`CACHE_DIR`], [`Study::from_bundle`], one [`run_all`] over
//! the requested ids, and at [`Scale::full`] (seed offset 0) each report
//! written to `results/<id>.txt` by one writer. The canonical run is
//! [`run`] at full scale over every registry entry: `figures all` makes it,
//! and the `baseline` binary makes it cold and warm, so the run that writes
//! the committed reports is the run the baseline times and gates.

use std::io;
use std::path::Path;

use detour_datasets::Scale;

use crate::experiments::run_all;
use crate::{Bundle, Study};

/// Where both binaries keep the trace cache.
pub const CACHE_DIR: &str = "results/cache";

/// Runs `ids` on the study at `scale` and returns their reports in request
/// order. At full scale with seed offset 0 it also writes each report to
/// `results/<id>.txt`; any other scale leaves `results/` alone. An error
/// names the trace cache or results path the run cannot use.
pub fn run(scale: Scale, ids: &[&str]) -> io::Result<Vec<String>> {
    let bundle = Bundle::generate_cached(scale, Path::new(CACHE_DIR)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot use the trace cache {CACHE_DIR}: {e}"),
        )
    })?;
    let reports = run_all(&Study::from_bundle(bundle), ids);
    if scale == Scale::full() {
        write_reports(Path::new("results"), ids, &reports)?;
    }
    Ok(reports)
}

/// Writes each report to `<dir>/<id>.txt`, creating `dir` if needed. An
/// error names the first path that cannot be created or written.
fn write_reports(dir: &Path, ids: &[&str], reports: &[String]) -> io::Result<()> {
    let named = |path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    for (id, report) in ids.iter().zip(reports) {
        let path = dir.join(format!("{id}.txt"));
        std::fs::write(&path, report).map_err(|e| named(&path, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_writes_exactly_the_ids_run_with_their_bytes() {
        let dir = std::env::temp_dir().join(format!("detour-results-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reports = ["Table 1\n".to_string(), "Figure 12 — ü\n\n".to_string()];
        write_reports(&dir, &["table1", "fig12"], &reports).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort_unstable();
        assert_eq!(names, ["fig12.txt", "table1.txt"]);
        for (id, report) in ["table1", "fig12"].iter().zip(&reports) {
            let bytes = std::fs::read(dir.join(format!("{id}.txt"))).unwrap();
            assert_eq!(bytes, report.as_bytes(), "{id}");
        }
        let e = write_reports(&dir.join("table1.txt"), &["fig1"], &reports).unwrap_err();
        assert!(e.to_string().contains("table1.txt"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
