//! The on-disk trace cache for generated datasets.
//!
//! Dataset generation dominates a cold `figures`/`baseline` run, yet for a
//! fixed `(spec, seed, scale)` the output is deterministic — so it caches.
//! Each generated dataset is saved once through the `.trace2` binary
//! columnar format ([`detour_datasets::trace2`], whose round-trip is
//! bit-exact) and later runs load it back instead of re-simulating. The
//! cache key is the file name:
//!
//! ```text
//! {name}-o{seed_offset}-h{hosts|full}-t{time_divisor}-g{GENERATOR_EPOCH}.trace2
//! ```
//!
//! which covers every generation input: the dataset spec (via its name),
//! the seed perturbation, both scale knobs, and the generator's code (via
//! [`GENERATOR_EPOCH`], so a trace simulated before a declared RNG stream
//! break is a miss, not a stale hit). Files live under a caller
//! chosen directory (the binaries use `results/cache/`); a missing file is
//! simply a miss, and the family regenerates and re-saves. Loads and
//! misses are decided per *family* — sibling datasets (D2/D2-NA,
//! N2/N2-NA, UW4-A/UW4-B: [`detour_datasets::Family`]) share a simulated
//! network, so a partial hit would split one simulation across two runs;
//! instead, a family with any missing member regenerates whole.
//!
//! `.trace2` is the only format the cache reads; any other file in the
//! directory is ignored. A corrupt, truncated, or mismatched `.trace2`,
//! or one in a layout version the reader no longer decodes, is renamed
//! `{file}.quarantined` (evidence preserved) and its family regenerated.
//!
//! One private function probes, quarantines, loads or regenerates, saves
//! and counts for every entry: [`Bundle::generate_cached`] calls it once
//! per family, and [`crate::scale::load_or_generate`] once for the
//! one-member SCALE family. Cache accounting goes through the current
//! `detour-obs` recorder: the `cache/hits` / `cache/misses` /
//! `cache/quarantined` counters (per dataset, deterministic in the on-disk
//! state, so thread-count-invariant), and each of the two callers opens
//! one `cache/load` span around its whole pass.

use std::path::{Path, PathBuf};

use detour_core::pool;
use detour_datasets::{trace2, Family, Scale};
use detour_measure::Dataset;

use crate::bundle::Bundle;

/// The generation of the simulator's sampling code. Bump it with every
/// declared RNG stream break: traces cached under an older epoch then miss
/// and regenerate instead of loading pre-break data. Epoch 0 is every
/// stem written before the field existed (`{name}-o…-h…-t…` with no
/// `-g`); epoch 1 samples each traceroute's forward links once per
/// invocation; epoch 2 summarises each TCP transfer in closed form from 16
/// sampled round trips; epoch 3 takes each link sample's Gamma(4) queuing
/// delay from one logarithm and its wander from `sin_cos` values, which
/// moves queuing delays in their last bits.
pub const GENERATOR_EPOCH: u32 = 3;

/// The cache key stem for one dataset at one scale (no extension).
fn cache_stem(name: &str, scale: Scale) -> String {
    let hosts = scale
        .n_hosts
        .map_or_else(|| "full".to_string(), |n| n.to_string());
    format!(
        "{name}-o{}-h{hosts}-t{}-g{GENERATOR_EPOCH}",
        scale.seed_offset, scale.time_divisor
    )
}

/// The cache file for one dataset at one scale.
pub fn cache_path(dir: &Path, name: &str, scale: Scale) -> PathBuf {
    dir.join(format!("{}.trace2", cache_stem(name, scale)))
}

/// The quarantine destination for a corrupt cache file: the original path
/// with `.quarantined` appended.
fn quarantined_path(original: &Path) -> PathBuf {
    let mut p = original.as_os_str().to_os_string();
    p.push(".quarantined");
    PathBuf::from(p)
}

/// Loads one family's datasets from the cache in `dir`, or regenerates and
/// saves them: the one probe-or-regenerate path behind
/// [`Bundle::generate_cached`] and the SCALE workload's
/// [`crate::scale::load_or_generate`].
///
/// `names` are the family's members, in the order `generate` returns
/// them. Every member is probed: a missing file is a miss, and a
/// truncated, unparseable or mismatched one is renamed `{file}.quarantined`
/// (evidence preserved) and counts as a miss too. The family loads only
/// when every member hits — members share one simulation, so a partial hit
/// regenerates the whole family and saves each member. Counts
/// `cache/hits` and `cache/misses` (one per member) and
/// `cache/quarantined` on the current `detour-obs` recorder. Returns the
/// datasets in `names` order and whether they loaded from disk.
pub(crate) fn load_or_regenerate(
    dir: &Path,
    names: &[&str],
    scale: Scale,
    generate: impl FnOnce() -> Vec<Dataset>,
) -> std::io::Result<(Vec<Dataset>, bool)> {
    std::fs::create_dir_all(dir)?;
    let mut loaded = Vec::with_capacity(names.len());
    let mut quarantined = 0;
    for &name in names {
        let path = cache_path(dir, name, scale);
        if !path.exists() {
            continue;
        }
        match trace2::load(&path) {
            Ok(ds) if ds.name == name => loaded.push(ds),
            Ok(_) | Err(_) => {
                std::fs::rename(&path, quarantined_path(&path))?;
                quarantined += 1;
            }
        }
    }
    let hit = loaded.len() == names.len();
    let rec = detour_obs::current();
    let members = names.len() as u64;
    rec.add("cache/hits", if hit { members } else { 0 });
    rec.add("cache/misses", if hit { 0 } else { members });
    rec.add("cache/quarantined", quarantined);
    if hit {
        return Ok((loaded, true));
    }
    let generated = generate();
    for (name, ds) in names.iter().zip(&generated) {
        trace2::save(ds, &cache_path(dir, name, scale))?;
    }
    Ok((generated, false))
}

impl Bundle {
    /// Like [`Bundle::generate`], but backed by the trace cache in `dir`.
    ///
    /// Each [`Family`] loads or regenerates through one
    /// `load_or_regenerate` call. Both paths yield byte-identical
    /// datasets (the binary round-trip preserves raw `f64` bits), and the
    /// per-family fan-out merges index-ordered, so the bundle is the same
    /// at any thread count whether it came from simulation or disk.
    ///
    /// Per-dataset accounting lands on the current `detour-obs` recorder:
    /// `cache/hits`, `cache/misses` and `cache/quarantined` (corrupt files
    /// renamed `.quarantined`; every quarantine is also a miss), all under
    /// one `cache/load` span.
    pub fn generate_cached(scale: Scale, dir: &Path) -> std::io::Result<Bundle> {
        let _load = detour_obs::current().span("cache/load");
        let families = pool::parallel_map(&Family::ALL, |&family| {
            let names: Vec<&str> = family.members().iter().map(|id| id.name()).collect();
            load_or_regenerate(dir, &names, scale, || family.generate(scale)).map(|(dss, _)| dss)
        });
        let families = families.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        Ok(Bundle::assemble(families))
    }
}

/// Deletes every cache file in `dir` — live `.trace2` entries and
/// `.quarantined` corpses alike (the `--fresh` flag); other files are left
/// alone. Missing directories count as already purged.
pub fn purge(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path
            .extension()
            .is_some_and(|e| e == "trace2" || e == "quarantined")
        {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::scale_spec;
    use detour_datasets::generate;

    /// Runs `f` under a fresh scoped recorder and returns its result with
    /// the `(hits, misses, quarantined)` counter readings for that call
    /// alone.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
        let rec = detour_obs::Recorder::new();
        let _g = detour_obs::install(rec.clone());
        let out = f();
        let stats = (
            rec.counter("cache/hits"),
            rec.counter("cache/misses"),
            rec.counter("cache/quarantined"),
        );
        (out, stats)
    }

    /// One cached bundle generation, counted.
    fn run_cached(scale: Scale, dir: &Path) -> (Bundle, (u64, u64, u64)) {
        counted(|| Bundle::generate_cached(scale, dir).unwrap())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("detour-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_round_trips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let scale = Scale::reduced(8, 24);
        let (cold, s0) = run_cached(scale, &dir);
        assert_eq!((s0.0, s0.1), (0, 8), "empty dir: all misses");
        let (warm, s1) = run_cached(scale, &dir);
        assert_eq!(s1, (8, 0, 0), "second run: all hits");
        for (a, b) in cold.in_table_order().iter().zip(warm.in_table_order()) {
            assert_eq!(*a, b, "{} changed across the cache", a.name);
        }
        // And both match direct generation.
        let direct = Bundle::generate(scale);
        assert_eq!(cold.uw3, direct.uw3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_one_member_family_misses_hits_then_quarantines_and_regenerates() {
        // SCALE's spec at a tiny scale, through the path
        // `scale::load_or_generate` takes, with the counter deltas the
        // bundle tests assert, per member.
        let dir = tmp_dir("one-member");
        let spec = scale_spec();
        let scale = Scale {
            n_hosts: Some(8),
            time_divisor: 2000,
            seed_offset: 0,
        };
        let regenerate = || vec![generate(&spec, scale)];
        let run = || counted(|| load_or_regenerate(&dir, &[spec.name], scale, regenerate).unwrap());
        let ((cold, hit), stats) = run();
        assert!(!hit);
        assert_eq!(stats, (0, 1, 0), "empty dir: a miss");
        let path = cache_path(&dir, spec.name, scale);
        assert!(
            trace2::load(&path).unwrap() == generate(&scale_spec(), scale),
            "the spec and the scale are the whole input of the saved dataset"
        );
        let ((warm, hit), stats) = run();
        assert!(hit);
        assert_eq!(stats, (1, 0, 0), "second run: a hit");
        assert_eq!(
            trace2::to_bytes(&warm[0]),
            trace2::to_bytes(&cold[0]),
            "the cache round trip is lossless"
        );
        std::fs::write(&path, b"DTRACE2\n but not really").unwrap();
        let ((again, hit), stats) = run();
        assert!(!hit);
        assert_eq!(stats, (0, 1, 1), "the corrupt file is quarantined");
        assert_eq!(again, cold, "regeneration restores the dataset");
        assert!(quarantined_path(&path).exists());
        assert_eq!(run().1, (1, 0, 0), "the rewritten entry is healthy");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_regenerated() {
        let dir = tmp_dir("corrupt");
        let scale = Scale::reduced(8, 24);
        let (reference, _) = run_cached(scale, &dir);
        let bad = b"DTRACE2\n but not really".to_vec();
        std::fs::write(cache_path(&dir, "UW3", scale), &bad).unwrap();
        let (again, stats) = run_cached(scale, &dir);
        assert_eq!((stats.0, stats.1), (7, 1), "UW3 family regenerates");
        assert_eq!(stats.2, 1, "the corrupt file is quarantined");
        assert_eq!(
            again.uw3, reference.uw3,
            "regeneration restores the dataset"
        );
        let corpse = quarantined_path(&cache_path(&dir, "UW3", scale));
        assert_eq!(
            std::fs::read(&corpse).unwrap(),
            bad,
            "quarantine preserves the corrupt bytes for post-mortem"
        );
        let (_, warm) = run_cached(scale, &dir);
        assert_eq!(
            warm,
            (8, 0, 0),
            "the rewritten entry is healthy; the corpse is ignored"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_cache_entry_is_quarantined_and_regenerated() {
        let dir = tmp_dir("truncate");
        let scale = Scale::reduced(8, 24);
        let (reference, _) = run_cached(scale, &dir);
        // Chop a valid binary trace mid-section — simulating a crash during
        // save. The section table's extents no longer fit the file, so the
        // detection is deterministic.
        let path = cache_path(&dir, "UW3", scale);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
        let (again, stats) = run_cached(scale, &dir);
        assert_eq!(stats.2, 1, "the truncated file is quarantined");
        assert_eq!(
            again.uw3, reference.uw3,
            "regeneration restores the dataset"
        );
        assert!(quarantined_path(&cache_path(&dir, "UW3", scale)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v2_trace_under_a_current_stem_is_quarantined_and_regenerated() {
        // A file stamped with trace version 2 (the layout with a
        // first-index column) under today's stem, as a cache written
        // before version 3 holds: the reader refuses it on the version
        // alone, and its family regenerates in the current layout, byte
        // for byte what a fresh generation saves.
        let dir = tmp_dir("v2");
        let scale = Scale::reduced(8, 24);
        run_cached(scale, &dir);
        let path = cache_path(&dir, "UW4-B", scale);
        let mut old = std::fs::read(&path).unwrap();
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            trace2::from_bytes(&old).unwrap_err(),
            trace2::Trace2Error::UnsupportedVersion(2)
        );
        std::fs::write(&path, &old).unwrap();
        let (_, stats) = run_cached(scale, &dir);
        assert_eq!(stats, (6, 2, 1), "UW4-A and UW4-B regenerate");
        assert_eq!(std::fs::read(quarantined_path(&path)).unwrap(), old);
        let fresh = Family::Uw4.generate(scale);
        assert!(std::fs::read(&path).unwrap() == trace2::to_bytes(&fresh[1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_scales_use_disjoint_keys() {
        let dir = Path::new("unused");
        let a = cache_path(dir, "UW3", Scale::reduced(8, 24));
        let b = cache_path(dir, "UW3", Scale::reduced(9, 24));
        let c = cache_path(dir, "UW3", Scale::reduced(8, 24).with_seed_offset(1));
        let d = cache_path(dir, "UW3", Scale::full());
        assert!(a != b && a != c && a != d && b != c && b != d && c != d);
    }

    #[test]
    fn a_trace_cached_by_an_earlier_generator_is_a_miss() {
        // Files saved under the pre-epoch stem and under the previous
        // epoch's stem hold datasets from older sampling code: neither may
        // load; the family regenerates under the current stem.
        let dir = tmp_dir("epoch");
        let scale = Scale::reduced(8, 24);
        let (current, _) = run_cached(scale, &dir);
        let stale = dir.join("stale");
        std::fs::create_dir_all(&stale).unwrap();
        let new_stem = cache_stem("UW3", scale);
        let old_stem = new_stem.trim_end_matches(&format!("-g{GENERATOR_EPOCH}"));
        for stem in [
            old_stem.to_string(),
            format!("{old_stem}-g{}", GENERATOR_EPOCH - 1),
        ] {
            std::fs::copy(
                cache_path(&dir, "UW3", scale),
                stale.join(format!("{stem}.trace2")),
            )
            .unwrap();
        }
        let (again, stats) = run_cached(scale, &stale);
        assert_eq!(stats, (0, 8, 0), "no older stem loads");
        assert_eq!(again.uw3, current.uw3, "regenerated under the current stem");
        assert!(cache_path(&stale, "UW3", scale).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_empties_the_cache() {
        let dir = tmp_dir("purge");
        let scale = Scale::reduced(8, 24);
        run_cached(scale, &dir);
        // A quarantined corpse must go too; a foreign file stays.
        std::fs::write(quarantined_path(&cache_path(&dir, "UW1", scale)), b"corpse").unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a cache entry").unwrap();
        assert_eq!(purge(&dir).unwrap(), 9);
        assert!(dir.join("notes.txt").exists());
        let (_, stats) = run_cached(scale, &dir);
        assert_eq!(stats.1, 8, "purged cache regenerates everything");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(purge(&dir).unwrap(), 0, "missing dir is already purged");
    }
}
