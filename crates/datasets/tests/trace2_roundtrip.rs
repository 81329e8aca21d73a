//! The `.trace2` binary format's round-trip properties: any dataset —
//! random or pipeline-generated — must survive `to_bytes` → `from_bytes`
//! bit-identically, and the binary encoding must be a fixed point (so
//! cache re-writes never churn bytes). Probe rows come back as written.

use detour_datasets::{trace2, DatasetId};
use detour_measure::{Dataset, HostMeta, PairTable, ProbeRow, ProbeSample, MAX_RTT_MS};
use detour_netsim::HostId;
use detour_prng::{check, Rng, Xoshiro256pp};

/// Any finite f64 bit pattern — including negative zero, subnormals and
/// the extremes Welford sums never produce — so the round trip is tested
/// at the bit level, not just through values the simulator emits.
fn finite_f64(rng: &mut Xoshiro256pp) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// A finite f64 bit pattern folded into `[0, max]`: zero, subnormals,
/// `max` itself and everything between.
fn within(rng: &mut Xoshiro256pp, max: f64) -> f64 {
    finite_f64(rng).abs().min(max)
}

/// Any f64 bit pattern in `(0, MAX_RTT_MS]` (subnormals included) — the
/// domain [`Dataset::new`] accepts for a probe or transfer RTT.
fn rtt_ms(rng: &mut Xoshiro256pp) -> f64 {
    loop {
        let v = finite_f64(rng);
        if v > 0.0 && v <= MAX_RTT_MS {
            return v;
        }
    }
}

/// A structurally arbitrary valid dataset: host counts down to zero,
/// empty names, absent RTTs, episodic and non-episodic probes, empty AS
/// paths, rate-limit metadata and starved-pair counters all drawn at
/// random, with every value drawn inside [`Dataset::new`]'s rules.
fn random_dataset(rng: &mut Xoshiro256pp) -> Dataset {
    let duration = within(rng, f64::MAX);
    let mut b = Dataset::builder(&format!("R{}", rng.next_u64() % 100));
    let n_hosts = rng.gen_range(0..6u32);
    let ids: Vec<u32> = (0..n_hosts)
        .map(|i| i * 3 + rng.gen_range(1..3u32))
        .collect();
    for &id in &ids {
        b.host_meta(HostMeta {
            id: HostId(id),
            name: if rng.gen_bool(0.1) {
                String::new()
            } else {
                format!("host-{}", rng.next_u64() % 1000)
            },
            asn: rng.gen_range(0..u16::MAX as u32) as u16,
            truly_rate_limited: rng.gen_bool(0.3),
        });
    }
    let n_paths = rng.gen_range(0..4u32);
    b.as_paths(
        (0..n_paths)
            .map(|_| {
                (0..rng.gen_range(0..5usize))
                    .map(|_| rng.gen_range(0..u16::MAX as u32) as u16)
                    .collect()
            })
            .collect(),
    )
    .duration(duration);
    let pair = |rng: &mut Xoshiro256pp| {
        let s = rng.gen_range(0..ids.len());
        (ids[s], ids[(s + rng.gen_range(1..ids.len())) % ids.len()])
    };
    if ids.len() >= 2 && n_paths > 0 {
        // Runs of zero to three probes sharing a key, each probe a row of
        // its own, with repeated and out-of-order indices, interleaved
        // mirrored pairs, episodes present and absent, and
        // first-sample-only eligibility.
        for _ in 0..rng.gen_range(0..16usize) {
            let (s, d) = pair(rng);
            let t = within(rng, duration);
            let episode = rng.gen_bool(0.4).then(|| rng.next_u64() as u32);
            let path_idx = rng.gen_range(0..n_paths);
            let first_only = rng.gen_bool(0.3);
            let ways = if rng.gen_bool(0.2) { 2 } else { 1 };
            for _ in 0..rng.gen_range(0..4usize) {
                let index = rng.gen_range(0..3u32) as u8;
                let rtt = rng.gen_bool(0.8).then(|| rtt_ms(rng));
                let eligible = !first_only || index == 0;
                for (x, y) in [(s, d), (d, s)].into_iter().take(ways) {
                    b.probe_with(x, y, t, rtt, |p| {
                        p.probe_index = index;
                        p.loss_eligible = eligible;
                        p.episode = episode;
                        p.path_idx = path_idx;
                    });
                }
            }
        }
    }
    if ids.len() >= 2 {
        for _ in 0..rng.gen_range(0..10usize) {
            let (s, d) = pair(rng);
            let (t, rtt) = (within(rng, duration), rtt_ms(rng));
            let (loss, bw) = (within(rng, 1.0), within(rng, f64::MAX));
            b.transfer(s, d, t, rtt, loss, bw);
        }
    }
    let mut ds = b.build().expect("every draw obeys the dataset rules");
    ds.detected_rate_limited = ids
        .iter()
        .filter(|_| rng.gen_bool(0.2))
        .map(|&id| HostId(id))
        .collect();
    ds.starved_pairs = rng.gen_range(0..1000usize);
    ds
}

#[test]
fn random_datasets_roundtrip_bit_identically() {
    check::check("trace2 roundtrips any dataset", |rng| {
        let ds = random_dataset(rng);
        let bytes = trace2::to_bytes(&ds);
        let back = trace2::from_bytes(&bytes).expect("valid encoding must decode");
        assert_eq!(back, ds, "dataset changed across the binary trip");
        // PartialEq treats -0.0 == 0.0; the byte-level fixed point is the
        // real bit-identity assertion.
        assert_eq!(
            trace2::to_bytes(&back),
            bytes,
            "binary encoding is not a fixed point"
        );
        let bits = |d: &Dataset| {
            d.probes
                .iter()
                .map(|p| (p.t_s.to_bits(), p.rtt_ms.map(f64::to_bits), p))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&ds), "a probe sample drifted");
        assert_eq!(back.probes.rows(), ds.probes.rows(), "rows changed");
    });
}

#[test]
fn any_store_of_valid_rows_roundtrips_as_written() {
    check::check("trace2 keeps rows as written", |rng| {
        let n = rng.gen_range(2..6u32);
        let n_paths = rng.gen_range(1..4u32);
        let duration = within(rng, f64::MAX);
        // Rows of any valid mask, and each row's samples spelled out from
        // its cells. A row often repeats the previous row's key, so rows
        // a packing rule could merge sit side by side.
        let (mut rows, mut expected) = (Vec::new(), Vec::new());
        let mut key = (HostId(0), HostId(1), 0.0, 0, None);
        for _ in 0..rng.gen_range(0..40usize) {
            if rng.gen_bool(0.6) {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                let episode = rng.gen_bool(0.4).then(|| rng.next_u64() as u32);
                let (t, path) = (within(rng, duration), rng.gen_range(0..n_paths));
                key = (HostId(src), HostId(dst), t, path, episode);
            }
            let (src, dst, t_s, path_idx, episode) = key;
            let slots = rng.gen_range(1..8u16);
            let returned = slots & rng.gen_range(0..8u16);
            let eligible = slots & rng.gen_range(0..8u16);
            let mask = slots | returned << 3 | eligible << 6 | u16::from(episode.is_some()) << 9;
            let rtt: [f64; 3] = std::array::from_fn(|_| rtt_ms(rng));
            let row =
                ProbeRow::from_cells((src, dst), t_s, path_idx, episode.unwrap_or(0), mask, rtt);
            rows.push(row.expect("the mask is valid"));
            let held = (0..3).filter(|k| slots >> k & 1 != 0);
            expected.extend(held.map(|k| ProbeSample {
                src,
                dst,
                t_s,
                probe_index: k as u8,
                rtt_ms: (returned >> k & 1 != 0).then_some(rtt[k]),
                loss_eligible: eligible >> k & 1 != 0,
                episode,
                path_idx,
            }));
        }
        let hosts = (0..n)
            .map(|id| HostMeta {
                id: HostId(id),
                name: format!("h{id}"),
                asn: id as u16,
                truly_rate_limited: false,
            })
            .collect();
        let as_paths = (0..n_paths).map(|p| vec![p as u16]).collect();
        let probes = rows.iter().copied().collect();
        let ds = Dataset::new("ROWS".into(), hosts, probes, vec![], as_paths, duration)
            .expect("valid rows make a valid dataset");
        let bytes = trace2::to_bytes(&ds);
        let back = trace2::from_bytes(&bytes).expect("valid rows decode");
        assert_eq!(trace2::to_bytes(&back), bytes, "not a fixed point");
        let cells = |r: &ProbeRow| {
            let rtt = [0, 1, 2].map(|k| r.rtt(k).map(f64::to_bits));
            (
                r.src,
                r.dst,
                r.t_s.to_bits(),
                r.path_idx,
                r.episode(),
                r.mask(),
                rtt,
            )
        };
        assert!(
            back.probes
                .rows()
                .iter()
                .map(cells)
                .eq(rows.iter().map(cells)),
            "a row changed"
        );
        let bits = |p: ProbeSample| (p.t_s.to_bits(), p.rtt_ms.map(f64::to_bits), p);
        assert!(back
            .probes
            .iter()
            .map(bits)
            .eq(expected.iter().copied().map(bits)));
        assert_eq!(back.probes.len(), expected.len());
    });
}

#[test]
fn generated_datasets_preserve_every_field() {
    // A pipeline-generated dataset: generated → .trace2 → Dataset. Every
    // metric, episode id, starved-pair counter and rate-limit flag must
    // come out bit-identical — UW4-A carries episodes, N2 carries
    // transfers, and the fault counters are set explicitly since the
    // benign pipeline leaves them 0.
    for mut ds in [
        DatasetId::Uw4A.generate_scaled(8, 24),
        DatasetId::N2.generate_scaled(10, 24),
    ] {
        ds.starved_pairs = 7;
        if let Some(h) = ds.hosts.first() {
            ds.detected_rate_limited = vec![h.id];
        }
        let back = trace2::from_bytes(&trace2::to_bytes(&ds)).expect("binary decodes");
        assert_eq!(back, ds, "{}: the trip lost a field", ds.name);
        assert_eq!(
            PairTable::build(&back),
            PairTable::build(&ds),
            "{}: aggregates changed across the trip",
            ds.name
        );
        let episodes = |d: &Dataset| d.probes.iter().map(|p| p.episode).collect::<Vec<_>>();
        assert_eq!(episodes(&back), episodes(&ds));
        assert_eq!(back.starved_pairs, 7);
        assert_eq!(back.detected_rate_limited, ds.detected_rate_limited);
    }
}

#[test]
fn a_trace_naming_the_largest_host_id_loads_and_indexes() {
    // Host ids are arbitrary u32s; the pair table's index is sized by the
    // host count, so `HostId(u32::MAX)` costs no more than `HostId(0)`.
    let mut ds = DatasetId::Uw4A.generate_scaled(8, 24);
    let last = ds.hosts.len() - 1;
    let old = ds.hosts[last].id;
    let rename = |h: &mut HostId| {
        if *h == old {
            *h = HostId(u32::MAX);
        }
    };
    ds.hosts[last].id = HostId(u32::MAX);
    ds.probes = ds
        .probes
        .iter()
        .map(|mut p| {
            rename(&mut p.src);
            rename(&mut p.dst);
            p
        })
        .collect();
    ds.detected_rate_limited.iter_mut().for_each(rename);
    let back = trace2::from_bytes(&trace2::to_bytes(&ds)).expect("binary decodes");
    assert_eq!(back, ds);
    let table = PairTable::build(&back);
    assert_eq!(table.host_index(HostId(u32::MAX)), Some(last));
    assert_eq!(table.host_index(old), None);
    assert!(
        (0..last).any(|i| table.measured(i, last)),
        "the renamed host keeps its measurements"
    );
}

#[test]
fn file_roundtrip_and_unknown_versions_fail_loudly() {
    let dir = std::env::temp_dir().join(format!("detour-trace2-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uw4a.trace2");
    let ds = DatasetId::Uw4A.generate_scaled(8, 24);
    trace2::save(&ds, &path).unwrap();
    assert_eq!(trace2::load(&path).unwrap(), ds);

    // Restamp the version field (bytes 8..12 little-endian): the loader
    // must refuse the past per-probe and first-index layouts and a future
    // one rather than guess at any.
    for version in [1, 2, trace2::VERSION + 1] {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            trace2::from_bytes(&bytes),
            Err(trace2::Trace2Error::UnsupportedVersion(version))
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
