//! Hostile values through the trace decoder: a `.trace2` file is untrusted
//! input, so every field of every dataset is edited to a value the
//! analyses have no meaning for (NaN, ±inf, negative, zero and
//! longer-than-any-timeout RTTs,
//! unlisted and duplicate hosts, a probe from a host to itself, AS-path
//! indices past the pool, loss rates outside `[0, 1]`, times outside the
//! trace) or to a value on the edge of a rule. A probe edit changes one
//! sample of the store's `iter()` sequence and stores the sequence again,
//! one row per probe in the slot of its index. Each edit
//! is re-encoded with valid checksums, so only the value rules stand
//! between it and the analyses. A hostile value must come back as the
//! [`DatasetError`] that names its field and row; an edge value must load
//! unchanged, and every registered experiment must then run on it.

use detour_bench::experiments::{run_all, REGISTRY};
use detour_bench::{Bundle, Study};
use detour_datasets::trace2::{self, Trace2Error};
use detour_datasets::{DatasetId, Scale};
use detour_measure::{Dataset, DatasetError, DatasetField, HostId, ProbeSample};
use detour_prng::{check, Rng};

use DatasetField::*;

/// The part of a dataset an edit lands in.
#[derive(Clone, Copy, PartialEq)]
enum Target {
    Meta,
    Hosts,
    Probes,
    Transfers,
}

/// One menu entry: where it lands, what it does to row `r` (the row the
/// error must name; for probes, the sample's position in `iter()`), and
/// the field it breaks (`None`: an edge value the rules accept).
type Edit = (Target, fn(&mut Dataset, usize), Option<DatasetField>);

/// A host id no generated dataset lists.
const UNLISTED: HostId = HostId(u32::MAX);

#[rustfmt::skip]
const MENU: &[Edit] = &[
    (Target::Meta, |d, _| d.duration_s = f64::NAN, Some(Duration)),
    (Target::Meta, |d, _| d.duration_s = f64::INFINITY, Some(Duration)),
    (Target::Meta, |d, _| d.duration_s = -1.0, Some(Duration)),
    (Target::Meta, |d, _| d.starved_pairs = usize::MAX, None),
    (Target::Meta, |d, _| d.detected_rate_limited = vec![UNLISTED], None),
    (Target::Meta, |d, _| d.name = String::new(), None),
    (Target::Hosts, duplicate_host, Some(Host)),
    (Target::Probes, |d, r| probe(d, r, |p| p.src = UNLISTED), Some(ProbeSrc)),
    (Target::Probes, |d, r| probe(d, r, |p| p.dst = UNLISTED), Some(ProbeDst)),
    (Target::Probes, |d, r| probe(d, r, |p| p.dst = p.src), Some(ProbeDst)),
    (Target::Probes, |d, r| probe(d, r, |p| p.t_s = f64::NAN), Some(ProbeTime)),
    (Target::Probes, |d, r| probe(d, r, |p| p.t_s = f64::NEG_INFINITY), Some(ProbeTime)),
    (Target::Probes, |d, r| probe(d, r, |p| p.t_s = -1.0), Some(ProbeTime)),
    (Target::Probes, |d, r| { let end = d.duration_s; probe(d, r, |p| p.t_s = end + 1.0) }, Some(ProbeTime)),
    (Target::Probes, |d, r| { let end = d.duration_s; probe(d, r, |p| p.t_s = end) }, None),
    (Target::Probes, |d, r| probe(d, r, |p| p.t_s = 0.0), None),
    (Target::Probes, |d, r| probe(d, r, |p| p.probe_index = 2), None),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(f64::NAN)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(f64::INFINITY)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(0.0)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(-20.0)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(1e300)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(600_001.0)), Some(ProbeRtt)),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = Some(600_000.0)), None),
    (Target::Probes, |d, r| probe(d, r, |p| p.rtt_ms = None), None),
    (Target::Probes, |d, r| probe(d, r, |p| p.path_idx = u32::MAX), Some(ProbePath)),
    (Target::Probes, |d, r| { let n = d.as_paths.len() as u32; probe(d, r, |p| p.path_idx = n) }, Some(ProbePath)),
    (Target::Probes, |d, r| probe(d, r, |p| p.episode = Some(u32::MAX)), None),
    (Target::Transfers, |d, r| d.transfers[r].src = UNLISTED, Some(TransferSrc)),
    (Target::Transfers, |d, r| d.transfers[r].dst = d.transfers[r].src, Some(TransferDst)),
    (Target::Transfers, |d, r| d.transfers[r].t_s = f64::NAN, Some(TransferTime)),
    (Target::Transfers, |d, r| d.transfers[r].t_s = d.duration_s + 1.0, Some(TransferTime)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = 0.0, Some(TransferRtt)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = -1.0, Some(TransferRtt)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = f64::NAN, Some(TransferRtt)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = 1e300, Some(TransferRtt)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = 600_001.0, Some(TransferRtt)),
    (Target::Transfers, |d, r| d.transfers[r].rtt_ms = 600_000.0, None),
    (Target::Transfers, |d, r| d.transfers[r].loss_rate = -1.0, Some(TransferLoss)),
    (Target::Transfers, |d, r| d.transfers[r].loss_rate = 2.0, Some(TransferLoss)),
    (Target::Transfers, |d, r| d.transfers[r].loss_rate = f64::NAN, Some(TransferLoss)),
    (Target::Transfers, |d, r| d.transfers[r].loss_rate = 1.0, None),
    (Target::Transfers, |d, r| d.transfers[r].loss_rate = 0.0, None),
    (Target::Transfers, |d, r| d.transfers[r].bandwidth_kbps = f64::NAN, Some(TransferBandwidth)),
    (Target::Transfers, |d, r| d.transfers[r].bandwidth_kbps = f64::INFINITY, Some(TransferBandwidth)),
    (Target::Transfers, |d, r| d.transfers[r].bandwidth_kbps = -1.0, Some(TransferBandwidth)),
    (Target::Transfers, |d, r| d.transfers[r].bandwidth_kbps = 0.0, None),
];

/// Edits sample `r` of `d`'s probes and stores the sequence again, one row
/// per probe.
fn probe(d: &mut Dataset, r: usize, edit: impl FnOnce(&mut ProbeSample)) {
    let mut samples: Vec<ProbeSample> = d.probes.iter().collect();
    edit(&mut samples[r]);
    d.probes = samples.into_iter().collect();
}

/// Gives host `r` (never the first) the id of the host before it.
fn duplicate_host(d: &mut Dataset, r: usize) {
    d.hosts[r].id = d.hosts[r - 1].id;
}

fn slot(b: &mut Bundle, id: DatasetId) -> &mut Dataset {
    match id {
        DatasetId::D2Na => &mut b.d2_na,
        DatasetId::D2 => &mut b.d2,
        DatasetId::N2Na => &mut b.n2_na,
        DatasetId::N2 => &mut b.n2,
        DatasetId::Uw1 => &mut b.uw1,
        DatasetId::Uw3 => &mut b.uw3,
        DatasetId::Uw4A => &mut b.uw4_a,
        DatasetId::Uw4B => &mut b.uw4_b,
    }
}

/// The rows of `d` an edit at `target` can land on.
fn rows(d: &Dataset, target: Target) -> std::ops::Range<usize> {
    match target {
        Target::Meta => 0..1,
        Target::Hosts => 1..d.hosts.len(),
        Target::Probes => 0..d.probes.len(),
        Target::Transfers => 0..d.transfers.len(),
    }
}

#[test]
fn hostile_values_are_named_and_edge_values_run_every_experiment() {
    let bundle = Bundle::generate(Scale::reduced(8, 24));
    // The self-contained experiments build their own networks and never
    // read the study, so an edit cannot reach them.
    let ids: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.id)
        .filter(|id| !["ablation", "overlay", "outage_sweep"].contains(id))
        .collect();
    // Each case runs the whole menu, on a dataset and row of its own.
    check::check_with("hostile dataset values", 3, |rng| {
        for &(target, edit, expect) in MENU {
            let mut b = bundle.clone();
            let ids_with_rows: Vec<DatasetId> = DatasetId::all()
                .into_iter()
                .filter(|&id| !rows(slot(&mut b, id), target).is_empty())
                .collect();
            let id = ids_with_rows[rng.gen_range(0..ids_with_rows.len())];
            let ds = slot(&mut b, id);
            let row = rng.gen_range(rows(ds, target));
            edit(ds, row);
            let loaded = trace2::from_bytes(&trace2::to_bytes(ds));
            let Some(field) = expect else {
                let back =
                    loaded.unwrap_or_else(|e| panic!("{}: edge value refused: {e}", id.name()));
                assert_eq!(
                    &back,
                    ds,
                    "{}: the edge value changed in the trip",
                    id.name()
                );
                assert_eq!(run_all(&Study::from_bundle(b), &ids).len(), ids.len());
                continue;
            };
            assert_eq!(
                loaded,
                Err(Trace2Error::Dataset(DatasetError { field, row })),
                "{}: a hostile {field:?} at row {row} loaded",
                id.name()
            );
        }
    });
}
