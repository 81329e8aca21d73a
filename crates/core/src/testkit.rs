//! Shared unit-test fixtures.

use detour_measure::record::HostMeta;
use detour_measure::{Dataset, HostId, ProbeSample};

/// A dataset whose mean RTTs are exactly `matrix` (row = source, column =
/// destination, `NaN` = unmeasured, the diagonal ignored), with `reps`
/// identical probes per edge at `t = 0, 1, …`. Host ids equal the dense
/// row indices.
pub(crate) fn rtt_matrix_dataset(matrix: &[&[f64]], reps: usize) -> Dataset {
    let hosts = (0..matrix.len() as u32)
        .map(|id| HostMeta {
            id: HostId(id),
            name: format!("h{id}"),
            asn: id as u16,
            truly_rate_limited: false,
        })
        .collect();
    let mut probes = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        for (j, &rtt) in row.iter().enumerate() {
            if i == j || rtt.is_nan() {
                continue;
            }
            for k in 0..reps {
                probes.push(ProbeSample {
                    src: HostId(i as u32),
                    dst: HostId(j as u32),
                    t_s: k as f64,
                    probe_index: 0,
                    rtt_ms: Some(rtt),
                    loss_eligible: true,
                    episode: None,
                    path_idx: 0,
                });
            }
        }
    }
    Dataset {
        name: "T".into(),
        hosts,
        probes,
        transfers: vec![],
        as_paths: vec![vec![0]],
        duration_s: 10.0,
        detected_rate_limited: vec![],
        starved_pairs: 0,
    }
}
