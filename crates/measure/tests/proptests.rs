//! Property-based tests for the measurement machinery, on the in-tree
//! deterministic harness: schedulers and dataset assembly must be robust
//! to arbitrary (valid) inputs.

use detour_faults::FaultConfig;
use detour_measure::dataset::Dataset;
use detour_measure::record::HostMeta;
use detour_measure::{run_campaign, CampaignConfig, HostId, Schedule};
use detour_prng::check::{check, check_with};
use detour_prng::{Rng, SliceRandom, Xoshiro256pp};

fn host_name(rng: &mut Xoshiro256pp) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    let n = rng.gen_range(1..=24usize);
    (0..n)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// A random valid dataset: up to eight hosts with distinct ids and random
/// names, and probes and transfers between two different hosts.
fn dataset(rng: &mut Xoshiro256pp) -> Dataset {
    let duration = rng.gen_range(1.0..1e7f64);
    let mut ids: Vec<u32> = (0..rng.gen_range(0..8usize))
        .map(|_| rng.gen_range(0..50u32))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let mut b = Dataset::builder("prop");
    for &id in &ids {
        b.host_meta(HostMeta {
            id: HostId(id),
            asn: rng.gen_range(0..300u16),
            truly_rate_limited: rng.gen_bool(0.5),
            name: host_name(rng),
        });
    }
    let n_paths = rng.gen_range(1..6usize);
    b.as_paths(
        (0..n_paths)
            .map(|_| {
                (0..rng.gen_range(1..6usize))
                    .map(|_| rng.gen_range(0..300u16))
                    .collect()
            })
            .collect(),
    )
    .duration(duration);
    if ids.len() >= 2 {
        let pair = |rng: &mut Xoshiro256pp| {
            let s = rng.gen_range(0..ids.len());
            (ids[s], ids[(s + rng.gen_range(1..ids.len())) % ids.len()])
        };
        for _ in 0..rng.gen_range(0..40usize) {
            let (s, d) = pair(rng);
            let t = rng.gen_range(0.0..duration);
            let rtt = rng.gen_bool(0.5).then(|| rng.gen_range(0.01..5e3f64));
            b.probe_with(s, d, t, rtt, |p| {
                p.probe_index = rng.gen_range(0..3u8);
                p.loss_eligible = rng.gen_bool(0.5);
                p.episode = rng.gen_bool(0.5).then(|| rng.gen_range(0..2000u32));
                p.path_idx = rng.gen_range(0..n_paths as u32);
            });
        }
        for _ in 0..rng.gen_range(0..10usize) {
            let (s, d) = pair(rng);
            let (t, rtt) = (rng.gen_range(0.0..duration), rng.gen_range(0.1..5e3f64));
            let (loss, bw) = (rng.gen_range(0.0..1.0f64), rng.gen_range(0.01..1e5f64));
            b.transfer(s, d, t, rtt, loss, bw);
        }
    }
    b.build().expect("a valid random dataset")
}

#[test]
fn characteristics_never_panic_and_stay_bounded() {
    check("characteristics_never_panic_and_stay_bounded", |rng| {
        let ds = dataset(rng);
        let c = ds.characteristics();
        assert!(c.coverage_pct >= 0.0);
        assert!(c.duration_days > 0.0);
        assert!(c.measurements <= ds.probes.len() + ds.transfers.len());
    });
}

#[test]
fn schedules_are_in_window_and_never_self_target() {
    check("schedules_are_in_window_and_never_self_target", |rng| {
        let n_hosts = rng.gen_range(2..10usize);
        let duration = rng.gen_range(600.0..86_400.0f64);
        let mean = rng.gen_range(10.0..3600.0f64);
        let hosts: Vec<HostId> = (0..n_hosts as u32).map(HostId).collect();
        for sched in [
            Schedule::PerHostUniform { mean_s: mean },
            Schedule::PairwiseExponential { mean_s: mean },
            Schedule::PairwiseExponentialPaired { mean_s: mean },
            Schedule::Episodes {
                mean_gap_s: mean.max(600.0),
            },
        ] {
            for r in sched.generate(&hosts, duration, rng) {
                assert!(r.t_s >= 0.0 && r.t_s < duration);
                assert!(r.src != r.dst);
                assert!(hosts.contains(&r.src) && hosts.contains(&r.dst));
            }
        }
    });
}

#[test]
fn campaign_output_is_invariant_under_request_permutation() {
    // Order-independence is a stated contract of `run_campaign`: each
    // request's RNG stream is keyed by its canonical (content-sorted)
    // index, so any permutation of the same request set must produce
    // byte-identical output. One network serves every case; the cases vary
    // the schedule, seed, and shuffle.
    use detour_netsim::{Era, Network, NetworkConfig};
    let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, 77, 1.0));
    let hosts: Vec<HostId> = net.hosts().iter().take(7).map(|h| h.id).collect();
    check_with(
        "campaign_output_is_invariant_under_request_permutation",
        8,
        |rng| {
            let sched = match rng.gen_range(0..3u8) {
                0 => Schedule::PairwiseExponential { mean_s: 400.0 },
                1 => Schedule::PairwiseExponentialPaired { mean_s: 500.0 },
                _ => Schedule::Episodes { mean_gap_s: 2400.0 },
            };
            let reqs = sched.generate(&hosts, 2.0 * 3600.0, rng);
            let campaign_seed = rng.next_u64();
            let baseline = run_campaign(
                &net,
                &reqs,
                &CampaignConfig::traceroute(),
                campaign_seed,
                &FaultConfig::none(),
            );
            let mut shuffled = reqs.clone();
            shuffled.shuffle(rng);
            let got = run_campaign(
                &net,
                &shuffled,
                &CampaignConfig::traceroute(),
                campaign_seed,
                &FaultConfig::none(),
            );
            assert_eq!(
                got,
                baseline,
                "shuffling {} requests changed the output",
                reqs.len()
            );
        },
    );
}

#[test]
fn episode_schedules_share_timestamps() {
    check("episode_schedules_share_timestamps", |rng| {
        let n_hosts = rng.gen_range(2..7usize);
        let hosts: Vec<HostId> = (0..n_hosts as u32).map(HostId).collect();
        let reqs = Schedule::Episodes { mean_gap_s: 1800.0 }.generate(&hosts, 86_400.0, rng);
        let per_episode = n_hosts * (n_hosts - 1);
        assert_eq!(reqs.len() % per_episode, 0);
        for chunk in reqs.chunks(per_episode) {
            let t0 = chunk[0].t_s;
            let e0 = chunk[0].episode;
            for r in chunk {
                assert_eq!(r.t_s, t0);
                assert_eq!(r.episode, e0);
            }
        }
    });
}
