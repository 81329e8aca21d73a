//! Measurement schedulers.
//!
//! Table 1's datasets differ in how requests were timed (paper §4.2):
//!
//! * **UW1** — "each traceroute server was chosen from a per-server uniform
//!   distribution with a mean of 15 minutes; the target … chosen randomly
//!   from the list of servers." (The paper notes the uniform distribution
//!   lacks the anti-anticipation property of exponential sampling.)
//! * **UW3 / UW4-B** — "a random pair of hosts was selected … using an
//!   exponential distribution with a mean of 9 and 150 seconds."
//! * **UW4-A** — "every server sent requests to every other server at the
//!   same time; these episodes were scheduled using an exponential
//!   distribution with a mean of 1000 seconds."
//! * **D2 / N2** — npd-style Poisson pair sampling (like UW3 with a longer
//!   mean).

use detour_netsim::HostId;
use detour_prng::Rng;

/// One scheduled measurement request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Request issue time, seconds since trace start.
    pub t_s: f64,
    /// Initiating host.
    pub src: HostId,
    /// Target host.
    pub dst: HostId,
    /// Episode index, for episode schedulers.
    pub episode: Option<u32>,
}

/// How a campaign times its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Each host independently initiates at uniform random intervals on
    /// `(0, 2·mean)`; the target is uniform over the other hosts (UW1).
    PerHostUniform {
        /// Mean inter-request interval per host, seconds.
        mean_s: f64,
    },
    /// A single global Poisson process; each event measures one uniformly
    /// random ordered pair (D2, N2).
    PairwiseExponential {
        /// Mean inter-request interval, seconds.
        mean_s: f64,
    },
    /// Like [`Schedule::PairwiseExponential`] but each event measures the
    /// selected pair in **both** directions — UW3 and UW4-B filtered
    /// rate-limiting hosts precisely "to allow us to perform paired
    /// measurements on each path" (§4.2).
    PairwiseExponentialPaired {
        /// Mean inter-event interval, seconds.
        mean_s: f64,
    },
    /// Poisson-spaced episodes; each episode measures **all** ordered pairs
    /// at (nominally) the same instant (UW4-A).
    Episodes {
        /// Mean inter-episode interval, seconds.
        mean_gap_s: f64,
    },
}

impl Schedule {
    /// Generates the full request sequence for `hosts` over
    /// `[0, duration_s)`, sorted by time.
    pub fn generate(&self, hosts: &[HostId], duration_s: f64, rng: &mut impl Rng) -> Vec<Request> {
        assert!(hosts.len() >= 2, "need at least two hosts to measure paths");
        let mut out = Vec::new();
        match *self {
            Schedule::PerHostUniform { mean_s } => {
                for &src in hosts {
                    let mut t = rng.gen_range(0.0..2.0 * mean_s);
                    while t < duration_s {
                        let mut dst = hosts[rng.gen_range(0..hosts.len())];
                        while dst == src {
                            dst = hosts[rng.gen_range(0..hosts.len())];
                        }
                        out.push(Request {
                            t_s: t,
                            src,
                            dst,
                            episode: None,
                        });
                        t += rng.gen_range(0.0..2.0 * mean_s);
                    }
                }
                out.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap());
            }
            Schedule::PairwiseExponential { mean_s }
            | Schedule::PairwiseExponentialPaired { mean_s } => {
                let paired = matches!(self, Schedule::PairwiseExponentialPaired { .. });
                let mut t = rng.exponential(mean_s);
                while t < duration_s {
                    let src = hosts[rng.gen_range(0..hosts.len())];
                    let mut dst = hosts[rng.gen_range(0..hosts.len())];
                    while dst == src {
                        dst = hosts[rng.gen_range(0..hosts.len())];
                    }
                    out.push(Request {
                        t_s: t,
                        src,
                        dst,
                        episode: None,
                    });
                    if paired {
                        out.push(Request {
                            t_s: t,
                            src: dst,
                            dst: src,
                            episode: None,
                        });
                    }
                    t += rng.exponential(mean_s);
                }
            }
            Schedule::Episodes { mean_gap_s } => {
                let mut t = rng.exponential(mean_gap_s);
                let mut episode = 0u32;
                while t < duration_s {
                    for &src in hosts {
                        for &dst in hosts {
                            if src != dst {
                                out.push(Request {
                                    t_s: t,
                                    src,
                                    dst,
                                    episode: Some(episode),
                                });
                            }
                        }
                    }
                    episode += 1;
                    t += rng.exponential(mean_gap_s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_prng::Xoshiro256pp;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    const DAY: f64 = 86_400.0;

    #[test]
    fn per_host_uniform_hits_expected_volume() {
        let hs = hosts(10);
        let reqs = Schedule::PerHostUniform { mean_s: 900.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(1),
        );
        // 10 hosts * 96 requests/day each = ~960.
        assert!((700..1300).contains(&reqs.len()), "{}", reqs.len());
        for w in reqs.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "must be time-sorted");
        }
    }

    #[test]
    fn pairwise_exponential_hits_expected_volume() {
        let hs = hosts(8);
        let reqs = Schedule::PairwiseExponential { mean_s: 60.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(2),
        );
        // ~1440/day.
        assert!((1200..1700).contains(&reqs.len()), "{}", reqs.len());
    }

    #[test]
    fn paired_schedule_emits_both_directions_at_once() {
        let hs = hosts(6);
        let reqs = Schedule::PairwiseExponentialPaired { mean_s: 120.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(7),
        );
        assert_eq!(reqs.len() % 2, 0);
        for pair in reqs.chunks(2) {
            assert_eq!(pair[0].t_s, pair[1].t_s);
            assert_eq!(pair[0].src, pair[1].dst);
            assert_eq!(pair[0].dst, pair[1].src);
        }
    }

    #[test]
    fn no_self_measurements() {
        let hs = hosts(5);
        for sched in [
            Schedule::PerHostUniform { mean_s: 300.0 },
            Schedule::PairwiseExponential { mean_s: 30.0 },
            Schedule::PairwiseExponentialPaired { mean_s: 30.0 },
            Schedule::Episodes { mean_gap_s: 1800.0 },
        ] {
            for r in sched.generate(&hs, DAY, &mut Xoshiro256pp::seed_from_u64(3)) {
                assert_ne!(r.src, r.dst);
            }
        }
    }

    #[test]
    fn episodes_cover_all_ordered_pairs() {
        let hs = hosts(6);
        let reqs = Schedule::Episodes { mean_gap_s: 3600.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(4),
        );
        let episodes: u32 = reqs.iter().filter_map(|r| r.episode).max().unwrap() + 1;
        assert_eq!(
            reqs.len() as u32,
            episodes * 30,
            "6 hosts → 30 ordered pairs/episode"
        );
        // Every request in an episode shares its timestamp.
        let first = &reqs[0];
        let same: Vec<_> = reqs.iter().filter(|r| r.episode == first.episode).collect();
        assert!(same.iter().all(|r| r.t_s == first.t_s));
        assert_eq!(same.len(), 30);
    }

    #[test]
    fn all_requests_fall_in_window() {
        let hs = hosts(4);
        for sched in [
            Schedule::PerHostUniform { mean_s: 500.0 },
            Schedule::PairwiseExponential { mean_s: 50.0 },
            Schedule::Episodes { mean_gap_s: 2000.0 },
        ] {
            for r in sched.generate(&hs, DAY, &mut Xoshiro256pp::seed_from_u64(5)) {
                assert!((0.0..DAY).contains(&r.t_s));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let hs = hosts(7);
        let a = Schedule::PairwiseExponential { mean_s: 45.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(9),
        );
        let b = Schedule::PairwiseExponential { mean_s: 45.0 }.generate(
            &hs,
            DAY,
            &mut Xoshiro256pp::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn single_host_is_rejected() {
        let hs = hosts(1);
        let _ = Schedule::PairwiseExponential { mean_s: 1.0 }.generate(
            &hs,
            10.0,
            &mut Xoshiro256pp::seed_from_u64(0),
        );
    }
}
