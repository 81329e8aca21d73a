//! Route-flap episodes.
//!
//! The paper cites Labovitz et al. \[LMJ97\] on routing instability and lists
//! "path changes (for instance due to routing policy changes or due to
//! route flaps)" among the sources of variation in its data (§6.2). We model
//! instability at the coarsest useful grain: for each ordered AS pair, rare
//! episodes during which the source AS uses its *second-choice* BGP route
//! (see [`crate::routing::bgp::BgpRib::fallback_route`]) instead of its
//! best. The episodes are a [`Renewal`] process, the same one that drives
//! link outages and injected faults.
//!
//! Schedules are deterministic: the schedule for a pair depends only on the
//! network seed and the pair's ids, never on the order in which pairs are
//! generated. [`crate::Network::generate`] precomputes every pair's
//! schedule once, at build time.

use detour_faults::{OutageSchedule, Renewal};
use detour_prng::Xoshiro256pp;

use crate::topology::AsId;

/// The default flap process: one episode every ~3 days per ordered AS
/// pair (paths are "generally dominated by a single route" \[Pax96\]),
/// lasting ~15 minutes.
pub const DEFAULT: Renewal = Renewal {
    mtbf_s: 3.0 * 86_400.0,
    mttr_s: 15.0 * 60.0,
};

/// The flap schedule of the ordered AS pair `(src, dst)` over
/// `[0, horizon_s)`, with episodes of at least one second.
pub fn flap_schedule(
    flaps: &Renewal,
    seed: u64,
    src: AsId,
    dst: AsId,
    horizon_s: f64,
) -> OutageSchedule {
    // Derive a per-pair seed that is stable under query order. The
    // SplitMix64 finalizer scrambles the packed ids well.
    let pair_code = ((src.0 as u64) << 16) | dst.0 as u64;
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(pair_code.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    flaps.schedule(&mut Xoshiro256pp::seed_from_u64(z), 1.0, horizon_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WEEK: f64 = 7.0 * 86_400.0;

    fn sched(seed: u64, a: u16, b: u16) -> OutageSchedule {
        flap_schedule(&DEFAULT, seed, AsId(a), AsId(b), WEEK)
    }

    #[test]
    fn draw_order_is_pinned() {
        // Exact bits of the first episodes: a reordered draw or sum in the
        // renewal loop, or a changed per-pair seed, changes them even where
        // the golden reports do not.
        let s = flap_schedule(&DEFAULT, 7, AsId(3), AsId(9), 30.0 * 86_400.0);
        let bits: Vec<(u64, u64)> = s.episodes()[..3]
            .iter()
            .map(|&(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        assert_eq!(
            bits,
            [
                (0x40d0_98df_3a45_ba2f, 0x40d1_21df_3383_8a4b),
                (0x4102_5a6a_c96e_0117, 0x4102_8f00_0f95_6344),
                (0x4104_f9f3_8f8d_d327, 0x4105_4fbf_8518_037a),
            ]
        );
        assert_eq!(s.episode_count(), 11);
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = sched(7, 3, 9);
        let b = sched(7, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_is_direction_sensitive() {
        // Forward and reverse paths flap independently (routing is
        // asymmetric).
        let fwd = sched(7, 3, 9);
        let rev = sched(7, 9, 3);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn episodes_are_sorted_disjoint_clamped_and_queryable() {
        for a in 0..30u16 {
            let s = sched(3, a, a + 1);
            for w in s.episodes().windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", s.episodes());
            }
            for &(start, end) in s.episodes() {
                assert!(start >= 0.0 && end <= WEEK && start < end);
                assert!(s.down_at(start) && s.down_at((start + end) / 2.0) && !s.down_at(end));
            }
            assert!(!s.down_at(-1.0));
        }
    }

    #[test]
    fn flapped_fraction_is_small() {
        // With ~15-minute episodes every ~3 days, flapped time must be a
        // tiny fraction of the trace ("paths are generally dominated by a
        // single route").
        let mut total = 0.0;
        for a in 0..20u16 {
            for b in 0..20u16 {
                if a != b {
                    total += sched(5, a, b).total_down_s();
                }
            }
        }
        let frac = total / (WEEK * 380.0);
        assert!(frac < 0.02, "flapped fraction {frac}");
        assert!(frac > 0.0, "some flaps should occur across 380 pairs");
    }
}
