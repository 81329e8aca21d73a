//! Outage failover: the overlay's headline trick.
//!
//! Cranks the simulated Internet's outage rate (links fully down for
//! minutes at a time), runs an overlay across it, and counts how often the
//! overlay delivered a packet the default path black-holed — RON's core
//! result, built on this paper's alternate-path finding.
//!
//! ```text
//! cargo run --release --example outage_failover
//! ```

use detour::netsim::sim::clock::SimTime;
use detour::netsim::{Era, HostId, Network, NetworkConfig};
use detour::overlay::{evaluate, probe_budget, EvalConfig, Overlay, OverlayConfig};
use detour_prng::Xoshiro256pp;

fn main() {
    // A rough decade on the simulated Internet: outages every ~8 hours per
    // link instead of every ~50 days, each lasting ~10 minutes.
    let mut cfg = NetworkConfig::for_era(Era::Y1999, 0xdead_111c, 1.0);
    cfg.load.outages.mtbf_s = 86_400.0 / 3.0; // three a day
    cfg.load.outages.mttr_s = 10.0 * 60.0;
    let net = Network::generate(&cfg);

    let members: Vec<HostId> = net
        .hosts()
        .iter()
        .step_by(4)
        .take(8)
        .map(|h| h.id)
        .collect();
    println!(
        "overlay of {} members on an outage-prone network:",
        members.len()
    );
    for &m in &members {
        println!("  {}", net.host(m).name);
    }

    // Fast probing so outages are detected within a probe interval or two.
    let ocfg = OverlayConfig {
        probe_interval_s: 15.0,
        ..OverlayConfig::default()
    };
    let budget = probe_budget(members.len(), &ocfg);
    println!(
        "\nprobe budget: {:.1} probes/s mesh-wide ({:.0} B/s)",
        budget.probes_per_second, budget.bytes_per_second
    );

    let mut overlay = Overlay::new(members, ocfg);
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let eval = EvalConfig {
        duration_s: 6.0 * 3600.0,
        epoch_s: 120.0,
    };
    let r = evaluate(
        &net,
        &mut overlay,
        SimTime::from_hours(10.0),
        eval,
        &mut rng,
    );

    println!("\nover {} epochs ({} pair-sends):", r.epochs, r.total);
    println!(
        "  rescued by the overlay:   {:>6}  (default black-holed, overlay delivered)",
        r.overlay_rescued
    );
    println!("  sacrificed by the overlay:{:>6}", r.overlay_dropped);
    println!(
        "  deliveries decided on speed: overlay faster {} / default faster {}",
        r.overlay_faster, r.default_faster
    );
    println!(
        "  mean saving: {:+.2} ms per mutually delivered packet",
        r.mean_saving_ms()
    );

    let net_rescues = r.overlay_rescued as i64 - r.overlay_dropped as i64;
    println!(
        "\nnet packets saved from outages: {net_rescues} — {}",
        if net_rescues > 0 {
            "the alternate-path resource doubles as a reliability mechanism."
        } else {
            "outage windows missed this run; increase the rate or duration."
        }
    );
}
