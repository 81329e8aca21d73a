//! The chaos suite: deterministic fault injection across the whole
//! simulate→measure→analyze pipeline.
//!
//! Every fault scenario — link and router failures, BGP withdrawal
//! transients, measurement-host outages, probe-timeout storms, truncated
//! campaigns, and all of them at once — must come out the other end as a
//! *flagged* degraded report or a typed error. Never a panic, never a
//! silently skewed report. And because every fault schedule is a pure
//! function of the seed (no RNG draws on any fault check), the faulted
//! pipeline must stay byte-identical at any worker count, exactly like the
//! benign one.

use detour::core::{pool, AnalysisContext, Degradation};
use detour::datasets::{generate, trace2, DatasetSpec, Scale};
use detour::faults::FaultConfig;
use detour::measure::{CampaignConfig, RateLimitPolicy, Schedule};
use detour::netsim::{Era, RoutingMode};
use detour::prng::Xoshiro256pp;

/// A small half-day collection: big enough that the fault-free control is
/// healthy (each directed pair gets ~5x the minimum samples), small enough
/// that eight scenario generations stay test-affordable.
fn chaos_spec(faults: FaultConfig) -> DatasetSpec {
    DatasetSpec {
        name: "CHAOS",
        era: Era::Y1999,
        network_seed: 0xc4a05,
        campaign_seed: 0xc4a05 ^ 1,
        duration_days: 0.5,
        n_hosts: 8,
        n_hosts_na: 8,
        schedule: Schedule::PairwiseExponentialPaired { mean_s: 25.0 },
        campaign: CampaignConfig::traceroute(),
        policy: RateLimitPolicy::FilterHosts,
        min_samples: 12,
        prescreened: false,
        faults,
        routing: RoutingMode::PolicyHotPotato,
        topology: None,
    }
}

/// Every fault class alone, plus the all-at-once worst case.
fn scenarios() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("links", FaultConfig::link_failures(7)),
        ("routers", FaultConfig::router_failures(7)),
        ("withdrawals", FaultConfig::withdrawals(7)),
        ("hosts", FaultConfig::host_outages(7)),
        ("storms", FaultConfig::timeout_storms(7)),
        ("truncation", FaultConfig::truncation(7)),
        ("heavy", FaultConfig::heavy(7)),
    ]
}

fn degradation_of(faults: FaultConfig) -> (Degradation, String) {
    let ds = generate(&chaos_spec(faults), Scale::full());
    let cx = AnalysisContext::from_dataset(&ds);
    let deg = cx.degradation();
    (deg, deg.summary())
}

#[test]
fn every_fault_scenario_ends_in_a_flagged_report() {
    for (name, faults) in scenarios() {
        // The whole pipeline — network with injected outages, faulted
        // campaign, assembly, analysis context — must complete without
        // panicking for every scenario; that it returns at all is half the
        // assertion.
        let (deg, summary) = degradation_of(faults);
        assert_eq!(
            summary.starts_with("DEGRADED"),
            deg.is_degraded(),
            "{name}: health flag and summary disagree: {summary}"
        );
        assert!(deg.hosts > 0, "{name}: assembly lost every host");
        if !faults.enabled() {
            assert!(
                !deg.is_degraded(),
                "fault-free control must be healthy, got {summary}"
            );
        }
    }
}

#[test]
fn truncation_starves_pairs_and_is_flagged() {
    // Keeping only the first 6% of a campaign that budgets ~5x the
    // minimum samples leaves pairs with a handful of probes each — data,
    // but too little to trust — the scenario the paper hit when hosts
    // were decommissioned mid-study.
    let hard_cut = FaultConfig {
        truncate_frac: 0.06,
        ..FaultConfig::truncation(7)
    };
    let (deg, summary) = degradation_of(hard_cut);
    assert!(
        deg.starved_pairs > 0,
        "a hard-truncated campaign must starve pairs, got {summary}"
    );
    assert!(
        deg.is_degraded(),
        "starvation must flag the report: {summary}"
    );
    assert!(summary.starts_with("DEGRADED"), "{summary}");
}

#[test]
fn an_emptied_campaign_degrades_without_panicking() {
    // truncate_frac 0 drops every request: the dataset assembles empty and
    // every downstream artifact must still build.
    let nothing = FaultConfig {
        truncate_frac: 0.0,
        ..FaultConfig::none()
    };
    let (deg, summary) = degradation_of(nothing);
    assert_eq!(deg.measured_pairs, 0, "{summary}");
    assert!(deg.is_degraded(), "an empty dataset is maximally degraded");
}

#[test]
fn heavy_chaos_is_byte_identical_across_worker_counts() {
    let reference = generate(&chaos_spec(FaultConfig::heavy(21)), Scale::full());
    let reference_trace = trace2::to_bytes(&reference);
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let ds = generate(&chaos_spec(FaultConfig::heavy(21)), Scale::full());
        // Raw bytes, so a flipped float bit fails too; `assert!` keeps a
        // failure from printing both encodings.
        assert!(
            trace2::to_bytes(&ds) == reference_trace,
            "heavy-fault dataset diverged at {threads} worker thread(s)"
        );
    }
    pool::set_threads(0);
}

#[test]
fn fault_replay_is_seed_sensitive() {
    let a = generate(&chaos_spec(FaultConfig::heavy(21)), Scale::full());
    let b = generate(&chaos_spec(FaultConfig::heavy(22)), Scale::full());
    assert!(
        trace2::to_bytes(&a) != trace2::to_bytes(&b),
        "different fault seeds must produce different campaigns"
    );
}

// ---------------------------------------------------------------------------
// Infrastructure faults: the trace decoder under a mutation corpus.
// ---------------------------------------------------------------------------

/// Seeded mutations of a valid `.trace2` binary trace: truncations, byte
/// flips, and scrambled section-table length/offset fields. The decoder
/// must return `Ok` or a typed [`trace2::Trace2Error`] for every mutant —
/// never panic — and because every payload byte is covered by a section
/// checksum (and the header and table are validated field by field), any
/// mutant that decodes at all must decode to the *original* dataset: the
/// only survivable mutation is one that changed nothing.
#[test]
fn mutated_trace2_files_never_panic_the_decoder() {
    let ds = generate(&chaos_spec(FaultConfig::none()), Scale::reduced(6, 4));
    let valid = trace2::to_bytes(&ds);
    // Table geometry from the documented wire layout: section count at
    // header bytes 12..16, then 32-byte entries with the length at +16
    // and the offset at +8.
    let sections = u32::from_le_bytes(valid[12..16].try_into().unwrap()) as usize;
    let mut rng = Xoshiro256pp::seed_from_u64(0x7e57_b1f2);
    let mut parsed = 0usize;
    let mut rejected = 0usize;
    for _ in 0..200 {
        let mutant: Vec<u8> = match rng.next_u64() % 4 {
            // Truncate at an arbitrary byte.
            0 => {
                let cut = (rng.next_u64() as usize) % valid.len();
                valid[..cut].to_vec()
            }
            // Replace one byte with an arbitrary value (occasionally the
            // same value — the identity mutant must then parse, and must
            // parse to the original dataset).
            1 => {
                let mut b = valid.clone();
                let at = (rng.next_u64() as usize) % b.len();
                b[at] = rng.next_u64() as u8;
                b
            }
            // Scramble one table entry's length field.
            2 => {
                let mut b = valid.clone();
                let entry = 16 + 32 * ((rng.next_u64() as usize) % sections);
                b[entry + 16..entry + 24].copy_from_slice(&rng.next_u64().to_le_bytes());
                b
            }
            // Scramble one table entry's offset field.
            _ => {
                let mut b = valid.clone();
                let entry = 16 + 32 * ((rng.next_u64() as usize) % sections);
                b[entry + 8..entry + 16].copy_from_slice(&rng.next_u64().to_le_bytes());
                b
            }
        };
        match trace2::from_bytes(&mutant) {
            Ok(back) => {
                parsed += 1;
                assert_eq!(
                    back, ds,
                    "a mutant decoded to a *different* dataset — corruption passed the checksums"
                );
            }
            Err(e) => {
                rejected += 1;
                // Typed errors must render a non-empty diagnostic.
                assert!(!e.to_string().is_empty(), "error without a message");
            }
        }
    }
    assert!(
        rejected > 150,
        "only {rejected}/200 mutants rejected — checksums not doing their job"
    );
    assert_eq!(parsed + rejected, 200);
}
