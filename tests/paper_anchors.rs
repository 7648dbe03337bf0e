//! Statistical anchors against the paper's published numbers.
//!
//! Trial counts are kept test-sized; tolerances are set accordingly. The
//! bench harness (`relaxfault-bench`) reruns everything at full scale —
//! see EXPERIMENTS.md for the calibrated comparison.

use relaxfault::prelude::*;

fn run(arms: &[Scenario], trials: u64) -> Vec<ScenarioResult> {
    run_scenarios(
        arms,
        &RunConfig {
            trials,
            seed: 1609,
            threads: 2,
            chunk_size: 0,
        },
    )
}

/// Figure 10's headline ordering and rough levels: PPR ≈ 73%,
/// FreeFault-1way ≈ 84%, RelaxFault-1way ≈ 90%, RelaxFault-4way ≈ 97%.
#[test]
fn coverage_anchors() {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone().with_mechanism(Mechanism::Ppr),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    let r = run(&arms, 12_000);
    let cov: Vec<f64> = r.iter().map(|x| x.coverage()).collect();
    assert!(
        (cov[0] - 0.73).abs() < 0.05,
        "PPR coverage {:.3} (paper 0.73)",
        cov[0]
    );
    assert!(
        (cov[1] - 0.84).abs() < 0.05,
        "FreeFault-1 {:.3} (paper 0.84)",
        cov[1]
    );
    assert!(
        (cov[2] - 0.90).abs() < 0.05,
        "RelaxFault-1 {:.3} (paper 0.90)",
        cov[2]
    );
    assert!(
        (cov[3] - 0.965).abs() < 0.04,
        "RelaxFault-4 {:.3} (paper ~0.97)",
        cov[3]
    );
    // Strict ordering.
    assert!(cov[0] < cov[1] && cov[1] < cov[2] && cov[2] < cov[3]);
    // RelaxFault never exceeded its way limit.
    assert!(r[2].max_ways_seen <= 1);
    assert!(r[3].max_ways_seen <= 4);
}

/// Figure 8's hashing effect: set-index hashing matters a lot for
/// FreeFault (columns collapse without it) and little for RelaxFault.
#[test]
fn hashing_anchors() {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 })
            .without_set_hashing(),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
            .without_set_hashing(),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
    ];
    let r = run(&arms, 12_000);
    let ff_gain = r[1].coverage() - r[0].coverage();
    let rf_gain = (r[3].coverage() - r[2].coverage()).abs();
    assert!(
        ff_gain > 0.06,
        "hashing must lift FreeFault ~10 points, got {ff_gain:.3}"
    );
    assert!(
        rf_gain < 0.03,
        "RelaxFault is insensitive to hashing, got {rf_gain:.3}"
    );
}

/// The paper's 82 KiB headline: nearly every node RelaxFault-1way repairs
/// fits in well under 128 KiB of LLC.
#[test]
fn capacity_headline() {
    let arms = vec![Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None)];
    let r = run(&arms, 12_000);
    let within = r[0].coverage_at_bytes(128 << 10);
    let total = r[0].coverage();
    assert!(
        within > total - 0.035,
        "coverage at 128 KiB ({within:.3}) should nearly match the way-limit coverage ({total:.3})"
    );
}

/// Figure 12's repair effect: RelaxFault cuts DUEs by roughly half, and
/// no mechanism can beat that by much (the ordering effect).
#[test]
fn due_reduction_anchor() {
    let base = Scenario::isca16_baseline();
    let arms = vec![
        base.clone(),
        base.clone().with_mechanism(Mechanism::Ppr),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    let r = run(&arms, 60_000);
    let none = r[0].dues as f64;
    assert!(none > 0.0, "need some DUEs to compare");
    let ppr = r[1].dues as f64;
    let rf = r[2].dues as f64;
    assert!(rf < none, "repair must reduce DUEs");
    assert!(
        rf <= ppr + 2.0,
        "RelaxFault is at least as effective as PPR"
    );
    let reduction = 1.0 - rf / none;
    assert!(
        (0.25..=0.75).contains(&reduction),
        "RelaxFault DUE reduction {reduction:.2} should be roughly half (paper 0.52)"
    );
}

/// Figure 14's availability effect: ReplB replaces orders of magnitude
/// more DIMMs than ReplA, and repair slashes both.
#[test]
fn replacement_anchor() {
    let base = Scenario::isca16_baseline();
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let arms = vec![
        base.clone(),                         // ReplA, no repair
        base.clone().with_replacement(replb), // ReplB, no repair
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 })
            .with_replacement(replb), // ReplB + repair
    ];
    let r = run(&arms, 20_000);
    assert!(
        r[1].replacements > r[0].replacements * 20,
        "ReplB ({}) must dwarf ReplA ({})",
        r[1].replacements,
        r[0].replacements
    );
    assert!(
        (r[2].replacements as f64) < r[1].replacements as f64 / 10.0,
        "RelaxFault must save >10x of ReplB replacements ({} vs {})",
        r[2].replacements,
        r[1].replacements
    );
    let saved = 1.0 - r[2].replacements as f64 / r[1].replacements as f64;
    assert!(
        saved > 0.85,
        "paper: 87% of modules repaired transparently, got {saved:.2}"
    );
}

/// Table 1: the metadata budget is byte-exact.
#[test]
fn table1_anchor() {
    let o = StorageOverhead::for_system(
        &DramConfig::isca16_reliability(),
        &CacheConfig::isca16_llc(),
    );
    assert_eq!(o.total(), 16_520);
}

/// Figure 10's caption: ~12% of nodes have any permanent fault after
/// 6 years at Cielo rates.
#[test]
fn faulty_fraction_anchor() {
    let arms = vec![Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None)];
    let r = run(&arms, 12_000);
    let frac = r[0].faulty_nodes as f64 / r[0].trials as f64;
    assert!(
        (0.09..0.16).contains(&frac),
        "faulty-node fraction {frac:.3} (paper ~0.12)"
    );
}

/// §4.1.2: "applying rates from other reported systems has little impact"
/// — Hopper rates shift coverage only slightly.
#[test]
fn hopper_rates_insensitivity() {
    let mut hopper_arm = Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None);
    hopper_arm.fault_model.rates = FitRates::hopper();
    let cielo_arm = Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None);
    let r = run(&[cielo_arm, hopper_arm], 10_000);
    // Hopper's permanent-fault mix is coarser (bank 3.0 / multi-bank 0.9 /
    // multi-rank 0.4 FIT vs Cielo's 2.2 / 0.3 / 0.2), so its coverage sits
    // several points lower; "little impact" means the conclusions — not
    // the exact percentage — carry over.
    let delta = (r[0].coverage() - r[1].coverage()).abs();
    assert!(
        delta < 0.12,
        "coverage gap between Cielo and Hopper rates: {delta:.3}"
    );
    assert!(
        r[1].coverage() > 0.75,
        "Hopper coverage still high: {:.3}",
        r[1].coverage()
    );
}
