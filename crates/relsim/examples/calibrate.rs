//! Scratch calibration runner: prints the paper's coverage anchors.
//! Run: cargo run --release -p relaxfault-relsim --example calibrate

use relaxfault_relsim::engine::{run_scenarios, RunConfig};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone().with_mechanism(Mechanism::Ppr),
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
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 16 }),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 4 }),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 16 }),
    ];
    let names = [
        "PPR            (paper 73)",
        "FF-1way nohash (paper 74)",
        "FF-1way hash   (paper 84)",
        "RF-1way nohash (paper 89)",
        "RF-1way hash   (paper 90.3)",
        "RF-4way        (paper ~97)",
        "RF-16way       (paper ~97)",
        "FF-4way        (paper ~90)",
        "FF-16way       (paper ~93)",
    ];
    let t0 = std::time::Instant::now();
    let results = run_scenarios(
        &arms,
        &RunConfig {
            trials,
            seed: 2016,
            threads: 16,
            chunk_size: 0,
        },
    );
    println!(
        "trials={} elapsed={:?} faulty={}",
        trials,
        t0.elapsed(),
        results[0].faulty_nodes
    );
    for (name, r) in names.iter().zip(&results) {
        let cov = r.coverage() * 100.0;
        let b90 = r
            .bytes_for_coverage(0.90)
            .map(|b| format!("{}KiB", b / 1024));
        let b84 = r
            .bytes_for_coverage(0.84)
            .map(|b| format!("{}KiB", b / 1024));
        println!(
            "{name}: coverage={cov:.1}%  bytes@90%={:?} bytes@84%={:?} maxways={}",
            b90, b84, r.max_ways_seen
        );
    }
}
