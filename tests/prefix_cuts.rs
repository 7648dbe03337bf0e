//! The prefix-cut contract: the cumulative results `run_prefixes` returns
//! at each cut equal a standalone `run_scenarios` at that trial count,
//! field for field, at any thread count and chunk size.

use relaxfault::prelude::*;
use relaxfault::relsim::engine::run_prefixes;

#[test]
fn every_cut_equals_a_standalone_run() {
    // Two fault-model groups (1× and 40× FIT), each with a planner arm
    // and a replacement policy; every segment holds faulty trials of both.
    let x1 = Scenario::isca16_baseline();
    let x40 = Scenario::isca16_baseline().with_fit_scale(40.0);
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let arms = [
        x1.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
        x1.with_mechanism(Mechanism::Ppr).with_replacement(replb),
        x40.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 4 })
            .with_replacement(ReplacementPolicy::None),
        x40.with_mechanism(Mechanism::None),
    ];
    let run = |trials, threads, chunk_size| RunConfig {
        trials,
        seed: 2016,
        threads,
        chunk_size,
    };
    // A zero cut, a repeated cut, and segments of 97, 203 and 300 trials.
    let cuts = [0u64, 97, 97, 300, 600];
    let standalone: Vec<_> = cuts
        .iter()
        .map(|&cut| run_scenarios(&arms, &run(cut, 1, 0)))
        .collect();
    assert!(standalone[1][0].faulty_nodes > 0 && standalone[1][2].faulty_nodes > 0);
    // Chunks of 1 (maximal stealing), 257 (straddles every cut) and 1000
    // (longer than any segment).
    for threads in [1, 2] {
        for chunk_size in [1, 257, 1000] {
            let prefixes = run_prefixes(&arms, &run(600, threads, chunk_size), &cuts);
            assert_eq!(prefixes.len(), cuts.len());
            for ((cut, got), want) in cuts.iter().zip(&prefixes).zip(&standalone) {
                assert_eq!(
                    got, want,
                    "threads {threads}, chunk {chunk_size}: cut {cut}"
                );
            }
        }
    }
}
