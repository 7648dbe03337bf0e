//! The plan-sharing contract: arms with the same planner key (mechanism,
//! LLC and DRAM geometry) replay one repair plan per trial, and that
//! sharing never changes a result. Every arm of a joint run must equal
//! the same arm run alone (a solo run shares nothing), and replaying any
//! prefix of a planned event list must equal evaluating that prefix from
//! scratch (the fleet replays both its prefixes from one plan).

use relaxfault::prelude::*;
use relaxfault::relsim::{
    evaluate_events_with, plan_events, replay_events, EvalScratch, EventPlan,
};
use relaxfault::util::rng::{mix64, Rng64};

/// The Figs 12–14 matrix (None, PPR, FreeFault-1/4, RelaxFault-1/4, each
/// under ReplA and ReplB) plus an RF-1 hashed/unhashed pair without
/// replacement: the hashed arm shares its planner with both RF-1 arms,
/// the unhashed one must not.
fn arms(fit_scale: f64) -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let mechanisms = [
        Mechanism::None,
        Mechanism::Ppr,
        Mechanism::FreeFault { max_ways: 1 },
        Mechanism::FreeFault { max_ways: 4 },
        Mechanism::RelaxFault { max_ways: 1 },
        Mechanism::RelaxFault { max_ways: 4 },
    ];
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mut arms: Vec<Scenario> = mechanisms
        .iter()
        .map(|&m| base.clone().with_mechanism(m))
        .collect();
    arms.extend(
        mechanisms
            .iter()
            .map(|&m| base.clone().with_mechanism(m).with_replacement(replb)),
    );
    let rf1 = base
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None);
    arms.push(rf1.clone());
    arms.push(rf1.without_set_hashing());
    arms
}

#[test]
fn joint_run_equals_solo_runs() {
    for (fit_scale, trials) in [(1.0, 1500u64), (40.0, 400)] {
        let arms = arms(fit_scale);
        for threads in [1usize, 2] {
            let run = RunConfig {
                trials,
                seed: 2016,
                threads,
                chunk_size: 0,
            };
            let joint = run_scenarios(&arms, &run);
            assert!(
                joint[0].faulty_nodes > 0,
                "{fit_scale}x: no faulty trial to plan"
            );
            for (arm, shared) in arms.iter().zip(&joint) {
                let solo = run_scenarios(std::slice::from_ref(arm), &run);
                assert_eq!(
                    &solo[0], shared,
                    "{fit_scale}x FIT, threads {threads}: {:?} {:?} diverged",
                    arm.mechanism, arm.replacement
                );
            }
        }
    }
}

#[test]
fn replaying_a_prefix_equals_evaluating_it() {
    let scenario_arms = arms(200.0);
    let sampler = FaultSampler::new(&scenario_arms[0].fault_model, &scenario_arms[0].dram);
    let mut prefixes = 0;
    for (si, scenario) in scenario_arms.iter().enumerate() {
        let mut plan = EventPlan::new();
        let mut replay_scratch = EvalScratch::new();
        let mut eval_scratch = EvalScratch::new();
        for trial in 0..12u64 {
            let node = sampler.sample_node(&mut Rng64::seed_from_u64(mix64(0x9F1A, trial, 0)));
            let events = &node.events;
            plan_events(scenario, events, &mut plan);
            for k in 0..=events.len() {
                let eval_seed = mix64(0xECC, trial, k as u64);
                let replayed = replay_events(
                    scenario,
                    &events[..k],
                    &plan,
                    &mut Rng64::seed_from_u64(eval_seed),
                    &mut replay_scratch,
                );
                let evaluated = evaluate_events_with(
                    scenario,
                    &events[..k],
                    &mut Rng64::seed_from_u64(eval_seed),
                    &mut eval_scratch,
                );
                assert_eq!(
                    replayed,
                    evaluated,
                    "arm {si}, trial {trial}: prefix {k} of {} diverged",
                    events.len()
                );
                prefixes += 1;
            }
            plan.check_invariants().unwrap();
            eval_scratch.check_invariants().unwrap();
        }
    }
    assert!(prefixes > 14 * 12 * 3, "lifetimes too short: {prefixes}");
}
