//! The observability determinism contract, end to end: with tracing on,
//! the merged event stream of a Monte Carlo run is *byte-identical* across
//! thread counts, because events are merged on `(trial, group, seq)` —
//! never on which worker thread emitted them. Lives in its own
//! integration-test process so the process-wide trace filter cannot leak
//! into unrelated unit tests.

use relaxfault::faults::FaultMode;
use relaxfault::prelude::*;
use relaxfault::relsim::engine::run_prefixes;
use relaxfault::util::json::Value;
use relaxfault::util::obs;

fn smoke_arms() -> Vec<Scenario> {
    // The smoke scenario: RelaxFault at 10x FIT rates, so a few hundred
    // trials produce a healthy density of fault and repair events.
    vec![Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None)
        .with_fit_scale(10.0)]
}

#[test]
fn merged_trace_stream_is_byte_identical_across_thread_counts() {
    let _serial = obs::exclusive();
    obs::reset();
    obs::set_filter("relsim=debug,faults=trace").expect("valid filter");

    let arms = smoke_arms();
    let mut reference: Option<(Vec<ScenarioResult>, String)> = None;
    for threads in [1usize, 2, 4] {
        obs::reset();
        let results = run_scenarios(
            &arms,
            &RunConfig {
                trials: 200,
                seed: 2016,
                threads,
                chunk_size: 0,
            },
        );
        assert_eq!(obs::dropped_events(), 0, "stream truncated at {threads}");
        let events = obs::drain_events();
        assert!(
            events.iter().any(|e| e.name == "trial_eval"),
            "no per-trial events at threads={threads}"
        );
        assert!(events.iter().any(|e| e.name == "inject"));
        let text = obs::render_text(&events);
        match &reference {
            None => reference = Some((results, text)),
            Some((r0, t0)) => {
                assert_eq!(&results, r0, "results diverged at threads={threads}");
                assert_eq!(
                    &text, t0,
                    "merged trace stream diverged at threads={threads}"
                );
            }
        }
    }

    obs::set_filter("").expect("valid filter");
    obs::set_metrics_enabled(false);
    obs::reset();
}

#[test]
fn snapshot_counters_agree_with_engine_results() {
    let _serial = obs::exclusive();
    obs::reset();
    obs::set_metrics_enabled(true);

    // Two fault-model groups (10x and 40x FIT) of two arms each, read at
    // several cuts: the outcome counters must count each trial once, as
    // the last cut does, not once per cut.
    let x10 = Scenario::isca16_baseline().with_fit_scale(10.0);
    let x40 = Scenario::isca16_baseline().with_fit_scale(40.0);
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mut arms = smoke_arms();
    arms.push(x10.with_mechanism(Mechanism::Ppr).with_replacement(replb));
    arms.push(
        x40.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 4 })
            .with_replacement(ReplacementPolicy::None),
    );
    arms.push(x40.with_mechanism(Mechanism::None));
    let run = RunConfig {
        trials: 300,
        seed: 7,
        threads: 4,
        chunk_size: 0,
    };
    let results = run_prefixes(&arms, &run, &[100, 200, 300])
        .pop()
        .expect("one result set per cut");

    let snap = obs::snapshot();
    let parsed = Value::parse(&snap.to_pretty()).expect("snapshot is valid JSON");
    let counter = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("counter `{name}` missing"))
    };
    // Counters are exact under any thread schedule: each must equal the
    // engine's own accounting, summed over arms.
    let total =
        |field: &dyn Fn(&ScenarioResult) -> u64| results.iter().map(field).sum::<u64>() as f64;
    let mut expected: Vec<(String, f64)> = [
        ("trial_evals", total(&|r| r.trials)),
        ("faulty_nodes", total(&|r| r.faulty_nodes)),
        ("fully_repaired_nodes", total(&|r| r.fully_repaired_nodes)),
        (
            "repair_fallback_nodes",
            total(&|r| r.faulty_nodes - r.fully_repaired_nodes),
        ),
        ("dues", total(&|r| r.dues)),
        ("transient_dues", total(&|r| r.transient_dues)),
        ("sdcs", total(&|r| r.sdcs)),
        ("replacements", total(&|r| r.replacements)),
        ("permanent_faults", total(&|r| r.permanent_faults)),
        ("unrepaired_faults", total(&|r| r.unrepaired_faults)),
    ]
    .map(|(name, want)| (format!("relsim.{name}"), want))
    .into();
    for (i, mode) in FaultMode::ALL.iter().enumerate() {
        let want = total(&|r| r.unrepaired_by_mode[i]);
        expected.push((format!("relsim.unrepaired.{}", mode.key()), want));
    }
    assert_eq!(expected.len(), 16);
    assert_eq!(expected[0].1, (run.trials * arms.len() as u64) as f64);
    for (name, want) in &expected {
        assert_eq!(counter(name), *want, "counter `{name}`");
    }
    for name in ["faulty_nodes", "dues", "replacements", "unrepaired_faults"] {
        assert!(counter(&format!("relsim.{name}")) > 0.0, "{name} is 0");
    }
    assert!(counter("plan.relaxfault.attempts") > 0.0);
    assert!(counter("faults.injected_total") > 0.0);
    // The per-trial duration histogram timed every (trial, group) pair
    // that was actually sampled; the zero-fault fast path skips the rest
    // and counts them separately, so the two together cover every trial
    // of both groups.
    let trial_ns_count = parsed
        .get("histograms")
        .and_then(|h| h.get("relsim.trial_ns"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_f64)
        .expect("relsim.trial_ns histogram");
    let skips = counter("relsim.fast_path_skips");
    assert!(skips > 0.0, "10x rates still leave most trials clean");
    assert_eq!(trial_ns_count + skips, (run.trials * 2) as f64);

    obs::set_metrics_enabled(false);
    obs::reset();
}
