//! Offline smoke test: a tiny scenario defined as a JSON config runs end
//! to end through the reliability engine and reports sane numbers. This is
//! the fastest whole-stack check — if this passes, the hermetic build is
//! wired together.

use relaxfault::prelude::*;
use relaxfault::util::json::Value;
use relaxfault::util::obs;

#[test]
fn tiny_scenario_runs_from_json_config() {
    let config = r#"
        {
          "mechanism": {"kind": "relaxfault", "max_ways": 1},
          "replacement": {"kind": "none"},
          "fit_scale": 10.0
        }
    "#;
    let arm = Scenario::from_json(&Value::parse(config).unwrap()).unwrap();
    assert_eq!(arm.mechanism, Mechanism::RelaxFault { max_ways: 1 });

    let run = RunConfig {
        trials: 200,
        seed: 2016,
        threads: 2,
        chunk_size: 0,
    };
    let results = run_scenarios(&[arm], &run);
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.trials, 200);
    assert_eq!(r.label, "RelaxFault-1way");
    // At 10x Cielo rates over 6 years some nodes must be faulty, and
    // RelaxFault must repair at least one of them fully.
    assert!(r.faulty_nodes > 0, "no faulty nodes at 10x rates");
    assert!(r.fully_repaired_nodes > 0, "RelaxFault repaired nothing");
    assert!(r.fully_repaired_nodes <= r.faulty_nodes);
    let (lo, hi) = r.coverage_interval();
    assert!(lo <= r.coverage() && r.coverage() <= hi);

    // When metrics are on (e.g. CI's `RF_OBS=on` pass), the engine must
    // leave a metrics snapshot that round-trips through the strict JSON
    // parser.
    if obs::metrics_enabled() {
        let path = obs::write_snapshot("smoke").expect("snapshot written");
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        let doc = Value::parse(&text).expect("snapshot parses");
        for key in ["schema_version", "counters", "gauges", "histograms"] {
            assert!(doc.get(key).is_some(), "snapshot missing `{key}`");
        }
        let evals = doc
            .get("counters")
            .and_then(|c| c.get("relsim.trial_evals"))
            .and_then(Value::as_f64);
        assert_eq!(evals, Some(200.0));
    }
}
