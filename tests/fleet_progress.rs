//! The fleet's progress document — what `fleet_forecast` writes to
//! `<results>/obs/<run>.progress.json` at every epoch boundary — reports
//! the run's actual shape: epoch position, fleet size, checkpoint lineage,
//! and one forecast entry per queried fleet size.

use relaxfault::prelude::*;
use relaxfault::relsim::fleet::{FleetConfig, FleetSim};
use relaxfault::util::json::Value;

#[test]
fn fleet_progress_document_reports_the_run_shape() {
    let arms = vec![
        Scenario::isca16_baseline()
            .with_fit_scale(150.0)
            .with_mechanism(Mechanism::None),
        Scenario::isca16_baseline()
            .with_fit_scale(150.0)
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    let mut sim = FleetSim::new(arms, FleetConfig::quick(600, 3, 77));
    sim.step().expect("epoch 0");

    let doc = sim.progress_json(&[1_000, 16_384]);
    let text = doc.to_pretty();
    let parsed = Value::parse(&text).expect("progress document is valid JSON");
    let field = |k: &str| parsed.get(k).unwrap_or_else(|| panic!("missing `{k}`"));
    assert_eq!(field("status").as_str(), Some("running"));
    assert_eq!(field("epoch").as_f64(), Some(1.0));
    assert_eq!(field("epochs").as_f64(), Some(3.0));
    assert_eq!(field("nodes").as_f64(), Some(600.0));
    assert_eq!(
        field("checkpoints").get("enabled").and_then(Value::as_bool),
        Some(false),
        "no --ckpt-dir means lineage reports disabled"
    );
    let forecast = field("forecast").as_array().expect("forecast array");
    assert_eq!(forecast.len(), 2, "one entry per queried fleet size");
    let arms0 = forecast[0].get("arms").and_then(Value::as_array).unwrap();
    assert_eq!(arms0.len(), 2, "one forecast arm per scenario");
    assert!(arms0[0].get("dues").and_then(Value::as_f64).is_some());

    sim.step().expect("epoch 1");
    sim.step().expect("epoch 2");
    let done = sim.progress_json(&[]);
    assert_eq!(done.get("status").and_then(Value::as_str), Some("complete"));
    assert_eq!(done.get("epoch").and_then(Value::as_f64), Some(3.0));
}
