//! Tiny-scale passes of every workload: repetitions are deterministic,
//! the traced replays agree with the program, the fleet resume check
//! bites, and the reported metrics cover `BENCHMARK.json`.

use relaxfault_benchmark::replay::trace;
use relaxfault_benchmark::run::{final_line, measure, measure_traced, Options};
use relaxfault_benchmark::spec::{self, BenchSpec};
use relaxfault_benchmark::workloads::{
    check_fleet, fleet_arms, fleet_config, run_rep, FleetOutcome, Scale, Workload,
};
use relaxfault_relsim::FleetSim;
use relaxfault_util::json::Value;
use std::path::PathBuf;

const TINY: Scale = Scale {
    trials_1x: 3000,
    trials_10x: 600,
    perf_instructions: 2000,
    fleet_nodes: 3000,
    fleet_epochs: 4,
};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn bench_spec() -> BenchSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    spec::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn options(w: Workload, expected: Option<u64>) -> Options {
    Options {
        workload: w,
        seed: 5,
        seconds: 0.0,
        scale: TINY,
        threads: 2,
        scratch: scratch(&format!("measure-{}", w.name())),
        expected,
    }
}

#[test]
fn repetitions_are_deterministic_across_threads_and_seeded() {
    for w in Workload::ALL {
        let dir = scratch(&format!("rep-{}", w.name()));
        let a = run_rep(w, &TINY, 5, 2, &dir).unwrap();
        let b = run_rep(w, &TINY, 5, 1, &dir).unwrap();
        let c = run_rep(w, &TINY, 6, 2, &dir).unwrap();
        assert_eq!(
            a.digest,
            b.digest,
            "{}: digest depends on threads",
            w.name()
        );
        assert_ne!(a.digest, c.digest, "{}: digest ignores the seed", w.name());
        assert!(a.items > 0.0 && a.work_s > 0.0 && a.setup_s > 0.0);
        assert_eq!(a.resume_s.is_some(), w == Workload::FleetCkpt);
    }
}

#[test]
fn traced_replays_match_the_program() {
    // Each traced run fails on any disagreement: the replayed evaluator
    // against `evaluate_node_with` trial by trial and `run_scenarios` in
    // total, the traced perf sweep and fleet against untraced runs, and
    // the resumed fleet against the uninterrupted one.
    for w in Workload::ALL {
        let dir = scratch(&format!("trace-{}", w.name()));
        let (metrics, tracer) =
            trace(w, &TINY, 5, &dir).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()))
                .value
        };
        assert!(get("trace.total_s") > 0.0);
        // Self times of the root-covering spans add up to the total.
        let self_sum: f64 = metrics
            .iter()
            .filter(|m| m.name.ends_with(".self_frac"))
            .map(|m| m.value)
            .sum();
        assert!(
            (self_sum - 1.0).abs() < 1e-9,
            "{}: self shares sum to {self_sum}",
            w.name()
        );
        assert!(!tracer.raw().is_empty());
        match w {
            Workload::Reliability1x | Workload::Reliability10x => {
                let trials = get("faults.gate.trials");
                let clean = get("faults.gate.clean_frac");
                assert_eq!(get("faults.sample.calls"), (trials * (1.0 - clean)).round());
                assert_eq!(get("relsim.eval.calls"), get("faults.sample.calls") * 12.0);
            }
            Workload::PerfSweep => assert!(get("cache.llc.accesses") > 0.0),
            Workload::FleetCkpt => {
                assert_eq!(get("persist.save.calls"), f64::from(TINY.fleet_epochs + 1));
            }
        }
    }
}

#[test]
fn fleet_check_rejects_a_different_fleet() {
    let mut a = FleetSim::new(fleet_arms(), fleet_config(&TINY, 5, 1, None));
    let mut b = FleetSim::new(fleet_arms(), fleet_config(&TINY, 6, 1, None));
    a.run_to_end().unwrap();
    b.run_to_end().unwrap();
    let (a, b) = (FleetOutcome::of(&a), FleetOutcome::of(&b));
    assert!(check_fleet(&a, &a).is_ok());
    assert!(check_fleet(&a, &b).is_err());
}

#[test]
fn reports_cover_every_declared_metric() {
    let spec = bench_spec();
    let mut per_layer_seen = Vec::new();
    for w in Workload::ALL {
        let out = measure(&options(w, None));
        assert!(out.correct(), "{}: {:?}", w.name(), out.errors);
        assert_eq!(out.attempted, 4, "warm-up plus three timed repetitions");
        let line = final_line(&spec, false, &out).unwrap();
        let doc = Value::parse(&line).unwrap();
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), spec.end_to_end.len());
        assert!(metrics
            .iter()
            .all(|(_, m)| m.get("value").and_then(Value::as_f64).unwrap() > 0.0));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(4.0));

        let (traced, _) = measure_traced(&options(w, None));
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.errors);
        final_line(&spec, true, &traced).unwrap();
        per_layer_seen.extend(traced.series.into_iter().map(|s| s.name));
    }
    for m in &spec.per_layer {
        assert!(
            per_layer_seen.contains(&m.name),
            "no workload reports {}",
            m.name
        );
    }
}

#[test]
fn a_wrong_digest_fails_every_repetition() {
    let out = measure(&options(Workload::PerfSweep, Some(0)));
    assert_eq!(out.failed, out.attempted);
    assert!(!out.correct());
    let doc = Value::parse(&final_line(&bench_spec(), false, &out).unwrap()).unwrap();
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
}
