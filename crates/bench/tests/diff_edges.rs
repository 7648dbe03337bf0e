//! Edge cases for `bench::diff` and the `obs_diff` exit-code contract.
//!
//! The in-module tests of `bench::diff` cover the mainline
//! classifications; these integration tests pin the awkward inputs —
//! empty snapshots, fully disjoint counter sets, NaN and zero-sample
//! bench medians — and assert the binary's 0/1/2 exit-code matrix that
//! `scripts/ci.sh` builds its gates on.

use relaxfault_bench::diff::{diff_snapshots, Class};
use relaxfault_util::history;
use relaxfault_util::json::Value;
use std::path::PathBuf;
use std::process::Command;

fn snapshot(run: &str, counters: &[(&str, u64)], bench_batches: &[f64]) -> Value {
    let counters = Value::Object(
        counters
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect(),
    );
    let benches = if bench_batches.is_empty() {
        Value::object::<&str>([])
    } else {
        let sorted = {
            let mut b = bench_batches.to_vec();
            b.sort_by(f64::total_cmp);
            b
        };
        let median = sorted[sorted.len() / 2];
        Value::object([(
            "node_eval",
            Value::object([
                ("median_ns", Value::from(median)),
                ("iters", Value::from(100u64)),
                (
                    "batch_ns",
                    Value::Array(bench_batches.iter().map(|&x| Value::from(x)).collect()),
                ),
            ]),
        )])
    };
    Value::object([
        ("schema_version", Value::from(2u64)),
        (
            "manifest",
            Value::object([
                ("run", Value::from(run)),
                ("git_sha", Value::from("abc")),
                ("profile", Value::from("release")),
                ("threads", Value::from(1u64)),
                ("seeds", Value::Array(vec![Value::from(2016u64)])),
                ("config_hash", Value::from("00000000deadbeef")),
                ("sim_runs", Value::from(1u64)),
                ("wall_clock_ms", Value::from(1000u64)),
            ]),
        ),
        ("counters", counters),
        ("gauges", Value::object::<&str>([])),
        ("histograms", Value::object::<&str>([])),
        ("benches", benches),
    ])
}

#[test]
fn empty_snapshots_diff_cleanly() {
    let empty = snapshot("empty", &[], &[]);
    let r = diff_snapshots(&empty, &empty, 0.2).expect("empty vs empty runs");
    assert_eq!(r.regressions(), 0);
    assert!(r.deltas.is_empty());
    assert!(r.render().contains("0 regressed"));

    // Empty baseline vs populated current: everything is `added`, which
    // reports but never fails.
    let full = snapshot("full", &[("relsim.trials", 4000)], &[100.0, 101.0, 102.0]);
    let r = diff_snapshots(&empty, &full, 0.2).expect("empty vs full runs");
    assert_eq!(r.regressions(), 0);
    assert!(r.deltas.iter().all(|d| d.class == Class::Added));

    // A document with no counters section at all is not a snapshot.
    let not_a_snapshot = Value::object([("schema_version", Value::from(2u64))]);
    assert!(diff_snapshots(&not_a_snapshot, &full, 0.2).is_err());
    assert!(diff_snapshots(&Value::object::<&str>([]), &full, 0.2).is_err());
}

#[test]
fn all_improved_run_is_not_a_failure() {
    let base = snapshot(
        "before",
        &[("relsim.trials", 4000)],
        &[200.0, 201.0, 202.0, 203.0, 204.0, 205.0, 206.0],
    );
    let cur = snapshot(
        "after",
        &[("relsim.trials", 4000)],
        &[100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0],
    );
    let r = diff_snapshots(&base, &cur, 0.1).expect("diff runs");
    assert_eq!(r.regressions(), 0, "improvements must not fail");
    assert!(r.deltas.iter().any(|d| d.class == Class::Improved));
    let verdict = r.verdict_json(0.1);
    assert_eq!(verdict.get("regressed").and_then(Value::as_f64), Some(0.0));
    assert_eq!(verdict.get("improved").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn disjoint_counter_sets_are_added_and_removed_only() {
    let base = snapshot("a", &[("relsim.trials", 10), ("relsim.repairs", 3)], &[]);
    let cur = snapshot("b", &[("fleet.nodes", 7), ("fleet.epochs", 2)], &[]);
    let r = diff_snapshots(&base, &cur, 0.2).expect("diff runs");
    assert_eq!(r.regressions(), 0);
    assert_eq!(r.deltas.len(), 4);
    assert_eq!(
        r.deltas
            .iter()
            .filter(|d| d.class == Class::Removed)
            .count(),
        2
    );
    assert_eq!(
        r.deltas.iter().filter(|d| d.class == Class::Added).count(),
        2
    );
}

#[test]
fn nan_and_zero_sample_medians_never_classify() {
    // Zero batch samples: the median is not statistically comparable, so
    // the delta is reported as unchanged with an explanation.
    let mut no_samples = snapshot("a", &[], &[100.0]);
    if let Value::Object(pairs) = &mut no_samples {
        for (k, v) in pairs.iter_mut() {
            if k == "benches" {
                *v = Value::object([(
                    "node_eval",
                    Value::object([
                        ("median_ns", Value::from(100.0)),
                        ("iters", Value::from(100u64)),
                        ("batch_ns", Value::Array(Vec::new())),
                    ]),
                )]);
            }
        }
    }
    let with_samples = snapshot("b", &[], &[150.0, 151.0, 152.0]);
    let r = diff_snapshots(&no_samples, &with_samples, 0.1).expect("diff runs");
    assert_eq!(r.regressions(), 0);
    let d = r.deltas.iter().find(|d| d.kind == "bench").expect("bench");
    assert_eq!(d.class, Class::Unchanged);
    assert!(d.detail.contains("no batch samples"), "{}", d.detail);

    // NaN samples mark a corrupt snapshot: the bench must be reported as
    // not-compared, never panic inside the CI math or poison the verdict.
    let nan = snapshot("c", &[], &[f64::NAN, f64::NAN, f64::NAN]);
    for (base, cur) in [(&nan, &with_samples), (&with_samples, &nan)] {
        let r = diff_snapshots(base, cur, 0.1).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        let d = r.deltas.iter().find(|d| d.kind == "bench").expect("bench");
        assert_eq!(d.class, Class::Unchanged);
        assert!(d.detail.contains("non-finite"), "{}", d.detail);
    }
}

/// The exit-code contract every ci.sh gate is written against:
/// 0 = no regressions, 1 = regressions found, 2 = usage or I/O error.
#[test]
fn obs_diff_exit_code_matrix() {
    let dir = std::env::temp_dir().join(format!("rf_diff_edges_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let write = |name: &str, doc: &Value| -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, doc.to_pretty()).expect("write snapshot");
        p
    };
    let a = write("a.json", &snapshot("a", &[("relsim.trials", 4000)], &[]));
    let same = write("same.json", &snapshot("a", &[("relsim.trials", 4000)], &[]));
    let drifted = write(
        "drift.json",
        &snapshot("b", &[("relsim.trials", 4001)], &[]),
    );
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").expect("write garbage");
    // The committed engine_hot baseline still records a manifest `lanes`
    // key that snapshots no longer carry; the same snapshot without it
    // must compare with no warning at all.
    let old_baseline = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baselines/engine_hot.json"
    ));
    let mut today = Value::parse(&std::fs::read_to_string(&old_baseline).expect("baseline"))
        .expect("baseline parses");
    let Some(Value::Object(mut manifest)) = today.get("manifest").cloned() else {
        panic!("baseline has no manifest");
    };
    let before = manifest.len();
    manifest.retain(|(key, _)| key != "lanes");
    assert_eq!(manifest.len(), before - 1, "baseline records lanes");
    today.set("manifest", Value::Object(manifest));
    let today = write("today.json", &today);

    let run = |args: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_obs_diff"))
            .args(args)
            .output()
            .expect("obs_diff runs")
    };
    let code = |args: &[&std::ffi::OsStr]| run(args).status.code();
    assert_eq!(code(&[a.as_os_str(), same.as_os_str()]), Some(0));
    let out = run(&[old_baseline.as_os_str(), today.as_os_str()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("warning"), "{stdout}");
    assert_eq!(code(&[a.as_os_str(), drifted.as_os_str()]), Some(1));
    assert_eq!(code(&[a.as_os_str(), garbage.as_os_str()]), Some(2));
    assert_eq!(code(&[a.as_os_str()]), Some(2), "one path is a usage error");
    assert_eq!(
        code(&[a.as_os_str(), dir.join("missing.json").as_os_str()]),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `--latest-vs-baseline` takes its run from the perf-history ledger:
/// 2 without a ledger, 0 when the newest ledgered run matches its
/// baseline, 1 once a newer drifted run is ledgered.
#[test]
fn latest_vs_baseline_reads_the_ledger() {
    let dir = std::env::temp_dir().join(format!("rf_diff_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.display().to_string();
    let write = |sub: &str, run: &str, trials: u64| {
        std::fs::create_dir_all(dir.join(sub)).expect("scratch dir");
        let doc = snapshot(run, &[("relsim.trials", trials)], &[]);
        std::fs::write(dir.join(sub).join(format!("{run}.json")), doc.to_pretty())
            .expect("write snapshot");
    };
    let code = || {
        Command::new(env!("CARGO_BIN_EXE_obs_diff"))
            .arg("--latest-vs-baseline")
            .env("RF_RESULTS_DIR", &dir)
            .output()
            .expect("obs_diff runs")
            .status
            .code()
    };

    write("baselines", "pinned", 4000);
    write("obs", "pinned", 4000);
    assert_eq!(code(), Some(2), "a missing ledger is an I/O error");

    assert!(history::append_run_snapshot(&results, "pinned").expect("ledger append"));
    assert_eq!(code(), Some(0), "newest run matches its baseline");

    write("baselines", "drifted", 4000);
    write("obs", "drifted", 4001);
    assert!(history::append_run_snapshot(&results, "drifted").expect("ledger append"));
    assert_eq!(
        code(),
        Some(1),
        "the newest ledgered run is the one compared"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
