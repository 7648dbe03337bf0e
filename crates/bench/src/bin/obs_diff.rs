//! Compares two observability snapshots and reports regressions.
//!
//! ```text
//! obs_diff <baseline.json> <current.json> [--threshold 0.2] [--out verdict.json]
//! obs_diff --latest-vs-baseline [--threshold 0.2] [--out verdict.json]
//! ```
//!
//! The two-path form diffs explicit snapshot files. The ledger form reads
//! the perf-history ledger `results/history/ledger.jsonl` (honouring
//! `RF_RESULTS_DIR`), takes the run of its newest entry, and compares
//! `results/obs/<run>.json` against the committed baseline
//! `results/baselines/<run>.json`.
//!
//! Exit codes: `0` no regressions, `1` regressions found, `2` usage or
//! I/O error (including a missing or empty ledger). See
//! `relaxfault_bench::diff` for the classification rules.

use relaxfault_bench::diff::diff_snapshots;
use relaxfault_util::history::Ledger;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))
}

/// Resolves the ledger form: the newest ledgered run's snapshot as
/// current, `results/baselines/<run>.json` as its baseline.
fn latest_vs_baseline() -> Result<(String, String), String> {
    let dir = obs::results_dir();
    let path = Ledger::default_path(&dir);
    let ledger = Ledger::load(&path)?;
    let run = &ledger
        .entries
        .last()
        .ok_or(format!("no runs ledgered at {}", path.display()))?
        .run;
    Ok((
        format!("{dir}/baselines/{run}.json"),
        format!("{dir}/obs/{run}.json"),
    ))
}

fn run() -> Result<ExitCode, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 0.2f64;
    let mut out: Option<String> = None;
    let mut use_ledger = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--latest-vs-baseline" => use_ledger = true,
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => paths.push(path.to_string()),
        }
    }
    let (baseline_path, current_path) = if use_ledger {
        if !paths.is_empty() {
            return Err("--latest-vs-baseline takes no snapshot paths".into());
        }
        latest_vs_baseline()?
    } else if paths.len() == 2 {
        let mut it = paths.into_iter();
        (it.next().expect("two paths"), it.next().expect("two paths"))
    } else {
        return Err("usage: obs_diff <baseline.json> <current.json> | --latest-vs-baseline".into());
    };

    let baseline = load(&baseline_path)?;
    let current = load(&current_path)?;
    let report = diff_snapshots(&baseline, &current, threshold)?;
    print!("{}", report.render());
    if let Some(out) = out {
        let verdict = report.verdict_json(threshold).to_pretty();
        std::fs::write(&out, verdict).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("verdict: {out}");
    }
    Ok(if report.regressions() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obs_diff: {e}");
            ExitCode::from(2)
        }
    }
}
