//! Renders the perf-history ledger into trend verdicts and a dashboard.
//!
//! ```text
//! obs_report ingest [--results DIR]
//! obs_report report [--results DIR] [--ledger PATH] [--out PATH] [--check] [--rotate]
//! obs_report extend --series NAME --factor F --count N [--ledger PATH] [--results DIR]
//! ```
//!
//! * `ingest` sweeps `<results>/obs/*.json` metrics snapshots into the
//!   append-only ledger at `<results>/history/ledger.jsonl`; re-running
//!   it over an unchanged tree is a byte-level no-op.
//! * `report` analyses every ledger series (MAD scores, CUSUM
//!   changepoints, baseline comparison against `<results>/baselines/`)
//!   and writes the self-contained dashboard
//!   (`<results>/history/report.html` by default). With `--check` it
//!   also prints one `REGRESSION <series> at epoch <N>` line per bench
//!   series whose latest regime shifted upward, and exits 1. With
//!   `--rotate` it writes each baseline-rotation proposal to
//!   `<results>/baselines/<bench>.proposed.json`.
//! * `extend` appends synthetic runs cloned from the newest entry
//!   carrying `--series`, with that median multiplied by `--factor` —
//!   the injection harness the CI history gate uses to prove the
//!   detector catches a 2× regression.
//!
//! Exit codes: `0` clean, `1` regression found by `--check`, `2` usage
//! or I/O error — the same contract as `obs_diff`.

use relaxfault_bench::report;
use relaxfault_util::history::Ledger;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn results_dir(flag: &Option<String>) -> String {
    flag.clone().unwrap_or_else(obs::results_dir)
}

struct Flags {
    results: Option<String>,
    ledger: Option<String>,
    out: Option<String>,
    series: Option<String>,
    factor: f64,
    count: usize,
    check: bool,
    rotate: bool,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut f = Flags {
        results: None,
        ledger: None,
        out: None,
        series: None,
        factor: 2.0,
        count: 3,
        check: false,
        rotate: false,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--results" => f.results = Some(value("--results")?),
            "--ledger" => f.ledger = Some(value("--ledger")?),
            "--out" => f.out = Some(value("--out")?),
            "--series" => f.series = Some(value("--series")?),
            "--factor" => {
                f.factor = value("--factor")?
                    .parse()
                    .map_err(|_| "--factor needs a number")?;
            }
            "--count" => {
                f.count = value("--count")?
                    .parse()
                    .map_err(|_| "--count needs an integer")?;
            }
            "--check" => f.check = true,
            "--rotate" => f.rotate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

fn ledger_path(f: &Flags) -> PathBuf {
    f.ledger
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| Ledger::default_path(&results_dir(&f.results)))
}

fn ingest(f: &Flags) -> Result<ExitCode, String> {
    let dir = results_dir(&f.results);
    let (ledger, rep) = Ledger::ingest_dir(&dir)?;
    println!(
        "ingest {}: {} added, {} already ledgered, {} skipped ({} entries total)",
        ledger.path.display(),
        rep.added,
        rep.duplicate,
        rep.skipped.len(),
        ledger.entries.len()
    );
    for (path, reason) in &rep.skipped {
        println!("  skipped {}: {reason}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes one proposed replacement baseline snapshot per rotation
/// proposal: the committed baseline's layout, with the proposed median —
/// a reviewable artifact, never an in-place overwrite.
fn write_proposals(dir: &str, reports: &[report::SeriesReport]) -> Result<(), String> {
    for r in reports {
        let (Some(baseline), Some(proposal)) = (r.baseline, r.proposal) else {
            continue;
        };
        let path = Path::new(dir)
            .join("baselines")
            .join(format!("{}.proposed.json", r.key.name));
        let doc = Value::object([
            ("series", Value::from(r.key.label().as_str())),
            ("bench", Value::from(r.key.name.as_str())),
            ("config_hash", persist::hex(r.key.config_hash)),
            ("threads", Value::from(r.key.threads)),
            ("current_median_ns", Value::from(baseline)),
            ("proposed_median_ns", Value::from(proposal)),
            ("window", Value::from(report::BASELINE_WINDOW as u64)),
            ("margin", Value::from(report::BASELINE_MARGIN)),
        ]);
        persist::atomic_write(&path, &doc.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("baseline proposal: {}", path.display());
    }
    Ok(())
}

fn run_report(f: &Flags) -> Result<ExitCode, String> {
    let dir = results_dir(&f.results);
    let path = ledger_path(f);
    let ledger = Ledger::load(&path)?;
    if ledger.entries.is_empty() {
        return Err(format!(
            "{}: ledger is empty — run `obs_report ingest` first",
            path.display()
        ));
    }
    let baselines = report::load_baselines(&Path::new(&dir).join("baselines"));
    let reports = report::analyze(&ledger.entries, &baselines);
    let html = report::render_html(&reports);
    let out = f
        .out
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| path.with_file_name("report.html"));
    persist::atomic_write(&out, &html)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "report: {} ({} series, {} entries)",
        out.display(),
        reports.len(),
        ledger.entries.len()
    );
    if f.rotate {
        write_proposals(&dir, &reports)?;
    }
    let verdict = report::check(&reports);
    if f.check {
        if verdict.is_empty() {
            println!("check: clean — no bench series' latest regime regressed");
        } else {
            for line in &verdict {
                println!("{line}");
            }
            return Ok(ExitCode::from(1));
        }
    } else {
        for line in &verdict {
            println!("{line}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn extend(f: &Flags) -> Result<ExitCode, String> {
    let series = f
        .series
        .as_ref()
        .ok_or("extend needs --series <bench name>")?;
    let path = ledger_path(f);
    let added = report::extend_series(&path, series, f.factor, f.count)?;
    println!(
        "extend {}: appended {added} synthetic runs ({series} × {})",
        path.display(),
        f.factor
    );
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or(
        "usage: obs_report <ingest|report|extend> [flags]\n\
         see the module docs (or DESIGN.md §6.2) for the flag list",
    )?;
    let f = parse_flags(args)?;
    match cmd.as_str() {
        "ingest" => ingest(&f),
        "report" => run_report(&f),
        "extend" => extend(&f),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obs_report: {e}");
            ExitCode::from(2)
        }
    }
}
