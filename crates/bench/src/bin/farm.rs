//! Figure-farm orchestrator: regenerates the paper's result set as a
//! resumable DAG of figure/table jobs with auto-repair.
//!
//! ```text
//! farm run --matrix=figures|mini [--dir=PATH] [--jobs=N] [--scale=F]
//!          [--resume] [--fail-job=ID]
//! ```
//!
//! Each job spawns the sibling `fig*`/`table*` binary named by its id
//! (found next to the `farm` executable) with `RF_RESULTS_DIR` pointed at
//! `--dir` and `RF_RUN_NAME` set to the job id, so every job leaves its
//! tables and obs snapshot under one results root. Durable farm state
//! (the `farm_state` ledger and per-job `farm_job` manifests) lands under
//! `<dir>/farm/`; a killed farm resumes with `--resume`, skipping
//! ledgered-ok jobs after a drift check and re-running everything else.
//!
//! * `--matrix=figures` is the full 14-bin paper set with its dependency
//!   tiers; `--matrix=mini` is the 3-job chain the CI gate uses.
//! * `--scale=F` multiplies every job's trial/instruction count (floor
//!   50), so CI can run the same DAG in seconds. Scale changes job
//!   digests: a resume must pass the same `--scale` as the original run.
//! * `--jobs=N` sizes the worker pool (default 2 — each child already
//!   parallelises internally); the most expensive ready job starts first.
//!   Every job is seeded, so a failed job is not retried: the repair
//!   loop below captures its diagnostics instead.
//! * `--fail-job=ID` runs that job's child under `RF_CHECK=1
//!   RF_CHECK_FAIL_TRIAL=0`, forcing a deterministic engine-check failure
//!   that writes a relcheck ReproCase — the auto-repair loop then
//!   archives the case next to the job's manifest
//!   (`<dir>/farm/jobs/<ID>.repro.json`) and re-queues an in-process
//!   `relcheck replay` of it as a diagnostic job, while the rest of the
//!   DAG keeps running.
//! * `RF_FARM_CRASH_AT=<job>` (boundary) / `mid:<job>` kills the farm for
//!   the crash/resume gate, exactly like `RF_FLEET_CRASH_AT` does for the
//!   fleet simulator.
//!
//! Exit codes: 0 every matrix job ok; 1 usage error; 3 the DAG completed
//! but some jobs failed or were blocked (their manifests carry the
//! reasons); 4 the farm itself died (injected crash, ledger drift, or a
//! persistence failure) — a crash dump is written and the run resumes
//! with `--resume`.

use relaxfault_bench::emit;
use relaxfault_farm::{
    crash_at_from_env, repro_archive_path, Farm, FarmConfig, Job, JobFailure, JobSpec, Repair,
};
use relaxfault_relcheck::replay::{load_any, replay, LoadedCase};
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::obs;
use relaxfault_util::table::Table;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: farm run --matrix=figures|mini [--dir=PATH] [--jobs=N] \
                     [--scale=F] [--resume] [--fail-job=ID]";

/// One matrix entry: the sibling binary to spawn, its dependency tier,
/// and the paper-scale work amount (`None` = the bin takes no positional
/// work argument).
struct JobDef {
    bin: &'static str,
    deps: &'static [&'static str],
    work: Option<u64>,
}

/// The full paper set: 14 figure/table bins in dependency tiers —
/// configuration and field-study roots, then coverage, reliability, and
/// performance tiers, then the ablation summary that reads across them.
const FIGURES: &[JobDef] = &[
    JobDef {
        bin: "table3_config",
        deps: &[],
        work: None,
    },
    JobDef {
        bin: "table4_workloads",
        deps: &[],
        work: None,
    },
    JobDef {
        bin: "fig02_table2",
        deps: &[],
        work: None,
    },
    JobDef {
        bin: "table1_overhead",
        deps: &["table3_config"],
        work: None,
    },
    JobDef {
        bin: "fig08_hashing",
        deps: &["table3_config"],
        work: Some(60_000),
    },
    JobDef {
        bin: "fig10_coverage",
        deps: &["table3_config"],
        work: Some(600_000),
    },
    JobDef {
        bin: "fig11_coverage_10x",
        deps: &["fig10_coverage"],
        work: Some(400_000),
    },
    JobDef {
        bin: "fig09_sensitivity",
        deps: &["fig02_table2"],
        work: Some(60_000),
    },
    JobDef {
        bin: "fig12_dues",
        deps: &["fig02_table2", "table3_config"],
        work: Some(2_000_000),
    },
    JobDef {
        bin: "fig13_sdcs",
        deps: &["fig02_table2", "table3_config"],
        work: Some(4_000_000),
    },
    JobDef {
        bin: "fig14_replacements",
        deps: &["fig12_dues"],
        work: Some(200_000),
    },
    JobDef {
        bin: "fig15_performance",
        deps: &["table3_config", "table4_workloads"],
        work: Some(300_000),
    },
    JobDef {
        bin: "fig16_power",
        deps: &["fig15_performance"],
        work: Some(300_000),
    },
    JobDef {
        bin: "ablation_design",
        deps: &["fig10_coverage", "fig12_dues"],
        work: Some(40_000),
    },
];

/// The 3-job chain the CI crash/resume gate drives.
const MINI: &[JobDef] = &[
    JobDef {
        bin: "table3_config",
        deps: &[],
        work: None,
    },
    JobDef {
        bin: "fig08_hashing",
        deps: &["table3_config"],
        work: Some(60_000),
    },
    JobDef {
        bin: "fig10_coverage",
        deps: &["fig08_hashing"],
        work: Some(600_000),
    },
];

struct Args {
    matrix_name: String,
    matrix: &'static [JobDef],
    dir: PathBuf,
    jobs: usize,
    scale: f64,
    resume: bool,
    fail_job: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix_name: "figures".into(),
        matrix: FIGURES,
        dir: PathBuf::from(obs::results_dir()),
        jobs: 2,
        scale: 1.0,
        resume: false,
        fail_job: None,
    };
    let mut subcommand = None;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--matrix=") {
            (args.matrix_name, args.matrix) = match v {
                "figures" => (v.to_string(), FIGURES),
                "mini" => (v.to_string(), MINI),
                other => return Err(format!("unknown matrix {other:?} (figures or mini)")),
            };
        } else if let Some(v) = a.strip_prefix("--dir=") {
            args.dir = PathBuf::from(v);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            args.jobs = v.parse().map_err(|_| format!("bad --jobs={v}"))?;
        } else if let Some(v) = a.strip_prefix("--scale=") {
            args.scale = v.parse().map_err(|_| format!("bad --scale={v}"))?;
        } else if a == "--resume" {
            args.resume = true;
        } else if let Some(v) = a.strip_prefix("--fail-job=") {
            args.fail_job = Some(v.to_string());
        } else if !a.starts_with('-') && subcommand.is_none() {
            subcommand = Some(a);
        }
        // Anything else is a shared harness flag obs_init already parsed.
    }
    match subcommand.as_deref() {
        Some("run") => {}
        Some(other) => return Err(format!("unknown subcommand {other:?}")),
        None => return Err("missing subcommand".into()),
    }
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err(format!("--scale={} must be a positive number", args.scale));
    }
    if let Some(fail) = &args.fail_job {
        if !args.matrix.iter().any(|d| d.bin == *fail) {
            return Err(format!(
                "--fail-job={fail}: not a job of the {} matrix",
                args.matrix_name
            ));
        }
    }
    Ok(args)
}

/// A job's scaled work amount (floor 50 so a tiny `--scale` still runs a
/// meaningful Monte Carlo).
fn scaled_work(def: &JobDef, scale: f64) -> Option<u64> {
    def.work
        .map(|w| ((w as f64 * scale).round() as u64).max(50))
}

/// The job spec: id = bin name, cost proportional to the scaled work (so
/// the dispatcher starts the longest jobs first — and so a different
/// `--scale` changes the digests and is rejected as drift on resume).
fn spec_for(def: &JobDef, scale: f64) -> JobSpec {
    let mut spec =
        JobSpec::new(def.bin).cost(scaled_work(def, scale).map_or(1, |w| (w / 10_000).max(1)));
    for d in def.deps {
        spec = spec.dep(*d);
    }
    spec
}

/// The job body: spawn the sibling binary with the job's work amount,
/// its results root, and its run name. Failure reason = exit status plus
/// the tail of the child's stderr.
fn job_body(
    def: &JobDef,
    scale: f64,
    force_fail: bool,
    exe_dir: PathBuf,
    results: PathBuf,
) -> impl Fn(&relaxfault_farm::JobCtx) -> Result<(), String> + Send + 'static {
    let bin = def.bin;
    let work = scaled_work(def, scale);
    move |ctx| {
        let exe = exe_dir.join(bin);
        let mut cmd = Command::new(&exe);
        if let Some(w) = work {
            cmd.arg(w.to_string());
        }
        // Children must not inherit the farm's own crash hook.
        cmd.env("RF_RESULTS_DIR", &results)
            .env("RF_RUN_NAME", &ctx.id)
            .env_remove("RF_FARM_CRASH_AT");
        if force_fail {
            cmd.env("RF_CHECK", "1").env("RF_CHECK_FAIL_TRIAL", "0");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        if out.status.success() {
            println!("farm: {} ok", ctx.id);
            Ok(())
        } else {
            let stderr = String::from_utf8_lossy(&out.stderr);
            // The panic message precedes the backtrace; frame lists are
            // noise in a manifest reason.
            let stderr = stderr.split("stack backtrace:").next().unwrap_or(&stderr);
            let mut tail: Vec<&str> = stderr.lines().rev().take(4).collect();
            tail.reverse();
            Err(format!(
                "{bin} exited with {}: {}",
                out.status,
                tail.join(" | ")
            ))
        }
    }
}

/// The newest relcheck ReproCase under `<results>/relcheck/`, by mtime —
/// the case the just-failed child captured.
fn newest_repro(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        if !matches!(load_any(&path), Ok(LoadedCase::Repro(_))) {
            continue;
        }
        let modified = entry.metadata().and_then(|m| m.modified()).ok()?;
        if best.as_ref().is_none_or(|(t, _)| modified >= *t) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, path)| path)
}

/// The auto-repair hook: archive the captured ReproCase next to the
/// failed job's manifest and re-queue an in-process `relcheck replay` of
/// the archive as a diagnostic job (`<id>-repro`, role `repro`).
fn repair(results: &Path, failure: &JobFailure) -> Option<Repair> {
    let case = newest_repro(&results.join("relcheck"))?;
    let archive = repro_archive_path(results, failure.id);
    std::fs::create_dir_all(archive.parent()?).ok()?;
    std::fs::copy(&case, &archive).ok()?;
    println!(
        "farm: {} failed; archived repro {} -> {}",
        failure.id,
        case.display(),
        archive.display()
    );
    let replay_path = archive.clone();
    let job =
        Job::diagnostic(
            JobSpec::new(format!("{}-repro", failure.id)),
            move |_ctx| match load_any(&replay_path)? {
                LoadedCase::Repro(case) => {
                    let report = replay(&case)?;
                    if report.reproduced {
                        println!(
                            "farm: diagnostic replay of {} reproduced",
                            replay_path.display()
                        );
                        Ok(())
                    } else {
                        Err(format!(
                            "replay of {} did not reproduce the recorded failure",
                            replay_path.display()
                        ))
                    }
                }
                _ => Err(format!("{}: not a repro case", replay_path.display())),
            },
        );
    Some(Repair {
        job,
        archive: Some(archive),
    })
}

fn main() -> ExitCode {
    relaxfault_bench::obs_init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("farm: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    // The farm's own summary artifacts must land under --dir too.
    std::env::set_var("RF_RESULTS_DIR", &args.dir);
    let exe_dir = match std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
    {
        Some(d) => d,
        None => {
            eprintln!("farm: cannot locate the sibling figure binaries");
            return ExitCode::from(1);
        }
    };
    let results = match args.dir.is_absolute() {
        true => args.dir.clone(),
        false => std::env::current_dir()
            .map(|cwd| cwd.join(&args.dir))
            .unwrap_or_else(|_| args.dir.clone()),
    };

    let mut cfg = FarmConfig::new(&results);
    cfg.workers = args.jobs.max(1);
    cfg.crash_at = crash_at_from_env();
    cfg.resume = args.resume;
    let mut farm = Farm::new(cfg);
    for def in args.matrix {
        let force_fail = args.fail_job.as_deref() == Some(def.bin);
        farm.job(
            spec_for(def, args.scale),
            job_body(
                def,
                args.scale,
                force_fail,
                exe_dir.clone(),
                results.clone(),
            ),
        );
    }
    let hook_results = results.clone();
    farm.repair_hook(move |failure| repair(&hook_results, failure));

    println!(
        "farm: matrix {} ({} jobs), {} workers, scale {}{}",
        args.matrix_name,
        args.matrix.len(),
        args.jobs.max(1),
        args.scale,
        if args.resume { ", resuming" } else { "" }
    );
    match farm.run() {
        Ok(report) => {
            let mut t = Table::new(&["job", "outcome", "detail"]);
            let mut rows: Vec<(String, String, String)> = Vec::new();
            for id in &report.completed {
                rows.push((id.clone(), "ok".into(), String::new()));
            }
            for id in &report.skipped {
                rows.push((id.clone(), "skipped".into(), "already ledgered ok".into()));
            }
            for (id, reason) in &report.failed {
                rows.push((id.clone(), "failed".into(), reason.clone()));
            }
            for id in &report.blocked {
                rows.push((id.clone(), "blocked".into(), "dependency failed".into()));
            }
            for (id, ok) in &report.repro {
                let detail = if *ok {
                    "replay reproduced"
                } else {
                    "replay diverged"
                };
                rows.push((id.clone(), "repro".into(), detail.into()));
            }
            rows.sort();
            for (id, outcome, detail) in &rows {
                t.row(&[id.clone(), outcome.clone(), detail.clone()]);
            }
            emit(
                "farm_summary",
                &format!(
                    "Figure farm: {} matrix ({} ok, {} skipped, {} failed, {} blocked, \
                     {} attempts)",
                    args.matrix_name,
                    report.completed.len(),
                    report.skipped.len(),
                    report.failed.len(),
                    report.blocked.len(),
                    report.attempts
                ),
                &t,
            );
            relaxfault_bench::obs_finish();
            if report.failed.is_empty() && report.blocked.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "farm: {} job(s) failed, {} blocked — see {}",
                    report.failed.len(),
                    report.blocked.len(),
                    relaxfault_farm::farm_dir(&results).join("jobs").display()
                );
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("farm: run died: {e}");
            eprintln!(
                "farm: resume with `farm run --matrix={} --dir={} --resume`",
                args.matrix_name,
                args.dir.display()
            );
            match CrashDump::write(&relaxfault_bench::current_run_name(), &e, None) {
                Ok(path) => eprintln!("farm: crash dump written: {path}"),
                Err(dump_err) => eprintln!("farm: crash dump failed: {dump_err}"),
            }
            relaxfault_bench::obs_finish();
            ExitCode::from(4)
        }
    }
}
