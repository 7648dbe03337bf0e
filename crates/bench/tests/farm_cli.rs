//! End-to-end tests for the `farm` bench binary: the auto-repair loop
//! (an injected deterministic failure must yield an archived ReproCase
//! whose in-process replay reproduces, plus a diagnostic job marked
//! `repro` in the ledger — all without stopping the other jobs), and the
//! crash/resume contract (`RF_FARM_CRASH_AT` kills the run with exit 4,
//! `--resume` finishes it with completed jobs skipped).
//!
//! These drive the real binary via `CARGO_BIN_EXE_farm`, so the figure
//! bins it spawns are the sibling debug builds — the matrix is run at
//! `--scale=0.001` (clamped to ≥50 trials per job) to keep the
//! Monte Carlo legs fast in debug mode.

use relaxfault_farm::{ledger_path, repro_archive_path, FarmLedger, JobRole, JobStatus};
use relaxfault_relcheck::{load_any, replay, LoadedCase};
use relaxfault_relsim::repro::ReproCase;
use relaxfault_relsim::scenario::Scenario;
use relaxfault_util::persist::Persist;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rf_farm_cli_{tag}_{}_{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the farm binary over the mini matrix with a hermetic
/// environment: no inherited crash hooks, result dirs, or run names from
/// the outer test runner, and no backtraces, so a failure reason must
/// come from the child's panic message alone.
fn farm_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_farm"));
    cmd.arg("run")
        .arg("--matrix=mini")
        .arg("--scale=0.001")
        .arg(format!("--dir={}", dir.display()))
        .env("RUST_BACKTRACE", "0")
        .env_remove("RF_FARM_CRASH_AT")
        .env_remove("RF_RESULTS_DIR")
        .env_remove("RF_RUN_NAME")
        .env_remove("RF_CHECK")
        .env_remove("RF_CHECK_FAIL_TRIAL");
    cmd
}

fn run(cmd: &mut Command) -> (i32, String) {
    let out = cmd.output().expect("spawn farm binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("farm exited via signal"), text)
}

/// The auto-repair loop, end to end: `--fail-job` forces a
/// deterministic relcheck failure inside fig08_hashing. The farm must
/// (a) archive the captured ReproCase, (b) re-queue it as a diagnostic
/// job whose ledger entry says `repro`/`ok`, (c) record the failure's
/// panic message and archive path in the failed job's entry, and (d)
/// still run the other jobs (fig10_14 and table3 ok) before exiting 3. The
/// archived case must replay in-process and reproduce the recorded
/// failure.
#[test]
fn fail_job_archives_replayable_repro_and_queues_diagnostic() {
    let dir = scratch_dir("repair");
    let (code, text) = run(farm_cmd(&dir).arg("--fail-job=fig08_hashing"));
    assert_eq!(code, 3, "expected exit 3 (a job failed):\n{text}");

    let archive = repro_archive_path(&dir, "fig08_hashing");
    let case = match load_any(&archive).expect("load archived repro") {
        LoadedCase::Repro(case) => case,
        other => panic!("archive is not a ReproCase: {other:?}"),
    };
    let report = replay(&case).expect("replay archived repro");
    assert!(
        report.reproduced,
        "archived ReproCase did not reproduce: {report:?}"
    );

    let ledger = FarmLedger::load(&ledger_path(&dir)).unwrap();
    let failed = ledger.entry("fig08_hashing").unwrap();
    assert_eq!(failed.status, JobStatus::Failed);
    assert_eq!(failed.role, JobRole::Job);
    assert_eq!(failed.repro.as_deref(), Some(archive.to_str().unwrap()));
    assert!(
        failed.reason.as_deref().unwrap_or("").contains("RF_CHECK"),
        "failure reason should carry the forced-failure panic: {:?}",
        failed.reason
    );

    let diag = ledger.entry("fig08_hashing-repro").unwrap();
    assert_eq!(diag.role, JobRole::Repro, "diagnostic must be marked repro");
    assert_eq!(diag.status, JobStatus::Ok, "diagnostic replay must pass");

    for id in ["fig10_14_reliability", "table3_config"] {
        let entry = ledger.entry(id).unwrap();
        assert_eq!(
            entry.status,
            JobStatus::Ok,
            "{id} must run despite the failure"
        );
    }
}

/// The archive is the case the failed child named, not whichever case
/// in `relcheck/` looks newest: a stale case for another seed, dated an
/// hour ahead, must be left alone.
#[test]
fn repair_archives_the_case_the_child_named() {
    let dir = scratch_dir("named");
    let stale = dir.join("relcheck").join("engine_check_s1_t0_g0.json");
    ReproCase {
        case: "engine_check".into(),
        reason: "an earlier run's failure".into(),
        seed: 1,
        trial: 0,
        group: 0,
        epoch: None,
        scenarios: vec![Scenario::isca16_baseline()],
        digest: None,
        prop_choices: Vec::new(),
    }
    .save(&stale)
    .unwrap();
    std::fs::File::options()
        .write(true)
        .open(&stale)
        .unwrap()
        .set_modified(SystemTime::now() + Duration::from_secs(3600))
        .unwrap();

    let (code, text) = run(farm_cmd(&dir).arg("--fail-job=fig08_hashing"));
    assert_eq!(code, 3, "expected exit 3 (a job failed):\n{text}");
    let written: Vec<PathBuf> = std::fs::read_dir(dir.join("relcheck"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| *p != stale)
        .collect();
    assert_eq!(written.len(), 1, "the child writes one case: {written:?}");
    let archive = std::fs::read(repro_archive_path(&dir, "fig08_hashing")).unwrap();
    assert_eq!(
        archive,
        std::fs::read(&written[0]).unwrap(),
        "archive must be the case the child wrote"
    );
}

/// The crash hook + resume contract at the CLI level: with one worker
/// the three unit-cost jobs run in id order, so a mid-job crash in
/// fig10_14_reliability exits 4 after fig08_hashing is ledgered ok, and leaves
/// a crash dump; re-running with `--resume` skips fig08_hashing, re-runs
/// the in-flight job, and exits 0 with every ledger entry `ok`.
#[test]
fn crash_then_resume_completes_matrix() {
    let dir = scratch_dir("resume");
    let (code, text) = run(farm_cmd(&dir)
        .arg("--jobs=1")
        .env("RF_FARM_CRASH_AT", "mid:fig10_14_reliability"));
    assert_eq!(code, 4, "expected exit 4 (farm died):\n{text}");
    assert!(
        dir.join("obs").join("farm.crashdump.json").exists(),
        "crash must leave a dump under obs/"
    );

    let (code, text) = run(farm_cmd(&dir).arg("--jobs=1").arg("--resume"));
    assert_eq!(code, 0, "resume must finish the matrix:\n{text}");
    let summary = std::fs::read_to_string(dir.join("farm_summary.csv")).unwrap();
    assert!(
        summary.contains("fig08_hashing,skipped"),
        "completed job must be skipped on resume:\n{summary}"
    );
    let ledger = FarmLedger::load(&ledger_path(&dir)).unwrap();
    for id in ["table3_config", "fig08_hashing", "fig10_14_reliability"] {
        let entry = ledger.entry(id).unwrap();
        assert_eq!(entry.status, JobStatus::Ok, "{id} must be ok after resume");
    }
}
