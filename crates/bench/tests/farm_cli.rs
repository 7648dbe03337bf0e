//! End-to-end tests for the `farm` bench binary: the auto-repair loop
//! (an injected deterministic failure must yield an archived ReproCase
//! whose in-process replay reproduces, plus a diagnostic job marked
//! `repro` in its manifest — all without stopping the rest of the DAG),
//! and the crash/resume contract (`RF_FARM_CRASH_AT` kills the run with
//! exit 4, `--resume` finishes it with completed jobs skipped).
//!
//! These drive the real binary via `CARGO_BIN_EXE_farm`, so the figure
//! bins it spawns are the sibling debug builds — the matrix is run at
//! `--scale=0.001` (clamped to ≥50 trials per job) to keep the
//! Monte Carlo legs fast in debug mode.

use relaxfault_farm::{manifest_path, repro_archive_path, JobManifest, JobRole, JobStatus};
use relaxfault_relcheck::{load_any, replay, LoadedCase};
use relaxfault_util::persist::Persist;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// the outer test runner.
fn farm_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_farm"));
    cmd.arg("run")
        .arg("--matrix=mini")
        .arg("--scale=0.001")
        .arg(format!("--dir={}", dir.display()))
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
/// (a) archive the captured ReproCase next to the job manifest, (b)
/// re-queue it as a diagnostic job whose manifest says `repro`/`ok`,
/// (c) record the failure + archive path in the original manifest, and
/// (d) still finish the rest of the DAG (fig10 blocked, table3 ok)
/// before exiting 3. The archived case must replay in-process and
/// reproduce the recorded failure.
#[test]
fn fail_job_archives_replayable_repro_and_queues_diagnostic() {
    let dir = scratch_dir("repair");
    let (code, text) = run(farm_cmd(&dir).arg("--fail-job=fig08_hashing"));
    assert_eq!(
        code, 3,
        "expected exit 3 (DAG finished with failures):\n{text}"
    );

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

    let failed = JobManifest::load(&manifest_path(&dir, "fig08_hashing")).unwrap();
    assert_eq!(failed.status, JobStatus::Failed);
    assert_eq!(failed.role, JobRole::Job);
    assert_eq!(failed.repro.as_deref(), Some(archive.to_str().unwrap()));
    assert!(
        failed.reason.as_deref().unwrap_or("").contains("RF_CHECK"),
        "failure reason should carry the forced-failure panic: {:?}",
        failed.reason
    );

    let diag = JobManifest::load(&manifest_path(&dir, "fig08_hashing-repro")).unwrap();
    assert_eq!(diag.role, JobRole::Repro, "diagnostic must be marked repro");
    assert_eq!(diag.status, JobStatus::Ok, "diagnostic replay must pass");

    let blocked = JobManifest::load(&manifest_path(&dir, "fig10_coverage")).unwrap();
    assert_eq!(blocked.status, JobStatus::Blocked);
    let ok = JobManifest::load(&manifest_path(&dir, "table3_config")).unwrap();
    assert_eq!(ok.status, JobStatus::Ok, "unrelated roots must still run");
}

/// The crash hook + resume contract at the CLI level: a mid-job crash
/// in fig08_hashing exits 4 and leaves a crash dump; re-running with
/// `--resume` skips the already-completed root, re-runs the in-flight
/// job, and exits 0 with every manifest `ok`.
#[test]
fn crash_then_resume_completes_matrix() {
    let dir = scratch_dir("resume");
    let (code, text) = run(farm_cmd(&dir).env("RF_FARM_CRASH_AT", "mid:fig08_hashing"));
    assert_eq!(code, 4, "expected exit 4 (farm died):\n{text}");
    assert!(
        dir.join("obs").join("farm.crashdump.json").exists(),
        "crash must leave a dump under obs/"
    );

    let (code, text) = run(farm_cmd(&dir).arg("--resume"));
    assert_eq!(code, 0, "resume must finish the matrix:\n{text}");
    let summary = std::fs::read_to_string(dir.join("farm_summary.csv")).unwrap();
    assert!(
        summary.contains("table3_config,skipped"),
        "completed root must be skipped on resume:\n{summary}"
    );
    for id in ["table3_config", "fig08_hashing", "fig10_coverage"] {
        let m = JobManifest::load(&manifest_path(&dir, id)).unwrap();
        assert_eq!(m.status, JobStatus::Ok, "{id} must be ok after resume");
    }
}
