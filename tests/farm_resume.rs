//! Farm crash/resume matrix: kill the farm at every job boundary and
//! mid-job, across worker counts {1, 2, 4}, resume, and prove the final
//! artifact tree — job outputs and the `farm_state` ledger — is
//! byte-identical to an uninterrupted run. A drifted ledger
//! (tampered digests or a changed matrix) must be rejected outright, not
//! silently re-run.
//!
//! This is the farm counterpart of the fleet checkpoint matrix in
//! `crates/relsim/tests/fleet_crash_matrix.rs`.

use relaxfault_farm::{CrashPoint, Farm, FarmConfig, JobSpec};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rf_farm_resume_{tag}_{}_{n}", std::process::id()))
}

/// The synthetic matrix: six independent jobs. Their dispatch order at
/// one worker is cost-descending, ties by id: a, c, b, d, e, f.
fn matrix() -> Vec<JobSpec> {
    vec![
        JobSpec::new("a").cost(5),
        JobSpec::new("b").cost(3),
        JobSpec::new("c").cost(4),
        JobSpec::new("d").cost(2),
        JobSpec::new("e"),
        JobSpec::new("f"),
    ]
}

/// Each job writes its own output file, named and filled from its spec.
fn job_body(
    spec: &JobSpec,
) -> impl Fn(&relaxfault_farm::JobCtx) -> Result<(), String> + Send + 'static {
    let text = format!("{} cost {}\n", spec.id, spec.cost);
    move |ctx| {
        let out = ctx.dir.join("out");
        fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        fs::write(out.join(format!("{}.txt", ctx.id)), &text).map_err(|e| e.to_string())
    }
}

fn build_farm(dir: &Path, workers: usize, crash_at: Option<CrashPoint>, resume: bool) -> Farm {
    let mut cfg = FarmConfig::new(dir);
    cfg.workers = workers;
    cfg.crash_at = crash_at;
    cfg.resume = resume;
    let mut farm = Farm::new(cfg);
    for s in matrix() {
        let body = job_body(&s);
        farm.job(s, body);
    }
    farm
}

/// Every file under `dir`, relative path -> bytes.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    out
}

fn assert_trees_identical(reference: &BTreeMap<String, Vec<u8>>, got: &Path, what: &str) {
    let got_tree = tree(got);
    let ref_names: Vec<&String> = reference.keys().collect();
    let got_names: Vec<&String> = got_tree.keys().collect();
    assert_eq!(got_names, ref_names, "{what}: file set differs");
    for (name, bytes) in reference {
        assert_eq!(
            got_tree[name], *bytes,
            "{what}: {name} differs from the uninterrupted run"
        );
    }
}

fn reference_tree() -> BTreeMap<String, Vec<u8>> {
    let dir = scratch_dir("reference");
    let report = build_farm(&dir, 1, None, false)
        .run()
        .expect("reference run");
    assert_eq!(report.completed.len(), 6);
    assert!(report.failed.is_empty());
    let t = tree(&dir);
    fs::remove_dir_all(&dir).expect("cleanup");
    assert!(
        t.keys().any(|k| k.ends_with("farm_state.json")),
        "ledger missing from reference tree"
    );
    t
}

#[test]
fn crash_matrix_resumes_byte_identical() {
    let reference = reference_tree();
    for workers in [1usize, 2, 4] {
        for job in ["a", "b", "c", "d", "e", "f"] {
            for mid in [false, true] {
                let crash = if mid {
                    CrashPoint::MidJob(job.to_string())
                } else {
                    CrashPoint::Boundary(job.to_string())
                };
                let what = format!("workers={workers} crash={crash:?}");
                let dir = scratch_dir("crash");
                let err = build_farm(&dir, workers, Some(crash.clone()), false)
                    .run()
                    .expect_err(&format!("{what}: crash point must fire"));
                assert!(
                    err.contains("simulated crash") && err.contains("--resume"),
                    "{what}: unexpected crash error: {err}"
                );
                let report = build_farm(&dir, workers, None, true)
                    .run()
                    .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
                assert_eq!(
                    report.completed.len() + report.skipped.len(),
                    6,
                    "{what}: resume must finish all six jobs"
                );
                if !mid {
                    // Boundary crash: the crashed job's record persisted, so
                    // resume must skip it rather than re-run it.
                    assert!(
                        report.skipped.iter().any(|s| s == job),
                        "{what}: boundary-crashed job must be skipped on resume"
                    );
                }
                assert_trees_identical(&reference, &dir, &what);
                fs::remove_dir_all(&dir).expect("cleanup");
            }
        }
    }
}

#[test]
fn mid_job_crash_reruns_the_job() {
    // A mid-job crash persists nothing for the job, so the resume must
    // re-run it — proven here by observing the job body execute again.
    // With one worker, dispatch stops at the crash: no job after the
    // crashed one in dispatch order may have started.
    let dir = scratch_dir("rerun");
    let runs: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let build = |crash: Option<CrashPoint>, resume: bool| {
        let mut cfg = FarmConfig::new(&dir);
        cfg.crash_at = crash;
        cfg.resume = resume;
        let mut farm = Farm::new(cfg);
        for s in matrix() {
            let body = job_body(&s);
            let runs = Arc::clone(&runs);
            let id = s.id.clone();
            farm.job(s, move |ctx| {
                runs.lock().expect("runs").push(id.clone());
                body(ctx)
            });
        }
        farm
    };
    build(Some(CrashPoint::MidJob("b".into())), false)
        .run()
        .expect_err("crash fires");
    let before: Vec<String> = runs.lock().expect("runs").clone();
    assert_eq!(
        before,
        ["a", "c", "b"],
        "jobs started up to the crash, in dispatch order"
    );
    build(None, true).run().expect("resume");
    let after: Vec<String> = runs.lock().expect("runs").clone();
    let b_runs = after.iter().filter(|r| *r == "b").count();
    assert_eq!(b_runs, 2, "mid-job-crashed job must re-run on resume");
    let a_runs = after.iter().filter(|r| *r == "a").count();
    assert_eq!(a_runs, 1, "completed jobs must not re-run");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Flips the first hex digit of the quoted digest in `line`, keeping it
/// a *valid* 16-digit hex string so the failure is a digest mismatch,
/// never a parse error.
fn flip_digest(line: &str) -> String {
    let at = line.find("\"0x").expect("hex digest") + 3;
    let old = line.as_bytes()[at] as char;
    let new = if old == '0' { '1' } else { '0' };
    let mut flipped = line.to_string();
    flipped.replace_range(at..at + 1, &new.to_string());
    flipped
}

#[test]
fn tampered_ledger_is_rejected_not_rerun() {
    // Crash mid-run, then tamper the ledger three ways; every resume
    // attempt must fail with a drift error before any job executes.
    let dir = scratch_dir("tamper");
    build_farm(&dir, 2, Some(CrashPoint::Boundary("c".into())), false)
        .run()
        .expect_err("crash fires");
    let ledger_path = relaxfault_farm::ledger_path(&dir);
    let pristine = fs::read_to_string(&ledger_path).expect("ledger");

    // (1) Tampered matrix digest.
    let digest_line = pristine
        .lines()
        .find(|l| l.contains("\"spec_digest\""))
        .expect("spec_digest line");
    let tampered = pristine.replace(digest_line, &flip_digest(digest_line));
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).expect("write");
    let err = resume_counting(&dir);
    assert!(
        err.contains("farm_state drift") && err.contains("matrix digest"),
        "matrix digest tamper: {err}"
    );

    // (2) Tampered per-job digest (matrix digest left intact).
    let job_digest_line = pristine
        .lines()
        .filter(|l| l.contains("\"digest\"") && !l.contains("spec_digest"))
        .nth(1)
        .expect("a job digest line");
    fs::write(
        &ledger_path,
        pristine.replace(job_digest_line, &flip_digest(job_digest_line)),
    )
    .expect("write");
    let err = resume_counting(&dir);
    assert!(
        err.contains("farm_state drift") && err.contains("!= current"),
        "job digest tamper: {err}"
    );

    // (3) A changed matrix spec against the pristine ledger.
    fs::write(&ledger_path, &pristine).expect("restore");
    let mut cfg = FarmConfig::new(&dir);
    cfg.resume = true;
    let mut farm = Farm::new(cfg);
    for s in matrix() {
        let body = job_body(&s);
        farm.job(s.cost(99), body); // every cost changed => new digests
    }
    let err = farm.run().expect_err("changed spec must be drift");
    assert!(err.contains("farm_state drift"), "changed spec: {err}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Resumes the standard matrix with job bodies that record executions;
/// asserts nothing ran and returns the error.
fn resume_counting(dir: &Path) -> String {
    let runs: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = FarmConfig::new(dir);
    cfg.resume = true;
    let mut farm = Farm::new(cfg);
    for s in matrix() {
        let runs = Arc::clone(&runs);
        let id = s.id.clone();
        farm.job(s, move |_ctx| {
            runs.lock().expect("runs").push(id.clone());
            Ok(())
        });
    }
    let err = farm.run().expect_err("drift must be rejected");
    assert!(
        runs.lock().expect("runs").is_empty(),
        "drift rejection must happen before any job runs"
    );
    err
}
