//! The resumable DAG runner: worker pool, most-expensive-first dispatch,
//! crash points, and the auto-repair loop.
//!
//! The scheduler owns all durable state transitions; workers only execute
//! job closures (which travel through the work channel, so hook-spawned
//! diagnostics need no shared job table). Every job is seeded, so a
//! failure is final on its first attempt: re-running would repeat it, and
//! the repair hook captures its diagnostics instead. Persistence
//! ordering is the crash-consistency contract: a job's manifest is
//! written **before** its ledger record, so a ledger record with status
//! `ok` proves the manifest exists, and a crash at any instant leaves the
//! pair either both stale (job re-runs) or both current (job is
//! skipped). Job side effects must therefore be idempotent overwrites —
//! exactly what every bench bin already does — and the crash matrix test
//! proves the resumed artifacts are byte-identical to an uninterrupted
//! run.
//!
//! Two injectable crash points mirror the fleet checkpoint matrix
//! (`RF_FLEET_CRASH_AT`):
//!
//! - `RF_FARM_CRASH_AT=<job>`: die at the job *boundary*, right after
//!   `<job>`'s manifest and ledger record are persisted.
//! - `RF_FARM_CRASH_AT=mid:<job>`: die *mid-job* — `<job>`'s side
//!   effects have landed but neither manifest nor ledger record was
//!   written, so resume must re-run it.
//!
//! The runner returns the simulated crash as an `Err` only after every
//! in-flight worker has drained (the pool is scoped), so a caller can
//! immediately resume without racing leftover writes.

use crate::spec::{self, JobSpec};
use crate::state::{self, FarmLedger, JobManifest, JobRole, JobStatus, LedgerEntry};
use relaxfault_util::persist::Persist;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};

/// What a job closure gets to see when it runs.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The job's id.
    pub id: String,
    /// The results root the farm writes under.
    pub dir: PathBuf,
}

/// A job body: runs on a worker thread, returns a failure reason on
/// error. Side effects must be idempotent overwrites — a re-run after a
/// mid-job crash must converge to identical artifacts.
pub type JobFn = Box<dyn Fn(&JobCtx) -> Result<(), String> + Send>;

/// A schedulable job: static identity plus the closure that does the
/// work.
pub struct Job {
    /// Static identity (id, deps, cost).
    pub spec: JobSpec,
    /// Matrix job or re-queued diagnostic.
    pub role: JobRole,
    run: JobFn,
}

impl Job {
    /// A matrix job.
    pub fn new(
        spec: JobSpec,
        run: impl Fn(&JobCtx) -> Result<(), String> + Send + 'static,
    ) -> Self {
        Job {
            spec,
            role: JobRole::Job,
            run: Box::new(run),
        }
    }

    /// A diagnostic job for the auto-repair loop, excluded from the
    /// matrix drift digest.
    pub fn diagnostic(
        spec: JobSpec,
        run: impl Fn(&JobCtx) -> Result<(), String> + Send + 'static,
    ) -> Self {
        Job {
            spec,
            role: JobRole::Repro,
            run: Box::new(run),
        }
    }
}

/// Context handed to the repair hook when a matrix job fails.
#[derive(Debug)]
pub struct JobFailure<'a> {
    /// The failed job's id.
    pub id: &'a str,
    /// The failure reason.
    pub reason: &'a str,
    /// The results root (where a captured ReproCase would have landed).
    pub dir: &'a Path,
}

/// What the repair hook produced for a failure: a diagnostic job to
/// re-queue and, optionally, the path of the ReproCase it archived next
/// to the job manifest (recorded in the failed job's manifest).
pub struct Repair {
    /// The diagnostic job (run with [`JobRole::Repro`] semantics).
    pub job: Job,
    /// Archived ReproCase path, if one was captured.
    pub archive: Option<PathBuf>,
}

/// Called on the scheduler thread when a matrix job fails.
pub type RepairHook = Box<dyn Fn(&JobFailure) -> Option<Repair>>;

/// Where to inject a simulated crash (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die right after this job's manifest + ledger record persisted.
    Boundary(String),
    /// Die after this job's side effects but before any persistence.
    MidJob(String),
}

/// Parses `RF_FARM_CRASH_AT` (`"<job>"` or `"mid:<job>"`).
pub fn crash_at_from_env() -> Option<CrashPoint> {
    let v = std::env::var("RF_FARM_CRASH_AT").ok()?;
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    Some(match v.strip_prefix("mid:") {
        Some(id) => CrashPoint::MidJob(id.to_string()),
        None => CrashPoint::Boundary(v.to_string()),
    })
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Results root; durable farm state lives under `<dir>/farm/`.
    pub dir: PathBuf,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Injected crash point (normally [`crash_at_from_env`]).
    pub crash_at: Option<CrashPoint>,
    /// Resume from an existing `farm_state` ledger: completed jobs are
    /// skipped after a drift check, everything else re-runs.
    pub resume: bool,
}

impl FarmConfig {
    /// A serial farm over `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FarmConfig {
            dir: dir.into(),
            workers: 1,
            crash_at: None,
            resume: false,
        }
    }
}

/// What happened, for callers that render summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmReport {
    /// Matrix jobs that completed this run, in completion order.
    pub completed: Vec<String>,
    /// Matrix jobs skipped because the ledger already records them ok.
    pub skipped: Vec<String>,
    /// `(id, reason)` for jobs that failed.
    pub failed: Vec<(String, String)>,
    /// Jobs that never ran because a dependency failed, sorted by id.
    pub blocked: Vec<String>,
    /// `(id, succeeded)` for diagnostic jobs the repair hook re-queued.
    pub repro: Vec<(String, bool)>,
    /// Jobs executed this run, diagnostics included.
    pub attempts: u64,
}

/// The orchestrator: collect jobs, then [`Farm::run`].
pub struct Farm {
    cfg: FarmConfig,
    jobs: Vec<Job>,
    hook: Option<RepairHook>,
}

struct WorkMsg {
    slot: usize,
    id: String,
    run: JobFn,
}

struct DoneMsg {
    slot: usize,
    result: Result<(), String>,
}

#[derive(Clone, Copy, PartialEq)]
enum SlotState {
    Pending,
    Running,
    Done,
    Failed,
    Blocked,
}

/// Per-slot bookkeeping the scheduler mutates as results arrive.
struct SlotRow {
    spec: JobSpec,
    role: JobRole,
    state: SlotState,
    /// Unfinished dependency count.
    waiting: usize,
    /// Slots that depend on this one.
    dependents: Vec<usize>,
    /// The closure, parked here until the job is dispatched.
    run: Option<JobFn>,
}

impl Farm {
    /// An empty farm over `cfg`.
    pub fn new(cfg: FarmConfig) -> Self {
        Farm {
            cfg,
            jobs: Vec::new(),
            hook: None,
        }
    }

    /// Adds a matrix job.
    pub fn job(
        &mut self,
        spec: JobSpec,
        run: impl Fn(&JobCtx) -> Result<(), String> + Send + 'static,
    ) -> &mut Self {
        self.jobs.push(Job::new(spec, run));
        self
    }

    /// Installs the auto-repair hook, called once per failed matrix job.
    pub fn repair_hook(
        &mut self,
        hook: impl Fn(&JobFailure) -> Option<Repair> + 'static,
    ) -> &mut Self {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Runs the DAG to completion (or to the injected crash point).
    ///
    /// # Errors
    ///
    /// Returns spec-validation errors, ledger drift on resume, I/O
    /// failures persisting state, and the simulated-crash error when a
    /// crash point fires. Job failures are *not* errors — they are
    /// reported in the [`FarmReport`] and surfaced as `failed`/`blocked`
    /// manifests.
    pub fn run(self) -> Result<FarmReport, String> {
        let Farm { cfg, jobs, hook } = self;
        let specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        spec::validate(&specs)?;
        if let Some(j) = jobs.iter().find(|j| j.role != JobRole::Job) {
            return Err(format!(
                "job {:?} has role repro; diagnostics come from the repair hook",
                j.spec.id
            ));
        }
        let matrix_digest = spec::spec_digest(&specs);
        let ledger_path = state::ledger_path(&cfg.dir);
        let (mut ledger, done_before) = load_or_init_ledger(&cfg, &specs, matrix_digest)?;
        ledger.save(&ledger_path)?;

        // --- Scheduling state ---------------------------------------------
        let mut slot_of: HashMap<String, usize> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.spec.id.clone(), i))
            .collect();
        let mut rows: Vec<SlotRow> = jobs
            .into_iter()
            .map(|job| {
                let done = done_before.contains(job.spec.id.as_str());
                SlotRow {
                    state: if done {
                        SlotState::Done
                    } else {
                        SlotState::Pending
                    },
                    waiting: 0,
                    dependents: Vec::new(),
                    spec: job.spec,
                    role: job.role,
                    run: Some(job.run),
                }
            })
            .collect();
        for i in 0..rows.len() {
            for d in rows[i].spec.deps.clone() {
                let di = slot_of[d.as_str()];
                if rows[di].state != SlotState::Done {
                    rows[i].waiting += 1;
                }
                rows[di].dependents.push(i);
            }
        }
        let mut ready: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state == SlotState::Pending && r.waiting == 0)
            .map(|(i, _)| i)
            .collect();
        let mut pending = rows.iter().filter(|r| r.state != SlotState::Done).count();
        let mut report = FarmReport {
            skipped: {
                let mut v: Vec<String> = done_before.iter().cloned().collect();
                v.sort();
                v
            },
            ..FarmReport::default()
        };

        let workers = cfg.workers.max(1);
        let (work_tx, work_rx) = mpsc::channel::<WorkMsg>();
        let (done_tx, done_rx) = mpsc::channel::<DoneMsg>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        std::thread::scope(|scope| -> Result<FarmReport, String> {
            for _ in 0..workers {
                let work_rx = Arc::clone(&work_rx);
                let done_tx = done_tx.clone();
                let dir = cfg.dir.clone();
                scope.spawn(move || loop {
                    let msg = { work_rx.lock().expect("work queue").recv() };
                    let Ok(WorkMsg { slot, id, run }) = msg else {
                        break;
                    };
                    let result = run(&JobCtx {
                        id,
                        dir: dir.clone(),
                    });
                    if done_tx.send(DoneMsg { slot, result }).is_err() {
                        break;
                    }
                });
            }
            drop(done_tx);

            let mut running: usize = 0;
            let outcome = (|| -> Result<FarmReport, String> {
                dispatch(&mut rows, &mut ready, &mut running, &work_tx)?;
                while pending > 0 {
                    if running == 0 {
                        return Err(format!(
                            "scheduler stalled with {pending} pending job(s) and nothing running"
                        ));
                    }
                    let DoneMsg { slot, result } =
                        done_rx.recv().map_err(|_| "worker pool died".to_string())?;
                    running -= 1;
                    report.attempts += 1;
                    let id = rows[slot].spec.id.clone();
                    if let Some(CrashPoint::MidJob(cid)) = &cfg.crash_at {
                        if *cid == id {
                            return Err(format!(
                                "simulated crash mid-job {id:?} (RF_FARM_CRASH_AT): side \
                                 effects written, manifest not; resume with --resume"
                            ));
                        }
                    }
                    match result {
                        Ok(()) => {
                            let row = &mut rows[slot];
                            let entry = LedgerEntry {
                                id: id.clone(),
                                digest: row.spec.digest(),
                                role: row.role,
                                status: JobStatus::Ok,
                                attempts: 1,
                            };
                            manifest_of(row, JobStatus::Ok, 1, None)
                                .save(&state::manifest_path(&cfg.dir, &id))?;
                            ledger.record(entry);
                            ledger.save(&ledger_path)?;
                            row.state = SlotState::Done;
                            pending -= 1;
                            if row.role == JobRole::Repro {
                                report.repro.push((id.clone(), true));
                            } else {
                                report.completed.push(id.clone());
                            }
                            if let Some(CrashPoint::Boundary(cid)) = &cfg.crash_at {
                                if *cid == id {
                                    return Err(format!(
                                        "simulated crash at job boundary {id:?} \
                                         (RF_FARM_CRASH_AT); resume with --resume"
                                    ));
                                }
                            }
                            for dep in rows[slot].dependents.clone() {
                                rows[dep].waiting -= 1;
                                if rows[dep].waiting == 0 && rows[dep].state == SlotState::Pending {
                                    ready.push(dep);
                                }
                            }
                        }
                        Err(reason) => {
                            let repair = if rows[slot].role == JobRole::Job {
                                hook.as_ref().and_then(|h| {
                                    h(&JobFailure {
                                        id: &id,
                                        reason: &reason,
                                        dir: &cfg.dir,
                                    })
                                })
                            } else {
                                None
                            };
                            let repro_path = repair
                                .as_ref()
                                .and_then(|r| r.archive.as_ref().map(|p| p.display().to_string()));
                            let row = &mut rows[slot];
                            manifest_of(row, JobStatus::Failed, 1, Some(reason.clone()))
                                .with_repro(repro_path)
                                .save(&state::manifest_path(&cfg.dir, &id))?;
                            ledger.record(LedgerEntry {
                                id: id.clone(),
                                digest: row.spec.digest(),
                                role: row.role,
                                status: JobStatus::Failed,
                                attempts: 1,
                            });
                            ledger.save(&ledger_path)?;
                            row.state = SlotState::Failed;
                            pending -= 1;
                            if row.role == JobRole::Repro {
                                report.repro.push((id.clone(), false));
                            } else {
                                report.failed.push((id.clone(), reason));
                            }
                            block_dependents(
                                slot,
                                &mut rows,
                                &mut ready,
                                &mut ledger,
                                &cfg.dir,
                                &mut pending,
                                &mut report,
                            )?;
                            ledger.save(&ledger_path)?;
                            if let Some(repair) = repair {
                                enqueue_diagnostic(
                                    repair.job,
                                    &mut rows,
                                    &mut slot_of,
                                    &mut ready,
                                    &mut pending,
                                )?;
                            }
                        }
                    }
                    dispatch(&mut rows, &mut ready, &mut running, &work_tx)?;
                }
                Ok(report)
            })();
            // Close the queue so idle workers exit; in-flight workers drain
            // into the still-open done channel and exit on the next recv.
            // `scope` then joins every worker, so no leftover thread can
            // race a subsequent resume.
            drop(work_tx);
            outcome
        })
    }
}

fn load_or_init_ledger(
    cfg: &FarmConfig,
    specs: &[JobSpec],
    matrix_digest: u64,
) -> Result<(FarmLedger, HashSet<String>), String> {
    let ledger_path = state::ledger_path(&cfg.dir);
    let mut done_before = HashSet::new();
    if cfg.resume && ledger_path.exists() {
        let prior = FarmLedger::load(&ledger_path)?;
        if prior.spec_digest != matrix_digest {
            return Err(format!(
                "{}: farm_state drift: ledger matrix digest {:#018x} != current {:#018x}; \
                 refusing to resume a different matrix",
                ledger_path.display(),
                prior.spec_digest,
                matrix_digest
            ));
        }
        let by_id: HashMap<&str, &JobSpec> = specs.iter().map(|s| (s.id.as_str(), s)).collect();
        for entry in &prior.jobs {
            if entry.role == JobRole::Repro {
                continue; // diagnostics are not part of the matrix
            }
            let Some(spec) = by_id.get(entry.id.as_str()) else {
                return Err(format!(
                    "{}: farm_state drift: ledger records unknown job {:?}",
                    ledger_path.display(),
                    entry.id
                ));
            };
            if entry.digest != spec.digest() {
                return Err(format!(
                    "{}: farm_state drift: job {:?} digest {:#018x} != current {:#018x}",
                    ledger_path.display(),
                    entry.id,
                    entry.digest,
                    spec.digest()
                ));
            }
            if entry.status == JobStatus::Ok {
                done_before.insert(entry.id.clone());
            }
        }
        return Ok((prior, done_before));
    }
    let mut ledger = FarmLedger {
        spec_digest: matrix_digest,
        jobs: Vec::new(),
    };
    for s in specs {
        ledger.record(LedgerEntry {
            id: s.id.clone(),
            digest: s.digest(),
            role: JobRole::Job,
            status: JobStatus::Pending,
            attempts: 0,
        });
    }
    Ok((ledger, done_before))
}

impl JobManifest {
    fn with_repro(mut self, repro: Option<String>) -> Self {
        self.repro = repro;
        self
    }
}

fn manifest_of(
    row: &SlotRow,
    status: JobStatus,
    attempts: u64,
    reason: Option<String>,
) -> JobManifest {
    JobManifest {
        id: row.spec.id.clone(),
        digest: row.spec.digest(),
        role: row.role,
        status,
        attempts,
        deps: row.spec.deps.clone(),
        cost: row.spec.cost,
        reason,
        repro: None,
    }
}

/// Sends every ready job to the worker pool, biggest cost first (ties by
/// id), so the longest jobs start while workers are free.
fn dispatch(
    rows: &mut [SlotRow],
    ready: &mut Vec<usize>,
    running: &mut usize,
    work_tx: &mpsc::Sender<WorkMsg>,
) -> Result<(), String> {
    ready.sort_by(|&a, &b| {
        rows[b]
            .spec
            .cost
            .cmp(&rows[a].spec.cost)
            .then(rows[a].spec.id.cmp(&rows[b].spec.id))
    });
    for slot in ready.drain(..) {
        rows[slot].state = SlotState::Running;
        *running += 1;
        let msg = WorkMsg {
            slot,
            id: rows[slot].spec.id.clone(),
            run: rows[slot].run.take().expect("closure parked"),
        };
        work_tx
            .send(msg)
            .map_err(|_| "worker pool died".to_string())?;
    }
    Ok(())
}

/// Marks every not-yet-run transitive dependent of `slot` blocked, with
/// manifests and ledger records (ledger saved by the caller).
fn block_dependents(
    slot: usize,
    rows: &mut [SlotRow],
    ready: &mut Vec<usize>,
    ledger: &mut FarmLedger,
    dir: &Path,
    pending: &mut usize,
    report: &mut FarmReport,
) -> Result<(), String> {
    let mut stack = vec![slot];
    while let Some(u) = stack.pop() {
        for dep in rows[u].dependents.clone() {
            if rows[dep].state != SlotState::Pending {
                continue;
            }
            let reason = format!("dependency {:?} failed", rows[u].spec.id);
            manifest_of(&rows[dep], JobStatus::Blocked, 0, Some(reason))
                .save(&state::manifest_path(dir, &rows[dep].spec.id))?;
            ledger.record(LedgerEntry {
                id: rows[dep].spec.id.clone(),
                digest: rows[dep].spec.digest(),
                role: rows[dep].role,
                status: JobStatus::Blocked,
                attempts: 0,
            });
            rows[dep].state = SlotState::Blocked;
            *pending -= 1;
            report.blocked.push(rows[dep].spec.id.clone());
            ready.retain(|&r| r != dep);
            stack.push(dep);
        }
    }
    report.blocked.sort();
    Ok(())
}

/// Admits a hook-produced diagnostic job into the scheduler.
fn enqueue_diagnostic(
    job: Job,
    rows: &mut Vec<SlotRow>,
    slot_of: &mut HashMap<String, usize>,
    ready: &mut Vec<usize>,
    pending: &mut usize,
) -> Result<(), String> {
    if slot_of.contains_key(&job.spec.id) {
        return Err(format!(
            "repair hook returned duplicate job id {:?}",
            job.spec.id
        ));
    }
    let mut dspec = job.spec;
    dspec.deps.clear(); // diagnostics run immediately, dependency-free
    spec::validate(std::slice::from_ref(&dspec))?;
    let slot = rows.len();
    slot_of.insert(dspec.id.clone(), slot);
    rows.push(SlotRow {
        spec: dspec,
        role: JobRole::Repro,
        state: SlotState::Pending,
        waiting: 0,
        dependents: Vec::new(),
        run: Some(job.run),
    });
    ready.push(slot);
    *pending += 1;
    Ok(())
}
