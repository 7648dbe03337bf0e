//! The resumable job-list runner: bounded most-expensive-first dispatch,
//! crash points, and the auto-repair loop.
//!
//! The scheduler owns all durable state transitions; each dispatched job
//! body runs on a scoped thread of its own, and at most `workers` bodies
//! run at once. Jobs are independent, so a failed job fails alone. Every
//! job is seeded, so a failure is final on its first attempt: re-running
//! would repeat it, and the repair hook captures its diagnostics instead.
//!
//! The `farm_state` ledger is the one durable record: a job's entry is
//! saved as soon as its body returns, so a crash at any instant leaves
//! the entry either stale (the job re-runs) or current (it is skipped).
//! Job side effects must therefore be idempotent overwrites — exactly
//! what every bench bin already does — and the crash matrix test proves
//! the resumed artifacts are byte-identical to an uninterrupted run.
//!
//! Two injectable crash points mirror the fleet checkpoint matrix
//! (`RF_FLEET_CRASH_AT`):
//!
//! - `RF_FARM_CRASH_AT=<job>`: die at the job *boundary*, right after
//!   `<job>`'s ledger record is persisted.
//! - `RF_FARM_CRASH_AT=mid:<job>`: die *mid-job* — `<job>`'s side
//!   effects have landed but its ledger record was not written, so
//!   resume must re-run it.
//!
//! A simulated crash or a persistence error stops dispatch at once; the
//! runner returns it as an `Err` after the jobs already in flight (fewer
//! than `workers`) have finished, because the threads are scoped. A
//! caller can then resume without racing leftover writes.

use crate::spec::{self, JobSpec};
use crate::state::{self, FarmLedger, JobRole, JobStatus, LedgerEntry};
use relaxfault_util::persist::Persist;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;

/// What a job closure gets to see when it runs.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The job's id.
    pub id: String,
    /// The results root the farm writes under.
    pub dir: PathBuf,
}

/// A job body: runs on a thread of its own, returns a failure reason on
/// error. Side effects must be idempotent overwrites — a re-run after a
/// mid-job crash must converge to identical artifacts.
pub type JobFn = Box<dyn Fn(&JobCtx) -> Result<(), String> + Send>;

/// A schedulable job: static identity plus the closure that does the
/// work.
pub struct Job {
    /// Static identity (id, cost).
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
}

/// What the repair hook produced for a failure: a diagnostic job to
/// re-queue and, optionally, the path of the ReproCase it archived
/// (recorded in the failed job's ledger entry).
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
    /// Die right after this job's ledger record persisted.
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
    /// Most job bodies in flight at once (clamped to at least 1).
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
    /// `(id, succeeded)` for diagnostic jobs the repair hook re-queued.
    pub repro: Vec<(String, bool)>,
}

/// The orchestrator: collect jobs, then [`Farm::run`].
pub struct Farm {
    cfg: FarmConfig,
    jobs: Vec<Job>,
    hook: Option<RepairHook>,
}

/// A finished job body, sent back to the scheduler.
struct Done {
    spec: JobSpec,
    role: JobRole,
    result: Result<(), String>,
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

    /// Runs every job to completion (or to the injected crash point).
    ///
    /// # Errors
    ///
    /// Returns spec-validation errors, ledger drift on resume, I/O
    /// failures persisting state, and the simulated-crash error when a
    /// crash point fires. Job failures are *not* errors — they are
    /// reported in the [`FarmReport`] and recorded as `failed` ledger
    /// entries.
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
        let ledger_path = state::ledger_path(&cfg.dir);
        let (mut ledger, done_before) = load_or_init_ledger(&cfg, &specs)?;
        ledger.save(&ledger_path)?;

        let mut ids: HashSet<String> = specs.into_iter().map(|s| s.id).collect();
        let mut queue: Vec<Job> = jobs
            .into_iter()
            .filter(|j| !done_before.contains(&j.spec.id))
            .collect();
        sort_queue(&mut queue);
        let mut report = FarmReport {
            skipped: {
                let mut v: Vec<String> = done_before.into_iter().collect();
                v.sort();
                v
            },
            ..FarmReport::default()
        };

        let workers = cfg.workers.max(1);
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        std::thread::scope(|scope| -> Result<FarmReport, String> {
            let mut running = 0usize;
            loop {
                while running < workers {
                    let Some(job) = queue.pop() else { break };
                    let ctx = JobCtx {
                        id: job.spec.id.clone(),
                        dir: cfg.dir.clone(),
                    };
                    let done_tx = done_tx.clone();
                    scope.spawn(move || {
                        // A panicking body must still report, or the
                        // scheduler would wait for it forever.
                        let result = catch_unwind(AssertUnwindSafe(|| (job.run)(&ctx)))
                            .unwrap_or_else(|_| Err(format!("job {:?} panicked", ctx.id)));
                        // The receiver only goes away once `run` has
                        // returned, when the outcome no longer matters.
                        let _ = done_tx.send(Done {
                            spec: job.spec,
                            role: job.role,
                            result,
                        });
                    });
                    running += 1;
                }
                if running == 0 {
                    return Ok(report);
                }
                let Done { spec, role, result } =
                    done_rx.recv().expect("the scheduler holds a sender");
                running -= 1;
                let id = spec.id.clone();
                if matches!(&cfg.crash_at, Some(CrashPoint::MidJob(c)) if *c == id) {
                    return Err(format!(
                        "simulated crash mid-job {id:?} (RF_FARM_CRASH_AT): side effects \
                         written, ledger not; resume with --resume"
                    ));
                }
                let mut entry = LedgerEntry {
                    id: id.clone(),
                    digest: spec.digest(),
                    role,
                    status: JobStatus::Ok,
                    reason: None,
                    repro: None,
                };
                let mut diagnostic = None;
                match result {
                    Ok(()) if role == JobRole::Repro => report.repro.push((id.clone(), true)),
                    Ok(()) => report.completed.push(id.clone()),
                    Err(reason) => {
                        if role == JobRole::Repro {
                            report.repro.push((id.clone(), false));
                        } else {
                            let failure = JobFailure {
                                id: &id,
                                reason: &reason,
                            };
                            if let Some(repair) = hook.as_ref().and_then(|h| h(&failure)) {
                                entry.repro = repair.archive.map(|p| p.display().to_string());
                                diagnostic = Some(repair.job);
                            }
                            report.failed.push((id.clone(), reason.clone()));
                        }
                        entry.status = JobStatus::Failed;
                        entry.reason = Some(reason);
                    }
                }
                ledger.record(entry);
                ledger.save(&ledger_path)?;
                if matches!(&cfg.crash_at, Some(CrashPoint::Boundary(c)) if *c == id) {
                    return Err(format!(
                        "simulated crash at job boundary {id:?} (RF_FARM_CRASH_AT); \
                         resume with --resume"
                    ));
                }
                if let Some(job) = diagnostic {
                    spec::validate(std::slice::from_ref(&job.spec))?;
                    if !ids.insert(job.spec.id.clone()) {
                        return Err(format!(
                            "repair hook returned duplicate job id {:?}",
                            job.spec.id
                        ));
                    }
                    queue.push(Job {
                        role: JobRole::Repro,
                        ..job
                    });
                    sort_queue(&mut queue);
                }
            }
        })
    }
}

/// Orders `queue` so that `pop` yields the most expensive job first, ties
/// by id, so the longest jobs start while workers are free.
fn sort_queue(queue: &mut [Job]) {
    queue.sort_by(|a, b| {
        a.spec
            .cost
            .cmp(&b.spec.cost)
            .then_with(|| b.spec.id.cmp(&a.spec.id))
    });
}

fn load_or_init_ledger(
    cfg: &FarmConfig,
    specs: &[JobSpec],
) -> Result<(FarmLedger, HashSet<String>), String> {
    let matrix_digest = spec::spec_digest(specs);
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
            reason: None,
            repro: None,
        });
    }
    Ok((ledger, done_before))
}
