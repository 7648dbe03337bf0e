//! Figure-farm orchestration: a resumable DAG job runner with
//! auto-repair.
//!
//! The paper's result set is 14 figure/ablation bins; this crate turns
//! "regenerate the paper" into one resumable command. A [`Farm`] runs a
//! job matrix as a dependency DAG on a `std::thread` worker pool with:
//!
//! * **Per-job manifests** (Persist kind `farm_job`) and a **`farm_state`
//!   ledger** — both schema-versioned, atomically written, and
//!   timestamp-free, so a killed farm resumes exactly where it died and
//!   converges to byte-identical artifacts. Completed jobs are skipped by
//!   digest; in-flight jobs re-run.
//! * **Drift rejection** — a resumed ledger whose matrix digest or
//!   per-job digests disagree with the current spec is an error, never a
//!   silent re-run.
//! * **Biggest-cost-first dispatch** of every ready job to the pool.
//! * **An auto-repair loop** — every job is seeded, so a failure is final
//!   on its first attempt (a retry would repeat it). A [`RepairHook`] can
//!   archive the relcheck ReproCase the failing run captured and re-queue
//!   a minimal diagnostic job (role `repro`), without stopping the rest
//!   of the DAG.
//! * **Injected crash points** (`RF_FARM_CRASH_AT=<job>` / `mid:<job>`)
//!   so the crash matrix test and the CI gate can kill the farm at every
//!   boundary and prove resume is exact.
//!
//! This crate depends only on `relaxfault-util` — job bodies are caller
//! closures, so the farm stays generic over what a "job" does.
//!
//! # Examples
//!
//! ```
//! use relaxfault_farm::{Farm, FarmConfig, JobSpec};
//!
//! let dir = std::env::temp_dir().join(format!("farm_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut farm = Farm::new(FarmConfig::new(&dir));
//! farm.job(JobSpec::new("table"), |ctx| {
//!     std::fs::create_dir_all(&ctx.dir).map_err(|e| e.to_string())?;
//!     std::fs::write(ctx.dir.join("table.txt"), "42\n").map_err(|e| e.to_string())
//! });
//! farm.job(JobSpec::new("figure").dep("table"), |_ctx| Ok(()));
//! let report = farm.run().unwrap();
//! assert_eq!(report.completed.len(), 2);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod runner;
pub mod spec;
pub mod state;

pub use runner::{
    crash_at_from_env, CrashPoint, Farm, FarmConfig, FarmReport, Job, JobCtx, JobFailure, JobFn,
    Repair, RepairHook,
};
pub use spec::{spec_digest, validate, JobSpec};
pub use state::{
    farm_dir, ledger_path, manifest_path, repro_archive_path, FarmLedger, JobManifest, JobRole,
    JobStatus, LedgerEntry,
};
