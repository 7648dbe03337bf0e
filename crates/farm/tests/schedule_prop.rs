//! Property tests for the job-list scheduler: over random job lists and
//! worker counts 1–8, every job runs exactly once, the pool fills to
//! `workers` bodies in flight but never beyond, and one worker runs the
//! list in descending cost order, ties by id.

use relaxfault_farm::{Farm, FarmConfig, JobSpec};
use relaxfault_util::prop::{self, Source};
use relaxfault_util::{prop_assert, prop_assert_eq};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rf_schedule_prop_{}_{n}", std::process::id()))
}

/// A random job list; costs come from a small range so ties are common.
fn arb_jobs(src: &mut Source) -> Vec<JobSpec> {
    let n = src.usize(1, 12);
    (0..n)
        .map(|i| JobSpec::new(format!("j{i:02}")).cost(src.u64(1, 4)))
        .collect()
}

/// What one run observed: the order bodies started in and the most
/// bodies ever in flight at once.
struct Observed {
    order: Vec<String>,
    high_water: usize,
}

/// Runs `specs` on `workers` workers. The first `min(workers, n)` bodies
/// to start wait for each other on a barrier, so the pool must fill
/// before any job finishes; every body tracks the in-flight count.
fn run(specs: &[JobSpec], workers: usize) -> Result<Observed, String> {
    let dir = scratch_dir();
    let first_wave = workers.min(specs.len());
    let barrier = Arc::new(Barrier::new(first_wave));
    let started = Arc::new(AtomicUsize::new(0));
    let live = Arc::new(AtomicUsize::new(0));
    let high = Arc::new(AtomicUsize::new(0));
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = FarmConfig::new(&dir);
    cfg.workers = workers;
    let mut farm = Farm::new(cfg);
    for s in specs {
        let (barrier, started, live, high, order) = (
            Arc::clone(&barrier),
            Arc::clone(&started),
            Arc::clone(&live),
            Arc::clone(&high),
            Arc::clone(&order),
        );
        farm.job(s.clone(), move |ctx| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            high.fetch_max(now, Ordering::SeqCst);
            order.lock().expect("order log").push(ctx.id.clone());
            if started.fetch_add(1, Ordering::SeqCst) < first_wave {
                barrier.wait();
            }
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
    }
    let report = farm.run();
    let _ = std::fs::remove_dir_all(&dir);
    let report = report?;
    if report.completed.len() != specs.len() {
        return Err(format!(
            "completed {} of {} jobs",
            report.completed.len(),
            specs.len()
        ));
    }
    let order = order.lock().expect("order log").clone();
    Ok(Observed {
        order,
        high_water: high.load(Ordering::SeqCst),
    })
}

#[test]
fn every_job_runs_once_within_the_worker_cap() {
    prop::check(60, |src| {
        let specs = arb_jobs(src);
        let workers = src.usize(1, 8);
        let seen = match run(&specs, workers) {
            Ok(seen) => seen,
            Err(e) => {
                prop_assert!(false, "workers={workers}: {e}");
                unreachable!()
            }
        };
        let mut ran = seen.order.clone();
        ran.sort();
        let mut ids: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
        ids.sort();
        prop_assert_eq!(
            ran,
            ids,
            "workers={workers}: each job must run exactly once"
        );
        prop_assert_eq!(
            seen.high_water,
            workers.min(specs.len()),
            "workers={workers}: bodies in flight"
        );
        if workers == 1 {
            let mut expected = specs.clone();
            expected.sort_by(|a, b| b.cost.cmp(&a.cost).then_with(|| a.id.cmp(&b.id)));
            let expected: Vec<String> = expected.into_iter().map(|s| s.id).collect();
            prop_assert_eq!(
                seen.order,
                expected,
                "one worker: cost-descending, ties by id"
            );
        }
        Ok(())
    });
}
