//! Property tests for the DAG scheduler: over random matrices (chains,
//! diamonds, wide fan-out, and arbitrary DAGs) and worker counts 1–8,
//! every job runs exactly once and never before its dependencies, the
//! farm never deadlocks, and a cyclic spec is rejected at load with the
//! offending edge named.

use relaxfault_farm::{validate, Farm, FarmConfig, JobSpec};
use relaxfault_util::prop::{self, Source};
use relaxfault_util::prop_assert;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rf_dag_prop_{tag}_{}_{n}", std::process::id()))
}

/// A random DAG: deps only point at earlier indices, so it is acyclic by
/// construction. Shape classes bias toward the structures the figure
/// matrix actually has.
fn arb_dag(src: &mut Source) -> Vec<JobSpec> {
    let shape = src.choice_index(4);
    let n = src.usize(1, 10);
    (0..n)
        .map(|i| {
            let mut spec = JobSpec::new(format!("j{i:02}")).cost(src.u64(1, 50));
            match shape {
                // Chain: j00 <- j01 <- j02 ...
                0 => {
                    if i > 0 {
                        spec = spec.dep(format!("j{:02}", i - 1));
                    }
                }
                // Wide fan-out: everything depends on the single root.
                1 => {
                    if i > 0 {
                        spec = spec.dep("j00");
                    }
                }
                // Diamond stack: depend on the two previous jobs.
                2 => {
                    for back in 1..=2usize {
                        if i >= back {
                            spec = spec.dep(format!("j{:02}", i - back));
                        }
                    }
                }
                // Arbitrary DAG: each earlier job is a dep with p = 1/3.
                _ => {
                    for j in 0..i {
                        if src.weighted(&[2, 1]) == 1 {
                            spec = spec.dep(format!("j{j:02}"));
                        }
                    }
                }
            }
            spec
        })
        .collect()
}

/// Runs the matrix and checks the execution log: exactly-once, and every
/// dependency's entry strictly precedes its dependent's.
fn check_run(specs: &[JobSpec], workers: usize) -> Result<(), String> {
    let dir = scratch_dir("run");
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = FarmConfig::new(&dir);
    cfg.workers = workers;
    let mut farm = Farm::new(cfg);
    for s in specs {
        let log = Arc::clone(&log);
        let id = s.id.clone();
        farm.job(s.clone(), move |_ctx| {
            log.lock().expect("log").push(id.clone());
            Ok(())
        });
    }
    let report = farm.run()?;
    let order = log.lock().expect("log").clone();
    let _ = std::fs::remove_dir_all(&dir);

    if report.completed.len() != specs.len() {
        return Err(format!(
            "completed {} of {} jobs",
            report.completed.len(),
            specs.len()
        ));
    }
    if order.len() != specs.len() {
        return Err(format!(
            "log has {} entries for {} jobs",
            order.len(),
            specs.len()
        ));
    }
    let position: std::collections::HashMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    if position.len() != specs.len() {
        return Err("a job ran more than once".into());
    }
    for s in specs {
        let at = *position
            .get(s.id.as_str())
            .ok_or_else(|| format!("job {} never ran", s.id))?;
        for d in &s.deps {
            let dep_at = *position
                .get(d.as_str())
                .ok_or_else(|| format!("dep {} never ran", d))?;
            if dep_at >= at {
                return Err(format!(
                    "{} ran at {} before its dep {} at {}",
                    s.id, at, d, dep_at
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn random_dags_run_exactly_once_in_dep_order() {
    prop::check(60, |src| {
        let specs = arb_dag(src);
        let workers = src.usize(1, 8);
        let outcome = check_run(&specs, workers);
        prop_assert!(
            outcome.is_ok(),
            "workers={workers}: {}",
            outcome.unwrap_err()
        );
        Ok(())
    });
}

#[test]
fn fixed_shapes_complete_under_every_worker_count() {
    let chain: Vec<JobSpec> = (0..8)
        .map(|i| {
            let mut s = JobSpec::new(format!("j{i:02}"));
            if i > 0 {
                s = s.dep(format!("j{:02}", i - 1));
            }
            s
        })
        .collect();
    let diamond = vec![
        JobSpec::new("j00"),
        JobSpec::new("j01").dep("j00"),
        JobSpec::new("j02").dep("j00"),
        JobSpec::new("j03").dep("j01").dep("j02"),
    ];
    let mut fanout = vec![JobSpec::new("j00")];
    for i in 1..11 {
        fanout.push(JobSpec::new(format!("j{i:02}")).dep("j00"));
    }
    fanout.push({
        let mut join = JobSpec::new("j11");
        for i in 1..11 {
            join = join.dep(format!("j{i:02}"));
        }
        join
    });
    for specs in [&chain, &diamond, &fanout] {
        for workers in 1..=8 {
            check_run(specs, workers).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        }
    }
}

#[test]
fn random_cycles_are_rejected_with_edge_named() {
    prop::check(40, |src| {
        // An otherwise-valid DAG plus one dependency ring through k jobs.
        let mut specs = arb_dag(src);
        let n = specs.len();
        let k = src.usize(2, n.clamp(2, 5)).min(n.max(2));
        if n < 2 {
            specs.push(JobSpec::new("j01"));
        }
        let n = specs.len();
        let k = k.min(n);
        let start = src.usize(0, n - k.max(2));
        let ring: Vec<String> = (start..start + k.max(2))
            .map(|i| specs[i].id.clone())
            .collect();
        for w in 0..ring.len() {
            let next = ring[(w + 1) % ring.len()].clone();
            let cur = &ring[w];
            let spec = specs
                .iter_mut()
                .find(|s| &s.id == cur)
                .expect("ring member");
            if !spec.deps.contains(&next) {
                *spec = spec.clone().dep(next);
            }
        }
        let err = match validate(&specs) {
            Err(e) => e,
            Ok(()) => {
                prop_assert!(false, "cycle through {ring:?} was accepted");
                unreachable!()
            }
        };
        prop_assert!(err.contains("dependency cycle"), "unexpected error: {err}");
        // The named edge must be a real edge of the spec.
        let edge = err.split("dependency cycle: ").nth(1).unwrap_or("").trim();
        let (from, to) = edge.split_once(" -> ").unwrap_or(("", ""));
        let from_spec = specs.iter().find(|s| s.id == from);
        prop_assert!(
            from_spec.is_some_and(|s| s.deps.iter().any(|d| d == to)),
            "named edge {edge:?} is not an edge of the spec"
        );
        Ok(())
    });
}
