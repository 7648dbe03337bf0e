//! Command-line driver for the correctness subsystem.
//!
//! ```text
//! relcheck smoke [--cases N]     run every oracle property (default 50 cases)
//! relcheck replay <file.json>    re-execute a persisted repro case,
//!                                fleet checkpoint, or crash dump
//!                                (dispatched by `kind`)
//! relcheck thread-matrix [--trials N] [--seed S] [--out PATH]
//!                                run the scheduling-determinism gate:
//!                                one pinned scenario mix at 1, 2 and 4
//!                                threads, all digests required
//!                                identical; the verdict JSON goes to
//!                                --out (or stdout)
//! ```
//!
//! Exit codes: 0 success / reproduced, 1 usage or replay error,
//! 2 replay did not reproduce the recorded failure, 3 an oracle property
//! or thread-matrix cell failed (the repro path / diverging digest is
//! printed).

use relaxfault_relcheck::replay::{
    load_any, replay, replay_crash_dump, replay_fleet, LoadedCase, ReplayReport,
};
use relaxfault_relcheck::{run_smoke, run_thread_matrix};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: relcheck smoke [--cases N] | relcheck replay <case.json> \
         | relcheck thread-matrix [--trials N] [--seed S] [--out PATH]"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("smoke") => {
            let mut cases: u32 = 50;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => cases = n,
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            match run_smoke(cases) {
                Ok(()) => {
                    println!("relcheck smoke: all oracle properties held ({cases} cases each)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("relcheck smoke: {e}");
                    ExitCode::from(3)
                }
            }
        }
        Some("replay") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let loaded = match load_any(Path::new(path)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("relcheck replay: {e}");
                    return ExitCode::from(1);
                }
            };
            let result = match &loaded {
                LoadedCase::Repro(case) => {
                    println!(
                        "replaying {} (seed {:#x}, trial {}, group {}): {}",
                        case.case, case.seed, case.trial, case.group, case.reason
                    );
                    replay(case)
                }
                LoadedCase::Fleet(ckpt) => {
                    println!(
                        "replaying fleet checkpoint (seed {:#x}, {} nodes, {} shards, \
                         epoch {}/{})",
                        ckpt.seed, ckpt.nodes, ckpt.shards, ckpt.completed_epochs, ckpt.epochs
                    );
                    replay_fleet(ckpt)
                }
                LoadedCase::Crash(dump) => {
                    println!(
                        "replaying crash dump of run {:?} ({}) via its embedded checkpoint",
                        dump.run, dump.reason
                    );
                    replay_crash_dump(dump)
                }
            };
            match result {
                Ok(report) => report_verdict(&report),
                Err(e) => {
                    eprintln!("relcheck replay: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Some("thread-matrix") => {
            let mut trials: u64 = 4000;
            let mut seed: u64 = 0x1A7E;
            let mut out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--trials" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => trials = n,
                        None => return usage(),
                    },
                    "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(s) => seed = s,
                        None => return usage(),
                    },
                    "--out" => match it.next() {
                        Some(p) => out = Some(p.clone()),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let verdict = run_thread_matrix(trials, seed);
            let json = verdict.to_json().to_pretty();
            if let Some(path) = out {
                let path = Path::new(&path);
                if let Some(dir) = path.parent() {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("relcheck thread-matrix: creating {}: {e}", dir.display());
                        return ExitCode::from(1);
                    }
                }
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("relcheck thread-matrix: writing {}: {e}", path.display());
                    return ExitCode::from(1);
                }
                println!(
                    "relcheck thread-matrix: verdict written to {}",
                    path.display()
                );
            } else {
                println!("{json}");
            }
            for c in &verdict.cells {
                println!("  {} thread(s): {:016x}", c.threads, c.digest);
            }
            if verdict.pass {
                println!(
                    "relcheck thread-matrix: {} cells bit-identical over {} trials",
                    verdict.cells.len(),
                    trials
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("relcheck thread-matrix: thread counts DIVERGED (see digests above)");
                ExitCode::from(3)
            }
        }
        _ => usage(),
    }
}

fn report_verdict(report: &ReplayReport) -> ExitCode {
    for (label, out) in &report.outcomes {
        println!("  arm {label}: {out:?}");
    }
    for f in &report.failures {
        println!("  failure: {f}");
    }
    if report.reproduced {
        println!("reproduced: yes");
        ExitCode::SUCCESS
    } else {
        println!("reproduced: NO (recorded failure did not recur)");
        ExitCode::from(2)
    }
}
