//! The benchmark's command line. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own so that peak memory is per workload. With one, the last stdout
//! line is the JSON summary; result files go to `benchmark/out/`.

use relaxfault_benchmark::compare::{compare, load_runs, Verdict};
use relaxfault_benchmark::run::{final_line, measure, measure_traced, result_doc, Options};
use relaxfault_benchmark::spec::{self, BenchSpec};
use relaxfault_benchmark::workloads::{Scale, Workload, THREADS};
use relaxfault_benchmark::{guard, RESULT_KIND};
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::parse_hex;
use std::path::Path;
use std::process::Command;

/// The default seed, the one `expected.json` holds digests for.
const DEFAULT_SEED: u64 = 2016;

const USAGE: &str = "usage: relaxfault-benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]]\n       relaxfault-benchmark compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workload = Some(Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be a non-negative number, not {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|v| v == "1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The committed digest of `w`, if `expected.json` holds digests for
/// `seed`.
fn expected_digest(w: Workload, seed: u64) -> Result<Option<u64>, String> {
    let path = "benchmark/expected.json";
    let doc = Value::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("seed").and_then(Value::as_f64) != Some(seed as f64) {
        return Ok(None);
    }
    doc.get("digests")
        .and_then(|d| d.get(w.name()))
        .and_then(parse_hex)
        .map(Some)
        .ok_or(format!("{path}: no digest for {}", w.name()))
}

fn run_one(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spec: &BenchSpec,
) -> Result<i32, String> {
    let out_dir = Path::new("benchmark/out");
    let opts = Options {
        workload: w,
        seed,
        seconds,
        scale: Scale::FULL,
        threads: THREADS,
        scratch: out_dir.join(format!("ckpt-{}-{}", w.name(), std::process::id())),
        expected: expected_digest(w, seed)?,
    };
    let started = obs::now_ms();
    let (out, tracer) = if traced {
        measure_traced(&opts)
    } else {
        (measure(&opts), None)
    };

    let mode = if traced { "trace" } else { "e2e" };
    println!("# {} seed {seed} ({mode})", w.name());
    for s in &out.series {
        let min = s.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{} {} {}  (median of {}, min {min}, max {max})",
            s.name,
            s.median(),
            s.unit,
            s.samples.len()
        );
    }
    if let Some(d) = out.digest {
        println!("digest {d:#018x}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let file = out_dir.join(format!("{}-seed{seed}-{mode}-{started}.json", w.name()));
    std::fs::write(&file, result_doc(&opts, traced, &out, started).to_pretty())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    if let Some(tracer) = tracer {
        tracer.write_csv(&out_dir.join(format!("{}.spans.csv", w.name())))?;
    }
    println!("{}", final_line(spec, traced, &out)?);
    Ok(if out.correct() { 0 } else { 1 })
}

/// Runs every workload, each in its own child process.
fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut code = 0;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        if !status.success() {
            eprintln!("{} failed: {status}", w.name());
            code = 1;
        }
    }
    Ok(code)
}

fn compare_cmd(args: &[String], spec: &BenchSpec) -> Result<i32, String> {
    let [parent, child] = args else {
        return Err(USAGE.into());
    };
    let rows = compare(
        &load_runs(Path::new(parent))?,
        &load_runs(Path::new(child))?,
        spec,
    );
    if rows.is_empty() {
        return Err(format!(
            "no {RESULT_KIND} files of untraced runs in {parent}"
        ));
    }
    for r in &rows {
        println!(
            "{:<16} {:<18} {:<10} {}",
            r.workload,
            r.metric,
            r.verdict.label(),
            r.detail
        );
    }
    Ok(i32::from(
        rows.iter().any(|r| r.verdict == Verdict::Regressed),
    ))
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root: benchmark/Cargo.toml not found".into());
    }
    let spec = spec::parse(&read("BENCHMARK.json")?)?;
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..], &spec);
    }
    guard::check_profiles(&read("Cargo.toml")?, &read("benchmark/Cargo.toml")?)?;
    // Timings must not depend on RF_OBS / RF_TRACE in the environment.
    obs::set_force_off(true);
    let a = parse_args(&args)?;
    let seconds = a.seconds.unwrap_or(spec.run_seconds);
    match a.workload {
        Some(w) => run_one(w, a.seed, seconds, a.trace, &spec),
        None => run_all(a.seed, seconds, a.trace),
    }
}

fn main() {
    std::process::exit(match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    });
}
