//! Runs one workload for a number of seconds, checks every repetition's
//! output, and summarises the measurements.

use crate::calibrate::{Calibrator, BUFFER_BYTES, REFERENCE_S};
use crate::replay::trace;
use crate::spans::Tracer;
use crate::spec::BenchSpec;
use crate::stats::median;
use crate::workloads::{run_rep, Scale, Workload};
use crate::{Metric, RESULT_KIND};
use relaxfault_util::json::Value;
use relaxfault_util::persist::hex;
use std::path::PathBuf;
use std::time::Instant;

/// Timed repetitions made even when the time budget runs out first.
pub const MIN_TIMED: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Work per repetition.
    pub scale: Scale,
    /// Worker threads of the timed repetitions.
    pub threads: usize,
    /// Scratch directory for checkpoints.
    pub scratch: PathBuf,
    /// The committed digest this seed and scale must reproduce, if any.
    pub expected: Option<u64>,
}

/// All samples of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// One value per repetition.
    pub samples: Vec<f64>,
}

impl Series {
    /// Median of the samples.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// The result of measuring one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions run, the warm-up included.
    pub attempted: u64,
    /// Repetitions whose output failed a check.
    pub failed: u64,
    /// Why each failed repetition failed.
    pub errors: Vec<String>,
    /// Digest of the first repetition's output.
    pub digest: Option<u64>,
    /// Measurements, one sample per successful repetition.
    pub series: Vec<Series>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// Appends one sample of each metric, creating series as needed.
    fn record(&mut self, metrics: impl IntoIterator<Item = Metric>) {
        for m in metrics {
            match self.series.iter_mut().find(|s| s.name == m.name) {
                Some(s) => s.samples.push(m.value),
                None => self.series.push(Series {
                    name: m.name,
                    unit: m.unit,
                    samples: vec![m.value],
                }),
            }
        }
    }

    /// Whether every repetition passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The untimed warm-up, then timed repetitions until `seconds` have
/// passed (at least [`MIN_TIMED`]). Every repetition must reproduce the
/// expected digest when one is given, else the warm-up's.
pub fn measure(o: &Options) -> Outcome {
    let mut out = Outcome::default();
    let rep = |o: &Options| run_rep(o.workload, &o.scale, o.seed, o.threads, &o.scratch);
    out.attempted += 1;
    let mut reference = o.expected;
    match rep(o) {
        Ok(r) => {
            out.digest = Some(r.digest);
            match o.expected {
                Some(want) if want != r.digest => out.fail(format!(
                    "warm-up digest {:#018x} differs from expected.json's {want:#018x}",
                    r.digest
                )),
                _ => reference = Some(r.digest),
            }
        }
        Err(e) => out.fail(format!("warm-up: {e}")),
    }
    // One kernel run per gap between repetitions: a repetition evicts the
    // kernel's buffer, so every run starts cold. Back-to-back runs would
    // find it partly cached and time something else.
    let cal = Calibrator::new();
    let mut kernels = Vec::new();
    let mut reps = Vec::new();
    let start = Instant::now();
    let mut timed = 0;
    while timed < MIN_TIMED || start.elapsed().as_secs_f64() < o.seconds {
        timed += 1;
        out.attempted += 1;
        kernels.push(cal.kernel_s());
        match rep(o) {
            Ok(r) if Some(r.digest) == reference => reps.push(r),
            Ok(r) => out.fail(format!(
                "repetition {timed}: digest {:#018x} differs",
                r.digest
            )),
            Err(e) => out.fail(format!("repetition {timed}: {e}")),
        }
    }
    kernels.push(cal.kernel_s());
    drop(cal);
    // Raw host seconds to calibrated seconds. The host's speed drifts over
    // minutes, so one factor per run, from the median of the kernel runs
    // between repetitions, corrects it without adding per-repetition noise.
    let to_ref = REFERENCE_S / median(&kernels);
    let (throughput, per_item, unit) = o.workload.throughput();
    for r in &reps {
        let raw_rate = r.items / r.work_s;
        let mut sample = vec![
            metric("items_per_s", raw_rate / to_ref, "1/s"),
            metric(throughput, raw_rate / to_ref * per_item, unit),
            metric("setup_s", r.setup_s * to_ref, "s"),
            metric("raw_items_per_s", raw_rate, "1/s"),
            metric("raw_setup_s", r.setup_s, "s"),
        ];
        if let Some(s) = r.resume_s {
            sample.push(metric("resume_s", s * to_ref, "s"));
        }
        if let Some(kb) = r.ckpt_kb {
            sample.push(metric("ckpt_kb", kb, "kB"));
        }
        out.record(sample);
    }
    out.record(
        kernels
            .iter()
            .map(|&k| metric("calibration_kernel_s", k, "s")),
    );
    let heap = crate::heap::peak_bytes().saturating_sub(BUFFER_BYTES);
    let heap_mib = heap as f64 / f64::from(1 << 20);
    out.record([metric("peak_heap_mb", heap_mib, "MiB")]);
    out.record(peak_rss_mib().map(|mb| metric("peak_rss_mb", mb, "MiB")));
    let fail_frac = out.failed as f64 / out.attempted as f64;
    out.record([metric("fail_frac", fail_frac, "frac")]);
    out
}

/// Traced repetitions, single-threaded, until `seconds` have passed (at
/// least one). Each reports every per-layer metric; the summary holds
/// their medians. Returns the last repetition's tracer for its raw spans.
pub fn measure_traced(o: &Options) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let mut last = None;
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < o.seconds {
        out.attempted += 1;
        match trace(o.workload, &o.scale, o.seed, &o.scratch) {
            Ok((metrics, tracer)) => {
                out.record(metrics);
                last = Some(tracer);
            }
            Err(e) => out.fail(format!("traced repetition {}: {e}", out.attempted)),
        }
    }
    (out, last)
}

/// The final stdout line: `correct`, `attempted`, `failed`, and the
/// medians of the metrics `BENCHMARK.json` declares for this kind of run.
/// A declared per-layer metric the workload does not exercise reads 0.
///
/// # Errors
///
/// Fails when a passing run lacks a declared end-to-end metric, or a
/// reported unit disagrees with the declared one.
pub fn final_line(spec: &BenchSpec, traced: bool, out: &Outcome) -> Result<String, String> {
    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in declared {
        let value = match out.series.iter().find(|s| s.name == m.name) {
            Some(s) if s.unit != m.unit => {
                return Err(format!(
                    "{} is reported in {} but declared in {}",
                    m.name, s.unit, m.unit
                ))
            }
            Some(s) => s.median(),
            None if traced || !out.correct() => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        metrics.push((
            m.name.clone(),
            Value::object([("value", value.into()), ("unit", m.unit.as_str().into())]),
        ));
    }
    Ok(Value::object([
        ("correct", out.correct().into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", Value::Object(metrics)),
    ])
    .to_string())
}

/// The result file of one run: provenance, outcome, and every sample.
pub fn result_doc(o: &Options, traced: bool, out: &Outcome, started_ms: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = match (traced, o.workload) {
        (true, _) | (false, Workload::PerfSweep) => 1,
        _ => o.threads,
    };
    let metrics = out
        .series
        .iter()
        .map(|s| {
            let min = s.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let value = Value::object([
                ("value", s.median().into()),
                ("unit", s.unit.into()),
                ("min", min.into()),
                ("max", max.into()),
                ("count", s.samples.len().into()),
                (
                    "samples",
                    Value::Array(s.samples.iter().map(|&v| v.into()).collect()),
                ),
            ]);
            (s.name.clone(), value)
        })
        .collect();
    let scale = &o.scale;
    Value::object([
        ("kind", RESULT_KIND.into()),
        ("schema_version", 1u64.into()),
        ("workload", o.workload.name().into()),
        ("seed", o.seed.into()),
        ("trace", traced.into()),
        ("seconds", o.seconds.into()),
        ("started_unix_ms", started_ms.into()),
        ("git_sha", relaxfault_util::obs::git_sha().into()),
        ("rustc", env!("BENCH_RUSTC_VERSION").into()),
        ("nproc", nproc.into()),
        ("threads", threads.into()),
        (
            "scale",
            Value::object([
                ("trials_1x", scale.trials_1x.into()),
                ("trials_10x", scale.trials_10x.into()),
                ("perf_instructions", scale.perf_instructions.into()),
                ("fleet_nodes", scale.fleet_nodes.into()),
                ("fleet_epochs", u64::from(scale.fleet_epochs).into()),
            ]),
        ),
        ("digest", out.digest.map_or(Value::Null, hex)),
        ("expected_digest", o.expected.map_or(Value::Null, hex)),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("correct", out.correct().into()),
        (
            "errors",
            Value::Array(out.errors.iter().map(|e| e.as_str().into()).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}
