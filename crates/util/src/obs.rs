//! Observability: metrics, span timing, and run manifests.
//!
//! The Monte Carlo engine and the performance simulator run for minutes
//! across threads; this module is the zero-dependency substrate that makes
//! those runs inspectable without making them slower or nondeterministic:
//!
//! * **Metrics** — a process-wide registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-linear [`Histogram`]s (p50/p95/p99/max) updated
//!   with relaxed atomics. Sums commute, so metrics stay exact under any
//!   thread schedule.
//! * **Span timing** — [`Histogram::start_span`] returns an RAII timer
//!   that records elapsed nanoseconds on drop, feeding the same
//!   percentile machinery the bench harness in [`crate::timing`] prints.
//! * **Sinks** — [`snapshot`]/[`write_snapshot`] for machines (via
//!   [`crate::json`], written under `results/obs/<run>.json`).
//! * **Run manifests** — every snapshot embeds a [`Manifest`] (git SHA,
//!   cargo profile, thread count, RNG seeds, scenario config hash,
//!   wall-clock from an injectable clock), so any two runs can be compared
//!   long after the processes that produced them are gone (the `obs_diff`
//!   reporter and the [`crate::history`] ledger consume exactly this
//!   metadata).
//!   Simulators publish their parameters through [`note_run_context`];
//!   bench harnesses publish medians through [`record_bench`].
//!
//! # Gating and cost when disabled
//!
//! Everything is off by default. `RF_OBS=on` enables metrics; `RF_OBS=off`
//! is a kill switch that wins over everything, including programmatic
//! enables ([`set_force_off`] is the `--quiet` flag's hook). The disabled
//! paths compile down to one relaxed atomic load and a branch — the
//! `node_eval` bench guards that this taxes the hot loop by well under 1%.
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::obs;
//!
//! let _serial = obs::exclusive(); // tests share the process-wide registry
//! obs::reset();
//! obs::set_metrics_enabled(true);
//!
//! let faults = obs::counter("demo.faults");
//! faults.add(3);
//! assert_eq!(faults.get(), 3);
//! let snap = obs::snapshot();
//! let counters = snap.get("counters").expect("counters section");
//! assert_eq!(counters.get("demo.faults").and_then(|v| v.as_f64()), Some(3.0));
//! obs::set_metrics_enabled(false);
//! obs::reset();
//! ```

use crate::json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Schema marker shared by every machine-readable artifact this workspace
/// emits (metrics snapshots, the bench tables' JSON mirrors, the run
/// registry, and obs_diff verdicts), so downstream tooling can evolve all
/// of them in lockstep. Version 2 added the embedded [`Manifest`] and the
/// `benches` snapshot section.
pub const SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistInner>),
}

struct Global {
    /// Kill switch (`RF_OBS=off` / `--quiet`): wins over everything.
    force_off: AtomicBool,
    /// Fast metrics gate.
    metrics_on: AtomicBool,
    /// Whether metrics were requested (survives force-off toggles).
    metrics_wanted: AtomicBool,
    metrics: Mutex<Vec<(String, Metric)>>,
    /// Simulator-published run parameters folded into the [`Manifest`].
    run_ctx: Mutex<RunContext>,
    /// Bench medians published by `timing::Harness` for the snapshot.
    benches: Mutex<Vec<BenchRecord>>,
    /// Injected wall clock (tests pin it; `None` = `SystemTime::now`).
    clock_ms: Mutex<Option<fn() -> u64>>,
    /// Serializes tests that reconfigure the process-wide state.
    test_lock: Mutex<()>,
}

#[derive(Default)]
struct RunContext {
    seeds: Vec<u64>,
    threads: u64,
    config_hash: u64,
    sim_runs: u64,
    epochs: u64,
    shards: u64,
}

impl Global {
    fn recompute_gates(&self) {
        let on =
            !self.force_off.load(Ordering::Relaxed) && self.metrics_wanted.load(Ordering::Relaxed);
        self.metrics_on.store(on, Ordering::Relaxed);
    }
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let force_off = std::env::var("RF_OBS")
            .map(|v| matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false"))
            .unwrap_or(false);
        let metrics_wanted = std::env::var("RF_OBS")
            .map(|v| matches!(v.to_ascii_lowercase().as_str(), "on" | "1" | "true"))
            .unwrap_or(false);
        let g = Global {
            force_off: AtomicBool::new(force_off),
            metrics_on: AtomicBool::new(false),
            metrics_wanted: AtomicBool::new(metrics_wanted),
            metrics: Mutex::new(Vec::new()),
            run_ctx: Mutex::new(RunContext::default()),
            benches: Mutex::new(Vec::new()),
            clock_ms: Mutex::new(None),
            test_lock: Mutex::new(()),
        };
        g.recompute_gates();
        g
    })
}

/// Whether metric updates are currently recorded.
#[inline]
pub fn metrics_enabled() -> bool {
    global().metrics_on.load(Ordering::Relaxed)
}

/// Requests (or drops) metrics collection.
pub fn set_metrics_enabled(on: bool) {
    let g = global();
    g.metrics_wanted.store(on, Ordering::Relaxed);
    g.recompute_gates();
}

/// The kill switch behind `RF_OBS=off` and the bench binaries' `--quiet`:
/// while set, metrics are off regardless of other enables.
pub fn set_force_off(off: bool) {
    let g = global();
    g.force_off.store(off, Ordering::Relaxed);
    g.recompute_gates();
}

/// Whether the kill switch is currently set (see [`set_force_off`]).
/// The bench harness consults this before installing crash-dump hooks so
/// `--quiet` runs stay artifact-free.
pub fn is_force_off() -> bool {
    global().force_off.load(Ordering::Relaxed)
}

/// Serializes tests that reconfigure the process-wide registry. Production
/// code never needs this; concurrent metric updates are always safe.
pub fn exclusive() -> MutexGuard<'static, ()> {
    global()
        .test_lock
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing named count.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A named last-write-wins value.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the value (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if metrics_enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

const HIST_BUCKETS: usize = 256;
/// Values below this are bucketed exactly.
const HIST_LINEAR_MAX: u64 = 16;

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// Returns the log-linear bucket index of `v`: exact below
/// [`HIST_LINEAR_MAX`], then four sub-buckets per power of two (≤ 25%
/// relative quantization error).
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_LINEAR_MAX {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (e - 2)) & 3) as usize;
    16 + (e - 4) * 4 + sub
}

/// The smallest value mapping to bucket `idx` (the percentile estimate).
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < HIST_LINEAR_MAX as usize {
        return idx as u64;
    }
    let o = idx - 16;
    let e = o / 4 + 4;
    let s = (o % 4) as u64;
    (1u64 << e) + (s << (e - 2))
}

/// A named log-linear histogram with percentile summaries.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// Records one value (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let h = &self.inner;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not quantized).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`p` in 0..=100), reported as the floor of
    /// the bucket holding that rank; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.inner.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_floor(idx);
            }
        }
        self.max()
    }

    /// Starts an RAII timer that records elapsed nanoseconds into this
    /// histogram on drop. Free (no clock read) while metrics are
    /// disabled: the gate is one relaxed load.
    #[inline]
    pub fn start_span(&self) -> SpanTimer {
        SpanTimer {
            hist: metrics_enabled().then(|| (self.clone(), Instant::now())),
        }
    }
}

/// Scoped timer from [`Histogram::start_span`] / [`span`].
pub struct SpanTimer {
    hist: Option<(Histogram, Instant)>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.hist.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

fn with_registry<T>(
    name: &str,
    make: impl FnOnce() -> Metric,
    pick: impl Fn(&Metric) -> Option<T>,
) -> T {
    let mut metrics = global().metrics.lock().expect("metrics registry");
    if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
        return pick(m)
            .unwrap_or_else(|| panic!("metric `{name}` already registered with another type"));
    }
    let m = make();
    let out = pick(&m).expect("freshly made metric matches its own kind");
    metrics.push((name.to_string(), m));
    out
}

/// Gets or creates the counter `name`. Call sites on hot paths should
/// cache the returned handle (it is a cheap [`Arc`] clone).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn counter(name: &str) -> Counter {
    with_registry(
        name,
        || Metric::Counter(Arc::new(AtomicU64::new(0))),
        |m| match m {
            Metric::Counter(c) => Some(Counter { cell: c.clone() }),
            _ => None,
        },
    )
}

/// Gets or creates the gauge `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn gauge(name: &str) -> Gauge {
    with_registry(
        name,
        || Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        |m| match m {
            Metric::Gauge(g) => Some(Gauge { bits: g.clone() }),
            _ => None,
        },
    )
}

/// Gets or creates the histogram `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &str) -> Histogram {
    with_registry(
        name,
        || {
            Metric::Histogram(Arc::new(HistInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            }))
        },
        |m| match m {
            Metric::Histogram(h) => Some(Histogram { inner: h.clone() }),
            _ => None,
        },
    )
}

/// Starts a span timer on the histogram `name` (see
/// [`Histogram::start_span`]; hot paths should cache the histogram).
pub fn span(name: &str) -> SpanTimer {
    histogram(name).start_span()
}

// ---------------------------------------------------------------------------
// Run manifests and cross-run context
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string: the workspace's stable config-hash function
/// (manifests record it so two runs can be checked for comparability).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Publishes one simulator run's parameters into the process manifest:
/// the RNG seed, worker thread count, and a hash of the scenario/machine
/// configuration. Call once per run, before or after the work — the
/// manifest accumulates every distinct seed and folds config hashes in
/// call order (the instrumented binaries invoke simulators serially).
pub fn note_run_context(seed: u64, threads: u64, config_hash: u64) {
    let mut ctx = global().run_ctx.lock().expect("run context");
    if !ctx.seeds.contains(&seed) {
        ctx.seeds.push(seed);
    }
    ctx.threads = ctx.threads.max(threads);
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&ctx.config_hash.to_le_bytes());
    bytes[8..].copy_from_slice(&config_hash.to_le_bytes());
    ctx.config_hash = fnv1a(&bytes);
    ctx.sim_runs += 1;
}

/// Publishes a fleet simulation's shape into the process manifest: how
/// many lifetime epochs it stepped through and how many shards the node
/// population was partitioned into. Runs-index entries embed the
/// manifest, so registered fleet runs record both counts. Repeated calls
/// keep the maximum (the instrumented binaries run fleets serially).
pub fn note_fleet_context(epochs: u64, shards: u64) {
    let mut ctx = global().run_ctx.lock().expect("run context");
    ctx.epochs = ctx.epochs.max(epochs);
    ctx.shards = ctx.shards.max(shards);
}

/// Installs (or with `None`, removes) an injected wall clock for
/// [`Manifest::collect`]. Tests pin it so manifests are reproducible.
pub fn set_clock_ms(clock: Option<fn() -> u64>) {
    *global().clock_ms.lock().expect("clock") = clock;
}

/// Milliseconds since the Unix epoch, from the injected clock if one is
/// installed (see [`set_clock_ms`]).
pub fn now_ms() -> u64 {
    let injected = *global().clock_ms.lock().expect("clock");
    match injected {
        Some(f) => f(),
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    }
}

/// The commit this binary was built from: `RF_GIT_SHA` if set, otherwise
/// resolved by walking up from the working directory to a `.git/HEAD`
/// (plain file reads — no `git` subprocess), `"unknown"` when neither
/// works.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("RF_GIT_SHA") {
        return sha.trim().to_string();
    }
    let mut dir = match std::env::current_dir() {
        Ok(d) => d,
        Err(_) => return "unknown".into(),
    };
    for _ in 0..6 {
        let head = dir.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let Some(reference) = text.strip_prefix("ref: ") else {
                return text.to_string(); // detached HEAD: the SHA itself
            };
            if let Ok(sha) = std::fs::read_to_string(dir.join(".git").join(reference)) {
                return sha.trim().to_string();
            }
            // Ref may only exist packed.
            if let Ok(packed) = std::fs::read_to_string(dir.join(".git/packed-refs")) {
                for line in packed.lines() {
                    if let Some(sha) = line.strip_suffix(reference) {
                        return sha.trim().to_string();
                    }
                }
            }
            return "unknown".into();
        }
        if !dir.pop() {
            break;
        }
    }
    "unknown".into()
}

/// What produced a snapshot: enough metadata to decide whether two runs
/// are comparable (same config and seeds) and to trace a result back to a
/// commit. Embedded in every snapshot and appended to the run registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Run name (the snapshot's file stem).
    pub run: String,
    /// Commit SHA the binary was built from (`"unknown"` if unresolvable).
    pub git_sha: String,
    /// Cargo profile: `"release"` or `"debug"`.
    pub profile: &'static str,
    /// Worker threads the simulators used (0 when none ran).
    pub threads: u64,
    /// Every distinct RNG seed the simulators were given, in first-use order.
    pub seeds: Vec<u64>,
    /// Order-sensitive FNV-1a fold of every simulator configuration.
    pub config_hash: u64,
    /// How many simulator runs contributed to this snapshot.
    pub sim_runs: u64,
    /// Lifetime epochs a fleet simulation stepped through (0 when none
    /// ran); see [`note_fleet_context`].
    pub epochs: u64,
    /// Shards the fleet population was partitioned into (0 when no fleet
    /// ran); see [`note_fleet_context`].
    pub shards: u64,
    /// Wall-clock milliseconds since the epoch, from [`now_ms`].
    pub wall_clock_ms: u64,
}

impl Manifest {
    /// Gathers the manifest for the current process state.
    pub fn collect(run: &str) -> Manifest {
        let ctx = global().run_ctx.lock().expect("run context");
        Manifest {
            run: run.to_string(),
            git_sha: git_sha(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            threads: ctx.threads,
            seeds: ctx.seeds.clone(),
            config_hash: ctx.config_hash,
            sim_runs: ctx.sim_runs,
            epochs: ctx.epochs,
            shards: ctx.shards,
            wall_clock_ms: now_ms(),
        }
    }

    /// JSON form. `config_hash` is emitted as a 16-digit hex string — JSON
    /// numbers are doubles and would silently round a 64-bit hash.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("run", Value::from(self.run.as_str())),
            ("git_sha", Value::from(self.git_sha.as_str())),
            ("profile", Value::from(self.profile)),
            ("threads", Value::from(self.threads)),
            (
                "seeds",
                Value::Array(self.seeds.iter().map(|&s| Value::from(s)).collect()),
            ),
            (
                "config_hash",
                Value::from(format!("{:016x}", self.config_hash)),
            ),
            ("sim_runs", Value::from(self.sim_runs)),
            ("epochs", Value::from(self.epochs)),
            ("shards", Value::from(self.shards)),
            ("wall_clock_ms", Value::from(self.wall_clock_ms)),
        ])
    }
}

/// One benchmark outcome published by `timing::Harness` (see
/// [`record_bench`]): the snapshot keeps the raw per-batch samples so
/// `obs_diff` can put a confidence interval on the median.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration across batches.
    pub median_ns: f64,
    /// Iterations per batch after calibration.
    pub iters: u64,
    /// Per-batch nanoseconds per iteration, sorted ascending.
    pub batch_ns: Vec<f64>,
}

/// Publishes a bench median (plus its batch samples) into the snapshot's
/// `benches` section. No-op while metrics are disabled. A repeated name
/// replaces the earlier record.
pub fn record_bench(name: &str, median_ns: f64, iters: u64, batch_ns: &[f64]) {
    if !metrics_enabled() {
        return;
    }
    let mut benches = global().benches.lock().expect("bench records");
    let record = BenchRecord {
        name: name.to_string(),
        median_ns,
        iters,
        batch_ns: batch_ns.to_vec(),
    };
    if let Some(slot) = benches.iter_mut().find(|b| b.name == name) {
        *slot = record;
    } else {
        benches.push(record);
    }
}

/// Every bench record published so far, in publication order.
pub fn bench_records() -> Vec<BenchRecord> {
    global().benches.lock().expect("bench records").clone()
}

// ---------------------------------------------------------------------------
// Snapshot sink
// ---------------------------------------------------------------------------

/// A machine-readable snapshot of every registered metric, ordered by
/// name so emitted files diff cleanly:
///
/// ```json
/// {"schema_version": 2, "manifest": {...}, "counters": {...},
///  "gauges": {...},
///  "histograms": {"relsim.trial_ns": {"count":…, "p50":…, …}},
///  "benches": {"node_eval": {"median_ns":…, "iters":…, "batch_ns":[…]}}}
/// ```
pub fn snapshot() -> Value {
    snapshot_for_run("")
}

fn snapshot_for_run(run: &str) -> Value {
    let g = global();
    let metrics = g.metrics.lock().expect("metrics registry");
    let mut counters: Vec<(String, Value)> = Vec::new();
    let mut gauges: Vec<(String, Value)> = Vec::new();
    let mut hists: Vec<(String, Value)> = Vec::new();
    for (name, m) in metrics.iter() {
        match m {
            Metric::Counter(c) => {
                counters.push((name.clone(), Value::from(c.load(Ordering::Relaxed))));
            }
            Metric::Gauge(bits) => {
                gauges.push((
                    name.clone(),
                    Value::from(f64::from_bits(bits.load(Ordering::Relaxed))),
                ));
            }
            Metric::Histogram(h) => {
                let hist = Histogram { inner: h.clone() };
                let count = hist.count();
                let mean = if count == 0 {
                    0.0
                } else {
                    hist.sum() as f64 / count as f64
                };
                hists.push((
                    name.clone(),
                    Value::object([
                        ("count", Value::from(count)),
                        ("sum", Value::from(hist.sum())),
                        ("mean", Value::from(mean)),
                        ("p50", Value::from(hist.percentile(50.0))),
                        ("p95", Value::from(hist.percentile(95.0))),
                        ("p99", Value::from(hist.percentile(99.0))),
                        ("max", Value::from(hist.max())),
                    ]),
                ));
            }
        }
    }
    drop(metrics);
    for list in [&mut counters, &mut gauges, &mut hists] {
        list.sort_by(|(a, _), (b, _)| a.cmp(b));
    }
    let mut benches: Vec<(String, Value)> = bench_records()
        .into_iter()
        .map(|b| {
            (
                b.name,
                Value::object([
                    ("median_ns", Value::from(b.median_ns)),
                    ("iters", Value::from(b.iters)),
                    (
                        "batch_ns",
                        Value::Array(b.batch_ns.iter().map(|&ns| Value::from(ns)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    benches.sort_by(|(a, _), (b, _)| a.cmp(b));
    Value::object([
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("manifest", Manifest::collect(run).to_json()),
        ("counters", Value::Object(counters)),
        ("gauges", Value::Object(gauges)),
        ("histograms", Value::Object(hists)),
        ("benches", Value::Object(benches)),
    ])
}

/// The artifact root every sink writes under: `RF_RESULTS_DIR` if set,
/// otherwise `results`.
pub fn results_dir() -> String {
    std::env::var("RF_RESULTS_DIR").unwrap_or_else(|_| "results".into())
}

fn io_context(what: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Checks a run name for use as a file stem: non-empty, only
/// `[A-Za-z0-9._-]`, no path separators, no leading `.`, no `..`.
///
/// # Errors
///
/// Returns a message naming the offending run name and rule.
pub fn validate_run_name(run: &str) -> Result<(), String> {
    if run.is_empty() {
        return Err("run name is empty".into());
    }
    if run.starts_with('.') || run.contains("..") {
        return Err(format!(
            "run name `{run}` must not start with `.` or contain `..`"
        ));
    }
    if let Some(c) = run
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "run name `{run}` contains `{c}`; only [A-Za-z0-9._-] are allowed"
        ));
    }
    Ok(())
}

/// Writes [`snapshot`] (with `run` recorded in its [`Manifest`]) to
/// `<RF_RESULTS_DIR|results>/obs/<run>.json`, returning the snapshot path.
///
/// # Errors
///
/// Rejects run names that fail [`validate_run_name`] with
/// [`std::io::ErrorKind::InvalidInput`]; directory-creation and file-write
/// failures are returned with the failing path in the message.
pub fn write_snapshot(run: &str) -> std::io::Result<String> {
    validate_run_name(run)
        .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
    let dir = format!("{}/obs", results_dir());
    std::fs::create_dir_all(&dir).map_err(|e| io_context("creating snapshot dir", e))?;
    let path = format!("{dir}/{run}.json");
    std::fs::write(&path, snapshot_for_run(run).to_pretty())
        .map_err(|e| io_context(&format!("writing snapshot {path}"), e))?;
    Ok(path)
}

/// Zeroes every metric and clears the run context and bench records.
/// Metric handles cached by call sites stay valid (identities are
/// preserved; only values reset).
pub fn reset() {
    let g = global();
    {
        let metrics = g.metrics.lock().expect("metrics registry");
        for (_, m) in metrics.iter() {
            match m {
                Metric::Counter(c) => c.store(0, Ordering::Relaxed),
                Metric::Gauge(b) => b.store(0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => {
                    h.count.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                    h.max.store(0, Ordering::Relaxed);
                    for b in h.buckets.iter() {
                        b.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    *g.run_ctx.lock().expect("run context") = RunContext::default();
    g.benches.lock().expect("bench records").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{self};
    use crate::prop_assert;

    /// Restores a dark registry when dropped, so tests compose.
    struct Dark;
    impl Drop for Dark {
        fn drop(&mut self) {
            set_metrics_enabled(false);
            set_force_off(false);
            reset();
        }
    }

    #[test]
    fn histogram_buckets_known_answers() {
        // Exact linear region.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
        // Boundaries of the log-linear region.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_floor(16), 16);
        assert_eq!(bucket_index(20), 17);
        assert_eq!(bucket_floor(17), 20);
        assert_eq!(bucket_index(31), 19);
        assert_eq!(bucket_floor(19), 28);
        assert_eq!(bucket_index(63), 23);
        assert_eq!(bucket_floor(23), 56);
        assert_eq!(bucket_index(1000), 39);
        assert_eq!(bucket_floor(39), 896);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_bucket_floor_brackets_every_value() {
        prop::check(256, |src| {
            let v = src.u64(0, u64::MAX);
            let idx = bucket_index(v);
            prop_assert!(idx < HIST_BUCKETS);
            prop_assert!(bucket_floor(idx) <= v, "floor below value");
            if idx + 1 < HIST_BUCKETS {
                prop_assert!(bucket_floor(idx + 1) > v, "next floor above value");
            }
            Ok(())
        });
    }

    #[test]
    fn histogram_percentiles_known_answers() {
        let _x = exclusive();
        let _dark = Dark;
        set_metrics_enabled(true);
        let h = histogram("test.kat_hist");
        // 1..=10 all land in exact buckets: percentiles are exact.
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(10.0), 1);
        assert_eq!(h.percentile(95.0), 10);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.max(), 10);
        // A large outlier is quantized down to its bucket floor; max is exact.
        h.record(1000);
        assert_eq!(h.percentile(100.0), 896);
        assert_eq!(h.max(), 1000);
        // Nearest-rank p50 of 11 values is the 6th smallest.
        assert_eq!(h.percentile(50.0), 6);
    }

    #[test]
    fn histogram_empty_and_extreme_percentiles() {
        let _x = exclusive();
        let _dark = Dark;
        set_metrics_enabled(true);
        let h = histogram("test.edge_hist");
        // Empty histogram: every percentile (including the endpoints) is 0.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), 0);
        }
        assert_eq!(h.max(), 0);
        // p=0.0 clamps to rank 1 (smallest); p=100.0 to rank count.
        h.record(7);
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.percentile(100.0), 7);
        h.record(3);
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(100.0), 7);
        // Saturation: u64::MAX lands in the final bucket; the percentile
        // reports that bucket's floor while max stays exact.
        h.record(u64::MAX);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(h.percentile(100.0), bucket_floor(HIST_BUCKETS - 1));
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries_are_consistent() {
        // Every bucket's floor maps back to the same bucket, including the
        // linear/log seam at 15/16 and the saturated final bucket.
        for idx in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx, "bucket {idx}");
        }
        // The seam itself: 15 is the last exact value, 16 the first
        // log-linear one.
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_floor(bucket_index(17)), 16);
    }

    #[test]
    fn run_names_are_sanitized() {
        for bad in ["", "a/b", "..", "a..b", ".hidden", "a\\b", "a b", "a\nb"] {
            let err = validate_run_name(bad).expect_err(bad);
            assert!(err.contains("run name"), "unclear error `{err}`");
            let io_err = write_snapshot(bad).expect_err(bad);
            assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidInput);
        }
        for good in ["smoke", "drift_a", "fig10-coverage", "v2.1"] {
            assert_eq!(validate_run_name(good), Ok(()), "{good}");
        }
    }

    #[test]
    fn manifest_uses_injected_clock_and_run_context() {
        let _x = exclusive();
        let _dark = Dark;
        reset();
        set_clock_ms(Some(|| 1_234_567));
        note_run_context(2016, 4, fnv1a(b"scenario-a"));
        note_run_context(2016, 8, fnv1a(b"scenario-b"));
        note_run_context(99, 2, fnv1a(b"scenario-a"));
        let m = Manifest::collect("demo");
        assert_eq!(m.run, "demo");
        assert_eq!(m.wall_clock_ms, 1_234_567);
        assert_eq!(m.seeds, vec![2016, 99], "distinct seeds in first-use order");
        assert_eq!(m.threads, 8, "max thread count wins");
        assert_eq!(m.sim_runs, 3);
        assert!(!cfg!(debug_assertions) || m.profile == "debug");
        // Same calls in the same order reproduce the same config hash.
        let hash = m.config_hash;
        reset();
        note_run_context(2016, 4, fnv1a(b"scenario-a"));
        note_run_context(2016, 8, fnv1a(b"scenario-b"));
        note_run_context(99, 2, fnv1a(b"scenario-a"));
        assert_eq!(Manifest::collect("demo").config_hash, hash);
        // And a different config stream does not.
        reset();
        note_run_context(2016, 4, fnv1a(b"scenario-b"));
        assert_ne!(Manifest::collect("demo").config_hash, hash);
        // JSON form parses and keeps the hash exact via the hex string.
        let json = m.to_json();
        let parsed = Value::parse(&json.to_pretty()).expect("manifest JSON parses");
        assert_eq!(
            parsed.get("config_hash").and_then(Value::as_str),
            Some(format!("{hash:016x}").as_str())
        );
        set_clock_ms(None);
    }

    #[test]
    fn write_snapshot_embeds_manifest() {
        let _x = exclusive();
        let _dark = Dark;
        reset();
        set_metrics_enabled(true);
        set_clock_ms(Some(|| 42));
        let dir = std::env::temp_dir().join(format!("rf_obs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prev = std::env::var("RF_RESULTS_DIR").ok();
        std::env::set_var("RF_RESULTS_DIR", &dir);
        let restore = |prev: &Option<String>| match prev {
            Some(v) => std::env::set_var("RF_RESULTS_DIR", v),
            None => std::env::remove_var("RF_RESULTS_DIR"),
        };

        counter("test.registry_counter").add(5);
        note_run_context(7, 2, 0xDEAD);
        let path = write_snapshot("reg_a").expect("snapshot");
        assert_eq!(path, format!("{}/obs/reg_a.json", dir.display()));
        let snap = Value::parse(&std::fs::read_to_string(&path).expect("readable"))
            .expect("snapshot parses");
        let manifest = snap.get("manifest").expect("manifest embedded");
        assert_eq!(manifest.get("run").and_then(Value::as_str), Some("reg_a"));
        assert_eq!(
            manifest.get("wall_clock_ms").and_then(Value::as_f64),
            Some(42.0)
        );
        assert!(snap.get("benches").is_some(), "benches section present");

        restore(&prev);
        set_clock_ms(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_records_land_in_snapshot() {
        let _x = exclusive();
        let _dark = Dark;
        reset();
        set_metrics_enabled(true);
        record_bench("test.bench", 120.0, 1000, &[110.0, 120.0, 130.0]);
        record_bench("test.bench", 125.0, 1000, &[115.0, 125.0, 135.0]);
        let snap = snapshot();
        let b = snap
            .get("benches")
            .and_then(|b| b.get("test.bench"))
            .expect("bench record in snapshot");
        assert_eq!(b.get("median_ns").and_then(Value::as_f64), Some(125.0));
        assert_eq!(
            b.get("batch_ns")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(3),
            "latest record replaces the earlier one"
        );
        // Disabled metrics drop records.
        set_metrics_enabled(false);
        reset();
        record_bench("test.bench2", 1.0, 1, &[1.0]);
        assert!(bench_records().is_empty());
    }

    #[test]
    fn fnv1a_known_answers() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn counters_are_exact_under_thread_sharding() {
        let _x = exclusive();
        let _dark = Dark;
        set_metrics_enabled(true);
        let c = counter("test.sharded");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        // Same name returns the same cell.
        assert_eq!(counter("test.sharded").get(), 80_000);
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let _x = exclusive();
        let _dark = Dark;
        set_metrics_enabled(false);
        let c = counter("test.disabled");
        let h = histogram("test.disabled_hist");
        c.add(5);
        h.record(7);
        {
            let _t = h.start_span();
        }
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        // Force-off wins over explicit enables.
        set_metrics_enabled(true);
        set_force_off(true);
        c.add(5);
        assert_eq!(c.get(), 0);
        assert!(!metrics_enabled());
    }

    #[test]
    fn snapshot_roundtrips_through_strict_parser() {
        let _x = exclusive();
        let _dark = Dark;
        set_metrics_enabled(true);
        counter("test.snap_counter").add(42);
        gauge("test.snap_gauge").set(2.5);
        let h = histogram("test.snap_hist");
        h.record(3);
        h.record(9);
        let snap = snapshot();
        let parsed = Value::parse(&snap.to_pretty()).expect("snapshot is valid JSON");
        assert_eq!(parsed, snap);
        assert_eq!(
            parsed.get("schema_version").and_then(Value::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        let counters = parsed.get("counters").expect("counters key");
        assert_eq!(
            counters.get("test.snap_counter").and_then(Value::as_f64),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("test.snap_gauge"))
                .and_then(Value::as_f64),
            Some(2.5)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("test.snap_hist"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(hist.get("max").and_then(Value::as_f64), Some(9.0));
        assert_eq!(hist.get("p50").and_then(Value::as_f64), Some(3.0));
        // reset() zeroes values but keeps cached handles wired up.
        let c = counter("test.snap_counter");
        reset();
        assert_eq!(c.get(), 0);
        c.add(7);
        assert_eq!(counter("test.snap_counter").get(), 7);
    }
}
