//! Experiment drivers that regenerate every table and figure of the
//! RelaxFault paper's evaluation.
//!
//! Each `fig*`/`table*` binary under `src/bin/` is a thin wrapper around a
//! driver here; all of them accept a first positional argument overriding
//! the Monte Carlo trial count (or instruction count for the performance
//! figures) and honour `RF_RESULTS_DIR` for where to drop a copy of the
//! output.
//!
//! ```bash
//! cargo run --release -p relaxfault-bench --bin fig10_coverage -- 100000
//! ```

use relaxfault_relsim::engine::{fault_population, run_scenarios, RunConfig};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::json::Value;
use relaxfault_util::table::{format_bytes, format_pct, Table};
use relaxfault_util::{crashdump, history, obs};
use std::sync::OnceLock;

pub mod diff;
pub mod perf;
pub mod report;

/// Nodes in the paper's evaluated system.
pub const SYSTEM_NODES: u64 = 16_384;

/// `--run NAME` override captured by [`obs_init`], consulted by [`emit`].
static RUN_OVERRIDE: OnceLock<String> = OnceLock::new();

/// Standard harness arguments parsed by [`obs_init`].
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    work: Option<u64>,
}

impl BenchArgs {
    /// The work amount (trials or instructions): the first positional
    /// numeric argument, or `default` when none was given.
    pub fn work(&self, default: u64) -> u64 {
        self.work.unwrap_or(default)
    }
}

/// Standard harness start-up, called first in every `fig*`/`table*` main:
///
/// * `--quiet`/`-q` (or `RF_OBS=off` in the environment, handled by
///   `util::obs` itself) turns every trace/metric off regardless of
///   `RF_TRACE`;
/// * `--run NAME` (or `--run=NAME`, or `RF_RUN_NAME` in the environment)
///   overrides the run name [`emit`] uses for the obs snapshot and event
///   files — this is how CI writes `drift_a`/`drift_b` from the same
///   binary;
/// * `--lanes scalar|u64|u128` (or `RF_LANES` in the environment) pins the
///   engine's trial-lane mode; the choice is recorded in the run manifest
///   so history series stay comparable per lane configuration. An invalid
///   value, or an override arriving after the mode was already pinned to
///   something else, exits with an error;
/// * a crash-dump panic hook is installed (unless `--quiet`/`RF_OBS=off`),
///   so any panic copies the trace rings and metrics into
///   `<results>/obs/<run>.crashdump.json`;
/// * the first positional numeric argument overrides the work amount
///   (read it back with [`BenchArgs::work`]);
/// * unknown flags (e.g. the `--bench` cargo passes to bench targets) are
///   ignored.
pub fn obs_init() -> BenchArgs {
    let mut parsed = BenchArgs::default();
    let mut run = None;
    let mut lanes_spec: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--quiet" || a == "-q" {
            obs::set_force_off(true);
        } else if a == "--run" {
            run = args.next();
        } else if let Some(r) = a.strip_prefix("--run=") {
            run = Some(r.to_string());
        } else if a == "--lanes" {
            lanes_spec = args.next();
        } else if let Some(l) = a.strip_prefix("--lanes=") {
            lanes_spec = Some(l.to_string());
        } else if parsed.work.is_none() && !a.starts_with('-') {
            parsed.work = a.parse().ok();
        }
    }
    if let Some(r) = run {
        let _ = RUN_OVERRIDE.set(r);
    }
    if let Some(spec) = lanes_spec {
        match relaxfault_util::lanes::LaneMode::parse(&spec) {
            Some(m) => {
                if !relaxfault_util::lanes::set_mode(m) {
                    // The mode pins on first use; a too-late or conflicting
                    // override silently taking the old value would corrupt
                    // the run manifest's `lanes` record.
                    eprintln!(
                        "--lanes {spec}: lane mode already pinned to {}",
                        relaxfault_util::lanes::mode().label()
                    );
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("--lanes {spec}: expected scalar, u64, or u128");
                std::process::exit(1);
            }
        }
    }
    if !obs::is_force_off() {
        crashdump::install_panic_hook(&current_run_name());
    }
    parsed
}

/// The run name for the current process: `--run` / `RF_RUN_NAME` if given,
/// else the binary's file stem. This is what the panic hook, crash dumps,
/// and [`obs_finish`]'s ledger entry file under.
pub fn current_run_name() -> String {
    let default = std::env::args()
        .next()
        .as_deref()
        .and_then(|argv0| {
            std::path::Path::new(argv0)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "run".to_string());
    run_name(&default)
}

/// Standard harness shutdown, called last in every `fig*`/`table*` main:
/// appends the run's metrics snapshot to the perf-history ledger
/// (`<results>/history/ledger.jsonl`). A no-op while metrics are off.
pub fn obs_finish() {
    if obs::metrics_enabled() {
        let run = current_run_name();
        let dir = obs::results_dir();
        // Only runs that actually wrote a snapshot get ledgered; a
        // ledger failure must not fail the run that produced the data.
        if std::path::Path::new(&dir)
            .join("obs")
            .join(format!("{run}.json"))
            .exists()
        {
            match history::append_run_snapshot(&dir, &run) {
                Ok(true) => println!("history: ledgered run {run}"),
                Ok(false) => {}
                Err(e) => eprintln!("history append failed: {e}"),
            }
        }
    }
}

/// The run name observability output files under: the `--run` flag if
/// given, else `RF_RUN_NAME`, else `default`. Public so `harness = false`
/// bench targets that write their own snapshots (e.g. `engine_hot`) name
/// runs by the same rules as [`emit`].
pub fn resolved_run_name(default: &str) -> String {
    run_name(default)
}

/// The run name [`emit`] files observability output under: the `--run`
/// flag if given, else `RF_RUN_NAME`, else the emitting table's name.
fn run_name(default: &str) -> String {
    RUN_OVERRIDE
        .get()
        .cloned()
        .or_else(|| std::env::var("RF_RUN_NAME").ok())
        .unwrap_or_else(|| default.to_string())
}

/// Prints a table to stdout and mirrors it (plus CSV and JSON) into the
/// results directory (`RF_RESULTS_DIR`, default `results/`). When
/// observability is enabled, the run's metrics snapshot (with its
/// manifest) lands under `<dir>/obs/`, and so does `<run>.events.json`
/// when the `RF_TRACE` filter captured events: the drained merged stream
/// in the [`obs::events_to_json`] encoding crash dumps use.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("== {title} ==");
    print!("{}", table.render());
    println!();
    let dir = obs::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(
            format!("{dir}/{name}.txt"),
            format!("{title}\n{}", table.render()),
        );
        let _ = std::fs::write(format!("{dir}/{name}.csv"), table.to_csv());
        let doc = Value::object([
            ("schema_version", Value::from(obs::SCHEMA_VERSION)),
            ("title", title.into()),
            ("rows", table.to_json()),
        ]);
        let _ = std::fs::write(format!("{dir}/{name}.json"), doc.to_pretty());
    }
    let run = run_name(name);
    if obs::metrics_enabled() {
        match obs::write_snapshot(&run) {
            Ok(path) => println!("obs snapshot: {path}"),
            Err(e) => eprintln!("obs snapshot failed: {e}"),
        }
    }
    let events = obs::drain_events();
    if !events.is_empty() && std::fs::create_dir_all(format!("{dir}/obs")).is_ok() {
        let path = format!("{dir}/obs/{run}.events.json");
        match std::fs::write(&path, obs::events_to_json(&events).to_pretty()) {
            Ok(()) => println!("events: {path}"),
            Err(e) => eprintln!("events write failed: {e}"),
        }
    }
}

fn default_run(trials: u64) -> RunConfig {
    RunConfig {
        trials,
        seed: 2016,
        threads: num_threads(),
        chunk_size: 0,
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Figure 8: repair coverage of RelaxFault and FreeFault with and without
/// XOR set-index hashing, at most one repair way per set.
pub fn fig08_hashing(trials: u64) -> Table {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 })
            .without_set_hashing(),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
            .without_set_hashing(),
        base.with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
    ];
    let results = run_scenarios(&arms, &default_run(trials));
    let paper = ["74.0%", "84.2%", "89.0%", "90.3%"];
    let labels = [
        "FreeFault (no hash)",
        "FreeFault (hash)",
        "RelaxFault (no hash)",
        "RelaxFault (hash)",
    ];
    let mut t = Table::new(&["mechanism", "coverage", "paper"]);
    for ((label, r), p) in labels.iter().zip(&results).zip(paper) {
        t.row(&[label.to_string(), format_pct(r.coverage()), p.to_string()]);
    }
    t
}

/// Figures 10/11: cumulative repair coverage vs required LLC capacity.
/// `fit_scale` is 1 (Figure 10) or 10 (Figure 11).
pub fn coverage_curves(fit_scale: f64, trials: u64) -> Table {
    let base = Scenario::isca16_baseline()
        .with_replacement(ReplacementPolicy::None)
        .with_fit_scale(fit_scale);
    let mut arms = vec![base.clone().with_mechanism(Mechanism::Ppr)];
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::FreeFault { max_ways: ways }),
        );
    }
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: ways }),
        );
    }
    let mut results = run_scenarios(&arms, &default_run(trials));

    let caps: Vec<u64> = vec![
        64,
        16 << 10,
        32 << 10,
        64 << 10,
        82 << 10,
        128 << 10,
        192 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
    ];
    let mut headers = vec!["capacity".to_string()];
    headers.extend(results.iter().map(|r| r.label.clone()));
    let mut t = Table::new(&headers);
    for cap in caps {
        let mut row = vec![format_bytes(cap)];
        for r in results.iter_mut() {
            // PPR uses no LLC: its coverage is flat.
            let v = if r.label == "PPR" {
                r.coverage()
            } else {
                r.coverage_at_bytes(cap)
            };
            row.push(format_pct(v));
        }
        t.row(&row);
    }
    let mut tail = vec!["(way-limit only)".to_string()];
    for r in &results {
        tail.push(format_pct(r.coverage()));
    }
    t.row(&tail);
    t
}

/// Figure 9: sensitivity of the refined fault model. Returns the
/// acceleration-factor sweep (9a/9b) and the accelerated-fraction sweep
/// (9c/9d).
pub fn fig09_sensitivity(trials: u64) -> (Table, Table) {
    let factor_sweep = [1.0, 50.0, 100.0, 150.0, 200.0];
    let mut a = Table::new(&[
        "acceleration",
        "faulty nodes",
        "multi-device DIMMs",
        "DUEs",
        "SDCs",
        "replacements",
    ]);
    for f in factor_sweep {
        let mut scenario = Scenario::isca16_baseline();
        scenario.fault_model.variation.accel_factor = f;
        push_sensitivity_row(&mut a, &format!("{f:.0}x"), scenario, trials);
    }

    let fraction_sweep = [0.0, 0.0001, 0.001, 0.002, 0.003, 0.005];
    let mut b = Table::new(&[
        "accel fraction",
        "faulty nodes",
        "multi-device DIMMs",
        "DUEs",
        "SDCs",
        "replacements",
    ]);
    for p in fraction_sweep {
        let mut scenario = Scenario::isca16_baseline();
        scenario.fault_model.variation.accel_node_fraction = p;
        scenario.fault_model.variation.accel_dimm_fraction = p;
        push_sensitivity_row(&mut b, &format!("{:.2}%", p * 100.0), scenario, trials);
    }
    (a, b)
}

fn push_sensitivity_row(t: &mut Table, label: &str, scenario: Scenario, trials: u64) {
    let pop = fault_population(
        &scenario.fault_model,
        &scenario.dram,
        trials,
        2016,
        num_threads(),
    );
    let arms = vec![scenario];
    let r = &run_scenarios(&arms, &default_run(trials))[0];
    t.row(&[
        label.to_string(),
        format!("{:.0}", pop.per_system(pop.faulty_nodes, SYSTEM_NODES)),
        format!(
            "{:.0}",
            pop.per_system(pop.multi_device_dimms, SYSTEM_NODES)
        ),
        format!("{:.2}", r.dues_per_system(SYSTEM_NODES)),
        format!("{:.4}", r.sdcs_per_system(SYSTEM_NODES)),
        format!("{:.2}", r.replacements_per_system(SYSTEM_NODES)),
    ]);
}

/// Figures 12–14: expected DUEs, SDCs, and DIMM replacements per
/// 16,384-node system over 6 years, for a repair-mechanism matrix.
pub struct ReliabilityTables {
    /// Figure 12 (DUEs).
    pub dues: Table,
    /// Figure 13 (SDCs).
    pub sdcs: Table,
    /// Figure 14, ReplA policy (replace after a non-transient DUE).
    pub replacements_after_due: Table,
    /// Figure 14, ReplB policy (replace after an error-threshold crossing).
    pub replacements_after_errors: Table,
}

/// Runs the Figures 12–14 matrix at one FIT scale.
pub fn reliability_matrix(fit_scale: f64, trials: u64) -> ReliabilityTables {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mechanisms: Vec<(&str, Vec<Mechanism>)> = vec![
        ("No repair", vec![Mechanism::None]),
        ("PPR", vec![Mechanism::Ppr]),
        (
            "FreeFault",
            vec![
                Mechanism::FreeFault { max_ways: 1 },
                Mechanism::FreeFault { max_ways: 4 },
            ],
        ),
        (
            "RelaxFault",
            vec![
                Mechanism::RelaxFault { max_ways: 1 },
                Mechanism::RelaxFault { max_ways: 4 },
            ],
        ),
    ];
    // Build one flat arm list per policy.
    let mut arms = Vec::new();
    for (_, ms) in &mechanisms {
        for m in ms {
            arms.push(base.clone().with_mechanism(*m)); // ReplA default
        }
    }
    let n_repla = arms.len();
    for (_, ms) in &mechanisms {
        for m in ms {
            arms.push(base.clone().with_mechanism(*m).with_replacement(replb));
        }
    }
    let results = run_scenarios(&arms, &default_run(trials));

    let headers = ["mechanism", "no-repair/1-way", "4-way"];
    let mut dues = Table::new(&headers);
    let mut sdcs = Table::new(&headers);
    let mut repla = Table::new(&headers);
    let mut replb_t = Table::new(&headers);
    let mut idx = 0;
    let mut rows: Vec<(String, Vec<usize>)> = Vec::new();
    for (name, ms) in &mechanisms {
        let idxs: Vec<usize> = (0..ms.len()).map(|k| idx + k).collect();
        idx += ms.len();
        rows.push((name.to_string(), idxs));
    }
    for (name, idxs) in &rows {
        let cell = |t: &mut Table, f: &dyn Fn(usize) -> f64| {
            let one = f(idxs[0]);
            let four = if idxs.len() > 1 {
                format!("{:.3}", f(idxs[1]))
            } else {
                "-".into()
            };
            t.row(&[name.clone(), format!("{one:.3}"), four]);
        };
        cell(&mut dues, &|i| results[i].dues_per_system(SYSTEM_NODES));
        cell(&mut sdcs, &|i| results[i].sdcs_per_system(SYSTEM_NODES));
        cell(&mut repla, &|i| {
            results[i].replacements_per_system(SYSTEM_NODES)
        });
        cell(&mut replb_t, &|i| {
            results[n_repla + i].replacements_per_system(SYSTEM_NODES)
        });
    }
    ReliabilityTables {
        dues,
        sdcs,
        replacements_after_due: repla,
        replacements_after_errors: replb_t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig08_smoke() {
        let t = fig08_hashing(400);
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("RelaxFault (hash)"));
    }

    #[test]
    fn coverage_table_shape() {
        let t = coverage_curves(1.0, 400);
        assert!(t.len() >= 11);
        assert!(t.render().contains("82KiB"));
    }

    #[test]
    fn reliability_matrix_shape() {
        let r = reliability_matrix(1.0, 400);
        assert_eq!(r.dues.len(), 4);
        assert_eq!(r.replacements_after_errors.len(), 4);
    }
}
