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
//! cargo run --release -p relaxfault-bench --bin fig08_hashing -- 100000
//! ```

use relaxfault_relsim::engine::{
    fault_population, run_prefixes, run_scenarios, RunConfig, ScenarioResult,
};
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
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--quiet" || a == "-q" {
            obs::set_force_off(true);
        } else if a == "--run" {
            run = args.next();
        } else if let Some(r) = a.strip_prefix("--run=") {
            run = Some(r.to_string());
        } else if parsed.work.is_none() && !a.starts_with('-') {
            parsed.work = a.parse().ok();
        }
    }
    if let Some(r) = run {
        let _ = RUN_OVERRIDE.set(r);
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
/// results directory (`RF_RESULTS_DIR`, default `results/`), or returns an
/// error naming the file it could not write. When observability is
/// enabled, the run's metrics snapshot (with its manifest) lands
/// best-effort under `<dir>/obs/`, and so does `<run>.events.json` when
/// the `RF_TRACE` filter captured events: the drained merged stream in the
/// [`obs::events_to_json`] encoding crash dumps use.
pub fn emit(name: &str, title: &str, table: &Table) -> Result<(), String> {
    println!("== {title} ==");
    print!("{}", table.render());
    println!();
    let dir = obs::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let doc = Value::object([
        ("schema_version", Value::from(obs::SCHEMA_VERSION)),
        ("title", title.into()),
        ("rows", table.to_json()),
    ]);
    for (ext, text) in [
        ("txt", format!("{title}\n{}", table.render())),
        ("csv", table.to_csv()),
        ("json", doc.to_pretty()),
    ] {
        let path = format!("{dir}/{name}.{ext}");
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
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
    Ok(())
}

fn default_run(trials: u64) -> RunConfig {
    RunConfig {
        trials,
        seed: 2016,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        chunk_size: 0,
    }
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
    let run = default_run(trials);
    let pop = fault_population(&scenario.fault_model, &scenario.dram, &run);
    let r = &run_scenarios(&[scenario], &run)[0];
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

/// The Figs 12–14 mechanism matrix, in table row order.
const MATRIX: [Mechanism; 6] = [
    Mechanism::None,
    Mechanism::Ppr,
    Mechanism::FreeFault { max_ways: 1 },
    Mechanism::FreeFault { max_ways: 4 },
    Mechanism::RelaxFault { max_ways: 1 },
    Mechanism::RelaxFault { max_ways: 4 },
];

/// Figures 10–14 from one sampled population per FIT level: the ten
/// tables as `(file name, title, table)`. `n` is the Figure 13a trial
/// count. Every other table keeps its fixed share of `n` and reads the
/// prefix of its level's run at that count, so it equals a standalone run
/// at that count (see [`run_prefixes`]).
pub fn fig10_14_reliability(n: u64) -> Vec<(&'static str, String, Table)> {
    let x1 @ [t14a, t10, t12a, t13a] = [n / 20, 3 * n / 20, n / 2, n];
    let x10 @ [t14b, t11, t12b, t13b] = [n / 60, n / 10, n / 6, n / 4];
    let [fig10, fig12a, fig13a, fig14a, fig14c] = reliability_level(1.0, x1);
    let [fig11, fig12b, fig13b, fig14b, fig14d] = reliability_level(10.0, x10);
    vec![
        (
            "fig10_coverage",
            format!("Figure 10: coverage vs LLC capacity, 1x FIT ({t10} node trials)"),
            fig10,
        ),
        (
            "fig11_coverage_10x",
            format!("Figure 11: coverage vs LLC capacity, 10x FIT ({t11} node trials)"),
            fig11,
        ),
        (
            "fig12a_dues_1x",
            format!("Figure 12a: DUEs per system, 1x FIT ({t12a} node trials)"),
            fig12a,
        ),
        (
            "fig12b_dues_10x",
            format!("Figure 12b: DUEs per system, 10x FIT ({t12b} node trials)"),
            fig12b,
        ),
        (
            "fig13a_sdcs_1x",
            format!("Figure 13a: SDCs per system, 1x FIT ({t13a} node trials)"),
            fig13a,
        ),
        (
            "fig13b_sdcs_10x",
            format!("Figure 13b: SDCs per system, 10x FIT ({t13b} node trials)"),
            fig13b,
        ),
        (
            "fig14a_repl_due_1x",
            format!("Figure 14a: replacements after first DUE, 1x FIT ({t14a} trials)"),
            fig14a,
        ),
        (
            "fig14b_repl_due_10x",
            format!("Figure 14b: replacements after first DUE, 10x FIT ({t14b} trials)"),
            fig14b,
        ),
        (
            "fig14c_repl_errors_1x",
            format!("Figure 14c: replacements after frequent errors, 1x FIT ({t14a} trials)"),
            fig14c,
        ),
        (
            "fig14d_repl_errors_10x",
            format!("Figure 14d: replacements after frequent errors, 10x FIT ({t14b} trials)"),
            fig14d,
        ),
    ]
}

/// One FIT level's Figures 10–14 tables (coverage, DUEs, SDCs, and
/// replacements under ReplA and ReplB), read at the nondecreasing trial
/// counts `[fig14, coverage, fig12, fig13]`. One run holds the 12-arm
/// matrix and the coverage figure's five no-replacement arms, which share
/// the matrix's planner keys and so add replay only (under ReplA, replay
/// skips a DUE-replaced fault before counting it unrepaired, so coverage
/// needs its own arms). A second run holds the two 16-way coverage arms
/// up to the coverage count.
fn reliability_level(fit_scale: f64, cuts: [u64; 4]) -> [Table; 5] {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let no_repl = |m| {
        base.clone()
            .with_mechanism(m)
            .with_replacement(ReplacementPolicy::None)
    };
    let mut arms: Vec<Scenario> = MATRIX.map(|m| base.clone().with_mechanism(m)).into();
    arms.extend(MATRIX.map(|m| base.clone().with_mechanism(m).with_replacement(replb)));
    arms.extend(MATRIX[1..].iter().map(|&m| no_repl(m)));
    let [at14, mut at_cov, at12, at13]: [Vec<ScenarioResult>; 4] =
        run_prefixes(&arms, &default_run(cuts[3]), &cuts)
            .try_into()
            .expect("one result set per cut");
    let mut wide = run_scenarios(
        &[
            no_repl(Mechanism::FreeFault { max_ways: 16 }),
            no_repl(Mechanism::RelaxFault { max_ways: 16 }),
        ],
        &default_run(cuts[1]),
    );
    // Figures 10/11's columns: PPR, FreeFault-1/4/16, RelaxFault-1/4/16.
    let mut curves = at_cov.split_off(12);
    curves.insert(3, wide.remove(0));
    curves.append(&mut wide);
    [
        coverage_table(&curves),
        matrix_table(&at12[..6], |r| r.dues_per_system(SYSTEM_NODES)),
        matrix_table(&at13[..6], |r| r.sdcs_per_system(SYSTEM_NODES)),
        matrix_table(&at14[..6], |r| r.replacements_per_system(SYSTEM_NODES)),
        matrix_table(&at14[6..12], |r| r.replacements_per_system(SYSTEM_NODES)),
    ]
}

/// Figures 10/11: cumulative repair coverage vs required LLC capacity,
/// one column per arm.
fn coverage_table(results: &[ScenarioResult]) -> Table {
    // 64 B (one line), then 16 KiB to 2 MiB.
    let kib = [16, 32, 64, 82, 128, 192, 256, 512, 1024, 2048];
    let caps = std::iter::once(64).chain(kib.map(|k: u64| k << 10));
    let mut headers = vec!["capacity".to_string()];
    headers.extend(results.iter().map(|r| r.label.clone()));
    let mut t = Table::new(&headers);
    for cap in caps {
        let mut row = vec![format_bytes(cap)];
        for r in results {
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
    tail.extend(results.iter().map(|r| format_pct(r.coverage())));
    t.row(&tail);
    t
}

/// One Figs 12–14 table from six arms in [`MATRIX`] order: a row per
/// mechanism, with its 1-way and 4-way values where it has a way limit.
fn matrix_table(arms: &[ScenarioResult], per_system: impl Fn(&ScenarioResult) -> f64) -> Table {
    let mut t = Table::new(&["mechanism", "no-repair/1-way", "4-way"]);
    let cell = |i: usize| format!("{:.3}", per_system(&arms[i]));
    for (name, one, four) in [
        ("No repair", 0, None),
        ("PPR", 1, None),
        ("FreeFault", 2, Some(3)),
        ("RelaxFault", 4, Some(5)),
    ] {
        t.row(&[name.to_string(), cell(one), four.map_or("-".into(), cell)]);
    }
    t
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
    fn fig10_14_table_shapes() {
        let tables = fig10_14_reliability(1200);
        assert_eq!(tables.len(), 10);
        for (name, _, t) in &tables {
            // 11 capacities plus the way-limit row, or 4 mechanism rows.
            let rows = if name.contains("coverage") { 12 } else { 4 };
            assert_eq!(t.len(), rows, "{name}");
        }
        assert!(tables[0].2.render().contains("RelaxFault-16way"));
        assert!(tables[1].1.contains("(120 node trials)"));
    }
}
