//! The four workloads: one repetition each, and the digests and invariant
//! checks that decide whether a repetition's output is correct.

use relaxfault_faults::FaultSampler;
use relaxfault_perfsim::workload::catalog;
use relaxfault_perfsim::{CapacityLoss, SimConfig, SimResult, Simulation, WeightedSpeedup};
use relaxfault_relsim::fleet::latest_checkpoint;
use relaxfault_relsim::{
    run_scenarios, FleetConfig, FleetMetrics, FleetSim, Mechanism, ReplacementPolicy, RunConfig,
    Scenario, ScenarioResult,
};
use relaxfault_util::obs::fnv1a;
use relaxfault_util::persist::fold_digest;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker threads of the timed repetitions (the machine the benchmark was
/// sized on has two cores). perfsim is single-threaded regardless.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figures 12–14 arm matrix at 1× FIT.
    Reliability1x,
    /// The same matrix at 10× FIT.
    Reliability10x,
    /// The Figures 15/16 performance sweep.
    PerfSweep,
    /// A checkpointed fleet run, then a resume.
    FleetCkpt,
}

impl Workload {
    /// Every workload, in the order the one command runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Reliability1x,
        Workload::Reliability10x,
        Workload::PerfSweep,
        Workload::FleetCkpt,
    ];

    /// The workload's name on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reliability1x => "reliability_1x",
            Workload::Reliability10x => "reliability_10x",
            Workload::PerfSweep => "perf_sweep",
            Workload::FleetCkpt => "fleet_ckpt",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's own throughput metric: name, items per unit, unit.
    /// One item is a node lifetime under all arms, a simulated instruction,
    /// or a node-epoch.
    pub fn throughput(self) -> (&'static str, f64, &'static str) {
        match self {
            Workload::Reliability1x | Workload::Reliability10x => ("trials_per_s", 1.0, "1/s"),
            Workload::PerfSweep => ("sim_mips", 1e-6, "1/us"),
            Workload::FleetCkpt => ("node_epochs_per_s", 1.0, "1/s"),
        }
    }
}

/// Work done by one repetition of each workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Node lifetimes of `reliability_1x`.
    pub trials_1x: u64,
    /// Node lifetimes of `reliability_10x`.
    pub trials_10x: u64,
    /// Instructions per core of every `perf_sweep` run.
    pub perf_instructions: u64,
    /// Fleet size of `fleet_ckpt`.
    pub fleet_nodes: u64,
    /// Epochs of `fleet_ckpt`.
    pub fleet_epochs: u32,
}

impl Scale {
    /// The benchmark's scale: about one second per repetition on a
    /// two-core x86-64 host. `expected.json` holds digests at this scale.
    pub const FULL: Scale = Scale {
        trials_1x: 300_000,
        trials_10x: 40_000,
        perf_instructions: 50_000,
        fleet_nodes: 400_000,
        fleet_epochs: 20,
    };
}

/// Measurements and the output digest of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Seconds of set-up before the first timed work (median of the
    /// set-ups this repetition made).
    pub setup_s: f64,
    /// Seconds of timed work.
    pub work_s: f64,
    /// Items of work done (see [`Workload::throughput`]).
    pub items: f64,
    /// Digest of every deterministic output.
    pub digest: u64,
    /// Fleet only: seconds of `FleetSim::resume`.
    pub resume_s: Option<f64>,
    /// Fleet only: size of the newest checkpoint, kB.
    pub ckpt_kb: Option<f64>,
}

/// Runs one repetition. `dir` is scratch space for checkpoints.
///
/// # Errors
///
/// Reports any failed library call or output check.
pub fn run_rep(
    w: Workload,
    scale: &Scale,
    seed: u64,
    threads: usize,
    dir: &Path,
) -> Result<Rep, String> {
    match w {
        Workload::Reliability1x => reliability_rep(1.0, scale.trials_1x, seed, threads),
        Workload::Reliability10x => reliability_rep(10.0, scale.trials_10x, seed, threads),
        Workload::PerfSweep => {
            let ((cfg, workloads), setup_s) = timed_setup(|| perf_setup(scale.perf_instructions));
            let t = Instant::now();
            let out = perf_sweep(&cfg, &workloads, seed, |_, run| run())?;
            Ok(Rep {
                setup_s,
                work_s: t.elapsed().as_secs_f64(),
                items: out.instructions as f64,
                digest: digest_perf(&out.results),
                resume_s: None,
                ckpt_kb: None,
            })
        }
        Workload::FleetCkpt => fleet_rep(scale, seed, threads, dir),
    }
}

/// Runs `setup` until 50 ms have passed (at least once, at most 64
/// times) and returns its last value with the median set-up time: tiny
/// set-ups are timed many times so their median is steady.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        if start.elapsed() >= Duration::from_millis(50) || times.len() >= 64 {
            return (value, crate::stats::median(&times));
        }
    }
}

/// The Figures 12–14 matrix: no repair, PPR, FreeFault and RelaxFault at
/// 1 and 4 ways, each under ReplA and ReplB (12 arms, one fault model).
pub fn reliability_arms(fit_scale: f64) -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let mechanisms = [
        Mechanism::None,
        Mechanism::Ppr,
        Mechanism::FreeFault { max_ways: 1 },
        Mechanism::FreeFault { max_ways: 4 },
        Mechanism::RelaxFault { max_ways: 1 },
        Mechanism::RelaxFault { max_ways: 4 },
    ];
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mut arms: Vec<Scenario> = mechanisms
        .iter()
        .map(|&m| base.clone().with_mechanism(m))
        .collect();
    arms.extend(
        mechanisms
            .iter()
            .map(|&m| base.clone().with_mechanism(m).with_replacement(replb)),
    );
    arms
}

/// Set-up of a reliability repetition: the arms and their fault sampler.
pub fn reliability_setup(fit_scale: f64) -> (Vec<Scenario>, FaultSampler) {
    let arms = reliability_arms(fit_scale);
    let sampler = FaultSampler::new(&arms[0].fault_model, &arms[0].dram);
    (arms, sampler)
}

fn reliability_rep(fit_scale: f64, trials: u64, seed: u64, threads: usize) -> Result<Rep, String> {
    let ((arms, _), setup_s) = timed_setup(|| reliability_setup(fit_scale));
    let t = Instant::now();
    let results = run_reliability(&arms, trials, seed, threads);
    let work_s = t.elapsed().as_secs_f64();
    check_reliability(&results, trials)?;
    Ok(Rep {
        setup_s,
        work_s,
        items: trials as f64,
        digest: digest_reliability(&results),
        resume_s: None,
        ckpt_kb: None,
    })
}

/// `run_scenarios` over the arms, with the engine's default chunking.
pub fn run_reliability(
    arms: &[Scenario],
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<ScenarioResult> {
    black_box(run_scenarios(
        arms,
        &RunConfig {
            trials,
            seed,
            threads,
            chunk_size: 0,
        },
    ))
}

/// Invariants every correct run of the matrix satisfies: all arms see one
/// population, and the no-repair arm repairs nothing.
///
/// # Errors
///
/// Names the first violated invariant.
pub fn check_reliability(results: &[ScenarioResult], trials: u64) -> Result<(), String> {
    let first = results.first().ok_or("no arm results")?;
    for r in results {
        if r.trials != trials {
            return Err(format!(
                "{}: {} trials, expected {trials}",
                r.label, r.trials
            ));
        }
        if (r.faulty_nodes, r.permanent_faults) != (first.faulty_nodes, first.permanent_faults) {
            return Err(format!("{}: arms saw different fault populations", r.label));
        }
        if r.fully_repaired_nodes > r.faulty_nodes {
            return Err(format!("{}: more nodes repaired than faulty", r.label));
        }
    }
    if first.fully_repaired_nodes != 0 {
        return Err("the no-repair arm repaired nodes".into());
    }
    Ok(())
}

/// Every deterministic field of one arm's result, the repair-byte
/// distribution excluded.
pub fn result_fields(r: &ScenarioResult) -> Vec<u64> {
    let mut f = vec![
        r.trials,
        r.faulty_nodes,
        r.fully_repaired_nodes,
        r.dues,
        r.transient_dues,
        r.sdcs,
        r.replacements,
        r.unrepaired_faults,
        r.permanent_faults,
        r.max_ways_seen as u64,
    ];
    f.extend(r.unrepaired_by_mode);
    f
}

/// Digest of every deterministic `ScenarioResult` field, including the
/// sorted repair-byte samples (their insertion order depends on thread
/// scheduling; their sorted order does not).
pub fn digest_reliability(results: &[ScenarioResult]) -> u64 {
    let mut d = 0;
    for r in results {
        d = fold_digest(d, fnv1a(r.label.as_bytes()));
        for v in result_fields(r) {
            d = fold_digest(d, v);
        }
        let mut bytes = r.repair_bytes.clone();
        for b in bytes.sorted_samples() {
            d = fold_digest(d, b.to_bits());
        }
    }
    d
}

/// The Figure 15 capacity sweep.
pub const LOSSES: [CapacityLoss; 4] = [
    CapacityLoss::None,
    CapacityLoss::RandomLines { bytes: 100 << 10 },
    CapacityLoss::Ways(1),
    CapacityLoss::Ways(4),
];

/// Set-up of a perf-sweep repetition: the Table 3 machine and the Table 4
/// catalogue.
pub fn perf_setup(instructions_per_core: u64) -> (SimConfig, Vec<relaxfault_perfsim::Workload>) {
    let cfg = SimConfig {
        instructions_per_core,
        ..SimConfig::isca16()
    };
    (cfg, catalog::all())
}

/// Which simulation of the sweep a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfRun {
    /// One benchmark alone on the full machine (the Equation 2 denominator).
    Solo,
    /// A whole workload under `LOSSES[i]`.
    Shared(usize),
}

/// Outputs of one sweep.
pub struct PerfOut {
    /// Every simulation's result, in run order.
    pub results: Vec<SimResult>,
    /// Simulated instructions over all cores of all runs.
    pub instructions: u64,
}

/// Runs the sweep, passing each simulation to `call` (which runs it, or
/// runs it inside a span), and checks the figures it yields.
///
/// # Errors
///
/// Fails when a baseline's relative power is not 100% or a weighted
/// speedup falls outside (0, 8].
pub fn perf_sweep(
    cfg: &SimConfig,
    workloads: &[relaxfault_perfsim::Workload],
    seed: u64,
    mut call: impl FnMut(PerfRun, &dyn Fn() -> SimResult) -> SimResult,
) -> Result<PerfOut, String> {
    let mut results = Vec::new();
    for w in workloads {
        let mut solo: Vec<(String, f64)> = Vec::new();
        let mut solo_ipc = Vec::with_capacity(w.cores.len());
        for spec in &w.cores {
            if let Some((_, ipc)) = solo.iter().find(|(n, _)| *n == spec.name) {
                solo_ipc.push(*ipc);
                continue;
            }
            let alone = relaxfault_perfsim::Workload {
                name: format!("{}-solo", spec.name),
                cores: vec![spec.clone()],
            };
            let r = call(PerfRun::Solo, &|| {
                Simulation::run(cfg, &alone, CapacityLoss::None, seed)
            });
            solo.push((spec.name.clone(), r.per_core[0].ipc));
            solo_ipc.push(r.per_core[0].ipc);
            results.push(r);
        }
        let mut base_power = 0.0;
        for (i, loss) in LOSSES.iter().enumerate() {
            let r = call(PerfRun::Shared(i), &|| Simulation::run(cfg, w, *loss, seed));
            let ws = WeightedSpeedup::compute(&solo_ipc, &r).0;
            if !(ws > 0.0 && ws <= 8.0) {
                return Err(format!(
                    "{} {}: weighted speedup {ws}",
                    w.name,
                    loss.label()
                ));
            }
            let power = r.dram_dynamic_power_mw(&cfg.energy);
            if i == 0 {
                base_power = power.max(1e-12);
            }
            let relative = power / base_power * 100.0;
            if i == 0 && relative != 100.0 {
                return Err(format!("{}: baseline power {relative}%", w.name));
            }
            results.push(r);
        }
    }
    let instructions = results
        .iter()
        .flat_map(|r| &r.per_core)
        .map(|c| c.instructions)
        .sum();
    Ok(PerfOut {
        results,
        instructions,
    })
}

/// Digest of the simulated statistics: per-core instructions and cycles,
/// DRAM operation counts and LLC counters of every run.
pub fn digest_perf(results: &[SimResult]) -> u64 {
    let mut d = 0;
    for r in results {
        for c in &r.per_core {
            d = fold_digest(d, c.instructions);
            d = fold_digest(d, c.cycles.to_bits());
        }
        let o = &r.op_counts;
        let l = &r.llc_stats;
        for v in [
            o.activates,
            o.precharges,
            o.reads,
            o.writes,
            o.refreshes,
            l.hits,
            l.misses,
            l.bypasses,
            l.writebacks,
            r.elapsed_cycles.to_bits(),
        ] {
            d = fold_digest(d, v);
        }
    }
    d
}

/// The fleet's arms: no repair, 4-way RelaxFault and PPR at 1× FIT.
pub fn fleet_arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline();
    [
        Mechanism::None,
        Mechanism::RelaxFault { max_ways: 4 },
        Mechanism::Ppr,
    ]
    .map(|m| base.clone().with_mechanism(m))
    .to_vec()
}

/// The fleet configuration of a repetition.
pub fn fleet_config(scale: &Scale, seed: u64, threads: usize, dir: Option<&Path>) -> FleetConfig {
    FleetConfig {
        nodes: scale.fleet_nodes,
        epochs: scale.fleet_epochs,
        shards: 0,
        seed,
        threads,
        ckpt_dir: dir.map(Path::to_path_buf),
        crash_at: None,
    }
}

fn fleet_rep(scale: &Scale, seed: u64, threads: usize, dir: &Path) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut sim, setup_s) =
        timed_setup(|| FleetSim::new(fleet_arms(), fleet_config(scale, seed, threads, Some(dir))));
    let t = Instant::now();
    sim.run_to_end()?;
    let work_s = t.elapsed().as_secs_f64();
    let done = FleetOutcome::of(&sim);
    // One fleet in memory at a time, so peak memory is one fleet's.
    drop(sim);
    let newest = latest_checkpoint(dir)?;
    let bytes = std::fs::metadata(&newest)
        .map_err(|e| format!("{}: {e}", newest.display()))?
        .len();
    let t = Instant::now();
    let resumed = FleetSim::resume(dir, threads)?;
    let resume_s = t.elapsed().as_secs_f64();
    check_fleet(&done, &FleetOutcome::of(&resumed))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(Rep {
        setup_s,
        work_s,
        items: (scale.fleet_nodes * scale.fleet_epochs as u64) as f64,
        digest: done.digest(),
        resume_s: Some(resume_s),
        ckpt_kb: Some(bytes as f64 / 1000.0),
    })
}

/// The observable state of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Population digest.
    pub population: u64,
    /// Dirty-node evaluations.
    pub dirty_evals: u64,
    /// Epochs completed.
    pub completed_epochs: u32,
    /// Per-arm totals.
    pub metrics: Vec<FleetMetrics>,
}

impl FleetOutcome {
    /// Reads a fleet's state.
    pub fn of(sim: &FleetSim) -> Self {
        Self {
            population: sim.population_digest(),
            dirty_evals: sim.dirty_evals(),
            completed_epochs: sim.completed_epochs(),
            metrics: sim.metrics(),
        }
    }

    /// Digest of the population digest, the dirty-evaluation count and
    /// every arm metric.
    pub fn digest(&self) -> u64 {
        let mut d = fold_digest(self.population, self.dirty_evals);
        for m in &self.metrics {
            let mut fields = vec![
                m.faulty_nodes,
                m.fully_repaired_nodes,
                m.repair_bytes_total,
                m.dues,
                m.transient_dues,
                m.sdcs,
                m.replacements,
                m.unrepaired_faults,
                m.permanent_faults,
                m.max_ways_seen as u64,
            ];
            fields.extend(m.unrepaired_by_mode);
            for v in fields {
                d = fold_digest(d, v);
            }
        }
        d
    }
}

/// A resumed fleet must match the uninterrupted run it was saved from,
/// and every arm must have seen one population.
///
/// # Errors
///
/// Names the first disagreement.
pub fn check_fleet(run: &FleetOutcome, resumed: &FleetOutcome) -> Result<(), String> {
    if resumed.population != run.population {
        return Err("resumed fleet population digest differs".into());
    }
    if resumed.metrics != run.metrics {
        return Err("resumed fleet metrics differ from the uninterrupted run".into());
    }
    if resumed.completed_epochs != run.completed_epochs {
        return Err("resumed fleet is at another epoch".into());
    }
    if run
        .metrics
        .iter()
        .any(|m| m.faulty_nodes != run.metrics[0].faulty_nodes)
    {
        return Err("fleet arms saw different populations".into());
    }
    Ok(())
}
