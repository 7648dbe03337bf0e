//! Parallel Monte Carlo runner.
//!
//! Samples node lifetimes once per trial and evaluates every scenario arm
//! that shares the same fault model on the *same* fault population — the
//! paper compares mechanisms this way, and it slashes comparison variance.
//! Trials are deterministic in `(seed, trial index)` regardless of thread
//! count.

use crate::node::ArmScratch;
use crate::repro::{trial_digest, ReproCase};
use crate::scenario::Scenario;
use relaxfault_dram::DramConfig;
use relaxfault_faults::{FaultMode, FaultModel, FaultSampler, NodeFaults};
use relaxfault_util::obs::{self, Counter, Histogram, Level};
use relaxfault_util::rng::{mix64, Rng64};
use relaxfault_util::stats::{wilson_interval, Ecdf};
use relaxfault_util::trace_event;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Execution parameters for a Monte Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Node lifetimes to simulate per arm.
    pub trials: u64,
    /// Base RNG seed (trials are derived deterministically).
    pub seed: u64,
    /// Worker threads (0 or 1 = single-threaded).
    pub threads: usize,
    /// Trials per work-stealing chunk. `0` (the default) picks
    /// automatically: `max(trials / (64 × threads), 256)` — small enough
    /// that a run splits into ~64 chunks per worker for load balancing,
    /// large enough that the atomic claim is noise. Any positive value is
    /// honoured as-is; results are bit-identical at every setting.
    pub chunk_size: u64,
}

impl RunConfig {
    /// A quick configuration for tests.
    pub fn quick(trials: u64) -> Self {
        Self {
            trials,
            seed: 0x5EED,
            threads: 4,
            chunk_size: 0,
        }
    }

    /// The effective work-stealing chunk size for `threads` workers,
    /// resolving the `0` = auto default.
    pub fn resolved_chunk_size(&self, threads: usize) -> u64 {
        if self.chunk_size > 0 {
            self.chunk_size
        } else {
            (self.trials / (64 * threads.max(1) as u64)).max(256)
        }
    }
}

/// Accumulated metrics of one scenario arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The arm's mechanism label.
    pub label: String,
    /// Node lifetimes simulated.
    pub trials: u64,
    /// Nodes with at least one permanent fault.
    pub faulty_nodes: u64,
    /// Faulty nodes whose every permanent fault was repaired.
    pub fully_repaired_nodes: u64,
    /// Repair bytes of each fully repaired faulty node.
    pub repair_bytes: Ecdf,
    /// Total DUEs across trials.
    pub dues: u64,
    /// DUEs triggered by transient faults.
    pub transient_dues: u64,
    /// Total SDCs across trials.
    pub sdcs: u64,
    /// Total DIMM replacements across trials.
    pub replacements: u64,
    /// Permanent faults that stayed unrepaired.
    pub unrepaired_faults: u64,
    /// Permanent faults observed.
    pub permanent_faults: u64,
    /// Worst per-set repair occupancy seen in any node.
    pub max_ways_seen: u32,
    /// Unrepaired permanent faults by `FaultMode` index.
    pub unrepaired_by_mode: [u64; 6],
}

impl ScenarioResult {
    fn new(label: String) -> Self {
        Self {
            label,
            trials: 0,
            faulty_nodes: 0,
            fully_repaired_nodes: 0,
            repair_bytes: Ecdf::new(),
            dues: 0,
            transient_dues: 0,
            sdcs: 0,
            replacements: 0,
            unrepaired_faults: 0,
            permanent_faults: 0,
            max_ways_seen: 0,
            unrepaired_by_mode: [0; 6],
        }
    }

    fn merge(&mut self, other: &ScenarioResult) {
        self.trials += other.trials;
        self.faulty_nodes += other.faulty_nodes;
        self.fully_repaired_nodes += other.fully_repaired_nodes;
        self.repair_bytes.merge(&other.repair_bytes);
        self.dues += other.dues;
        self.transient_dues += other.transient_dues;
        self.sdcs += other.sdcs;
        self.replacements += other.replacements;
        self.unrepaired_faults += other.unrepaired_faults;
        self.permanent_faults += other.permanent_faults;
        self.max_ways_seen = self.max_ways_seen.max(other.max_ways_seen);
        for (a, b) in self
            .unrepaired_by_mode
            .iter_mut()
            .zip(other.unrepaired_by_mode)
        {
            *a += b;
        }
    }

    /// Repair coverage: fraction of faulty nodes fully repaired
    /// (unbounded LLC budget beyond the way limit).
    pub fn coverage(&self) -> f64 {
        if self.faulty_nodes == 0 {
            0.0
        } else {
            self.fully_repaired_nodes as f64 / self.faulty_nodes as f64
        }
    }

    /// 95% confidence interval on [`ScenarioResult::coverage`].
    pub fn coverage_interval(&self) -> (f64, f64) {
        wilson_interval(self.fully_repaired_nodes, self.faulty_nodes)
    }

    /// Coverage if the LLC budget is additionally capped at `bytes`
    /// (the y-value of Figures 10/11 at one x).
    pub fn coverage_at_bytes(&mut self, bytes: u64) -> f64 {
        if self.faulty_nodes == 0 {
            return 0.0;
        }
        let within =
            self.repair_bytes.fraction_at_most(bytes as f64) * self.repair_bytes.len() as f64;
        within / self.faulty_nodes as f64
    }

    /// The LLC budget needed to reach a given fraction of the faulty nodes
    /// (e.g. the paper's "90% of nodes with at most 82 KiB").
    pub fn bytes_for_coverage(&mut self, target: f64) -> Option<u64> {
        if self.coverage() < target || self.repair_bytes.is_empty() {
            return None;
        }
        let p = (target * self.faulty_nodes as f64) / self.repair_bytes.len() as f64;
        if p > 1.0 {
            return None;
        }
        Some(self.repair_bytes.percentile(p * 100.0) as u64)
    }

    /// Scales a per-trial expectation to a system of `nodes` nodes.
    pub fn per_system(&self, count: u64, nodes: u64) -> f64 {
        count as f64 / self.trials as f64 * nodes as f64
    }

    /// Expected DUEs in a system of `nodes` nodes.
    pub fn dues_per_system(&self, nodes: u64) -> f64 {
        self.per_system(self.dues, nodes)
    }

    /// Expected SDCs in a system of `nodes` nodes.
    pub fn sdcs_per_system(&self, nodes: u64) -> f64 {
        self.per_system(self.sdcs, nodes)
    }

    /// Expected DIMM replacements in a system of `nodes` nodes.
    pub fn replacements_per_system(&self, nodes: u64) -> f64 {
        self.per_system(self.replacements, nodes)
    }
}

/// Observability handles for the Monte Carlo hot loop, resolved once so
/// per-trial updates are a relaxed load and a branch when disabled.
struct EngineMetrics {
    trial_evals: Counter,
    fast_path_skips: Counter,
    faulty_nodes: Counter,
    fully_repaired_nodes: Counter,
    repair_fallback_nodes: Counter,
    dues: Counter,
    transient_dues: Counter,
    sdcs: Counter,
    replacements: Counter,
    permanent_faults: Counter,
    unrepaired_faults: Counter,
    unrepaired_by_mode: [Counter; 6],
    trial_ns: Histogram,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        trial_evals: obs::counter("relsim.trial_evals"),
        fast_path_skips: obs::counter("relsim.fast_path_skips"),
        faulty_nodes: obs::counter("relsim.faulty_nodes"),
        fully_repaired_nodes: obs::counter("relsim.fully_repaired_nodes"),
        repair_fallback_nodes: obs::counter("relsim.repair_fallback_nodes"),
        dues: obs::counter("relsim.dues"),
        transient_dues: obs::counter("relsim.transient_dues"),
        sdcs: obs::counter("relsim.sdcs"),
        replacements: obs::counter("relsim.replacements"),
        permanent_faults: obs::counter("relsim.permanent_faults"),
        unrepaired_faults: obs::counter("relsim.unrepaired_faults"),
        unrepaired_by_mode: FaultMode::ALL
            .map(|m| obs::counter(&format!("relsim.unrepaired.{}", m.key()))),
        trial_ns: obs::histogram("relsim.trial_ns"),
    })
}

/// Whether the `RF_CHECK=1` in-loop invariant checks are on, resolved
/// once per process. The hot loop pays one register-held bool test per
/// trial when off.
fn rf_check_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("RF_CHECK")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("on"))
            .unwrap_or(false)
    })
}

/// Trial index forced to fail under `RF_CHECK` (`RF_CHECK_FAIL_TRIAL=n`),
/// for exercising the repro-emission path end to end in CI.
fn rf_check_fail_trial() -> Option<u64> {
    static TRIAL: OnceLock<Option<u64>> = OnceLock::new();
    *TRIAL.get_or_init(|| {
        std::env::var("RF_CHECK_FAIL_TRIAL")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Persists a replayable repro for a failed in-loop check, then panics.
/// Cold and out-of-line: the hot loop only carries the call.
#[cold]
#[inline(never)]
fn rf_check_failure(
    scenarios: &[Scenario],
    members: &[usize],
    seed: u64,
    trial: u64,
    group: u64,
    digest: Option<u64>,
    reason: &str,
) -> ! {
    let case = ReproCase {
        case: "engine_check".into(),
        reason: reason.into(),
        seed,
        trial,
        group,
        epoch: None,
        scenarios: members.iter().map(|&si| scenarios[si].clone()).collect(),
        digest,
        prop_choices: Vec::new(),
    };
    let path = case.write();
    panic!(
        "RF_CHECK failure at trial {trial} group {group}: {reason}\n\
         repro written to {} — rerun with `relcheck replay <path>`",
        path.display()
    );
}

/// The RNG-stream seed for one trial's fault *sampling*: the stream is
/// keyed on `(seed, trial, group)` so results never depend on which
/// worker thread ran the trial. The engine, the relcheck replayer, and
/// the fleet simulator all derive the stream from this one function —
/// sharing it is what makes their populations bit-identical.
pub fn sample_rng_seed(seed: u64, trial: u64, group: u64) -> u64 {
    mix64(seed, trial, group)
}

/// The RNG-stream seed for one trial's scenario *evaluation*. Each arm
/// restarts from this seed so arms see identical draw sequences; the
/// `^ 0xECC` domain separation keeps it disjoint from the sample stream.
pub fn eval_rng_seed(seed: u64, trial: u64) -> u64 {
    mix64(seed ^ 0xECC, trial, 0)
}

/// One engine worker's reusable state: per-arm accumulators, per-group
/// samplers, the sampled lifetime buffer, and the arms' evaluation
/// scratch (one planner per distinct planner key and fault model).
struct Worker<'a> {
    scenarios: &'a [Scenario],
    cfg: DramConfig,
    groups: &'a [(FaultModel, Vec<usize>)],
    samplers: Vec<FaultSampler>,
    seed: u64,
    local: Vec<ScenarioResult>,
    node: NodeFaults,
    arms: ArmScratch,
    metrics: &'static EngineMetrics,
    // One enabled-check per worker instead of ~20 per trial: obs state is
    // fixed before the run starts, so the gated no-op loads inside every
    // Counter::add would be pure overhead on the (common) disabled path.
    metrics_on: bool,
    // Same treatment for the RF_CHECK invariant hook: resolved once, so
    // the off path is a single branch per trial.
    check_on: bool,
    forced_fail: Option<u64>,
}

impl<'a> Worker<'a> {
    fn new(
        scenarios: &'a [Scenario],
        cfg: DramConfig,
        groups: &'a [(FaultModel, Vec<usize>)],
        seed: u64,
    ) -> Self {
        Self {
            scenarios,
            cfg,
            groups,
            samplers: groups
                .iter()
                .map(|(model, _)| FaultSampler::new(model, &cfg))
                .collect(),
            seed,
            local: scenarios
                .iter()
                .map(|s| ScenarioResult::new(s.mechanism.label()))
                .collect(),
            node: NodeFaults::default(),
            arms: ArmScratch::new(scenarios),
            metrics: engine_metrics(),
            metrics_on: obs::metrics_enabled(),
            check_on: rf_check_enabled(),
            forced_fail: rf_check_fail_trial(),
        }
    }

    /// One trial of every group: one precomputed-probability draw (the
    /// first of this trial's stream) decides whether the lifetime is
    /// empty. A clean trial skips sampling and evaluation entirely; a full
    /// `sample_node` call would return the empty lifetime from this same
    /// stream, and `evaluate_node` never touches its RNG on empty
    /// lifetimes — bit-for-bit identical results either way.
    fn run_trial(&mut self, trial: u64) {
        for gi in 0..self.groups.len() {
            let mut sample_rng = Rng64::seed_from_u64(sample_rng_seed(self.seed, trial, gi as u64));
            if self.samplers[gi].trial_is_clean(&mut sample_rng) {
                // A clean trial contributes nothing but its trial count:
                // this is the entire cost of the zero-fault fast path.
                let members = &self.groups[gi].1;
                if self.metrics_on {
                    self.metrics.fast_path_skips.inc();
                    self.metrics.trial_evals.add(members.len() as u64);
                }
                for &si in members {
                    self.local[si].trials += 1;
                }
                // The forced-failure hook fires on clean trials too
                // (digest-less: there is no sampled population to pin), so
                // CI can exercise the repro loop on any trial index
                // without knowing the seed's fault layout.
                if self.check_on && self.forced_fail == Some(trial) {
                    rf_check_failure(
                        self.scenarios,
                        members,
                        self.seed,
                        trial,
                        gi as u64,
                        None,
                        "forced failure (RF_CHECK_FAIL_TRIAL)",
                    );
                }
                continue;
            }
            self.run_faulty(trial, gi, &mut sample_rng);
        }
    }

    /// The faulty-trial pipeline: sample the conditional lifetime, plan it
    /// once per distinct planner among the member arms, then replay every
    /// member arm from its plan. `sample_rng` must be positioned
    /// immediately after the failed gate draw.
    fn run_faulty(&mut self, trial: u64, gi: usize, sample_rng: &mut Rng64) {
        let scenarios = self.scenarios;
        let groups = self.groups;
        let members = &groups[gi].1;
        let metrics = self.metrics;
        // Deterministic merge key for every event this trial/group emits,
        // on any worker thread.
        let _obs_scope = obs::scope(trial, gi as u64);
        let _trial_span = metrics.trial_ns.start_span();
        self.samplers[gi].sample_faulty_into(sample_rng, &mut self.node);
        if self.check_on {
            let digest = Some(trial_digest(&self.node));
            if let Err(e) = self.node.check_invariants(&self.cfg) {
                rf_check_failure(
                    scenarios,
                    members,
                    self.seed,
                    trial,
                    gi as u64,
                    digest,
                    &format!("sampled population: {e}"),
                );
            }
            if self.forced_fail == Some(trial) {
                rf_check_failure(
                    scenarios,
                    members,
                    self.seed,
                    trial,
                    gi as u64,
                    digest,
                    "forced failure (RF_CHECK_FAIL_TRIAL)",
                );
            }
        }
        self.arms.plan(scenarios, members, &self.node.events);
        for &si in members {
            let mut eval_rng = Rng64::seed_from_u64(eval_rng_seed(self.seed, trial));
            let out = self
                .arms
                .replay(scenarios, si, &self.node.events, &mut eval_rng);
            if self.metrics_on {
                metrics.trial_evals.inc();
                if out.faulty {
                    metrics.faulty_nodes.inc();
                    if out.fully_repaired {
                        metrics.fully_repaired_nodes.inc();
                    } else {
                        metrics.repair_fallback_nodes.inc();
                    }
                }
                metrics.dues.add(out.dues as u64);
                metrics.transient_dues.add(out.transient_dues as u64);
                metrics.sdcs.add(out.sdcs as u64);
                metrics.replacements.add(out.replacements as u64);
                metrics.permanent_faults.add(out.permanent_faults as u64);
                metrics.unrepaired_faults.add(out.unrepaired_faults as u64);
                for (c, n) in metrics
                    .unrepaired_by_mode
                    .iter()
                    .zip(out.unrepaired_by_mode)
                {
                    c.add(n as u64);
                }
            }
            if out.faulty {
                trace_event!(target: "relsim", Level::Debug, "trial_eval",
                arm = si,
                repaired = out.fully_repaired,
                permanent_faults = out.permanent_faults,
                unrepaired = out.unrepaired_faults,
                dues = out.dues,
                sdcs = out.sdcs,
                replacements = out.replacements);
            }
            let r = &mut self.local[si];
            r.trials += 1;
            r.faulty_nodes += out.faulty as u64;
            r.fully_repaired_nodes += out.fully_repaired as u64;
            if out.fully_repaired {
                r.repair_bytes.add(out.repair_bytes as f64);
            }
            r.dues += out.dues as u64;
            r.transient_dues += out.transient_dues as u64;
            r.sdcs += out.sdcs as u64;
            r.replacements += out.replacements as u64;
            r.unrepaired_faults += out.unrepaired_faults as u64;
            r.permanent_faults += out.permanent_faults as u64;
            r.max_ways_seen = r.max_ways_seen.max(out.max_ways);
            for (a, b) in r.unrepaired_by_mode.iter_mut().zip(out.unrepaired_by_mode) {
                *a += b as u64;
            }
        }
        if self.check_on {
            if let Err(e) = self.arms.check_invariants(members) {
                rf_check_failure(
                    scenarios,
                    members,
                    self.seed,
                    trial,
                    gi as u64,
                    Some(trial_digest(&self.node)),
                    &e,
                );
            }
        }
    }
}

/// Runs every scenario arm over `run.trials` node lifetimes.
///
/// Arms with identical fault models see identical fault populations, and
/// every trial's RNG streams are keyed on `(seed, trial, group)` — never on
/// which worker thread ran the trial — so results are bit-identical for a
/// given seed at any `threads` setting.
///
/// # Panics
///
/// Panics if `scenarios` is empty or arms disagree on the DRAM config.
pub fn run_scenarios(scenarios: &[Scenario], run: &RunConfig) -> Vec<ScenarioResult> {
    assert!(!scenarios.is_empty(), "no scenarios given");
    let cfg = scenarios[0].dram;
    assert!(
        scenarios.iter().all(|s| s.dram == cfg),
        "all arms must share one DRAM geometry"
    );
    trace_event!(target: "relsim", Level::Info, "run_start",
        arms = scenarios.len(), trials = run.trials, seed = run.seed);
    if obs::metrics_enabled() || obs::enabled("relsim", Level::Info) {
        // Fold the full scenario configuration and trial count into one
        // hash so the run manifest records *what* was simulated. Gated so
        // the disabled path stays free of JSON serialization.
        let mut config = String::new();
        for s in scenarios {
            config.push_str(&s.to_json().to_pretty());
        }
        config.push_str(&run.trials.to_string());
        obs::note_run_context(
            run.seed,
            run.threads.max(1) as u64,
            obs::fnv1a(config.as_bytes()),
        );
    }
    // Group arms by fault model so each group shares samples.
    let mut groups: Vec<(FaultModel, Vec<usize>)> = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        if let Some((_, idxs)) = groups.iter_mut().find(|(m, _)| *m == s.fault_model) {
            idxs.push(i);
        } else {
            groups.push((s.fault_model, vec![i]));
        }
    }

    let threads = run.threads.max(1);
    let chunk = run.resolved_chunk_size(threads);
    // Work-stealing chunk queue: workers claim contiguous trial ranges
    // from one atomic cursor. Which worker runs a trial never affects its
    // result (RNG streams are keyed on the trial index and every local
    // accumulation merges commutatively), so dynamic scheduling keeps
    // determinism while absorbing the skew between all-clean chunks and
    // chunks dense in faulty nodes.
    let next_chunk = AtomicU64::new(0);
    let mut partials: Vec<Vec<ScenarioResult>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let groups = &groups;
            let next_chunk = &next_chunk;
            let seed = run.seed;
            let trials = run.trials;
            handles.push(scope.spawn(move || {
                let mut worker = Worker::new(scenarios, cfg, groups, seed);
                loop {
                    let lo = next_chunk.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= trials {
                        break;
                    }
                    for trial in lo..(lo + chunk).min(trials) {
                        worker.run_trial(trial);
                    }
                }
                worker.local
            }));
        }
        for h in handles {
            partials.push(h.join().expect("worker thread panicked"));
        }
    });

    let mut results: Vec<ScenarioResult> = scenarios
        .iter()
        .map(|s| ScenarioResult::new(s.mechanism.label()))
        .collect();
    for partial in &partials {
        for (r, p) in results.iter_mut().zip(partial) {
            r.merge(p);
        }
    }
    for r in &results {
        trace_event!(target: "relsim", Level::Info, "arm_result",
            label = r.label.as_str(),
            faulty = r.faulty_nodes,
            repaired = r.fully_repaired_nodes,
            dues = r.dues,
            sdcs = r.sdcs,
            replacements = r.replacements);
    }
    results
}

/// Raw fault-population statistics (no mechanism), for the paper's
/// Figure 9 sensitivity study.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PopulationStats {
    /// Node lifetimes sampled.
    pub trials: u64,
    /// Nodes with ≥ 1 permanent fault.
    pub faulty_nodes: u64,
    /// DIMMs with ≥ 1 permanent fault.
    pub faulty_dimms: u64,
    /// DIMMs with permanent faults on ≥ 2 devices (the DUE/SDC-capable
    /// population).
    pub multi_device_dimms: u64,
}

impl PopulationStats {
    /// Scales a count to a system of `nodes` nodes.
    pub fn per_system(&self, count: u64, nodes: u64) -> f64 {
        count as f64 / self.trials as f64 * nodes as f64
    }
}

/// Samples `trials` node lifetimes and reports population statistics.
pub fn fault_population(
    model: &FaultModel,
    cfg: &DramConfig,
    trials: u64,
    seed: u64,
    threads: usize,
) -> PopulationStats {
    let threads = threads.max(1);
    let chunk = (trials / (64 * threads as u64)).max(256);
    let next_chunk = AtomicU64::new(0);
    let mut totals = PopulationStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next_chunk = &next_chunk;
            handles.push(scope.spawn(move || {
                let mut stats = PopulationStats::default();
                let sampler = FaultSampler::new(model, cfg);
                let mut node = NodeFaults::default();
                // Sorted (dimm, device) scratch replacing a per-trial
                // HashMap<dimm, HashSet<device>>.
                let mut devs: Vec<(u32, u32)> = Vec::new();
                let population_trials = obs::counter("relsim.population_trials");
                let population_faulty = obs::counter("relsim.population_faulty");
                loop {
                    let lo = next_chunk.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= trials {
                        break;
                    }
                    let hi = (lo + chunk).min(trials);
                    for trial in lo..hi {
                        let mut rng = Rng64::seed_from_u64(mix64(seed, trial, 0));
                        stats.trials += 1;
                        population_trials.inc();
                        // Zero-fault fast path (see run_scenarios).
                        if sampler.trial_is_clean(&mut rng) {
                            continue;
                        }
                        let _obs_scope = obs::scope(trial, 0);
                        sampler.sample_faulty_into(&mut rng, &mut node);
                        if !node.is_faulty() {
                            continue;
                        }
                        stats.faulty_nodes += 1;
                        population_faulty.inc();
                        devs.clear();
                        for e in node.permanent() {
                            for r in &e.regions {
                                devs.push((r.rank.dimm_index(cfg), r.device));
                            }
                        }
                        devs.sort_unstable();
                        devs.dedup();
                        // Each DIMM is now a contiguous run of distinct
                        // devices.
                        let mut i = 0;
                        while i < devs.len() {
                            let dimm = devs[i].0;
                            let mut j = i;
                            while j < devs.len() && devs[j].0 == dimm {
                                j += 1;
                            }
                            stats.faulty_dimms += 1;
                            stats.multi_device_dimms += (j - i >= 2) as u64;
                            i = j;
                        }
                    }
                }
                stats
            }));
        }
        for h in handles {
            let s = h.join().expect("worker thread panicked");
            totals.trials += s.trials;
            totals.faulty_nodes += s.faulty_nodes;
            totals.faulty_dimms += s.faulty_dimms;
            totals.multi_device_dimms += s.multi_device_dimms;
        }
    });
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mechanism, ReplacementPolicy};

    #[test]
    fn deterministic_across_thread_counts() {
        // Bit-identical results at every threads setting: RNG streams are
        // keyed on (seed, trial, group), never on the worker thread. The
        // companion contract — the merged *trace stream* is byte-identical
        // across thread counts — is asserted in the workspace-level
        // `tests/obs_determinism.rs`, which owns a whole process (the
        // trace filter is process-global and would leak into the unit
        // tests running in parallel here).
        let arms = vec![
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
                .with_replacement(ReplacementPolicy::None),
            Scenario::isca16_baseline().with_mechanism(Mechanism::Ppr),
        ];
        let reference = run_scenarios(
            &arms,
            &RunConfig {
                trials: 300,
                seed: 42,
                threads: 1,
                chunk_size: 0,
            },
        );
        for threads in [2, 4, 7] {
            let r = run_scenarios(
                &arms,
                &RunConfig {
                    trials: 300,
                    seed: 42,
                    threads,
                    chunk_size: 0,
                },
            );
            assert_eq!(r, reference, "threads={threads} diverged from threads=1");
        }
        // And a different seed gives a different population.
        let other = run_scenarios(
            &arms,
            &RunConfig {
                trials: 300,
                seed: 43,
                threads: 1,
                chunk_size: 0,
            },
        );
        assert_ne!(other, reference);
    }

    #[test]
    fn deterministic_across_chunk_sizes() {
        // The work-stealing chunk queue changes only *which worker* runs a
        // trial, never its RNG stream, so any (threads, chunk_size) pair
        // must reproduce the single-threaded result bit for bit — including
        // a pathological chunk of 1 (maximal stealing) and a chunk larger
        // than the whole run (one worker does everything).
        let arms = vec![
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
                .with_replacement(ReplacementPolicy::None),
            Scenario::isca16_baseline().with_mechanism(Mechanism::Ppr),
        ];
        let reference = run_scenarios(
            &arms,
            &RunConfig {
                trials: 300,
                seed: 42,
                threads: 1,
                chunk_size: 0,
            },
        );
        for threads in [1usize, 2, 4] {
            for chunk_size in [1u64, 257, 8192] {
                let r = run_scenarios(
                    &arms,
                    &RunConfig {
                        trials: 300,
                        seed: 42,
                        threads,
                        chunk_size,
                    },
                );
                assert_eq!(
                    r, reference,
                    "threads={threads} chunk_size={chunk_size} diverged"
                );
            }
        }
    }

    #[test]
    fn chunk_size_resolution() {
        // 0 = auto: trials/(64*threads), floored at 256. Explicit values
        // pass through untouched.
        let cfg = |trials, chunk_size| RunConfig {
            trials,
            seed: 0,
            threads: 1,
            chunk_size,
        };
        assert_eq!(cfg(1_000_000, 0).resolved_chunk_size(4), 3906);
        assert_eq!(cfg(1_000, 0).resolved_chunk_size(4), 256);
        assert_eq!(cfg(1_000, 0).resolved_chunk_size(0), 256);
        assert_eq!(cfg(1_000, 7).resolved_chunk_size(4), 7);
    }

    #[test]
    fn shared_population_between_arms() {
        let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
        let arms = vec![
            base.clone().with_mechanism(Mechanism::None),
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
            base.with_mechanism(Mechanism::Ppr),
        ];
        let r = run_scenarios(&arms, &RunConfig::quick(400));
        // Same fault model ⇒ identical fault populations.
        assert_eq!(r[0].faulty_nodes, r[1].faulty_nodes);
        assert_eq!(r[0].permanent_faults, r[2].permanent_faults);
        // And repair orders as the paper's Figure 10: RF ≥ PPR ≥ none.
        assert!(r[1].fully_repaired_nodes >= r[2].fully_repaired_nodes);
        assert_eq!(r[0].fully_repaired_nodes, 0);
    }

    #[test]
    fn coverage_math() {
        let mut r = ScenarioResult::new("x".into());
        r.trials = 10;
        r.faulty_nodes = 4;
        r.fully_repaired_nodes = 3;
        for b in [64.0, 128.0, 4096.0] {
            r.repair_bytes.add(b);
        }
        assert!((r.coverage() - 0.75).abs() < 1e-12);
        assert!((r.coverage_at_bytes(128) - 0.5).abs() < 1e-12);
        assert_eq!(r.bytes_for_coverage(0.5), Some(128));
        assert_eq!(r.bytes_for_coverage(0.9), None);
        assert!((r.per_system(2, 100) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn population_stats_reasonable() {
        use relaxfault_faults::{FaultModel, FitRates};
        let cfg = relaxfault_dram::DramConfig::isca16_reliability();
        let model = FaultModel::isca16(FitRates::cielo(), 6.0);
        let p = fault_population(&model, &cfg, 4000, 99, 4);
        assert_eq!(p.trials, 4000);
        let frac = p.faulty_nodes as f64 / p.trials as f64;
        assert!((0.08..0.17).contains(&frac), "faulty fraction {frac}");
        assert!(p.faulty_dimms >= p.faulty_nodes);
        assert!(p.multi_device_dimms < p.faulty_dimms);
    }
}
