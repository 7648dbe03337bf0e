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
use relaxfault_util::obs::{self, Counter, Histogram};
use relaxfault_util::rng::{mix64, Rng64};
use relaxfault_util::stats::{wilson_interval, Ecdf};
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
    /// Repair bytes of the fully repaired faulty nodes, as a count per
    /// distinct size.
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
    pub fn coverage_at_bytes(&self, bytes: u64) -> f64 {
        if self.faulty_nodes == 0 {
            return 0.0;
        }
        let within =
            self.repair_bytes.fraction_at_most(bytes as f64) * self.repair_bytes.len() as f64;
        within / self.faulty_nodes as f64
    }

    /// The LLC budget needed to reach a given fraction of the faulty nodes
    /// (e.g. the paper's "90% of nodes with at most 82 KiB").
    pub fn bytes_for_coverage(&self, target: f64) -> Option<u64> {
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

/// One empty accumulator per arm.
fn fresh_results(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    scenarios
        .iter()
        .map(|s| ScenarioResult::new(s.mechanism.label()))
        .collect()
}

/// Observability handles for the Monte Carlo hot loop, resolved once so
/// per-trial updates are a relaxed load and a branch when disabled. Only
/// what a `ScenarioResult` does not record is counted per trial; the
/// outcome counters come from the merged results ([`publish_outcomes`]).
struct EngineMetrics {
    fast_path_skips: Counter,
    trial_ns: Histogram,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        fast_path_skips: obs::counter("relsim.fast_path_skips"),
        trial_ns: obs::histogram("relsim.trial_ns"),
    })
}

/// Adds a finished run's outcome totals, summed over arms, to the
/// `relsim.*` outcome counters. Called once per run with its last cut,
/// which holds every trial.
fn publish_outcomes(results: &[ScenarioResult]) {
    let publish = |name: &str, field: &dyn Fn(&ScenarioResult) -> u64| {
        obs::counter(name).add(results.iter().map(field).sum());
    };
    publish("relsim.trial_evals", &|r| r.trials);
    publish("relsim.faulty_nodes", &|r| r.faulty_nodes);
    publish("relsim.fully_repaired_nodes", &|r| r.fully_repaired_nodes);
    publish("relsim.repair_fallback_nodes", &|r| {
        r.faulty_nodes - r.fully_repaired_nodes
    });
    publish("relsim.dues", &|r| r.dues);
    publish("relsim.transient_dues", &|r| r.transient_dues);
    publish("relsim.sdcs", &|r| r.sdcs);
    publish("relsim.replacements", &|r| r.replacements);
    publish("relsim.permanent_faults", &|r| r.permanent_faults);
    publish("relsim.unrepaired_faults", &|r| r.unrepaired_faults);
    for (i, mode) in FaultMode::ALL.iter().enumerate() {
        let name = format!("relsim.unrepaired.{}", mode.key());
        publish(&name, &|r| r.unrepaired_by_mode[i]);
    }
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
    // One enabled-check per worker instead of one per clean trial: obs
    // state is fixed before the run starts, so the gated no-op load inside
    // Counter::inc would be pure overhead on the (common) disabled path.
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
            local: fresh_results(scenarios),
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
        let _trial_span = self.metrics.trial_ns.start_span();
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

/// The engine's one chunk scheduler. `run.threads` workers, each built by
/// `new_worker` on its own thread, claim chunks of each segment
/// `0..cuts[0]`, `cuts[0]..cuts[1]`, … from that segment's atomic cursor
/// and pass every trial to `run_trial`. A worker whose segment runs out
/// hands back `end_segment`'s partial and moves on, so no worker waits at
/// a cut. Returns each worker's partials, one per segment. Which worker
/// runs a trial never affects its result, so work stealing keeps
/// determinism while absorbing the skew between clean and faulty chunks.
fn schedule<W, P: Send>(
    run: &RunConfig,
    cuts: &[u64],
    new_worker: impl Fn() -> W + Sync,
    run_trial: impl Fn(&mut W, u64) + Sync,
    end_segment: impl Fn(&mut W) -> P + Sync,
) -> Vec<Vec<P>> {
    let threads = run.threads.max(1);
    let chunk = run.resolved_chunk_size(threads);
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    let segments: Vec<(AtomicU64, u64)> = starts
        .zip(cuts)
        .map(|(lo, &hi)| (AtomicU64::new(lo), hi))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = new_worker();
                    let mut partials = Vec::with_capacity(segments.len());
                    for (cursor, end) in &segments {
                        loop {
                            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= *end {
                                break;
                            }
                            for trial in lo..(lo + chunk).min(*end) {
                                run_trial(&mut worker, trial);
                            }
                        }
                        partials.push(end_segment(&mut worker));
                    }
                    partials
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Runs every scenario arm over `run.trials` node lifetimes: the one-cut
/// case of [`run_prefixes`].
///
/// Arms with identical fault models see identical fault populations, and
/// every trial's RNG streams are keyed on `(seed, trial, group)` — never on
/// which worker thread ran the trial — so results are bit-identical for a
/// given seed at any `threads` setting.
pub fn run_scenarios(scenarios: &[Scenario], run: &RunConfig) -> Vec<ScenarioResult> {
    run_prefixes(scenarios, run, &[run.trials])
        .pop()
        .expect("one cut yields one result set")
}

/// Runs every scenario arm over `run.trials` node lifetimes and returns
/// the cumulative results after each of the `cuts` trial counts. Entry `k`
/// equals [`run_scenarios`] at `trials: cuts[k]` bit for bit: a trial's
/// result depends only on `(seed, trial index)`, and results merge
/// commutatively.
///
/// # Panics
///
/// Panics if `scenarios` is empty, arms disagree on the DRAM config, or
/// `cuts` is not nondecreasing with its last entry equal to `run.trials`.
pub fn run_prefixes(
    scenarios: &[Scenario],
    run: &RunConfig,
    cuts: &[u64],
) -> Vec<Vec<ScenarioResult>> {
    assert!(!scenarios.is_empty(), "no scenarios given");
    let cfg = scenarios[0].dram;
    assert!(
        scenarios.iter().all(|s| s.dram == cfg),
        "all arms must share one DRAM geometry"
    );
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]) && cuts.last() == Some(&run.trials),
        "cuts {cuts:?} must be nondecreasing and end at run.trials = {}",
        run.trials
    );
    if obs::metrics_enabled() {
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

    let partials = schedule(
        run,
        cuts,
        || Worker::new(scenarios, cfg, &groups, run.seed),
        Worker::run_trial,
        |w| std::mem::replace(&mut w.local, fresh_results(scenarios)),
    );

    // Merge segment by segment; only the cuts before the last are cloned.
    let mut results = fresh_results(scenarios);
    let mut cumulative = Vec::with_capacity(cuts.len());
    for k in 0..cuts.len() {
        for worker in &partials {
            for (r, p) in results.iter_mut().zip(&worker[k]) {
                r.merge(p);
            }
        }
        if k + 1 < cuts.len() {
            cumulative.push(results.clone());
        }
    }
    publish_outcomes(&results);
    cumulative.push(results);
    cumulative
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

/// Samples `run.trials` node lifetimes and reports population statistics.
/// The lifetimes are the ones [`run_scenarios`] samples for a one-group
/// run with the same `run`.
pub fn fault_population(model: &FaultModel, cfg: &DramConfig, run: &RunConfig) -> PopulationStats {
    let population_trials = obs::counter("relsim.population_trials");
    let population_faulty = obs::counter("relsim.population_faulty");
    let partials = schedule(
        run,
        &[run.trials],
        // Per worker: its tallies, its sampler, the lifetime buffer, and a
        // sorted (dimm, device) scratch replacing a per-trial
        // HashMap<dimm, HashSet<device>>.
        || {
            let sampler = FaultSampler::new(model, cfg);
            let devs: Vec<(u32, u32)> = Vec::new();
            (
                PopulationStats::default(),
                sampler,
                NodeFaults::default(),
                devs,
            )
        },
        |(stats, sampler, node, devs), trial| {
            let mut rng = Rng64::seed_from_u64(sample_rng_seed(run.seed, trial, 0));
            stats.trials += 1;
            population_trials.inc();
            // Zero-fault fast path (see Worker::run_trial).
            if sampler.trial_is_clean(&mut rng) {
                return;
            }
            sampler.sample_faulty_into(&mut rng, node);
            if !node.is_faulty() {
                return;
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
            // Each DIMM is now a contiguous run of distinct devices.
            for dimm in devs.chunk_by(|a, b| a.0 == b.0) {
                stats.faulty_dimms += 1;
                stats.multi_device_dimms += (dimm.len() >= 2) as u64;
            }
        },
        |(stats, ..)| std::mem::take(stats),
    );
    let mut totals = PopulationStats::default();
    for s in partials.iter().flatten() {
        totals.trials += s.trials;
        totals.faulty_nodes += s.faulty_nodes;
        totals.faulty_dimms += s.faulty_dimms;
        totals.multi_device_dimms += s.multi_device_dimms;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mechanism, ReplacementPolicy};

    #[test]
    fn deterministic_across_threads_and_chunk_sizes() {
        // Bit-identical results at every (threads, chunk_size) pair: RNG
        // streams are keyed on (seed, trial, group), never on the worker
        // thread, and the chunk queue changes only *which worker* runs a
        // trial. The grid includes a chunk of 1 (maximal stealing) and one
        // larger than the whole run (one worker does everything). The
        // companion contract — the metrics snapshot's counters are
        // identical across thread counts — is asserted in the
        // workspace-level `tests/obs_determinism.rs`, which owns a whole
        // process (the metrics registry is process-global and would leak
        // into the unit tests running in parallel here).
        let arms = vec![
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
                .with_replacement(ReplacementPolicy::None),
            Scenario::isca16_baseline().with_mechanism(Mechanism::Ppr),
        ];
        let run = |seed, threads, chunk_size| {
            run_scenarios(
                &arms,
                &RunConfig {
                    trials: 300,
                    seed,
                    threads,
                    chunk_size,
                },
            )
        };
        let reference = run(42, 1, 0);
        for threads in [1usize, 2, 4, 7] {
            for chunk_size in [0u64, 1, 257, 8192] {
                assert_eq!(
                    run(42, threads, chunk_size),
                    reference,
                    "threads={threads} chunk_size={chunk_size} diverged"
                );
            }
        }
        // And a different seed gives a different population.
        assert_ne!(run(43, 1, 0), reference);
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
        let run = RunConfig {
            seed: 99,
            ..RunConfig::quick(4000)
        };
        let p = fault_population(&model, &cfg, &run);
        assert_eq!(p.trials, 4000);
        let frac = p.faulty_nodes as f64 / p.trials as f64;
        assert!((0.08..0.17).contains(&frac), "faulty fraction {frac}");
        assert!(p.faulty_dimms >= p.faulty_nodes);
        assert!(p.multi_device_dimms < p.faulty_dimms);
    }
}
