//! The traced run: a single-threaded replay of each workload through the
//! library's public functions, with a span around every call into a
//! layer, checked against the program's own results.
//!
//! * Reliability: each trial's streams come from `sample_rng_seed` and
//!   `eval_rng_seed`, as in `run_scenarios`. The zero-fault gate is timed
//!   per block of trials (one gate costs less than a clock read), faulty
//!   trials are sampled with `sample_faulty_into`, and every arm is
//!   evaluated by [`replay_eval`], a copy of `evaluate_events_with` with
//!   spans around `classify_arrival` and `try_repair_with`. Each replayed
//!   outcome must equal an untimed `evaluate_node_with` on the same
//!   stream, and the per-arm totals must equal `run_scenarios`.
//! * Perf sweep: every `Simulation::run` inside a span; the simulated
//!   statistics must equal an untraced sweep's.
//! * Fleet: `FleetSim::new`, each `step` without persistence, each
//!   `checkpoint().save()`, `FleetCheckpoint::load` and `FleetSim::resume`
//!   in their own spans; the outcome must equal an untraced run's.
//!
//! The traced total is the summed duration of the root spans, so the
//! untimed checks above do not count as tracing overhead.

use crate::spans::{SpanName, Tracer};
use crate::workloads::{
    check_fleet, digest_perf, digest_reliability, fleet_arms, fleet_config, perf_setup, perf_sweep,
    reliability_setup, result_fields, run_reliability, run_rep, FleetOutcome, PerfRun, Scale,
    Workload,
};
use crate::Metric;
use relaxfault_core::plan::{FreeFault, PlanScratch, Ppr, RelaxFault, RepairMechanism};
use relaxfault_ecc::EccOutcome;
use relaxfault_faults::{FaultEvent, FaultRegion, NodeFaults};
use relaxfault_relsim::engine::{eval_rng_seed, sample_rng_seed};
use relaxfault_relsim::fleet::latest_checkpoint;
use relaxfault_relsim::{
    evaluate_node_with, EvalScratch, FleetCheckpoint, FleetSim, Mechanism, NodeOutcome,
    ReplacementPolicy, Scenario, ScenarioResult,
};
use relaxfault_util::persist::Persist;
use relaxfault_util::rng::{Rng, Rng64};
use relaxfault_util::stats::Ecdf;
use std::path::Path;
use std::time::Instant;

/// Trials per timed zero-fault-gate block.
const GATE_BLOCK: u64 = 4096;

/// Faulty trials whose raw spans are kept for the spans CSV.
const RAW_TRIALS: u64 = 1000;

/// Planner families, in metric order.
const MECHS: [&str; 3] = ["relaxfault", "freefault", "ppr"];

/// Runs one traced repetition of `w` and returns its per-layer metrics and
/// the tracer holding its spans.
///
/// # Errors
///
/// Reports a failed library call or any disagreement between the replay
/// and the program.
pub fn trace(
    w: Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<Metric>, Tracer), String> {
    match w {
        Workload::Reliability1x => trace_reliability(1.0, scale.trials_1x, seed),
        Workload::Reliability10x => trace_reliability(10.0, scale.trials_10x, seed),
        Workload::PerfSweep => trace_perf(scale, seed),
        Workload::FleetCkpt => trace_fleet(scale, seed, dir),
    }
}

fn push(m: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Share `part / whole`, 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The metrics every traced workload reports: total traced time, the
/// untraced single-thread time of the same work, and the overhead.
fn trace_totals(m: &mut Vec<Metric>, tr: &Tracer, untraced_s: f64) {
    let total_s = tr.root_ns() as f64 / 1e9;
    push(m, "trace.total_s", total_s, "s");
    push(m, "trace.untraced_s", untraced_s, "s");
    push(m, "trace.overhead_frac", total_s / untraced_s - 1.0, "frac");
}

/// Pushes `<span>.calls`, `.self_s` and `.self_frac` (self time as a
/// share of the traced total).
fn span_basics(m: &mut Vec<Metric>, tr: &Tracer, span: &str) {
    let s = tr.stats(span);
    push(m, format!("{span}.calls"), s.calls as f64, "count");
    push(m, format!("{span}.self_s"), s.self_ns() as f64 / 1e9, "s");
    push(
        m,
        format!("{span}.self_frac"),
        ratio(s.self_ns() as f64, tr.root_ns() as f64),
        "frac",
    );
}

/// Counts taken at the layer boundaries of the reliability replay.
#[derive(Default)]
struct Counters {
    clean: u64,
    sampled_events: u64,
    classify_live: u64,
    classify_due: u64,
    classify_sdc: u64,
    plan_attempts: [u64; 3],
    plan_accepts: [u64; 3],
}

/// One arm's evaluation state: the planner (none for no repair) and the
/// live-fault planes `evaluate_events_with` keeps.
struct ArmState {
    planner: Option<(Box<dyn RepairMechanism>, usize, SpanName)>,
    plan: PlanScratch,
    live_dimms: Vec<u32>,
    live_regions: Vec<FaultRegion>,
    event_dimms: Vec<u32>,
}

impl ArmState {
    fn new(s: &Scenario, plan_spans: &[SpanName; 3]) -> Self {
        let planner: Option<(Box<dyn RepairMechanism>, usize)> = match s.mechanism {
            Mechanism::None => None,
            Mechanism::RelaxFault { max_ways } => {
                Some((Box::new(RelaxFault::new(&s.dram, &s.llc, max_ways)), 0))
            }
            Mechanism::FreeFault { max_ways } => {
                Some((Box::new(FreeFault::new(&s.dram, &s.llc, max_ways)), 1))
            }
            Mechanism::Ppr => Some((Box::new(Ppr::new(&s.dram)), 2)),
            Mechanism::PprCustom {
                banks_per_group,
                spares_per_group,
            } => Some((
                Box::new(Ppr::with_spares(&s.dram, banks_per_group, spares_per_group)),
                2,
            )),
        };
        Self {
            planner: planner.map(|(p, k)| (p, k, plan_spans[k])),
            plan: PlanScratch::new(),
            live_dimms: Vec::new(),
            live_regions: Vec::new(),
            event_dimms: Vec::new(),
        }
    }

    fn drop_dimm(&mut self, dimm: u32) {
        let mut keep = self.live_dimms.iter();
        self.live_regions
            .retain(|_| *keep.next().expect("planes in step") != dimm);
        self.live_dimms.retain(|&d| d != dimm);
    }
}

/// `evaluate_events_with`, replayed step for step with spans around the
/// ECC classification and the repair attempt.
fn replay_eval(
    s: &Scenario,
    events: &[FaultEvent],
    rng: &mut Rng64,
    st: &mut ArmState,
    tr: &mut Tracer,
    classify: SpanName,
    c: &mut Counters,
) -> NodeOutcome {
    let cfg = &s.dram;
    let mut out = NodeOutcome::default();
    if events.is_empty() {
        return out;
    }
    let mut planner_live = false;
    st.live_dimms.clear();
    st.live_regions.clear();
    for event in events {
        let permanent = event.is_permanent();
        if permanent {
            out.faulty = true;
            out.permanent_faults += 1;
        }
        tr.enter(classify);
        let mut outcome =
            s.ecc
                .classify_arrival(cfg, &event.regions, permanent, &st.live_regions, rng);
        tr.exit();
        c.classify_live += st.live_regions.len() as u64;
        c.classify_due += (outcome == EccOutcome::Due) as u64;
        c.classify_sdc += (outcome == EccOutcome::Sdc) as u64;
        st.event_dimms.clear();
        st.event_dimms
            .extend(event.regions.iter().map(|r| r.rank.dimm_index(cfg)));

        let repaired = permanent
            && match &mut st.planner {
                None => false,
                Some((planner, k, span)) => {
                    tr.enter(*span);
                    if !planner_live {
                        planner.reset();
                    }
                    let ok = planner.try_repair_with(&event.regions, &mut st.plan);
                    tr.exit();
                    planner_live = true;
                    c.plan_attempts[*k] += 1;
                    c.plan_accepts[*k] += ok as u64;
                    ok
                }
            };
        if outcome == EccOutcome::Due
            && repaired
            && s.ecc.p_repair_preempts_due > 0.0
            && rng.gen_bool(s.ecc.p_repair_preempts_due)
        {
            outcome = EccOutcome::Corrected;
        }
        match outcome {
            EccOutcome::Corrected => {}
            EccOutcome::Due => {
                out.dues += 1;
                if !permanent {
                    out.transient_dues += 1;
                } else if s.replacement == ReplacementPolicy::AfterDue {
                    for i in 0..st.event_dimms.len() {
                        out.replacements += 1;
                        st.drop_dimm(st.event_dimms[i]);
                    }
                    continue;
                }
            }
            EccOutcome::Sdc => out.sdcs += 1,
        }
        if !permanent || repaired {
            continue;
        }
        out.unrepaired_faults += 1;
        out.unrepaired_by_mode[event.mode as usize] += 1;
        for r in event.regions.iter() {
            st.live_dimms.push(r.rank.dimm_index(cfg));
            st.live_regions.push(*r);
        }
        if let ReplacementPolicy::AfterErrors { trigger_prob } = s.replacement {
            if rng.gen_bool(trigger_prob) {
                for i in 0..st.event_dimms.len() {
                    out.replacements += 1;
                    st.drop_dimm(st.event_dimms[i]);
                }
            }
        }
    }
    out.fully_repaired = out.faulty && out.unrepaired_faults == 0;
    if planner_live {
        if let Some((planner, _, _)) = &st.planner {
            out.repair_bytes = planner.bytes_used();
            out.max_ways = planner.max_ways_used();
        }
    }
    out
}

/// Adds one trial's outcome to an arm's totals, as the engine does.
fn accumulate(r: &mut ScenarioResult, out: &NodeOutcome) {
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

fn empty_result(s: &Scenario) -> ScenarioResult {
    ScenarioResult {
        label: s.mechanism.label(),
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

fn trace_reliability(
    fit_scale: f64,
    trials: u64,
    seed: u64,
) -> Result<(Vec<Metric>, Tracer), String> {
    let (arms, sampler) = reliability_setup(fit_scale);
    if arms.iter().any(|a| a.fault_model != arms[0].fault_model) {
        return Err("the replay assumes one fault-model group".into());
    }
    let t = Instant::now();
    let reference = run_reliability(&arms, trials, seed, 1);
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new(RAW_TRIALS);
    let gate = tr.name("faults.gate");
    let sample = tr.name("faults.sample");
    let eval = tr.name("relsim.eval");
    let classify = tr.name("ecc.classify");
    let plan_spans = [
        tr.name("core.plan.relaxfault"),
        tr.name("core.plan.freefault"),
        tr.name("core.plan.ppr"),
    ];
    let mut states: Vec<ArmState> = arms.iter().map(|a| ArmState::new(a, &plan_spans)).collect();
    let mut shadow: Vec<EvalScratch> = arms.iter().map(|_| EvalScratch::new()).collect();
    let mut totals: Vec<ScenarioResult> = arms.iter().map(empty_result).collect();
    let mut c = Counters::default();
    let mut node = NodeFaults::default();
    let mut faulty: Vec<(u64, Rng64)> = Vec::new();
    let mut block = 0;
    while block < trials {
        let hi = (block + GATE_BLOCK).min(trials);
        tr.enter(gate);
        for trial in block..hi {
            let mut rng = Rng64::seed_from_u64(sample_rng_seed(seed, trial, 0));
            if !sampler.trial_is_clean(&mut rng) {
                faulty.push((trial, rng));
            }
        }
        tr.exit();
        c.clean += hi - block - faulty.len() as u64;
        for (trial, mut rng) in faulty.drain(..) {
            tr.begin_trial(trial);
            tr.enter(sample);
            sampler.sample_faulty_into(&mut rng, &mut node);
            tr.exit();
            c.sampled_events += node.events.len() as u64;
            for (i, arm) in arms.iter().enumerate() {
                tr.enter(eval);
                let mut eval_rng = Rng64::seed_from_u64(eval_rng_seed(seed, trial));
                let out = replay_eval(
                    arm,
                    &node.events,
                    &mut eval_rng,
                    &mut states[i],
                    &mut tr,
                    classify,
                    &mut c,
                );
                tr.exit();
                let mut shadow_rng = Rng64::seed_from_u64(eval_rng_seed(seed, trial));
                let expect = evaluate_node_with(arm, &node, &mut shadow_rng, &mut shadow[i]);
                if out != expect {
                    return Err(format!(
                        "trial {trial}, arm {}: replay gave {out:?}, evaluate_node_with {expect:?}",
                        totals[i].label
                    ));
                }
                accumulate(&mut totals[i], &out);
            }
            tr.end_trial();
        }
        for r in &mut totals {
            r.trials += hi - block;
        }
        block = hi;
    }
    for (mine, theirs) in totals.iter().zip(&reference) {
        if digest_reliability(std::slice::from_ref(mine))
            != digest_reliability(std::slice::from_ref(theirs))
        {
            return Err(format!(
                "arm {}: replay totals {:?} differ from run_scenarios {:?}",
                mine.label,
                result_fields(mine),
                result_fields(theirs)
            ));
        }
    }

    let mut m = Vec::new();
    trace_totals(&mut m, &tr, untraced_s);
    let g = tr.stats("faults.gate");
    push(&mut m, "faults.gate.trials", trials as f64, "count");
    push(
        &mut m,
        "faults.gate.clean_frac",
        c.clean as f64 / trials as f64,
        "frac",
    );
    push(
        &mut m,
        "faults.gate.ns_per_trial",
        g.total_ns as f64 / trials as f64,
        "ns",
    );
    push(
        &mut m,
        "faults.gate.self_frac",
        ratio(g.self_ns() as f64, tr.root_ns() as f64),
        "frac",
    );
    let s = tr.stats("faults.sample");
    span_basics(&mut m, &tr, "faults.sample");
    push(
        &mut m,
        "faults.sample.ns_p50",
        s.duration_percentile(50.0) as f64,
        "ns",
    );
    push(
        &mut m,
        "faults.sample.ns_p99",
        s.duration_percentile(99.0) as f64,
        "ns",
    );
    push(
        &mut m,
        "faults.sample.events_per_call",
        ratio(c.sampled_events as f64, s.calls as f64),
        "count",
    );
    let e = tr.stats("ecc.classify");
    let calls = e.calls as f64;
    span_basics(&mut m, &tr, "ecc.classify");
    push(
        &mut m,
        "ecc.classify.ns_p50",
        e.duration_percentile(50.0) as f64,
        "ns",
    );
    push(
        &mut m,
        "ecc.classify.ns_p99",
        e.duration_percentile(99.0) as f64,
        "ns",
    );
    push(
        &mut m,
        "ecc.classify.live_mean",
        ratio(c.classify_live as f64, calls),
        "count",
    );
    push(
        &mut m,
        "ecc.classify.due_frac",
        ratio(c.classify_due as f64, calls),
        "frac",
    );
    push(
        &mut m,
        "ecc.classify.sdc_frac",
        ratio(c.classify_sdc as f64, calls),
        "frac",
    );
    let mut plan_durations = Vec::new();
    for (k, mech) in MECHS.iter().enumerate() {
        let span = format!("core.plan.{mech}");
        let p = tr.stats(&span);
        push(
            &mut m,
            format!("{span}.attempts"),
            c.plan_attempts[k] as f64,
            "count",
        );
        push(
            &mut m,
            format!("{span}.accept_frac"),
            ratio(c.plan_accepts[k] as f64, c.plan_attempts[k] as f64),
            "frac",
        );
        push(
            &mut m,
            format!("{span}.self_s"),
            p.self_ns() as f64 / 1e9,
            "s",
        );
        push(
            &mut m,
            format!("{span}.self_frac"),
            ratio(p.self_ns() as f64, tr.root_ns() as f64),
            "frac",
        );
        plan_durations.extend(p.durations);
    }
    plan_durations.sort_unstable();
    let plan_pct = |p: f64| {
        if plan_durations.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&plan_durations, p) as f64
        }
    };
    push(&mut m, "core.plan.ns_p50", plan_pct(50.0), "ns");
    push(&mut m, "core.plan.ns_p99", plan_pct(99.0), "ns");
    push(&mut m, "core.plan.ns_max", plan_pct(100.0), "ns");
    span_basics(&mut m, &tr, "relsim.eval");
    push(
        &mut m,
        "relsim.faulty_frac",
        totals[0].faulty_nodes as f64 / trials as f64,
        "frac",
    );
    Ok((m, tr))
}

/// Span names of the shared runs, in `LOSSES` order.
const SHARED_SPANS: [&str; 4] = [
    "perfsim.shared.none",
    "perfsim.shared.rand100k",
    "perfsim.shared.ways1",
    "perfsim.shared.ways4",
];

fn trace_perf(scale: &Scale, seed: u64) -> Result<(Vec<Metric>, Tracer), String> {
    let (cfg, workloads) = perf_setup(scale.perf_instructions);
    let t = Instant::now();
    let reference = perf_sweep(&cfg, &workloads, seed, |_, run| run())?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new(u64::MAX);
    let solo = tr.name("perfsim.solo");
    let shared = SHARED_SPANS.map(|n| tr.name(n));
    let mut run_index = 0;
    let traced = perf_sweep(&cfg, &workloads, seed, |kind, run| {
        tr.begin_trial(run_index);
        run_index += 1;
        tr.enter(match kind {
            PerfRun::Solo => solo,
            PerfRun::Shared(i) => shared[i],
        });
        let r = run();
        tr.exit();
        tr.end_trial();
        r
    })?;
    if digest_perf(&traced.results) != digest_perf(&reference.results) {
        return Err("traced perf sweep differs from the untraced sweep".into());
    }

    let mut m = Vec::new();
    trace_totals(&mut m, &tr, untraced_s);
    let root = tr.root_ns() as f64;
    push(
        &mut m,
        "perfsim.run.calls",
        traced.results.len() as f64,
        "count",
    );
    let solo_ns = tr.stats("perfsim.solo").self_ns() as f64;
    let shared_ns: Vec<f64> = SHARED_SPANS
        .iter()
        .map(|n| tr.stats(n).self_ns() as f64)
        .collect();
    let shared_total: f64 = shared_ns.iter().sum();
    push(&mut m, "perfsim.solo.self_s", solo_ns / 1e9, "s");
    push(
        &mut m,
        "perfsim.solo.self_frac",
        ratio(solo_ns, root),
        "frac",
    );
    push(&mut m, "perfsim.shared.self_s", shared_total / 1e9, "s");
    push(
        &mut m,
        "perfsim.shared.self_frac",
        ratio(shared_total, root),
        "frac",
    );
    for (loss, ns) in ["none", "rand100k", "ways1", "ways4"]
        .iter()
        .zip(&shared_ns)
    {
        push(&mut m, format!("perfsim.run.{loss}.self_s"), ns / 1e9, "s");
    }
    let run_ns = solo_ns + shared_total;
    let cycles: f64 = traced.results.iter().map(|r| r.elapsed_cycles).sum();
    push(
        &mut m,
        "perfsim.ns_per_sim_instr",
        run_ns / traced.instructions as f64,
        "ns",
    );
    push(&mut m, "perfsim.ns_per_sim_cycle", run_ns / cycles, "ns");
    let (mut hits, mut misses, mut bypasses, mut writebacks) = (0, 0, 0, 0);
    let (mut reads, mut writes, mut activates, mut refreshes) = (0, 0, 0, 0);
    for r in &traced.results {
        hits += r.llc_stats.hits;
        misses += r.llc_stats.misses;
        bypasses += r.llc_stats.bypasses;
        writebacks += r.llc_stats.writebacks;
        reads += r.op_counts.reads;
        writes += r.op_counts.writes;
        activates += r.op_counts.activates;
        refreshes += r.op_counts.refreshes;
    }
    let accesses = (hits + misses) as f64;
    let bursts = (reads + writes) as f64;
    push(&mut m, "cache.llc.accesses", accesses, "count");
    push(
        &mut m,
        "cache.llc.miss_frac",
        ratio(misses as f64, accesses),
        "frac",
    );
    push(&mut m, "cache.llc.bypasses", bypasses as f64, "count");
    push(&mut m, "cache.llc.writebacks", writebacks as f64, "count");
    // Attributed, not measured: perfsim time spread over simulated
    // accesses. Splitting it needs spans inside the simulator.
    push(
        &mut m,
        "cache.llc.ns_per_access",
        ratio(run_ns, accesses),
        "ns",
    );
    push(&mut m, "dram.reads", reads as f64, "count");
    push(&mut m, "dram.writes", writes as f64, "count");
    push(&mut m, "dram.activates", activates as f64, "count");
    push(
        &mut m,
        "dram.row_hit_frac",
        1.0 - ratio(activates as f64, bursts),
        "frac",
    );
    push(&mut m, "dram.refreshes", refreshes as f64, "count");
    push(&mut m, "dram.ns_per_access", ratio(run_ns, bursts), "ns");
    Ok((m, tr))
}

fn trace_fleet(scale: &Scale, seed: u64, dir: &Path) -> Result<(Vec<Metric>, Tracer), String> {
    let reference = run_rep(Workload::FleetCkpt, scale, seed, 1, dir)?;
    let untraced_s = reference.setup_s + reference.work_s + reference.resume_s.unwrap_or(0.0);

    let mut tr = Tracer::new(1);
    let new = tr.name("fleet.new");
    let step = tr.name("fleet.step");
    let save = tr.name("persist.save");
    let load = tr.name("persist.load");
    let resume = tr.name("fleet.resume");
    let _ = std::fs::remove_dir_all(dir);
    tr.begin_trial(0);
    let mut sim = tr.span(new, || {
        FleetSim::new(fleet_arms(), fleet_config(scale, seed, 1, None))
    });
    let save_now = |sim: &FleetSim, tr: &mut Tracer| {
        let path = dir.join(FleetCheckpoint::file_name(sim.completed_epochs()));
        tr.span(save, || sim.checkpoint().save(&path))
    };
    save_now(&sim, &mut tr)?;
    for _ in 0..scale.fleet_epochs {
        tr.span(step, || sim.step())?;
        save_now(&sim, &mut tr)?;
    }
    let done = FleetOutcome::of(&sim);
    drop(sim);
    let newest = latest_checkpoint(dir)?;
    let ckpt = tr.span(load, || FleetCheckpoint::load(&newest))?;
    let resumed = tr.span(resume, || FleetSim::resume(dir, 1))?;
    tr.end_trial();
    let bytes = std::fs::metadata(&newest)
        .map_err(|e| format!("{}: {e}", newest.display()))?
        .len();
    let _ = std::fs::remove_dir_all(dir);
    check_fleet(&done, &FleetOutcome::of(&resumed))?;
    if done.digest() != reference.digest {
        return Err("traced fleet differs from the untraced run".into());
    }
    if ckpt.completed_epochs != scale.fleet_epochs || ckpt.dirty_evals != done.dirty_evals {
        return Err("newest checkpoint does not describe the finished fleet".into());
    }

    let mut m = Vec::new();
    trace_totals(&mut m, &tr, untraced_s);
    let new_s = tr.stats("fleet.new").total_ns as f64 / 1e9;
    let steps = tr.stats("fleet.step");
    let saves = tr.stats("persist.save");
    let load_s = tr.stats("persist.load").total_ns as f64 / 1e9;
    let resume_s = tr.stats("fleet.resume").total_ns as f64 / 1e9;
    push(&mut m, "fleet.new_s", new_s, "s");
    push(
        &mut m,
        "fleet.scan.ns_per_node",
        new_s * 1e9 / scale.fleet_nodes as f64,
        "ns",
    );
    push(
        &mut m,
        "fleet.step.ms_p50",
        steps.duration_percentile(50.0) as f64 / 1e6,
        "ms",
    );
    push(
        &mut m,
        "fleet.step.ms_max",
        steps.duration_percentile(100.0) as f64 / 1e6,
        "ms",
    );
    push(
        &mut m,
        "fleet.dirty_evals",
        done.dirty_evals as f64,
        "count",
    );
    push(
        &mut m,
        "fleet.step.us_per_dirty_eval",
        ratio(steps.total_ns as f64 / 1e3, done.dirty_evals as f64),
        "us",
    );
    push(&mut m, "fleet.resume_s", resume_s, "s");
    push(&mut m, "persist.save.calls", saves.calls as f64, "count");
    push(
        &mut m,
        "persist.save.ms_p50",
        saves.duration_percentile(50.0) as f64 / 1e6,
        "ms",
    );
    push(
        &mut m,
        "persist.save.self_s",
        saves.self_ns() as f64 / 1e9,
        "s",
    );
    push(&mut m, "persist.load_s", load_s, "s");
    push(&mut m, "persist.resume_rederive_s", resume_s - load_s, "s");
    push(&mut m, "persist.ckpt_kb", bytes as f64 / 1000.0, "kB");
    let root = tr.root_ns() as f64;
    for span in [
        "fleet.new",
        "fleet.step",
        "persist.save",
        "persist.load",
        "fleet.resume",
    ] {
        push(
            &mut m,
            format!("{span}.self_frac"),
            ratio(tr.stats(span).self_ns() as f64, root),
            "frac",
        );
    }
    Ok((m, tr))
}
