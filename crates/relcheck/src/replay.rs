//! Deterministic re-execution of persisted repro cases and fleet
//! checkpoints.
//!
//! A [`ReproCase`] comes in two flavours and this module replays both:
//!
//! * **engine cases** (`RF_CHECK=1` failures) carry the scenario arms of
//!   the failing fault-model group plus the `(seed, trial, group)` stream
//!   coordinates — replay re-derives the exact RNG streams, resamples the
//!   fault population, and proves bit-exactness by comparing its FNV-1a
//!   digest against the one recorded at failure time;
//! * **property cases** (oracle failures) carry the shrunk choice stream —
//!   replay decodes it back through the named property from
//!   [`crate::oracle::PROP_CASES`] and reproduces iff the property fails
//!   again.
//!
//! Fleet checkpoints ([`FleetCheckpoint`]) share the same persistence
//! contract and get the same treatment: [`replay_fleet`] rebuilds the
//! fleet from the checkpoint's embedded configuration, re-runs it up to
//! the recorded boundary, and proves the checkpoint honest by comparing
//! every shard digest and arm metric. Crash dumps ([`CrashDump`]) carry
//! the newest durable checkpoint of the dying run embedded as a raw JSON
//! value; [`replay_crash_dump`] decodes it through the strict
//! [`FleetCheckpoint`] deserializer and hands it to [`replay_fleet`], so
//! "the run died at epoch N" becomes a bit-exactness proof of everything
//! up to the last boundary. [`load_any`] dispatches a JSON file to the
//! right replayer by its `kind` header.

use crate::oracle::PROP_CASES;
use relaxfault_faults::{FaultSampler, NodeFaults};
use relaxfault_relsim::engine::{eval_rng_seed, sample_rng_seed};
use relaxfault_relsim::fleet::{FleetCheckpoint, FleetConfig, FleetSim};
use relaxfault_relsim::node::{evaluate_node_with, EvalScratch, NodeOutcome};
use relaxfault_relsim::repro::{trial_digest, ReproCase};
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::json::Value;
use relaxfault_util::persist::Persist;
use relaxfault_util::prop::{Failed, Source};
use relaxfault_util::rng::Rng64;
use std::path::Path;

/// What a replay established.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The case name replayed.
    pub case: String,
    /// Whether the replay reproduced the recorded failure: digest match
    /// for engine cases, a failing property for property cases.
    pub reproduced: bool,
    /// Digest of the resampled population (engine cases with a non-empty
    /// lifetime).
    pub digest: Option<u64>,
    /// Per-arm outcomes of the replayed trial, labelled by mechanism
    /// (engine cases).
    pub outcomes: Vec<(String, NodeOutcome)>,
    /// Invariant or property failures observed during the replay — the
    /// recorded defect, seen again.
    pub failures: Vec<String>,
}

/// Replays a repro case.
///
/// # Errors
///
/// Returns a message if the case is malformed (unknown property name,
/// engine case without scenarios, arms disagreeing on geometry).
pub fn replay(case: &ReproCase) -> Result<ReplayReport, String> {
    if !case.prop_choices.is_empty() {
        return replay_property(case);
    }
    replay_engine(case)
}

fn replay_property(case: &ReproCase) -> Result<ReplayReport, String> {
    let (_, property) = PROP_CASES
        .iter()
        .find(|(name, _)| *name == case.case)
        .ok_or_else(|| format!("unknown property case {:?}", case.case))?;
    let mut src = Source::from_choices(case.prop_choices.clone());
    let mut failures = Vec::new();
    match property(&mut src) {
        Ok(()) => {}
        Err(Failed::Assumption) => {
            failures.push("replayed stream discarded by prop_assume".into());
        }
        Err(Failed::Assertion(msg)) => failures.push(msg),
    }
    Ok(ReplayReport {
        case: case.case.clone(),
        reproduced: failures.iter().any(|f| !f.contains("prop_assume")),
        digest: None,
        outcomes: Vec::new(),
        failures,
    })
}

fn replay_engine(case: &ReproCase) -> Result<ReplayReport, String> {
    if case.scenarios.is_empty() {
        return Err("engine case has no scenario arms".into());
    }
    let cfg = case.scenarios[0].dram;
    if !case.scenarios.iter().all(|s| s.dram == cfg) {
        return Err("scenario arms disagree on DRAM geometry".into());
    }
    // All arms of one group share a fault model by construction; rebuild
    // the group's sampler from the first arm.
    let sampler = FaultSampler::new(&case.scenarios[0].fault_model, &cfg);

    // The exact engine stream: `trial_is_clean` consumes the first draw of
    // the sample stream, and `sample_faulty_into` continues from there.
    let mut sample_rng = Rng64::seed_from_u64(sample_rng_seed(case.seed, case.trial, case.group));
    let mut node = NodeFaults::default();
    if !sampler.trial_is_clean(&mut sample_rng) {
        sampler.sample_faulty_into(&mut sample_rng, &mut node);
    }
    let digest = trial_digest(&node);
    let mut failures = Vec::new();
    if let Err(e) = node.check_invariants(&cfg) {
        failures.push(format!("sampled population: {e}"));
    }

    let mut outcomes = Vec::new();
    for s in &case.scenarios {
        let mut eval_rng = Rng64::seed_from_u64(eval_rng_seed(case.seed, case.trial));
        let mut scratch = EvalScratch::new();
        let out = evaluate_node_with(s, &node, &mut eval_rng, &mut scratch);
        if let Err(e) = scratch.check_invariants() {
            failures.push(format!("{} planner: {e}", s.mechanism.label()));
        }
        outcomes.push((s.mechanism.label(), out));
    }

    Ok(ReplayReport {
        case: case.case.clone(),
        reproduced: case.digest.is_none_or(|d| d == digest),
        digest: Some(digest),
        outcomes,
        failures,
    })
}

/// A persisted artifact the replayer can re-execute, dispatched by the
/// JSON `kind` header.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadedCase {
    /// A failing-trial repro case ([`ReproCase::KIND`]).
    Repro(ReproCase),
    /// A fleet checkpoint ([`FleetCheckpoint::KIND`]).
    Fleet(FleetCheckpoint),
    /// A crash dump ([`CrashDump::KIND`]) from a run that died.
    Crash(CrashDump),
}

/// Loads a persisted JSON artifact and dispatches it by `kind`.
///
/// # Errors
///
/// Returns a path-contextualized message when the file is unreadable,
/// malformed, or of an unknown kind.
pub fn load_any(path: &Path) -> Result<LoadedCase, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let v = Value::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: missing kind header", path.display()))?;
    let ctx = |e: String| format!("{}: {e}", path.display());
    match kind {
        k if k == ReproCase::KIND => ReproCase::from_json(&v).map(LoadedCase::Repro).map_err(ctx),
        k if k == FleetCheckpoint::KIND => FleetCheckpoint::from_json(&v)
            .map(LoadedCase::Fleet)
            .map_err(ctx),
        k if k == CrashDump::KIND => CrashDump::from_json(&v).map(LoadedCase::Crash).map_err(ctx),
        other => Err(format!(
            "{}: unknown kind {other:?} (expected {:?}, {:?}, or {:?})",
            path.display(),
            ReproCase::KIND,
            FleetCheckpoint::KIND,
            CrashDump::KIND
        )),
    }
}

/// Replays the fleet checkpoint embedded in a crash dump: the dump's
/// coordinates are only trustworthy up to the last durable boundary, so
/// the proof is exactly [`replay_fleet`] on that checkpoint, labelled
/// with the recorded cause of death.
///
/// # Errors
///
/// Returns a message when the dump carries no checkpoint (a plain panic,
/// nothing durable to re-execute) or the embedded document fails the
/// strict [`FleetCheckpoint`] deserializer.
pub fn replay_crash_dump(dump: &CrashDump) -> Result<ReplayReport, String> {
    let ckpt = dump
        .checkpoint
        .as_ref()
        .ok_or("crash dump carries no checkpoint — nothing durable to replay")?;
    let ckpt = FleetCheckpoint::from_json(ckpt).map_err(|e| format!("embedded checkpoint: {e}"))?;
    let mut report = replay_fleet(&ckpt)?;
    report.case = format!("crash_dump({}): {}", dump.run, report.case);
    Ok(report)
}

/// Replays a fleet checkpoint: rebuilds the fleet from the embedded
/// configuration, re-runs it through the recorded number of epochs, and
/// compares every shard digest and per-shard arm metric against the
/// checkpoint. `reproduced` means the checkpoint is a bit-exact snapshot
/// of a real run — a tampered or drifted file reports each mismatch in
/// `failures`.
///
/// # Errors
///
/// Returns a message when the checkpoint's configuration cannot be
/// rebuilt (e.g. arms disagreeing on geometry) or the re-run fails.
pub fn replay_fleet(ckpt: &FleetCheckpoint) -> Result<ReplayReport, String> {
    if ckpt.scenarios.is_empty() {
        return Err("fleet checkpoint has no scenario arms".into());
    }
    let cfg = FleetConfig {
        nodes: ckpt.nodes,
        epochs: ckpt.epochs,
        shards: ckpt.shards,
        seed: ckpt.seed,
        threads: 1,
        ckpt_dir: None,
        crash_at: None,
    };
    let mut sim = FleetSim::new(ckpt.scenarios.clone(), cfg);
    for _ in 0..ckpt.completed_epochs {
        sim.step()?;
    }
    let rebuilt = sim.checkpoint();
    let mut failures = Vec::new();
    if rebuilt.config_digest != ckpt.config_digest {
        failures.push(format!(
            "config digest: rebuilt {:#018x}, checkpoint {:#018x}",
            rebuilt.config_digest, ckpt.config_digest
        ));
    }
    for (si, (a, b)) in rebuilt
        .shard_digests
        .iter()
        .zip(&ckpt.shard_digests)
        .enumerate()
    {
        if a != b {
            failures.push(format!(
                "shard {si} population digest: rebuilt {a:#018x}, checkpoint {b:#018x}"
            ));
        }
    }
    for (si, (a, b)) in rebuilt
        .shard_metrics
        .iter()
        .zip(&ckpt.shard_metrics)
        .enumerate()
    {
        if a != b {
            failures.push(format!("shard {si} metrics diverge from checkpoint"));
        }
    }
    if rebuilt.dirty_evals != ckpt.dirty_evals {
        failures.push(format!(
            "dirty_evals: rebuilt {}, checkpoint {}",
            rebuilt.dirty_evals, ckpt.dirty_evals
        ));
    }
    Ok(ReplayReport {
        case: format!(
            "fleet_checkpoint@{}/{} epochs",
            ckpt.completed_epochs, ckpt.epochs
        ),
        reproduced: failures.is_empty(),
        digest: Some(sim.population_digest()),
        outcomes: Vec::new(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_relsim::scenario::{Mechanism, Scenario};

    /// A deterministic engine case: any (seed, trial, group) replays to the
    /// same digest, so a case recorded from one replay reproduces under a
    /// second.
    #[test]
    fn engine_replay_is_deterministic_and_digest_checked() {
        let scenarios = vec![Scenario::isca16_baseline()
            .with_fit_scale(200.0)
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 })];
        // Find a faulty trial so the digest covers a non-empty lifetime.
        let sampler = FaultSampler::new(&scenarios[0].fault_model, &scenarios[0].dram);
        let trial = (0..10_000)
            .find(|&t| {
                let mut rng = Rng64::seed_from_u64(sample_rng_seed(11, t, 0));
                !sampler.trial_is_clean(&mut rng)
            })
            .expect("a faulty trial exists at 200x FIT");
        let mut case = ReproCase {
            case: "engine_check".into(),
            reason: "test".into(),
            seed: 11,
            trial,
            group: 0,
            epoch: None,
            scenarios,
            digest: None,
            prop_choices: Vec::new(),
        };
        let first = replay(&case).unwrap();
        assert!(first.reproduced, "digest-less case always reproduces");
        let digest = first.digest.expect("faulty trial has a digest");
        // Pin the digest: an exact replay still reproduces...
        case.digest = Some(digest);
        let second = replay(&case).unwrap();
        assert!(second.reproduced);
        assert_eq!(second.outcomes, first.outcomes);
        // ...and a tampered trial coordinate is caught.
        case.trial += 1;
        let third = replay(&case).unwrap();
        assert!(!third.reproduced, "different trial must change the digest");
    }

    #[test]
    fn fleet_checkpoint_replay_reproduces_and_catches_tampering() {
        let arms = vec![
            Scenario::isca16_baseline()
                .with_fit_scale(150.0)
                .with_mechanism(Mechanism::None),
            Scenario::isca16_baseline()
                .with_fit_scale(150.0)
                .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        ];
        let mut sim = FleetSim::new(arms, FleetConfig::quick(600, 3, 77));
        sim.step().unwrap();
        sim.step().unwrap();
        let mut ckpt = sim.checkpoint();
        let report = replay_fleet(&ckpt).unwrap();
        assert!(
            report.reproduced,
            "honest checkpoint replays: {:?}",
            report.failures
        );
        // A tampered metric is caught shard by shard.
        ckpt.shard_metrics[0][0].dues += 1;
        let report = replay_fleet(&ckpt).unwrap();
        assert!(!report.reproduced);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("shard 0 metrics")));
    }

    #[test]
    fn load_any_dispatches_by_kind() {
        let dir = std::env::temp_dir().join(format!("rf_load_any_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repro = ReproCase {
            case: "engine_check".into(),
            reason: "test".into(),
            seed: 3,
            trial: 0,
            group: 0,
            epoch: None,
            scenarios: vec![Scenario::isca16_baseline()],
            digest: None,
            prop_choices: Vec::new(),
        };
        let repro_path = dir.join("case.json");
        repro.save(&repro_path).unwrap();
        assert_eq!(load_any(&repro_path).unwrap(), LoadedCase::Repro(repro));

        let sim = FleetSim::new(
            vec![Scenario::isca16_baseline()],
            FleetConfig::quick(50, 2, 1),
        );
        let ckpt = sim.checkpoint();
        let ckpt_path = dir.join("ckpt.json");
        ckpt.save(&ckpt_path).unwrap();
        assert_eq!(load_any(&ckpt_path).unwrap(), LoadedCase::Fleet(ckpt));

        let alien = dir.join("alien.json");
        std::fs::write(&alien, "{\"kind\": \"metrics_snapshot\"}").unwrap();
        let err = load_any(&alien).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A minimal structurally-valid crash dump wrapping `checkpoint`.
    fn dump_with(checkpoint: Option<Value>) -> CrashDump {
        let empty = || Value::Object(Vec::new());
        CrashDump {
            run: "crashtest".into(),
            reason: "simulated crash mid-epoch 1".into(),
            wall_clock_ms: 1,
            snapshot: Value::object([
                ("manifest", empty()),
                ("counters", empty()),
                ("gauges", empty()),
                ("histograms", empty()),
            ]),
            checkpoint,
        }
    }

    #[test]
    fn crash_dump_replay_proves_the_embedded_checkpoint() {
        let arms = vec![Scenario::isca16_baseline()
            .with_fit_scale(150.0)
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 })];
        let mut sim = FleetSim::new(arms, FleetConfig::quick(500, 3, 99));
        sim.step().unwrap();
        sim.step().unwrap();
        let ckpt = sim.checkpoint();

        // An honest embedded checkpoint replays bit-exactly...
        let dump = dump_with(Some(ckpt.to_json()));
        let report = replay_crash_dump(&dump).unwrap();
        assert!(report.reproduced, "failures: {:?}", report.failures);
        assert!(report.case.starts_with("crash_dump(crashtest)"));

        // ...a tampered one is caught by the same shard-level comparison...
        let mut bad = ckpt.clone();
        bad.shard_metrics[0][0].dues += 1;
        let report = replay_crash_dump(&dump_with(Some(bad.to_json()))).unwrap();
        assert!(!report.reproduced);

        // ...and a checkpoint-less dump (plain panic) is an explicit error,
        // not a vacuous success.
        let err = replay_crash_dump(&dump_with(None)).unwrap_err();
        assert!(err.contains("no checkpoint"), "{err}");
    }

    #[test]
    fn load_any_dispatches_crash_dumps() {
        use relaxfault_util::persist::Persist as _;
        let dir = std::env::temp_dir().join(format!("rf_load_crash_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sim = FleetSim::new(
            vec![Scenario::isca16_baseline()],
            FleetConfig::quick(50, 2, 1),
        );
        let dump = dump_with(Some(sim.checkpoint().to_json()));
        let path = dir.join("run.crashdump.json");
        dump.save(&path).unwrap();
        assert_eq!(load_any(&path).unwrap(), LoadedCase::Crash(dump));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn property_replay_reproduces_a_recorded_failure() {
        // A stream that decodes to a failing input for a property that
        // rejects everything reproduces trivially; the point is the
        // dispatch and verdict plumbing.
        let case = ReproCase {
            case: "no_such_property".into(),
            reason: "test".into(),
            seed: 0,
            trial: 0,
            group: 0,
            epoch: None,
            scenarios: Vec::new(),
            digest: None,
            prop_choices: vec![1, 2, 3],
        };
        assert!(replay(&case).is_err(), "unknown property names are errors");
    }
}
