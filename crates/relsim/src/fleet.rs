//! Sharded, epoch-based fleet simulation with bit-exact checkpoint/resume.
//!
//! The single-shot engine ([`crate::engine::run_scenarios`]) answers "what
//! does a population of N lifetimes look like at end of life". A fleet
//! operator asks a different question: "where is my fleet *now*, epoch by
//! epoch, and what happens if the forecasting service dies mid-run". This
//! module grows the engine into that service:
//!
//! * the node population is partitioned into [`FleetConfig::shards`]
//!   contiguous shards, scheduled on a work-stealing pool exactly like the
//!   engine's trial chunks — which worker processes a shard never affects
//!   its results;
//! * time advances in discrete *epochs* (equal slices of the observation
//!   window). Each epoch only re-evaluates nodes whose fault state grew,
//!   tracked by a dirty-set keyed on the fault sampler's arrival stream
//!   ([`ArrivalCursor`]): a node with no new arrival this epoch is
//!   untouched. Per-epoch work is therefore proportional to the dirty
//!   count (observable as the `fleet.dirty_evals` counter), not the fleet
//!   size;
//! * incremental evaluation telescopes: a dirty node contributes
//!   `eval(events[..new]) − eval(events[..old])` to the arm metrics, and
//!   both evaluations restart the same per-trial eval RNG stream
//!   ([`crate::engine::eval_rng_seed`]), so after the final epoch every
//!   arm's totals are bit-identical to the engine evaluating the full
//!   lifetimes — at any thread count. Both evaluations replay one
//!   planning pass over `events[..new]` (the planner's state after the
//!   old prefix is the plan's `trail[old - 1]`), made once per distinct
//!   planner key;
//! * after every epoch a [`FleetCheckpoint`] is written atomically (via
//!   [`Persist`]): RNG-stream coordinates, per-shard population digests,
//!   per-shard arm metrics, and the scenario arms themselves. Resuming
//!   re-runs the deterministic init scan, verifies the digests, restores
//!   the metrics, and continues — producing the uninterrupted run's
//!   results bit-exactly from any epoch boundary.
//!
//! Crash injection for the test matrix and the CI gate is first-class:
//! [`CrashPoint`] (or the `RF_FLEET_CRASH_AT` env hook) kills a run at a
//! chosen epoch boundary or mid-epoch.

use crate::engine::{eval_rng_seed, sample_rng_seed};
use crate::node::{ArmScratch, NodeOutcome};
use crate::repro::trial_digest;
use crate::scenario::Scenario;
use relaxfault_faults::arrivals::ArrivalCursor;
use relaxfault_faults::modes::HOURS_PER_YEAR;
use relaxfault_faults::{FaultSampler, NodeFaults};
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::{self, Persist};
use relaxfault_util::rng::Rng64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Checkpoint file format version; bump on breaking layout changes.
pub const FLEET_SCHEMA_VERSION: u64 = 1;

/// The `kind` tag distinguishing fleet checkpoints from repro cases and
/// obs snapshots.
pub const FLEET_CHECKPOINT_KIND: &str = "fleet_checkpoint";

/// Default shard count when [`FleetConfig::shards`] is 0. Deliberately a
/// fixed constant, never derived from the thread count: shard boundaries
/// feed the per-shard digests, and those must be identical at any
/// `threads` setting for checkpoints to be comparable across machines.
pub const AUTO_SHARDS: u32 = 64;

/// Where to kill a run, for the crash-point test matrix and the CI gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash at the boundary entering epoch `k` — after the checkpoint
    /// with `completed_epochs == k` was written, before epoch `k` runs.
    /// `Boundary(0)` dies right after the init checkpoint.
    Boundary(u32),
    /// Crash midway through epoch `k`: some shards processed in memory,
    /// no checkpoint written for it. Resume must redo the whole epoch.
    MidEpoch(u32),
}

/// Parses an `RF_FLEET_CRASH_AT` value: `"N"` for [`CrashPoint::Boundary`],
/// `"mid:N"` for [`CrashPoint::MidEpoch`]. Pure so tests can cover it
/// without touching process environment.
pub fn parse_crash_at(s: &str) -> Option<CrashPoint> {
    if let Some(rest) = s.strip_prefix("mid:") {
        return rest.trim().parse().ok().map(CrashPoint::MidEpoch);
    }
    s.trim().parse().ok().map(CrashPoint::Boundary)
}

/// Reads the `RF_FLEET_CRASH_AT` crash hook from the environment.
pub fn crash_at_from_env() -> Option<CrashPoint> {
    std::env::var("RF_FLEET_CRASH_AT")
        .ok()
        .as_deref()
        .and_then(parse_crash_at)
}

/// Execution parameters for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size: node lifetimes simulated (trial indices `0..nodes`).
    pub nodes: u64,
    /// Lifetime epochs the observation window is divided into.
    pub epochs: u32,
    /// Population shards; 0 picks [`AUTO_SHARDS`].
    pub shards: u32,
    /// Base RNG seed — the same `(seed, trial, group)` stream keying as
    /// the engine, so fleets and engine runs share populations.
    pub seed: u64,
    /// Worker threads (0 or 1 = single-threaded). Never affects results.
    pub threads: usize,
    /// Where to write per-epoch checkpoints; `None` disables persistence.
    pub ckpt_dir: Option<PathBuf>,
    /// Injected crash point (tests/CI); `None` runs to completion.
    pub crash_at: Option<CrashPoint>,
}

impl FleetConfig {
    /// A small single-threaded configuration for tests, checkpointing
    /// disabled.
    pub fn quick(nodes: u64, epochs: u32, seed: u64) -> Self {
        Self {
            nodes,
            epochs,
            shards: 8,
            seed,
            threads: 1,
            ckpt_dir: None,
            crash_at: None,
        }
    }

    fn resolved_shards(&self) -> u32 {
        if self.shards == 0 {
            AUTO_SHARDS
        } else {
            self.shards
        }
    }
}

/// Integer arm totals accumulated incrementally across epochs. The same
/// quantities as [`crate::engine::ScenarioResult`]'s counters (the ECDF
/// is replaced by a byte total — a telescoping sum, unlike a
/// distribution), so a finished fleet can be cross-checked field by field
/// against an engine run over the same population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Nodes with at least one permanent fault.
    pub faulty_nodes: u64,
    /// Faulty nodes whose every permanent fault is currently repaired.
    pub fully_repaired_nodes: u64,
    /// Total LLC bytes locked for repair across the fleet.
    pub repair_bytes_total: u64,
    /// Total DUEs.
    pub dues: u64,
    /// DUEs triggered by transient faults.
    pub transient_dues: u64,
    /// Total SDCs.
    pub sdcs: u64,
    /// Total DIMM replacements.
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

impl FleetMetrics {
    /// Applies one dirty node's epoch delta: the outcome of its new event
    /// prefix minus the outcome of its old prefix. Every counter is
    /// monotone per node except `fully_repaired_nodes` (a later fault can
    /// un-repair a node), so deltas are applied add-then-subtract with
    /// checked arithmetic — a negative total would mean the telescoping
    /// invariant broke, which must be loud.
    fn absorb(&mut self, new: &NodeOutcome, old: &NodeOutcome) {
        fn shift(total: &mut u64, add: u64, sub: u64, what: &str) {
            *total += add;
            *total = total
                .checked_sub(sub)
                .unwrap_or_else(|| panic!("fleet metric {what} went negative"));
        }
        shift(
            &mut self.faulty_nodes,
            new.faulty as u64,
            old.faulty as u64,
            "faulty_nodes",
        );
        shift(
            &mut self.fully_repaired_nodes,
            new.fully_repaired as u64,
            old.fully_repaired as u64,
            "fully_repaired_nodes",
        );
        shift(
            &mut self.repair_bytes_total,
            new.repair_bytes,
            old.repair_bytes,
            "repair_bytes_total",
        );
        shift(&mut self.dues, new.dues as u64, old.dues as u64, "dues");
        shift(
            &mut self.transient_dues,
            new.transient_dues as u64,
            old.transient_dues as u64,
            "transient_dues",
        );
        shift(&mut self.sdcs, new.sdcs as u64, old.sdcs as u64, "sdcs");
        shift(
            &mut self.replacements,
            new.replacements as u64,
            old.replacements as u64,
            "replacements",
        );
        shift(
            &mut self.unrepaired_faults,
            new.unrepaired_faults as u64,
            old.unrepaired_faults as u64,
            "unrepaired_faults",
        );
        shift(
            &mut self.permanent_faults,
            new.permanent_faults as u64,
            old.permanent_faults as u64,
            "permanent_faults",
        );
        for (i, (total, sub)) in self
            .unrepaired_by_mode
            .iter_mut()
            .zip(old.unrepaired_by_mode)
            .enumerate()
        {
            *total += new.unrepaired_by_mode[i] as u64;
            *total = total
                .checked_sub(sub as u64)
                .expect("fleet metric unrepaired_by_mode went negative");
        }
        // A longer prefix replays the shorter one exactly (same fresh eval
        // stream), so per-node high-water marks only grow: max-of-max is
        // incremental.
        self.max_ways_seen = self.max_ways_seen.max(new.max_ways);
    }

    /// Sums another shard's totals into this one.
    pub fn merge(&mut self, other: &FleetMetrics) {
        self.faulty_nodes += other.faulty_nodes;
        self.fully_repaired_nodes += other.fully_repaired_nodes;
        self.repair_bytes_total += other.repair_bytes_total;
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

    /// JSON form (plain numbers: every counter stays far below 2^53).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("faulty_nodes", Value::from(self.faulty_nodes)),
            (
                "fully_repaired_nodes",
                Value::from(self.fully_repaired_nodes),
            ),
            ("repair_bytes_total", Value::from(self.repair_bytes_total)),
            ("dues", Value::from(self.dues)),
            ("transient_dues", Value::from(self.transient_dues)),
            ("sdcs", Value::from(self.sdcs)),
            ("replacements", Value::from(self.replacements)),
            ("unrepaired_faults", Value::from(self.unrepaired_faults)),
            ("permanent_faults", Value::from(self.permanent_faults)),
            ("max_ways_seen", Value::from(self.max_ways_seen as u64)),
            (
                "unrepaired_by_mode",
                Value::Array(
                    self.unrepaired_by_mode
                        .iter()
                        .map(|&n| Value::from(n))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes [`FleetMetrics::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let modes = v
            .get("unrepaired_by_mode")
            .and_then(Value::as_array)
            .ok_or("unrepaired_by_mode must be an array")?;
        if modes.len() != 6 {
            return Err(format!(
                "unrepaired_by_mode must have 6 entries, found {}",
                modes.len()
            ));
        }
        let mut unrepaired_by_mode = [0u64; 6];
        for (slot, m) in unrepaired_by_mode.iter_mut().zip(modes) {
            *slot = m
                .as_f64()
                .filter(|n| *n >= 0.0 && *n == n.trunc() && *n < 9e15)
                .ok_or("unrepaired_by_mode entries must be integers")? as u64;
        }
        Ok(Self {
            faulty_nodes: persist::parse_u64_field(v, "faulty_nodes")?,
            fully_repaired_nodes: persist::parse_u64_field(v, "fully_repaired_nodes")?,
            repair_bytes_total: persist::parse_u64_field(v, "repair_bytes_total")?,
            dues: persist::parse_u64_field(v, "dues")?,
            transient_dues: persist::parse_u64_field(v, "transient_dues")?,
            sdcs: persist::parse_u64_field(v, "sdcs")?,
            replacements: persist::parse_u64_field(v, "replacements")?,
            unrepaired_faults: persist::parse_u64_field(v, "unrepaired_faults")?,
            permanent_faults: persist::parse_u64_field(v, "permanent_faults")?,
            max_ways_seen: persist::parse_u32_field(v, "max_ways_seen")?,
            unrepaired_by_mode,
        })
    }
}

/// A deterministic snapshot of a fleet run at an epoch boundary: the
/// RNG-stream coordinates that regenerate the population, per-shard
/// digests that prove the regeneration was bit-exact, and the per-shard
/// arm totals accumulated so far. Everything needed to continue the run
/// as if the crash never happened.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Fleet size.
    pub nodes: u64,
    /// Total lifetime epochs of the run.
    pub epochs: u32,
    /// Shard count the population is partitioned into.
    pub shards: u32,
    /// Epochs fully processed (0 = init scan only).
    pub completed_epochs: u32,
    /// Digest of the run configuration (scenarios + shape + seed); a
    /// resume with drifted config fails loudly instead of continuing a
    /// different experiment.
    pub config_digest: u64,
    /// Total dirty-node evaluations so far (the incrementality counter).
    pub dirty_evals: u64,
    /// The scenario arms, embedded so a checkpoint is self-contained.
    pub scenarios: Vec<Scenario>,
    /// Per-shard population digests (fold of every faulty node's trial
    /// index and lifetime digest, in trial order).
    pub shard_digests: Vec<u64>,
    /// Per-shard, per-arm metric totals through `completed_epochs`.
    pub shard_metrics: Vec<Vec<FleetMetrics>>,
}

impl Persist for FleetCheckpoint {
    const KIND: &'static str = FLEET_CHECKPOINT_KIND;
    const SCHEMA_VERSION: u64 = FLEET_SCHEMA_VERSION;

    fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(FLEET_SCHEMA_VERSION)),
            ("kind", Value::from(FLEET_CHECKPOINT_KIND)),
            ("seed", persist::hex(self.seed)),
            ("nodes", Value::from(self.nodes)),
            ("epochs", Value::from(self.epochs as u64)),
            ("shards", Value::from(self.shards as u64)),
            (
                "completed_epochs",
                Value::from(self.completed_epochs as u64),
            ),
            ("config_digest", persist::hex(self.config_digest)),
            ("dirty_evals", Value::from(self.dirty_evals)),
            (
                "scenarios",
                Value::Array(self.scenarios.iter().map(Scenario::to_json).collect()),
            ),
            (
                "shard_digests",
                Value::Array(
                    self.shard_digests
                        .iter()
                        .map(|&d| persist::hex(d))
                        .collect(),
                ),
            ),
            (
                "shard_metrics",
                Value::Array(
                    self.shard_metrics
                        .iter()
                        .map(|arms| Value::Array(arms.iter().map(FleetMetrics::to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Self::check_header(v)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k}"));
        let scenarios = field("scenarios")?
            .as_array()
            .ok_or("scenarios must be an array")?
            .iter()
            .map(Scenario::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let shard_digests = field("shard_digests")?
            .as_array()
            .ok_or("shard_digests must be an array")?
            .iter()
            .map(|d| {
                persist::parse_hex(d).ok_or_else(|| "shard_digests must be hex strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shard_metrics = field("shard_metrics")?
            .as_array()
            .ok_or("shard_metrics must be an array")?
            .iter()
            .map(|arms| {
                arms.as_array()
                    .ok_or_else(|| "shard_metrics entries must be arrays".to_string())?
                    .iter()
                    .map(FleetMetrics::from_json)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ckpt = Self {
            seed: persist::parse_hex_field(v, "seed")?,
            nodes: persist::parse_u64_field(v, "nodes")?,
            epochs: persist::parse_u32_field(v, "epochs")?,
            shards: persist::parse_u32_field(v, "shards")?,
            completed_epochs: persist::parse_u32_field(v, "completed_epochs")?,
            config_digest: persist::parse_hex_field(v, "config_digest")?,
            dirty_evals: persist::parse_u64_field(v, "dirty_evals")?,
            scenarios,
            shard_digests,
            shard_metrics,
        };
        if ckpt.scenarios.is_empty() {
            return Err("fleet checkpoint carries no scenario arms".into());
        }
        if ckpt.shard_digests.len() != ckpt.shards as usize {
            return Err(format!(
                "shard_digests has {} entries for {} shards",
                ckpt.shard_digests.len(),
                ckpt.shards
            ));
        }
        if ckpt.shard_metrics.len() != ckpt.shards as usize {
            return Err(format!(
                "shard_metrics has {} entries for {} shards",
                ckpt.shard_metrics.len(),
                ckpt.shards
            ));
        }
        if ckpt
            .shard_metrics
            .iter()
            .any(|arms| arms.len() != ckpt.scenarios.len())
        {
            return Err("shard_metrics arm count disagrees with scenarios".into());
        }
        if ckpt.completed_epochs > ckpt.epochs {
            return Err(format!(
                "completed_epochs {} exceeds epochs {}",
                ckpt.completed_epochs, ckpt.epochs
            ));
        }
        Ok(ckpt)
    }
}

impl FleetCheckpoint {
    /// The canonical file name for a checkpoint at this boundary.
    pub fn file_name(completed_epochs: u32) -> String {
        format!("ckpt_epoch_{completed_epochs:04}.json")
    }
}

/// Finds the newest checkpoint (highest completed epoch) in `dir`.
///
/// # Errors
///
/// Returns an error when the directory is unreadable or holds no
/// checkpoint files.
pub fn latest_checkpoint(dir: &Path) -> Result<PathBuf, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
    let mut best: Option<(u32, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: cannot read entry: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(epoch) = name
            .strip_prefix("ckpt_epoch_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
            best = Some((epoch, entry.path()));
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| format!("{}: no ckpt_epoch_*.json checkpoints found", dir.display()))
}

/// One faulty node held in memory for the whole run: its lifetime is
/// sampled exactly once (in the init scan), so resampling can never skew
/// the injection counters or the arrival schedule between a full and a
/// resumed run.
struct FaultyNode {
    trial: u64,
    node: NodeFaults,
    cursor: ArrivalCursor,
}

/// One contiguous slice of the fleet.
struct Shard {
    /// Owned trial range `lo..hi`.
    lo: u64,
    hi: u64,
    faulty: Vec<FaultyNode>,
    /// Fold of `(trial, lifetime digest)` over `faulty`, in trial order.
    digest: u64,
    /// Per-arm totals through the completed epochs.
    metrics: Vec<FleetMetrics>,
    /// Dirty-node evaluations charged to this shard.
    dirty_evals: u64,
}

/// A live fleet simulation. Construct with [`FleetSim::new`] (fresh run)
/// or [`FleetSim::resume`] (continue from the newest checkpoint), then
/// [`FleetSim::step`] through epochs or [`FleetSim::run_to_end`].
pub struct FleetSim {
    scenarios: Vec<Scenario>,
    nodes: u64,
    epochs: u32,
    seed: u64,
    threads: usize,
    hours: f64,
    ckpt_dir: Option<PathBuf>,
    crash_at: Option<CrashPoint>,
    config_digest: u64,
    shards: Vec<Mutex<Shard>>,
    completed_epochs: u32,
    /// Dirty-node count of each epoch processed *by this process* (a
    /// resumed run only logs the epochs it actually ran).
    epoch_dirty: Vec<u64>,
}

impl FleetSim {
    /// Builds a fleet and runs the init scan: every node's lifetime is
    /// sampled once from its `(seed, trial, 0)` stream, faulty nodes are
    /// retained with their arrival cursors, and per-shard digests are
    /// folded. If checkpointing is enabled, the epoch-0 checkpoint is
    /// written so even a crash before the first epoch is resumable.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid: no arms, arms disagreeing
    /// on DRAM geometry or fault model (the fleet shares one sample stream
    /// across arms, like one engine group), zero nodes or epochs, or an
    /// unwritable checkpoint directory.
    pub fn new(scenarios: Vec<Scenario>, cfg: FleetConfig) -> FleetSim {
        assert!(!scenarios.is_empty(), "no scenario arms given");
        assert!(cfg.nodes > 0, "fleet must have at least one node");
        assert!(cfg.epochs > 0, "fleet must run at least one epoch");
        let dram = scenarios[0].dram;
        assert!(
            scenarios.iter().all(|s| s.dram == dram),
            "all arms must share one DRAM geometry"
        );
        assert!(
            scenarios
                .iter()
                .all(|s| s.fault_model == scenarios[0].fault_model),
            "all arms must share one fault model (one sample-stream group)"
        );
        let sim = Self::init(scenarios, &cfg);
        if sim.ckpt_dir.is_some() {
            sim.write_checkpoint()
                .unwrap_or_else(|e| panic!("init checkpoint: {e}"));
        }
        sim
    }

    /// Resumes from the newest checkpoint in `dir`. The population is
    /// regenerated by re-running the init scan (it is a pure function of
    /// the checkpointed seed), then proven bit-identical against the
    /// checkpointed per-shard digests before any state is restored.
    ///
    /// # Errors
    ///
    /// Returns an error when no checkpoint exists, the file is corrupt,
    /// or the regenerated population disagrees with the recorded digests.
    pub fn resume(dir: &Path, threads: usize) -> Result<FleetSim, String> {
        let path = latest_checkpoint(dir)?;
        Self::resume_from(&path, threads, Some(dir.to_path_buf()))
    }

    /// Resumes from one specific checkpoint file. `ckpt_dir` is where the
    /// continued run writes its subsequent checkpoints (`None` stops
    /// persisting).
    ///
    /// # Errors
    ///
    /// See [`FleetSim::resume`].
    pub fn resume_from(
        path: &Path,
        threads: usize,
        ckpt_dir: Option<PathBuf>,
    ) -> Result<FleetSim, String> {
        let ckpt = FleetCheckpoint::load(path)?;
        let cfg = FleetConfig {
            nodes: ckpt.nodes,
            epochs: ckpt.epochs,
            shards: ckpt.shards,
            seed: ckpt.seed,
            threads,
            ckpt_dir,
            crash_at: None,
        };
        let mut sim = Self::init(ckpt.scenarios.clone(), &cfg);
        sim.restore(&ckpt)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(sim)
    }

    /// Shared construction: partitions the fleet and runs the init scan
    /// on the work-stealing pool.
    fn init(scenarios: Vec<Scenario>, cfg: &FleetConfig) -> FleetSim {
        let shard_count = cfg.resolved_shards();
        let per_shard = cfg.nodes.div_ceil(shard_count as u64);
        let hours = scenarios[0].fault_model.years * HOURS_PER_YEAR;
        let arms = scenarios.len();

        let mut config = String::new();
        for s in &scenarios {
            config.push_str(&s.to_json().to_string());
        }
        let mut config_digest = obs::fnv1a(config.as_bytes());
        for part in [cfg.nodes, cfg.epochs as u64, shard_count as u64, cfg.seed] {
            config_digest = persist::fold_digest(config_digest, part);
        }

        let shards: Vec<Mutex<Shard>> = (0..shard_count)
            .map(|s| {
                let lo = (s as u64 * per_shard).min(cfg.nodes);
                let hi = ((s as u64 + 1) * per_shard).min(cfg.nodes);
                Mutex::new(Shard {
                    lo,
                    hi,
                    faulty: Vec::new(),
                    digest: 0,
                    metrics: vec![FleetMetrics::default(); arms],
                    dirty_evals: 0,
                })
            })
            .collect();

        // Init scan: workers steal shards; results live in the shard, so
        // which worker scanned it never matters.
        let threads = cfg.threads.max(1);
        let next = AtomicUsize::new(0);
        let epochs = cfg.epochs;
        let seed = cfg.seed;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let next = &next;
                let shards = &shards;
                let scenarios = &scenarios;
                scope.spawn(move || {
                    let sampler = FaultSampler::new(&scenarios[0].fault_model, &scenarios[0].dram);
                    loop {
                        let si = next.fetch_add(1, Ordering::Relaxed);
                        if si >= shards.len() {
                            break;
                        }
                        let mut shard = shards[si].lock().expect("shard lock");
                        let (lo, hi) = (shard.lo, shard.hi);
                        for trial in lo..hi {
                            let mut rng = Rng64::seed_from_u64(sample_rng_seed(seed, trial, 0));
                            if sampler.trial_is_clean(&mut rng) {
                                continue;
                            }
                            let mut node = NodeFaults::default();
                            sampler.sample_faulty_into(&mut rng, &mut node);
                            let digest = trial_digest(&node);
                            shard.digest = persist::fold_digest(shard.digest, trial);
                            shard.digest = persist::fold_digest(shard.digest, digest);
                            let cursor = ArrivalCursor::new(&node.events, hours, epochs);
                            shard.faulty.push(FaultyNode {
                                trial,
                                node,
                                cursor,
                            });
                        }
                    }
                });
            }
        });

        FleetSim {
            scenarios,
            nodes: cfg.nodes,
            epochs: cfg.epochs,
            seed: cfg.seed,
            threads,
            hours,
            ckpt_dir: cfg.ckpt_dir.clone(),
            crash_at: cfg.crash_at,
            config_digest,
            shards,
            completed_epochs: 0,
            epoch_dirty: Vec::new(),
        }
    }

    /// Verifies a checkpoint against the regenerated population and
    /// restores the accumulated state.
    fn restore(&mut self, ckpt: &FleetCheckpoint) -> Result<(), String> {
        if ckpt.config_digest != self.config_digest {
            return Err(format!(
                "config digest mismatch: checkpoint {:#018x}, rebuilt {:#018x}",
                ckpt.config_digest, self.config_digest
            ));
        }
        let rebuilt = self.shard_digests();
        if rebuilt != ckpt.shard_digests {
            let bad = rebuilt
                .iter()
                .zip(&ckpt.shard_digests)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "population digest mismatch at shard {bad}: regenerated \
                 {:#018x}, checkpoint {:#018x} — seed or fault model drifted",
                rebuilt[bad], ckpt.shard_digests[bad]
            ));
        }
        let total_dirty: u64 = ckpt.dirty_evals;
        let mut distributed = 0u64;
        for (si, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("shard lock");
            shard.metrics = ckpt.shard_metrics[si].clone();
            if ckpt.completed_epochs > 0 {
                for f in &mut shard.faulty {
                    f.cursor.seek_past(ckpt.completed_epochs - 1);
                    // Dirty evaluations already performed for this node =
                    // the schedule entries its seek consumed.
                    let consumed_entries = f
                        .cursor
                        .schedule()
                        .iter()
                        .filter(|(e, _)| *e < ckpt.completed_epochs)
                        .count() as u64;
                    distributed += consumed_entries;
                }
            }
            shard.dirty_evals = 0;
        }
        // Re-derive per-shard dirty counts (they are a pure function of
        // the schedules); the checkpoint total must agree.
        if ckpt.completed_epochs > 0 {
            if distributed != total_dirty {
                return Err(format!(
                    "dirty_evals mismatch: checkpoint says {total_dirty}, \
                     schedules imply {distributed}"
                ));
            }
            for shard in &self.shards {
                let mut shard = shard.lock().expect("shard lock");
                shard.dirty_evals = shard
                    .faulty
                    .iter()
                    .map(|f| {
                        f.cursor
                            .schedule()
                            .iter()
                            .filter(|(e, _)| *e < ckpt.completed_epochs)
                            .count() as u64
                    })
                    .sum();
            }
        }
        self.completed_epochs = ckpt.completed_epochs;
        Ok(())
    }

    /// Processes the next epoch: every shard's dirty nodes are
    /// re-evaluated on their grown event prefixes and the arm totals
    /// updated by the telescoping delta. Writes a checkpoint at the new
    /// boundary (when persistence is on) and honours the injected crash
    /// point.
    ///
    /// # Errors
    ///
    /// Returns an error on a simulated crash or a failed checkpoint
    /// write. (A simulated crash intentionally leaves in-memory state
    /// half-updated — resume from disk, as a real crash would.)
    ///
    /// # Panics
    ///
    /// Panics when called after the final epoch completed.
    pub fn step(&mut self) -> Result<(), String> {
        let epoch = self.completed_epochs;
        assert!(
            epoch < self.epochs,
            "fleet already ran all {} epochs",
            self.epochs
        );
        if self.crash_at == Some(CrashPoint::Boundary(epoch)) {
            return Err(format!("simulated crash at boundary of epoch {epoch}"));
        }
        let mid_crash = self.crash_at == Some(CrashPoint::MidEpoch(epoch));
        // A mid-epoch crash processes a deterministic prefix of the
        // shards, then dies without checkpointing.
        let shard_limit = if mid_crash {
            (self.shards.len() / 2).max(1)
        } else {
            self.shards.len()
        };

        let dirty_before = self.dirty_evals();
        // The span feeds the epoch histogram, which counts every epoch
        // entered, a crashed one included.
        let _epoch_span = obs::span("relsim.fleet.epoch_ns");
        let threads = self.threads.max(1);
        let next = AtomicUsize::new(0);
        let seed = self.seed;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let next = &next;
                let shards = &self.shards;
                let scenarios = &self.scenarios;
                scope.spawn(move || {
                    let mut arms = ArmScratch::new(scenarios);
                    let all: Vec<usize> = (0..scenarios.len()).collect();
                    loop {
                        let si = next.fetch_add(1, Ordering::Relaxed);
                        if si >= shard_limit {
                            break;
                        }
                        let mut shard = shards[si].lock().expect("shard lock");
                        let shard = &mut *shard;
                        for f in &mut shard.faulty {
                            let Some((old, new)) = f.cursor.advance_to(epoch) else {
                                continue;
                            };
                            shard.dirty_evals += 1;
                            // One planning pass over the new prefix serves
                            // both prefixes: the old one is its head.
                            let events = &f.node.events[..new as usize];
                            arms.plan(scenarios, &all, events);
                            for ai in 0..scenarios.len() {
                                let mut rng = Rng64::seed_from_u64(eval_rng_seed(seed, f.trial));
                                let out_new = arms.replay(scenarios, ai, events, &mut rng);
                                let mut rng = Rng64::seed_from_u64(eval_rng_seed(seed, f.trial));
                                let out_old =
                                    arms.replay(scenarios, ai, &events[..old as usize], &mut rng);
                                shard.metrics[ai].absorb(&out_new, &out_old);
                            }
                        }
                    }
                });
            }
        });

        if mid_crash {
            return Err(format!("simulated crash mid-epoch {epoch}"));
        }
        self.completed_epochs += 1;
        self.epoch_dirty.push(self.dirty_evals() - dirty_before);
        if self.ckpt_dir.is_some() {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Steps through every remaining epoch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FleetSim::step`] failure.
    pub fn run_to_end(&mut self) -> Result<(), String> {
        while self.completed_epochs < self.epochs {
            self.step()?;
        }
        Ok(())
    }

    /// Builds the checkpoint describing the current boundary.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        let mut shard_digests = Vec::with_capacity(self.shards.len());
        let mut shard_metrics = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            shard_digests.push(shard.digest);
            shard_metrics.push(shard.metrics.clone());
        }
        FleetCheckpoint {
            seed: self.seed,
            nodes: self.nodes,
            epochs: self.epochs,
            shards: self.shards.len() as u32,
            completed_epochs: self.completed_epochs,
            config_digest: self.config_digest,
            dirty_evals: self.dirty_evals(),
            scenarios: self.scenarios.clone(),
            shard_digests,
            shard_metrics,
        }
    }

    /// Writes the current boundary's checkpoint into the configured
    /// directory.
    fn write_checkpoint(&self) -> Result<(), String> {
        let dir = self.ckpt_dir.as_ref().expect("checkpointing enabled");
        let path = dir.join(FleetCheckpoint::file_name(self.completed_epochs));
        self.checkpoint().save(&path)
    }

    /// Aggregated per-arm totals through the completed epochs.
    pub fn metrics(&self) -> Vec<FleetMetrics> {
        let mut totals = vec![FleetMetrics::default(); self.scenarios.len()];
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (t, m) in totals.iter_mut().zip(&shard.metrics) {
                t.merge(m);
            }
        }
        totals
    }

    /// Per-shard population digests, in shard order.
    pub fn shard_digests(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").digest)
            .collect()
    }

    /// The whole-population digest: an order-sensitive fold of the shard
    /// digests.
    pub fn population_digest(&self) -> u64 {
        self.shard_digests()
            .into_iter()
            .fold(0, persist::fold_digest)
    }

    /// Total dirty-node evaluations so far — the incrementality witness:
    /// equals the number of `(node, epoch)` pairs with a new arrival,
    /// never the fleet size times the epoch count.
    pub fn dirty_evals(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").dirty_evals)
            .sum()
    }

    /// Faulty nodes retained in memory (the sampled sub-population).
    pub fn faulty_nodes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").faulty.len() as u64)
            .sum()
    }

    /// Dirty-node count of each epoch this process ran, oldest first.
    pub fn epoch_dirty(&self) -> &[u64] {
        &self.epoch_dirty
    }

    /// Epochs fully processed.
    pub fn completed_epochs(&self) -> u32 {
        self.completed_epochs
    }

    /// The scenario arms.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Total lifetime epochs configured.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Fleet size.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Observation-window hours (the whole lifetime).
    pub fn hours(&self) -> f64 {
        self.hours
    }

    /// Answers one batched forecast query: expected lifetime-to-date DUE,
    /// SDC, and replacement counts for a hypothetical fleet of
    /// `target_nodes`, scaled linearly from the simulated population (the
    /// paper's per-system scaling), plus the repair coverage per arm.
    pub fn forecast(&self, target_nodes: u64) -> Vec<ArmForecast> {
        let scale = target_nodes as f64 / self.nodes as f64;
        self.metrics()
            .iter()
            .zip(&self.scenarios)
            .map(|(m, s)| ArmForecast {
                label: s.mechanism.label(),
                dues: m.dues as f64 * scale,
                sdcs: m.sdcs as f64 * scale,
                replacements: m.replacements as f64 * scale,
                coverage: if m.faulty_nodes == 0 {
                    0.0
                } else {
                    m.fully_repaired_nodes as f64 / m.faulty_nodes as f64
                },
            })
            .collect()
    }

    /// The durable-checkpoint lineage as JSON: whether persistence is on,
    /// where checkpoints live, which epoch boundaries exist on disk, and
    /// the newest file — everything an operator needs to decide whether a
    /// dead run is resumable and from where.
    pub fn checkpoint_lineage(&self) -> Value {
        let Some(dir) = &self.ckpt_dir else {
            return Value::object([("enabled", Value::from(false))]);
        };
        let mut boundaries: Vec<u64> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| {
                        e.ok()?
                            .file_name()
                            .to_str()?
                            .strip_prefix("ckpt_epoch_")?
                            .strip_suffix(".json")?
                            .parse::<u64>()
                            .ok()
                    })
                    .collect()
            })
            .unwrap_or_default();
        boundaries.sort_unstable();
        let latest = boundaries
            .last()
            .map(|&e| Value::from(FleetCheckpoint::file_name(e as u32)))
            .unwrap_or(Value::Null);
        Value::object([
            ("enabled", Value::from(true)),
            ("dir", Value::from(dir.display().to_string())),
            ("config_digest", persist::hex(self.config_digest)),
            (
                "boundaries",
                Value::Array(boundaries.into_iter().map(Value::from).collect()),
            ),
            ("latest", latest),
        ])
    }

    /// Builds the point-in-time progress document `fleet_forecast` writes
    /// to `<results>/obs/<run>.progress.json` at every epoch boundary:
    /// epoch position, shard layout, dirty-node history, checkpoint
    /// lineage, and a forecast section answering each queried fleet size
    /// exactly like `fleet_forecast --query` does — so a second process
    /// can read a forecast mid-run instead of waiting for exit.
    pub fn progress_json(&self, queries: &[u64]) -> Value {
        let complete = self.completed_epochs >= self.epochs;
        let forecasts: Vec<Value> = queries
            .iter()
            .map(|&q| {
                let arms: Vec<Value> = self
                    .forecast(q)
                    .iter()
                    .map(|a| {
                        Value::object([
                            ("label", Value::from(a.label.as_str())),
                            ("dues", Value::from(a.dues)),
                            ("sdcs", Value::from(a.sdcs)),
                            ("replacements", Value::from(a.replacements)),
                            ("coverage", Value::from(a.coverage)),
                        ])
                    })
                    .collect();
                Value::object([("fleet_size", Value::from(q)), ("arms", Value::Array(arms))])
            })
            .collect();
        Value::object([
            (
                "status",
                Value::from(if complete { "complete" } else { "running" }),
            ),
            ("epoch", Value::from(self.completed_epochs as u64)),
            ("epochs", Value::from(self.epochs as u64)),
            ("nodes", Value::from(self.nodes)),
            ("shards", Value::from(self.shards.len() as u64)),
            ("faulty_nodes", Value::from(self.faulty_nodes())),
            ("dirty_evals", Value::from(self.dirty_evals())),
            (
                "epoch_dirty",
                Value::Array(self.epoch_dirty.iter().map(|&d| Value::from(d)).collect()),
            ),
            ("population_digest", persist::hex(self.population_digest())),
            ("checkpoints", self.checkpoint_lineage()),
            ("forecast", Value::Array(forecasts)),
        ])
    }

    /// Publishes the fleet's logical state into the obs registry for
    /// snapshotting, *replacing* whatever process-lifetime counters
    /// accumulated so far. The published set is deliberately restricted
    /// to checkpoint-continuous quantities — totals a resumed run
    /// reconstructs exactly — so a full run and a crash/resume run emit
    /// bit-identical snapshots (the CI zero-delta gate). Process-path
    /// counters (planner internals, sampler injections of epochs the
    /// resumed process never ran) would differ and are dropped by the
    /// reset.
    pub fn publish_fleet_obs(&self) {
        obs::reset();
        obs::note_run_context(self.seed, self.threads as u64, self.config_digest);
        obs::note_fleet_context(self.completed_epochs as u64, self.shards.len() as u64);
        let add = |name: &str, v: u64| obs::counter(name).add(v);
        add("fleet.nodes", self.nodes);
        add("fleet.epochs_completed", self.completed_epochs as u64);
        add("fleet.faulty_population", self.faulty_nodes());
        add("fleet.dirty_evals", self.dirty_evals());
        // The 64-bit digest is split so each counter stays exactly
        // representable in the snapshot's f64 numbers.
        let digest = self.population_digest();
        add("fleet.digest_lo", digest & 0xFFFF_FFFF);
        add("fleet.digest_hi", digest >> 32);
        for (ai, m) in self.metrics().iter().enumerate() {
            let arm = |k: &str| format!("fleet.arm{ai}.{k}");
            add(&arm("faulty_nodes"), m.faulty_nodes);
            add(&arm("fully_repaired_nodes"), m.fully_repaired_nodes);
            add(&arm("repair_bytes_total"), m.repair_bytes_total);
            add(&arm("dues"), m.dues);
            add(&arm("transient_dues"), m.transient_dues);
            add(&arm("sdcs"), m.sdcs);
            add(&arm("replacements"), m.replacements);
            add(&arm("unrepaired_faults"), m.unrepaired_faults);
            add(&arm("permanent_faults"), m.permanent_faults);
            add(&arm("max_ways_seen"), m.max_ways_seen as u64);
        }
    }
}

/// One arm's answer to a forecast query — see [`FleetSim::forecast`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArmForecast {
    /// The arm's mechanism label.
    pub label: String,
    /// Expected DUEs so far at the queried fleet size.
    pub dues: f64,
    /// Expected SDCs so far at the queried fleet size.
    pub sdcs: f64,
    /// Expected DIMM replacements so far at the queried fleet size.
    pub replacements: f64,
    /// Fraction of faulty nodes fully repaired.
    pub coverage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_scenarios, RunConfig};
    use crate::scenario::Mechanism;

    fn arms() -> Vec<Scenario> {
        let base = Scenario::isca16_baseline().with_fit_scale(120.0);
        vec![
            base.clone().with_mechanism(Mechanism::None),
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
            base.with_mechanism(Mechanism::Ppr),
        ]
    }

    #[test]
    fn crash_point_parsing() {
        assert_eq!(parse_crash_at("3"), Some(CrashPoint::Boundary(3)));
        assert_eq!(parse_crash_at("mid:5"), Some(CrashPoint::MidEpoch(5)));
        assert_eq!(parse_crash_at("mid: 2"), Some(CrashPoint::MidEpoch(2)));
        assert_eq!(parse_crash_at(""), None);
        assert_eq!(parse_crash_at("mid:"), None);
        assert_eq!(parse_crash_at("boundary"), None);
    }

    #[test]
    fn sharding_partitions_the_fleet_exactly() {
        let sim = FleetSim::new(arms(), FleetConfig::quick(1000, 4, 9));
        let mut covered = 0;
        for shard in &sim.shards {
            let s = shard.lock().unwrap();
            covered += s.hi - s.lo;
        }
        assert_eq!(covered, 1000);
        // Shards are contiguous and ordered.
        let mut prev_hi = 0;
        for shard in &sim.shards {
            let s = shard.lock().unwrap();
            assert_eq!(s.lo, prev_hi);
            prev_hi = s.hi;
        }
        assert_eq!(prev_hi, 1000);
    }

    #[test]
    fn fleet_matches_engine_bit_exactly() {
        // The fleet's incremental telescoping totals must equal the
        // engine's one-shot evaluation of the same population: same seed,
        // same (seed, trial, group=0) streams, integer field by field.
        let scenarios = arms();
        let nodes = 1500u64;
        let seed = 2016;
        let mut sim = FleetSim::new(
            scenarios.clone(),
            FleetConfig {
                threads: 2,
                ..FleetConfig::quick(nodes, 6, seed)
            },
        );
        sim.run_to_end().unwrap();
        let fleet = sim.metrics();
        let engine = run_scenarios(
            &scenarios,
            &RunConfig {
                trials: nodes,
                seed,
                threads: 2,
                chunk_size: 0,
            },
        );
        for (f, e) in fleet.iter().zip(&engine) {
            assert_eq!(f.faulty_nodes, e.faulty_nodes, "{}", e.label);
            assert_eq!(
                f.fully_repaired_nodes, e.fully_repaired_nodes,
                "{}",
                e.label
            );
            assert_eq!(f.dues, e.dues, "{}", e.label);
            assert_eq!(f.transient_dues, e.transient_dues, "{}", e.label);
            assert_eq!(f.sdcs, e.sdcs, "{}", e.label);
            assert_eq!(f.replacements, e.replacements, "{}", e.label);
            assert_eq!(f.unrepaired_faults, e.unrepaired_faults, "{}", e.label);
            assert_eq!(f.permanent_faults, e.permanent_faults, "{}", e.label);
            assert_eq!(f.max_ways_seen, e.max_ways_seen, "{}", e.label);
            assert_eq!(f.unrepaired_by_mode, e.unrepaired_by_mode, "{}", e.label);
        }
        // And the incrementality witness: total work is the schedule mass,
        // far below nodes × epochs.
        assert!(sim.dirty_evals() > 0);
        assert!(sim.dirty_evals() < nodes * 6);
    }

    #[test]
    fn metrics_json_round_trip() {
        let m = FleetMetrics {
            faulty_nodes: 5,
            fully_repaired_nodes: 4,
            repair_bytes_total: 1 << 40,
            dues: 3,
            transient_dues: 1,
            sdcs: 2,
            replacements: 1,
            unrepaired_faults: 1,
            permanent_faults: 9,
            max_ways_seen: 3,
            unrepaired_by_mode: [1, 0, 0, 2, 0, 0],
        };
        let parsed = FleetMetrics::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn checkpoint_round_trip_preserves_everything() {
        let mut sim = FleetSim::new(arms(), FleetConfig::quick(400, 3, 5));
        sim.step().unwrap();
        let ckpt = sim.checkpoint();
        let text = ckpt.to_json().to_pretty();
        let parsed = FleetCheckpoint::parse_str(&text).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn absorb_handles_unrepair_transitions() {
        let mut m = FleetMetrics::default();
        let repaired = NodeOutcome {
            faulty: true,
            fully_repaired: true,
            permanent_faults: 1,
            ..Default::default()
        };
        m.absorb(&repaired, &NodeOutcome::default());
        assert_eq!(m.fully_repaired_nodes, 1);
        // A later fault un-repairs the node: the delta must subtract.
        let unrepaired = NodeOutcome {
            faulty: true,
            fully_repaired: false,
            permanent_faults: 2,
            unrepaired_faults: 1,
            ..Default::default()
        };
        m.absorb(&unrepaired, &repaired);
        assert_eq!(m.fully_repaired_nodes, 0);
        assert_eq!(m.faulty_nodes, 1);
        assert_eq!(m.permanent_faults, 2);
    }
}
