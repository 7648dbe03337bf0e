//! The machine model: limited-MLP cores, private L1/L2, shared lockable
//! LLC, open-page DDR3 memory controllers.
//!
//! Simplifications, relative to the cycle-accurate simulator the paper
//! uses, and why they are safe for Figures 15/16:
//!
//! * Cores are interval-modelled: instructions retire at `base_ipc` until
//!   a long-latency access either fills the MLP window or slides past the
//!   ROB span; pipeline details below L1 are abstracted. Capacity studies
//!   live and die by miss *counts* and DRAM occupancy, both of which are
//!   modelled exactly.
//! * The memory controller is FCFS with an open-page policy per bank
//!   (row-hit requests naturally complete faster through bank state); the
//!   FR-FCFS reordering window is not modelled. Relative throughput across
//!   LLC capacities is insensitive to this (every configuration sees the
//!   same scheduler).
//! * Writes never block the core: stores retire into the write-back
//!   hierarchy; only dirty evictions reach DRAM, where they occupy banks
//!   and burn energy.

use crate::config::{CapacityLoss, SimConfig};
use crate::metrics::{CoreStats, SimResult};
use crate::workload::{AddressStream, Workload};
use relaxfault_cache::Cache;
use relaxfault_dram::{AddressMap, DramCmd, OpCounts, PhysAddr, RankTiming};
use relaxfault_util::obs;
use relaxfault_util::rng::Rng;
use relaxfault_util::rng::Rng64;
use std::collections::VecDeque;

/// One channel's banks and counters.
struct Channel {
    ranks: Vec<RankTiming>,
    counts: OpCounts,
    /// DRAM cycle at which each rank's next refresh is due.
    next_refresh: Vec<u64>,
}

/// The DRAM back end: per-channel, per-rank bank timing.
struct MemoryBackend {
    map: AddressMap,
    channels: Vec<Channel>,
    ranks_per_dimm: u32,
    core_per_dram: u64,
    t_refi: u64,
}

impl MemoryBackend {
    fn new(cfg: &SimConfig) -> Self {
        let ranks_per_channel = (cfg.dram.dimms_per_channel * cfg.dram.ranks_per_dimm) as usize;
        let channels = (0..cfg.dram.channels)
            .map(|_| Channel {
                ranks: (0..ranks_per_channel)
                    .map(|_| RankTiming::new(cfg.dram.banks, cfg.timing))
                    .collect(),
                counts: OpCounts::default(),
                next_refresh: vec![cfg.timing.t_refi as u64; ranks_per_channel],
            })
            .collect();
        Self {
            map: AddressMap::nehalem_like(&cfg.dram, true),
            channels,
            ranks_per_dimm: cfg.dram.ranks_per_dimm,
            core_per_dram: cfg.core_cycles_per_dram_cycle(),
            t_refi: cfg.timing.t_refi as u64,
        }
    }

    /// The channel-local slot of a rank: DIMM-major, one per (DIMM, rank).
    fn rank_index(&self, dimm: u32, rank: u32) -> usize {
        (dimm * self.ranks_per_dimm + rank) as usize
    }

    /// Performs one DRAM burst; returns the core cycle at which read data
    /// is available (for writes the value is the bus completion, which the
    /// caller ignores).
    fn access(&mut self, addr: u64, is_write: bool, now_core: u64) -> u64 {
        let (loc, _) = self.map.decode(PhysAddr(addr));
        let rank_idx = self.rank_index(loc.dimm, loc.rank);
        let ch = &mut self.channels[loc.channel as usize];
        let now = now_core / self.core_per_dram;
        // Account elapsed auto-refreshes for this rank (energy and bank
        // occupancy are folded into the refresh count; the coarse model is
        // enough for Figure 16's dynamic-power comparison).
        if self.t_refi > 0 {
            let due = &mut ch.next_refresh[rank_idx];
            while *due <= now {
                ch.counts.refreshes += 1;
                *due += self.t_refi;
            }
        }
        let rank = &mut ch.ranks[rank_idx];
        // Open-page policy: row hit proceeds; conflict precharges first.
        match rank.open_row(loc.bank) {
            Some(r) if r == loc.row => {}
            Some(_) => {
                let at = rank.earliest(DramCmd::Precharge, loc.bank, loc.row, now);
                rank.issue(DramCmd::Precharge, loc.bank, loc.row, at);
                ch.counts.precharges += 1;
                let at = rank.earliest(DramCmd::Activate, loc.bank, loc.row, now);
                rank.issue(DramCmd::Activate, loc.bank, loc.row, at);
                ch.counts.activates += 1;
            }
            None => {
                let at = rank.earliest(DramCmd::Activate, loc.bank, loc.row, now);
                rank.issue(DramCmd::Activate, loc.bank, loc.row, at);
                ch.counts.activates += 1;
            }
        }
        let cmd = if is_write {
            DramCmd::Write
        } else {
            DramCmd::Read
        };
        let at = rank.earliest(cmd, loc.bank, loc.row, now);
        let done = rank.issue(cmd, loc.bank, loc.row, at);
        if is_write {
            ch.counts.writes += 1;
        } else {
            ch.counts.reads += 1;
        }
        done * self.core_per_dram
    }

    fn total_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for ch in &self.channels {
            c.merge(&ch.counts);
        }
        c
    }
}

/// One simulated core.
struct CoreSim {
    name: String,
    stream: AddressStream,
    /// `stream.gap_instructions()`, computed once.
    gap_instructions: f64,
    rng: Rng64,
    l1: Cache,
    l2: Cache,
    cycle: f64,
    instructions: f64,
    target: u64,
    cycle_at_target: Option<f64>,
    /// In-flight long-latency accesses: (instruction number, completion
    /// cycle).
    window: VecDeque<(f64, f64)>,
}

/// A complete 8-core simulation (paper Table 3 machine).
pub struct Simulation;

impl Simulation {
    /// Runs `workload` to `cfg.instructions_per_core` per core under the
    /// given LLC capacity loss. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configs or workloads.
    pub fn run(cfg: &SimConfig, workload: &Workload, loss: CapacityLoss, seed: u64) -> SimResult {
        cfg.validate().expect("invalid SimConfig");
        workload.validate().expect("invalid Workload");
        let _run_span = obs::span("perfsim.run_ns");
        let addr_space = cfg.dram.node_bytes();

        let mut llc = Cache::new(cfg.llc);
        let locked_lines = match loss {
            CapacityLoss::None => 0,
            CapacityLoss::Ways(n) => {
                llc.lock_ways_per_set(n);
                n as u64 * cfg.llc.sets()
            }
            CapacityLoss::RandomLines { bytes } => {
                let mut rng = Rng64::seed_from_u64(seed ^ 0x10C);
                let lines = bytes / cfg.llc.line_bytes as u64;
                let sets: Vec<u64> = (0..lines)
                    .map(|_| rng.gen_range(0..cfg.llc.sets()))
                    .collect();
                llc.lock_lines_in_sets(sets)
            }
        };

        let mut backend = MemoryBackend::new(cfg);
        let mut cores: Vec<CoreSim> = workload
            .cores
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let stream = AddressStream::new(spec, i as u32, addr_space);
                CoreSim {
                    name: spec.name.clone(),
                    gap_instructions: stream.gap_instructions(),
                    stream,
                    rng: Rng64::seed_from_u64(seed.wrapping_add(i as u64 * 0x9E37)),
                    l1: Cache::new(cfg.l1),
                    l2: Cache::new(cfg.l2),
                    cycle: 0.0,
                    instructions: 0.0,
                    target: cfg.instructions_per_core,
                    cycle_at_target: None,
                    window: VecDeque::new(),
                }
            })
            .collect();

        // Each core's clock, kept contiguous for the scan below, and the
        // number of cores short of their target.
        let mut clocks = vec![0.0f64; cores.len()];
        let mut running = cores.len();
        while running > 0 {
            // Advance the core that is furthest behind in time (the lowest
            // index on a tie), keeping the memory controller's arrival
            // order roughly chronological.
            let idx = furthest_behind(&clocks);
            let core = &mut cores[idx];
            let finished = core.cycle_at_target.is_some();
            step_core(cfg, core, &mut llc, &mut backend);
            assert!(!core.cycle.is_nan(), "finite cycles");
            clocks[idx] = core.cycle;
            if !finished && core.cycle_at_target.is_some() {
                running -= 1;
            }
        }

        let per_core: Vec<CoreStats> = cores
            .iter()
            .map(|c| {
                let cycles = c.cycle_at_target.expect("core finished");
                CoreStats {
                    name: c.name.clone(),
                    instructions: c.target,
                    cycles,
                    ipc: c.target as f64 / cycles,
                }
            })
            .collect();
        let elapsed = per_core.iter().map(|c| c.cycles).fold(0.0f64, f64::max);
        let result = SimResult {
            per_core,
            op_counts: backend.total_counts(),
            elapsed_cycles: elapsed,
            core_mhz: cfg.core_mhz,
            llc_stats: *llc.stats(),
        };
        record_run(cfg, workload, locked_lines, seed, &result);
        result
    }
}

/// The index of the smallest clock, the lowest one on a tie.
fn furthest_behind(clocks: &[f64]) -> usize {
    let (mut idx, mut min) = (0, clocks[0]);
    for (i, &c) in clocks.iter().enumerate().skip(1) {
        if c < min {
            (idx, min) = (i, c);
        }
    }
    idx
}

/// Publishes one finished simulation's LLC and DRAM telemetry.
fn record_run(cfg: &SimConfig, workload: &Workload, locked_lines: u64, seed: u64, r: &SimResult) {
    if !obs::metrics_enabled() {
        return;
    }
    // Fold the machine config and workload into the run manifest so a
    // snapshot records what produced it. perfsim is single-threaded.
    obs::note_run_context(
        seed,
        1,
        obs::fnv1a(format!("{cfg:?}|{workload:?}").as_bytes()),
    );
    obs::counter("perfsim.runs").inc();
    obs::counter("perfsim.llc.hits").add(r.llc_stats.hits);
    obs::counter("perfsim.llc.misses").add(r.llc_stats.misses);
    obs::counter("perfsim.llc.bypasses").add(r.llc_stats.bypasses);
    obs::counter("perfsim.llc.writebacks").add(r.llc_stats.writebacks);
    obs::gauge("perfsim.llc.locked_lines").set(locked_lines as f64);
    obs::counter("perfsim.dram.reads").add(r.op_counts.reads);
    obs::counter("perfsim.dram.writes").add(r.op_counts.writes);
    obs::counter("perfsim.dram.activates").add(r.op_counts.activates);
    obs::counter("perfsim.dram.precharges").add(r.op_counts.precharges);
    obs::counter("perfsim.dram.refreshes").add(r.op_counts.refreshes);
}

/// Advances one core past its next memory operation.
fn step_core(cfg: &SimConfig, core: &mut CoreSim, llc: &mut Cache, backend: &mut MemoryBackend) {
    let addr_space = cfg.dram.node_bytes();
    // Compute phase: instructions until the next memory op (exponential
    // gap around the spec's memory ratio).
    let gap = if core.gap_instructions.is_finite() {
        let u: f64 = core.rng.gen::<f64>().max(1e-12);
        -u.ln() * core.gap_instructions
    } else {
        1e9
    };
    core.instructions += gap + 1.0;
    core.cycle += (gap + 1.0) / cfg.base_ipc;

    // Retire completed accesses.
    while let Some(&(_, done)) = core.window.front() {
        if done <= core.cycle {
            core.window.pop_front();
        } else {
            break;
        }
    }

    // The memory operation.
    let (addr, is_write) = core.stream.next_access(&mut core.rng, addr_space);
    let completion = hierarchy_access(cfg, core, llc, backend, addr, is_write);
    if let Some(done) = completion {
        // ROB span: stall if the oldest outstanding access is too far back.
        while let Some(&(inst, old_done)) = core.window.front() {
            let over_span = core.instructions - inst > cfg.rob_span as f64;
            let over_mlp = core.window.len() >= cfg.mlp as usize;
            if over_span || over_mlp {
                core.cycle = core.cycle.max(old_done);
                core.window.pop_front();
            } else {
                break;
            }
        }
        core.window.push_back((core.instructions, done));
    }

    if core.cycle_at_target.is_none() && core.instructions >= core.target as f64 {
        // Account for draining the window: the core is done when its last
        // access completes.
        let drain = core
            .window
            .iter()
            .map(|&(_, d)| d)
            .fold(core.cycle, f64::max);
        core.cycle_at_target = Some(drain);
    }
}

/// Walks the cache hierarchy; returns the completion cycle of a
/// long-latency access (`None` for L1 hits and stores, which never block).
fn hierarchy_access(
    cfg: &SimConfig,
    core: &mut CoreSim,
    llc: &mut Cache,
    backend: &mut MemoryBackend,
    addr: u64,
    is_write: bool,
) -> Option<f64> {
    let now = core.cycle;
    let l1 = core.l1.access(addr, is_write);
    if l1.hit {
        return None;
    }
    // L1 dirty victim is absorbed by L2 (write-back, no core latency).
    if let Some(v) = l1.evicted {
        let r = core.l2.access(v.addr, true);
        if let Some(v2) = r.evicted {
            spill_llc(cfg, llc, backend, v2.addr, now);
        }
    }
    let l2 = core.l2.access(addr, is_write);
    if l2.hit {
        return if is_write {
            None
        } else {
            Some(now + cfg.l2_latency as f64)
        };
    }
    if let Some(v2) = l2.evicted {
        spill_llc(cfg, llc, backend, v2.addr, now);
    }
    let l3 = llc.access(addr, is_write);
    if l3.hit {
        return if is_write {
            None
        } else {
            Some(now + cfg.llc_latency as f64)
        };
    }
    if let Some(v3) = l3.evicted {
        backend.access(v3.addr, true, now as u64);
    }
    // Miss (or bypass of a fully locked set): fetch from DRAM.
    let done = backend.access(addr, false, now as u64) as f64 + cfg.llc_latency as f64;
    if is_write {
        // Store misses are absorbed by the write buffer; the line is now
        // allocated, and the core does not wait.
        None
    } else {
        Some(done)
    }
}

/// Writes a dirty LLC-bound victim into the LLC (and onwards to DRAM).
fn spill_llc(_cfg: &SimConfig, llc: &mut Cache, backend: &mut MemoryBackend, addr: u64, now: f64) {
    let r = llc.access(addr, true);
    if let Some(v) = r.evicted {
        backend.access(v.addr, true, now as u64);
    }
    if r.bypassed {
        backend.access(addr, true, now as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::catalog;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            instructions_per_core: 30_000,
            ..SimConfig::isca16()
        }
    }

    /// Every (DIMM, rank) of a channel gets its own timing state: with
    /// two DIMMs of two ranks each, the four ranks take four slots.
    #[test]
    fn rank_index_is_a_bijection() {
        let mut cfg = SimConfig::isca16();
        cfg.dram.dimms_per_channel = 2;
        cfg.dram.ranks_per_dimm = 2;
        cfg.validate().unwrap();
        let backend = MemoryBackend::new(&cfg);
        let slots = backend.channels[0].ranks.len();
        let mut seen = vec![false; slots];
        for dimm in 0..cfg.dram.dimms_per_channel {
            for rank in 0..cfg.dram.ranks_per_dimm {
                let i = backend.rank_index(dimm, rank);
                assert!(i < slots && !seen[i], "({dimm}, {rank}) -> {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = quick_cfg();
        let w = catalog::lu();
        let a = Simulation::run(&cfg, &w, CapacityLoss::None, 7);
        let b = Simulation::run(&cfg, &w, CapacityLoss::None, 7);
        assert_eq!(a.per_core[0].cycles, b.per_core[0].cycles);
        assert_eq!(a.op_counts, b.op_counts);
    }

    #[test]
    fn all_cores_reach_target() {
        let cfg = quick_cfg();
        let r = Simulation::run(&cfg, &catalog::ua(), CapacityLoss::None, 1);
        assert_eq!(r.per_core.len(), 8);
        for c in &r.per_core {
            assert_eq!(c.instructions, 30_000);
            assert!(c.ipc > 0.0 && c.ipc <= cfg.base_ipc);
        }
    }

    #[test]
    fn memory_bound_runs_slower_than_compute_bound() {
        let cfg = quick_cfg();
        let mem = Simulation::run(&cfg, &catalog::dc(), CapacityLoss::None, 1);
        let comp = Simulation::run(&cfg, &catalog::spec_comp(), CapacityLoss::None, 1);
        assert!(
            comp.throughput_ipc() > mem.throughput_ipc(),
            "comp {} vs mem {}",
            comp.throughput_ipc(),
            mem.throughput_ipc()
        );
    }

    /// A scaled-down machine whose LLC-capacity effects show up within a
    /// unit-test-sized run: 512 KiB LLC, a shared hot set filling 7/8 of
    /// it, enough instructions for ~20 reuses per hot line.
    fn capacity_probe() -> (SimConfig, crate::workload::Workload) {
        use crate::workload::{CoreSpec, Pattern, Region, Workload};
        use relaxfault_cache::{CacheConfig, Indexing};
        let cfg = SimConfig {
            llc: CacheConfig {
                size_bytes: 512 << 10,
                ways: 16,
                line_bytes: 64,
                indexing: Indexing::XorFold { rotation: 5 },
            },
            instructions_per_core: 120_000,
            ..SimConfig::isca16()
        };
        let spec = CoreSpec {
            name: "probe".into(),
            mem_ratio: 0.4,
            write_frac: 0.3,
            regions: vec![
                Region {
                    weight: 0.8,
                    bytes: 448 << 10,
                    pattern: Pattern::Random,
                    shared: true,
                },
                Region {
                    weight: 0.2,
                    bytes: 64 << 20,
                    pattern: Pattern::Stream,
                    shared: true,
                },
            ],
        };
        (cfg, Workload::threaded("probe", spec, 8))
    }

    #[test]
    fn losing_ways_never_helps() {
        let (cfg, w) = capacity_probe();
        let full = Simulation::run(&cfg, &w, CapacityLoss::None, 3);
        let cut = Simulation::run(&cfg, &w, CapacityLoss::Ways(8), 3);
        assert!(
            cut.throughput_ipc() < full.throughput_ipc(),
            "halving a saturated LLC must hurt: {} vs {}",
            cut.throughput_ipc(),
            full.throughput_ipc()
        );
        // And DRAM traffic grows when capacity shrinks.
        assert!(cut.op_counts.reads > full.op_counts.reads);
    }

    #[test]
    fn random_lines_cost_less_than_whole_ways() {
        let (cfg, w) = capacity_probe();
        let ways = Simulation::run(&cfg, &w, CapacityLoss::Ways(8), 3);
        let lines = Simulation::run(&cfg, &w, CapacityLoss::RandomLines { bytes: 32 << 10 }, 3);
        assert!(
            lines.throughput_ipc() > ways.throughput_ipc(),
            "32 KiB of scattered lines must cost less than 8 whole ways"
        );
    }

    #[test]
    fn dram_ops_are_counted() {
        let (cfg, w) = capacity_probe();
        let r = Simulation::run(&cfg, &w, CapacityLoss::None, 1);
        assert!(r.op_counts.reads > 0);
        assert!(r.op_counts.writes > 0, "write-backs must reach DRAM");
        assert!(r.op_counts.activates > 0);
        let hit_rate = r.op_counts.row_hit_rate();
        assert!(hit_rate > 0.0 && hit_rate < 1.0, "row hit rate {hit_rate}");
    }
}
