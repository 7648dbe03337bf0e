//! Slow-but-obviously-correct reference implementations of the repair
//! planners, the LLC occupancy accounting, and trial evaluation, plus the
//! differential properties that assert them bit-identical to the
//! production path.
//!
//! Every production optimization has a naive mirror here:
//!
//! * candidate enumeration — direct per-line [`RelaxMap`] /
//!   [`AddressMap`] encoding, no XOR-delta tables;
//! * LLC occupancy — `BTreeMap`/`BTreeSet` with a two-pass
//!   check-then-commit, no rollback needed, instead of the one-pass
//!   insert-and-roll-back hash path;
//! * trial evaluation — freshly allocated state per call, no scratch
//!   reuse, no planner caching;
//! * the whole engine — a single-threaded trial loop with no zero-fault
//!   fast path and no work stealing.
//!
//! The differential properties drive both sides with the corner-biased
//! generators from [`crate::gen`] and compare verdicts *and* full internal
//! state after every offer.

use crate::gen;
use relaxfault_cache::CacheConfig;
use relaxfault_core::mapping::{RelaxMap, RepairLine};
use relaxfault_core::plan::{FreeFault, Ppr, RelaxFault, RepairMechanism};
use relaxfault_dram::{AddressMap, DramConfig, DramLoc};
use relaxfault_ecc::EccOutcome;
use relaxfault_faults::{Extent, FaultModel, FaultRegion, FaultSampler, NodeFaults};
use relaxfault_relsim::engine::{run_scenarios, RunConfig, ScenarioResult};
use relaxfault_relsim::node::{evaluate_node_with, EvalScratch, NodeOutcome};
use relaxfault_relsim::repro::ReproCase;
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::prop::{self, PropResult, Source};
use relaxfault_util::rng::{mix64, Rng, Rng64};
use relaxfault_util::stats::Ecdf;
use relaxfault_util::{prop_assert, prop_assert_eq};
use std::collections::{BTreeMap, BTreeSet};

// --- naive LLC occupancy ---

/// Reference occupancy accounting: ordered maps, two passes. The check
/// pass mutates nothing, so atomicity is trivially correct — no rollback
/// to get wrong.
#[derive(Clone)]
pub struct NaiveOccupancy {
    max_ways: u32,
    line_bytes: u64,
    sets: u64,
    lines: BTreeSet<u64>,
    per_set: BTreeMap<u64, u32>,
    max_used: u32,
}

impl NaiveOccupancy {
    /// Mirrors `LlcOccupancy::new`.
    pub fn new(llc: &CacheConfig, max_ways: u32) -> Self {
        assert!(max_ways >= 1 && max_ways <= llc.ways);
        Self {
            max_ways,
            line_bytes: llc.line_bytes as u64,
            sets: llc.sets(),
            lines: BTreeSet::new(),
            per_set: BTreeMap::new(),
            max_used: 0,
        }
    }

    /// The same absolute ceiling the production planners precheck with.
    pub fn budget_ceiling(&self) -> u64 {
        self.sets * self.max_ways as u64
    }

    /// Atomic add of `(set, key)` candidates: pass 1 counts the genuinely
    /// fresh lines per set against the way limit, pass 2 commits them only
    /// if every set fits. Whether any set overflows does not depend on
    /// candidate order, so this matches the production early-abort verdict
    /// exactly.
    pub fn try_add(&mut self, cand: &[(u64, u64)]) -> bool {
        let mut fresh: Vec<(u64, u64)> = Vec::new();
        let mut seen = BTreeSet::new();
        for &(set, key) in cand {
            if self.lines.contains(&key) || !seen.insert(key) {
                continue;
            }
            fresh.push((set, key));
        }
        let mut add: BTreeMap<u64, u32> = BTreeMap::new();
        for &(set, _) in &fresh {
            *add.entry(set).or_insert(0) += 1;
        }
        for (&set, &n) in &add {
            if self.per_set.get(&set).copied().unwrap_or(0) + n > self.max_ways {
                return false;
            }
        }
        for (set, key) in fresh {
            self.lines.insert(key);
            let c = self.per_set.entry(set).or_insert(0);
            *c += 1;
            self.max_used = self.max_used.max(*c);
        }
        true
    }

    /// Lines locked.
    pub fn lines_used(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Bytes locked.
    pub fn bytes_used(&self) -> u64 {
        self.lines_used() * self.line_bytes
    }

    /// Worst per-set occupancy.
    pub fn max_ways_used(&self) -> u32 {
        self.max_used
    }

    /// Sorted `(set, count)` pairs.
    pub fn occupied_sets(&self) -> Vec<(u32, u32)> {
        self.per_set.iter().map(|(&s, &c)| (s as u32, c)).collect()
    }

    /// Sorted locked keys.
    pub fn line_keys(&self) -> Vec<u64> {
        self.lines.iter().copied().collect()
    }
}

// --- naive planners ---

/// Reference RelaxFault planner: every repair line encoded directly
/// through [`RelaxMap`], one `repair_addr` per line.
#[derive(Clone)]
pub struct NaiveRelax {
    map: RelaxMap,
    dram: DramConfig,
    occ: NaiveOccupancy,
}

impl NaiveRelax {
    /// Mirrors [`RelaxFault::new`].
    pub fn new(dram: &DramConfig, llc: &CacheConfig, max_ways: u32) -> Self {
        Self {
            map: RelaxMap::new(dram, llc),
            dram: *dram,
            occ: NaiveOccupancy::new(llc, max_ways),
        }
    }

    fn enumerate(&self, regions: &[FaultRegion]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for r in regions {
            let rect = r.footprint(&self.dram);
            let groups = rect.colblocks.divided(self.map.coalesce_factor());
            for bank in rect.banks.iter() {
                for row in rect.rows.iter() {
                    for colgroup in groups.iter() {
                        let line = RepairLine {
                            rank: r.rank,
                            device: r.device,
                            bank,
                            row,
                            colgroup,
                        };
                        out.push((self.map.set_of(&line), self.map.key_of(&line)));
                    }
                }
            }
        }
        out
    }

    fn lines_needed(&self, regions: &[FaultRegion]) -> u64 {
        regions
            .iter()
            .map(|r| r.footprint(&self.dram))
            .map(|rect| {
                rect.banks.len() as u64
                    * rect.rows.len()
                    * rect.colblocks.divided(self.map.coalesce_factor()).len()
            })
            .sum()
    }

    /// Mirrors [`RelaxFault::try_repair_with`], enumeration and all.
    pub fn try_repair(&mut self, regions: &[FaultRegion]) -> bool {
        if self.lines_needed(regions) > self.occ.budget_ceiling() {
            return false;
        }
        let cand = self.enumerate(regions);
        self.occ.try_add(&cand)
    }

    /// The occupancy state, for comparison.
    pub fn occupancy(&self) -> &NaiveOccupancy {
        &self.occ
    }
}

/// Reference FreeFault planner: every faulty block encoded directly
/// through the physical [`AddressMap`].
#[derive(Clone)]
pub struct NaiveFree {
    map: AddressMap,
    llc: CacheConfig,
    dram: DramConfig,
    occ: NaiveOccupancy,
}

impl NaiveFree {
    /// Mirrors [`FreeFault::new`].
    pub fn new(dram: &DramConfig, llc: &CacheConfig, max_ways: u32) -> Self {
        Self {
            map: AddressMap::nehalem_like(dram, true),
            llc: *llc,
            dram: *dram,
            occ: NaiveOccupancy::new(llc, max_ways),
        }
    }

    fn enumerate(&self, regions: &[FaultRegion]) -> Vec<(u64, u64)> {
        let off = self.llc.offset_bits();
        let mut out = Vec::new();
        for r in regions {
            let rect = r.footprint(&self.dram);
            for bank in rect.banks.iter() {
                for row in rect.rows.iter() {
                    for colblock in rect.colblocks.iter() {
                        let addr = self
                            .map
                            .encode(
                                DramLoc {
                                    channel: r.rank.channel,
                                    dimm: r.rank.dimm,
                                    rank: r.rank.rank,
                                    bank,
                                    row,
                                    colblock,
                                },
                                0,
                            )
                            .0;
                        out.push((self.llc.set_of(addr), addr >> off));
                    }
                }
            }
        }
        out
    }

    fn lines_needed(&self, regions: &[FaultRegion]) -> u64 {
        regions
            .iter()
            .map(|r| r.footprint(&self.dram).block_count())
            .sum()
    }

    /// Mirrors [`FreeFault::try_repair_with`].
    pub fn try_repair(&mut self, regions: &[FaultRegion]) -> bool {
        if self.lines_needed(regions) > self.occ.budget_ceiling() {
            return false;
        }
        let cand = self.enumerate(regions);
        self.occ.try_add(&cand)
    }

    /// The occupancy state, for comparison.
    pub fn occupancy(&self) -> &NaiveOccupancy {
        &self.occ
    }
}

/// Reference PPR planner: ordered maps, row lists re-derived from the
/// extents with a plain match, two-pass check-then-commit.
pub struct NaivePpr {
    dram: DramConfig,
    banks_per_group: u32,
    spares_per_group: u32,
    used: BTreeMap<(u32, u32, u32), u32>,
    rows: BTreeSet<(u32, u32, u32, u32)>,
}

impl NaivePpr {
    /// Mirrors [`Ppr::with_spares`]; [`Ppr::new`]'s defaults are
    /// `banks.div_ceil(4).max(1)` banks per group and one spare.
    pub fn new(dram: &DramConfig, banks_per_group: u32, spares_per_group: u32) -> Self {
        Self {
            dram: *dram,
            banks_per_group,
            spares_per_group,
            used: BTreeMap::new(),
            rows: BTreeSet::new(),
        }
    }

    /// Mirrors [`Ppr::try_repair_with`].
    pub fn try_repair(&mut self, regions: &[FaultRegion]) -> bool {
        let total_spares =
            (self.dram.banks / self.banks_per_group).max(1) as u64 * self.spares_per_group as u64;
        let mut cand: BTreeSet<(u32, u32, u32, u32)> = BTreeSet::new();
        for r in regions {
            let flat = r.rank.flat_index(&self.dram);
            let per_bank: u64 = match r.extent {
                Extent::Bit { .. } | Extent::Word { .. } | Extent::Row { .. } => 1,
                Extent::Column { row_count, .. } | Extent::RowCluster { row_count, .. } => {
                    row_count as u64
                }
                Extent::Banks { .. } => return false,
            };
            if per_bank > total_spares {
                return false;
            }
            match r.extent {
                Extent::Bit { bank, row, .. }
                | Extent::Word { bank, row, .. }
                | Extent::Row { bank, row } => {
                    cand.insert((flat, r.device, bank, row));
                }
                Extent::Column {
                    bank,
                    row_start,
                    row_count,
                    ..
                }
                | Extent::RowCluster {
                    bank,
                    row_start,
                    row_count,
                } => {
                    for row in row_start..row_start + row_count {
                        cand.insert((flat, r.device, bank, row));
                    }
                }
                Extent::Banks { .. } => unreachable!(),
            }
        }
        // Check pass: fresh rows per (rank, device, group) against the
        // remaining spares.
        let mut fresh: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
        for &(flat, device, bank, row) in &cand {
            if !self.rows.contains(&(flat, device, bank, row)) {
                *fresh
                    .entry((flat, device, bank / self.banks_per_group))
                    .or_insert(0) += 1;
            }
        }
        for (group, &n) in &fresh {
            if self.used.get(group).copied().unwrap_or(0) + n > self.spares_per_group {
                return false;
            }
        }
        for (flat, device, bank, row) in cand {
            if self.rows.insert((flat, device, bank, row)) {
                *self
                    .used
                    .entry((flat, device, bank / self.banks_per_group))
                    .or_insert(0) += 1;
            }
        }
        true
    }

    /// Spares consumed.
    pub fn spares_used(&self) -> u64 {
        self.used.values().map(|&v| v as u64).sum()
    }

    /// Sorted substituted rows.
    pub fn repaired_rows(&self) -> Vec<(u32, u32, u32, u32)> {
        self.rows.iter().copied().collect()
    }
}

// --- state comparison ---

fn compare_occupancy(
    lines_used: u64,
    bytes_used: u64,
    max_ways_used: u32,
    mut keys: Vec<u64>,
    mut sets: Vec<(u32, u32)>,
    naive: &NaiveOccupancy,
) -> Result<(), String> {
    if lines_used != naive.lines_used() {
        return Err(format!(
            "lines_used {lines_used} != naive {}",
            naive.lines_used()
        ));
    }
    if bytes_used != naive.bytes_used() {
        return Err(format!(
            "bytes_used {bytes_used} != naive {}",
            naive.bytes_used()
        ));
    }
    if max_ways_used != naive.max_ways_used() {
        return Err(format!(
            "max_ways_used {max_ways_used} != naive {}",
            naive.max_ways_used()
        ));
    }
    keys.sort_unstable();
    if keys != naive.line_keys() {
        return Err("locked line keys diverge".into());
    }
    sets.sort_unstable();
    if sets != naive.occupied_sets() {
        return Err("per-set occupancy diverges".into());
    }
    Ok(())
}

/// Full-state equality between the production RelaxFault planner and its
/// reference, bit for bit. Reading the production state writes out a
/// pending closed-form admission, hence `&mut`.
///
/// # Errors
///
/// Returns a description of the first diverging piece of state.
pub fn compare_relax(prod: &mut RelaxFault, naive: &NaiveRelax) -> Result<(), String> {
    compare_occupancy(
        prod.lines_used(),
        prod.bytes_used(),
        prod.max_ways_used(),
        prod.line_keys().collect(),
        prod.occupied_sets().collect(),
        &naive.occ,
    )
}

/// Full-state equality between the production FreeFault planner and its
/// reference.
///
/// # Errors
///
/// Returns a description of the first diverging piece of state.
pub fn compare_free(prod: &mut FreeFault, naive: &NaiveFree) -> Result<(), String> {
    compare_occupancy(
        prod.lines_used(),
        prod.bytes_used(),
        prod.max_ways_used(),
        prod.line_keys().collect(),
        prod.occupied_sets().collect(),
        &naive.occ,
    )
}

/// Full-state equality between the production PPR planner and its
/// reference.
///
/// # Errors
///
/// Returns a description of the first diverging piece of state.
pub fn compare_ppr(prod: &Ppr, naive: &NaivePpr) -> Result<(), String> {
    if prod.spares_used() != naive.spares_used() {
        return Err(format!(
            "spares_used {} != naive {}",
            prod.spares_used(),
            naive.spares_used()
        ));
    }
    let mut rows: Vec<_> = prod.repaired_rows().collect();
    rows.sort_unstable();
    if rows != naive.repaired_rows() {
        return Err("substituted row sets diverge".into());
    }
    Ok(())
}

// --- reference trial evaluation ---

enum RefPlanner {
    None,
    Relax(RelaxFault),
    Free(FreeFault),
    Ppr(Ppr),
}

impl RefPlanner {
    fn new(s: &Scenario) -> Self {
        match s.mechanism {
            Mechanism::None => RefPlanner::None,
            Mechanism::RelaxFault { max_ways } => {
                RefPlanner::Relax(RelaxFault::new(&s.dram, &s.llc, max_ways))
            }
            Mechanism::FreeFault { max_ways } => {
                RefPlanner::Free(FreeFault::new(&s.dram, &s.llc, max_ways))
            }
            Mechanism::Ppr => RefPlanner::Ppr(Ppr::new(&s.dram)),
            Mechanism::PprCustom {
                banks_per_group,
                spares_per_group,
            } => RefPlanner::Ppr(Ppr::with_spares(&s.dram, banks_per_group, spares_per_group)),
        }
    }

    fn try_repair(&mut self, regions: &[FaultRegion]) -> bool {
        // Allocating form: a fresh PlanScratch per offer, by design.
        match self {
            RefPlanner::None => false,
            RefPlanner::Relax(p) => p.try_repair(regions),
            RefPlanner::Free(p) => p.try_repair(regions),
            RefPlanner::Ppr(p) => p.try_repair(regions),
        }
    }

    fn bytes_used(&self) -> u64 {
        match self {
            RefPlanner::None => 0,
            RefPlanner::Relax(p) => p.bytes_used(),
            RefPlanner::Free(p) => p.bytes_used(),
            RefPlanner::Ppr(p) => p.bytes_used(),
        }
    }

    fn max_ways_used(&self) -> u32 {
        match self {
            RefPlanner::None => 0,
            RefPlanner::Relax(p) => p.max_ways_used(),
            RefPlanner::Free(p) => p.max_ways_used(),
            RefPlanner::Ppr(p) => p.max_ways_used(),
        }
    }
}

/// Reference trial evaluation: the same timeline semantics as
/// `evaluate_node_with`, written with freshly allocated vectors and a
/// planner built per call — no scratch reuse, no caching, nothing carried
/// across calls. Consumes the RNG in the identical order, so outcomes must
/// match the production path bit for bit.
pub fn reference_evaluate_node<R: Rng + ?Sized>(
    scenario: &Scenario,
    node: &NodeFaults,
    rng: &mut R,
) -> NodeOutcome {
    let cfg = &scenario.dram;
    let mut out = NodeOutcome::default();
    if node.events.is_empty() {
        return out;
    }
    let mut planner: Option<RefPlanner> = None;
    let mut live: Vec<(u32, FaultRegion)> = Vec::new();

    for event in &node.events {
        let permanent = event.is_permanent();
        if permanent {
            out.faulty = true;
            out.permanent_faults += 1;
        }
        let live_regions: Vec<FaultRegion> = live.iter().map(|(_, r)| *r).collect();
        let mut outcome =
            scenario
                .ecc
                .classify_arrival(cfg, &event.regions, permanent, &live_regions, rng);
        let event_dimms: Vec<u32> = event
            .regions
            .iter()
            .map(|r| r.rank.dimm_index(cfg))
            .collect();

        let repaired = permanent && {
            let p = planner.get_or_insert_with(|| RefPlanner::new(scenario));
            p.try_repair(&event.regions)
        };

        if outcome == EccOutcome::Due
            && repaired
            && scenario.ecc.p_repair_preempts_due > 0.0
            && rng.gen_bool(scenario.ecc.p_repair_preempts_due)
        {
            outcome = EccOutcome::Corrected;
        }

        match outcome {
            EccOutcome::Corrected => {}
            EccOutcome::Due => {
                out.dues += 1;
                if permanent {
                    if scenario.replacement == ReplacementPolicy::AfterDue {
                        for &dimm in &event_dimms {
                            out.replacements += 1;
                            live.retain(|(d, _)| *d != dimm);
                        }
                        continue;
                    }
                } else {
                    out.transient_dues += 1;
                }
            }
            EccOutcome::Sdc => {
                out.sdcs += 1;
            }
        }

        if !permanent || repaired {
            continue;
        }
        out.unrepaired_faults += 1;
        out.unrepaired_by_mode[event.mode as usize] += 1;
        for r in &event.regions {
            live.push((r.rank.dimm_index(cfg), *r));
        }

        if let ReplacementPolicy::AfterErrors { trigger_prob } = scenario.replacement {
            if rng.gen_bool(trigger_prob) {
                for &dimm in &event_dimms {
                    out.replacements += 1;
                    live.retain(|(d, _)| *d != dimm);
                }
            }
        }
    }

    out.fully_repaired = out.faulty && out.unrepaired_faults == 0;
    if let Some(p) = &planner {
        out.repair_bytes = p.bytes_used();
        out.max_ways = p.max_ways_used();
    }
    out
}

/// Reference engine: single thread, no zero-fault fast path (every trial
/// is fully sampled with the allocating `sample_node`), no work stealing,
/// reference trial evaluation. Same `(seed, trial, group)` stream keying,
/// so [`run_scenarios`] must reproduce it bit for bit at any thread count.
pub fn reference_run_scenarios(scenarios: &[Scenario], run: &RunConfig) -> Vec<ScenarioResult> {
    assert!(!scenarios.is_empty());
    let cfg = scenarios[0].dram;
    let mut groups: Vec<(FaultModel, Vec<usize>)> = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        if let Some((_, idxs)) = groups.iter_mut().find(|(m, _)| *m == s.fault_model) {
            idxs.push(i);
        } else {
            groups.push((s.fault_model, vec![i]));
        }
    }
    let mut results: Vec<ScenarioResult> = scenarios
        .iter()
        .map(|s| ScenarioResult {
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
        })
        .collect();
    let samplers: Vec<FaultSampler> = groups
        .iter()
        .map(|(model, _)| FaultSampler::new(model, &cfg))
        .collect();
    for trial in 0..run.trials {
        for (gi, (_, members)) in groups.iter().enumerate() {
            let mut sample_rng = Rng64::seed_from_u64(mix64(run.seed, trial, gi as u64));
            let node = samplers[gi].sample_node(&mut sample_rng);
            for &si in members {
                let mut eval_rng = Rng64::seed_from_u64(mix64(run.seed ^ 0xECC, trial, 0));
                let out = reference_evaluate_node(&scenarios[si], &node, &mut eval_rng);
                let r = &mut results[si];
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
        }
    }
    results
}

// --- differential properties ---

/// RelaxFault differential: drive production and reference planners with
/// the same corner-biased offer sequence; verdicts and full occupancy
/// state must agree after every offer, and the production invariants must
/// hold throughout.
pub fn relax_oracle_property(src: &mut Source) -> PropResult {
    let dram = DramConfig::isca16_reliability();
    let llc = if src.bool() {
        CacheConfig::isca16_llc()
    } else {
        CacheConfig::isca16_llc_no_hash()
    };
    let max_ways = gen::arb_max_ways(src);
    let offers = gen::arb_offer_sequence(src, &dram);
    let mut prod = RelaxFault::new(&dram, &llc, max_ways);
    let mut naive = NaiveRelax::new(&dram, &llc, max_ways);
    for offer in &offers {
        let a = prod.try_repair(offer);
        let b = naive.try_repair(offer);
        prop_assert_eq!(a, b, "verdict diverged for {offer:?}");
        if let Err(e) = compare_relax(&mut prod, &naive) {
            prop_assert!(false, "state diverged after {offer:?}: {e}");
        }
        if let Err(e) = prod.check_invariants() {
            prop_assert!(false, "production invariant: {e}");
        }
    }
    Ok(())
}

/// FreeFault differential, same shape as [`relax_oracle_property`].
pub fn free_oracle_property(src: &mut Source) -> PropResult {
    let dram = DramConfig::isca16_reliability();
    let llc = if src.bool() {
        CacheConfig::isca16_llc()
    } else {
        CacheConfig::isca16_llc_no_hash()
    };
    let max_ways = gen::arb_max_ways(src);
    let offers = gen::arb_offer_sequence(src, &dram);
    let mut prod = FreeFault::new(&dram, &llc, max_ways);
    let mut naive = NaiveFree::new(&dram, &llc, max_ways);
    for offer in &offers {
        let a = prod.try_repair(offer);
        let b = naive.try_repair(offer);
        prop_assert_eq!(a, b, "verdict diverged for {offer:?}");
        if let Err(e) = compare_free(&mut prod, &naive) {
            prop_assert!(false, "state diverged after {offer:?}: {e}");
        }
        if let Err(e) = prod.check_invariants() {
            prop_assert!(false, "production invariant: {e}");
        }
    }
    Ok(())
}

/// PPR differential: spare accounting and substituted-row sets must agree
/// offer by offer, across default and custom groupings.
pub fn ppr_oracle_property(src: &mut Source) -> PropResult {
    let dram = DramConfig::isca16_reliability();
    let (bpg, spg) = if src.bool() {
        (dram.banks.div_ceil(4).max(1), 1)
    } else {
        (src.u32(1, dram.banks), src.u32(1, 8))
    };
    let offers = gen::arb_offer_sequence(src, &dram);
    let mut prod = Ppr::with_spares(&dram, bpg, spg);
    let mut naive = NaivePpr::new(&dram, bpg, spg);
    for offer in &offers {
        let a = prod.try_repair(offer);
        let b = naive.try_repair(offer);
        prop_assert_eq!(a, b, "verdict diverged for {offer:?}");
        if let Err(e) = compare_ppr(&prod, &naive) {
            prop_assert!(false, "state diverged after {offer:?}: {e}");
        }
        if let Err(e) = prod.check_invariants() {
            prop_assert!(false, "production invariant: {e}");
        }
    }
    Ok(())
}

/// Trial-evaluation differential: sampled lifetimes (FIT-scaled so faults
/// are common) evaluated by the production scratch-reusing path — two
/// trials back to back on the *same* scratch — against the allocating
/// reference, under a generated mechanism and replacement policy.
pub fn eval_oracle_property(src: &mut Source) -> PropResult {
    let mechanism = match src.choice_index(5) {
        0 => Mechanism::None,
        1 => Mechanism::RelaxFault {
            max_ways: gen::arb_max_ways(src),
        },
        2 => Mechanism::FreeFault {
            max_ways: gen::arb_max_ways(src),
        },
        3 => Mechanism::Ppr,
        _ => Mechanism::PprCustom {
            banks_per_group: 2,
            spares_per_group: src.u32(1, 4),
        },
    };
    let replacement = match src.choice_index(3) {
        0 => ReplacementPolicy::None,
        1 => ReplacementPolicy::AfterDue,
        _ => ReplacementPolicy::AfterErrors { trigger_prob: 0.5 },
    };
    let scenario = Scenario::isca16_baseline()
        .with_fit_scale(300.0)
        .with_mechanism(mechanism)
        .with_replacement(replacement);
    let sampler = FaultSampler::new(&scenario.fault_model, &scenario.dram);
    let mut scratch = EvalScratch::new();
    // Two consecutive trials through one scratch: the second exercises
    // planner reset and buffer reuse against the from-scratch reference.
    for _ in 0..2 {
        let sample_seed = src.u64(0, u64::MAX);
        let eval_seed = src.u64(0, u64::MAX);
        let node = sampler.sample_node(&mut Rng64::seed_from_u64(sample_seed));
        let mut prod_rng = Rng64::seed_from_u64(eval_seed);
        let prod = evaluate_node_with(&scenario, &node, &mut prod_rng, &mut scratch);
        let mut ref_rng = Rng64::seed_from_u64(eval_seed);
        let reference = reference_evaluate_node(&scenario, &node, &mut ref_rng);
        prop_assert_eq!(prod, reference, "outcome diverged");
        if let Err(e) = scratch.check_invariants() {
            prop_assert!(false, "scratch invariant: {e}");
        }
    }
    Ok(())
}

/// Arms that exercise the engine's plan sharing: one generated mechanism
/// under ReplA, ReplB and no replacement (one planner key, so one plan
/// replayed three ways), plus a RelaxFault-1 pair that differs only in
/// LLC set hashing (two keys, which must never share a plan).
fn plan_sharing_arms(src: &mut Source, fit_scale: f64) -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let mechanism = match src.choice_index(3) {
        0 => Mechanism::RelaxFault {
            max_ways: gen::arb_max_ways(src),
        },
        1 => Mechanism::FreeFault {
            max_ways: gen::arb_max_ways(src),
        },
        _ => Mechanism::Ppr,
    };
    let rf1 = base
        .clone()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None);
    let arm = base.with_mechanism(mechanism);
    vec![
        arm.clone().with_replacement(ReplacementPolicy::AfterDue),
        arm.clone()
            .with_replacement(ReplacementPolicy::AfterErrors { trigger_prob: 0.5 }),
        arm.with_replacement(ReplacementPolicy::None),
        rf1.clone().without_set_hashing(),
        rf1,
    ]
}

/// Whole-engine differential: the parallel, fast-pathed, work-stealing,
/// plan-sharing production engine against the single-threaded allocating
/// reference (which evaluates every arm on its own), at a generated
/// thread count, chunk size and FIT scale.
pub fn engine_oracle_property(src: &mut Source) -> PropResult {
    // 0.2 leaves almost every trial clean, so the zero-fault gate decides
    // nearly everything; 300 makes faults (and failed try_add offers
    // against the 1-way arms) the common case.
    let fit = [0.2, 40.0, 300.0][src.choice_index(3)];
    let arms = plan_sharing_arms(src, fit);
    let run = RunConfig {
        trials: src.u64(1, 60),
        seed: src.u64(0, u64::MAX),
        threads: src.usize(1, 4),
        chunk_size: src.u64(0, 8),
    };
    let prod = run_scenarios(&arms, &run);
    let reference = reference_run_scenarios(&arms, &run);
    prop_assert_eq!(prod, reference, "engine diverged from reference");
    Ok(())
}

/// A named differential property: the replay dispatch key and the
/// property function it resolves to.
pub type PropCase = (&'static str, fn(&mut Source) -> PropResult);

/// The named differential properties, the replay dispatch table for
/// property-based repro cases.
pub const PROP_CASES: &[PropCase] = &[
    ("relax_oracle", relax_oracle_property),
    ("free_oracle", free_oracle_property),
    ("ppr_oracle", ppr_oracle_property),
    ("eval_oracle", eval_oracle_property),
    ("engine_oracle", engine_oracle_property),
];

/// Runs a named property `cases` times; on failure, persists the shrunk
/// choice stream as a repro case under `results/relcheck/` and panics with
/// its path.
///
/// # Panics
///
/// Panics if the property fails (after writing the repro).
pub fn check_with_repro(name: &str, cases: u32, property: fn(&mut Source) -> PropResult) {
    if let Some(path) = run_with_repro(name, cases, property) {
        panic!("{name} failed; repro written to {path} — rerun with `relcheck replay`");
    }
}

/// Non-panicking form of [`check_with_repro`]: returns the repro path on
/// failure, `None` on success.
pub fn run_with_repro(
    name: &str,
    cases: u32,
    property: fn(&mut Source) -> PropResult,
) -> Option<String> {
    let ce = prop::find_counterexample(cases, property)?;
    let case = ReproCase {
        case: name.into(),
        reason: ce.message,
        seed: ce.seed,
        trial: ce.case,
        group: 0,
        epoch: None,
        scenarios: Vec::new(),
        digest: None,
        prop_choices: ce.choices,
    };
    Some(case.write().display().to_string())
}

/// Runs every named property at a reduced case count — the CI oracle
/// smoke pass.
///
/// # Errors
///
/// Returns the failing property's name and repro path.
pub fn run_smoke(cases: u32) -> Result<(), String> {
    for &(name, property) in PROP_CASES {
        if let Some(path) = run_with_repro(name, cases, property) {
            return Err(format!("{name} failed; repro written to {path}"));
        }
    }
    Ok(())
}
