//! Replays one node's fault timeline against a scenario.

use crate::scenario::{Mechanism, PlannerKey, ReplacementPolicy, Scenario};
use relaxfault_core::plan::{FreeFault, PlanScratch, Ppr, RelaxFault, RepairMechanism};
use relaxfault_ecc::EccOutcome;
use relaxfault_faults::{FaultEvent, FaultRegion, NodeFaults};
use relaxfault_util::rng::Rng;

/// Everything one node-lifetime contributes to the system metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeOutcome {
    /// The node saw at least one permanent fault.
    pub faulty: bool,
    /// Every permanent fault was repaired by the mechanism.
    pub fully_repaired: bool,
    /// LLC bytes locked for repair at end of life.
    pub repair_bytes: u64,
    /// Worst per-set repair occupancy.
    pub max_ways: u32,
    /// Detected uncorrectable errors, total.
    pub dues: u32,
    /// DUEs whose triggering fault was transient (no replacement under
    /// ReplA).
    pub transient_dues: u32,
    /// Silent data corruptions.
    pub sdcs: u32,
    /// DIMMs replaced.
    pub replacements: u32,
    /// Permanent faults the mechanism could not repair.
    pub unrepaired_faults: u32,
    /// Permanent faults observed.
    pub permanent_faults: u32,
    /// Unrepaired permanent faults by [`relaxfault_faults::FaultMode`]
    /// index (the coverage-gap fingerprint).
    pub unrepaired_by_mode: [u32; 6],
}

enum Planner {
    None,
    Relax(RelaxFault),
    Free(FreeFault),
    Ppr(Ppr),
}

impl Planner {
    fn new(s: &Scenario) -> Self {
        match s.mechanism {
            Mechanism::None => Planner::None,
            Mechanism::RelaxFault { max_ways } => {
                Planner::Relax(RelaxFault::new(&s.dram, &s.llc, max_ways))
            }
            Mechanism::FreeFault { max_ways } => {
                Planner::Free(FreeFault::new(&s.dram, &s.llc, max_ways))
            }
            Mechanism::Ppr => Planner::Ppr(Ppr::new(&s.dram)),
            Mechanism::PprCustom {
                banks_per_group,
                spares_per_group,
            } => Planner::Ppr(Ppr::with_spares(&s.dram, banks_per_group, spares_per_group)),
        }
    }

    fn try_repair(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool {
        match self {
            Planner::None => false,
            Planner::Relax(p) => p.try_repair_with(regions, scratch),
            Planner::Free(p) => p.try_repair_with(regions, scratch),
            Planner::Ppr(p) => p.try_repair_with(regions, scratch),
        }
    }

    fn reset(&mut self) {
        match self {
            Planner::None => {}
            Planner::Relax(p) => p.reset(),
            Planner::Free(p) => p.reset(),
            Planner::Ppr(p) => p.reset(),
        }
    }

    fn bytes_used(&self) -> u64 {
        match self {
            Planner::None => 0,
            Planner::Relax(p) => p.bytes_used(),
            Planner::Free(p) => p.bytes_used(),
            Planner::Ppr(p) => p.bytes_used(),
        }
    }

    fn max_ways_used(&self) -> u32 {
        match self {
            Planner::None => 0,
            Planner::Relax(p) => p.max_ways_used(),
            Planner::Free(p) => p.max_ways_used(),
            Planner::Ppr(p) => p.max_ways_used(),
        }
    }
}

/// The planner half of an evaluation, made by [`plan_events`] and read by
/// [`replay_events`]: one repair verdict per event and the planner's LLC
/// footprint after each event. It owns the planner that made it, built
/// on the first permanent fault ever planned and reset (not rebuilt) on
/// the first of each later event list, so holding one across trials keeps
/// the planner's warmed-up capacity. A plan is bound to the planner key
/// (mechanism, LLC and DRAM geometry) of its first use; reuse under
/// another key is rejected by a debug assertion.
#[derive(Default)]
pub struct EventPlan {
    planner: Option<Planner>,
    /// Key the cached planner was built for.
    key: Option<PlannerKey>,
    /// Scratch for the repair planners.
    scratch: PlanScratch,
    /// `repaired[i]`: event `i` is permanent and the planner accepted it.
    repaired: Vec<bool>,
    /// `trail[i]`: `(repair_bytes, max_ways)` after planning
    /// `events[..=i]`; `(0, 0)` until the list's first permanent fault.
    trail: Vec<(u64, u32)>,
}

impl EventPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies the cached planner's bookkeeping (occupancy sums, way
    /// limits, spare accounting). A plan with no planner yet trivially
    /// passes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.planner {
            None | Some(Planner::None) => Ok(()),
            Some(Planner::Relax(p)) => p.check_invariants(),
            Some(Planner::Free(p)) => p.check_invariants(),
            Some(Planner::Ppr(p)) => p.check_invariants(),
        }
    }
}

/// The replay half's state: the live (unrepaired, unreplaced) permanent
/// faults, split struct-of-arrays so the region plane feeds ECC
/// classification directly — no per-event repack.
#[derive(Default)]
struct LiveFaults {
    /// DIMM plane; index `i` tags `regions[i]`.
    dimms: Vec<u32>,
    /// Region plane (parallel to `dimms`).
    regions: Vec<FaultRegion>,
    /// DIMM indices of the current event's regions.
    event_dimms: Vec<u32>,
}

impl LiveFaults {
    fn check_invariants(&self) -> Result<(), String> {
        if self.dimms.len() != self.regions.len() {
            return Err(format!(
                "live planes out of step: {} dimms vs {} regions",
                self.dimms.len(),
                self.regions.len()
            ));
        }
        Ok(())
    }

    /// Removes every live fault on `dimm`, keeping both planes in
    /// lockstep and preserving arrival order.
    fn drop_dimm(&mut self, dimm: u32) {
        let mut keep = self.dimms.iter();
        self.regions.retain(|_| *keep.next().unwrap() != dimm);
        self.dimms.retain(|&d| d != dimm);
    }
}

/// Reusable per-(worker, scenario) evaluation state: an [`EventPlan`]
/// (planner included) and the live-fault planes. Holding one of these
/// across trials removes every allocation from evaluation *and* lets the
/// repair planner keep its warmed-up hash-table capacity.
///
/// A scratch is bound to the planner key of its first use (see
/// [`EventPlan`]); reuse under another key is rejected by a debug
/// assertion.
#[derive(Default)]
pub struct EvalScratch {
    /// The plan [`evaluate_events_with`] makes and replays.
    plan: EventPlan,
    live: LiveFaults,
}

impl EvalScratch {
    /// Creates an empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies the live-fault planes and the cached planner's
    /// bookkeeping (see [`EventPlan::check_invariants`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.live.check_invariants()?;
        self.plan.check_invariants()
    }
}

/// Evaluation state for every arm of a run, with repair planning shared.
/// Each arm replays the plan of its *owner*: the first arm with the same
/// fault model (so the same event lists) and the same planner key (so
/// the same verdicts). ReplA, ReplB and no-replacement arms of one
/// mechanism thus plan once; non-owner arms never build a planner. The
/// engine and the fleet hold one per worker thread.
pub(crate) struct ArmScratch {
    /// `owner[i]`: the arm whose plan arm `i` replays (`owner[i] <= i`).
    owner: Vec<usize>,
    /// One plan per arm; only owners' are ever planned into.
    plans: Vec<EventPlan>,
    /// One set of live-fault planes per arm.
    live: Vec<LiveFaults>,
}

impl ArmScratch {
    pub(crate) fn new(scenarios: &[Scenario]) -> Self {
        let owner = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let key = s.planner_key();
                scenarios[..i]
                    .iter()
                    .position(|o| o.fault_model == s.fault_model && o.planner_key() == key)
                    .unwrap_or(i)
            })
            .collect();
        Self {
            owner,
            plans: scenarios.iter().map(|_| EventPlan::new()).collect(),
            live: scenarios.iter().map(|_| LiveFaults::default()).collect(),
        }
    }

    /// Plans `events` once per distinct planner among `members`, a set of
    /// arms that all see `events`.
    pub(crate) fn plan(
        &mut self,
        scenarios: &[Scenario],
        members: &[usize],
        events: &[FaultEvent],
    ) {
        for &si in members {
            if self.owner[si] == si {
                plan_events(&scenarios[si], events, &mut self.plans[si]);
            }
        }
    }

    /// Replays arm `si` on `events`, a prefix of the list last planned for
    /// its members (see [`replay_events`]).
    pub(crate) fn replay<R: Rng + ?Sized>(
        &mut self,
        scenarios: &[Scenario],
        si: usize,
        events: &[FaultEvent],
        rng: &mut R,
    ) -> NodeOutcome {
        let plan = &self.plans[self.owner[si]];
        replay(&scenarios[si], events, plan, rng, &mut self.live[si])
    }

    /// The `RF_CHECK=1` hook: every member's live planes, and each
    /// distinct planner among `members` once, on the plan that made it.
    ///
    /// # Errors
    ///
    /// Names the first arm whose state violates an invariant.
    pub(crate) fn check_invariants(&self, members: &[usize]) -> Result<(), String> {
        for &si in members {
            let mut check = self.live[si].check_invariants();
            if self.owner[si] == si {
                check = check.and_then(|()| self.plans[si].check_invariants());
            }
            check.map_err(|e| format!("arm {si} planner: {e}"))?;
        }
        Ok(())
    }
}

/// Replays `node`'s timeline under `scenario` (see
/// [`evaluate_node_with`]), allocating fresh scratch. Hot loops should
/// hold an [`EvalScratch`] per scenario and call `evaluate_node_with`.
pub fn evaluate_node<R: Rng + ?Sized>(
    scenario: &Scenario,
    node: &NodeFaults,
    rng: &mut R,
) -> NodeOutcome {
    let mut scratch = EvalScratch::default();
    evaluate_node_with(scenario, node, rng, &mut scratch)
}

/// Replays `node`'s timeline under `scenario`.
///
/// For each fault arrival, in time order:
/// 1. classify the arrival against *live* (unrepaired, unreplaced)
///    permanent faults on sibling devices of the same rank — this is where
///    DUEs and SDCs happen, *before* any repair can react (the ordering
///    effect behind the paper's ~50% DUE reduction);
/// 2. under ReplA, a DUE triggered by a permanent fault replaces the DIMM
///    (clearing its live faults);
/// 3. a permanent fault is then offered to the repair mechanism; failures
///    leave it live;
/// 4. under ReplB, an unrepaired permanent fault trips the corrected-error
///    threshold with the policy's probability and replaces the DIMM.
///
/// Every permanent fault reaches the planner whatever steps 1, 2 and 4
/// decide, so the repair offers (step 3) run first as one pass,
/// [`plan_events`], and the rest replays from its verdicts,
/// [`replay_events`].
pub fn evaluate_node_with<R: Rng + ?Sized>(
    scenario: &Scenario,
    node: &NodeFaults,
    rng: &mut R,
    scratch: &mut EvalScratch,
) -> NodeOutcome {
    evaluate_events_with(scenario, &node.events, rng, scratch)
}

/// Replays a time-sorted event slice under `scenario` — the slice form of
/// [`evaluate_node_with`]: [`plan_events`] then [`replay_events`]. The
/// fleet simulator's incremental epochs evaluate growing prefixes of one
/// lifetime: the outcome of `events[..new_len]` minus that of
/// `events[..old_len]` telescopes to the full-lifetime result without
/// re-evaluating clean nodes. An empty slice returns the zero outcome
/// without drawing from `rng`, so prefix bookkeeping never perturbs the
/// eval stream.
pub fn evaluate_events_with<R: Rng + ?Sized>(
    scenario: &Scenario,
    events: &[FaultEvent],
    rng: &mut R,
    scratch: &mut EvalScratch,
) -> NodeOutcome {
    plan_events(scenario, events, &mut scratch.plan);
    replay(scenario, events, &scratch.plan, rng, &mut scratch.live)
}

/// Runs `scenario`'s repair planner alone over a time-sorted event slice,
/// offering it every permanent fault in order, and records the verdicts
/// and the footprint trail in `plan`. The planner draws no randomness
/// and never sees ECC outcomes or replacements, so one plan serves every
/// arm with the same planner key (mechanism, LLC and DRAM geometry) and
/// every prefix of `events`.
///
/// # Panics
///
/// In debug builds, when `plan` was made under another planner key.
pub fn plan_events(scenario: &Scenario, events: &[FaultEvent], plan: &mut EventPlan) {
    debug_assert!(
        plan.key.is_none() || plan.key == Some(scenario.planner_key()),
        "EventPlan reused across planner keys"
    );
    plan.repaired.clear();
    plan.trail.clear();
    // Whether this list touched the planner: ~86% of nodes never see a
    // permanent fault, so the planner is prepared lazily — constructed on
    // the first permanent fault ever, reset on the first of each list.
    let mut planner_live = false;
    let mut usage = (0, 0);
    for event in events {
        let repaired = event.is_permanent() && {
            let planner = match &mut plan.planner {
                Some(p) => {
                    if !planner_live {
                        p.reset();
                    }
                    p
                }
                slot @ None => {
                    plan.key = Some(scenario.planner_key());
                    slot.insert(Planner::new(scenario))
                }
            };
            planner_live = true;
            let repaired = planner.try_repair(&event.regions, &mut plan.scratch);
            usage = (planner.bytes_used(), planner.max_ways_used());
            repaired
        };
        plan.repaired.push(repaired);
        plan.trail.push(usage);
    }
}

/// Replays a time-sorted event slice under `scenario` with the repair
/// verdicts read from `plan`: ECC classification, repair pre-emption and
/// the replacement policy (steps 1, 2 and 4 of [`evaluate_node_with`]).
/// `events` may be any prefix of the list `plan` was made from — the
/// planner's state after a prefix does not depend on what follows — so
/// one plan of `events[..new]` also replays `events[..old]`, whose
/// footprint is `trail[old - 1]`. An empty slice returns the zero
/// outcome without drawing from `rng`.
///
/// # Panics
///
/// Panics when `events` is longer than the planned list.
pub fn replay_events<R: Rng + ?Sized>(
    scenario: &Scenario,
    events: &[FaultEvent],
    plan: &EventPlan,
    rng: &mut R,
    scratch: &mut EvalScratch,
) -> NodeOutcome {
    replay(scenario, events, plan, rng, &mut scratch.live)
}

fn replay<R: Rng + ?Sized>(
    scenario: &Scenario,
    events: &[FaultEvent],
    plan: &EventPlan,
    rng: &mut R,
    live: &mut LiveFaults,
) -> NodeOutcome {
    let cfg = &scenario.dram;
    let mut out = NodeOutcome::default();
    let Some(last) = events.len().checked_sub(1) else {
        return out;
    };
    assert!(
        events.len() <= plan.repaired.len(),
        "replaying {} events from a plan of {}",
        events.len(),
        plan.repaired.len()
    );
    debug_assert!(
        plan.key.is_none() || plan.key == Some(scenario.planner_key()),
        "replaying a plan made under another planner key"
    );
    live.dimms.clear();
    live.regions.clear();

    for (event, &repaired) in events.iter().zip(&plan.repaired) {
        let permanent = event.is_permanent();
        if permanent {
            out.faulty = true;
            out.permanent_faults += 1;
        }

        // 1. ECC classification against live faults of the same ranks —
        //    the region plane is consumed in place.
        let mut outcome =
            scenario
                .ecc
                .classify_arrival(cfg, &event.regions, permanent, &live.regions, rng);
        live.event_dimms.clear();
        live.event_dimms
            .extend(event.regions.iter().map(|r| r.rank.dimm_index(cfg)));

        // A fault that got repaired sometimes wins the race: detection via
        // corrected errors elsewhere in the fault triggers repair before
        // anything touches the doubly faulty codeword.
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
                        for i in 0..live.event_dimms.len() {
                            let dimm = live.event_dimms[i];
                            out.replacements += 1;
                            live.drop_dimm(dimm);
                        }
                        // The faulty DIMM is gone; nothing of this event
                        // survives (any repair lines it claimed are simply
                        // stale).
                        continue;
                    }
                } else {
                    out.transient_dues += 1;
                }
            }
            EccOutcome::Sdc => {
                out.sdcs += 1;
                // An SDC is silent: nothing reacts to it.
            }
        }

        if !permanent || repaired {
            continue;
        }
        out.unrepaired_faults += 1;
        out.unrepaired_by_mode[event.mode as usize] += 1;
        for r in &event.regions {
            live.dimms.push(r.rank.dimm_index(cfg));
            live.regions.push(*r);
        }

        // 4. ReplB: the unrepaired fault may trip the corrected-error
        //    threshold.
        if let ReplacementPolicy::AfterErrors { trigger_prob } = scenario.replacement {
            if rng.gen_bool(trigger_prob) {
                for i in 0..live.event_dimms.len() {
                    let dimm = live.event_dimms[i];
                    out.replacements += 1;
                    live.drop_dimm(dimm);
                }
            }
        }
    }

    out.fully_repaired = out.faulty && out.unrepaired_faults == 0;
    (out.repair_bytes, out.max_ways) = plan.trail[last];
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_dram::RankId;
    use relaxfault_ecc::EccModel;
    use relaxfault_faults::{BankSet, Extent, FaultEvent, FaultMode, Transience};
    use relaxfault_util::rng::Rng64;

    fn rank0() -> RankId {
        RankId {
            channel: 0,
            dimm: 0,
            rank: 0,
        }
    }

    fn event(time: f64, transience: Transience, device: u32, extent: Extent) -> FaultEvent {
        FaultEvent {
            time_hours: time,
            mode: FaultMode::SingleBitWord,
            transience,
            regions: relaxfault_faults::RegionList::one(FaultRegion {
                rank: rank0(),
                device,
                extent,
            }),
        }
    }

    fn deterministic_scenario(mechanism: Mechanism) -> Scenario {
        Scenario {
            ecc: EccModel::always_manifest(),
            ..Scenario::isca16_baseline()
        }
        .with_mechanism(mechanism)
    }

    #[test]
    fn clean_node_is_clean() {
        let s = deterministic_scenario(Mechanism::None);
        let node = NodeFaults::default();
        let mut rng = Rng64::seed_from_u64(1);
        let out = evaluate_node(&s, &node, &mut rng);
        assert!(!out.faulty);
        assert_eq!(out.dues, 0);
        assert_eq!(out.replacements, 0);
        assert!(
            !out.fully_repaired,
            "a clean node is not counted as repaired"
        );
    }

    #[test]
    fn repair_prevents_due_when_fine_fault_comes_first() {
        // Bit fault at t=1 (repaired), whole-bank fault at t=2 overlapping
        // it: with repair, no DUE; without repair, DUE.
        let node = NodeFaults {
            events: vec![
                event(
                    1.0,
                    Transience::Permanent,
                    3,
                    Extent::Bit {
                        bank: 0,
                        row: 5,
                        col: 9,
                    },
                ),
                event(
                    2.0,
                    Transience::Permanent,
                    7,
                    Extent::Banks {
                        banks: BankSet::one(0),
                    },
                ),
            ],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(2);
        let with = evaluate_node(
            &deterministic_scenario(Mechanism::RelaxFault { max_ways: 1 }),
            &node,
            &mut rng,
        );
        assert_eq!(
            with.dues, 0,
            "fine fault was repaired before the partner arrived"
        );
        let without = evaluate_node(&deterministic_scenario(Mechanism::None), &node, &mut rng);
        assert_eq!(without.dues, 1);
    }

    #[test]
    fn due_still_happens_when_coarse_fault_comes_first() {
        // Whole-bank fault first (unrepairable), bit fault second: the DUE
        // fires at the bit fault's arrival regardless of repair.
        let node = NodeFaults {
            events: vec![
                event(
                    1.0,
                    Transience::Permanent,
                    7,
                    Extent::Banks {
                        banks: BankSet::one(0),
                    },
                ),
                event(
                    2.0,
                    Transience::Permanent,
                    3,
                    Extent::Bit {
                        bank: 0,
                        row: 5,
                        col: 9,
                    },
                ),
            ],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(3);
        let s = deterministic_scenario(Mechanism::RelaxFault { max_ways: 4 })
            .with_replacement(ReplacementPolicy::None);
        let out = evaluate_node(&s, &node, &mut rng);
        assert_eq!(
            out.dues, 1,
            "ordering effect: repair cannot preempt this DUE"
        );
        assert_eq!(out.unrepaired_faults, 1, "the bank fault stays live");
    }

    #[test]
    fn transient_due_does_not_replace() {
        let node = NodeFaults {
            events: vec![
                event(
                    1.0,
                    Transience::Permanent,
                    7,
                    Extent::Banks {
                        banks: BankSet::one(0),
                    },
                ),
                event(
                    2.0,
                    Transience::Transient,
                    3,
                    Extent::Bit {
                        bank: 0,
                        row: 5,
                        col: 9,
                    },
                ),
            ],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(4);
        let s = deterministic_scenario(Mechanism::None); // ReplA default
        let out = evaluate_node(&s, &node, &mut rng);
        assert_eq!(out.dues, 1);
        assert_eq!(out.transient_dues, 1);
        assert_eq!(out.replacements, 0, "ReplA ignores transient DUEs");
    }

    #[test]
    fn repla_replaces_and_clears_live_faults() {
        let node = NodeFaults {
            events: vec![
                event(
                    1.0,
                    Transience::Permanent,
                    7,
                    Extent::Banks {
                        banks: BankSet::one(0),
                    },
                ),
                event(
                    2.0,
                    Transience::Permanent,
                    3,
                    Extent::Bit {
                        bank: 0,
                        row: 5,
                        col: 9,
                    },
                ),
                // After replacement the DIMM is fresh: this fault overlaps
                // nothing and produces no further DUE.
                event(
                    3.0,
                    Transience::Permanent,
                    4,
                    Extent::Bit {
                        bank: 0,
                        row: 6,
                        col: 9,
                    },
                ),
            ],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(5);
        let s = deterministic_scenario(Mechanism::None);
        let out = evaluate_node(&s, &node, &mut rng);
        assert_eq!(out.dues, 1);
        assert_eq!(out.replacements, 1);
    }

    #[test]
    fn replb_replaces_on_unrepaired_faults() {
        let node = NodeFaults {
            events: vec![event(
                1.0,
                Transience::Permanent,
                7,
                Extent::Banks {
                    banks: BankSet::one(0),
                },
            )],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(6);
        let s = deterministic_scenario(Mechanism::None)
            .with_replacement(ReplacementPolicy::AfterErrors { trigger_prob: 1.0 });
        let out = evaluate_node(&s, &node, &mut rng);
        assert_eq!(
            out.replacements, 1,
            "ReplB replaces without waiting for a DUE"
        );
        // With working repair the same node keeps its DIMM.
        let mut rng = Rng64::seed_from_u64(6);
        let node2 = NodeFaults {
            events: vec![event(
                1.0,
                Transience::Permanent,
                7,
                Extent::Bit {
                    bank: 0,
                    row: 1,
                    col: 1,
                },
            )],
            ..Default::default()
        };
        let s2 = deterministic_scenario(Mechanism::RelaxFault { max_ways: 1 })
            .with_replacement(ReplacementPolicy::AfterErrors { trigger_prob: 1.0 });
        let out2 = evaluate_node(&s2, &node2, &mut rng);
        assert_eq!(out2.replacements, 0);
        assert!(out2.fully_repaired);
    }

    #[test]
    fn coverage_accounting() {
        let node = NodeFaults {
            events: vec![
                event(
                    1.0,
                    Transience::Permanent,
                    3,
                    Extent::Row { bank: 0, row: 5 },
                ),
                event(
                    2.0,
                    Transience::Permanent,
                    4,
                    Extent::Bit {
                        bank: 1,
                        row: 6,
                        col: 0,
                    },
                ),
            ],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(7);
        let s = deterministic_scenario(Mechanism::RelaxFault { max_ways: 1 })
            .with_replacement(ReplacementPolicy::None);
        let out = evaluate_node(&s, &node, &mut rng);
        assert!(out.fully_repaired);
        assert_eq!(out.repair_bytes, 17 * 64);
        assert_eq!(out.max_ways, 1);
        assert_eq!(out.permanent_faults, 2);
    }

    #[test]
    fn ppr_node_uses_no_llc() {
        let node = NodeFaults {
            events: vec![event(
                1.0,
                Transience::Permanent,
                3,
                Extent::Row { bank: 0, row: 5 },
            )],
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(8);
        let out = evaluate_node(&deterministic_scenario(Mechanism::Ppr), &node, &mut rng);
        assert!(out.fully_repaired);
        assert_eq!(out.repair_bytes, 0);
    }
}
