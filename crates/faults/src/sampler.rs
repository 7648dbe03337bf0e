//! Fast node-lifetime sampler.
//!
//! [`crate::FaultModel::sample_node`] draws one lognormal and one Poisson
//! per (device, fault-process) pair — 1,728 heavy samples per node for the
//! paper's geometry, nearly all of which return zero faults. This sampler
//! short-circuits the zero cases at two granularities:
//!
//! * **per cell** (one (device, process) pair): `q₀ = E_m[exp(−λm)]` is
//!   evaluated once per (process, acceleration class) by numeric
//!   quadrature over the lognormal mixing variable. When the gate fails
//!   (probability ≈ λ), `m` is drawn from the *size-biased* lognormal
//!   (the exact conditional in the λ→0 limit, error `O(λ²)`), and the
//!   remaining count from `Poisson(λm)`. Processes with
//!   `λ > SLOW_PATH_THRESHOLD` (FIT-accelerated devices at 10× rates)
//!   fall back to the exact two-stage draw, so the approximation only
//!   ever applies where it is provably negligible.
//! * **per node** (the zero-fault fast path): the per-cell gates compose
//!   into one precomputed `P(node lifetime has zero events)` =
//!   [`FaultSampler::p_clean`]. [`FaultSampler::trial_is_clean`] spends a
//!   *single* uniform draw on that aggregate gate — for the paper's
//!   default model ~78% of trials finish right there at 1× FIT (~8% at
//!   10×), with no region, event, or extent machinery touched. When the
//!   gate fails, the remaining lifetime is drawn from the exact
//!   conditional distribution given ≥ 1 event, by first-success
//!   decomposition: walk the DIMMs with the hazard `P(this dimm is first
//!   nonzero | none yet, ≥1 remaining)`, then walk the forced DIMM's cells
//!   the same way, force the first nonzero cell's count to be ≥ 1, and
//!   scan everything after the first success unconditionally.
//!
//! Both cell loops cost one raw `u64` draw and one integer compare per
//! cell: every cell's hazard and gate is precomputed as a mantissa
//! threshold ([`unit_f64_threshold`]), whose compare is bit-identical to
//! the `f64` compare it replaces, and the loops draw from a local copy of
//! the generator, whose state stays in registers. A cell whose gate fails
//! goes out of line. So every draw is the one the `f64` formulation
//! makes, in the same order.
//!
//! The only approximation in the conditional path is reusing the
//! quadrature `q₀` for slow-path gates, whose true zero probability it
//! matches to the quadrature error (≪ 1e-6). Acceleration flags of clean
//! DIMMs are drawn from their exact posteriors so the bookkeeping
//! distribution is preserved too.
//!
//! `tests::matches_reference_sampler` and
//! `tests::clean_gate_matches_reference_zero_rate` check the fast and
//! reference samplers agree statistically, and
//! `tests::conditional_stream_is_pinned` pins the conditional stream.

use crate::inject::{FaultEvent, FaultModel, NodeFaults};
use crate::modes::{FaultMode, Transience, HOURS_PER_YEAR};
use crate::region::RegionList;
use relaxfault_dram::{DramConfig, RankId};
use relaxfault_util::dist::{poisson, LogNormal};
use relaxfault_util::rng::{u64_is_below, unit_f64_threshold, Rng, Rng64};

/// Mean above which the gate approximation is abandoned for the exact
/// two-stage draw.
const SLOW_PATH_THRESHOLD: f64 = 0.02;

/// Cell threshold of a cell that spends no draw: λ = 0 (in the walk,
/// q0 = 1). Mantissa thresholds are at most 2⁵³, so neither sentinel
/// collides with one.
const NO_DRAW: u64 = u64::MAX;
/// Scan threshold of a slow cell: its count is the exact two-stage draw.
const EXACT: u64 = u64::MAX - 1;

#[derive(Debug, Clone, Copy)]
struct ProcessGate {
    mode: FaultMode,
    transience: Transience,
    lambda: f64,
    /// P(N = 0) under the lognormal mixture.
    q0: f64,
    /// Whether to use the exact slow path.
    slow: bool,
}

/// Precomputed sampler for one fault model and geometry.
///
/// # Examples
///
/// ```
/// use relaxfault_util::rng::Rng64;
/// use relaxfault_dram::DramConfig;
/// use relaxfault_faults::{FaultModel, FitRates};
/// use relaxfault_faults::sampler::FaultSampler;
///
/// let cfg = DramConfig::isca16_reliability();
/// let model = FaultModel::isca16(FitRates::cielo(), 6.0);
/// let sampler = FaultSampler::new(&model, &cfg);
/// let mut rng = Rng64::seed_from_u64(1);
/// let node = sampler.sample_node(&mut rng);
/// assert!(node.events.len() < 100);
/// // Most lifetimes are event-free, and the sampler knows exactly
/// // how many: one uniform draw decides it.
/// assert!(sampler.p_clean() > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct FaultSampler {
    model: FaultModel,
    cfg: DramConfig,
    hours: f64,
    /// Gates for the acceleration factor (index 0) and the adjusted rest
    /// factor (index 1).
    gates: [Vec<ProcessGate>; 2],
    factors: [f64; 2],
    /// Lognormal of the rate multiplier, and its size-biased counterpart.
    lognorm: Option<(LogNormal, LogNormal)>,
    /// Per class: P(every cell of one DIMM is event-free).
    q_dimm: [f64; 2],
    /// Per class and cell of one DIMM (rank-major, then device, then
    /// gate), the scan's threshold: the gate's `q0` as a mantissa threshold
    /// (a draw below it is a zero count), [`EXACT`] for a slow gate, or
    /// [`NO_DRAW`] for λ = 0.
    scan: [Vec<u64>; 2],
    /// Per class and cell, the walk's threshold: the first-success hazard
    /// `(1 − q0) / (1 − suffix[k])` as a mantissa threshold, where
    /// `suffix[k]` = P(cells `k..` are all zero), or [`NO_DRAW`] where
    /// q0 = 1. The last drawing cell's hazard is exactly 1.
    walk: [Vec<u64>; 2],
    /// P(one DIMM is clean) when the node is not accelerated:
    /// `p_dimm_acc · q_dimm[0] + (1 − p_dimm_acc) · q_dimm[1]`.
    e_dimm: f64,
    /// P(the whole node lifetime has zero events) — the fast-path gate.
    q_node: f64,
}

impl FaultSampler {
    /// Precomputes the gates for a model/geometry pair.
    pub fn new(model: &FaultModel, cfg: &DramConfig) -> Self {
        let hours = model.years * HOURS_PER_YEAR;
        let v = &model.variation;
        let factors = [v.accel_factor, v.adjusted_rest_factor()];
        let lognorm = if v.device_cv > 0.0 {
            let base = LogNormal::from_mean_cv(1.0, v.device_cv);
            // Size-biased lognormal: same sigma, mu shifted by sigma^2.
            let sigma = base.sigma();
            let biased_mean = (base.mu() + 1.5 * sigma * sigma).exp();
            let biased = LogNormal::from_mean_cv(biased_mean, v.device_cv);
            Some((base, biased))
        } else {
            None
        };
        let make_gates = |factor: f64| -> Vec<ProcessGate> {
            model
                .rates
                .processes()
                .map(|(mode, transience, fit)| {
                    let lambda = fit * 1e-9 * hours * factor;
                    let q0 = match &lognorm {
                        None => (-lambda).exp(),
                        Some((base, _)) => quad_q0(lambda, base),
                    };
                    ProcessGate {
                        mode,
                        transience,
                        lambda,
                        q0,
                        slow: lambda > SLOW_PATH_THRESHOLD,
                    }
                })
                .collect()
        };
        let gates = [make_gates(factors[0]), make_gates(factors[1])];

        // Zero-fault fast-path precomputation: fold the per-cell gates
        // into per-DIMM and per-node clean probabilities, and lay out both
        // cell loops' thresholds, one per cell of one DIMM.
        let cells_per_dimm =
            (cfg.ranks_per_dimm * cfg.devices_per_rank()) as usize * gates[0].len();
        let mut q_dimm = [1.0f64; 2];
        let mut scan = [Vec::new(), Vec::new()];
        let mut walk = [Vec::new(), Vec::new()];
        for class in 0..2 {
            let cells: Vec<&ProcessGate> =
                gates[class].iter().cycle().take(cells_per_dimm).collect();
            // suffix[k] = P(cells k.. are all zero), with a trailing 1.0.
            let mut suffix = vec![1.0f64; cells_per_dimm + 1];
            for k in (0..cells_per_dimm).rev() {
                suffix[k] = suffix[k + 1] * cells[k].q0;
            }
            q_dimm[class] = suffix[0];
            walk[class] = cells
                .iter()
                .zip(&suffix)
                .map(|(gate, s)| {
                    if gate.q0 < 1.0 {
                        unit_f64_threshold((1.0 - gate.q0) / (1.0 - s))
                    } else {
                        NO_DRAW
                    }
                })
                .collect();
            scan[class] = cells
                .iter()
                .map(|gate| {
                    if gate.lambda == 0.0 {
                        NO_DRAW
                    } else if gate.slow {
                        EXACT
                    } else {
                        unit_f64_threshold(gate.q0)
                    }
                })
                .collect();
        }
        let d = cfg.dimms_per_node() as i32;
        let e_dimm = v.accel_dimm_fraction * q_dimm[0] + (1.0 - v.accel_dimm_fraction) * q_dimm[1];
        let q_node = v.accel_node_fraction * q_dimm[0].powi(d)
            + (1.0 - v.accel_node_fraction) * e_dimm.powi(d);

        Self {
            model: *model,
            cfg: *cfg,
            hours,
            gates,
            factors,
            lognorm,
            q_dimm,
            scan,
            walk,
            e_dimm,
            q_node,
        }
    }

    /// Exact probability that a node lifetime contains zero fault events
    /// (transient or permanent) — the zero-fault fast-path gate.
    pub fn p_clean(&self) -> f64 {
        self.q_node
    }

    /// Spends one uniform draw on the aggregate zero-fault gate. This is
    /// defined to be the *first* draw of [`FaultSampler::sample_node`]'s
    /// stream: callers that observe `true` may skip sampling entirely and
    /// get bit-identical results to a full `sample_node` call (which
    /// would have returned an empty lifetime from the same stream).
    pub fn trial_is_clean<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.q_node
    }

    /// Samples one node lifetime (drop-in replacement for
    /// [`FaultModel::sample_node`]).
    pub fn sample_node(&self, rng: &mut Rng64) -> NodeFaults {
        let mut out = NodeFaults::default();
        self.sample_node_into(rng, &mut out);
        out
    }

    /// Samples one node lifetime into a caller-owned buffer, reusing its
    /// allocations. Equivalent to [`FaultSampler::sample_node`].
    pub fn sample_node_into(&self, rng: &mut Rng64, out: &mut NodeFaults) {
        out.clear();
        if !self.trial_is_clean(rng) {
            self.sample_faulty_into(rng, out);
        }
    }

    /// Samples a node lifetime *conditioned on having at least one event*,
    /// continuing the stream after a failed [`FaultSampler::trial_is_clean`]
    /// gate. Calling the gate and then this on one stream is exactly
    /// [`FaultSampler::sample_node_into`].
    pub fn sample_faulty_into(&self, rng: &mut Rng64, out: &mut NodeFaults) {
        out.clear();
        let v = &self.model.variation;
        let d = self.cfg.dimms_per_node();
        let p_d = v.accel_dimm_fraction;

        // Node acceleration from its posterior given ≥ 1 event.
        let q_acc_node = self.q_dimm[0].powi(d as i32);
        let p_acc = if v.accel_node_fraction > 0.0 {
            v.accel_node_fraction * (1.0 - q_acc_node) / (1.0 - self.q_node)
        } else {
            0.0
        };
        let node_acc = p_acc > 0.0 && rng.gen::<f64>() < p_acc;
        out.node_accelerated = node_acc;

        let mut forced_done = false;
        for dimm_flat in 0..d {
            if forced_done {
                // Everything after the first success is unconditional —
                // identical to the legacy per-DIMM sampling.
                let dimm_acc = p_d > 0.0 && rng.gen_bool(p_d);
                if dimm_acc {
                    out.accelerated_dimms.push(dimm_flat);
                }
                let class = if node_acc || dimm_acc { 0 } else { 1 };
                if self.factors[class] != 0.0 {
                    self.scan(class, dimm_flat, 0, rng, out);
                }
                continue;
            }
            let remaining = (d - dimm_flat) as i32;
            if node_acc {
                // Class is 0 regardless of the dimm flag, so the flag is
                // independent bookkeeping.
                let dimm_acc = p_d > 0.0 && rng.gen_bool(p_d);
                if dimm_acc {
                    out.accelerated_dimms.push(dimm_flat);
                }
                let e = self.q_dimm[0];
                let p_forced = (1.0 - e) / (1.0 - e.powi(remaining));
                if rng.gen::<f64>() < p_forced {
                    forced_done = true;
                    self.walk(0, dimm_flat, rng, out);
                }
            } else {
                let e = self.e_dimm;
                let p_forced = (1.0 - e) / (1.0 - e.powi(remaining));
                if rng.gen::<f64>() < p_forced {
                    // The forced DIMM's acceleration flag, given ≥ 1 event.
                    let p_acc = if p_d > 0.0 {
                        p_d * (1.0 - self.q_dimm[0]) / (1.0 - e)
                    } else {
                        0.0
                    };
                    let dimm_acc = p_acc > 0.0 && rng.gen::<f64>() < p_acc;
                    if dimm_acc {
                        out.accelerated_dimms.push(dimm_flat);
                    }
                    forced_done = true;
                    self.walk(if dimm_acc { 0 } else { 1 }, dimm_flat, rng, out);
                } else {
                    // Clean DIMM: acceleration flag from its posterior.
                    let p_acc = if p_d > 0.0 {
                        p_d * self.q_dimm[0] / e
                    } else {
                        0.0
                    };
                    if p_acc > 0.0 && rng.gen::<f64>() < p_acc {
                        out.accelerated_dimms.push(dimm_flat);
                    }
                }
            }
        }
        debug_assert!(forced_done, "conditional walk must force one DIMM");
        out.events.sort_by(|a, b| {
            a.time_hours
                .partial_cmp(&b.time_hours)
                .expect("finite times")
        });
    }

    /// The forced DIMM's cells: the first-success walk up to the first
    /// nonzero cell, whose count is forced ≥ 1, then the unconditional
    /// scan of the cells after it. Cells with q0 = 1 spend no draw.
    fn walk(&self, class: usize, dimm_flat: u32, rng: &mut Rng64, out: &mut NodeFaults) {
        // Both cell loops draw from a local copy of the generator, which
        // stays in registers, and write it back on exit.
        let mut r = rng.clone();
        for (cell, &t) in self.walk[class].iter().enumerate() {
            if t != NO_DRAW && u64_is_below(r.next_u64(), t) {
                *rng = r;
                self.cell_events(class, dimm_flat, cell, false, rng, out);
                return self.scan(class, dimm_flat, cell + 1, rng, out);
            }
        }
        unreachable!("the last drawing cell's hazard is 1")
    }

    /// Unconditional scan of one DIMM's cells from `start` on. A fast
    /// gate spends one draw, a slow cell goes straight to its exact draw,
    /// and a λ = 0 cell spends nothing.
    fn scan(
        &self,
        class: usize,
        dimm_flat: u32,
        start: usize,
        rng: &mut Rng64,
        out: &mut NodeFaults,
    ) {
        let mut r = rng.clone();
        for (cell, &t) in self.scan[class].iter().enumerate().skip(start) {
            let fails = if t < EXACT {
                !u64_is_below(r.next_u64(), t)
            } else {
                t == EXACT
            };
            if fails {
                // Out of line on a copy, so `r` never leaves registers.
                let mut spill = r.clone();
                self.cell_events(class, dimm_flat, cell, t == EXACT, &mut spill, out);
                r = spill;
            }
        }
        *rng = r;
    }

    /// One cell past its gate: draws the count (the exact two-stage draw
    /// when `exact`, else the ≥ 1 conditional) and emits its events. Out
    /// of line, so that the cell loops stay small.
    #[cold]
    #[inline(never)]
    fn cell_events(
        &self,
        class: usize,
        dimm_flat: u32,
        cell: usize,
        exact: bool,
        rng: &mut Rng64,
        out: &mut NodeFaults,
    ) {
        let gates = &self.gates[class];
        let gate = &gates[cell % gates.len()];
        let count = if exact {
            let m = match &self.lognorm {
                None => 1.0,
                Some((base, _)) => base.sample(rng),
            };
            poisson(rng, gate.lambda * m)
        } else {
            self.sample_count_nonzero(gate, rng)
        };
        let cfg = &self.cfg;
        let slot = cell / gates.len();
        let devices = cfg.devices_per_rank() as usize;
        let rank = RankId {
            channel: dimm_flat / cfg.dimms_per_channel,
            dimm: dimm_flat % cfg.dimms_per_channel,
            rank: (slot / devices) as u32,
        };
        let device = (slot % devices) as u32;
        for _ in 0..count {
            let time_hours = rng.gen::<f64>() * self.hours;
            let extent = self.model.geometry.sample_extent(rng, gate.mode, cfg);
            let event = FaultEvent {
                time_hours,
                mode: gate.mode,
                transience: gate.transience,
                regions: self.regions_for(rank, device, extent, gate.mode),
            };
            crate::inject::record_injection(&event);
            out.events.push(event);
        }
    }

    /// The count distribution conditioned on being nonzero: the gate
    /// path's own ≥ 1 branch for fast gates, exact rejection for slow
    /// ones (accepts with probability `1 − q0` per attempt, so the loop
    /// is short for every gate past the slow threshold).
    fn sample_count_nonzero(&self, gate: &ProcessGate, rng: &mut Rng64) -> u64 {
        if gate.slow {
            loop {
                let m = match &self.lognorm {
                    None => 1.0,
                    Some((base, _)) => base.sample(rng),
                };
                let count = poisson(rng, gate.lambda * m);
                if count > 0 {
                    return count;
                }
            }
        }
        // N >= 1: the conditional mixing variable is size-biased in the
        // small-λ limit.
        match &self.lognorm {
            None => 1 + poisson(rng, gate.lambda),
            Some((_, biased)) => {
                let m = biased.sample(rng);
                1 + poisson(rng, gate.lambda * m)
            }
        }
    }

    fn regions_for(
        &self,
        rank: RankId,
        device: u32,
        extent: crate::region::Extent,
        mode: FaultMode,
    ) -> RegionList {
        if mode == FaultMode::MultiRank && self.cfg.ranks_per_dimm > 1 {
            (0..self.cfg.ranks_per_dimm)
                .map(|rk| crate::region::FaultRegion {
                    rank: RankId { rank: rk, ..rank },
                    device,
                    extent,
                })
                .collect()
        } else {
            RegionList::one(crate::region::FaultRegion {
                rank,
                device,
                extent,
            })
        }
    }
}

/// `E[exp(-λ e^{μ+σZ})]` by trapezoid quadrature over the standard normal.
fn quad_q0(lambda: f64, base: &LogNormal) -> f64 {
    if lambda == 0.0 {
        return 1.0;
    }
    let (mu, sigma) = (base.mu(), base.sigma());
    let mut acc = 0.0;
    let mut norm = 0.0;
    let steps = 400;
    let z_max = 8.0;
    for i in 0..=steps {
        let z = -z_max + 2.0 * z_max * i as f64 / steps as f64;
        let w = (-0.5 * z * z).exp() * if i == 0 || i == steps { 0.5 } else { 1.0 };
        let m = (mu + sigma * z).exp();
        acc += w * (-lambda * m).exp();
        norm += w;
    }
    acc / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::FitRates;
    use relaxfault_util::persist::digest_debug;
    use relaxfault_util::rng::Rng64;

    fn cfg() -> DramConfig {
        DramConfig::isca16_reliability()
    }

    #[test]
    fn q0_matches_closed_form_without_variation() {
        let model = FaultModel::uniform(FitRates::cielo(), 6.0);
        let s = FaultSampler::new(&model, &cfg());
        for gate in &s.gates[1] {
            assert!((gate.q0 - (-gate.lambda).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn q0_quadrature_sane() {
        let base = LogNormal::from_mean_cv(1.0, 0.5);
        // Small λ: q0 ≈ 1 − λ.
        let q = quad_q0(1e-4, &base);
        assert!((q - (1.0 - 1e-4)).abs() < 1e-6, "q0 {q}");
        // Large λ: q0 well below exp(-λ·small)...
        assert!(quad_q0(5.0, &base) < 0.1);
        assert_eq!(quad_q0(0.0, &base), 1.0);
    }

    #[test]
    fn clean_probability_composes_from_gates() {
        // Without variation or acceleration, P(clean) has a closed form:
        // exp(-Σλ) over every cell of the node.
        let model = FaultModel::uniform(FitRates::cielo(), 6.0);
        let c = cfg();
        let s = FaultSampler::new(&model, &c);
        let lambda_total: f64 = s.gates[1].iter().map(|g| g.lambda).sum();
        let expected = (-lambda_total * c.devices_per_node() as f64).exp();
        assert!(
            (s.p_clean() - expected).abs() < 1e-9,
            "q_node {} vs closed form {}",
            s.p_clean(),
            expected
        );
    }

    #[test]
    fn clean_gate_matches_reference_zero_rate() {
        // The aggregate gate probability must match the reference
        // sampler's empirical zero-event rate.
        let model = FaultModel::isca16(FitRates::cielo(), 6.0);
        let c = cfg();
        let s = FaultSampler::new(&model, &c);
        assert!((0.5..1.0).contains(&s.p_clean()), "p_clean {}", s.p_clean());
        let n = 40_000;
        let mut rng = Rng64::seed_from_u64(777);
        let clean = (0..n)
            .filter(|_| model.sample_node(&c, &mut rng).events.is_empty())
            .count();
        let frac = clean as f64 / n as f64;
        assert!(
            (frac - s.p_clean()).abs() < 0.01,
            "empirical clean rate {frac} vs gate {}",
            s.p_clean()
        );
    }

    #[test]
    fn gate_then_conditional_reproduces_sample_node() {
        // The engine's fast path (gate draw, then conditional sampling
        // only when the gate fails) must be bit-identical to a plain
        // sample_node call on the same stream.
        let model = FaultModel::isca16(FitRates::cielo(), 6.0);
        let s = FaultSampler::new(&model, &cfg());
        let mut saw_faulty = 0;
        for seed in 0..300u64 {
            let mut full_rng = Rng64::seed_from_u64(seed);
            let full = s.sample_node(&mut full_rng);
            let mut gated_rng = Rng64::seed_from_u64(seed);
            let mut gated = NodeFaults::default();
            if !s.trial_is_clean(&mut gated_rng) {
                s.sample_faulty_into(&mut gated_rng, &mut gated);
                saw_faulty += 1;
            }
            assert_eq!(full, gated, "seed {seed} diverged");
        }
        assert!(saw_faulty > 10, "only {saw_faulty} faulty trials");
    }

    #[test]
    fn matches_reference_sampler() {
        let model = FaultModel::isca16(FitRates::cielo(), 6.0);
        let c = cfg();
        let fast = FaultSampler::new(&model, &c);
        // Large enough that the 5% event-count tolerance sits ~3 standard
        // deviations out for the two independent estimates.
        let n = 80_000;
        let mut rng = Rng64::seed_from_u64(555);
        let mut fast_faulty = 0usize;
        let mut fast_events = 0usize;
        for _ in 0..n {
            let node = fast.sample_node(&mut rng);
            fast_faulty += node.is_faulty() as usize;
            fast_events += node.events.len();
        }
        let mut ref_faulty = 0usize;
        let mut ref_events = 0usize;
        for _ in 0..n {
            let node = model.sample_node(&c, &mut rng);
            ref_faulty += node.is_faulty() as usize;
            ref_events += node.events.len();
        }
        let d_faulty = (fast_faulty as f64 - ref_faulty as f64).abs() / n as f64;
        let d_events = (fast_events as f64 - ref_events as f64).abs() / ref_events as f64;
        assert!(d_faulty < 0.01, "faulty-rate gap {d_faulty}");
        assert!(d_events < 0.05, "event-count gap {d_events}");
    }

    #[test]
    fn accelerated_class_uses_slow_path_at_10x() {
        let model = FaultModel::isca16(FitRates::cielo().scaled(10.0), 6.0);
        let s = FaultSampler::new(&model, &cfg());
        // At 100× acceleration and 10× FIT, the bit/word process mean is
        // ~0.76 — must be on the exact path.
        assert!(s.gates[0].iter().any(|g| g.slow));
        // The rest class stays on the gate path.
        assert!(s.gates[1].iter().all(|g| !g.slow));
    }

    #[test]
    fn events_remain_sorted() {
        let model = FaultModel::isca16(FitRates::cielo().scaled(10.0), 6.0);
        let s = FaultSampler::new(&model, &cfg());
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..200 {
            let node = s.sample_node(&mut rng);
            for w in node.events.windows(2) {
                assert!(w[0].time_hours <= w[1].time_hours);
            }
        }
    }

    /// Digest of 2,000 conditional lifetimes, one stream per seed, each
    /// followed by the stream's next draw: a change that moves any event,
    /// flag or draw of the conditional path changes the digest.
    fn conditional_stream_digest(model: &FaultModel, cfg: &DramConfig) -> u64 {
        let s = FaultSampler::new(model, cfg);
        let mut node = NodeFaults::default();
        let per_lifetime: Vec<u64> = (0..2_000u64)
            .map(|seed| {
                let mut rng = Rng64::seed_from_u64(seed);
                s.sample_faulty_into(&mut rng, &mut node);
                digest_debug(&(&node, rng.next_u64()))
            })
            .collect();
        digest_debug(&per_lifetime)
    }

    /// The corners the conditional stream is pinned at: cielo at 1×, 10×
    /// and 100× FIT (slow gates in the accelerated class, then in both
    /// classes); zero-rate processes on 2-rank DIMMs (λ = 0 cells first,
    /// in the middle and last among each device's cells, so a DIMM's last
    /// cell draws nothing, and a live multi-rank process whose regions
    /// span both ranks); and the uniform model (no lognormal and no
    /// acceleration draws).
    fn pinned_models() -> [(&'static str, FaultModel, DramConfig); 5] {
        let mut two_rank = cfg();
        two_rank.ranks_per_dimm = 2;
        two_rank.rows = 32768;
        two_rank.validate().unwrap();
        let mut sparse = FitRates::cielo().scaled(10.0);
        sparse.fit[0][0] = 0.0;
        sparse.fit[2] = [0.0, 0.0];
        sparse.fit[5][1] = 0.0;
        let cielo = |scale: f64| FaultModel::isca16(FitRates::cielo().scaled(scale), 6.0);
        [
            ("cielo 1x", cielo(1.0), cfg()),
            ("cielo 10x", cielo(10.0), cfg()),
            ("cielo 100x", cielo(100.0), cfg()),
            (
                "zero rates, 2 ranks",
                FaultModel::isca16(sparse, 6.0),
                two_rank,
            ),
            (
                "uniform",
                FaultModel::uniform(FitRates::cielo(), 6.0),
                cfg(),
            ),
        ]
    }

    #[test]
    fn conditional_stream_is_pinned() {
        let want = [
            0xb60a03cc66d82839u64,
            0xab56362fa86ee31f,
            0xa68e10c0db3006cc,
            0xdf48c239550bf756,
            0x0679aeb177986022,
        ];
        let show = |name: &str, d: u64| format!("{name}: {d:#018x}");
        let models = pinned_models();
        let got: Vec<String> = models
            .iter()
            .map(|(name, model, c)| show(name, conditional_stream_digest(model, c)))
            .collect();
        let want: Vec<String> = models
            .iter()
            .zip(want)
            .map(|((name, ..), d)| show(name, d))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn forced_walk_ends_at_its_last_drawing_cell() {
        // The last cell that draws has hazard 1: threshold 2⁵³, which every
        // draw is below, so the walk always forces a cell.
        for (name, model, c) in pinned_models() {
            let s = FaultSampler::new(&model, &c);
            for (class, walk) in s.walk.iter().enumerate() {
                let last = walk.iter().rev().find(|&&t| t != NO_DRAW);
                assert_eq!(last, Some(&(1u64 << 53)), "{name}, class {class}");
            }
        }
    }

    #[test]
    fn buffer_reuse_is_equivalent() {
        let model = FaultModel::isca16(FitRates::cielo().scaled(10.0), 6.0);
        let s = FaultSampler::new(&model, &cfg());
        let mut rng_a = Rng64::seed_from_u64(21);
        let mut rng_b = Rng64::seed_from_u64(21);
        let mut buf = NodeFaults::default();
        for _ in 0..200 {
            let fresh = s.sample_node(&mut rng_a);
            s.sample_node_into(&mut rng_b, &mut buf);
            assert_eq!(fresh, buf);
        }
    }
}

#[cfg(test)]
mod multirank_tests {
    use super::*;
    use crate::modes::FitRates;
    use relaxfault_util::rng::Rng64;

    /// On DIMMs with several ranks, a multi-rank fault produces one region
    /// per rank at the same device position.
    #[test]
    fn multirank_spans_ranks_on_multirank_dimms() {
        let mut cfg = DramConfig::isca16_reliability();
        cfg.ranks_per_dimm = 2;
        cfg.rows = 32768; // keep per-DIMM capacity constant
        cfg.validate().unwrap();
        // Only the multi-rank process, cranked high.
        let mut rates = FitRates { fit: [[0.0; 2]; 6] };
        rates.fit[5][1] = 5000.0;
        let model = FaultModel::isca16(rates, 6.0);
        let sampler = FaultSampler::new(&model, &cfg);
        let mut rng = Rng64::seed_from_u64(4);
        let mut saw = false;
        for _ in 0..200 {
            let node = sampler.sample_node(&mut rng);
            for e in node.permanent() {
                assert_eq!(e.regions.len(), 2, "one region per rank");
                assert_eq!(e.regions[0].device, e.regions[1].device);
                assert_ne!(e.regions[0].rank.rank, e.regions[1].rank.rank);
                assert_eq!(
                    e.regions[0].rank.dimm_index(&cfg),
                    e.regions[1].rank.dimm_index(&cfg)
                );
                saw = true;
            }
        }
        assert!(saw, "expected at least one multi-rank fault");
    }
}
