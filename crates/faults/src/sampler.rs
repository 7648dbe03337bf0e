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
//!   default model ~87% of trials finish right there, with no region,
//!   event, or extent machinery touched. When the gate fails, the
//!   remaining lifetime is drawn from the exact conditional distribution
//!   given ≥ 1 event, by first-success decomposition: walk the DIMMs with
//!   the hazard `P(this dimm is first nonzero | none yet, ≥1 remaining)`,
//!   then walk the forced DIMM's cells the same way (using precomputed
//!   suffix clean-products), force the first nonzero cell's count to be
//!   ≥ 1, and sample everything after the first success unconditionally.
//!
//! The only approximation in the conditional path is reusing the
//! quadrature `q₀` for slow-path gates, whose true zero probability it
//! matches to the quadrature error (≪ 1e-6). Acceleration flags of clean
//! DIMMs are drawn from their exact posteriors so the bookkeeping
//! distribution is preserved too.
//!
//! `tests::matches_reference_sampler` and
//! `tests::clean_gate_matches_reference_zero_rate` check the fast and
//! reference samplers agree statistically.

use crate::inject::{FaultEvent, FaultModel, NodeFaults};
use crate::modes::{FaultMode, Transience, HOURS_PER_YEAR};
use crate::region::RegionList;
use relaxfault_dram::{DramConfig, RankId};
use relaxfault_util::dist::{poisson, LogNormal};
use relaxfault_util::rng::{u64_is_below, unit_f64_threshold, Rng};

/// Mean above which the gate approximation is abandoned for the exact
/// two-stage draw.
const SLOW_PATH_THRESHOLD: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
struct ProcessGate {
    mode: FaultMode,
    transience: Transience,
    lambda: f64,
    /// P(N = 0) under the lognormal mixture.
    q0: f64,
    /// `q0` as an integer mantissa threshold (see
    /// [`relaxfault_util::rng::unit_f64_threshold`]): the fast-gate draw
    /// compares a raw `u64` against it, bit-identical to the `f64`
    /// compare but without the int→float conversion.
    q0_threshold: u64,
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
    /// Per class: suffix clean-products over one DIMM's cell sequence
    /// (rank-major, then device, then gate); `suffix[c][k]` =
    /// P(cells `k..` are all zero), with a trailing `1.0` sentinel.
    suffix: [Vec<f64>; 2],
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
                        q0_threshold: unit_f64_threshold(q0),
                        slow: lambda > SLOW_PATH_THRESHOLD,
                    }
                })
                .collect()
        };
        let gates = [make_gates(factors[0]), make_gates(factors[1])];

        // Zero-fault fast-path precomputation: fold the per-cell gates
        // into per-DIMM and per-node clean probabilities, and suffix
        // products for the conditional first-success walk.
        let cells_per_dimm =
            (cfg.ranks_per_dimm * cfg.devices_per_rank()) as usize * gates[0].len();
        let mut q_dimm = [1.0f64; 2];
        let mut suffix = [Vec::new(), Vec::new()];
        for class in 0..2 {
            let g = &gates[class];
            let mut s = vec![1.0f64; cells_per_dimm + 1];
            for k in (0..cells_per_dimm).rev() {
                s[k] = s[k + 1] * g[k % g.len()].q0;
            }
            q_dimm[class] = s[0];
            suffix[class] = s;
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
            suffix,
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
    pub fn sample_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeFaults {
        let mut out = NodeFaults::default();
        self.sample_node_into(rng, &mut out);
        out
    }

    /// Samples one node lifetime into a caller-owned buffer, reusing its
    /// allocations. Equivalent to [`FaultSampler::sample_node`].
    pub fn sample_node_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut NodeFaults) {
        out.clear();
        if !self.trial_is_clean(rng) {
            self.sample_faulty_into(rng, out);
        }
    }

    /// Samples a node lifetime *conditioned on having at least one event*,
    /// continuing the stream after a failed [`FaultSampler::trial_is_clean`]
    /// gate. Calling the gate and then this on one stream is exactly
    /// [`FaultSampler::sample_node_into`].
    pub fn sample_faulty_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut NodeFaults) {
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
                    self.sample_dimm_unconditional(class, dimm_flat, rng, out);
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
                    self.sample_dimm_forced(0, dimm_flat, rng, out);
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
                    self.sample_dimm_forced(if dimm_acc { 0 } else { 1 }, dimm_flat, rng, out);
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

    /// Legacy unconditional scan of one DIMM's cells.
    fn sample_dimm_unconditional<R: Rng + ?Sized>(
        &self,
        class: usize,
        dimm_flat: u32,
        rng: &mut R,
        out: &mut NodeFaults,
    ) {
        let cfg = &self.cfg;
        for rank_in_dimm in 0..cfg.ranks_per_dimm {
            let rank = RankId {
                channel: dimm_flat / cfg.dimms_per_channel,
                dimm: dimm_flat % cfg.dimms_per_channel,
                rank: rank_in_dimm,
            };
            for device in 0..cfg.devices_per_rank() {
                for gate in &self.gates[class] {
                    let count = self.sample_count(gate, rng);
                    self.emit_events(gate, count, rank, device, rng, out);
                }
            }
        }
    }

    /// Scan of one DIMM's cells conditioned on the DIMM containing the
    /// node's first nonzero cell: first-success hazards up to the forced
    /// cell, unconditional sampling after it.
    fn sample_dimm_forced<R: Rng + ?Sized>(
        &self,
        class: usize,
        dimm_flat: u32,
        rng: &mut R,
        out: &mut NodeFaults,
    ) {
        let cfg = &self.cfg;
        let suffix = &self.suffix[class];
        let mut cell = 0usize;
        let mut forced = false;
        for rank_in_dimm in 0..cfg.ranks_per_dimm {
            let rank = RankId {
                channel: dimm_flat / cfg.dimms_per_channel,
                dimm: dimm_flat % cfg.dimms_per_channel,
                rank: rank_in_dimm,
            };
            for device in 0..cfg.devices_per_rank() {
                for gate in &self.gates[class] {
                    if forced {
                        let count = self.sample_count(gate, rng);
                        self.emit_events(gate, count, rank, device, rng, out);
                    } else if gate.q0 < 1.0 {
                        // P(this cell is the first nonzero | none yet,
                        // ≥ 1 in the remaining cells). At the last
                        // possible cell this is exactly 1.
                        let p = (1.0 - gate.q0) / (1.0 - suffix[cell]);
                        if rng.gen::<f64>() < p {
                            forced = true;
                            let count = self.sample_count_nonzero(gate, rng);
                            self.emit_events(gate, count, rank, device, rng, out);
                        }
                    }
                    // q0 == 1 cells (λ == 0) consume no randomness on
                    // either path.
                    cell += 1;
                }
            }
        }
        debug_assert!(forced, "forced DIMM produced no event");
    }

    fn emit_events<R: Rng + ?Sized>(
        &self,
        gate: &ProcessGate,
        count: u64,
        rank: RankId,
        device: u32,
        rng: &mut R,
        out: &mut NodeFaults,
    ) {
        for _ in 0..count {
            let time_hours = rng.gen::<f64>() * self.hours;
            let extent = self.model.geometry.sample_extent(rng, gate.mode, &self.cfg);
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

    fn sample_count<R: Rng + ?Sized>(&self, gate: &ProcessGate, rng: &mut R) -> u64 {
        if gate.lambda == 0.0 {
            return 0;
        }
        if gate.slow {
            // Exact two-stage draw for non-negligible means.
            let m = match &self.lognorm {
                None => 1.0,
                Some((base, _)) => base.sample(rng),
            };
            return poisson(rng, gate.lambda * m);
        }
        if u64_is_below(rng.next_u64(), gate.q0_threshold) {
            return 0;
        }
        self.sample_count_nonzero(gate, rng)
    }

    /// The count distribution conditioned on being nonzero: the gate
    /// path's own ≥ 1 branch for fast gates, exact rejection for slow
    /// ones (accepts with probability `1 − q0` per attempt, so the loop
    /// is short for every gate past the slow threshold).
    fn sample_count_nonzero<R: Rng + ?Sized>(&self, gate: &ProcessGate, rng: &mut R) -> u64 {
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
