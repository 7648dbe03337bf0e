//! Monte Carlo fault injection with the paper's refined variation model.
//!
//! Prior fault models give every device the identical average FIT rate; the
//! paper shows this badly under-predicts observed failure rates and
//! proposes (§4.1.2):
//!
//! 1. *device-to-device variation*: each (device, fault-process) pair draws
//!    its rate from a lognormal around the published mean;
//! 2. *node/DIMM acceleration*: a small fraction of nodes and DIMMs run at
//!    `accel_factor ×` the base rate, with everyone else scaled down so the
//!    population average is preserved (Equation 1).

use crate::geometry::FaultGeometry;
use crate::modes::{FaultMode, FitRates, Transience, HOURS_PER_YEAR};
use crate::region::{FaultRegion, RegionList};
use relaxfault_dram::{DramConfig, RankId};
use relaxfault_util::dist::{poisson, LogNormal};
use relaxfault_util::obs::{self, Counter};
use relaxfault_util::rng::Rng;
use std::sync::OnceLock;

/// The reliability-variation knobs of §4.1.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Coefficient of variation of the per-(device, process) lognormal rate
    /// ("a variance that is 1/4 of the mean"; the paper notes results are
    /// insensitive to the exact value). `0` disables.
    pub device_cv: f64,
    /// Fraction of nodes whose DIMMs all run accelerated (paper: 0.1%).
    pub accel_node_fraction: f64,
    /// Fraction of DIMMs (elsewhere) that run accelerated (paper: 0.1%).
    pub accel_dimm_fraction: f64,
    /// Acceleration factor (paper: 100×, the knee of Figure 9).
    pub accel_factor: f64,
}

impl VariationModel {
    /// The paper's chosen operating point: 0.1% of nodes and DIMMs at 100×,
    /// device CV 0.5.
    pub fn isca16() -> Self {
        Self {
            device_cv: 0.5,
            accel_node_fraction: 0.001,
            accel_dimm_fraction: 0.001,
            accel_factor: 100.0,
        }
    }

    /// The prior-work uniform model (no variation): every device at the
    /// published average rate. This is Figure 9's zero-acceleration point.
    pub fn uniform() -> Self {
        Self {
            device_cv: 0.0,
            accel_node_fraction: 0.0,
            accel_dimm_fraction: 0.0,
            accel_factor: 1.0,
        }
    }

    /// Rate multiplier for non-accelerated devices so the population
    /// average stays at the published FIT (Equation 1), clamped at zero.
    pub fn adjusted_rest_factor(&self) -> f64 {
        let p = self.accel_node_fraction + self.accel_dimm_fraction;
        if p <= 0.0 {
            return 1.0;
        }
        if p >= 1.0 {
            return 0.0;
        }
        ((1.0 - p * self.accel_factor) / (1.0 - p)).max(0.0)
    }
}

struct InjectMetrics {
    total: Counter,
    permanent: Counter,
    by_mode: [Counter; 6],
}

fn inject_metrics() -> &'static InjectMetrics {
    static METRICS: OnceLock<InjectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| InjectMetrics {
        total: obs::counter("faults.injected_total"),
        permanent: obs::counter("faults.injected_permanent"),
        by_mode: FaultMode::ALL.map(|m| obs::counter(&format!("faults.injected.{}", m.key()))),
    })
}

/// Records one injected fault in the observability layer (counters per
/// mode). Free when observability is disabled.
pub(crate) fn record_injection(event: &FaultEvent) {
    let m = inject_metrics();
    m.total.inc();
    if event.is_permanent() {
        m.permanent.inc();
    }
    m.by_mode[event.mode as usize].inc();
}

/// One fault occurrence in a node's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Hours since the start of the observation window.
    pub time_hours: f64,
    /// The field-study mode that produced the fault.
    pub mode: FaultMode,
    /// Whether the fault persists.
    pub transience: Transience,
    /// The affected regions (one per rank; multi-rank faults on multi-rank
    /// DIMMs produce several). Stored inline for the common 1-region case.
    pub regions: RegionList,
}

impl FaultEvent {
    /// Whether the fault persists.
    pub fn is_permanent(&self) -> bool {
        self.transience == Transience::Permanent
    }
}

/// All faults one node experiences over the observation window, sorted by
/// time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFaults {
    /// Events sorted ascending by `time_hours`.
    pub events: Vec<FaultEvent>,
    /// Whether the whole node was FIT-accelerated.
    pub node_accelerated: bool,
    /// DIMM (flat) indices that were individually accelerated.
    pub accelerated_dimms: Vec<u32>,
}

impl NodeFaults {
    /// Resets to the empty lifetime, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.node_accelerated = false;
        self.accelerated_dimms.clear();
    }

    /// Whether the node has at least one permanent fault — the paper's
    /// definition of a *faulty node*.
    pub fn is_faulty(&self) -> bool {
        self.events.iter().any(FaultEvent::is_permanent)
    }

    /// Permanent events only.
    pub fn permanent(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.is_permanent())
    }

    /// Verifies the sampled lifetime against the device geometry: events
    /// sorted by arrival time, every region on an existing rank/device,
    /// every extent inside the bank/row/column space. Meant for tests and
    /// the `RF_CHECK=1` engine hook — O(events), never on by default.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self, cfg: &DramConfig) -> Result<(), String> {
        let mut last = f64::NEG_INFINITY;
        for (i, e) in self.events.iter().enumerate() {
            if !e.time_hours.is_finite() || e.time_hours < 0.0 {
                return Err(format!("event {i} at non-physical time {}", e.time_hours));
            }
            if e.time_hours < last {
                return Err(format!(
                    "event {i} at {} arrives before its predecessor at {last}",
                    e.time_hours
                ));
            }
            last = e.time_hours;
            if e.regions.is_empty() {
                return Err(format!("event {i} has no regions"));
            }
            for r in &e.regions {
                r.check_geometry(cfg)
                    .map_err(|m| format!("event {i}: {m}"))?;
            }
        }
        for &d in &self.accelerated_dimms {
            if d >= cfg.dimms_per_node() {
                return Err(format!(
                    "accelerated DIMM {d} out of range ({})",
                    cfg.dimms_per_node()
                ));
            }
        }
        Ok(())
    }

    /// Number of distinct (DIMM, device) positions with permanent faults.
    pub fn faulty_devices(&self, cfg: &DramConfig) -> usize {
        let mut devs: Vec<(u32, u32)> = self
            .permanent()
            .flat_map(|e| e.regions.iter())
            .map(|r| (r.rank.dimm_index(cfg), r.device))
            .collect();
        devs.sort_unstable();
        devs.dedup();
        devs.len()
    }
}

/// The full §4.1 fault-injection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Per-device FIT rates by mode.
    pub rates: FitRates,
    /// Physical-extent distributions.
    pub geometry: FaultGeometry,
    /// Variation model (Equation 1 + lognormal).
    pub variation: VariationModel,
    /// Observation window in years (paper: 6).
    pub years: f64,
}

impl FaultModel {
    /// The paper's default model: given rates, 6-year window, default
    /// geometry, §4.1.2 variation.
    pub fn isca16(rates: FitRates, years: f64) -> Self {
        Self {
            rates,
            geometry: FaultGeometry::default(),
            variation: VariationModel::isca16(),
            years,
        }
    }

    /// Same rates but the prior-work uniform fault model.
    pub fn uniform(rates: FitRates, years: f64) -> Self {
        Self {
            variation: VariationModel::uniform(),
            ..Self::isca16(rates, years)
        }
    }

    /// Expected permanent faults per node over the window under the average
    /// rate (for sanity checks; variation preserves this mean by design).
    pub fn expected_permanent_faults(&self, cfg: &DramConfig) -> f64 {
        cfg.devices_per_node() as f64
            * self.rates.total_permanent()
            * 1e-9
            * self.years
            * HOURS_PER_YEAR
    }

    /// Samples one node-lifetime of faults.
    pub fn sample_node<R: Rng + ?Sized>(&self, cfg: &DramConfig, rng: &mut R) -> NodeFaults {
        let hours = self.years * HOURS_PER_YEAR;
        let v = &self.variation;
        let node_acc = v.accel_node_fraction > 0.0 && rng.gen_bool(v.accel_node_fraction);
        let rest = v.adjusted_rest_factor();

        let mut out = NodeFaults {
            events: Vec::new(),
            node_accelerated: node_acc,
            accelerated_dimms: Vec::new(),
        };

        let lognorm = if v.device_cv > 0.0 {
            Some(LogNormal::from_mean_cv(1.0, v.device_cv))
        } else {
            None
        };

        for dimm_flat in 0..cfg.dimms_per_node() {
            let dimm_acc = v.accel_dimm_fraction > 0.0 && rng.gen_bool(v.accel_dimm_fraction);
            if dimm_acc {
                out.accelerated_dimms.push(dimm_flat);
            }
            let factor = if node_acc || dimm_acc {
                v.accel_factor
            } else {
                rest
            };
            if factor == 0.0 {
                continue;
            }
            for rank_in_dimm in 0..cfg.ranks_per_dimm {
                let rank = RankId {
                    channel: dimm_flat / cfg.dimms_per_channel,
                    dimm: dimm_flat % cfg.dimms_per_channel,
                    rank: rank_in_dimm,
                };
                for device in 0..cfg.devices_per_rank() {
                    for (mode, transience, fit) in self.rates.processes() {
                        if fit == 0.0 {
                            continue;
                        }
                        let mut lambda = fit * 1e-9 * hours * factor;
                        if let Some(ln) = &lognorm {
                            lambda *= ln.sample(rng);
                        }
                        let count = poisson(rng, lambda);
                        for _ in 0..count {
                            let time_hours = rng.gen::<f64>() * hours;
                            let regions = self.sample_regions(rng, mode, cfg, rank, device);
                            let event = FaultEvent {
                                time_hours,
                                mode,
                                transience,
                                regions,
                            };
                            record_injection(&event);
                            out.events.push(event);
                        }
                    }
                }
            }
        }
        out.events.sort_by(|a, b| {
            a.time_hours
                .partial_cmp(&b.time_hours)
                .expect("finite times")
        });
        out
    }

    fn sample_regions<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mode: FaultMode,
        cfg: &DramConfig,
        rank: RankId,
        device: u32,
    ) -> RegionList {
        let extent = self.geometry.sample_extent(rng, mode, cfg);
        if mode == FaultMode::MultiRank && cfg.ranks_per_dimm > 1 {
            // The fault is visible on every rank of the DIMM at the same
            // device position (shared I/O).
            (0..cfg.ranks_per_dimm)
                .map(|rk| FaultRegion {
                    rank: RankId { rank: rk, ..rank },
                    device,
                    extent,
                })
                .collect()
        } else {
            RegionList::one(FaultRegion {
                rank,
                device,
                extent,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_util::rng::Rng64;

    fn cfg() -> DramConfig {
        DramConfig::isca16_reliability()
    }

    #[test]
    fn adjusted_factor_matches_paper_arithmetic() {
        // 0.1% + 0.1% at 100× ⇒ ~20% rate reduction for everyone else.
        let v = VariationModel::isca16();
        let f = v.adjusted_rest_factor();
        assert!((f - 0.8016).abs() < 0.001, "got {f}");
        assert_eq!(VariationModel::uniform().adjusted_rest_factor(), 1.0);
    }

    #[test]
    fn adjusted_factor_clamps_at_zero() {
        let v = VariationModel {
            accel_node_fraction: 0.005,
            accel_dimm_fraction: 0.005,
            accel_factor: 200.0,
            device_cv: 0.0,
        };
        assert_eq!(v.adjusted_rest_factor(), 0.0);
    }

    #[test]
    fn faulty_node_fraction_matches_paper() {
        // Figure 10's caption: ~12% of nodes have retired data after
        // 6 years at Cielo rates (our model: ~11–14%).
        let model = FaultModel::isca16(FitRates::cielo(), 6.0);
        let c = cfg();
        let mut rng = Rng64::seed_from_u64(1234);
        let n = 6000;
        let faulty = (0..n)
            .filter(|_| model.sample_node(&c, &mut rng).is_faulty())
            .count();
        let frac = faulty as f64 / n as f64;
        assert!((0.09..0.16).contains(&frac), "faulty fraction {frac}");
    }

    #[test]
    fn expected_fault_count_sanity() {
        let model = FaultModel::uniform(FitRates::cielo(), 6.0);
        let c = cfg();
        assert!((model.expected_permanent_faults(&c) - 0.1514).abs() < 0.001);
        // Empirical mean (permanent only) tracks it.
        let mut rng = Rng64::seed_from_u64(7);
        let n = 4000;
        let total: usize = (0..n)
            .map(|_| model.sample_node(&c, &mut rng).permanent().count())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 0.1514).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn events_sorted_and_in_window() {
        let model = FaultModel::isca16(FitRates::cielo().scaled(10.0), 6.0);
        let c = cfg();
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..50 {
            let node = model.sample_node(&c, &mut rng);
            for w in node.events.windows(2) {
                assert!(w[0].time_hours <= w[1].time_hours);
            }
            for e in &node.events {
                assert!((0.0..6.0 * HOURS_PER_YEAR).contains(&e.time_hours));
                assert!(!e.regions.is_empty());
                for r in &e.regions {
                    assert!(r.device < c.devices_per_rank());
                    assert!(r.rank.channel < c.channels);
                }
            }
        }
    }

    #[test]
    fn mode_mix_tracks_fit_shares() {
        let model = FaultModel::uniform(FitRates::cielo(), 6.0);
        let c = cfg();
        let mut rng = Rng64::seed_from_u64(99);
        let mut bit = 0usize;
        let mut total = 0usize;
        for _ in 0..4000 {
            for e in model.sample_node(&c, &mut rng).permanent() {
                total += 1;
                if e.mode == FaultMode::SingleBitWord {
                    bit += 1;
                }
            }
        }
        let share = bit as f64 / total as f64;
        // 13.0 / 20.0 = 65% of permanent faults.
        assert!((share - 0.65).abs() < 0.05, "bit share {share}");
    }

    #[test]
    fn acceleration_concentrates_faults() {
        // The whole point of the refined model: multi-device DIMMs become
        // far more common than under the uniform model.
        let c = cfg();
        let mut rng = Rng64::seed_from_u64(5);
        let count_multi = |model: &FaultModel, rng: &mut Rng64| {
            let mut multi = 0;
            for _ in 0..8000 {
                let node = model.sample_node(&c, rng);
                // DIMMs with ≥ 2 faulty devices.
                let mut per_dimm: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
                    Default::default();
                for e in node.permanent() {
                    for r in &e.regions {
                        per_dimm
                            .entry(r.rank.dimm_index(&c))
                            .or_default()
                            .insert(r.device);
                    }
                }
                multi += per_dimm.values().filter(|d| d.len() >= 2).count();
            }
            multi
        };
        let uniform = count_multi(&FaultModel::uniform(FitRates::cielo(), 6.0), &mut rng);
        let varied = count_multi(&FaultModel::isca16(FitRates::cielo(), 6.0), &mut rng);
        assert!(
            varied > uniform * 3,
            "varied {varied} should dwarf uniform {uniform}"
        );
    }

    #[test]
    fn accelerated_node_bookkeeping() {
        let model = FaultModel {
            variation: VariationModel {
                accel_node_fraction: 1.0, // force acceleration
                ..VariationModel::isca16()
            },
            ..FaultModel::isca16(FitRates::cielo(), 6.0)
        };
        let mut rng = Rng64::seed_from_u64(8);
        let node = model.sample_node(&cfg(), &mut rng);
        assert!(node.node_accelerated);
        // 100× over 6 years ⇒ ~15 permanent faults expected.
        assert!(node.permanent().count() > 3);
    }

    #[test]
    fn zero_years_means_no_faults() {
        let model = FaultModel::isca16(FitRates::cielo(), 0.0);
        let mut rng = Rng64::seed_from_u64(11);
        let node = model.sample_node(&cfg(), &mut rng);
        assert!(node.events.is_empty());
        assert!(!node.is_faulty());
    }
}
