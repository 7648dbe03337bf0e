//! Experimental arms: geometry + fault model + ECC + mechanism + policy.

use relaxfault_cache::CacheConfig;
use relaxfault_dram::DramConfig;
use relaxfault_ecc::EccModel;
use relaxfault_faults::{FaultModel, FitRates};
use relaxfault_util::json::Value;
use relaxfault_util::persist;

/// Which repair mechanism a scenario applies to each newly discovered
/// permanent fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// No fine-grained repair (the baseline policy).
    None,
    /// RelaxFault with a per-set way limit.
    RelaxFault {
        /// Maximum LLC ways any set may devote to repair.
        max_ways: u32,
    },
    /// FreeFault with a per-set way limit.
    FreeFault {
        /// Maximum LLC ways any set may devote to repair.
        max_ways: u32,
    },
    /// DDR4-style post-package repair.
    Ppr,
    /// PPR with non-standard sparing (ablations).
    PprCustom {
        /// Banks per bank group.
        banks_per_group: u32,
        /// Spare rows per bank group.
        spares_per_group: u32,
    },
}

impl Mechanism {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Mechanism::None => "No repair".to_string(),
            Mechanism::RelaxFault { max_ways } => format!("RelaxFault-{max_ways}way"),
            Mechanism::FreeFault { max_ways } => format!("FreeFault-{max_ways}way"),
            Mechanism::Ppr => "PPR".to_string(),
            Mechanism::PprCustom {
                banks_per_group,
                spares_per_group,
            } => {
                format!("PPR-{spares_per_group}x{banks_per_group}b")
            }
        }
    }

    /// Serializes the mechanism as a tagged JSON object.
    pub fn to_json(&self) -> Value {
        match self {
            Mechanism::None => Value::object([("kind", "none".into())]),
            Mechanism::RelaxFault { max_ways } => Value::object([
                ("kind", "relaxfault".into()),
                ("max_ways", u64::from(*max_ways).into()),
            ]),
            Mechanism::FreeFault { max_ways } => Value::object([
                ("kind", "freefault".into()),
                ("max_ways", u64::from(*max_ways).into()),
            ]),
            Mechanism::Ppr => Value::object([("kind", "ppr".into())]),
            Mechanism::PprCustom {
                banks_per_group,
                spares_per_group,
            } => Value::object([
                ("kind", "ppr_custom".into()),
                ("banks_per_group", u64::from(*banks_per_group).into()),
                ("spares_per_group", u64::from(*spares_per_group).into()),
            ]),
        }
    }

    /// Parses a mechanism from the object form produced by [`Self::to_json`].
    /// Every parameter must be an integer that fits in a `u32`; whether it
    /// fits the geometry is [`Scenario::from_json`]'s check.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("mechanism needs a string \"kind\"")?;
        let field = |key: &str| {
            persist::parse_u32_field(v, key).map_err(|e| format!("mechanism \"{kind}\": {e}"))
        };
        match kind {
            "none" => Ok(Mechanism::None),
            "relaxfault" => Ok(Mechanism::RelaxFault {
                max_ways: field("max_ways")?,
            }),
            "freefault" => Ok(Mechanism::FreeFault {
                max_ways: field("max_ways")?,
            }),
            "ppr" => Ok(Mechanism::Ppr),
            "ppr_custom" => Ok(Mechanism::PprCustom {
                banks_per_group: field("banks_per_group")?,
                spares_per_group: field("spares_per_group")?,
            }),
            other => Err(format!("unknown mechanism kind {other:?}")),
        }
    }
}

/// When a DIMM gets replaced (paper §5.1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplacementPolicy {
    /// Never replace (used for pure coverage studies).
    None,
    /// ReplA: replace immediately after a non-transient DUE.
    AfterDue,
    /// ReplB: replace once an unrepaired permanent fault generates enough
    /// corrected errors (threshold crossing modelled as a per-fault trigger
    /// probability — faults in rarely touched regions never cross it).
    AfterErrors {
        /// Probability an unrepaired permanent fault trips the threshold.
        trigger_prob: f64,
    },
}

impl ReplacementPolicy {
    /// Serializes the policy as a tagged JSON object.
    pub fn to_json(&self) -> Value {
        match self {
            ReplacementPolicy::None => Value::object([("kind", "none".into())]),
            ReplacementPolicy::AfterDue => Value::object([("kind", "after_due".into())]),
            ReplacementPolicy::AfterErrors { trigger_prob } => Value::object([
                ("kind", "after_errors".into()),
                ("trigger_prob", (*trigger_prob).into()),
            ]),
        }
    }

    /// Parses a policy from the object form produced by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("replacement policy needs a string \"kind\"")?;
        match kind {
            "none" => Ok(ReplacementPolicy::None),
            "after_due" => Ok(ReplacementPolicy::AfterDue),
            "after_errors" => Ok(ReplacementPolicy::AfterErrors {
                trigger_prob: v
                    .get("trigger_prob")
                    .and_then(Value::as_f64)
                    .ok_or("\"after_errors\" needs a numeric \"trigger_prob\"")?,
            }),
            other => Err(format!("unknown replacement policy kind {other:?}")),
        }
    }
}

/// Everything a repair planner is built from. Arms with equal keys make
/// identical planner calls on one event list and get identical verdicts
/// (the planner reads only the fault regions, never the RNG, the ECC
/// outcome or the replacement policy), so the engine and the fleet plan
/// once per key and replay every such arm from that one plan, and an
/// [`crate::node::EvalScratch`] refuses reuse under a different key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannerKey {
    mechanism: Mechanism,
    /// LLC geometry and set indexing (hashed vs unhashed, Figure 8).
    llc: CacheConfig,
    /// DRAM geometry (already shared by every arm of one run).
    dram: DramConfig,
}

/// One experimental arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Node memory geometry.
    pub dram: DramConfig,
    /// LLC geometry and indexing.
    pub llc: CacheConfig,
    /// Fault injection model.
    pub fault_model: FaultModel,
    /// ECC outcome model.
    pub ecc: EccModel,
    /// Repair mechanism under test.
    pub mechanism: Mechanism,
    /// Maintenance policy.
    pub replacement: ReplacementPolicy,
}

impl Scenario {
    /// The paper's default evaluation arm: 8×8 GiB DIMM node, hashed
    /// 8 MiB LLC, Cielo rates with the refined variation model over
    /// 6 years, chipkill ECC, no repair, ReplA maintenance.
    pub fn isca16_baseline() -> Self {
        Self {
            dram: DramConfig::isca16_reliability(),
            llc: CacheConfig::isca16_llc(),
            fault_model: FaultModel::isca16(FitRates::cielo(), 6.0),
            ecc: EccModel::isca16(),
            mechanism: Mechanism::None,
            replacement: ReplacementPolicy::AfterDue,
        }
    }

    /// The arm's [`PlannerKey`].
    pub(crate) fn planner_key(&self) -> PlannerKey {
        PlannerKey {
            mechanism: self.mechanism,
            llc: self.llc,
            dram: self.dram,
        }
    }

    /// ReplB's default trigger probability: nearly every unrepaired
    /// permanent fault in active memory crosses an error threshold within
    /// the window.
    pub const REPLB_TRIGGER: f64 = 0.95;

    /// Returns the arm with a different mechanism.
    pub fn with_mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Returns the arm with a different replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Returns the arm with FIT rates scaled by `factor` (the 10× studies).
    pub fn with_fit_scale(mut self, factor: f64) -> Self {
        self.fault_model.rates = self.fault_model.rates.scaled(factor);
        self
    }

    /// Returns the arm with an unhashed LLC (Figure 8's comparison).
    pub fn without_set_hashing(mut self) -> Self {
        self.llc = CacheConfig::isca16_llc_no_hash();
        self
    }

    /// Serializes the arm's knobs — everything the builder methods can
    /// change relative to [`Self::isca16_baseline`] — as a JSON object.
    pub fn to_json(&self) -> Value {
        let baseline_fit = FitRates::cielo().total_permanent();
        Value::object([
            ("mechanism", self.mechanism.to_json()),
            ("replacement", self.replacement.to_json()),
            (
                "fit_scale",
                (self.fault_model.rates.total_permanent() / baseline_fit).into(),
            ),
            (
                "set_hashing",
                (!matches!(self.llc.indexing, relaxfault_cache::Indexing::Canonical)).into(),
            ),
        ])
    }

    /// Builds an arm from a JSON config object: the paper baseline with
    /// the object's overrides applied. All keys are optional; unknown
    /// keys are rejected so config typos fail loudly, and so is a
    /// mechanism the planners cannot be built for (a way limit outside
    /// `1..=llc.ways`, or a PPR bank group outside `1..=dram.banks`).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let pairs = match v {
            Value::Object(pairs) => pairs,
            _ => return Err("scenario config must be a JSON object".into()),
        };
        let mut scenario = Scenario::isca16_baseline();
        for (key, val) in pairs {
            match key.as_str() {
                "mechanism" => scenario.mechanism = Mechanism::from_json(val)?,
                "replacement" => scenario.replacement = ReplacementPolicy::from_json(val)?,
                "fit_scale" => {
                    let f = val.as_f64().ok_or("\"fit_scale\" must be a number")?;
                    if f <= 0.0 {
                        return Err(format!("\"fit_scale\" must be positive, got {f}"));
                    }
                    scenario = scenario.with_fit_scale(f);
                }
                "set_hashing" => {
                    if !val.as_bool().ok_or("\"set_hashing\" must be a boolean")? {
                        scenario = scenario.without_set_hashing();
                    }
                }
                other => return Err(format!("unknown scenario config key {other:?}")),
            }
        }
        let (key, value, max) = match scenario.mechanism {
            Mechanism::RelaxFault { max_ways } | Mechanism::FreeFault { max_ways } => {
                ("max_ways", max_ways, scenario.llc.ways)
            }
            Mechanism::PprCustom {
                banks_per_group, ..
            } => ("banks_per_group", banks_per_group, scenario.dram.banks),
            Mechanism::None | Mechanism::Ppr => return Ok(scenario),
        };
        if !(1..=max).contains(&value) {
            return Err(format!("\"{key}\" must be in 1..={max}, got {value}"));
        }
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_consistent() {
        let s = Scenario::isca16_baseline();
        s.dram.validate().unwrap();
        s.llc.validate().unwrap();
        assert_eq!(s.mechanism, Mechanism::None);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::isca16_baseline()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 })
            .with_fit_scale(10.0)
            .with_replacement(ReplacementPolicy::AfterErrors { trigger_prob: 0.9 });
        assert_eq!(s.mechanism, Mechanism::RelaxFault { max_ways: 4 });
        assert!((s.fault_model.rates.total_permanent() - 200.0).abs() < 1e-9);
        assert!(matches!(
            s.replacement,
            ReplacementPolicy::AfterErrors { .. }
        ));
    }

    #[test]
    fn json_roundtrips_builder_combinations() {
        let arms = [
            Scenario::isca16_baseline(),
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::RelaxFault { max_ways: 4 })
                .with_fit_scale(10.0)
                .without_set_hashing(),
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::PprCustom {
                    banks_per_group: 4,
                    spares_per_group: 2,
                })
                .with_replacement(ReplacementPolicy::AfterErrors { trigger_prob: 0.9 }),
            Scenario::isca16_baseline()
                .with_mechanism(Mechanism::FreeFault { max_ways: 16 })
                .with_replacement(ReplacementPolicy::None),
        ];
        for arm in &arms {
            // Through text, as a config file would go.
            let text = arm.to_json().to_pretty();
            let parsed = Value::parse(&text).unwrap();
            assert_eq!(&Scenario::from_json(&parsed).unwrap(), arm);
        }
    }

    #[test]
    fn json_config_rejects_typos() {
        let bad = Value::parse(r#"{"mechanisms": {"kind": "ppr"}}"#).unwrap();
        assert!(Scenario::from_json(&bad)
            .unwrap_err()
            .contains("mechanisms"));
        let bad = Value::parse(r#"{"mechanism": {"kind": "relaxfault"}}"#).unwrap();
        assert!(Scenario::from_json(&bad).unwrap_err().contains("max_ways"));
        let bad = Value::parse(r#"{"fit_scale": -1}"#).unwrap();
        assert!(Scenario::from_json(&bad).unwrap_err().contains("positive"));
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(
            Mechanism::RelaxFault { max_ways: 1 }.label(),
            "RelaxFault-1way"
        );
        assert_eq!(
            Mechanism::FreeFault { max_ways: 16 }.label(),
            "FreeFault-16way"
        );
        assert_eq!(Mechanism::Ppr.label(), "PPR");
        assert_eq!(Mechanism::None.label(), "No repair");
    }
}
