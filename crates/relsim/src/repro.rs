//! Deterministic failing-trial repro cases.
//!
//! When an `RF_CHECK=1` invariant check or a relcheck oracle disagrees
//! with the production path, the failing input is written here as a small
//! JSON file under `results/relcheck/`. A case pins everything needed to
//! re-execute the exact trial: the run seed, the trial index, the
//! fault-model group, and the full scenario configurations of that group's
//! arms (via the existing [`Scenario`] JSON layer). Property-based cases
//! additionally carry the shrunk `util::prop` choice stream that decodes
//! back to the generated input; fleet-mode cases record the lifetime
//! epoch the failure surfaced in.
//!
//! The `relcheck replay` binary (in `crates/relcheck`) loads a case,
//! replays the `(seed, trial, group)` RNG streams, and compares a digest
//! of the resampled fault population against the one recorded at failure
//! time — equality proves the reproduction is bit-exact.
//!
//! Repro cases share their persistence contract (schema-versioned kind
//! header, atomic writes, path-contextualized loads) with fleet
//! checkpoints through [`relaxfault_util::persist::Persist`]. Schema v2
//! added the optional `epoch` field; v1 files (PR 5) remain readable and
//! decode with `epoch: None`.

use crate::scenario::Scenario;
use relaxfault_faults::NodeFaults;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::{self, Persist};
use std::path::PathBuf;

/// Repro file format version; bump on breaking layout changes.
pub const REPRO_SCHEMA_VERSION: u64 = 2;

/// The `kind` tag distinguishing repro files from obs snapshots.
pub const REPRO_KIND: &str = "relcheck_repro";

/// One replayable failing case.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCase {
    /// Short case name (`engine_check`, an oracle property name, …);
    /// doubles as the replay dispatch key for property cases.
    pub case: String,
    /// Human-readable failure description.
    pub reason: String,
    /// Run seed the trial streams derive from.
    pub seed: u64,
    /// Failing trial index.
    pub trial: u64,
    /// Fault-model group index (the third RNG-stream key).
    pub group: u64,
    /// Lifetime epoch the failure surfaced in (fleet-mode cases only;
    /// `None` for whole-lifetime engine and property cases). Since v2.
    pub epoch: Option<u64>,
    /// The scenario arms of the failing group, first one owning the fault
    /// model. Empty for property cases that regenerate their own input.
    pub scenarios: Vec<Scenario>,
    /// FNV-1a digest of the sampled fault population at failure time
    /// (`None` when the failure precedes sampling).
    pub digest: Option<u64>,
    /// Shrunk `util::prop` choice stream for property-based cases.
    pub prop_choices: Vec<u64>,
}

/// Digest of one sampled fault population, used to prove a replay
/// resampled the identical lifetime. The debug representation covers every
/// field of every event, so any divergence changes the hash.
pub fn trial_digest(node: &NodeFaults) -> u64 {
    persist::digest_debug(node)
}

impl Persist for ReproCase {
    const KIND: &'static str = REPRO_KIND;
    const SCHEMA_VERSION: u64 = REPRO_SCHEMA_VERSION;

    /// v1 (PR 5, before the `epoch` field) is still accepted.
    fn accepts_version(version: u64) -> bool {
        (1..=REPRO_SCHEMA_VERSION).contains(&version)
    }

    /// Serializes the case. u64 fields that may exceed 2^53 (seed, digest,
    /// choices) are stored as hex strings — the in-repo JSON layer keeps
    /// numbers as f64.
    fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(REPRO_SCHEMA_VERSION)),
            ("kind", Value::from(REPRO_KIND)),
            ("case", Value::from(self.case.as_str())),
            ("reason", Value::from(self.reason.as_str())),
            ("seed", persist::hex(self.seed)),
            ("trial", Value::from(self.trial)),
            ("group", Value::from(self.group)),
            (
                "epoch",
                match self.epoch {
                    Some(e) => Value::from(e),
                    None => Value::Null,
                },
            ),
            (
                "scenarios",
                Value::Array(self.scenarios.iter().map(Scenario::to_json).collect()),
            ),
            (
                "digest",
                match self.digest {
                    Some(d) => persist::hex(d),
                    None => Value::Null,
                },
            ),
            (
                "prop_choices",
                Value::Array(self.prop_choices.iter().map(|&c| persist::hex(c)).collect()),
            ),
        ])
    }

    /// Deserializes a case written by [`Persist::to_json`] at any
    /// accepted schema version (v1 files decode with `epoch: None`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field,
    /// and rejects a case with an empty reason or with neither scenarios
    /// nor a choice stream (nothing to replay).
    fn from_json(v: &Value) -> Result<Self, String> {
        let version = Self::check_header(v)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k}"));
        let scenarios = field("scenarios")?
            .as_array()
            .ok_or("scenarios must be an array")?
            .iter()
            .map(Scenario::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let digest = match field("digest")? {
            Value::Null => None,
            other => Some(persist::parse_hex(other).ok_or("digest must be a hex string")?),
        };
        // `epoch` arrived in v2; v1 files simply lack it.
        let epoch = match v.get("epoch") {
            None if version < 2 => None,
            None => return Err("missing epoch".into()),
            Some(Value::Null) => None,
            Some(_) => Some(persist::parse_u64_field(v, "epoch")?),
        };
        let prop_choices = field("prop_choices")?
            .as_array()
            .ok_or("prop_choices must be an array")?
            .iter()
            .map(|c| persist::parse_hex(c).ok_or_else(|| "choices must be hex strings".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let case = Self {
            case: field("case")?
                .as_str()
                .ok_or("case must be a string")?
                .into(),
            reason: field("reason")?
                .as_str()
                .ok_or("reason must be a string")?
                .into(),
            seed: persist::parse_hex_field(v, "seed")?,
            trial: persist::parse_u64_field(v, "trial")?,
            group: persist::parse_u64_field(v, "group")?,
            epoch,
            scenarios,
            digest,
            prop_choices,
        };
        if case.reason.is_empty() {
            return Err("repro case has an empty reason".into());
        }
        if case.scenarios.is_empty() && case.prop_choices.is_empty() {
            return Err("repro case carries neither scenarios nor a choice stream".into());
        }
        Ok(case)
    }
}

impl ReproCase {
    /// Serializes the case — see [`Persist::to_json`].
    pub fn to_json(&self) -> Value {
        Persist::to_json(self)
    }

    /// Deserializes a case — see [`Persist::from_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Persist::from_json(v)
    }

    /// Writes the case under `<results>/relcheck/` (honouring
    /// `RF_RESULTS_DIR`) with a filename derived from the case name and
    /// trial coordinates, and returns the path. The write is atomic (via
    /// [`Persist::save`]), so a crash mid-write cannot leave a truncated
    /// case behind.
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be written — a repro that
    /// silently fails to persist defeats its purpose.
    pub fn write(&self) -> PathBuf {
        let path = PathBuf::from(obs::results_dir())
            .join("relcheck")
            .join(format!(
                "{}_s{:x}_t{}_g{}.json",
                self.case, self.seed, self.trial, self.group
            ));
        self.save(&path).expect("write repro case");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mechanism;

    fn sample_case() -> ReproCase {
        ReproCase {
            case: "engine_check".into(),
            reason: "forced failure".into(),
            seed: 0xDEAD_BEEF_0000_0001,
            trial: 42,
            group: 1,
            epoch: Some(17),
            scenarios: vec![
                Scenario::isca16_baseline().with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
                Scenario::isca16_baseline().with_mechanism(Mechanism::Ppr),
            ],
            digest: Some(0x1234_5678_9ABC_DEF0),
            prop_choices: vec![0, 7, u64::MAX],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let case = sample_case();
        let text = case.to_json().to_pretty();
        let parsed = Value::parse(&text).expect("self-produced JSON parses");
        assert_eq!(ReproCase::from_json(&parsed).unwrap(), case);
        // Digest-less (pre-sampling), epoch-less cases round-trip too.
        let case = ReproCase {
            digest: None,
            epoch: None,
            prop_choices: vec![],
            ..case
        };
        let parsed = Value::parse(&case.to_json().to_pretty()).unwrap();
        assert_eq!(ReproCase::from_json(&parsed).unwrap(), case);
    }

    #[test]
    fn v1_files_without_epoch_still_decode() {
        // A v1 writer never emitted `epoch`; the v2 reader must accept the
        // old layout and default the field.
        let case = sample_case();
        let mut pairs = match case.to_json() {
            Value::Object(pairs) => pairs,
            _ => unreachable!("cases serialize to objects"),
        };
        pairs.retain(|(k, _)| k != "epoch");
        for (k, v) in pairs.iter_mut() {
            if k == "schema_version" {
                *v = Value::from(1u64);
            }
        }
        let decoded = ReproCase::from_json(&Value::Object(pairs)).unwrap();
        assert_eq!(
            decoded,
            ReproCase {
                epoch: None,
                ..case
            }
        );
    }

    #[test]
    fn v2_files_must_carry_epoch() {
        let mut pairs = match sample_case().to_json() {
            Value::Object(pairs) => pairs,
            _ => unreachable!(),
        };
        pairs.retain(|(k, _)| k != "epoch");
        let err = ReproCase::from_json(&Value::Object(pairs)).unwrap_err();
        assert!(err.contains("epoch"), "{err}");
    }

    #[test]
    fn from_json_rejects_cases_with_nothing_to_replay() {
        let silent = ReproCase {
            reason: String::new(),
            ..sample_case()
        };
        let err = ReproCase::parse_str(&silent.to_json().to_pretty()).unwrap_err();
        assert!(err.contains("empty reason"), "{err}");
        let empty = ReproCase {
            scenarios: vec![],
            prop_choices: vec![],
            ..sample_case()
        };
        let err = ReproCase::parse_str(&empty.to_json().to_pretty()).unwrap_err();
        assert!(err.contains("neither scenarios"), "{err}");
    }

    #[test]
    fn from_json_rejects_foreign_files() {
        let snapshot = Value::object([("schema_version", Value::from(2.0))]);
        assert!(ReproCase::from_json(&snapshot).is_err());
        let wrong_kind = Value::object([
            ("schema_version", Value::from(2.0)),
            ("kind", Value::from("metrics_snapshot")),
        ]);
        assert!(ReproCase::from_json(&wrong_kind).is_err());
        let future = Value::object([
            ("schema_version", Value::from(3.0)),
            ("kind", Value::from(REPRO_KIND)),
        ]);
        assert!(ReproCase::from_json(&future)
            .unwrap_err()
            .contains("schema version 3"));
    }

    #[test]
    fn digest_tracks_population_content() {
        use relaxfault_faults::NodeFaults;
        let empty = NodeFaults::default();
        let other = NodeFaults {
            node_accelerated: true,
            ..Default::default()
        };
        assert_ne!(trial_digest(&empty), trial_digest(&other));
        assert_eq!(trial_digest(&empty), trial_digest(&NodeFaults::default()));
    }
}
