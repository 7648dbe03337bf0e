//! Durable farm state: the `farm_state` ledger.
//!
//! The ledger rides the workspace [`Persist`] contract (schema-versioned,
//! kind-tagged, atomic temp+rename writes), the same layer relcheck
//! repro cases and fleet checkpoints use. It carries no timestamp — a
//! resumed farm must converge to byte-identical state, so everything
//! written is a pure function of the matrix spec and the job outcomes.
//!
//! Layout under the farm directory (`<results>/farm/`):
//!
//! ```text
//! farm/farm_state.json        ledger: matrix digest + one record per job
//! farm/jobs/<id>.repro.json   archived ReproCase for a failed job
//! ```

use relaxfault_util::json::Value;
use relaxfault_util::persist::{self, Persist};
use std::path::{Path, PathBuf};

/// How a job ended up in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Not yet finished (a crash leaves these behind).
    Pending,
    /// Completed successfully.
    Ok,
    /// Ran and failed.
    Failed,
}

impl JobStatus {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
        }
    }

    /// Parses the wire string.
    ///
    /// # Errors
    ///
    /// Reports unknown status strings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pending" => Ok(JobStatus::Pending),
            "ok" => Ok(JobStatus::Ok),
            "failed" => Ok(JobStatus::Failed),
            other => Err(format!("unknown job status {other:?}")),
        }
    }
}

/// Whether a job came from the static matrix or was re-queued by the
/// auto-repair loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobRole {
    /// A matrix job.
    Job,
    /// A diagnostic repro job re-queued after a failure; never retried
    /// and excluded from the matrix drift check.
    Repro,
}

impl JobRole {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobRole::Job => "job",
            JobRole::Repro => "repro",
        }
    }

    /// Parses the wire string.
    ///
    /// # Errors
    ///
    /// Reports unknown role strings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "job" => Ok(JobRole::Job),
            "repro" => Ok(JobRole::Repro),
            other => Err(format!("unknown job role {other:?}")),
        }
    }
}

/// One job's record in the [`FarmLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Job id.
    pub id: String,
    /// The job's spec digest when recorded.
    pub digest: u64,
    /// Matrix job or diagnostic.
    pub role: JobRole,
    /// Last durable status.
    pub status: JobStatus,
    /// Failure reason; required when `status` is failed.
    pub reason: Option<String>,
    /// Path of the archived ReproCase, when the auto-repair loop
    /// captured one.
    pub repro: Option<String>,
}

/// The farm's durable progress ledger (Persist kind `farm_state`).
///
/// Saved atomically after every state transition, so a killed farm can
/// resume exactly where it died: `Ok` records are skipped (after a drift
/// check against the current spec), everything else re-runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmLedger {
    /// [`crate::spec::spec_digest`] of the matrix this ledger belongs to.
    pub spec_digest: u64,
    /// Per-job records, sorted by id.
    pub jobs: Vec<LedgerEntry>,
}

impl Persist for FarmLedger {
    const KIND: &'static str = "farm_state";
    const SCHEMA_VERSION: u64 = 2;

    fn to_json(&self) -> Value {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let mut fields = vec![
                    ("id", Value::from(j.id.as_str())),
                    ("digest", persist::hex(j.digest)),
                    ("role", Value::from(j.role.as_str())),
                    ("status", Value::from(j.status.as_str())),
                ];
                if let Some(reason) = &j.reason {
                    fields.push(("reason", Value::from(reason.as_str())));
                }
                if let Some(repro) = &j.repro {
                    fields.push(("repro", Value::from(repro.as_str())));
                }
                Value::object(fields)
            })
            .collect();
        Value::object([
            ("schema_version", Value::from(Self::SCHEMA_VERSION)),
            ("kind", Value::from(Self::KIND)),
            ("spec_digest", persist::hex(self.spec_digest)),
            ("jobs", Value::Array(jobs)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Self::check_header(v)?;
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("jobs must be an array")?
            .iter()
            .map(|j| {
                let str_field = |key: &str| -> Result<&str, String> {
                    j.get(key)
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("jobs[].{key} must be a string"))
                };
                let opt_field = |key: &str| j.get(key).and_then(Value::as_str).map(str::to_string);
                let entry = LedgerEntry {
                    id: str_field("id")?.to_string(),
                    digest: persist::parse_hex_field(j, "digest")?,
                    role: JobRole::parse(str_field("role")?)?,
                    status: JobStatus::parse(str_field("status")?)?,
                    reason: opt_field("reason"),
                    repro: opt_field("repro"),
                };
                if entry.status == JobStatus::Failed && entry.reason.is_none() {
                    return Err(format!("failed job {:?} carries no reason", entry.id));
                }
                Ok(entry)
            })
            .collect::<Result<Vec<_>, String>>()?;
        // `entry` and `record` binary-search by id, so an unsorted ledger
        // would resume with wrong lookups.
        if jobs.is_empty() {
            return Err("farm_state ledger records no jobs".into());
        }
        if !jobs.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("farm_state jobs are not strictly sorted by id".into());
        }
        Ok(FarmLedger {
            spec_digest: persist::parse_hex_field(v, "spec_digest")?,
            jobs,
        })
    }
}

impl FarmLedger {
    /// Upserts a record, keeping the vector sorted by id.
    pub fn record(&mut self, entry: LedgerEntry) {
        match self.jobs.binary_search_by(|e| e.id.cmp(&entry.id)) {
            Ok(i) => self.jobs[i] = entry,
            Err(i) => self.jobs.insert(i, entry),
        }
    }

    /// The record for `id`, if any.
    pub fn entry(&self, id: &str) -> Option<&LedgerEntry> {
        self.jobs
            .binary_search_by(|e| e.id.cmp(&id.to_string()))
            .ok()
            .map(|i| &self.jobs[i])
    }
}

/// The farm state directory under a results root.
fn farm_dir(results: &Path) -> PathBuf {
    results.join("farm")
}

/// The ledger path under a results root.
pub fn ledger_path(results: &Path) -> PathBuf {
    farm_dir(results).join("farm_state.json")
}

/// Where a failed job's captured ReproCase is archived.
pub fn repro_archive_path(results: &Path, id: &str) -> PathBuf {
    farm_dir(results)
        .join("jobs")
        .join(format!("{id}.repro.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, status: JobStatus) -> LedgerEntry {
        LedgerEntry {
            id: id.into(),
            digest: 7,
            role: JobRole::Job,
            status,
            reason: None,
            repro: None,
        }
    }

    #[test]
    fn ledger_round_trips_and_upserts_sorted() {
        let mut ledger = FarmLedger {
            spec_digest: u64::MAX,
            jobs: vec![],
        };
        for id in ["c", "a", "b"] {
            ledger.record(entry(id, JobStatus::Pending));
        }
        assert_eq!(
            ledger
                .jobs
                .iter()
                .map(|j| j.id.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        ledger.record(LedgerEntry {
            reason: Some("exit 3".into()),
            repro: Some("farm/jobs/b.repro.json".into()),
            ..entry("b", JobStatus::Failed)
        });
        assert_eq!(ledger.jobs.len(), 3);
        assert_eq!(ledger.entry("b").unwrap().status, JobStatus::Failed);
        let text = ledger.to_json().to_pretty();
        assert_eq!(
            text.matches("reason").count(),
            1,
            "optional fields stay absent"
        );
        assert_eq!(FarmLedger::parse_str(&text).unwrap(), ledger);
    }

    #[test]
    fn invariants_are_enforced_on_load() {
        let silent = FarmLedger {
            spec_digest: 1,
            jobs: vec![entry("a", JobStatus::Failed)],
        };
        let err = FarmLedger::parse_str(&silent.to_json().to_pretty()).unwrap_err();
        assert!(err.contains("no reason"), "{err}");

        for (jobs, why) in [
            (vec![], "no jobs"),
            (
                vec![entry("b", JobStatus::Ok), entry("a", JobStatus::Ok)],
                "not strictly sorted",
            ),
            (
                vec![entry("a", JobStatus::Ok), entry("a", JobStatus::Ok)],
                "not strictly sorted",
            ),
        ] {
            let ledger = FarmLedger {
                spec_digest: 1,
                jobs,
            };
            let err = FarmLedger::parse_str(&ledger.to_json().to_pretty()).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
