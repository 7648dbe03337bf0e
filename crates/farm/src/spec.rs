//! Job and matrix specifications for the figure farm.
//!
//! A [`JobSpec`] is the *static* identity of a job: its id and an
//! abstract scheduling cost. Jobs are independent: none reads another's
//! output, so a matrix is a plain list.
//! The runner derives everything durable from this identity — the per-job
//! digest and the whole-matrix digest stored in the `farm_state` ledger —
//! so that a resumed farm can prove it is continuing the *same* matrix
//! and reject a drifted one instead of silently re-running it.
//!
//! [`validate`] is the single admission gate: duplicate ids and unsafe id
//! characters are rejected at load time, because ids become file names.

use relaxfault_util::persist::{digest_debug, fold_digest};

/// Static identity of one farm job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique id; also the stem of the job's repro archive, so it must be
    /// filesystem-safe (`[A-Za-z0-9._-]`).
    pub id: String,
    /// Abstract scheduling weight; the dispatcher starts the most
    /// expensive queued job first (e.g. trial count); minimum 1.
    pub cost: u64,
}

impl JobSpec {
    /// A job with unit cost.
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            cost: 1,
        }
    }

    /// Sets the scheduling cost (clamped to at least 1).
    #[must_use]
    pub fn cost(mut self, cost: u64) -> Self {
        self.cost = cost.max(1);
        self
    }

    /// Digest of the job's static identity; any change to id or cost
    /// changes it, which is what resume uses to detect drift.
    pub fn digest(&self) -> u64 {
        digest_debug(&(&self.id, self.cost))
    }
}

/// Whole-matrix digest: per-job digests folded in sorted-id order, so the
/// digest is independent of declaration order but sensitive to every
/// job's identity.
pub fn spec_digest(specs: &[JobSpec]) -> u64 {
    let mut digests: Vec<(&str, u64)> = specs.iter().map(|s| (s.id.as_str(), s.digest())).collect();
    digests.sort_unstable_by(|a, b| a.0.cmp(b.0));
    digests
        .iter()
        .fold(0u64, |acc, (_, d)| fold_digest(acc, *d))
}

fn id_is_safe(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Validates a job matrix: unique filesystem-safe ids.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(specs: &[JobSpec]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for s in specs {
        if !id_is_safe(&s.id) {
            return Err(format!(
                "job id {:?} is not filesystem-safe ([A-Za-z0-9._-] only)",
                s.id
            ));
        }
        if !seen.insert(s.id.as_str()) {
            return Err(format!("duplicate job id {:?}", s.id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tracks_identity() {
        let a = JobSpec::new("a").cost(10);
        assert_eq!(a.digest(), JobSpec::new("a").cost(10).digest());
        assert_ne!(a.digest(), JobSpec::new("a").cost(11).digest());
        assert_ne!(a.digest(), JobSpec::new("b").cost(10).digest());
    }

    #[test]
    fn spec_digest_is_order_independent_but_content_sensitive() {
        let a = JobSpec::new("a");
        let b = JobSpec::new("b").cost(2);
        assert_eq!(
            spec_digest(&[a.clone(), b.clone()]),
            spec_digest(&[b.clone(), a.clone()])
        );
        assert_ne!(
            spec_digest(&[a.clone(), b]),
            spec_digest(&[a, JobSpec::new("b")])
        );
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let dup = vec![JobSpec::new("a"), JobSpec::new("a")];
        assert!(validate(&dup).unwrap_err().contains("duplicate"));

        let unsafe_id = vec![JobSpec::new("a/b")];
        assert!(validate(&unsafe_id)
            .unwrap_err()
            .contains("filesystem-safe"));
    }
}
