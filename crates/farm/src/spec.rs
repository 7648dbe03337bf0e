//! Job and matrix specifications for the figure farm.
//!
//! A [`JobSpec`] is the *static* identity of a job: its id, the ids it
//! depends on, and an abstract scheduling cost.
//! The runner derives everything durable from this identity — the per-job
//! digest stored in manifests and the whole-matrix digest stored in the
//! `farm_state` ledger — so that a resumed farm can prove it is continuing
//! the *same* matrix and reject a drifted one instead of silently
//! re-running it.
//!
//! [`validate`] is the single admission gate: duplicate ids, unknown
//! dependencies, unsafe id characters, and dependency cycles are all
//! rejected at load time, and a cycle error names the offending edge
//! (`"a -> b"`) so the spec author knows exactly which arrow to cut.

use relaxfault_util::persist::{digest_debug, fold_digest};

/// Static identity of one farm job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique id; also the manifest file stem, so it must be
    /// filesystem-safe (`[A-Za-z0-9._-]`).
    pub id: String,
    /// Ids of jobs that must complete successfully first.
    pub deps: Vec<String>,
    /// Abstract scheduling weight; the dispatcher starts the most
    /// expensive ready job first (e.g. trial count); minimum 1.
    pub cost: u64,
}

impl JobSpec {
    /// A job with no deps and unit cost.
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            deps: Vec::new(),
            cost: 1,
        }
    }

    /// Adds a dependency edge.
    #[must_use]
    pub fn dep(mut self, id: impl Into<String>) -> Self {
        self.deps.push(id.into());
        self
    }

    /// Sets the scheduling cost (clamped to at least 1).
    #[must_use]
    pub fn cost(mut self, cost: u64) -> Self {
        self.cost = cost.max(1);
        self
    }

    /// Digest of the job's static identity; any change to id, deps or
    /// cost changes it, which is what resume uses to detect drift.
    pub fn digest(&self) -> u64 {
        digest_debug(&(&self.id, &self.deps, self.cost))
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

/// Validates a job matrix: unique filesystem-safe ids, known deps, no
/// self-edges, and no cycles.
///
/// # Errors
///
/// Returns the first violation found; a cycle error names the offending
/// edge, e.g. `"dependency cycle: b -> a"`.
pub fn validate(specs: &[JobSpec]) -> Result<(), String> {
    let mut index = std::collections::HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        if !id_is_safe(&s.id) {
            return Err(format!(
                "job id {:?} is not filesystem-safe ([A-Za-z0-9._-] only)",
                s.id
            ));
        }
        if index.insert(s.id.as_str(), i).is_some() {
            return Err(format!("duplicate job id {:?}", s.id));
        }
    }
    for s in specs {
        for d in &s.deps {
            if d == &s.id {
                return Err(format!("job {:?} depends on itself", s.id));
            }
            if !index.contains_key(d.as_str()) {
                return Err(format!("job {:?} depends on unknown job {:?}", s.id, d));
            }
        }
    }
    // DFS cycle check over dep edges, naming the edge that closes the
    // first cycle found (deterministic: jobs and deps in declared order).
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    fn visit(
        u: usize,
        specs: &[JobSpec],
        index: &std::collections::HashMap<&str, usize>,
        marks: &mut [Mark],
    ) -> Result<(), String> {
        marks[u] = Mark::Gray;
        for d in &specs[u].deps {
            let v = index[d.as_str()];
            match marks[v] {
                Mark::Gray => {
                    return Err(format!(
                        "dependency cycle: {} -> {}",
                        specs[u].id, specs[v].id
                    ))
                }
                Mark::White => visit(v, specs, index, marks)?,
                Mark::Black => {}
            }
        }
        marks[u] = Mark::Black;
        Ok(())
    }
    let mut marks = vec![Mark::White; specs.len()];
    for u in 0..specs.len() {
        if marks[u] == Mark::White {
            visit(u, specs, &index, &mut marks)?;
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
        assert_ne!(a.digest(), JobSpec::new("a").cost(10).dep("b").digest());
    }

    #[test]
    fn spec_digest_is_order_independent_but_content_sensitive() {
        let a = JobSpec::new("a");
        let b = JobSpec::new("b").dep("a");
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

        let unknown = vec![JobSpec::new("a").dep("ghost")];
        assert!(validate(&unknown).unwrap_err().contains("ghost"));

        let selfdep = vec![JobSpec::new("a").dep("a")];
        assert!(validate(&selfdep).unwrap_err().contains("itself"));

        let unsafe_id = vec![JobSpec::new("a/b")];
        assert!(validate(&unsafe_id)
            .unwrap_err()
            .contains("filesystem-safe"));
    }

    #[test]
    fn cycle_error_names_the_offending_edge() {
        let specs = vec![
            JobSpec::new("a").dep("b"),
            JobSpec::new("b").dep("c"),
            JobSpec::new("c").dep("a"),
        ];
        let err = validate(&specs).unwrap_err();
        assert!(err.contains("dependency cycle"), "{err}");
        assert!(err.contains("c -> a"), "{err}");

        let two = vec![JobSpec::new("x").dep("y"), JobSpec::new("y").dep("x")];
        let err = validate(&two).unwrap_err();
        assert!(err.contains("y -> x"), "{err}");
    }

    #[test]
    fn diamond_is_acyclic() {
        let specs = vec![
            JobSpec::new("root"),
            JobSpec::new("l").dep("root"),
            JobSpec::new("r").dep("root"),
            JobSpec::new("join").dep("l").dep("r"),
        ];
        assert!(validate(&specs).is_ok());
    }
}
