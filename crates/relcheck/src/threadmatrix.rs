//! The CI thread-matrix gate: one pinned scenario mix run at 1, 2 and 4
//! worker threads must produce bit-identical results.
//!
//! The comparison digests the *deterministic* engine outputs — every
//! counter field of [`ScenarioResult`] plus the canonical (sorted)
//! repair-bytes distribution. Timing histograms are exactly what this
//! gate must not read: their nanosecond sums differ run to run by
//! construction. The verdict JSON goes under `results/ci/` as a build
//! artifact, one digest per cell, so a failing cell is identifiable
//! from the artifact alone.

use relaxfault_relsim::engine::{run_scenarios, RunConfig, ScenarioResult};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::json::Value;
use relaxfault_util::obs;

/// One matrix cell's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCell {
    /// Worker threads.
    pub threads: usize,
    /// FNV-1a digest of the deterministic results.
    pub digest: u64,
}

/// The full matrix verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadMatrixVerdict {
    /// Trials per cell.
    pub trials: u64,
    /// Engine seed (identical in every cell).
    pub seed: u64,
    /// Every cell, in ascending thread order.
    pub cells: Vec<ThreadCell>,
    /// Whether every cell digested identically.
    pub pass: bool,
}

impl ThreadMatrixVerdict {
    /// JSON form (digests as 16-digit hex strings — JSON numbers are
    /// doubles and would round them).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(1u64)),
            ("kind", Value::from("thread_matrix_verdict")),
            ("trials", Value::from(self.trials)),
            ("seed", Value::from(self.seed)),
            (
                "cells",
                Value::Array(
                    self.cells
                        .iter()
                        .map(|c| {
                            Value::object([
                                ("threads", Value::from(c.threads as u64)),
                                ("digest", Value::from(format!("{:016x}", c.digest))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "verdict",
                Value::from(if self.pass { "pass" } else { "fail" }),
            ),
        ])
    }
}

/// Digests every deterministic field of the results: all counters, the
/// labels, and the repair-bytes samples in canonical sorted order
/// (bit-for-bit via `to_bits`).
fn digest_results(results: &mut [ScenarioResult]) -> u64 {
    use std::fmt::Write;
    let mut text = String::new();
    for r in results {
        let _ = write!(
            text,
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|",
            r.label,
            r.trials,
            r.faulty_nodes,
            r.fully_repaired_nodes,
            r.dues,
            r.transient_dues,
            r.sdcs,
            r.replacements,
            r.unrepaired_faults,
            r.permanent_faults,
            r.max_ways_seen,
            r.unrepaired_by_mode,
        );
        for s in r.repair_bytes.sorted_samples() {
            let _ = write!(text, "{:016x},", s.to_bits());
        }
        text.push(';');
    }
    obs::fnv1a(text.as_bytes())
}

/// Runs the matrix: the paper's Figure 10 arm mix (RelaxFault, FreeFault,
/// PPR on one shared fault population) at `trials` lifetimes per cell,
/// at each thread count, all on one seed.
pub fn run_thread_matrix(trials: u64, seed: u64) -> ThreadMatrixVerdict {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 4 }),
        base.with_mechanism(Mechanism::Ppr),
    ];
    let cells: Vec<ThreadCell> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let run = RunConfig {
                trials,
                seed,
                threads,
                chunk_size: 0,
            };
            ThreadCell {
                threads,
                digest: digest_results(&mut run_scenarios(&arms, &run)),
            }
        })
        .collect();
    let pass = cells.iter().all(|c| c.digest == cells[0].digest);
    ThreadMatrixVerdict {
        trials,
        seed,
        cells,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_passes_and_serializes() {
        let v = run_thread_matrix(600, 0xC1);
        assert!(v.pass, "thread matrix diverged: {:#?}", v.cells);
        assert_eq!(v.cells.len(), 3);
        let json = v.to_json().to_pretty();
        assert!(json.contains("\"verdict\": \"pass\""));
        assert!(json.contains("\"threads\": 4"));
        // The digest is a function of the results, so a different seed
        // digests differently.
        let other = run_thread_matrix(600, 0xC2);
        assert!(other.pass);
        assert_ne!(other.cells[0].digest, v.cells[0].digest);
    }
}
