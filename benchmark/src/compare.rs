//! `compare`: judges a change against its parent from two sets of result
//! files, one verdict per (end-to-end metric, workload).
//!
//! The rules: at least ten pairs of parent and change runs; a gain needs
//! the change to win nine tenths of the pairs and its median to beat the
//! parent's by more than the parent's interquartile range; a regression is
//! a median worse than the parent's by more than the metric's bound; and a
//! metric whose parent spread exceeds its bound is unresolved unless every
//! change run beats every parent run.

use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::{median, quartiles};
use relaxfault_util::json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Minimum parent/change pairs for any verdict.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the gain rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Too few pairs, or too noisy to judge against the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `parent` and `child` are paired by index (runs
/// alternate between the two commits).
pub fn judge(parent: &[f64], child: &[f64], m: &MetricSpec) -> (Verdict, String) {
    let pairs = parent.len().min(child.len());
    if pairs < MIN_PAIRS {
        return (
            Verdict::Unresolved,
            format!("{pairs} pairs, need {MIN_PAIRS}"),
        );
    }
    let sign = if m.higher_is_better { 1.0 } else { -1.0 };
    let bound = m.bound.unwrap_or(0.0);
    let (mp, mc) = (median(parent), median(child));
    let [q1, _, q3] = quartiles(parent);
    let iqr = q3 - q1;
    let spread = iqr / mp.abs();
    let gain = sign * (mc - mp);
    let wins = parent
        .iter()
        .zip(child)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let detail = format!(
        "median {mp:.6} -> {mc:.6} ({:+.2}%), parent spread {:.2}%, change won {wins}/{pairs}",
        (mc - mp) / mp.abs() * 100.0,
        spread * 100.0
    );
    let best_parent = parent.iter().map(|p| sign * p).fold(f64::MIN, f64::max);
    let worst_child = child.iter().map(|c| sign * c).fold(f64::MAX, f64::min);
    if spread > bound {
        return if worst_child > best_parent {
            (Verdict::Improved, detail)
        } else {
            (
                Verdict::Unresolved,
                format!("{detail}; spread exceeds bound {bound}"),
            )
        };
    }
    if wins * 10 >= pairs * 9 && gain > iqr {
        (Verdict::Improved, detail)
    } else if -gain > bound * mp.abs() {
        (Verdict::Regressed, detail)
    } else {
        (Verdict::Unchanged, detail)
    }
}

/// One untraced run read back from its result file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Start time, ms since the Unix epoch.
    pub started_ms: u64,
    /// Reported metric values by name.
    pub values: BTreeMap<String, f64>,
}

/// Reads every untraced result file in `dir`.
///
/// # Errors
///
/// Reports unreadable directories and malformed result files.
pub fn load_runs(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("kind").and_then(Value::as_str) != Some(crate::RESULT_KIND)
            || doc.get("trace").and_then(Value::as_bool) != Some(false)
        {
            continue;
        }
        let num = |k: &str| {
            doc.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: missing {k}", path.display()))
        };
        let mut values = BTreeMap::new();
        if let Some(Value::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    values.insert(name.clone(), v);
                }
            }
        }
        runs.push(RunRecord {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{}: missing workload", path.display()))?
                .to_string(),
            seed: num("seed")? as u64,
            started_ms: num("started_unix_ms")? as u64,
            values,
        });
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Medians, spread and win count behind it.
    pub detail: String,
}

/// Compares parent runs with change runs for every end-to-end metric of
/// `spec` and every workload present in both sets. Runs pair up in
/// (seed, start time) order.
pub fn compare(parent: &[RunRecord], child: &[RunRecord], spec: &BenchSpec) -> Vec<Comparison> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let series = |runs: &[RunRecord], w: &str, metric: &str| -> Vec<f64> {
        let mut rs: Vec<&RunRecord> = runs.iter().filter(|r| r.workload == w).collect();
        rs.sort_by_key(|r| (r.seed, r.started_ms));
        rs.iter()
            .filter_map(|r| r.values.get(metric).copied())
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for m in &spec.end_to_end {
            let (verdict, detail) =
                judge(&series(parent, w, &m.name), &series(child, w, &m.name), m);
            rows.push(Comparison {
                workload: w.to_string(),
                metric: m.name.clone(),
                verdict,
                detail,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    /// Ten values around `center` with a ±1% deterministic wobble.
    fn noisy(center: f64, phase: usize) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * (((i + phase) % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        let (v, _) = judge(&noisy(100.0, 0), &noisy(100.0, 2), &spec(true, 0.10));
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_improved_in_either_direction() {
        let (v, _) = judge(&noisy(100.0, 0), &noisy(130.0, 1), &spec(true, 0.10));
        assert_eq!(v, Verdict::Improved);
        let (v, _) = judge(&noisy(100.0, 0), &noisy(70.0, 1), &spec(false, 0.10));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        let (v, _) = judge(&noisy(100.0, 0), &noisy(80.0, 3), &spec(true, 0.10));
        assert_eq!(v, Verdict::Regressed);
        let (v, _) = judge(&noisy(1.0, 0), &noisy(1.3, 3), &spec(false, 0.25));
        assert_eq!(v, Verdict::Regressed);
        // Worse, but within the bound: unchanged.
        let (v, _) = judge(&noisy(100.0, 0), &noisy(95.0, 3), &spec(true, 0.10));
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn small_gain_without_nine_in_ten_wins_is_not_improved() {
        // +3% but the parent's spread is wider than the gain.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + (i % 5) as f64 * 2.0).collect();
        let child: Vec<f64> = parent.iter().rev().map(|p| p + 3.0).collect();
        let (v, _) = judge(&parent, &child, &spec(true, 0.10));
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn too_few_pairs_or_too_much_spread_is_unresolved() {
        let (v, why) = judge(
            &noisy(100.0, 0)[..9],
            &noisy(100.0, 0)[..9],
            &spec(true, 0.10),
        );
        assert_eq!(v, Verdict::Unresolved);
        assert!(why.contains("9 pairs"));
        let wild: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let (v, _) = judge(&wild, &wild, &spec(true, 0.10));
        assert_eq!(v, Verdict::Unresolved);
        // Noisy, yet every change run beats every parent run.
        let child: Vec<f64> = wild.iter().map(|_| 400.0).collect();
        let (v, _) = judge(&wild, &child, &spec(true, 0.10));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn runs_pair_up_by_seed_per_workload() {
        let run = |w: &str, seed: u64, v: f64| RunRecord {
            workload: w.into(),
            seed,
            started_ms: seed,
            values: [("m".to_string(), v)].into_iter().collect(),
        };
        let parent: Vec<RunRecord> = (0..10).map(|s| run("a", s, 100.0 + s as f64)).collect();
        let child: Vec<RunRecord> = (0..10)
            .rev()
            .map(|s| run("a", s, 120.0 + s as f64))
            .collect();
        let spec = BenchSpec {
            run_seconds: 1.0,
            end_to_end: vec![spec(true, 0.10)],
            per_layer: Vec::new(),
        };
        let rows = compare(&parent, &child, &spec);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Improved, "{}", rows[0].detail);
        assert!(rows[0].detail.contains("won 10/10"));
    }
}
