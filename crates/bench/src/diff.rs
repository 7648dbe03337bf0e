//! Cross-run snapshot diffing: the engine behind the `obs_diff` binary.
//!
//! Loads two `results/obs/<run>.json` snapshots, aligns their counters,
//! gauges, histograms, and bench medians by name, and classifies every
//! delta:
//!
//! * **counters / gauges** — the simulators are deterministic in their
//!   seed, so any difference at equal config is drift and classifies as
//!   regressed (this is the CI determinism gate's signal);
//! * **`*_ns` histograms** (span timings) — counts must match exactly
//!   (they are deterministic), but durations jitter, so the mean (exact
//!   `sum/count`, not the bucket-quantized p50) is compared against a
//!   relative threshold;
//! * **benches** — each side carries its raw per-batch samples, so the
//!   comparison is statistical: medians whose distribution-free ~95%
//!   confidence intervals ([`median_ci`]) overlap are indistinguishable;
//!   disjoint intervals classify by direction once the relative change
//!   clears the threshold;
//! * metrics present on only one side are **added**/**removed** — worth
//!   reporting, never a failure.
//!
//! Only `regressed` deltas fail a run. Manifest disagreements that make
//! the comparison suspect (different config hash, seeds, profile) are
//! surfaced as warnings, not failures: comparing across configs is
//! sometimes exactly what you want.

use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::stats::median_ci;
use relaxfault_util::table::Table;
use std::collections::BTreeMap;

/// How one metric moved between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Statistically indistinguishable (or exactly equal).
    Unchanged,
    /// Better in the current run (faster timing).
    Improved,
    /// Worse in the current run, or deterministic drift.
    Regressed,
    /// Only in the current run.
    Added,
    /// Only in the baseline run.
    Removed,
}

impl Class {
    /// Short lower-case label used in tables and verdict JSON.
    pub fn label(self) -> &'static str {
        match self {
            Class::Unchanged => "unchanged",
            Class::Improved => "improved",
            Class::Regressed => "regressed",
            Class::Added => "added",
            Class::Removed => "removed",
        }
    }
}

/// One aligned metric's comparison outcome.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Section the metric came from: `counter`, `gauge`, `histogram`, or
    /// `bench`.
    pub kind: &'static str,
    /// The verdict.
    pub class: Class,
    /// Rendered baseline value.
    pub baseline: String,
    /// Rendered current value.
    pub current: String,
    /// Human explanation of the verdict.
    pub detail: String,
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone)]
pub struct Report {
    /// Baseline run name (from its manifest).
    pub baseline_run: String,
    /// Current run name (from its manifest).
    pub current_run: String,
    /// Every aligned metric, sorted by (kind, name).
    pub deltas: Vec<Delta>,
    /// Manifest disagreements that make the comparison suspect.
    pub warnings: Vec<String>,
}

impl Report {
    /// Number of regressed deltas — the failure signal.
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.class == Class::Regressed)
            .count()
    }

    /// Renders the changed deltas (everything except `unchanged`) as a
    /// fixed-width table, plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        let changed: Vec<&Delta> = self
            .deltas
            .iter()
            .filter(|d| d.class != Class::Unchanged)
            .collect();
        if !changed.is_empty() {
            let mut t = Table::new(&["metric", "kind", "verdict", "baseline", "current", "detail"]);
            for d in &changed {
                t.row(&[
                    d.name.clone(),
                    d.kind.to_string(),
                    d.class.label().to_string(),
                    d.baseline.clone(),
                    d.current.clone(),
                    d.detail.clone(),
                ]);
            }
            out.push_str(&t.render());
        }
        let unchanged = self.deltas.len() - changed.len();
        out.push_str(&format!(
            "{} vs {}: {} regressed, {} improved, {} unchanged, {} added/removed\n",
            self.baseline_run,
            self.current_run,
            self.regressions(),
            self.count(Class::Improved),
            unchanged,
            self.count(Class::Added) + self.count(Class::Removed),
        ));
        out
    }

    fn count(&self, class: Class) -> usize {
        self.deltas.iter().filter(|d| d.class == class).count()
    }

    /// Machine-readable verdict document, written beside CI logs.
    pub fn verdict_json(&self, timing_threshold: f64) -> Value {
        let deltas = self
            .deltas
            .iter()
            .filter(|d| d.class != Class::Unchanged)
            .map(|d| {
                Value::object([
                    ("name", Value::from(d.name.as_str())),
                    ("kind", Value::from(d.kind)),
                    ("class", Value::from(d.class.label())),
                    ("baseline", Value::from(d.baseline.as_str())),
                    ("current", Value::from(d.current.as_str())),
                    ("detail", Value::from(d.detail.as_str())),
                ])
            })
            .collect();
        Value::object([
            ("schema_version", Value::from(obs::SCHEMA_VERSION)),
            ("baseline_run", Value::from(self.baseline_run.as_str())),
            ("current_run", Value::from(self.current_run.as_str())),
            ("timing_threshold", Value::from(timing_threshold)),
            ("regressed", Value::from(self.regressions() as u64)),
            ("improved", Value::from(self.count(Class::Improved) as u64)),
            (
                "unchanged",
                Value::from(self.count(Class::Unchanged) as u64),
            ),
            ("added", Value::from(self.count(Class::Added) as u64)),
            ("removed", Value::from(self.count(Class::Removed) as u64)),
            ("deltas", Value::Array(deltas)),
            (
                "warnings",
                Value::Array(
                    self.warnings
                        .iter()
                        .map(|w| Value::from(w.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Collects one snapshot section (`counters`, `histograms`, …) as an
/// ordered name → value map; missing or non-object sections are empty.
fn section<'a>(doc: &'a Value, key: &str) -> BTreeMap<&'a str, &'a Value> {
    match doc.get(key) {
        Some(Value::Object(pairs)) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => BTreeMap::new(),
    }
}

fn manifest_str<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get("manifest")
        .and_then(|m| m.get(key))
        .and_then(Value::as_str)
        .unwrap_or("")
}

/// Walks both sides of an aligned section, producing `Added`/`Removed`
/// deltas for one-sided names and delegating matched pairs to `compare`.
fn align(
    kind: &'static str,
    base: &BTreeMap<&str, &Value>,
    cur: &BTreeMap<&str, &Value>,
    deltas: &mut Vec<Delta>,
    mut compare: impl FnMut(&str, &Value, &Value) -> Delta,
) {
    for (&name, &bv) in base {
        match cur.get(name) {
            Some(&cv) => deltas.push(compare(name, bv, cv)),
            None => deltas.push(Delta {
                name: name.to_string(),
                kind,
                class: Class::Removed,
                baseline: render_value(bv),
                current: "-".into(),
                detail: "only in baseline".into(),
            }),
        }
    }
    for (&name, &cv) in cur {
        if !base.contains_key(name) {
            deltas.push(Delta {
                name: name.to_string(),
                kind,
                class: Class::Added,
                baseline: "-".into(),
                current: render_value(cv),
                detail: "only in current".into(),
            });
        }
    }
}

fn render_value(v: &Value) -> String {
    match v.as_f64() {
        Some(n) => format_num(n),
        None => v
            .get("count")
            .and_then(Value::as_f64)
            .map(|c| format!("n={c}"))
            .unwrap_or_else(|| "?".into()),
    }
}

fn format_num(n: f64) -> String {
    if n == n.trunc() && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:.2}")
    }
}

fn rel_change(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base) / base
    }
}

/// Exact comparison for deterministic scalars (counters, gauges): any
/// difference is drift, classified as regressed.
fn compare_exact(kind: &'static str) -> impl FnMut(&str, &Value, &Value) -> Delta {
    move |name, bv, cv| {
        let (b, c) = (bv.as_f64(), cv.as_f64());
        let class = if b == c {
            Class::Unchanged
        } else {
            Class::Regressed
        };
        Delta {
            name: name.to_string(),
            kind,
            class,
            baseline: render_value(bv),
            current: render_value(cv),
            detail: if class == Class::Regressed {
                format!("deterministic {kind} drifted")
            } else {
                String::new()
            },
        }
    }
}

/// Compares one histogram. Timing histograms (`*_ns`) get exact count
/// checks plus a thresholded mean comparison; everything else is exact.
fn compare_histogram(name: &str, bv: &Value, cv: &Value, threshold: f64) -> Delta {
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let (b_count, c_count) = (num(bv, "count"), num(cv, "count"));
    let is_timing = name.ends_with("_ns");
    let mut delta = Delta {
        name: name.to_string(),
        kind: "histogram",
        class: Class::Unchanged,
        baseline: String::new(),
        current: String::new(),
        detail: String::new(),
    };
    if b_count != c_count {
        delta.class = Class::Regressed;
        delta.baseline = format!("n={}", format_num(b_count));
        delta.current = format!("n={}", format_num(c_count));
        delta.detail = "recorded count drifted".into();
        return delta;
    }
    if is_timing {
        // Durations jitter; compare the exact mean against the threshold.
        let b_mean = num(bv, "mean");
        let c_mean = num(cv, "mean");
        let change = rel_change(b_mean, c_mean);
        delta.baseline = format!("{}ns", format_num(b_mean));
        delta.current = format!("{}ns", format_num(c_mean));
        if change.abs() > threshold {
            delta.class = if change > 0.0 {
                Class::Regressed
            } else {
                Class::Improved
            };
            delta.detail = format!(
                "mean {:+.1}% (threshold {:.0}%)",
                change * 100.0,
                threshold * 100.0
            );
        }
    } else {
        let (b_sum, c_sum) = (num(bv, "sum"), num(cv, "sum"));
        delta.baseline = format!("sum={}", format_num(b_sum));
        delta.current = format!("sum={}", format_num(c_sum));
        if b_sum != c_sum {
            delta.class = Class::Regressed;
            delta.detail = "deterministic histogram sum drifted".into();
        }
    }
    delta
}

/// Compares one bench: medians whose ~95% CIs overlap are unchanged;
/// disjoint intervals classify by direction once the relative change
/// clears the threshold.
fn compare_bench(name: &str, bv: &Value, cv: &Value, threshold: f64) -> Delta {
    let batches = |v: &Value| -> Vec<f64> {
        v.get("batch_ns")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    };
    let median = |v: &Value| v.get("median_ns").and_then(Value::as_f64).unwrap_or(0.0);
    let (b_med, c_med) = (median(bv), median(cv));
    let (b_batch, c_batch) = (batches(bv), batches(cv));
    let mut delta = Delta {
        name: name.to_string(),
        kind: "bench",
        class: Class::Unchanged,
        baseline: format!("{}ns", format_num(b_med)),
        current: format!("{}ns", format_num(c_med)),
        detail: String::new(),
    };
    if b_batch.is_empty() || c_batch.is_empty() {
        delta.detail = "no batch samples; medians not compared".into();
        return delta;
    }
    if b_batch.iter().chain(&c_batch).any(|x| !x.is_finite()) {
        // A NaN/inf sample marks a corrupt snapshot; report it instead of
        // letting the CI math panic on an unordered comparison.
        delta.detail = "non-finite batch samples; medians not compared".into();
        return delta;
    }
    let (b_lo, b_hi) = median_ci(&b_batch);
    let (c_lo, c_hi) = median_ci(&c_batch);
    let disjoint = b_hi < c_lo || c_hi < b_lo;
    let change = rel_change(b_med, c_med);
    if disjoint && change.abs() > threshold {
        delta.class = if change > 0.0 {
            Class::Regressed
        } else {
            Class::Improved
        };
        delta.detail = format!(
            "median {:+.1}%, CIs disjoint ([{:.0}, {:.0}] vs [{:.0}, {:.0}])",
            change * 100.0,
            b_lo,
            b_hi,
            c_lo,
            c_hi
        );
    }
    delta
}

/// Diffs two parsed snapshots. `timing_threshold` is the relative change
/// (e.g. `0.2` = 20%) below which timing deltas are noise.
///
/// # Errors
///
/// Returns a message when the documents are not comparable snapshots
/// (missing sections, mismatched `schema_version`).
pub fn diff_snapshots(
    baseline: &Value,
    current: &Value,
    timing_threshold: f64,
) -> Result<Report, String> {
    let version = |doc: &Value, side: &str| {
        doc.get("schema_version")
            .and_then(Value::as_f64)
            .ok_or(format!("{side} snapshot has no schema_version"))
    };
    let bv = version(baseline, "baseline")?;
    let cv = version(current, "current")?;
    if bv != cv {
        return Err(format!(
            "schema_version mismatch: baseline v{bv} vs current v{cv}"
        ));
    }
    for (doc, side) in [(baseline, "baseline"), (current, "current")] {
        if !matches!(doc.get("counters"), Some(Value::Object(_))) {
            return Err(format!("{side} snapshot has no counters section"));
        }
    }

    let mut warnings = Vec::new();
    for key in ["profile", "config_hash"] {
        let (b, c) = (manifest_str(baseline, key), manifest_str(current, key));
        if b != c {
            warnings.push(format!("manifest {key} differs: {b:?} vs {c:?}"));
        }
    }
    for key in ["seeds", "threads"] {
        let get = |doc: &Value| {
            doc.get("manifest")
                .and_then(|m| m.get(key))
                .map(|v| v.to_pretty())
        };
        let (b, c) = (get(baseline), get(current));
        if b != c {
            warnings.push(format!(
                "manifest {key} differs: {} vs {}",
                b.unwrap_or_else(|| "absent".into()),
                c.unwrap_or_else(|| "absent".into()),
            ));
        }
    }

    let mut deltas = Vec::new();
    align(
        "counter",
        &section(baseline, "counters"),
        &section(current, "counters"),
        &mut deltas,
        compare_exact("counter"),
    );
    align(
        "gauge",
        &section(baseline, "gauges"),
        &section(current, "gauges"),
        &mut deltas,
        compare_exact("gauge"),
    );
    align(
        "histogram",
        &section(baseline, "histograms"),
        &section(current, "histograms"),
        &mut deltas,
        |name, b, c| compare_histogram(name, b, c, timing_threshold),
    );
    align(
        "bench",
        &section(baseline, "benches"),
        &section(current, "benches"),
        &mut deltas,
        |name, b, c| compare_bench(name, b, c, timing_threshold),
    );

    Ok(Report {
        baseline_run: manifest_str(baseline, "run").to_string(),
        current_run: manifest_str(current, "run").to_string(),
        deltas,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Value {
        Value::parse(
            r#"{
              "schema_version": 2,
              "manifest": {"run": "a", "git_sha": "abc", "profile": "release",
                           "threads": 4, "seeds": [2016], "config_hash": "00000000deadbeef",
                           "sim_runs": 1, "wall_clock_ms": 1000},
              "counters": {"relsim.trial_evals": 800, "relsim.repairs": 123},
              "gauges": {"perfsim.llc.locked_lines": 64},
              "histograms": {
                "relsim.trial_ns": {"count": 200, "sum": 200000, "mean": 1000.0,
                                     "p50": 959, "p95": 1983, "p99": 1983, "max": 2100},
                "core.plan_sets": {"count": 50, "sum": 4100, "mean": 82.0,
                                    "p50": 79, "p95": 95, "p99": 95, "max": 101}
              },
              "benches": {
                "node_eval": {"median_ns": 100.0, "iters": 1000,
                               "batch_ns": [98.0, 99.0, 100.0, 100.5, 101.0, 101.5, 102.0]}
              },
              "dropped_events": 0
            }"#,
        )
        .expect("fixture parses")
    }

    /// Replaces the number at `section.name.key` (or `section.name` for
    /// scalars) in a fixture.
    fn perturb(doc: &Value, path: &[&str], new: Value) -> Value {
        fn walk(v: &Value, path: &[&str], new: &Value) -> Value {
            match v {
                Value::Object(pairs) => Value::Object(
                    pairs
                        .iter()
                        .map(|(k, val)| {
                            if k == path[0] {
                                if path.len() == 1 {
                                    (k.clone(), new.clone())
                                } else {
                                    (k.clone(), walk(val, &path[1..], new))
                                }
                            } else {
                                (k.clone(), val.clone())
                            }
                        })
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        walk(doc, path, &new)
    }

    #[test]
    fn identical_snapshots_have_zero_regressions() {
        let a = fixture();
        let r = diff_snapshots(&a, &a, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        assert!(r.warnings.is_empty());
        assert!(r.deltas.iter().all(|d| d.class == Class::Unchanged));
        assert!(r.render().contains("0 regressed"));
    }

    #[test]
    fn perturbed_counter_is_flagged_as_regression() {
        let a = fixture();
        let b = perturb(&a, &["counters", "relsim.repairs"], Value::from(124u64));
        let r = diff_snapshots(&a, &b, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 1);
        let d = r
            .deltas
            .iter()
            .find(|d| d.class == Class::Regressed)
            .expect("one regression");
        assert_eq!(d.name, "relsim.repairs");
        assert_eq!(d.kind, "counter");
        assert!(r.render().contains("relsim.repairs"));
        let verdict = r.verdict_json(0.2);
        assert_eq!(verdict.get("regressed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn timing_mean_within_threshold_is_noise_beyond_is_regression() {
        let a = fixture();
        // +10% mean at 20% threshold: unchanged.
        let mild = perturb(
            &a,
            &["histograms", "relsim.trial_ns", "mean"],
            Value::from(1100.0),
        );
        let r = diff_snapshots(&a, &mild, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        // +50%: regression; -50%: improvement.
        let slow = perturb(
            &a,
            &["histograms", "relsim.trial_ns", "mean"],
            Value::from(1500.0),
        );
        let r = diff_snapshots(&a, &slow, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 1);
        let fast = perturb(
            &a,
            &["histograms", "relsim.trial_ns", "mean"],
            Value::from(500.0),
        );
        let r = diff_snapshots(&a, &fast, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        assert!(r.deltas.iter().any(|d| d.class == Class::Improved));
    }

    #[test]
    fn non_timing_histogram_is_exact() {
        let a = fixture();
        let b = perturb(
            &a,
            &["histograms", "core.plan_sets", "sum"],
            Value::from(4200u64),
        );
        let r = diff_snapshots(&a, &b, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 1);
        assert!(r
            .deltas
            .iter()
            .any(|d| d.name == "core.plan_sets" && d.class == Class::Regressed));
    }

    #[test]
    fn histogram_count_drift_is_regression_even_for_timings() {
        let a = fixture();
        let b = perturb(
            &a,
            &["histograms", "relsim.trial_ns", "count"],
            Value::from(201u64),
        );
        let r = diff_snapshots(&a, &b, 10.0).expect("diff runs");
        assert_eq!(r.regressions(), 1);
    }

    #[test]
    fn bench_overlapping_cis_are_unchanged_disjoint_regress() {
        let a = fixture();
        // Slightly shifted batches: CIs overlap, no verdict.
        let near = perturb(
            &a,
            &["benches", "node_eval", "batch_ns"],
            Value::Array(
                [98.5, 99.5, 100.2, 100.8, 101.2, 101.8, 102.5]
                    .iter()
                    .map(|&x| Value::from(x))
                    .collect(),
            ),
        );
        let r = diff_snapshots(&a, &near, 0.1).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        // Far slower batches: disjoint CIs and a big relative change.
        let slow = perturb(
            &perturb(
                &a,
                &["benches", "node_eval", "batch_ns"],
                Value::Array(
                    [198.0, 199.0, 200.0, 200.5, 201.0, 201.5, 202.0]
                        .iter()
                        .map(|&x| Value::from(x))
                        .collect(),
                ),
            ),
            &["benches", "node_eval", "median_ns"],
            Value::from(200.5),
        );
        let r = diff_snapshots(&a, &slow, 0.1).expect("diff runs");
        assert_eq!(r.regressions(), 1);
        let d = &r.deltas.iter().find(|d| d.kind == "bench").unwrap();
        assert_eq!(d.class, Class::Regressed);
        assert!(d.detail.contains("CIs disjoint"));
    }

    #[test]
    fn added_and_removed_metrics_do_not_fail() {
        let a = fixture();
        let b = perturb(&a, &["counters"], {
            Value::object([("relsim.trial_evals", Value::from(800u64))])
        });
        // `relsim.repairs` exists only in baseline now.
        let r = diff_snapshots(&a, &b, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        assert!(r
            .deltas
            .iter()
            .any(|d| d.name == "relsim.repairs" && d.class == Class::Removed));
        let r = diff_snapshots(&b, &a, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        assert!(r
            .deltas
            .iter()
            .any(|d| d.name == "relsim.repairs" && d.class == Class::Added));
    }

    #[test]
    fn mismatched_schema_versions_are_an_error() {
        let a = fixture();
        let b = perturb(&a, &["schema_version"], Value::from(1u64));
        let err = diff_snapshots(&a, &b, 0.2).unwrap_err();
        assert!(err.contains("schema_version"));
    }

    #[test]
    fn differing_manifests_warn_but_do_not_fail() {
        let a = fixture();
        let b = perturb(
            &a,
            &["manifest", "config_hash"],
            Value::from("00000000cafebabe"),
        );
        let r = diff_snapshots(&a, &b, 0.2).expect("diff runs");
        assert_eq!(r.regressions(), 0);
        assert!(r.warnings.iter().any(|w| w.contains("config_hash")));
    }
}
