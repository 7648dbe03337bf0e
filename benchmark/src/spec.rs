//! `BENCHMARK.json`: which metrics the benchmark reports, their units,
//! directions and regression bounds.

use relaxfault_util::json::Value;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry needs a string {f:?}"))
            };
            let better = field("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!(
                    "BENCHMARK.json: better must be higher or lower, not {better:?}"
                ));
            }
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parses the text of `BENCHMARK.json`.
///
/// # Errors
///
/// Reports malformed JSON and missing or mistyped fields.
pub fn parse(text: &str) -> Result<BenchSpec, String> {
    let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = metrics(&doc, "end_to_end")?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!(
            "BENCHMARK.json: end-to-end metric {} has no bound",
            m.name
        ));
    }
    Ok(BenchSpec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        end_to_end,
        per_layer: metrics(&doc, "per_layer")?,
    })
}
