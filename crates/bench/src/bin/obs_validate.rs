//! CI gate for observability artifacts: scans *every* file under the
//! given directory (default `results/obs`) with `util::json`'s strict
//! parser. Snapshots (`*.json`) must carry the required top-level keys,
//! the shared `schema_version`, an embedded manifest, and at least one
//! populated counter or histogram; exported traces (`*.trace.json`) must
//! be Chrome trace-event arrays (`ph: "X"`, `ts` monotone per track).
//! Mixed `schema_version`s across the scanned snapshots fail the whole
//! directory, even if each file is self-consistent. Relcheck repro cases
//! (top-level `kind: "relcheck_repro"`, e.g. under `results/relcheck`),
//! fleet checkpoints (`kind: "fleet_checkpoint"`, e.g. a `--ckpt-dir`),
//! crash dumps (`kind: "crash_dump"`, written by the panic hook and
//! the injected-crash path), farm job manifests (`kind: "farm_job"`,
//! under `<results>/farm/jobs/`), and farm ledgers (`kind: "farm_state"`)
//! are validated against their own schemas via the strict [`ReproCase`],
//! [`FleetCheckpoint`], [`CrashDump`], [`JobManifest`], and
//! [`FarmLedger`] deserializers; each kind gets its own mixed-version
//! check, separate from the obs one. Folded profiler output (`*.folded`) must be
//! non-empty `frame[;frame...] count` lines. Perf-history ledgers
//! (`*.jsonl`, e.g. `results/history/ledger.jsonl`) must strict-parse
//! line by line (every record the `history_entry` kind with a verified
//! content digest), end with a newline (a missing one means a truncated
//! append and fails the file), carry exactly one schema_version across
//! all lines, and satisfy the `util::history` ledger invariants.
//! Prometheus text (`*.prom`) and fleet progress documents
//! (`*.progress.json`) are skipped. Exits non-zero on any violation.

use relaxfault_farm::{FarmLedger, JobManifest, JobStatus};
use relaxfault_relsim::fleet::{FleetCheckpoint, FLEET_CHECKPOINT_KIND};
use relaxfault_relsim::repro::{ReproCase, REPRO_KIND};
use relaxfault_util::crashdump::{self, CrashDump};
use relaxfault_util::history;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::Persist;
use std::collections::BTreeSet;
use std::collections::HashMap;

const REQUIRED_KEYS: [&str; 7] = [
    "schema_version",
    "manifest",
    "counters",
    "gauges",
    "histograms",
    "benches",
    "dropped_events",
];

fn object_len(doc: &Value, key: &str) -> Result<usize, String> {
    match doc.get(key) {
        Some(Value::Object(pairs)) => Ok(pairs.len()),
        _ => Err(format!("`{key}` is not an object")),
    }
}

/// Whether a parsed document is a relcheck repro case rather than an obs
/// snapshot.
fn is_repro(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some(REPRO_KIND)
}

/// Whether a parsed document is a fleet checkpoint.
fn is_fleet_checkpoint(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some(FLEET_CHECKPOINT_KIND)
}

/// Whether a parsed document is a crash dump.
fn is_crash_dump(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some(crashdump::KIND)
}

/// Whether a parsed document is a farm job manifest.
fn is_farm_job(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some(JobManifest::KIND)
}

/// Whether a parsed document is a farm_state ledger.
fn is_farm_state(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some(FarmLedger::KIND)
}

/// Validates one farm job manifest via the strict deserializer, plus: the
/// manifest's id must match its file stem (the farm writes
/// `farm/jobs/<id>.json`), and a failed manifest must carry a reason.
/// Returns the schema_version for the per-kind mixed-version check.
fn validate_farm_job(doc: &Value, path: &std::path::Path) -> Result<u64, String> {
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")? as u64;
    let manifest = JobManifest::from_json(doc)?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if manifest.id != stem {
        return Err(format!(
            "manifest id {:?} does not match file stem {stem:?}",
            manifest.id
        ));
    }
    if manifest.status == JobStatus::Failed && manifest.reason.is_none() {
        return Err("failed manifest carries no reason".into());
    }
    Ok(version)
}

/// Validates one farm_state ledger via the strict deserializer, plus: it
/// must record at least one job, sorted by id (the binary-search upsert
/// contract). Returns the schema_version for the mixed-version check.
fn validate_farm_state(doc: &Value) -> Result<u64, String> {
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")? as u64;
    let ledger = FarmLedger::from_json(doc)?;
    if ledger.jobs.is_empty() {
        return Err("farm_state ledger records no jobs".into());
    }
    if !ledger.jobs.windows(2).all(|w| w[0].id < w[1].id) {
        return Err("farm_state jobs are not strictly sorted by id".into());
    }
    Ok(version)
}

/// Validates one crash dump via the strict deserializer (which checks the
/// run name, non-empty reason, snapshot sections, trace-event array, and the
/// shape of any embedded checkpoint), plus: an embedded checkpoint must
/// itself pass the [`FleetCheckpoint`] deserializer, so `relcheck replay`
/// is guaranteed to accept anything this gate passed. Returns the dump's
/// schema_version for the per-kind mixed-version check.
fn validate_crash_dump(doc: &Value) -> Result<u64, String> {
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")? as u64;
    let dump = CrashDump::from_json(doc)?;
    if let Some(ckpt) = &dump.checkpoint {
        FleetCheckpoint::from_json(ckpt).map_err(|e| format!("embedded checkpoint: {e}"))?;
    }
    Ok(version)
}

/// Validates one folded-stack profile: non-empty, every line of the form
/// `frame[;frame...] count` with a positive integer count.
fn validate_folded(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    if text.trim().is_empty() {
        return Err("folded profile is empty".into());
    }
    for (i, line) in text.lines().enumerate() {
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or(format!("line {}: no `stack count` separator", i + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty stack frame", i + 1));
        }
        let n: u64 = count
            .parse()
            .map_err(|_| format!("line {}: count {count:?} is not an integer", i + 1))?;
        if n == 0 {
            return Err(format!("line {}: zero sample count", i + 1));
        }
    }
    Ok(())
}

/// Validates one perf-history ledger: strict line-by-line decode
/// (truncation and corrupted content digests rejected by
/// [`history::Ledger::parse_entries`]), a single schema_version across
/// every line (a mixed-version ledger means two incompatible writers
/// interleaved and is rejected even though each line may be individually
/// decodable), and the structural invariants `relcheck ledger` enforces.
fn validate_ledger(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let entries = history::Ledger::parse_entries(&text)?;
    if entries.is_empty() {
        return Err("ledger is empty".into());
    }
    let mut versions: BTreeSet<u64> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let doc = Value::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let version = doc
            .get("schema_version")
            .and_then(Value::as_f64)
            .ok_or(format!("line {}: missing schema_version", i + 1))? as u64;
        versions.insert(version);
    }
    if versions.len() > 1 {
        return Err(format!("mixed schema_versions within ledger: {versions:?}"));
    }
    history::check_invariants(&history::Ledger {
        path: path.to_path_buf(),
        entries,
    })
}

/// Validates one fleet checkpoint via the strict deserializer, returning
/// its schema_version for the per-kind mixed-version check.
fn validate_fleet_checkpoint(doc: &Value) -> Result<u64, String> {
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")? as u64;
    let ckpt = FleetCheckpoint::from_json(doc)?;
    if ckpt.scenarios.is_empty() {
        return Err("fleet checkpoint carries no scenario arms".into());
    }
    Ok(version)
}

/// Validates one relcheck repro case: the strict deserializer accepts it
/// and the recorded reason is non-empty.
fn validate_repro(doc: &Value) -> Result<(), String> {
    let case = ReproCase::from_json(doc)?;
    if case.reason.is_empty() {
        return Err("repro case has an empty reason".into());
    }
    if case.scenarios.is_empty() && case.prop_choices.is_empty() {
        return Err("repro case carries neither scenarios nor a choice stream".into());
    }
    Ok(())
}

/// Validates one metrics snapshot, returning its schema_version.
fn validate_snapshot(doc: &Value, path: &std::path::Path) -> Result<u64, String> {
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("missing top-level key `{key}`"));
        }
    }
    let version = doc.get("schema_version").and_then(Value::as_f64);
    if version != Some(obs::SCHEMA_VERSION as f64) {
        return Err(format!(
            "schema_version {version:?}, expected {}",
            obs::SCHEMA_VERSION
        ));
    }
    let manifest_run = doc
        .get("manifest")
        .and_then(|m| m.get("run"))
        .and_then(Value::as_str)
        .ok_or("manifest has no `run`")?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if manifest_run != stem {
        return Err(format!(
            "manifest.run `{manifest_run}` does not match file stem `{stem}`"
        ));
    }
    // Fleet runs record their shape in the manifest (0/0 when no fleet
    // ran); both fields must be well-formed non-negative integers.
    for key in ["epochs", "shards"] {
        let n = doc
            .get("manifest")
            .and_then(|m| m.get(key))
            .and_then(Value::as_f64)
            .ok_or(format!("manifest has no numeric `{key}`"))?;
        if n < 0.0 || n != n.trunc() {
            return Err(format!("manifest.{key} {n} is not a non-negative integer"));
        }
    }
    let counters = object_len(doc, "counters")?;
    let histograms = object_len(doc, "histograms")?;
    if counters + histograms == 0 {
        return Err("snapshot has no counters or histograms".into());
    }
    Ok(version.expect("checked above") as u64)
}

/// Validates one exported Chrome trace: an array of `ph: "X"` complete
/// events whose `ts` is strictly monotone within each `tid` track.
fn validate_trace(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc.as_array().ok_or("trace is not a JSON array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            return Err(format!("event {i} is not a `ph: \"X\"` complete event"));
        }
        let tid = e
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} has no tid"))? as u64;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} has no ts"))?;
        if let Some(prev) = last_ts.insert(tid, ts) {
            if ts <= prev {
                return Err(format!("event {i}: ts {ts} not monotone on track {tid}"));
            }
        }
    }
    Ok(())
}

fn main() {
    let dir = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "results/obs".into());
    // A directory scans every artifact inside; a single file (e.g. one
    // ledger) is validated on its own.
    let mut paths: Vec<std::path::PathBuf> = if std::path::Path::new(&dir).is_file() {
        vec![std::path::PathBuf::from(&dir)]
    } else {
        match std::fs::read_dir(&dir) {
            Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
            Err(e) => {
                eprintln!("obs_validate: cannot read {dir}: {e}");
                std::process::exit(1);
            }
        }
    };
    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut versions: BTreeSet<u64> = BTreeSet::new();
    let mut fleet_versions: BTreeSet<u64> = BTreeSet::new();
    let mut crash_versions: BTreeSet<u64> = BTreeSet::new();
    let mut farm_job_versions: BTreeSet<u64> = BTreeSet::new();
    let mut farm_state_versions: BTreeSet<u64> = BTreeSet::new();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.ends_with(".progress.json") {
            continue; // fleet_forecast's status document, not a snapshot
        }
        let result = if name.ends_with(".trace.json") {
            checked += 1;
            validate_trace(&path)
        } else if name.ends_with(".folded") {
            checked += 1;
            validate_folded(&path)
        } else if name.ends_with(".jsonl") {
            checked += 1;
            validate_ledger(&path)
        } else if name.ends_with(".json") {
            checked += 1;
            match std::fs::read_to_string(&path)
                .map_err(|e| format!("read failed: {e}"))
                .and_then(|text| Value::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
            {
                Ok(doc) if is_repro(&doc) => validate_repro(&doc),
                Ok(doc) if is_fleet_checkpoint(&doc) => validate_fleet_checkpoint(&doc).map(|v| {
                    fleet_versions.insert(v);
                }),
                Ok(doc) if is_crash_dump(&doc) => validate_crash_dump(&doc).map(|v| {
                    crash_versions.insert(v);
                }),
                Ok(doc) if is_farm_job(&doc) => validate_farm_job(&doc, &path).map(|v| {
                    farm_job_versions.insert(v);
                }),
                Ok(doc) if is_farm_state(&doc) => validate_farm_state(&doc).map(|v| {
                    farm_state_versions.insert(v);
                }),
                Ok(doc) => validate_snapshot(&doc, &path).map(|v| {
                    versions.insert(v);
                }),
                Err(e) => Err(e),
            }
        } else {
            continue; // .prom and friends have their own consumers
        };
        match result {
            Ok(()) => println!("ok      {}", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("FAILED  {}: {e}", path.display());
            }
        }
    }
    if checked == 0 {
        eprintln!("obs_validate: no snapshots found in {dir}");
        std::process::exit(1);
    }
    if versions.len() > 1 {
        failed += 1;
        eprintln!("FAILED  {dir}: mixed schema_versions across snapshots: {versions:?}");
    }
    if fleet_versions.len() > 1 {
        failed += 1;
        eprintln!(
            "FAILED  {dir}: mixed schema_versions across fleet checkpoints: {fleet_versions:?}"
        );
    }
    if crash_versions.len() > 1 {
        failed += 1;
        eprintln!("FAILED  {dir}: mixed schema_versions across crash dumps: {crash_versions:?}");
    }
    if farm_job_versions.len() > 1 {
        failed += 1;
        eprintln!(
            "FAILED  {dir}: mixed schema_versions across farm job manifests: {farm_job_versions:?}"
        );
    }
    if farm_state_versions.len() > 1 {
        failed += 1;
        eprintln!(
            "FAILED  {dir}: mixed schema_versions across farm ledgers: {farm_state_versions:?}"
        );
    }
    println!("obs_validate: {checked} artifact(s), {failed} failure(s)");
    if failed > 0 {
        std::process::exit(1);
    }
}
