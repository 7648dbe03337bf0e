//! CI gate for observability artifacts: scans *every* file under the
//! given directory (default `results/obs`) with `util::json`'s strict
//! parser, or one file when given a file.
//!
//! * Metrics snapshots (`*.json` without a `kind`) must carry the
//!   required top-level keys, the current `schema_version`, an embedded
//!   manifest naming the file stem, and at least one populated counter or
//!   histogram.
//! * Kind-tagged artifacts (`relcheck_repro`, `fleet_checkpoint`,
//!   `crash_dump`, `farm_state`) must pass their type's strict
//!   [`Persist`] decoder, which carries every invariant `load` enforces
//!   too. One check lives here because it needs a crate `util` cannot
//!   see: a crash dump's embedded checkpoint must decode as a
//!   [`FleetCheckpoint`]. One kind must not mix schema versions across
//!   the scanned files; an unknown kind fails.
//! * Perf-history ledgers (`*.jsonl`) must strict-parse line by line
//!   (every record a `history_entry` with a verified content digest), end
//!   with a newline, and satisfy the `util::history` ledger invariants.
//!
//! Fleet progress documents (`*.progress.json`) and non-JSON files are
//! skipped. Exits non-zero on any violation.

use relaxfault_farm::FarmLedger;
use relaxfault_relsim::fleet::FleetCheckpoint;
use relaxfault_relsim::repro::ReproCase;
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::history;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::Persist;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const REQUIRED_KEYS: [&str; 6] = [
    "schema_version",
    "manifest",
    "counters",
    "gauges",
    "histograms",
    "benches",
];

fn object_len(doc: &Value, key: &str) -> Result<usize, String> {
    match doc.get(key) {
        Some(Value::Object(pairs)) => Ok(pairs.len()),
        _ => Err(format!("`{key}` is not an object")),
    }
}

/// Checks one kind-tagged document and returns its schema_version.
type Decode = fn(&Value) -> Result<u64, String>;

/// Decodes `doc` through `T`'s strict [`Persist`] decoder, which also
/// enforces the kind's invariants, and returns its schema_version.
fn decode<T: Persist>(doc: &Value) -> Result<u64, String> {
    T::from_json(doc)?;
    T::check_header(doc)
}

/// A crash dump's embedded checkpoint must also decode as a
/// [`FleetCheckpoint`] (a type `util` cannot see), so `relcheck replay`
/// accepts anything this gate passed.
fn decode_crash_dump(doc: &Value) -> Result<u64, String> {
    let dump = CrashDump::from_json(doc)?;
    if let Some(ckpt) = &dump.checkpoint {
        FleetCheckpoint::from_json(ckpt).map_err(|e| format!("embedded checkpoint: {e}"))?;
    }
    CrashDump::check_header(doc)
}

/// Every kind-tagged artifact this gate knows, with its decoder.
const KINDS: [(&str, Decode); 4] = [
    (ReproCase::KIND, decode::<ReproCase>),
    (FleetCheckpoint::KIND, decode::<FleetCheckpoint>),
    (CrashDump::KIND, decode_crash_dump),
    (FarmLedger::KIND, decode::<FarmLedger>),
];

/// Validates one perf-history ledger: strict line-by-line decode
/// (truncation, corrupted content digests and any schema_version
/// [`history::HistoryEntry`] does not accept are rejected by
/// [`history::Ledger::parse_entries`]) and the structural invariants
/// of [`history::check_invariants`].
fn validate_ledger(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let entries = history::Ledger::parse_entries(&text)?;
    if entries.is_empty() {
        return Err("ledger is empty".into());
    }
    history::check_invariants(&history::Ledger {
        path: path.to_path_buf(),
        entries,
    })
}

/// Validates one metrics snapshot. Only the current schema_version
/// passes, so a scanned directory cannot mix snapshot versions.
fn validate_snapshot(doc: &Value, path: &Path) -> Result<(), String> {
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
    Ok(())
}

fn main() {
    let dir = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "results/obs".into());
    // A directory scans every artifact inside; a single file (e.g. one
    // ledger) is validated on its own.
    let mut paths: Vec<PathBuf> = if Path::new(&dir).is_file() {
        vec![PathBuf::from(&dir)]
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
    // Schema versions seen per artifact kind; a kind must not mix them.
    let mut versions: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.ends_with(".progress.json") {
            continue; // fleet_forecast's status document, not a snapshot
        }
        let result = if name.ends_with(".jsonl") {
            checked += 1;
            validate_ledger(&path)
        } else if name.ends_with(".json") {
            checked += 1;
            std::fs::read_to_string(&path)
                .map_err(|e| format!("read failed: {e}"))
                .and_then(|text| Value::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
                .and_then(|doc| match doc.get("kind") {
                    None => validate_snapshot(&doc, &path),
                    Some(kind) => {
                        let (kind, decode) = KINDS
                            .iter()
                            .find(|(k, _)| Some(*k) == kind.as_str())
                            .ok_or(format!("unknown artifact kind {kind}"))?;
                        let version = decode(&doc)?;
                        versions.entry(kind).or_default().insert(version);
                        Ok(())
                    }
                })
        } else {
            continue;
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
    for (kind, seen) in &versions {
        if seen.len() > 1 {
            failed += 1;
            eprintln!("FAILED  {dir}: mixed schema_versions across {kind} artifacts: {seen:?}");
        }
    }
    println!("obs_validate: {checked} artifact(s), {failed} failure(s)");
    if failed > 0 {
        std::process::exit(1);
    }
}
