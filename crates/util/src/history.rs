//! Cross-run perf-history ledger: the longitudinal layer behind the
//! observatory.
//!
//! Every obs snapshot is a *point* measurement; `obs_diff` compares two
//! of them. This module gives the repo the missing axis — **time across
//! runs** — as an append-only, schema-versioned ledger at
//! `<results>/history/ledger.jsonl`. Each line is one [`HistoryEntry`]
//! (a [`Persist`] artifact, kind `history_entry`): a run's manifest
//! identity (run name, git SHA, config hash, threads, wall clock)
//! distilled together with its bench medians and counters. Grouping the
//! entries by `(metric, config_hash, threads)` yields per-series time
//! series ([`series`]) that the trend analytics in [`crate::stats`]
//! (MAD outlier scores, CUSUM changepoints) and the `obs_report`
//! dashboard consume.
//!
//! Design rules the format enforces:
//!
//! * **One record, one line.** Records are compact JSON terminated by
//!   `\n`; a file that does not end in a newline was truncated mid-append
//!   and is rejected by [`Ledger::parse_entries`].
//! * **Append-only and idempotent.** Each entry carries a content digest
//!   `id`; ingesting a `results/` tree skips entries whose id the ledger
//!   already holds, so re-running ingest over the same tree is a
//!   byte-level no-op ([`Ledger::ingest_dir`]).
//! * **Self-verifying.** The id is recomputed from the decoded fields on
//!   load, so a corrupted line cannot masquerade as a valid record.
//! * **Monotone per series.** Within one `(config_hash, threads)` run
//!   lineage, wall clocks must be non-decreasing in ledger order —
//!   [`check_invariants`] (wired into `obs_validate`) enforces it.

use crate::json::Value;
use crate::obs;
use crate::persist::{self, Persist};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File name of the ledger inside `<results>/history/`.
pub const LEDGER_BASENAME: &str = "ledger.jsonl";

/// The `kind` tag of one ledger record (mirrors [`HistoryEntry::KIND`]
/// for callers that dispatch on parsed JSON, like `obs_validate`).
pub const HISTORY_KIND: &str = "history_entry";

/// One run distilled into the ledger: manifest identity plus the scalar
/// series values (bench medians, counters) worth tracking across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Content digest over every other field — the dedupe key that makes
    /// re-ingestion idempotent. Always equals [`HistoryEntry::content_id`].
    pub id: u64,
    /// Run name from the snapshot manifest.
    pub run: String,
    /// Commit SHA the run was built from.
    pub git_sha: String,
    /// The manifest's order-sensitive configuration fold; series never
    /// mix entries with different config hashes.
    pub config_hash: u64,
    /// Worker threads the run used; part of the series key.
    pub threads: u64,
    /// Wall clock of the run (ms since the epoch, from the manifest).
    pub wall_clock_ms: u64,
    /// `(bench name, median_ns)`, sorted by name.
    pub benches: Vec<(String, f64)>,
    /// `(counter name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl HistoryEntry {
    /// The content digest the `id` field must equal: an order-sensitive
    /// fold over every non-`id` field.
    pub fn content_id(&self) -> u64 {
        let mut acc = persist::digest_debug(&(
            &self.run,
            &self.git_sha,
            self.config_hash,
            self.threads,
            self.wall_clock_ms,
        ));
        for (name, v) in &self.benches {
            acc = persist::fold_digest(acc, persist::digest_debug(&(name, v.to_bits())));
        }
        for (name, v) in &self.counters {
            acc = persist::fold_digest(acc, persist::digest_debug(&(name, *v)));
        }
        acc
    }

    /// Normalizes (sorts the series sections) and stamps the content id.
    pub fn seal(mut self) -> HistoryEntry {
        self.benches.sort_by(|(a, _), (b, _)| a.cmp(b));
        self.counters.sort_by(|(a, _), (b, _)| a.cmp(b));
        self.id = self.content_id();
        self
    }

    /// The one-line JSONL rendering of this entry.
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().to_string();
        line.push('\n');
        line
    }
}

impl Persist for HistoryEntry {
    const KIND: &'static str = HISTORY_KIND;
    const SCHEMA_VERSION: u64 = 1;

    fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(Self::SCHEMA_VERSION)),
            ("kind", Value::from(Self::KIND)),
            ("id", persist::hex(self.id)),
            ("run", Value::from(self.run.as_str())),
            ("git_sha", Value::from(self.git_sha.as_str())),
            ("config_hash", persist::hex(self.config_hash)),
            ("threads", Value::from(self.threads)),
            ("wall_clock_ms", Value::from(self.wall_clock_ms)),
            (
                "benches",
                Value::Object(
                    self.benches
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Self::check_header(v)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{key} must be a string"))
        };
        let mut benches = Vec::new();
        match v.get("benches") {
            Some(Value::Object(pairs)) => {
                for (name, val) in pairs {
                    let median = val
                        .as_f64()
                        .filter(|m| m.is_finite())
                        .ok_or_else(|| format!("bench {name} must be a finite number"))?;
                    benches.push((name.clone(), median));
                }
            }
            _ => return Err("benches must be an object".into()),
        }
        let mut counters = Vec::new();
        match v.get("counters") {
            Some(Value::Object(pairs)) => {
                for (name, _) in pairs {
                    counters.push((
                        name.clone(),
                        persist::parse_u64_field(v.get("counters").expect("checked"), name)?,
                    ));
                }
            }
            _ => return Err("counters must be an object".into()),
        }
        let entry = HistoryEntry {
            id: persist::parse_hex_field(v, "id")?,
            run: str_field("run")?,
            git_sha: str_field("git_sha")?,
            config_hash: persist::parse_hex_field(v, "config_hash")?,
            threads: persist::parse_u64_field(v, "threads")?,
            wall_clock_ms: persist::parse_u64_field(v, "wall_clock_ms")?,
            benches,
            counters,
        };
        let expect = entry.content_id();
        if entry.id != expect {
            return Err(format!(
                "id {:#018x} does not match content digest {expect:#018x} (corrupted record?)",
                entry.id
            ));
        }
        Ok(entry)
    }
}

/// Distills one obs metrics snapshot (the `results/obs/<run>.json`
/// document) into a ledger entry. Counters too large for exact `f64`
/// representation cannot round-trip through JSON and are rejected rather
/// than silently rounded.
///
/// # Errors
///
/// Rejects documents that are not current-schema obs snapshots (wrong
/// `schema_version`, a `kind` tag marking another artifact family, or a
/// missing manifest).
pub fn entry_from_snapshot(doc: &Value) -> Result<HistoryEntry, String> {
    if let Some(kind) = doc.get("kind").and_then(Value::as_str) {
        return Err(format!("not a metrics snapshot (kind {kind:?})"));
    }
    let version = doc.get("schema_version").and_then(Value::as_f64);
    if version != Some(obs::SCHEMA_VERSION as f64) {
        return Err(format!(
            "snapshot schema_version {version:?}, expected {}",
            obs::SCHEMA_VERSION
        ));
    }
    let manifest = doc.get("manifest").ok_or("snapshot has no manifest")?;
    let man_str = |key: &str| -> Result<String, String> {
        manifest
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("manifest.{key} must be a string"))
    };
    let config_hash = manifest
        .get("config_hash")
        .and_then(persist::parse_hex)
        .ok_or("manifest.config_hash must be a hex string")?;
    let mut benches = Vec::new();
    if let Some(Value::Object(pairs)) = doc.get("benches") {
        for (name, b) in pairs {
            let median = b
                .get("median_ns")
                .and_then(Value::as_f64)
                .filter(|m| m.is_finite())
                .ok_or_else(|| format!("bench {name} has no finite median_ns"))?;
            benches.push((name.clone(), median));
        }
    }
    let mut counters = Vec::new();
    if let Some(Value::Object(pairs)) = doc.get("counters") {
        for (name, _) in pairs {
            counters.push((
                name.clone(),
                persist::parse_u64_field(doc.get("counters").expect("checked"), name)
                    .map_err(|e| format!("counter {e}"))?,
            ));
        }
    }
    Ok(HistoryEntry {
        id: 0,
        run: man_str("run")?,
        git_sha: man_str("git_sha")?,
        config_hash,
        threads: persist::parse_u64_field(manifest, "threads")
            .map_err(|e| format!("manifest.{e}"))?,
        wall_clock_ms: persist::parse_u64_field(manifest, "wall_clock_ms")
            .map_err(|e| format!("manifest.{e}"))?,
        benches,
        counters,
    }
    .seal())
}

/// What one [`Ledger::ingest_dir`] pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Entries appended to the ledger.
    pub added: usize,
    /// Snapshots whose entries were already present (idempotent skips).
    pub duplicate: usize,
    /// Files under `obs/` that are not ingestable snapshots (crash
    /// dumps, repro cases, …), with the reason each was skipped.
    pub skipped: Vec<(PathBuf, String)>,
}

/// The on-disk ledger plus its decoded entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Where the ledger lives (exists once the first entry is appended).
    pub path: PathBuf,
    /// Every entry, in file (append) order.
    pub entries: Vec<HistoryEntry>,
}

impl Ledger {
    /// The canonical ledger location under a results tree:
    /// `<results_dir>/history/ledger.jsonl`.
    pub fn default_path(results_dir: &str) -> PathBuf {
        Path::new(results_dir).join("history").join(LEDGER_BASENAME)
    }

    /// Loads the ledger at `path`; a missing file is an empty ledger
    /// (the state before the first append), any other failure is an
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates read failures and every [`Ledger::parse_entries`]
    /// rejection, prefixed with the path.
    pub fn load(path: &Path) -> Result<Ledger, String> {
        let entries = match std::fs::read_to_string(path) {
            Ok(text) => {
                Self::parse_entries(&text).map_err(|e| format!("{}: {e}", path.display()))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: cannot read: {e}", path.display())),
        };
        Ok(Ledger {
            path: path.to_path_buf(),
            entries,
        })
    }

    /// Strict JSONL decoding: every line must parse as a current-kind
    /// [`HistoryEntry`] (which re-verifies each content digest), and the
    /// text must end with a newline — a missing final newline means the
    /// last append was cut short, and an append-only file never repairs
    /// itself, so the whole ledger is rejected.
    ///
    /// # Errors
    ///
    /// Reports the first offending line (1-based) and why it failed.
    pub fn parse_entries(text: &str) -> Result<Vec<HistoryEntry>, String> {
        if text.is_empty() {
            return Ok(Vec::new());
        }
        if !text.ends_with('\n') {
            return Err("truncated ledger: final line has no newline".into());
        }
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                return Err(format!("line {}: blank line in ledger", i + 1));
            }
            let entry =
                HistoryEntry::parse_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Appends the entries whose ids the ledger does not already hold,
    /// in deterministic `(wall_clock_ms, run, id)` order, creating the
    /// file on first use. Returns how many were appended; appending
    /// nothing leaves the file bytes untouched (idempotence).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures with path
    /// context.
    pub fn append(&mut self, candidates: Vec<HistoryEntry>) -> Result<usize, String> {
        let known: BTreeSet<u64> = self.entries.iter().map(|e| e.id).collect();
        let mut fresh: Vec<HistoryEntry> = candidates
            .into_iter()
            .filter(|e| !known.contains(&e.id))
            .collect();
        fresh.sort_by(|a, b| (a.wall_clock_ms, &a.run, a.id).cmp(&(b.wall_clock_ms, &b.run, b.id)));
        fresh.dedup_by_key(|e| e.id);
        if fresh.is_empty() {
            return Ok(0);
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("{}: cannot create dir: {e}", dir.display()))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("{}: cannot open for append: {e}", self.path.display()))?;
        for entry in &fresh {
            file.write_all(entry.to_line().as_bytes())
                .map_err(|e| format!("{}: append failed: {e}", self.path.display()))?;
        }
        let added = fresh.len();
        self.entries.append(&mut fresh);
        Ok(added)
    }

    /// Ingests every metrics snapshot under `<results_dir>/obs/` into the
    /// ledger at [`Ledger::default_path`]. Non-JSON files are passed over;
    /// other non-snapshot artifacts (crash dumps, repro cases, progress
    /// documents) are skipped and listed in the report; snapshots already
    /// ledgered count as duplicates. Running this twice over an unchanged
    /// tree leaves the ledger file byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates ledger load/append failures; an absent `obs/`
    /// directory is an error (nothing to ingest is a caller bug).
    pub fn ingest_dir(results_dir: &str) -> Result<(Ledger, IngestReport), String> {
        let mut ledger = Ledger::load(&Self::default_path(results_dir))?;
        let obs_dir = Path::new(results_dir).join("obs");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&obs_dir)
            .map_err(|e| format!("{}: cannot read: {e}", obs_dir.display()))?
            .flatten()
            .map(|e| e.path())
            .collect();
        paths.sort();
        let mut report = IngestReport::default();
        let known: BTreeSet<u64> = ledger.entries.iter().map(|e| e.id).collect();
        let mut candidates = Vec::new();
        for path in paths {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if !name.ends_with(".json") {
                continue; // not snapshot-shaped; other validators own these
            }
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| Value::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
                .and_then(|doc| entry_from_snapshot(&doc));
            match parsed {
                Ok(entry) if known.contains(&entry.id) => report.duplicate += 1,
                Ok(entry) => candidates.push(entry),
                Err(reason) => report.skipped.push((path, reason)),
            }
        }
        report.added = ledger.append(candidates)?;
        Ok((ledger, report))
    }
}

/// Appends one just-written run snapshot (`<results_dir>/obs/<run>.json`)
/// to the ledger — the `obs_finish()` hook every bench binary runs.
/// Returns `Ok(true)` when a new entry landed, `Ok(false)` when the run
/// was already ledgered.
///
/// # Errors
///
/// Propagates missing/corrupt snapshot files and ledger I/O failures.
pub fn append_run_snapshot(results_dir: &str, run: &str) -> Result<bool, String> {
    let path = Path::new(results_dir)
        .join("obs")
        .join(format!("{run}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let entry = entry_from_snapshot(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ledger = Ledger::load(&Ledger::default_path(results_dir))?;
    Ok(ledger.append(vec![entry])? == 1)
}

/// Which snapshot section a series tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// A bench median (`median_ns`); the regression-gate signal.
    Bench,
    /// A deterministic counter.
    Counter,
}

impl SeriesKind {
    /// Short lowercase label used in series ids and reports.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Bench => "bench",
            SeriesKind::Counter => "counter",
        }
    }
}

/// Identity of one time series: a metric observed under one configuration
/// at one thread count. Entries with different config hashes or thread
/// counts never share a series — comparing them would conflate config
/// changes with perf changes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Bench or counter.
    pub kind: SeriesKind,
    /// Metric name (e.g. `engine_hot.fig10_mix`).
    pub name: String,
    /// Manifest config hash shared by every point.
    pub config_hash: u64,
    /// Worker threads shared by every point.
    pub threads: u64,
}

impl SeriesKey {
    /// Human/grep-friendly rendering:
    /// `bench:engine_hot.fig10_mix cfg=50c1207f80689ff5 t=1`.
    pub fn label(&self) -> String {
        format!(
            "{}:{} cfg={:016x} t={}",
            self.kind.label(),
            self.name,
            self.config_hash,
            self.threads
        )
    }
}

/// One observation in a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Epoch within the series (0-based position in ledger order) — the
    /// coordinate changepoints are reported in.
    pub epoch: usize,
    /// Index of the source entry in [`Ledger::entries`].
    pub entry_index: usize,
    /// Run name of the source entry.
    pub run: String,
    /// Wall clock of the source entry.
    pub wall_clock_ms: u64,
    /// The observed value (bench `median_ns`, or counter value).
    pub value: f64,
}

/// Groups ledger entries into per-series time series, in ledger order.
pub fn series(entries: &[HistoryEntry]) -> BTreeMap<SeriesKey, Vec<SeriesPoint>> {
    let mut out: BTreeMap<SeriesKey, Vec<SeriesPoint>> = BTreeMap::new();
    let mut push = |key: SeriesKey, entry_index: usize, entry: &HistoryEntry, value: f64| {
        let points = out.entry(key).or_default();
        points.push(SeriesPoint {
            epoch: points.len(),
            entry_index,
            run: entry.run.clone(),
            wall_clock_ms: entry.wall_clock_ms,
            value,
        });
    };
    for (entry_index, entry) in entries.iter().enumerate() {
        for (name, median) in &entry.benches {
            push(
                SeriesKey {
                    kind: SeriesKind::Bench,
                    name: name.clone(),
                    config_hash: entry.config_hash,
                    threads: entry.threads,
                },
                entry_index,
                entry,
                *median,
            );
        }
        for (name, value) in &entry.counters {
            push(
                SeriesKey {
                    kind: SeriesKind::Counter,
                    name: name.clone(),
                    config_hash: entry.config_hash,
                    threads: entry.threads,
                },
                entry_index,
                entry,
                *value as f64,
            );
        }
    }
    out
}

/// Structural invariants `obs_validate` enforces on a loaded ledger:
///
/// * every id is unique (the parse already proved each matches its
///   content);
/// * run names are valid file stems;
/// * bench medians are finite and non-negative;
/// * **series monotonicity** — within one `(config_hash, threads)` run
///   lineage, `wall_clock_ms` never decreases in ledger (append) order,
///   so the epoch axis of every derived series is genuinely time-ordered.
///
/// # Errors
///
/// Describes the first violated invariant, naming the offending entry.
pub fn check_invariants(ledger: &Ledger) -> Result<(), String> {
    let mut seen_ids = BTreeSet::new();
    let mut last_clock: BTreeMap<(u64, u64), (u64, String)> = BTreeMap::new();
    for (i, entry) in ledger.entries.iter().enumerate() {
        if !seen_ids.insert(entry.id) {
            return Err(format!(
                "entry {i} (run {}): duplicate id {:#018x}",
                entry.run, entry.id
            ));
        }
        obs::validate_run_name(&entry.run).map_err(|e| format!("entry {i}: {e}"))?;
        for (name, median) in &entry.benches {
            if !median.is_finite() || *median < 0.0 {
                return Err(format!(
                    "entry {i} (run {}): bench {name} median {median} is not a \
                     non-negative finite number",
                    entry.run
                ));
            }
        }
        let lineage = (entry.config_hash, entry.threads);
        if let Some((clock, run)) = last_clock.get(&lineage) {
            if entry.wall_clock_ms < *clock {
                return Err(format!(
                    "entry {i} (run {}): wall_clock_ms {} precedes {} of earlier run {} \
                     in the same (config, threads) lineage — series are no longer \
                     time-ordered",
                    entry.run, entry.wall_clock_ms, clock, run
                ));
            }
        }
        last_clock.insert(lineage, (entry.wall_clock_ms, entry.run.clone()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(run: &str, clock: u64, median: f64) -> HistoryEntry {
        HistoryEntry {
            id: 0,
            run: run.to_string(),
            git_sha: "abc123".to_string(),
            config_hash: 0x50c1_207f_8068_9ff5,
            threads: 1,
            wall_clock_ms: clock,
            benches: vec![("engine_hot.fig10_mix".to_string(), median)],
            counters: vec![("relsim.trials".to_string(), 4000)],
        }
        .seal()
    }

    fn snapshot_doc(run: &str, clock: u64, median: f64) -> Value {
        Value::parse(&format!(
            r#"{{
              "schema_version": {v},
              "manifest": {{"run": "{run}", "git_sha": "abc123", "profile": "release",
                           "threads": 1, "seeds": [2016], "config_hash": "50c1207f80689ff5",
                           "sim_runs": 1, "epochs": 0, "shards": 0,
                           "wall_clock_ms": {clock}}},
              "counters": {{"relsim.trials": 4000}},
              "gauges": {{}},
              "histograms": {{}},
              "benches": {{"engine_hot.fig10_mix": {{"median_ns": {median}, "iters": 10,
                           "batch_ns": [{median}]}}}}
            }}"#,
            v = obs::SCHEMA_VERSION
        ))
        .expect("fixture parses")
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rf_history_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("obs")).expect("scratch dir");
        dir
    }

    #[test]
    fn entry_round_trips_and_verifies_content_id() {
        let e = entry("fig08_hashing", 1000, 123.5);
        let line = e.to_line();
        assert_eq!(line.matches('\n').count(), 1, "one record, one line");
        let back = HistoryEntry::parse_str(line.trim_end()).expect("round trip");
        assert_eq!(back, e);

        // Tampering with a value breaks the content digest.
        let tampered = line.replace("123.5", "124.5");
        let err = HistoryEntry::parse_str(tampered.trim_end()).unwrap_err();
        assert!(err.contains("content digest"), "{err}");
    }

    #[test]
    fn parse_entries_rejects_truncation_and_mixed_versions() {
        let good = format!(
            "{}{}",
            entry("a", 1, 10.0).to_line(),
            entry("b", 2, 11.0).to_line()
        );
        assert_eq!(Ledger::parse_entries(&good).expect("parses").len(), 2);

        let truncated = &good[..good.len() - 1];
        let err = Ledger::parse_entries(truncated).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let mixed = good.replace("\"schema_version\":1", "\"schema_version\":99");
        let err = Ledger::parse_entries(&mixed).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");

        let garbage = format!("{good}not json\n");
        assert!(Ledger::parse_entries(&garbage).is_err());
        assert!(Ledger::parse_entries("").expect("empty ok").is_empty());
    }

    #[test]
    fn ingest_is_idempotent_byte_for_byte() {
        let dir = scratch_dir("ingest");
        let results = dir.to_str().expect("utf8 path");
        for (run, clock, median) in [("run_a", 100, 50.0), ("run_b", 200, 51.0)] {
            std::fs::write(
                dir.join("obs").join(format!("{run}.json")),
                snapshot_doc(run, clock, median).to_pretty(),
            )
            .expect("write snapshot");
        }
        // Non-snapshot artifacts are skipped, not fatal.
        std::fs::write(dir.join("obs/junk.json"), "{\"kind\": \"crash_dump\"}").expect("write");

        let (ledger, report) = Ledger::ingest_dir(results).expect("first ingest");
        assert_eq!(report.added, 2);
        assert_eq!(report.duplicate, 0);
        assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
        assert_eq!(ledger.entries.len(), 2);
        // Deterministic order: by wall clock.
        assert_eq!(ledger.entries[0].run, "run_a");

        let bytes_before = std::fs::read(&ledger.path).expect("ledger exists");
        let (ledger2, report2) = Ledger::ingest_dir(results).expect("second ingest");
        assert_eq!(report2.added, 0);
        assert_eq!(report2.duplicate, 2);
        assert_eq!(ledger2.entries, ledger.entries);
        let bytes_after = std::fs::read(&ledger2.path).expect("ledger exists");
        assert_eq!(
            bytes_before, bytes_after,
            "re-ingest must be a byte-level no-op"
        );

        // A third run appended later extends, again idempotently.
        std::fs::write(
            dir.join("obs/run_c.json"),
            snapshot_doc("run_c", 300, 49.0).to_pretty(),
        )
        .expect("write snapshot");
        let (ledger3, report3) = Ledger::ingest_dir(results).expect("third ingest");
        assert_eq!((report3.added, report3.duplicate), (1, 2));
        assert_eq!(ledger3.entries.len(), 3);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn append_run_snapshot_hooks_one_run() {
        let dir = scratch_dir("hook");
        let results = dir.to_str().expect("utf8 path");
        std::fs::write(
            dir.join("obs/fig08_hashing.json"),
            snapshot_doc("fig08_hashing", 500, 42.0).to_pretty(),
        )
        .expect("write snapshot");
        assert!(append_run_snapshot(results, "fig08_hashing").expect("append"));
        assert!(
            !append_run_snapshot(results, "fig08_hashing").expect("append"),
            "second call is a duplicate"
        );
        let ledger = Ledger::load(&Ledger::default_path(results)).expect("load");
        assert_eq!(ledger.entries.len(), 1);
        assert!(append_run_snapshot(results, "missing_run").is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn series_group_by_metric_config_and_threads() {
        let mut entries = vec![entry("a", 1, 10.0), entry("b", 2, 12.0)];
        // Same metric at a different thread count: its own series.
        let mut other = entry("c", 3, 11.0);
        other.threads = 4;
        entries.push(other.seal());
        let all = series(&entries);
        let bench_keys: Vec<&SeriesKey> =
            all.keys().filter(|k| k.kind == SeriesKind::Bench).collect();
        assert_eq!(bench_keys.len(), 2, "{bench_keys:?}");
        let main = &all[bench_keys[0]];
        assert_eq!(main.len(), 2);
        assert_eq!((main[0].epoch, main[0].value), (0, 10.0));
        assert_eq!((main[1].epoch, main[1].run.as_str()), (1, "b"));
        assert!(bench_keys[0].label().contains("bench:engine_hot.fig10_mix"));
    }

    #[test]
    fn invariants_catch_duplicates_and_time_reversal() {
        let dir = std::env::temp_dir();
        let mk = |entries: Vec<HistoryEntry>| Ledger {
            path: dir.join("unused.jsonl"),
            entries,
        };
        assert!(check_invariants(&mk(vec![entry("a", 1, 10.0), entry("b", 2, 11.0)])).is_ok());

        let dup = entry("a", 1, 10.0);
        let err = check_invariants(&mk(vec![dup.clone(), dup])).unwrap_err();
        assert!(err.contains("duplicate id"), "{err}");

        // Wall clock going backwards within one lineage.
        let err = check_invariants(&mk(vec![
            entry("late", 100, 10.0),
            entry("early", 50, 10.0),
        ]))
        .unwrap_err();
        assert!(err.contains("precedes"), "{err}");

        // ...but a different config hash is a different lineage: fine.
        let mut other = entry("early", 50, 10.0);
        other.config_hash = 7;
        let ok = check_invariants(&mk(vec![entry("late", 100, 10.0), other.seal()]));
        assert!(ok.is_ok(), "{ok:?}");
    }
}
