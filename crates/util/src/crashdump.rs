//! Crash dumps: copy the telemetry out on the way down.
//!
//! A multi-minute fleet run that panics (or hits the injected
//! `RF_FLEET_CRASH_AT` death) would lose its metrics — snapshots only
//! materialize at clean exit. A [`CrashDump`] freezes what the process
//! knows at the moment of death into one schema-versioned [`Persist`]
//! artifact at `results/obs/<run>.crashdump.json`:
//!
//! ```json
//! {"schema_version": 2, "kind": "crash_dump", "run": "...",
//!  "reason": "...", "wall_clock_ms": ...,
//!  "snapshot": { ... the full obs snapshot, manifest embedded ... },
//!  "checkpoint": { ... embedded fleet_checkpoint document or null ... }}
//! ```
//!
//! Span timings live in the snapshot's histograms.
//!
//! The embedded checkpoint is what makes a dump *actionable* rather than
//! merely descriptive: it carries the `(seed, epoch, shard-digest)`
//! coordinates of the last durable state, so `relcheck replay` can
//! re-execute the run up to the crash bit-exactly, and `obs_validate`
//! gates the schema like every other artifact. The checkpoint is stored
//! as a raw JSON value — `util` stays ignorant of `relsim`'s types; the
//! consumer (`relcheck`) decodes it with `FleetCheckpoint::from_json`.
//!
//! [`install_panic_hook`] chains onto the default hook so *any* panic in
//! an instrumented binary leaves a dump (without a checkpoint — a panic
//! can strike anywhere, so only durable on-disk state is trustworthy);
//! the simulated-crash path in `fleet_forecast` calls
//! [`CrashDump::write`] directly with the newest on-disk checkpoint.

use crate::json::Value;
use crate::obs;
use crate::persist::{parse_u64_field, Persist};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The `kind` header tag of crash-dump artifacts.
pub const KIND: &str = "crash_dump";

/// Everything the telemetry knew when the process died.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashDump {
    /// Run name (the artifact's file stem, before `.crashdump.json`).
    pub run: String,
    /// Human-readable cause: the panic message or the injected crash.
    pub reason: String,
    /// Wall-clock milliseconds since the epoch at dump time.
    pub wall_clock_ms: u64,
    /// The full obs snapshot (counters, gauges, histograms, manifest).
    pub snapshot: Value,
    /// The newest durable `fleet_checkpoint` document, when the dying run
    /// was a fleet simulation with checkpointing enabled.
    pub checkpoint: Option<Value>,
}

impl Persist for CrashDump {
    const KIND: &'static str = KIND;
    const SCHEMA_VERSION: u64 = 2;

    fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(Self::SCHEMA_VERSION)),
            ("kind", Value::from(Self::KIND)),
            ("run", Value::from(self.run.as_str())),
            ("reason", Value::from(self.reason.as_str())),
            ("wall_clock_ms", Value::from(self.wall_clock_ms)),
            ("snapshot", self.snapshot.clone()),
            ("checkpoint", self.checkpoint.clone().unwrap_or(Value::Null)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Self::check_header(v)?;
        let run = v
            .get("run")
            .and_then(Value::as_str)
            .ok_or("run must be a string")?
            .to_string();
        obs::validate_run_name(&run)?;
        let reason = v
            .get("reason")
            .and_then(Value::as_str)
            .ok_or("reason must be a string")?
            .to_string();
        if reason.is_empty() {
            return Err("reason must be non-empty".into());
        }
        let wall_clock_ms = parse_u64_field(v, "wall_clock_ms")?;
        let snapshot = v.get("snapshot").cloned().ok_or("missing snapshot")?;
        for section in ["manifest", "counters", "gauges", "histograms"] {
            if snapshot.get(section).is_none() {
                return Err(format!("snapshot missing its {section} section"));
            }
        }
        let checkpoint = match v.get("checkpoint") {
            None | Some(Value::Null) => None,
            Some(ckpt) => {
                if ckpt.get("kind").and_then(Value::as_str).is_none() {
                    return Err("checkpoint must be a kind-tagged object or null".into());
                }
                Some(ckpt.clone())
            }
        };
        Ok(CrashDump {
            run,
            reason,
            wall_clock_ms,
            snapshot,
            checkpoint,
        })
    }
}

impl CrashDump {
    /// Captures a dump: the obs snapshot and the given durable checkpoint.
    pub fn collect(run: &str, reason: &str, checkpoint: Option<Value>) -> CrashDump {
        CrashDump {
            run: run.to_string(),
            reason: reason.to_string(),
            wall_clock_ms: obs::now_ms(),
            snapshot: obs::snapshot(),
            checkpoint,
        }
    }

    /// Where a dump for `run` lives:
    /// `<RF_RESULTS_DIR|results>/obs/<run>.crashdump.json`.
    pub fn default_path(run: &str) -> PathBuf {
        Path::new(&obs::results_dir())
            .join("obs")
            .join(format!("{run}.crashdump.json"))
    }

    /// Collects and saves a dump for `run` at [`CrashDump::default_path`],
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// Rejects invalid run names and propagates save failures with path
    /// context; never panics (it runs inside panic hooks).
    pub fn write(run: &str, reason: &str, checkpoint: Option<Value>) -> Result<String, String> {
        obs::validate_run_name(run)?;
        let path = Self::default_path(run);
        Self::collect(run, reason, checkpoint).save(&path)?;
        Ok(path.display().to_string())
    }
}

/// Chains a crash-dump writer onto the current panic hook: any panic in
/// this process first writes `results/obs/<run>.crashdump.json`, then
/// runs the previous hook (the default backtrace printer). Installed at
/// most once per process; later calls with a different run name are
/// ignored.
pub fn install_panic_hook(run: &str) {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    let run = run.to_string();
    INSTALLED.get_or_init(move || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = panic_reason(info);
            // A second panic inside a panic hook aborts the process;
            // shield the drain so a poisoned obs lock cannot eat the
            // original report.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                CrashDump::write(&run, &reason, None)
            }));
            match outcome {
                Ok(Ok(path)) => eprintln!("crash dump written: {path}"),
                Ok(Err(e)) => eprintln!("crash dump failed: {e}"),
                Err(_) => eprintln!("crash dump failed: telemetry state unusable mid-panic"),
            }
            prev(info);
        }));
    });
}

fn panic_reason(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = info.payload();
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string());
    match info.location() {
        Some(loc) => format!("panic at {}:{}: {message}", loc.file(), loc.line()),
        None => format!("panic: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dump() -> CrashDump {
        let _serial = obs::exclusive();
        obs::reset();
        obs::set_metrics_enabled(true);
        obs::counter("crashtest.steps").add(5);
        let dump = CrashDump::collect(
            "crashtest",
            "simulated death",
            Some(Value::object([
                ("kind", Value::from("fleet_checkpoint")),
                ("schema_version", Value::from(1u64)),
            ])),
        );
        obs::set_metrics_enabled(false);
        obs::reset();
        dump
    }

    #[test]
    fn roundtrips_through_json() {
        let dump = sample_dump();
        let back = CrashDump::parse_str(&dump.to_json().to_pretty()).expect("roundtrip");
        assert_eq!(back, dump);
        let steps = back
            .snapshot
            .get("counters")
            .and_then(|c| c.get("crashtest.steps"))
            .and_then(Value::as_f64);
        assert_eq!(steps, Some(5.0), "the snapshot carries the counters");
        assert!(back.checkpoint.is_some());
    }

    #[test]
    fn truncated_dump_is_rejected() {
        let dump = sample_dump();
        let text = dump.to_json().to_pretty();
        let truncated = &text[..text.len() / 2];
        let err = CrashDump::parse_str(truncated).expect_err("truncation must not parse");
        assert!(err.contains("invalid JSON"), "unexpected error: {err}");
    }

    #[test]
    fn structural_damage_is_rejected() {
        let dump = sample_dump();
        let mut doc = dump.to_json();
        doc.set("reason", Value::from(""));
        assert!(CrashDump::from_json(&doc).is_err(), "empty reason accepted");
        let mut doc = dump.to_json();
        doc.set("snapshot", Value::Object(Vec::new()));
        assert!(
            CrashDump::from_json(&doc).is_err(),
            "gutted snapshot accepted"
        );
        let mut doc = dump.to_json();
        doc.set("kind", Value::from("repro_case"));
        assert!(CrashDump::from_json(&doc).is_err(), "foreign kind accepted");
        let mut doc = dump.to_json();
        doc.set("checkpoint", Value::from(42u64));
        assert!(
            CrashDump::from_json(&doc).is_err(),
            "non-object checkpoint accepted"
        );
        let mut doc = dump.to_json();
        doc.set("schema_version", Value::from(1u64));
        doc.set("flight", Value::Array(Vec::new()));
        let err = CrashDump::from_json(&doc).expect_err("schema 1 dump accepted");
        assert!(err.contains("schema version 1"), "unexpected error: {err}");
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let dump = CrashDump::collect("crashtest2", "no fleet involved", None);
        let back = CrashDump::parse_str(&dump.to_json().to_pretty()).expect("roundtrip");
        assert_eq!(back.checkpoint, None);
    }

    #[test]
    fn panic_hook_writes_a_dump() {
        let _serial = obs::exclusive();
        let dir = std::env::temp_dir().join(format!("rf_crashdump_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Scoped env override: this test owns obs::exclusive, and no other
        // test writes artifacts concurrently.
        std::env::set_var("RF_RESULTS_DIR", dir.display().to_string());
        // The hook is process-wide: put the harness's own hook back
        // afterwards, so that later panics in this binary write no dumps.
        let harness_hook = std::panic::take_hook();
        install_panic_hook("hooktest");
        let joined = std::thread::Builder::new()
            .spawn(|| panic!("deliberate test panic"))
            .expect("spawn panicking thread")
            .join();
        std::panic::set_hook(harness_hook);
        std::env::remove_var("RF_RESULTS_DIR");
        assert!(joined.is_err(), "thread must have panicked");
        let path = dir.join("obs/hooktest.crashdump.json");
        let dump = CrashDump::load(&path).expect("hook wrote a loadable dump");
        assert!(
            dump.reason.contains("deliberate test panic"),
            "reason: {}",
            dump.reason
        );
        assert_eq!(dump.checkpoint, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
