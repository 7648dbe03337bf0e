//! Schema-versioned JSON persistence for crash-consistent artifacts.
//!
//! Two artifact families need durable, replayable on-disk state: relcheck
//! repro cases (PR 5) and fleet checkpoints (this subsystem). Both are
//! small schema-versioned JSON documents whose writes must be atomic — a
//! crash mid-write must leave either the old file or the new file, never
//! a truncated hybrid — and whose reads must fail with a clear error on
//! corruption instead of panicking. [`Persist`] captures that contract
//! once: implementors supply the `kind` tag, the current schema version,
//! which older versions they still accept, and the field-level
//! (de)serialization; the trait provides header validation, atomic
//! `save`, and path-contextualized `load`.
//!
//! The module also hosts the shared value-encoding helpers both
//! implementors need: hex-string encoding for `u64`s that may exceed
//! 2^53 (the in-repo JSON layer keeps numbers as `f64`), a debug-format
//! FNV-1a digest for fault populations, and the order-sensitive digest
//! fold the population digests and manifest config hashes use.
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::json::Value;
//! use relaxfault_util::persist::{self, Persist};
//!
//! struct Marker {
//!     seed: u64,
//! }
//! impl Persist for Marker {
//!     const KIND: &'static str = "marker";
//!     const SCHEMA_VERSION: u64 = 1;
//!     fn to_json(&self) -> Value {
//!         Value::object([
//!             ("schema_version", Value::from(Self::SCHEMA_VERSION)),
//!             ("kind", Value::from(Self::KIND)),
//!             ("seed", persist::hex(self.seed)),
//!         ])
//!     }
//!     fn from_json(v: &Value) -> Result<Self, String> {
//!         Self::check_header(v)?;
//!         let seed = persist::parse_hex_field(v, "seed")?;
//!         Ok(Marker { seed })
//!     }
//! }
//!
//! let m = Marker { seed: u64::MAX };
//! let text = m.to_json().to_pretty();
//! assert_eq!(Marker::parse_str(&text).unwrap().seed, u64::MAX);
//! ```

use crate::json::Value;
use crate::obs;
use std::path::Path;

/// A schema-versioned, kind-tagged JSON artifact with atomic persistence.
///
/// Implementors provide the identity constants and the body
/// (de)serialization; the provided methods add header validation, string
/// parsing, and crash-safe file I/O shared by every artifact family.
pub trait Persist: Sized {
    /// The `kind` tag distinguishing this artifact family from obs
    /// snapshots and from other [`Persist`] implementors.
    const KIND: &'static str;

    /// Current schema version; bump on breaking layout changes.
    const SCHEMA_VERSION: u64;

    /// Whether a file written at `version` is still readable. The default
    /// accepts only the current version; implementors that keep
    /// backward-compatible readers widen this.
    fn accepts_version(version: u64) -> bool {
        version == Self::SCHEMA_VERSION
    }

    /// Serializes the artifact. The produced object must carry
    /// `schema_version` and `kind` so [`Persist::check_header`] can
    /// validate files before field decoding.
    fn to_json(&self) -> Value;

    /// Deserializes an artifact previously produced by
    /// [`Persist::to_json`] (at any [`Persist::accepts_version`] version).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    fn from_json(v: &Value) -> Result<Self, String>;

    /// Validates the `kind` and `schema_version` header fields and
    /// returns the file's version.
    ///
    /// # Errors
    ///
    /// Rejects missing headers, foreign kinds, and versions outside
    /// [`Persist::accepts_version`].
    fn check_header(v: &Value) -> Result<u64, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing kind (expected {:?})", Self::KIND))?;
        if kind != Self::KIND {
            return Err(format!("kind must be {:?}, found {kind:?}", Self::KIND));
        }
        let version = v
            .get("schema_version")
            .and_then(Value::as_f64)
            .ok_or("missing schema_version")? as u64;
        if !Self::accepts_version(version) {
            return Err(format!(
                "unsupported {} schema version {version} (current {})",
                Self::KIND,
                Self::SCHEMA_VERSION
            ));
        }
        Ok(version)
    }

    /// Parses an artifact from JSON text (e.g. freshly read file
    /// contents).
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors and field-level decode failures.
    fn parse_str(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_json(&doc)
    }

    /// Loads an artifact from `path`, contextualizing every failure with
    /// the path so corrupted or truncated files produce an actionable
    /// error instead of a panic.
    ///
    /// # Errors
    ///
    /// Reports unreadable files, JSON syntax errors, and schema
    /// mismatches, each prefixed with the offending path.
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
        Self::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the artifact to `path` atomically (temp file + rename in
    /// the destination directory), creating parent directories as needed.
    /// A crash mid-save leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, and rename failures with
    /// path context.
    fn save(&self, path: &Path) -> Result<(), String> {
        atomic_write(path, &self.to_json().to_pretty())
    }
}

/// Atomically replaces `path` with `contents` via a same-directory temp
/// file and rename, creating parent directories first. This is the write
/// idiom every crash-consistent artifact in the workspace uses: rename
/// within one directory is atomic on POSIX, so readers observe either
/// the old complete file or the new complete file.
///
/// # Errors
///
/// Propagates directory-creation, write, and rename failures with path
/// context.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("{}: cannot create dir: {e}", dir.display()))?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)
        .map_err(|e| format!("{}: cannot write temp file: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("{}: cannot rename into place: {e}", path.display()))
}

/// Encodes a `u64` that may exceed 2^53 as a `0x`-prefixed 16-digit hex
/// string (the in-repo JSON layer keeps numbers as `f64`, which would
/// silently round larger integers).
pub fn hex(v: u64) -> Value {
    Value::from(format!("{v:#018x}"))
}

/// Decodes a value written by [`hex`] (bare hex without the `0x` prefix
/// is accepted too).
pub fn parse_hex(v: &Value) -> Option<u64> {
    let s = v.as_str()?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// Reads field `key` of object `v` as a hex-encoded `u64`.
///
/// # Errors
///
/// Reports the field name when missing or malformed.
pub fn parse_hex_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(parse_hex)
        .ok_or_else(|| format!("{key} must be a hex string"))
}

/// Reads field `key` of object `v` as a non-negative integer small enough
/// for exact `f64` representation.
///
/// # Errors
///
/// Reports the field name when missing or malformed.
pub fn parse_u64_field(v: &Value, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{key} must be a number"))?;
    if !(n >= 0.0 && n == n.trunc() && n < 9e15) {
        return Err(format!("{key} must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

/// Reads field `key` of object `v` as a `u32`: [`parse_u64_field`], then
/// a checked narrowing, so an out-of-range count is an error rather than
/// a silent wrap.
///
/// # Errors
///
/// Reports the field name when missing, malformed or above `u32::MAX`.
pub fn parse_u32_field(v: &Value, key: &str) -> Result<u32, String> {
    let n = parse_u64_field(v, key)?;
    u32::try_from(n).map_err(|_| format!("{key} must fit in 32 bits, got {n}"))
}

/// Order-sensitive digest fold: absorbs `next` into the accumulator the
/// same way the obs manifest folds config hashes (FNV-1a over the
/// concatenated little-endian words). Folding a sequence of per-item
/// digests this way yields a population digest that is sensitive to both
/// content and order, and can be resumed from any prefix — fold state IS
/// the digest, which is what lets fleet checkpoints carry per-shard
/// digests that extend across resumes.
pub fn fold_digest(acc: u64, next: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&acc.to_le_bytes());
    bytes[8..].copy_from_slice(&next.to_le_bytes());
    obs::fnv1a(&bytes)
}

/// FNV-1a digest of a value's `Debug` representation. The debug form
/// covers every field, so any structural divergence changes the hash;
/// repro cases and fleet shards both use this as their population
/// fingerprint.
pub fn digest_debug<T: std::fmt::Debug>(v: &T) -> u64 {
    obs::fnv1a(format!("{v:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        seed: u64,
        count: u64,
    }

    impl Persist for Sample {
        const KIND: &'static str = "persist_test_sample";
        const SCHEMA_VERSION: u64 = 3;

        fn accepts_version(version: u64) -> bool {
            (2..=3).contains(&version)
        }

        fn to_json(&self) -> Value {
            Value::object([
                ("schema_version", Value::from(Self::SCHEMA_VERSION)),
                ("kind", Value::from(Self::KIND)),
                ("seed", hex(self.seed)),
                ("count", Value::from(self.count)),
            ])
        }

        fn from_json(v: &Value) -> Result<Self, String> {
            Self::check_header(v)?;
            Ok(Sample {
                seed: parse_hex_field(v, "seed")?,
                count: parse_u64_field(v, "count")?,
            })
        }
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rf_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn round_trip_and_header_validation() {
        let s = Sample {
            seed: u64::MAX - 1,
            count: 42,
        };
        let text = s.to_json().to_pretty();
        assert_eq!(Sample::parse_str(&text).unwrap(), s);

        // Version inside the accepted window parses; outside is rejected.
        let old = text.replace("\"schema_version\": 3", "\"schema_version\": 2");
        assert!(Sample::parse_str(&old).is_ok());
        let ancient = text.replace("\"schema_version\": 3", "\"schema_version\": 1");
        let err = Sample::parse_str(&ancient).unwrap_err();
        assert!(err.contains("schema version 1"), "{err}");

        // Foreign kinds never decode.
        let foreign = text.replace("persist_test_sample", "metrics_snapshot");
        assert!(Sample::parse_str(&foreign).unwrap_err().contains("kind"));
    }

    #[test]
    fn load_reports_path_on_every_failure() {
        let missing = scratch_path("missing.json");
        let err = Sample::load(&missing).unwrap_err();
        assert!(err.contains("missing.json"), "{err}");

        let truncated = scratch_path("truncated.json");
        std::fs::write(&truncated, "{\"schema_version\": 3, \"kind\"").unwrap();
        let err = Sample::load(&truncated).unwrap_err();
        assert!(
            err.contains("truncated.json") && err.contains("JSON"),
            "{err}"
        );
        std::fs::remove_file(&truncated).unwrap();
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = scratch_path("save_dir");
        let path = dir.join("nested").join("artifact.json");
        let s = Sample {
            seed: 0xDEAD_BEEF,
            count: 7,
        };
        s.save(&path).unwrap();
        assert_eq!(Sample::load(&path).unwrap(), s);
        // No temp litter left behind.
        let entries: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "leftover temp files: {entries:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hex_round_trips_extremes() {
        for v in [0, 1, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(parse_hex(&hex(v)), Some(v));
        }
        assert_eq!(parse_hex(&Value::from(12.0)), None);
        assert_eq!(parse_hex(&Value::from("zz")), None);
    }

    #[test]
    fn parse_u64_field_rejects_lossy_numbers() {
        let v = Value::object([
            ("neg", Value::from(-1.0)),
            ("frac", Value::from(1.5)),
            ("big", Value::from(1e16)),
            ("ok", Value::from(12.0)),
        ]);
        assert!(parse_u64_field(&v, "neg").is_err());
        assert!(parse_u64_field(&v, "frac").is_err());
        assert!(parse_u64_field(&v, "big").is_err());
        assert_eq!(parse_u64_field(&v, "ok").unwrap(), 12);
        assert!(parse_u64_field(&v, "absent").is_err());
        let v = Value::object([
            ("wide", Value::from(4_294_967_298u64)),
            ("max", Value::from(u64::from(u32::MAX))),
            ("frac", Value::from(2.5)),
        ]);
        assert!(parse_u32_field(&v, "wide").unwrap_err().contains("wide"));
        assert_eq!(parse_u32_field(&v, "max").unwrap(), u32::MAX);
        assert!(parse_u32_field(&v, "frac").is_err());
    }

    #[test]
    fn fold_digest_is_order_sensitive_and_resumable() {
        let a = fold_digest(fold_digest(0, 1), 2);
        let b = fold_digest(fold_digest(0, 2), 1);
        assert_ne!(a, b, "fold must be order-sensitive");
        // Resuming the fold from a checkpointed accumulator continues the
        // same stream.
        let prefix = fold_digest(0, 1);
        assert_eq!(fold_digest(prefix, 2), a);
    }

    #[test]
    fn digest_debug_tracks_content() {
        assert_eq!(digest_debug(&(1u32, 2u32)), digest_debug(&(1u32, 2u32)));
        assert_ne!(digest_debug(&(1u32, 2u32)), digest_debug(&(1u32, 3u32)));
    }
}
