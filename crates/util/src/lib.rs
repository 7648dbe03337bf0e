//! Shared utilities for the RelaxFault reproduction workspace.
//!
//! This crate has **zero external dependencies** — it is the layer that
//! keeps the whole workspace building and testing fully offline. It
//! provides the ingredients every other crate needs:
//!
//! * [`bits`] — bit-field scatter/gather and linear maps over GF(2). DRAM and
//!   cache address mappings (including XOR set-index hashing) are linear
//!   transforms of address bits, so we model them as such and can *prove*
//!   properties (bijectivity, rank) instead of hoping.
//! * [`rng`] — deterministic pseudo-random generation (SplitMix64 seeding,
//!   xoshiro256\*\* core) behind the narrow [`rng::Rng`] trait the
//!   simulators are written against, validated by published test vectors.
//! * [`dist`] — the random distributions the Monte Carlo fault model needs
//!   (Poisson, lognormal, log-uniform), implemented directly on top of
//!   [`rng`] so numeric behaviour is documented and reproducible.
//! * [`persist`] — schema-versioned, kind-tagged JSON persistence with
//!   atomic writes and shared digest helpers; repro cases and fleet
//!   checkpoints both implement its [`persist::Persist`] trait.
//! * [`prop`] — a seeded property-test harness (generators over a recorded
//!   choice stream, with shrinking) the invariant suites run on.
//! * [`json`] — a minimal JSON value/emitter/parser for machine-readable
//!   results and scenario dumps.
//! * [`obs`] — structured observability: leveled event tracing into
//!   bounded per-thread rings with a deterministic merged stream, a
//!   metrics registry (counters, gauges, log-linear histograms), RAII span
//!   timers, and text/JSON sinks, all gated to be free when disabled.
//! * [`crashdump`] — copies the trace rings, metrics, and manifest into a
//!   schema-versioned `crash_dump` artifact on panic or injected crash,
//!   with the newest durable fleet checkpoint embedded for replay.
//! * [`history`] — the append-only cross-run perf-history ledger, the
//!   workspace's one run registry.
//! * [`hash`] — a fast deterministic (non-cryptographic) hasher plus
//!   `HashMap`/`HashSet` aliases for hot-loop lookups.
//! * [`stats`] — streaming summaries, empirical CDFs, and binomial confidence
//!   intervals used by every experiment harness.
//! * [`table`] — minimal fixed-width table/CSV rendering for the
//!   figure-regeneration binaries.
//! * [`timing`] — a tiny calibrated wall-clock harness for the bench
//!   targets.
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::bits::BitMatrix;
//!
//! // A 2-bit swap is a bijective linear map.
//! let swap = BitMatrix::from_rows(2, &[0b10, 0b01]);
//! assert_eq!(swap.apply(0b01), 0b10);
//! assert!(swap.is_invertible());
//! ```

pub mod bits;
pub mod crashdump;
pub mod dist;
pub mod hash;
pub mod history;
pub mod json;
pub mod obs;
pub mod persist;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timing;
