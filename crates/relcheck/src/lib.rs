//! Correctness subsystem for the RelaxFault reproduction: differential
//! oracles, invariant checks, and deterministic failing-trial replay.
//!
//! The production planners and Monte Carlo engine are heavily optimised —
//! XOR-delta candidate enumeration, one-pass rollback occupancy, scratch
//! reuse, zero-fault fast paths, work-stealing scheduling. Each
//! optimisation is an opportunity for a silent divergence that a
//! statistics-level test would never notice. This crate pins them down:
//!
//! * [`oracle`] — naive re-implementations of every optimised path
//!   (direct encoding, ordered maps, two-pass check-then-commit,
//!   allocate-everything evaluation, a single-threaded engine), asserted
//!   bit-identical to production under corner-biased generated workloads;
//! * [`gen`] — `util::prop` generators biased toward the DDR4 field-study
//!   corner regions (multi-row clusters, pin/column faults, whole-bank
//!   faults) that stress the planners hardest;
//! * [`replay`] — re-execution of persisted
//!   [`relaxfault_relsim::repro::ReproCase`] files, proving bit-exact
//!   reproduction by fault-population digest (engine cases) or by
//!   re-failing the decoded property (oracle cases).
//! * [`threadmatrix`] — the scheduling-determinism gate: one pinned
//!   scenario mix digested at 1, 2 and 4 worker threads, all three
//!   digests required identical.
//!
//! The `relcheck` binary drives the entry points CI uses:
//! `relcheck smoke` runs every oracle property at a reduced case count,
//! `relcheck replay <case.json>` re-executes a persisted failure and
//! prints each arm's outcome, and `relcheck thread-matrix` emits the
//! thread determinism verdict JSON.

pub mod gen;
pub mod oracle;
pub mod replay;
pub mod threadmatrix;

pub use oracle::{check_with_repro, run_smoke, PROP_CASES};
pub use replay::{load_any, replay, replay_fleet, LoadedCase, ReplayReport};
pub use threadmatrix::{run_thread_matrix, ThreadMatrixVerdict};
