//! End-to-end and per-layer benchmark of the RelaxFault reproduction.
//!
//! Four workloads ([`workloads::Workload`]) exercise the simulator's
//! layers — `faults`, `ecc`, `core`, `relsim`, `perfsim` and
//! `util::persist` — in different proportions. An untimed warm-up and a
//! series of identical timed repetitions give the end-to-end metrics
//! ([`run::measure`]); a separate single-threaded replay with spans around
//! every call into a layer gives the per-layer metrics
//! ([`run::measure_traced`]). See `README.md` for the metric dictionary.

pub mod calibrate;
pub mod compare;
pub mod guard;
pub mod heap;
pub mod replay;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The `kind` tag of result files.
pub const RESULT_KIND: &str = "relaxfault_benchmark_result";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}
