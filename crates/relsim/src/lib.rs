//! Monte Carlo reliability and availability simulation (paper §4.1, §5.1).
//!
//! Drives everything the paper's Figures 8–14 report: repair coverage
//! versus LLC budget, expected DUEs and SDCs per 16,384-node system over a
//! 6-year lifetime, and DIMM replacements under two maintenance policies.
//!
//! * [`scenario`] — a [`scenario::Scenario`] bundles the memory geometry,
//!   fault model, ECC model, repair mechanism, and replacement policy of
//!   one experimental arm.
//! * [`node`] — replays one node's sampled fault timeline against a
//!   scenario: classify each arrival against live faults (DUE/SDC), apply
//!   repair, apply the replacement policy.
//! * [`engine`] — samples node lifetimes once and evaluates every scenario
//!   arm on the *same* fault population (the paper's methodology),
//!   in parallel across threads.
//! * [`fleet`] — scales the engine to operator fleets: sharded population,
//!   epoch-by-epoch incremental re-evaluation of dirty nodes, and
//!   bit-exact checkpoint/resume through schema-versioned
//!   [`fleet::FleetCheckpoint`] files.
//!
//! # Examples
//!
//! ```
//! use relaxfault_relsim::engine::{run_scenarios, RunConfig};
//! use relaxfault_relsim::scenario::{Mechanism, Scenario};
//!
//! let base = Scenario::isca16_baseline();
//! let arms = vec![
//!     base.clone().with_mechanism(Mechanism::None),
//!     base.with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
//! ];
//! let results = run_scenarios(&arms, &RunConfig { trials: 200, seed: 7, threads: 2 , chunk_size: 0});
//! assert_eq!(results.len(), 2);
//! ```

pub mod engine;
pub mod fleet;
pub mod node;
pub mod repro;
pub mod scenario;

pub use engine::{run_scenarios, RunConfig, ScenarioResult};
pub use fleet::{CrashPoint, FleetCheckpoint, FleetConfig, FleetMetrics, FleetSim};
pub use node::{
    evaluate_events_with, evaluate_node, evaluate_node_with, plan_events, replay_events,
    EvalScratch, EventPlan, NodeOutcome,
};
pub use repro::ReproCase;
pub use scenario::{Mechanism, ReplacementPolicy, Scenario};
