//! Fleet reliability study: what does RelaxFault buy a 16,384-node
//! supercomputer over six years?
//!
//! Compares no repair, DDR4 post-package repair, FreeFault, and RelaxFault
//! on one shared Monte Carlo fault population and reports repair coverage,
//! DUEs, SDCs, and DIMM replacements.
//!
//! ```bash
//! cargo run --release --example fleet_reliability -- 50000
//! ```

use relaxfault::prelude::*;
use relaxfault::util::table::{format_bytes, format_pct, Table};

const NODES: u64 = 16_384;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let base = Scenario::isca16_baseline(); // ReplA maintenance
    let arms = vec![
        base.clone(),
        base.clone().with_mechanism(Mechanism::Ppr),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    println!(
        "simulating {trials} node lifetimes × {} arms on {threads} threads ...",
        arms.len()
    );
    let t0 = std::time::Instant::now();
    let results = run_scenarios(
        &arms,
        &RunConfig {
            trials,
            seed: 42,
            threads,
            chunk_size: 0,
        },
    );
    println!("done in {:?}\n", t0.elapsed());

    let mut t = Table::new(&[
        "mechanism",
        "coverage",
        "LLC @ p90",
        "DUEs/system",
        "SDCs/system",
        "replacements",
    ]);
    let baseline_dues = results[0].dues_per_system(NODES);
    let baseline_repl = results[0].replacements_per_system(NODES).max(1e-9);
    for r in &results {
        let p90 = r
            .bytes_for_coverage(0.90)
            .map(format_bytes)
            .unwrap_or_else(|| "-".into());
        t.row(&[
            r.label.clone(),
            format_pct(r.coverage()),
            p90,
            format!("{:.2}", r.dues_per_system(NODES)),
            format!("{:.4}", r.sdcs_per_system(NODES)),
            format!("{:.2}", r.replacements_per_system(NODES)),
        ]);
    }
    print!("{}", t.render());

    let rf = &results[4];
    println!(
        "\nRelaxFault-4way: {} fewer DUEs and {} of the module replacements avoided",
        format_pct((baseline_dues - rf.dues_per_system(NODES)) / baseline_dues.max(1e-9)),
        format_pct(1.0 - rf.replacements_per_system(NODES) / baseline_repl),
    );
    println!(
        "worst per-set repair occupancy seen anywhere: {} way(s)",
        rf.max_ways_seen
    );
}
