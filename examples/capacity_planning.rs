//! Capacity planning: how many LLC ways should a deployment budget for
//! repair, and what does each budget buy?
//!
//! Sweeps the per-set way limit and prints, for every fault shape the
//! field studies report, whether the mechanism can repair it and at what
//! LLC cost — then the fleet-level coverage each budget achieves.
//!
//! ```bash
//! cargo run --release --example capacity_planning -- 20000
//! ```

use relaxfault::prelude::*;
use relaxfault::util::table::{format_bytes, format_pct, Table};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let dram = DramConfig::isca16_reliability();
    let llc = CacheConfig::isca16_llc();
    let rank = RankId {
        channel: 0,
        dimm: 0,
        rank: 0,
    };

    // Per-shape repair costs across way budgets.
    let shapes: Vec<(&str, Extent)> = vec![
        (
            "single bit",
            Extent::Bit {
                bank: 0,
                row: 10,
                col: 20,
            },
        ),
        ("single row", Extent::Row { bank: 0, row: 10 }),
        (
            "column (1 subarray)",
            Extent::Column {
                bank: 0,
                col: 8,
                row_start: 0,
                row_count: 512,
            },
        ),
        (
            "cluster (64 rows)",
            Extent::RowCluster {
                bank: 0,
                row_start: 0,
                row_count: 64,
            },
        ),
        (
            "cluster (1024 rows)",
            Extent::RowCluster {
                bank: 0,
                row_start: 0,
                row_count: 1024,
            },
        ),
        (
            "whole bank",
            Extent::Banks {
                banks: relaxfault::faults::BankSet::one(0),
            },
        ),
    ];
    let mut t = Table::new(&["fault shape", "1-way", "4-way", "16-way", "FreeFault 4-way"]);
    for (name, extent) in &shapes {
        let fault = FaultRegion {
            rank,
            device: 3,
            extent: *extent,
        };
        let mut cells = vec![name.to_string()];
        for ways in [1, 4, 16] {
            let mut rf = RelaxFault::new(&dram, &llc, ways);
            cells.push(if rf.try_repair(&[fault]) {
                format_bytes(rf.bytes_used())
            } else {
                "unrepairable".into()
            });
        }
        let mut ff = FreeFault::new(&dram, &llc, 4);
        cells.push(if ff.try_repair(&[fault]) {
            format_bytes(ff.bytes_used())
        } else {
            "unrepairable".into()
        });
        t.row(&cells);
    }
    println!("== per-fault repair cost (LLC bytes locked) ==");
    print!("{}", t.render());

    // Fleet-level coverage per budget.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms: Vec<Scenario> = [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|w| {
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: w })
        })
        .collect();
    let results = run_scenarios(
        &arms,
        &RunConfig {
            trials,
            seed: 7,
            threads,
            chunk_size: 0,
        },
    );
    let mut t2 = Table::new(&["way limit", "coverage", "LLC @ p90", "LLC @ p99"]);
    for (w, r) in [1u32, 2, 4, 8, 16].into_iter().zip(&results) {
        let p90 = r
            .bytes_for_coverage(0.90)
            .map(format_bytes)
            .unwrap_or_else(|| "-".into());
        let p99 = r
            .bytes_for_coverage(0.99)
            .map(format_bytes)
            .unwrap_or_else(|| "-".into());
        t2.row(&[format!("{w}"), format_pct(r.coverage()), p90, p99]);
    }
    println!("\n== fleet coverage vs way budget ({trials} node lifetimes) ==");
    print!("{}", t2.render());
    println!("\nreading: the paper deploys 1 way (90% coverage, <100 KiB) or 4 ways (~97%).");
}
