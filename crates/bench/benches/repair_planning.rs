//! Repair-planning throughput per fault shape and mechanism — the work a
//! node does each time a permanent fault is discovered. Each planner is
//! built once and `reset()` before every iteration, as the engine reuses
//! one planner per key across trials, so an iteration times planning and
//! not the planner's construction.

use relaxfault_cache::CacheConfig;
use relaxfault_core::plan::{FreeFault, PlanScratch, Ppr, RelaxFault, RepairMechanism};
use relaxfault_dram::{DramConfig, RankId};
use relaxfault_faults::{Extent, FaultRegion};
use relaxfault_util::timing::{black_box, Harness};

fn region(device: u32, extent: Extent) -> FaultRegion {
    FaultRegion {
        rank: RankId {
            channel: 0,
            dimm: 0,
            rank: 0,
        },
        device,
        extent,
    }
}

/// Times one offer of `fault` to a reset planner.
fn bench_offer(
    h: &mut Harness,
    name: &str,
    planner: &mut dyn RepairMechanism,
    fault: FaultRegion,
    scratch: &mut PlanScratch,
) {
    h.bench(name, || {
        planner.reset();
        black_box(planner.try_repair_with(&[fault], scratch))
    });
}

/// Times the case that dominates planning at 10x FIT: a bit fault decided
/// in closed form and left pending, then a row cluster of `rows` rows in
/// another bank, whose offer writes the bit out and enumerates the
/// cluster's 8,192 lines. Prints the cluster's verdict and the time per
/// line offered, the bit's included.
fn bench_write_out(
    h: &mut Harness,
    name: &str,
    planner: &mut dyn RepairMechanism,
    rows: u32,
    scratch: &mut PlanScratch,
) {
    let bit = region(
        3,
        Extent::Bit {
            bank: 0,
            row: 1,
            col: 2,
        },
    );
    let cluster = region(
        3,
        Extent::RowCluster {
            bank: 1,
            row_start: 0,
            row_count: rows,
        },
    );
    let mut offer = || {
        planner.reset();
        planner.try_repair_with(&[bit], scratch);
        planner.try_repair_with(&[cluster], scratch)
    };
    let verdict = if offer() { "accepted" } else { "rejected" };
    h.bench(name, || black_box(offer()));
    let ns = h.results().last().map_or(0.0, |r| r.median_ns);
    println!(
        "{name}: cluster {verdict}, {:.2} ns per line offered",
        ns / 8193.0
    );
}

fn main() {
    let mut h = Harness::new();
    let dram = DramConfig::isca16_reliability();
    let llc = CacheConfig::isca16_llc();
    let mut scratch = PlanScratch::new();
    let shapes: Vec<(&str, Extent)> = vec![
        (
            "bit",
            Extent::Bit {
                bank: 0,
                row: 1,
                col: 2,
            },
        ),
        ("row", Extent::Row { bank: 1, row: 7 }),
        (
            "column",
            Extent::Column {
                bank: 2,
                col: 40,
                row_start: 0,
                row_count: 512,
            },
        ),
        (
            "cluster64",
            Extent::RowCluster {
                bank: 3,
                row_start: 0,
                row_count: 64,
            },
        ),
    ];
    let mut rf = RelaxFault::new(&dram, &llc, 4);
    for (name, extent) in &shapes {
        let name = format!("relaxfault_plan_{name}");
        bench_offer(&mut h, &name, &mut rf, region(3, *extent), &mut scratch);
    }
    let row = region(3, Extent::Row { bank: 1, row: 7 });
    let mut ff = FreeFault::new(&dram, &llc, 4);
    bench_offer(&mut h, "freefault_plan_row", &mut ff, row, &mut scratch);
    let mut ppr = Ppr::new(&dram);
    bench_offer(&mut h, "ppr_plan_row", &mut ppr, row, &mut scratch);
    bench_write_out(&mut h, "relaxfault_write_out", &mut rf, 512, &mut scratch);
    bench_write_out(&mut h, "freefault_write_out", &mut ff, 32, &mut scratch);
}
