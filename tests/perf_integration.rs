//! Integration of the performance simulator with the cache and DRAM
//! substrates: the qualitative Figure 15/16 story holds end to end.

use relaxfault::perfsim::workload::{catalog, CoreSpec, Pattern, Region, Workload};
use relaxfault::perfsim::SimResult;
use relaxfault::prelude::*;
use relaxfault::util::obs::fnv1a;

fn cfg(instr: u64) -> SimConfig {
    SimConfig {
        instructions_per_core: instr,
        ..SimConfig::isca16()
    }
}

/// 100 KiB of scattered repair lines — the paper's realistic repair
/// footprint — costs every workload essentially nothing.
#[test]
fn realistic_repair_footprint_is_free() {
    let cfg = cfg(60_000);
    for w in [catalog::lulesh(), catalog::cg(), catalog::spec_mem()] {
        let full = Simulation::run(&cfg, &w, CapacityLoss::None, 3);
        let repaired = Simulation::run(&cfg, &w, CapacityLoss::RandomLines { bytes: 100 << 10 }, 3);
        let ratio = repaired.throughput_ipc() / full.throughput_ipc();
        assert!(
            ratio > 0.95,
            "{}: 100 KiB cost ratio {ratio:.3} should be ~1",
            w.name
        );
    }
}

/// The capacity-sensitive workload is hurt more by 4 locked ways than the
/// compute-bound mix (Figure 15's one visible bar drop).
#[test]
fn lulesh_is_the_sensitive_one() {
    // Long enough to warm LULESH's multi-MiB hot set (~10 reuses/line).
    let cfg = cfg(300_000);
    let drop = |w: &relaxfault::perfsim::Workload| {
        let full = Simulation::run(&cfg, w, CapacityLoss::None, 3).throughput_ipc();
        let cut = Simulation::run(&cfg, w, CapacityLoss::Ways(4), 3).throughput_ipc();
        1.0 - cut / full
    };
    let lulesh_drop = drop(&catalog::lulesh());
    let cg_drop = drop(&catalog::cg());
    assert!(
        lulesh_drop > cg_drop,
        "LULESH ({lulesh_drop:.3}) must be more sensitive than CG ({cg_drop:.3})"
    );
    assert!(lulesh_drop > 0.03, "LULESH must show a perceptible drop");
}

/// DRAM op counting feeds the power model: more misses, more energy.
#[test]
fn power_tracks_misses() {
    let cfg = cfg(120_000);
    let w = catalog::lulesh();
    let full = Simulation::run(&cfg, &w, CapacityLoss::None, 3);
    let cut = Simulation::run(&cfg, &w, CapacityLoss::Ways(4), 3);
    assert!(cut.op_counts.reads > full.op_counts.reads);
    let e = SimConfig::isca16().energy;
    assert!(e.dynamic_energy_nj(&cut.op_counts) > e.dynamic_energy_nj(&full.op_counts));
}

/// Weighted speedup is bounded by core count and consistent with solo
/// runs.
#[test]
fn weighted_speedup_sane() {
    let cfg = cfg(60_000);
    let w = catalog::lu();
    let solo = {
        let alone = relaxfault::perfsim::Workload {
            name: "solo".into(),
            cores: vec![w.cores[0].clone()],
        };
        Simulation::run(&cfg, &alone, CapacityLoss::None, 3).per_core[0].ipc
    };
    let shared = Simulation::run(&cfg, &w, CapacityLoss::None, 3);
    let ws = WeightedSpeedup::compute(&[solo; 8], &shared);
    assert!(ws.0 > 0.0 && ws.0 <= 8.05, "weighted speedup {ws}");
}

/// Appends every field of a run to `bytes`: per-core names, instruction
/// counts and cycle and IPC bits, DRAM op counts, elapsed-cycle bits,
/// clock and LLC statistics.
fn fold(bytes: &mut Vec<u8>, r: &SimResult) {
    for c in &r.per_core {
        bytes.extend(c.name.as_bytes());
        for v in [c.instructions, c.cycles.to_bits(), c.ipc.to_bits()] {
            bytes.extend(v.to_le_bytes());
        }
    }
    let (o, l) = (&r.op_counts, &r.llc_stats);
    for v in [
        o.activates,
        o.precharges,
        o.reads,
        o.writes,
        o.refreshes,
        r.elapsed_cycles.to_bits(),
        r.core_mhz as u64,
        l.hits,
        l.misses,
        l.bypasses,
        l.writebacks,
    ] {
        bytes.extend(v.to_le_bytes());
    }
}

/// Pins the simulator's statistics bit for bit, so that a change that
/// moves any Figs 15/16 number fails here. The digest covers the Fig. 15
/// capacity sweep (all four losses) on the Table 3 machine, and a 256 KiB
/// LLC whose hot set overflows it, where LLC evictions, dirty writebacks
/// and locked ways all occur. A change meant to move the figures
/// re-records the constant and says why.
#[test]
fn figs_15_16_statistics_are_pinned() {
    let mut bytes = Vec::new();
    let table3 = cfg(3_000);
    for loss in [
        CapacityLoss::None,
        CapacityLoss::RandomLines { bytes: 100 << 10 },
        CapacityLoss::Ways(1),
        CapacityLoss::Ways(4),
    ] {
        fold(
            &mut bytes,
            &Simulation::run(&table3, &catalog::lulesh(), loss, 2016),
        );
    }

    let small = SimConfig {
        llc: CacheConfig {
            size_bytes: 256 << 10,
            ways: 16,
            line_bytes: 64,
            indexing: Indexing::XorFold { rotation: 5 },
        },
        ..cfg(4_000)
    };
    let spec = CoreSpec {
        name: "overflow".into(),
        mem_ratio: 0.4,
        write_frac: 0.3,
        regions: vec![
            Region {
                weight: 0.8,
                bytes: 448 << 10,
                pattern: Pattern::Random,
                shared: true,
            },
            Region {
                weight: 0.2,
                bytes: 64 << 20,
                pattern: Pattern::Stream,
                shared: true,
            },
        ],
    };
    let w = Workload::threaded("overflow", spec, 8);
    let r = Simulation::run(&small, &w, CapacityLoss::Ways(4), 2016);
    assert!(
        r.llc_stats.misses > small.llc.total_lines(),
        "more misses than lines means LLC evictions"
    );
    assert!(
        r.llc_stats.writebacks > 0,
        "dirty LLC lines must be written back"
    );
    assert!(r.op_counts.writes > 0);
    fold(&mut bytes, &r);

    assert_eq!(
        fnv1a(&bytes),
        0xa117_089d_16c7_2e4b,
        "Figs 15/16 statistics moved"
    );
}
