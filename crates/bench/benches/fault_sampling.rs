//! Monte Carlo sampling throughput: the reference per-process sampler vs
//! the gate-accelerated one (the 16.4-billion-trial bottleneck), and the
//! gate-accelerated sampler's conditional path on its own.

use relaxfault_dram::DramConfig;
use relaxfault_faults::sampler::FaultSampler;
use relaxfault_faults::{FaultModel, FitRates, NodeFaults};
use relaxfault_util::rng::{Rng, Rng64};
use relaxfault_util::timing::{black_box, Harness};

/// Streams whose zero-fault gate fails, so a conditional-path row times
/// faulty lifetimes only.
const FAULTY_STREAMS: usize = 4096;

fn main() {
    let mut h = Harness::new();
    let cfg = DramConfig::isca16_reliability();
    let model = FaultModel::isca16(FitRates::cielo(), 6.0);
    let mut rng = Rng64::seed_from_u64(1);
    h.bench("sample_node_reference", || {
        black_box(model.sample_node(&cfg, &mut rng))
    });
    let fast = FaultSampler::new(&model, &cfg);
    let mut rng = Rng64::seed_from_u64(1);
    h.bench("sample_node_gated", || {
        black_box(fast.sample_node(&mut rng))
    });

    // ns per faulty lifetime: the gate draw, then `sample_faulty_into`,
    // cycling over the first FAULTY_STREAMS seeds whose gate fails.
    for (name, scale) in [("sample_faulty_1x", 1.0), ("sample_faulty_10x", 10.0)] {
        let model = FaultModel::isca16(FitRates::cielo().scaled(scale), 6.0);
        let sampler = FaultSampler::new(&model, &cfg);
        let seeds: Vec<u64> = (0..)
            .filter(|&s| !sampler.trial_is_clean(&mut Rng64::seed_from_u64(s)))
            .take(FAULTY_STREAMS)
            .collect();
        let mut node = NodeFaults::default();
        let mut draws = 0usize;
        for &s in &seeds {
            let start = Rng64::seed_from_u64(s);
            let mut rng = start.clone();
            sampler.sample_node_into(&mut rng, &mut node);
            draws += draws_between(start, &rng);
        }
        let mut next = seeds.iter().cycle();
        h.bench(name, || {
            let mut rng = Rng64::seed_from_u64(*next.next().expect("cycle"));
            sampler.sample_node_into(&mut rng, &mut node);
            black_box(node.events.len())
        });
        println!(
            "{name}: {:.0} generator draws per faulty lifetime",
            draws as f64 / seeds.len() as f64
        );
    }
}

/// How many `next_u64` steps take `rng` to the state `end`.
fn draws_between(mut rng: Rng64, end: &Rng64) -> usize {
    let mut n = 0;
    while rng != *end {
        rng.next_u64();
        n += 1;
    }
    n
}
