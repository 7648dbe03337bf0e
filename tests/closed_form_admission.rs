//! Closed-form admission against enumeration. A fault offered to an empty
//! LLC planner in one region and one bank is decided from GF(2) ranks and
//! kept pending; its lines are written out only when a later offer or a
//! view needs them. Verdicts and full occupancy state must equal the naive
//! enumerating planners' after that first offer, and again after a second
//! offer that overlaps the pending fault, collides with it in sets, or
//! misses it.

use relaxfault::prelude::*;
use relaxfault_relcheck::check_with_repro;
use relaxfault_relcheck::oracle::{
    compare_free, compare_relax, free_oracle_property, relax_oracle_property, NaiveFree, NaiveRelax,
};

const WAY_LIMITS: [u32; 4] = [1, 2, 4, 16];

fn dram() -> DramConfig {
    DramConfig::isca16_reliability()
}

fn llcs() -> [CacheConfig; 2] {
    [CacheConfig::isca16_llc(), CacheConfig::isca16_llc_no_hash()]
}

fn region(device: u32, extent: Extent) -> FaultRegion {
    FaultRegion {
        rank: RankId {
            channel: 1,
            dimm: 1,
            rank: 0,
        },
        device,
        extent,
    }
}

/// One production planner and its naive reference, offered the same
/// faults.
trait Pair: Clone {
    fn offer(&mut self, regions: &[FaultRegion]) -> Result<bool, String>;
    fn compare(&mut self) -> Result<(), String>;
    fn check_invariants(&self) -> Result<(), String>;
}

#[derive(Clone)]
struct Relax(RelaxFault, NaiveRelax);

#[derive(Clone)]
struct Free(FreeFault, NaiveFree);

impl Pair for Relax {
    fn offer(&mut self, regions: &[FaultRegion]) -> Result<bool, String> {
        let (a, b) = (self.0.try_repair(regions), self.1.try_repair(regions));
        if a == b {
            Ok(a)
        } else {
            Err(format!("verdict {a}, naive {b}"))
        }
    }

    fn compare(&mut self) -> Result<(), String> {
        compare_relax(&mut self.0, &self.1)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

impl Pair for Free {
    fn offer(&mut self, regions: &[FaultRegion]) -> Result<bool, String> {
        let (a, b) = (self.0.try_repair(regions), self.1.try_repair(regions));
        if a == b {
            Ok(a)
        } else {
            Err(format!("verdict {a}, naive {b}"))
        }
    }

    fn compare(&mut self) -> Result<(), String> {
        compare_free(&mut self.0, &self.1)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

/// Offers `first` to a fresh pair, checks the pending state (its
/// invariants cross-check the closed form by enumeration) and, on a copy,
/// the written-out state; then offers each of `seconds` to a copy of the
/// still-pending pair and checks again.
fn check_offers(fresh: &impl Pair, first: FaultRegion, seconds: &[FaultRegion]) {
    let ctx = |what: &str, e: String| format!("{what} after {first:?}: {e}");
    let mut pair = fresh.clone();
    pair.offer(&[first])
        .unwrap_or_else(|e| panic!("{}", ctx("first offer", e)));
    pair.check_invariants()
        .unwrap_or_else(|e| panic!("{}", ctx("pending invariants", e)));
    pair.clone()
        .compare()
        .unwrap_or_else(|e| panic!("{}", ctx("first state", e)));
    for &second in seconds {
        let mut next = pair.clone();
        let ctx = |what: &str, e: String| ctx(&format!("{what} of {second:?}"), e);
        next.offer(&[second])
            .unwrap_or_else(|e| panic!("{}", ctx("second offer", e)));
        next.check_invariants()
            .unwrap_or_else(|e| panic!("{}", ctx("invariants", e)));
        next.compare()
            .unwrap_or_else(|e| panic!("{}", ctx("second state", e)));
    }
}

/// Second offers against `first`: the same fault again, a bit inside its
/// first row, the same extent on another device (under unhashed indexing
/// the device is pure tag, so every line collides set for set), and a row
/// in another bank that shares no line.
fn seconds_for(first: FaultRegion) -> Vec<FaultRegion> {
    let rect = first.footprint(&dram());
    let bank = rect.banks.0.trailing_zeros();
    let row = rect.rows.iter().next().unwrap_or(0);
    let mut colliding = first;
    colliding.device = (first.device + 5) % dram().devices_per_rank();
    vec![
        first,
        FaultRegion {
            extent: Extent::Bit { bank, row, col: 37 },
            ..first
        },
        colliding,
        FaultRegion {
            extent: Extent::Row {
                bank: (bank + 1) % dram().banks,
                row: 12_345,
            },
            ..first
        },
    ]
}

/// Checks `first` on both planners, followed by every second offer from
/// [`seconds_for`] or only the `second`-th one.
fn check_both_planners(first: FaultRegion, llc: &CacheConfig, ways: u32, second: Option<usize>) {
    let d = dram();
    let mut seconds = seconds_for(first);
    if let Some(i) = second {
        seconds = vec![seconds[i]];
    }
    let relax = Relax(
        RelaxFault::new(&d, llc, ways),
        NaiveRelax::new(&d, llc, ways),
    );
    check_offers(&relax, first, &seconds);
    let free = Free(FreeFault::new(&d, llc, ways), NaiveFree::new(&d, llc, ways));
    check_offers(&free, first, &seconds);
}

/// The long sweeps check one (LLC, way limit, second offer) combination
/// per case; every 32 consecutive cases cover all of them.
fn check_sweep_case(case: usize, first: FaultRegion) {
    let llc = llcs()[case % 2];
    let ways = WAY_LIMITS[case / 2 % WAY_LIMITS.len()];
    check_both_planners(first, &llc, ways, Some(case / 8 % 4));
}

#[test]
fn every_extent_shape_matches_enumeration() {
    let shapes = [
        Extent::Bit {
            bank: 3,
            row: 777,
            col: 129,
        },
        Extent::Word {
            bank: 0,
            row: 65_535,
            col: 2040,
        },
        Extent::Row { bank: 5, row: 300 },
        Extent::Column {
            bank: 1,
            col: 40,
            row_start: 1024,
            row_count: 1536,
        },
        Extent::RowCluster {
            bank: 7,
            row_start: 250,
            row_count: 700,
        },
        Extent::Banks {
            banks: relaxfault::faults::BankSet::one(2),
        },
        Extent::Banks {
            banks: relaxfault::faults::BankSet::all(8),
        },
    ];
    for extent in shapes {
        for llc in llcs() {
            for ways in WAY_LIMITS {
                check_both_planners(region(4, extent), &llc, ways, None);
            }
        }
    }
}

#[test]
fn unaligned_row_clusters_match_enumeration() {
    let mut case = 0;
    for rows in [16, 17, 100, 255, 511, 513, 1000, 1531, 2047, 2048] {
        for start in [1, 3, 255, 4097, 65_535 - rows] {
            for _ in 0..2 {
                let cluster = Extent::RowCluster {
                    bank: 6,
                    row_start: start,
                    row_count: rows,
                };
                let device = case as u32 % dram().devices_per_rank();
                check_sweep_case(case, region(device, cluster));
                case += 1;
            }
        }
    }
}

#[test]
fn subarray_columns_at_every_offset_match_enumeration() {
    let d = dram();
    let subarrays = d.rows / d.subarray_rows;
    let mut case = 0;
    for count in 1..=4 {
        for first in 0..=subarrays - count {
            let column = Extent::Column {
                bank: 2,
                col: (first * 37) % d.cols,
                row_start: first * d.subarray_rows,
                row_count: count * d.subarray_rows,
            };
            check_sweep_case(case, region(first % d.devices_per_rank(), column));
            case += 1;
        }
    }
}

#[test]
fn relax_oracle_property_holds() {
    check_with_repro("relax_oracle", 200, relax_oracle_property);
}

#[test]
fn free_oracle_property_holds() {
    check_with_repro("free_oracle", 200, free_oracle_property);
}
