//! Corner-biased generators for scenarios and fault mixes.
//!
//! Uniform random extents almost never produce the fault shapes that
//! stress the repair planners: field studies of DDR4 DRAM report that a
//! large share of multi-cell faults are single-device multi-row clusters,
//! pin/column faults, and whole-bank failures. These generators use
//! [`Source::weighted`] to spend most of their probability mass on exactly
//! those corners while still covering the simple shapes, so a thousand
//! generated cases reach states a million uniform ones would miss.

use relaxfault_dram::{DramConfig, RankId};
use relaxfault_faults::{BankSet, Extent, FaultRegion};
use relaxfault_util::prop::Source;

/// A fault extent biased toward planner corner regions: multi-row
/// clusters, subarray column (pin) faults, and whole-bank faults dominate;
/// single-cell shapes keep a small share for contrast.
pub fn arb_corner_extent(src: &mut Source, cfg: &DramConfig) -> Extent {
    let bank = src.u32(0, cfg.banks - 1);
    match src.weighted(&[2, 1, 2, 4, 5, 2]) {
        0 => Extent::Bit {
            bank,
            row: src.u32(0, cfg.rows - 1),
            col: src.u32(0, cfg.cols - 1),
        },
        1 => Extent::Word {
            bank,
            row: src.u32(0, cfg.rows - 1),
            col: src.u32(0, cfg.cols - 1),
        },
        2 => Extent::Row {
            bank,
            row: src.u32(0, cfg.rows - 1),
        },
        3 => {
            // Pin/column fault: one column address through 1..=4 whole
            // subarrays, aligned the way the sense-amp stripes fail.
            let spans = cfg.rows / cfg.subarray_rows;
            let count = src.weighted(&[6, 2, 1, 1]) as u32 + 1; // 1..=4
            let count = count.min(spans);
            let start = src.u32(0, spans - count);
            Extent::Column {
                bank,
                col: src.u32(0, cfg.cols - 1),
                row_start: start * cfg.subarray_rows,
                row_count: count * cfg.subarray_rows,
            }
        }
        4 => {
            // Single-device multi-row cluster: mostly tight (2..=32 rows),
            // occasionally subarray-scale.
            let rows = match src.weighted(&[5, 3, 1]) {
                0 => src.u32(2, 32),
                1 => src.u32(33, 256),
                _ => src.u32(257, 2048),
            };
            Extent::RowCluster {
                bank,
                row_start: src.u32(0, cfg.rows - rows),
                row_count: rows,
            }
        }
        _ => {
            // Whole-bank up to whole-device.
            let banks = match src.weighted(&[4, 2, 1]) {
                0 => BankSet::one(bank),
                1 => {
                    let other = src.u32(0, cfg.banks - 1);
                    BankSet(BankSet::one(bank).0 | BankSet::one(other).0)
                }
                _ => BankSet::all(cfg.banks),
            };
            Extent::Banks { banks }
        }
    }
}

/// A region on a random existing (rank, device), with a corner-biased
/// extent.
pub fn arb_corner_region(src: &mut Source, cfg: &DramConfig) -> FaultRegion {
    FaultRegion {
        rank: RankId {
            channel: src.u32(0, cfg.channels - 1),
            dimm: src.u32(0, cfg.dimms_per_channel - 1),
            rank: src.u32(0, cfg.ranks_per_dimm - 1),
        },
        device: src.u32(0, cfg.devices_per_rank() - 1),
        extent: arb_corner_extent(src, cfg),
    }
}

/// A sequence of fault offers (each one fault = one or two regions, as
/// multi-rank faults produce) to drive a planner through, shrinking toward
/// fewer and simpler offers.
pub fn arb_offer_sequence(src: &mut Source, cfg: &DramConfig) -> Vec<Vec<FaultRegion>> {
    src.vec(1, 6, |s| {
        let first = arb_corner_region(s, cfg);
        if s.weighted(&[5, 1]) == 1 {
            // A sibling region on another rank of the same coordinates,
            // like a multi-rank DIMM fault.
            let mut sibling = first;
            sibling.rank.rank = (sibling.rank.rank + 1) % cfg.ranks_per_dimm.max(1);
            if sibling.rank != first.rank {
                return vec![first, sibling];
            }
        }
        vec![first]
    })
}

/// A per-set way limit, biased low (tight budgets exercise rejection and
/// rollback far more often than the full 16-way budget).
pub fn arb_max_ways(src: &mut Source) -> u32 {
    [1, 2, 4, 16][src.weighted(&[5, 3, 2, 1])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_regions_stay_in_geometry() {
        let cfg = DramConfig::isca16_reliability();
        relaxfault_util::prop::check(300, |src| {
            for offer in arb_offer_sequence(src, &cfg) {
                for r in &offer {
                    if let Err(e) = r.check_geometry(&cfg) {
                        relaxfault_util::prop_assert!(false, "out of geometry: {e}");
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn generator_reaches_every_corner_shape() {
        let cfg = DramConfig::isca16_reliability();
        let mut seen = [false; 6];
        relaxfault_util::prop::check(400, |src| {
            match arb_corner_extent(src, &cfg) {
                Extent::Bit { .. } => seen[0] = true,
                Extent::Word { .. } => seen[1] = true,
                Extent::Row { .. } => seen[2] = true,
                Extent::Column { .. } => seen[3] = true,
                Extent::RowCluster { .. } => seen[4] = true,
                Extent::Banks { .. } => seen[5] = true,
            }
            Ok(())
        });
        assert!(seen.iter().all(|&s| s), "missing shapes: {seen:?}");
    }
}
