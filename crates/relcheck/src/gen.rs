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
use relaxfault_faults::{BankSet, Extent, FaultRegion, IdxSet};
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

/// A sequence of fault offers to drive a planner through, shrinking toward
/// fewer and simpler offers. Most offers are one fresh corner-biased
/// region. Some carry a sibling region on another rank slot of the node,
/// as multi-rank faults do, so the planner admits two regions atomically.
/// Some land on an earlier offer's rank and bank with overlapping rows and
/// columns ([`arb_overlapping_region`]), where the planners share lines or
/// collide set for set; independent draws of rank, device and bank would
/// almost never meet there. And some hold two such regions, so the
/// planner also shares lines within one offer.
pub fn arb_offer_sequence(src: &mut Source, cfg: &DramConfig) -> Vec<Vec<FaultRegion>> {
    let len = src.usize(1, 6);
    let mut offers: Vec<Vec<FaultRegion>> = Vec::with_capacity(len);
    for _ in 0..len {
        let offer = match src.weighted(&[5, 1, 3, 1]) {
            1 if cfg.total_rank_slots() > 1 => {
                let first = arb_corner_region(src, cfg);
                let slots = cfg.total_rank_slots();
                let flat = (first.rank.flat_index(cfg) + src.u32(1, slots - 1)) % slots;
                let sibling = FaultRegion {
                    rank: RankId::from_flat_index(cfg, flat),
                    ..first
                };
                vec![first, sibling]
            }
            2 if !offers.is_empty() => {
                let earlier = offers[src.usize(0, offers.len() - 1)][0];
                vec![arb_overlapping_region(src, cfg, &earlier)]
            }
            3 => {
                let first = arb_corner_region(src, cfg);
                vec![first, arb_overlapping_region(src, cfg, &first)]
            }
            _ => vec![arb_corner_region(src, cfg)],
        };
        offers.push(offer);
    }
    offers
}

/// A region on `earlier`'s rank and in one of its banks whose rows and
/// columns overlap `earlier`'s footprint, in one of three kinds:
///
/// 0. on the same device, where RelaxFault shares lines with `earlier`;
/// 1. on another device, where FreeFault shares lines, and RelaxFault's
///    lines fall in the same sets under unhashed indexing;
/// 2. on the same device, in another column block of a column-group that
///    `earlier` covers, where RelaxFault shares that group's line even
///    when the two footprints do not meet.
pub fn arb_overlapping_region(
    src: &mut Source,
    cfg: &DramConfig,
    earlier: &FaultRegion,
) -> FaultRegion {
    let rect = earlier.footprint(cfg);
    let banks: Vec<u32> = rect.banks.iter().collect();
    let bank = banks[src.usize(0, banks.len() - 1)];
    let pick = |src: &mut Source, set: IdxSet| {
        let first = set.iter().next().unwrap_or(0);
        first + src.u32(0, set.len() as u32 - 1)
    };
    let row = pick(src, rect.rows);
    let mut colblock = pick(src, rect.colblocks);
    let mut device = earlier.device;
    let kind = src.weighted(&[1, 1, 1]);
    match kind {
        0 => {}
        1 => device = (device + src.u32(1, cfg.devices_per_rank() - 1)) % cfg.devices_per_rank(),
        _ => {
            let group = cfg.data_devices_per_rank;
            let shift = src.u32(1, group - 1);
            colblock = colblock / group * group + (colblock % group + shift) % group;
        }
    }
    let col = colblock * cfg.burst_length + src.u32(0, cfg.burst_length - 1);
    // The third kind keeps to one column block (a bit or a column).
    let shape = if kind == 2 {
        2 * src.choice_index(2)
    } else {
        src.weighted(&[3, 2, 2, 2])
    };
    let extent = match shape {
        0 => Extent::Bit { bank, row, col },
        1 => Extent::Row { bank, row },
        2 => Extent::Column {
            bank,
            col,
            row_start: row / cfg.subarray_rows * cfg.subarray_rows,
            row_count: cfg.subarray_rows,
        },
        _ => {
            let rows = src.u32(2, 256);
            Extent::RowCluster {
                bank,
                row_start: row
                    .saturating_sub(src.u32(0, rows - 1))
                    .min(cfg.rows - rows),
                row_count: rows,
            }
        }
    };
    FaultRegion {
        rank: earlier.rank,
        device,
        extent,
    }
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

    /// Over 1,000 sequences, counts the offers that reach each path of the
    /// LLC planners' admission: two regions on two ranks or on one rank,
    /// and a region meeting an earlier one (of an earlier offer or the
    /// same offer) on the same device, on another device, or only within
    /// a shared column-group.
    #[test]
    fn offer_sequences_reach_every_sharing_kind() {
        let cfg = DramConfig::isca16_reliability();
        let groups = |r: &FaultRegion| {
            r.footprint(&cfg)
                .colblocks
                .divided(cfg.data_devices_per_rank)
        };
        let mut kinds = [0u32; 5];
        relaxfault_util::prop::check(1000, |src| {
            let offers = arb_offer_sequence(src, &cfg);
            let regions: Vec<FaultRegion> = offers.iter().flatten().copied().collect();
            for offer in &offers {
                if let [a, b] = offer[..] {
                    kinds[usize::from(a.rank == b.rank)] += 1;
                }
            }
            for (i, r) in regions.iter().enumerate() {
                let fr = r.footprint(&cfg);
                for e in &regions[..i] {
                    let fe = e.footprint(&cfg);
                    if e.rank != r.rank
                        || fe.banks.intersect(&fr.banks).is_empty()
                        || fe.rows.intersect(&fr.rows).is_none()
                    {
                        continue;
                    }
                    if fe.colblocks.intersect(&fr.colblocks).is_some() {
                        kinds[if e.device == r.device { 2 } else { 3 }] += 1;
                    } else if e.device == r.device && groups(e).intersect(&groups(r)).is_some() {
                        kinds[4] += 1;
                    }
                }
            }
            Ok(())
        });
        eprintln!(
            "two ranks, one rank, same device, other device, same column-group only: {kinds:?}"
        );
        assert!(kinds.iter().all(|&k| k >= 50), "offer kinds: {kinds:?}");
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
