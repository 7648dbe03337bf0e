//! Repair planners: RelaxFault, FreeFault, and post-package repair.
//!
//! A planner owns the repair state of one *node* (its LLC occupancy or
//! spare-row budget) and is offered each permanent fault as it is
//! discovered. [`RepairMechanism::try_repair`] is atomic: either the whole
//! fault is repaired — every faulty bit covered, every constraint still
//! satisfied — or the planner's state is unchanged and the fault stays
//! exposed. That mirrors the hardware, which cannot half-repair a fault,
//! and is what the paper's repair-coverage metric counts.

use crate::mapping::{RelaxMap, RepairLine};
use relaxfault_cache::CacheConfig;
use relaxfault_dram::{AddressMap, DramConfig, DramLoc, RankId};
use relaxfault_faults::{Extent, FaultRegion, IdxSet, Rect};
use relaxfault_util::bits::EchelonBasis;
use relaxfault_util::hash::{FxHashMap, FxHashSet};
use relaxfault_util::obs::{self, Counter, Histogram};
use std::sync::OnceLock;

/// Per-mechanism repair-planning telemetry. Updates are a relaxed load
/// and a branch when observability is disabled.
struct PlanMetrics {
    attempts: Counter,
    accepted: Counter,
    rejected_capacity: Counter,
    rejected_conflict: Counter,
    /// Acceptances decided in closed form and kept pending, unwritten.
    deferred: Counter,
    /// Pending acceptances later written out into the occupancy.
    materialized: Counter,
    lines_per_repair: Histogram,
}

impl PlanMetrics {
    fn new(mech: &str) -> Self {
        Self {
            attempts: obs::counter(&format!("plan.{mech}.attempts")),
            accepted: obs::counter(&format!("plan.{mech}.accepted")),
            rejected_capacity: obs::counter(&format!("plan.{mech}.rejected_capacity")),
            rejected_conflict: obs::counter(&format!("plan.{mech}.rejected_conflict")),
            deferred: obs::counter(&format!("plan.{mech}.deferred")),
            materialized: obs::counter(&format!("plan.{mech}.materialized")),
            lines_per_repair: obs::histogram(&format!("plan.{mech}.lines_per_repair")),
        }
    }

    fn record(&self, outcome: RepairOutcome, lines: u64) {
        self.attempts.inc();
        match outcome {
            RepairOutcome::Accepted => {
                self.accepted.inc();
                self.lines_per_repair.record(lines);
            }
            RepairOutcome::RejectedCapacity => self.rejected_capacity.inc(),
            RepairOutcome::RejectedConflict => self.rejected_conflict.inc(),
        }
    }
}

#[derive(Clone, Copy)]
enum RepairOutcome {
    Accepted,
    RejectedCapacity,
    RejectedConflict,
}

fn relaxfault_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics::new("relaxfault"))
}

fn freefault_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics::new("freefault"))
}

fn ppr_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics::new("ppr"))
}

/// Reusable scratch buffers for repair planning. The Monte Carlo engine
/// offers millions of faults per run; routing every enumeration through
/// one of these (owned per worker thread) keeps the planners free of
/// per-call allocation. The buffers carry no state between calls — any
/// `PlanScratch` works with any planner.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// `(flat rank, device, bank, row)` rows for the PPR planner.
    rows: Vec<(u32, u32, u32, u32)>,
    /// The parts of the line box being admitted whose lines earlier
    /// regions already lock, for the LLC planners.
    shared: Vec<Rect>,
}

impl PlanScratch {
    /// Creates an empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fine-grained memory repair mechanism, driven one fault at a time.
pub trait RepairMechanism {
    /// Short mechanism name for reports.
    fn name(&self) -> &'static str;

    /// Attempts to repair a fault (all of its regions) without allocating,
    /// using caller-provided scratch buffers. Returns whether the repair
    /// succeeded; on failure the planner state is unchanged.
    fn try_repair_with(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool;

    /// Convenience form of [`RepairMechanism::try_repair_with`] that
    /// allocates fresh scratch. Fine for one-off calls; hot loops should
    /// hold a [`PlanScratch`] and use `try_repair_with`.
    fn try_repair(&mut self, regions: &[FaultRegion]) -> bool {
        let mut scratch = PlanScratch::default();
        self.try_repair_with(regions, &mut scratch)
    }

    /// Forgets all repairs, returning to the freshly-constructed state
    /// while keeping internal capacity for reuse across Monte Carlo
    /// trials.
    fn reset(&mut self);

    /// LLC lines currently locked for repair (0 for PPR).
    fn lines_used(&self) -> u64;

    /// LLC bytes currently locked for repair.
    fn bytes_used(&self) -> u64;

    /// The largest number of repair lines in any one LLC set (0 for PPR).
    fn max_ways_used(&self) -> u32;
}

/// Shared LLC-occupancy bookkeeping for the two cache-based mechanisms: a
/// count of locked lines per set, one byte each (8 KiB at 8192 sets, so
/// the plane stays L1/L2-resident across trials), plus the admitted
/// regions. No line key is stored. A line's key is an injective function
/// of its coordinates — `(rank, device, bank, row, column-group)` for
/// RelaxFault, `(rank, bank, row, column block)` for FreeFault — so two
/// regions share a line exactly where their line boxes intersect, and
/// admission needs each line's set, never its key
/// ([`LineSpace::admit`]).
#[derive(Debug, Clone)]
struct LlcOccupancy {
    max_ways: u32,
    line_bytes: u64,
    sets: u64,
    /// Lines locked per set.
    counts: Vec<u8>,
    /// Sets with a nonzero count, in the order they filled, for sparse
    /// reset and rollback.
    dirty_sets: Vec<u32>,
    /// Every admitted region, in admission order.
    regions: Vec<FaultRegion>,
    /// Total lines locked (the sum of `counts`).
    line_count: u64,
    max_used: u32,
}

impl LlcOccupancy {
    fn new(llc: &CacheConfig, max_ways: u32) -> Self {
        assert!(
            max_ways >= 1 && max_ways <= llc.ways,
            "way limit out of range"
        );
        assert!(max_ways <= u8::MAX as u32, "count plane is u8");
        Self {
            max_ways,
            line_bytes: llc.line_bytes as u64,
            sets: llc.sets(),
            counts: vec![0; llc.sets() as usize],
            dirty_sets: Vec::new(),
            regions: Vec::new(),
            line_count: 0,
            max_used: 0,
        }
    }

    fn reset(&mut self) {
        for &s in &self.dirty_sets {
            self.counts[s as usize] = 0;
        }
        self.dirty_sets.clear();
        self.regions.clear();
        self.line_count = 0;
        self.max_used = 0;
    }

    /// Absolute ceiling on additional lines; used to reject huge faults
    /// before enumerating them.
    fn budget_ceiling(&self) -> u64 {
        self.sets * self.max_ways as u64
    }

    /// Locks one fresh line in `set`. Returns `false`, changing nothing,
    /// when the set is already at the way limit.
    #[inline]
    fn bump(&mut self, set: u32) -> bool {
        let c = &mut self.counts[set as usize];
        if u32::from(*c) == self.max_ways {
            return false;
        }
        *c += 1;
        if *c == 1 {
            self.dirty_sets.push(set);
        }
        self.max_used = self.max_used.max(u32::from(*c));
        self.line_count += 1;
        true
    }

    fn lines_used(&self) -> u64 {
        self.line_count
    }

    /// `(set, lines locked)` for every occupied set, in arbitrary order.
    fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.dirty_sets
            .iter()
            .map(|&s| (s, self.counts[s as usize] as u32))
    }

    /// Verifies the occupancy against `rebuilt`, its count plane
    /// recomputed from the admitted regions: the counts, the way limit,
    /// the line total, the `max_used` high-water mark (lines only
    /// accumulate between resets) and the `dirty_sets` view must all
    /// agree. O(sets) — for tests and the `RF_CHECK=1` engine hook.
    fn check_against(&self, rebuilt: &[u32]) -> Result<(), String> {
        let diff = (0..rebuilt.len()).find(|&s| rebuilt[s] != u32::from(self.counts[s]));
        if let Some(s) = diff {
            return Err(format!(
                "set {s} counts {} lines but its admitted regions lock {}",
                self.counts[s], rebuilt[s]
            ));
        }
        let max = rebuilt.iter().copied().max().unwrap_or(0);
        let sum: u64 = rebuilt.iter().map(|&c| u64::from(c)).sum();
        if max > self.max_ways || max != self.max_used || sum != self.line_count {
            return Err(format!(
                "admitted regions lock {sum} lines, {max} in the fullest set, against \
                 {} lines counted, max_used {} and a {}-way limit",
                self.line_count, self.max_used, self.max_ways
            ));
        }
        let mut dirty = self.dirty_sets.clone();
        dirty.sort_unstable();
        let occupied = (0..).zip(rebuilt).filter(|&(_, &c)| c != 0).map(|(s, _)| s);
        if !dirty.iter().copied().eq(occupied) {
            return Err(format!("dirty_sets {dirty:?} are not the occupied sets"));
        }
        Ok(())
    }
}

/// Precomputed XOR deltas for enumerating the `(set, key)` pairs of a
/// rectangular fault footprint without re-encoding every block.
///
/// Both address layouts here ([`AddressMap::encode`] and
/// [`RelaxMap::repair_addr`]) deposit each coordinate's bits at fixed
/// positions, and the only cross-coordinate interaction is an XOR (the
/// bank⊕row hash); the LLC set index is likewise a canonical bit-extract
/// or an XOR fold. All of it is linear over GF(2), so
/// `addr(bank, row, col) = addr(bank, 0, 0) ⊕ Δ(row) ⊕ Δ(col)` exactly,
/// and the same holds for the set index. Rows split further into low/high
/// halves (`Δ(row) = Δ(row & 255) ⊕ Δ(row & !255)`), keeping the tables
/// a few KiB even for 64Ki-row devices. Unit tests pin the fast
/// enumeration against the direct per-block encoding.
#[derive(Debug, Clone)]
struct LineDeltas {
    /// Address / set delta planes per column index (colblock or
    /// colgroup), struct-of-arrays: `col_addr[c]` and `col_set[c]`
    /// describe column `c`.
    col_addr: Vec<u64>,
    col_set: Vec<u64>,
    /// Delta planes per `row & 255`.
    row_lo_addr: Vec<u64>,
    row_lo_set: Vec<u64>,
    /// Delta planes per `row >> 8`.
    row_hi_addr: Vec<u64>,
    row_hi_set: Vec<u64>,
}

impl LineDeltas {
    /// Builds the tables from `addr_of(row, col)`, the layout's address
    /// for row/col with every other coordinate zero (which must itself
    /// map to address 0).
    fn new(llc: &CacheConfig, rows: u32, cols: u32, addr_of: impl Fn(u32, u32) -> u64) -> Self {
        debug_assert_eq!(addr_of(0, 0), 0, "layout must be origin-zero");
        let col: Vec<u64> = (0..cols).map(|c| addr_of(0, c)).collect();
        let row_lo: Vec<u64> = (0..rows.min(256)).map(|r| addr_of(r, 0)).collect();
        let row_hi: Vec<u64> = (0..rows.div_ceil(256))
            .map(|h| addr_of(h << 8, 0))
            .collect();
        let sets = |v: &[u64]| v.iter().map(|&a| llc.set_of(a)).collect();
        Self {
            col_set: sets(&col),
            row_lo_set: sets(&row_lo),
            row_hi_set: sets(&row_hi),
            col_addr: col,
            row_lo_addr: row_lo,
            row_hi_addr: row_hi,
        }
    }

    /// The `(addr, set)` delta of `row` relative to row 0.
    #[inline]
    fn row(&self, row: u32) -> (u64, u64) {
        let (lo, hi) = ((row & 255) as usize, (row >> 8) as usize);
        (
            self.row_lo_addr[lo] ^ self.row_hi_addr[hi],
            self.row_lo_set[lo] ^ self.row_hi_set[hi],
        )
    }

    /// The `(addr, set)` delta of column `c` relative to column 0.
    #[inline]
    fn col(&self, c: usize) -> (u64, u64) {
        (self.col_addr[c], self.col_set[c])
    }
}

/// How an LLC repair mechanism lays a fault's repair lines out: the
/// address of each line, and which column indices a footprint needs lines
/// for. Both layouts are GF(2)-linear in row and column, which
/// [`LineDeltas`] and the closed-form admission rely on.
trait LineLayout {
    /// Mechanism name for reports.
    const NAME: &'static str;

    /// Whether a line holds one device's data, so that regions on two
    /// devices of a rank never share a line (RelaxFault), rather than a
    /// whole block of the rank (FreeFault).
    const PER_DEVICE: bool;

    /// The mechanism's planner counters.
    fn metrics() -> &'static PlanMetrics;

    /// Column indices per device row.
    fn cols_per_row(&self, dram: &DramConfig) -> u32;

    /// The column indices a footprint needs lines for.
    fn cols(&self, rect: &Rect) -> IdxSet;

    /// Byte address of one repair line.
    fn addr(&self, rank: RankId, device: u32, bank: u32, row: u32, col: u32) -> u64;
}

/// RelaxFault's Figure 7c repair space: one line per column-group of one
/// device.
impl LineLayout for RelaxMap {
    const NAME: &'static str = "RelaxFault";
    const PER_DEVICE: bool = true;

    fn metrics() -> &'static PlanMetrics {
        relaxfault_metrics()
    }

    fn cols_per_row(&self, _dram: &DramConfig) -> u32 {
        self.colgroups_per_row()
    }

    fn cols(&self, rect: &Rect) -> IdxSet {
        rect.colblocks.divided(self.coalesce_factor())
    }

    fn addr(&self, rank: RankId, device: u32, bank: u32, row: u32, colgroup: u32) -> u64 {
        self.repair_addr(&RepairLine {
            rank,
            device,
            bank,
            row,
            colgroup,
        })
    }
}

/// FreeFault's physical blocks: one line per faulty 64-byte block, which
/// spans every device of the rank, so the device plays no part.
impl LineLayout for AddressMap {
    const NAME: &'static str = "FreeFault";
    const PER_DEVICE: bool = false;

    fn metrics() -> &'static PlanMetrics {
        freefault_metrics()
    }

    fn cols_per_row(&self, dram: &DramConfig) -> u32 {
        dram.blocks_per_row()
    }

    fn cols(&self, rect: &Rect) -> IdxSet {
        rect.colblocks
    }

    fn addr(&self, rank: RankId, _device: u32, bank: u32, row: u32, colblock: u32) -> u64 {
        let loc = DramLoc {
            channel: rank.channel,
            dimm: rank.dimm,
            rank: rank.rank,
            bank,
            row,
            colblock,
        };
        self.encode(loc, 0).0
    }
}

/// Most aligned power-of-two blocks a `u32` index range splits into.
const MAX_BLOCKS: usize = 64;

/// The half-open index range `(start, end)` of `set`.
fn bounds(set: IdxSet) -> (u64, u64) {
    match set {
        IdxSet::All { domain } => (0, domain as u64),
        IdxSet::Range { start, count } => (start as u64, start as u64 + count as u64),
        IdxSet::One(i) => (i as u64, i as u64 + 1),
    }
}

/// Whether `b` covers row `row` of bank `bank`.
fn covers_row(b: &Rect, bank: u32, row: u32) -> bool {
    b.banks.0 >> bank & 1 != 0 && b.rows.contains(row)
}

/// Splits the index range of `set` into maximal aligned power-of-two
/// blocks `(start, log2 length)`, in ascending order, and returns how
/// many it wrote into `out`.
fn aligned_blocks(set: IdxSet, out: &mut [(u32, u32); MAX_BLOCKS]) -> usize {
    let (mut start, end) = bounds(set);
    let mut n = 0;
    while start < end {
        let k = start
            .trailing_zeros()
            .min(63 - (end - start).leading_zeros());
        out[n] = (start as u32, k);
        n += 1;
        start += 1 << k;
    }
    n
}

/// One mechanism's repair-line space: its layout plus the XOR-delta tables
/// that enumerate a footprint without re-encoding each line.
#[derive(Debug, Clone)]
struct LineSpace<L> {
    layout: L,
    dram: DramConfig,
    llc: CacheConfig,
    deltas: LineDeltas,
}

impl<L: LineLayout> LineSpace<L> {
    fn new(layout: L, dram: &DramConfig, llc: &CacheConfig) -> Self {
        let origin = RankId {
            channel: 0,
            dimm: 0,
            rank: 0,
        };
        let deltas = LineDeltas::new(llc, dram.rows, layout.cols_per_row(dram), |row, col| {
            layout.addr(origin, 0, 0, row, col)
        });
        Self {
            layout,
            dram: *dram,
            llc: *llc,
            deltas,
        }
    }

    /// A region's repair lines as a box: its banks and rows, with the
    /// layout's column indices (column-groups for RelaxFault) in
    /// `colblocks`.
    fn line_box(&self, r: &FaultRegion) -> Rect {
        let rect = r.footprint(&self.dram);
        Rect {
            colblocks: self.layout.cols(&rect),
            ..rect
        }
    }

    /// Analytic count of repair lines a fault would need in isolation.
    fn lines_needed(&self, regions: &[FaultRegion]) -> u64 {
        regions.iter().map(|r| self.line_box(r).block_count()).sum()
    }

    /// Streams the `(set, key)` of every line in `r`'s line box `lines`
    /// that lies in no box of `shared` into `f`, in enumeration order: one
    /// full address per bank, then two XORs per line. Stops early —
    /// returning `false` — as soon as `f` does.
    fn lines_each(
        &self,
        r: &FaultRegion,
        lines: &Rect,
        shared: &[Rect],
        f: &mut impl FnMut(u32, u64) -> bool,
    ) -> bool {
        let off = self.llc.offset_bits();
        let (c0, c1) = bounds(lines.colblocks);
        let cols = c0 as usize..c1 as usize;
        let col_deltas = self.deltas.col_addr[cols.clone()]
            .iter()
            .zip(&self.deltas.col_set[cols]);
        for bank in lines.banks.iter() {
            let base = self.layout.addr(r.rank, r.device, bank, 0, 0);
            let set_base = self.llc.set_of(base);
            for row in lines.rows.iter() {
                let (ra, rs) = self.deltas.row(row);
                let (row_addr, row_set) = (base ^ ra, set_base ^ rs);
                let row_shared = shared.iter().any(|s| covers_row(s, bank, row));
                for (col, (&ca, &cs)) in (c0 as u32..).zip(col_deltas.clone()) {
                    let locked = row_shared
                        && shared
                            .iter()
                            .any(|s| covers_row(s, bank, row) && s.colblocks.contains(col));
                    if !locked && !f((row_set ^ cs) as u32, (row_addr ^ ca) >> off) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Streams the `(set, key)` of every line of every region into `f`; a
    /// line that several regions share comes once per region.
    fn region_lines_each(&self, regions: &[FaultRegion], f: &mut impl FnMut(u32, u64)) {
        for r in regions {
            self.lines_each(r, &self.line_box(r), &[], &mut |set, key| {
                f(set, key);
                true
            });
        }
    }

    /// Collects into `shared` the parts of `r`'s line box `lines` whose
    /// lines one of `earlier` already locks: its intersections with the
    /// line boxes of the earlier regions on the same rank (and, for
    /// RelaxFault, the same device).
    fn shared_parts(
        &self,
        r: &FaultRegion,
        lines: &Rect,
        earlier: &[FaultRegion],
        shared: &mut Vec<Rect>,
    ) {
        shared.clear();
        for e in earlier {
            if e.rank == r.rank && (!L::PER_DEVICE || e.device == r.device) {
                shared.extend(self.line_box(e).intersect(lines));
            }
        }
    }

    /// Admits `regions` into `occ` by enumeration, as one atomic add. Each
    /// region's lines bump their sets' counts, except the lines that an
    /// admitted region or an earlier region of this offer already locks.
    /// The first set that would go over the way limit stops the
    /// enumeration, and the offer is rolled back: the same lines are
    /// walked again in the same order, each bumped set is decremented, and
    /// the region list, `dirty_sets` (whose tail is exactly the sets the
    /// offer filled), line total and `max_used` return to their lengths
    /// and values before the offer.
    fn admit(
        &self,
        occ: &mut LlcOccupancy,
        regions: &[FaultRegion],
        scratch: &mut PlanScratch,
    ) -> bool {
        let (regions0, dirty0) = (occ.regions.len(), occ.dirty_sets.len());
        let (lines0, max0) = (occ.line_count, occ.max_used);
        for r in regions {
            let lines = self.line_box(r);
            self.shared_parts(r, &lines, &occ.regions, &mut scratch.shared);
            let ok = self.lines_each(r, &lines, &scratch.shared, &mut |set, _| occ.bump(set));
            occ.regions.push(*r);
            if ok {
                continue;
            }
            let mut left = occ.line_count - lines0;
            for (i, r) in regions.iter().enumerate() {
                if left == 0 {
                    break;
                }
                let lines = self.line_box(r);
                let earlier = &occ.regions[..regions0 + i];
                self.shared_parts(r, &lines, earlier, &mut scratch.shared);
                let counts = &mut occ.counts;
                self.lines_each(r, &lines, &scratch.shared, &mut |set, _| {
                    counts[set as usize] -= 1;
                    left -= 1;
                    left > 0
                });
            }
            occ.regions.truncate(regions0);
            occ.dirty_sets.truncate(dirty0);
            (occ.line_count, occ.max_used) = (lines0, max0);
            return false;
        }
        true
    }

    /// Verifies `occ` against its admitted regions: rebuilds the count
    /// plane by enumerating every region's line keys, counting each
    /// distinct key once in its set, and compares it with the live plane
    /// ([`LlcOccupancy::check_against`]).
    fn check_occupancy(&self, occ: &LlcOccupancy) -> Result<(), String> {
        let mut keys = FxHashSet::default();
        let mut rebuilt = vec![0u32; occ.sets as usize];
        self.region_lines_each(&occ.regions, &mut |set, key| {
            if keys.insert(key) {
                rebuilt[set as usize] += 1;
            }
        });
        occ.check_against(&rebuilt)
    }

    /// The closed form: how many lines the fullest LLC set would hold if
    /// `regions` were admitted into an empty occupancy, found without
    /// enumerating them. `None` when the offer needs enumeration: several
    /// regions or banks, or rows and columns that both split into more
    /// than one aligned block.
    ///
    /// The footprint's rows × columns split into aligned power-of-two
    /// blocks. By linearity, block `i` with `d_i` free bits covers the
    /// coset `c_i ⊕ W_i` of the set space, each set `2^(d_i − dim W_i)`
    /// times, where `W_i` is spanned by the set deltas of those bits. With
    /// one axis split, the spans grow with block size, so they are nested.
    /// A set covered by several blocks then lies in the coset of the block
    /// with the smallest span, `i`, and that coset lies inside the cosets
    /// of every block `j` with `W_i ⊆ W_j` and `c_i ⊕ c_j ∈ W_j`. So the
    /// fullest set holds `max_i Σ_{j : W_i ⊆ W_j, c_i ⊕ c_j ∈ W_j}
    /// 2^(d_j − dim W_j)` lines. With the blocks in ascending span order
    /// it suffices to sum over `j ≥ i`: the earliest block of each coset
    /// of a given span has no earlier block to miss.
    fn fullest_set(&self, regions: &[FaultRegion]) -> Option<u64> {
        let [r] = regions else {
            return None;
        };
        let rect = r.footprint(&self.dram);
        if rect.banks.len() != 1 {
            return None;
        }
        let mut rows = [(0, 0); MAX_BLOCKS];
        let mut cols = [(0, 0); MAX_BLOCKS];
        let nr = aligned_blocks(rect.rows, &mut rows);
        let nc = aligned_blocks(self.layout.cols(&rect), &mut cols);
        let row_delta = |row: u32| self.deltas.row(row).1;
        let col_delta = |col: u32| self.deltas.col(col as usize).1;
        // One axis is a single block, shared by every block of the other
        // (rows, when neither splits).
        type Delta<'a> = &'a dyn Fn(u32) -> u64;
        let (blocks, fixed, split_delta, fixed_delta): (_, _, Delta, Delta) = match (nr, nc) {
            (_, 1) => (&mut rows[..nr], cols[0], &row_delta, &col_delta),
            (1, _) => (&mut cols[..nc], rows[0], &col_delta, &row_delta),
            _ => return None,
        };
        let bank = rect.banks.0.trailing_zeros();
        let origin = self
            .llc
            .set_of(self.layout.addr(r.rank, r.device, bank, 0, 0));
        let shift = origin ^ fixed_delta(fixed.0);
        // Block j spans the fixed axis's bits and the split axis's bits
        // below k_j; ascending block size makes the spans ascending too.
        blocks.sort_unstable_by_key(|&(_, k)| k);
        let mut span = EchelonBasis::new();
        for b in 0..fixed.1 {
            span.insert(fixed_delta(1 << b));
        }
        let mut spanned = 0;
        let (mut coset, mut lines) = ([0u64; MAX_BLOCKS], [0u64; MAX_BLOCKS]);
        for (j, &(start, k)) in blocks.iter().enumerate() {
            for b in spanned..k {
                span.insert(split_delta(1 << b));
            }
            spanned = k;
            coset[j] = shift ^ split_delta(start);
            let mult = 1 << (k + fixed.1 - span.dim());
            lines[j] = mult;
            // `span` is now W_j: every earlier block whose coset lies in
            // j's gains j's lines.
            let cj = span.reduce(coset[j]);
            for i in 0..j {
                if span.reduce(coset[i]) == cj {
                    lines[i] += mult;
                }
            }
        }
        lines[..blocks.len()].iter().copied().max()
    }
}

/// A fault accepted in closed form into an empty occupancy, whose lines
/// are not written out yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    region: FaultRegion,
    /// Lines it locks.
    lines: u64,
    /// Lines in its fullest set.
    max_ways: u32,
}

impl Pending {
    /// Writes the fault into `occ` by enumeration, leaving the occupancy
    /// exactly as admitting it by enumeration on arrival would have.
    ///
    /// # Errors
    ///
    /// Fails when enumeration disagrees with the closed form's verdict,
    /// line count or fullest set.
    fn write_out<L: LineLayout>(
        self,
        space: &LineSpace<L>,
        occ: &mut LlcOccupancy,
        scratch: &mut PlanScratch,
    ) -> Result<(), String> {
        let ok = space.admit(occ, &[self.region], scratch);
        if ok && occ.lines_used() == self.lines && occ.max_used == self.max_ways {
            return Ok(());
        }
        Err(format!(
            "closed form accepted {:?} with {} lines and {} in the fullest set; \
             enumeration {} it with {} and {}",
            self.region,
            self.lines,
            self.max_ways,
            if ok { "accepts" } else { "rejects" },
            occ.lines_used(),
            occ.max_used
        ))
    }
}

/// The planner behind [`RelaxFault`] and [`FreeFault`]: a line space and
/// an LLC occupancy, plus at most one admission decided in closed form and
/// not yet written out.
///
/// Most permanent faults are the only one their node sees, so an offer to
/// an empty occupancy with one region in one bank is decided by
/// [`LineSpace::fullest_set`] and kept as a [`Pending`] fault. Its lines
/// are written out through the enumeration path only when something needs
/// them: the next offer that enumerates, or a view of the occupancy.
/// Every other offer enumerates, exactly as the closed form's reference.
#[derive(Debug, Clone)]
struct LlcPlanner<L> {
    space: LineSpace<L>,
    occ: LlcOccupancy,
    pending: Option<Pending>,
}

impl<L: LineLayout> LlcPlanner<L> {
    fn new(layout: L, dram: &DramConfig, llc: &CacheConfig, max_ways: u32) -> Self {
        Self {
            space: LineSpace::new(layout, dram, llc),
            occ: LlcOccupancy::new(llc, max_ways),
            pending: None,
        }
    }

    fn try_repair_with(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool {
        let metrics = L::metrics();
        let need = self.space.lines_needed(regions);
        if need > self.occ.budget_ceiling() {
            // Whole-bank-scale fault: fail before enumerating.
            metrics.record(RepairOutcome::RejectedCapacity, need);
            return false;
        }
        if self.pending.is_none() && self.occ.lines_used() == 0 {
            if let Some(fullest) = self.space.fullest_set(regions) {
                let ok = fullest <= self.occ.max_ways as u64;
                if ok {
                    self.pending = Some(Pending {
                        region: regions[0],
                        lines: need,
                        max_ways: fullest as u32,
                    });
                    metrics.deferred.inc();
                    metrics.record(RepairOutcome::Accepted, need);
                } else {
                    metrics.record(RepairOutcome::RejectedConflict, 0);
                }
                return ok;
            }
        }
        self.materialize(scratch);
        let before = self.occ.lines_used();
        let ok = self.space.admit(&mut self.occ, regions, scratch);
        let outcome = if ok {
            RepairOutcome::Accepted
        } else {
            RepairOutcome::RejectedConflict
        };
        metrics.record(outcome, self.occ.lines_used() - before);
        ok
    }

    /// Writes a pending fault out into the occupancy.
    ///
    /// # Panics
    ///
    /// Panics if enumeration disagrees with the closed form (see
    /// [`Pending::write_out`]).
    fn materialize(&mut self, scratch: &mut PlanScratch) {
        if let Some(p) = self.pending.take() {
            if let Err(e) = p.write_out(&self.space, &mut self.occ, scratch) {
                panic!("{e}");
            }
            L::metrics().materialized.inc();
        }
    }

    fn reset(&mut self) {
        self.occ.reset();
        self.pending = None;
    }

    fn lines_used(&self) -> u64 {
        self.occ.lines_used() + self.pending.map_or(0, |p| p.lines)
    }

    fn bytes_used(&self) -> u64 {
        self.lines_used() * self.occ.line_bytes
    }

    fn max_ways_used(&self) -> u32 {
        self.occ
            .max_used
            .max(self.pending.map_or(0, |p| p.max_ways))
    }

    /// The distinct keys of the admitted regions' lines, ascending.
    fn line_keys(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.materialize(&mut PlanScratch::new());
        let mut keys = Vec::new();
        self.space
            .region_lines_each(&self.occ.regions, &mut |_, key| keys.push(key));
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
    }

    fn occupied_sets(&mut self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.materialize(&mut PlanScratch::new());
        self.occ.occupied()
    }

    /// Verifies the occupancy bookkeeping against the admitted regions
    /// ([`LineSpace::check_occupancy`]). A pending fault is written out
    /// into a copy first, whose enumerated line count and fullest set must
    /// equal the closed form's.
    fn check_invariants(&self) -> Result<(), String> {
        let Some(p) = self.pending else {
            return self.space.check_occupancy(&self.occ);
        };
        if self.occ.lines_used() != 0 {
            return Err(format!(
                "{:?} is pending over {} written lines",
                p.region,
                self.occ.lines_used()
            ));
        }
        let mut occ = self.occ.clone();
        p.write_out(&self.space, &mut occ, &mut PlanScratch::new())?;
        self.space.check_occupancy(&occ)
    }

    /// Every repair line of `regions`, as `(set, key)` in enumeration
    /// order, for tests that pin the fast enumeration against the direct
    /// per-line mapping.
    #[cfg(test)]
    fn lines_of(&self, regions: &[FaultRegion]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.space
            .region_lines_each(regions, &mut |set, key| out.push((set as u64, key)));
        out
    }
}

/// The paper's contribution: coalescing repair in the LLC (Figure 7c
/// mapping). One repair line covers `data_devices_per_rank` consecutive
/// sub-blocks of the faulty device, so a full device row needs only
/// `blocks_per_row / data_devices` lines (16 in the evaluation system).
#[derive(Debug, Clone)]
pub struct RelaxFault {
    planner: LlcPlanner<RelaxMap>,
}

impl RelaxFault {
    /// Creates a planner with at most `max_ways_per_set` lines per LLC set.
    ///
    /// # Panics
    ///
    /// Panics if the configs are invalid or `max_ways_per_set` is 0 or
    /// exceeds the LLC associativity.
    pub fn new(dram: &DramConfig, llc: &CacheConfig, max_ways_per_set: u32) -> Self {
        let map = RelaxMap::new(dram, llc);
        if obs::metrics_enabled() {
            obs::gauge("plan.relaxfault.coalesce_factor").set(map.coalesce_factor() as f64);
        }
        Self {
            planner: LlcPlanner::new(map, dram, llc, max_ways_per_set),
        }
    }

    /// The repair mapping in use.
    pub fn mapping(&self) -> &RelaxMap {
        &self.planner.space.layout
    }

    /// The keys of every locked repair line, in arbitrary order,
    /// enumerated from the admitted regions: a view for differential
    /// oracles and regression tests. Writes out a pending closed-form
    /// admission first.
    pub fn line_keys(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.planner.line_keys()
    }

    /// `(set, lines locked)` for every occupied set, in arbitrary order.
    /// Writes out a pending closed-form admission first.
    pub fn occupied_sets(&mut self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.planner.occupied_sets()
    }

    /// Verifies the planner's occupancy bookkeeping (see
    /// `LlcOccupancy::check_invariants`), cross-checking a pending
    /// closed-form admission against enumeration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.planner.check_invariants()
    }

    /// Analytic count of repair lines a fault would need in isolation.
    pub fn lines_needed(&self, regions: &[FaultRegion]) -> u64 {
        self.planner.space.lines_needed(regions)
    }

    /// Enumerates the repair lines of one fault.
    pub fn repair_lines<'a>(
        &'a self,
        regions: &'a [FaultRegion],
    ) -> impl Iterator<Item = RepairLine> + 'a {
        let space = &self.planner.space;
        regions.iter().flat_map(move |r| {
            let rect = r.footprint(&space.dram);
            let rank = r.rank;
            let device = r.device;
            let groups = space.layout.cols(&rect);
            rect.banks.iter().flat_map(move |bank| {
                rect.rows.iter().flat_map(move |row| {
                    groups.iter().map(move |colgroup| RepairLine {
                        rank,
                        device,
                        bank,
                        row,
                        colgroup,
                    })
                })
            })
        })
    }
}

impl RepairMechanism for RelaxFault {
    fn name(&self) -> &'static str {
        RelaxMap::NAME
    }

    fn try_repair_with(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool {
        self.planner.try_repair_with(regions, scratch)
    }

    fn reset(&mut self) {
        self.planner.reset();
    }

    fn lines_used(&self) -> u64 {
        self.planner.lines_used()
    }

    fn bytes_used(&self) -> u64 {
        self.planner.bytes_used()
    }

    fn max_ways_used(&self) -> u32 {
        self.planner.max_ways_used()
    }
}

/// The FreeFault baseline (Kim & Erez, HPCA'15): lock one LLC line for
/// every faulty *physical* 64-byte block, found through the normal
/// physical-address mapping. Fault-oblivious, so a one-device row fault
/// costs `blocks_per_row` lines (256) instead of RelaxFault's 16.
#[derive(Debug, Clone)]
pub struct FreeFault {
    planner: LlcPlanner<AddressMap>,
}

impl FreeFault {
    /// Creates a planner. `llc.indexing` decides whether the LLC hashes its
    /// set index — the variable the paper's Figure 8 sweeps.
    ///
    /// # Panics
    ///
    /// Panics on invalid configs or way limits (see [`RelaxFault::new`]).
    pub fn new(dram: &DramConfig, llc: &CacheConfig, max_ways_per_set: u32) -> Self {
        let dram_map = AddressMap::nehalem_like(dram, true);
        Self {
            planner: LlcPlanner::new(dram_map, dram, llc, max_ways_per_set),
        }
    }

    /// Analytic count of LLC lines a fault would need in isolation.
    pub fn lines_needed(&self, regions: &[FaultRegion]) -> u64 {
        self.planner.space.lines_needed(regions)
    }

    /// The keys of every locked repair line, in arbitrary order,
    /// enumerated from the admitted regions. Writes out a pending
    /// closed-form admission first.
    pub fn line_keys(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.planner.line_keys()
    }

    /// `(set, lines locked)` for every occupied set, in arbitrary order.
    /// Writes out a pending closed-form admission first.
    pub fn occupied_sets(&mut self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.planner.occupied_sets()
    }

    /// Verifies the planner's occupancy bookkeeping (see
    /// [`RelaxFault::check_invariants`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.planner.check_invariants()
    }
}

impl RepairMechanism for FreeFault {
    fn name(&self) -> &'static str {
        AddressMap::NAME
    }

    fn try_repair_with(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool {
        self.planner.try_repair_with(regions, scratch)
    }

    fn reset(&mut self) {
        self.planner.reset();
    }

    fn lines_used(&self) -> u64 {
        self.planner.lines_used()
    }

    fn bytes_used(&self) -> u64 {
        self.planner.bytes_used()
    }

    fn max_ways_used(&self) -> u32 {
        self.planner.max_ways_used()
    }
}

/// DDR4-style post-package repair: each device owns one spare row per bank
/// group; blowing an eFuse permanently substitutes the spare for one faulty
/// row. Repairs are per-device and per-bank-group, so multi-row faults and
/// column faults exceed its reach (paper §6 and Figure 10's PPR line).
#[derive(Debug, Clone)]
pub struct Ppr {
    dram: DramConfig,
    banks_per_group: u32,
    spares_per_group: u32,
    /// Spares consumed, keyed by (flat rank, device, bank group).
    used: FxHashMap<(u32, u32, u32), u32>,
    /// Rows already repaired, keyed by (flat rank, device, bank, row) —
    /// a later fault inside a substituted row costs nothing.
    repaired_rows: FxHashSet<(u32, u32, u32, u32)>,
}

impl Ppr {
    /// Creates a PPR planner with the JEDEC defaults: one spare row per
    /// bank group, two banks per group for the 8-bank devices modelled
    /// here (DDR4 groups 4 of 16).
    pub fn new(dram: &DramConfig) -> Self {
        Self::with_spares(dram, dram.banks.div_ceil(4).max(1), 1)
    }

    /// Creates a PPR planner with custom grouping (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `banks_per_group` is 0 or exceeds the bank count.
    pub fn with_spares(dram: &DramConfig, banks_per_group: u32, spares_per_group: u32) -> Self {
        assert!(banks_per_group >= 1 && banks_per_group <= dram.banks);
        Self {
            dram: *dram,
            banks_per_group,
            spares_per_group,
            used: FxHashMap::default(),
            repaired_rows: FxHashSet::default(),
        }
    }

    /// Spare rows consumed so far.
    pub fn spares_used(&self) -> u64 {
        self.used.values().map(|&v| v as u64).sum()
    }

    /// The substituted rows, as `(flat rank, device, bank, row)` keys in
    /// arbitrary order.
    pub fn repaired_rows(&self) -> impl Iterator<Item = (u32, u32, u32, u32)> + '_ {
        self.repaired_rows.iter().copied()
    }

    /// Verifies the spare accounting: every group's consumed-spare count
    /// must equal its substituted-row count and respect the per-group
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counts: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for &(flat, device, bank, _row) in &self.repaired_rows {
            *counts
                .entry((flat, device, bank / self.banks_per_group))
                .or_insert(0) += 1;
        }
        for (group, &used) in &self.used {
            if used > self.spares_per_group {
                return Err(format!(
                    "group {group:?} consumed {used} spares, budget {}",
                    self.spares_per_group
                ));
            }
            if counts.get(group).copied().unwrap_or(0) != used {
                return Err(format!(
                    "group {group:?} claims {used} spares but has {} rows",
                    counts.get(group).copied().unwrap_or(0)
                ));
            }
        }
        if counts.len() != self.used.len() {
            return Err(format!(
                "{} groups have substituted rows but {} consumed spares",
                counts.len(),
                self.used.len()
            ));
        }
        Ok(())
    }

    /// Collects the faulty rows a fault needs substituted into `rows`.
    /// Returns `false` if the fault is not row-shaped (whole banks) or is
    /// too large to ever fit the spare budget.
    fn rows_needed(&self, regions: &[FaultRegion], rows: &mut Vec<(u32, u32, u32, u32)>) -> bool {
        // Cap: a fault needing more rows than the device has spares in
        // total can never be repaired; avoid enumerating huge clusters.
        let total_spares =
            (self.dram.banks / self.banks_per_group).max(1) as u64 * self.spares_per_group as u64;
        rows.clear();
        for r in regions {
            let Some(per_bank) = r.extent.rows_per_bank(&self.dram) else {
                return false;
            };
            if per_bank > total_spares {
                return false;
            }
            let flat = r.rank.flat_index(&self.dram);
            match r.extent {
                Extent::Bit { bank, row, .. }
                | Extent::Word { bank, row, .. }
                | Extent::Row { bank, row } => rows.push((flat, r.device, bank, row)),
                Extent::Column {
                    bank,
                    row_start,
                    row_count,
                    ..
                }
                | Extent::RowCluster {
                    bank,
                    row_start,
                    row_count,
                } => {
                    for row in row_start..row_start + row_count {
                        rows.push((flat, r.device, bank, row));
                    }
                }
                Extent::Banks { .. } => return false,
            }
        }
        rows.sort_unstable();
        rows.dedup();
        true
    }
}

impl RepairMechanism for Ppr {
    fn name(&self) -> &'static str {
        "PPR"
    }

    fn try_repair_with(&mut self, regions: &[FaultRegion], scratch: &mut PlanScratch) -> bool {
        if !self.rows_needed(regions, &mut scratch.rows) {
            ppr_metrics().record(RepairOutcome::RejectedCapacity, 0);
            return false;
        }
        // Check pass: rows are sorted, so each (rank, device, bank group)
        // is a contiguous run; count the genuinely new rows per group
        // against its remaining spares.
        let rows = &scratch.rows;
        let mut i = 0;
        while i < rows.len() {
            let (flat, device, bank, _) = rows[i];
            let group = bank / self.banks_per_group;
            let mut fresh = 0u32;
            let mut j = i;
            while j < rows.len() {
                let (f2, d2, b2, _) = rows[j];
                if (f2, d2, b2 / self.banks_per_group) != (flat, device, group) {
                    break;
                }
                fresh += !self.repaired_rows.contains(&rows[j]) as u32;
                j += 1;
            }
            if fresh > 0
                && self.used.get(&(flat, device, group)).copied().unwrap_or(0) + fresh
                    > self.spares_per_group
            {
                ppr_metrics().record(RepairOutcome::RejectedConflict, 0);
                return false;
            }
            i = j;
        }
        let mut spares = 0u64;
        for &row_key in rows.iter() {
            if self.repaired_rows.insert(row_key) {
                let (flat, device, bank, _row) = row_key;
                *self
                    .used
                    .entry((flat, device, bank / self.banks_per_group))
                    .or_insert(0) += 1;
                spares += 1;
            }
        }
        ppr_metrics().record(RepairOutcome::Accepted, spares);
        true
    }

    fn reset(&mut self) {
        self.used.clear();
        self.repaired_rows.clear();
    }

    fn lines_used(&self) -> u64 {
        0
    }

    fn bytes_used(&self) -> u64 {
        0
    }

    fn max_ways_used(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_dram::RankId;
    use relaxfault_faults::BankSet;

    fn dram() -> DramConfig {
        DramConfig::isca16_reliability()
    }

    fn llc() -> CacheConfig {
        CacheConfig::isca16_llc()
    }

    fn rank0() -> RankId {
        RankId {
            channel: 0,
            dimm: 0,
            rank: 0,
        }
    }

    fn region(extent: Extent) -> FaultRegion {
        FaultRegion {
            rank: rank0(),
            device: 3,
            extent,
        }
    }

    // --- RelaxFault ---

    #[test]
    fn relaxfault_costs_match_paper_arithmetic() {
        let d = dram();
        let mut rf = RelaxFault::new(&d, &llc(), 1);
        assert!(rf.try_repair(&[region(Extent::Bit {
            bank: 0,
            row: 1,
            col: 2
        })]));
        assert_eq!(rf.lines_used(), 1);
        assert!(rf.try_repair(&[region(Extent::Row { bank: 1, row: 7 })]));
        assert_eq!(rf.lines_used(), 17, "a device row adds 16 lines (1 KiB)");
        assert_eq!(rf.bytes_used(), 17 * 64);
        assert_eq!(rf.max_ways_used(), 1);
    }

    #[test]
    fn relaxfault_column_fault_fits_one_way() {
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        let col = region(Extent::Column {
            bank: 2,
            col: 40,
            row_start: 512,
            row_count: 512,
        });
        assert!(rf.try_repair(&[col]));
        assert_eq!(rf.lines_used(), 512); // 32 KiB
        assert_eq!(rf.max_ways_used(), 1);
    }

    #[test]
    fn relaxfault_cluster_needs_more_ways_past_llc_fill() {
        // 1024-row cluster = 16,384 lines: double the set count, so the
        // 1-way planner must refuse and the 2-way planner must succeed
        // with perfectly even occupancy.
        let cluster = region(Extent::RowCluster {
            bank: 0,
            row_start: 0,
            row_count: 1024,
        });
        let mut one = RelaxFault::new(&dram(), &llc(), 1);
        assert!(!one.try_repair(&[cluster]));
        assert_eq!(one.lines_used(), 0, "failed repair must not leak lines");
        let mut two = RelaxFault::new(&dram(), &llc(), 2);
        assert!(two.try_repair(&[cluster]));
        assert_eq!(two.lines_used(), 16384);
        assert_eq!(two.max_ways_used(), 2);
    }

    #[test]
    fn relaxfault_rejects_whole_bank_fast() {
        let mut rf = RelaxFault::new(&dram(), &llc(), 16);
        let bank = region(Extent::Banks {
            banks: BankSet::one(0),
        });
        assert!(!rf.try_repair(&[bank]));
        assert_eq!(rf.lines_used(), 0);
    }

    #[test]
    fn relaxfault_shares_lines_between_overlapping_faults() {
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        assert!(rf.try_repair(&[region(Extent::Row { bank: 0, row: 9 })]));
        // A later bit fault inside that row costs nothing new.
        assert!(rf.try_repair(&[region(Extent::Bit {
            bank: 0,
            row: 9,
            col: 77
        })]));
        assert_eq!(rf.lines_used(), 16);
    }

    #[test]
    fn relaxfault_way_limit_is_per_set() {
        // Under canonical indexing the device ID is pure tag: identical-row
        // faults on two devices collide set-for-set, so the 1-way planner
        // must refuse the second and a 2-way planner must take it.
        let unhashed = CacheConfig::isca16_llc_no_hash();
        let mut rf = RelaxFault::new(&dram(), &unhashed, 1);
        let a = FaultRegion {
            rank: rank0(),
            device: 3,
            extent: Extent::Row { bank: 0, row: 5 },
        };
        let b = FaultRegion {
            rank: rank0(),
            device: 4,
            extent: Extent::Row { bank: 0, row: 5 },
        };
        assert!(rf.try_repair(&[a]));
        assert!(!rf.try_repair(&[b]));
        assert_eq!(rf.lines_used(), 16, "refused repair leaves state intact");
        let mut rf2 = RelaxFault::new(&dram(), &unhashed, 2);
        assert!(rf2.try_repair(&[a]));
        assert!(rf2.try_repair(&[b]));
        assert_eq!(rf2.max_ways_used(), 2);
        // With set-index hashing the device tag bits fold into the index,
        // so the same pair spreads out and even 1 way suffices.
        let mut hashed = RelaxFault::new(&dram(), &llc(), 1);
        assert!(hashed.try_repair(&[a]));
        assert!(hashed.try_repair(&[b]));
        assert_eq!(hashed.max_ways_used(), 1);
    }

    #[test]
    fn relaxfault_repairs_ecc_devices_too() {
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        let ecc_dev = FaultRegion {
            rank: rank0(),
            device: 17,
            extent: Extent::Row { bank: 0, row: 0 },
        };
        assert!(rf.try_repair(&[ecc_dev]));
        assert_eq!(rf.lines_used(), 16);
    }

    #[test]
    fn try_add_rollback_restores_exact_pre_offer_state() {
        // Audit pin for the rollback path: a rejected repair must remove
        // exactly the lines it freshly locked before aborting. The lines
        // it skipped as shared, with an admitted region or an earlier
        // region of the same offer, must survive. Canonical indexing
        // makes the collision deterministic: the same row on two devices
        // lands set for set on the same sets.
        let unhashed = CacheConfig::isca16_llc_no_hash();
        let mut rf = RelaxFault::new(&dram(), &unhashed, 1);
        let first = region(Extent::Row { bank: 0, row: 5 });
        let collides = FaultRegion { device: 9, ..first };
        let fresh = region(Extent::Row { bank: 2, row: 8 });
        let inside = region(Extent::Bit {
            bank: 0,
            row: 5,
            col: 300,
        });
        assert!(rf.try_repair(&[first]));
        let mut keys_before: Vec<u64> = rf.line_keys().collect();
        keys_before.sort_unstable();
        let mut sets_before: Vec<(u32, u32)> = rf.occupied_sets().collect();
        sets_before.sort_unstable();
        rf.check_invariants().unwrap();

        // The second conflict locks 16 fresh lines, then skips the lines
        // the admitted row and its own first region lock, then overflows.
        for conflict in [&[first, collides][..], &[fresh, inside, fresh, collides]] {
            for _ in 0..3 {
                // Repeated offers must keep failing without eroding state.
                assert!(!rf.try_repair(conflict));
                let mut keys_after: Vec<u64> = rf.line_keys().collect();
                keys_after.sort_unstable();
                assert_eq!(keys_after, keys_before, "rollback leaked or dropped lines");
                let mut sets_after: Vec<(u32, u32)> = rf.occupied_sets().collect();
                sets_after.sort_unstable();
                assert_eq!(sets_after, sets_before, "rollback disturbed occupancy");
                assert_eq!((rf.lines_used(), rf.max_ways_used()), (16, 1));
                rf.check_invariants().unwrap();
            }
        }
        // The planner still accepts the offer without its conflict.
        assert!(rf.try_repair(&[fresh, inside, fresh]));
        rf.check_invariants().unwrap();
        assert_eq!(rf.lines_used(), 32);
    }

    #[test]
    fn regions_share_lines_where_their_line_boxes_meet() {
        let bit = |device, col| FaultRegion {
            rank: rank0(),
            device,
            extent: Extent::Bit {
                bank: 4,
                row: 9,
                col,
            },
        };
        // Columns 0 and 8 are column blocks 0 and 1 of column-group 0: one
        // RelaxFault line, two FreeFault blocks.
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        assert!(rf.try_repair(&[bit(3, 0), bit(3, 8)]));
        assert_eq!(rf.lines_used(), 1);
        // Another device's line is its own under RelaxFault, while
        // FreeFault's block spans the rank.
        assert!(rf.try_repair(&[bit(5, 0)]));
        assert_eq!(rf.lines_used(), 2);
        let mut ff = FreeFault::new(&dram(), &llc(), 1);
        assert!(ff.try_repair(&[bit(3, 0), bit(3, 8), bit(5, 0)]));
        assert_eq!(ff.lines_used(), 2);
        // A row offered with a bit inside it, in one offer, costs the row.
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        let row = region(Extent::Row { bank: 4, row: 9 });
        assert!(rf.try_repair(&[row, bit(3, 2047), row]));
        assert_eq!(rf.lines_used(), 16);
        rf.check_invariants().unwrap();
        ff.check_invariants().unwrap();
    }

    #[test]
    fn closed_form_admission_defers_its_write() {
        let mut rf = RelaxFault::new(&dram(), &llc(), 4);
        let cluster = region(Extent::RowCluster {
            bank: 0,
            row_start: 3,
            row_count: 1000,
        });
        assert!(rf.try_repair(&[cluster]));
        assert!(rf.planner.pending.is_some(), "decided in closed form");
        assert_eq!(rf.planner.occ.lines_used(), 0, "nothing written yet");
        assert_eq!(rf.lines_used(), 16_000);
        rf.check_invariants().unwrap();
        rf.reset();
        assert!(rf.planner.pending.is_none(), "reset drops it unwritten");
        assert_eq!((rf.lines_used(), rf.max_ways_used()), (0, 0));
        assert!(rf.try_repair(&[cluster]));
        let max_ways = rf.max_ways_used();
        assert!(rf.try_repair(&[region(Extent::Row { bank: 1, row: 0 })]));
        assert!(rf.planner.pending.is_none(), "a second offer writes it out");
        assert_eq!(rf.planner.occ.lines_used(), 16_016);
        assert!(rf.max_ways_used() >= max_ways);
        rf.check_invariants().unwrap();
    }

    #[test]
    fn aligned_blocks_tile_the_range() {
        let mut out = [(0, 0); MAX_BLOCKS];
        let n = aligned_blocks(
            IdxSet::Range {
                start: 3,
                count: 13,
            },
            &mut out,
        );
        assert_eq!(out[..n], [(3, 0), (4, 2), (8, 3)]);
        let n = aligned_blocks(IdxSet::All { domain: 16 }, &mut out);
        assert_eq!(out[..n], [(0, 4)]);
        let n = aligned_blocks(IdxSet::One(5), &mut out);
        assert_eq!(out[..n], [(5, 0)]);
        let n = aligned_blocks(
            IdxSet::Range {
                start: 1,
                count: u32::MAX,
            },
            &mut out,
        );
        assert_eq!(n, 32, "one block per bit of the unaligned start");
    }

    // --- delta-table enumeration ---

    /// Extents chosen to cross every table boundary: the row low/high
    /// split at 256, multi-row and multi-column rects, and off-origin
    /// rank/device coordinates.
    fn delta_probe_regions() -> Vec<FaultRegion> {
        let far_rank = RankId {
            channel: 3,
            dimm: 1,
            rank: 0,
        };
        vec![
            region(Extent::Bit {
                bank: 5,
                row: 777,
                col: 129,
            }),
            region(Extent::Row { bank: 2, row: 300 }),
            FaultRegion {
                rank: far_rank,
                device: 11,
                extent: Extent::Column {
                    bank: 1,
                    col: 40,
                    row_start: 200,
                    row_count: 120,
                },
            },
            FaultRegion {
                rank: far_rank,
                device: 7,
                extent: Extent::RowCluster {
                    bank: 7,
                    row_start: 250,
                    row_count: 12,
                },
            },
        ]
    }

    #[test]
    fn freefault_delta_blocks_match_direct_encode() {
        let d = dram();
        let c = llc();
        let ff = FreeFault::new(&d, &c, 16);
        let map = AddressMap::nehalem_like(&d, true);
        for r in delta_probe_regions() {
            let fast = ff.planner.lines_of(std::slice::from_ref(&r));
            let mut naive = Vec::new();
            {
                let rect = r.footprint(&d);
                for bank in rect.banks.iter() {
                    for row in rect.rows.iter() {
                        for colblock in rect.colblocks.iter() {
                            let addr = map
                                .encode(
                                    DramLoc {
                                        channel: r.rank.channel,
                                        dimm: r.rank.dimm,
                                        rank: r.rank.rank,
                                        bank,
                                        row,
                                        colblock,
                                    },
                                    0,
                                )
                                .0;
                            naive.push((c.set_of(addr), addr >> c.offset_bits()));
                        }
                    }
                }
            }
            assert_eq!(fast, naive, "extent {:?}", r.extent);
        }
    }

    #[test]
    fn relaxfault_delta_lines_match_direct_mapping() {
        let d = dram();
        let c = llc();
        for r in delta_probe_regions() {
            let rf = RelaxFault::new(&d, &c, 16);
            let mut fast = rf.planner.lines_of(std::slice::from_ref(&r));
            fast.sort_unstable();
            let map = rf.mapping();
            let mut naive: Vec<(u64, u64)> = rf
                .repair_lines(std::slice::from_ref(&r))
                .map(|l| (map.set_of(&l), map.key_of(&l)))
                .collect();
            naive.sort_unstable();
            assert_eq!(fast, naive, "extent {:?}", r.extent);
        }
    }

    // --- FreeFault ---

    #[test]
    fn freefault_row_fault_costs_16x_relaxfault() {
        let mut ff = FreeFault::new(&dram(), &llc(), 1);
        assert!(ff.try_repair(&[region(Extent::Row { bank: 1, row: 7 })]));
        assert_eq!(ff.lines_used(), 256, "one block per physical line (16 KiB)");
    }

    #[test]
    fn freefault_without_hash_cannot_repair_columns() {
        // The Figure 8 effect: a subarray column fault maps to few sets
        // under canonical indexing (row bits live in the tag).
        let col = region(Extent::Column {
            bank: 2,
            col: 40,
            row_start: 0,
            row_count: 512,
        });
        let mut plain = FreeFault::new(&dram(), &CacheConfig::isca16_llc_no_hash(), 16);
        assert!(!plain.try_repair(&[col]));
        let mut hashed = FreeFault::new(&dram(), &llc(), 1);
        assert!(hashed.try_repair(&[col]));
        assert_eq!(hashed.lines_used(), 512);
    }

    #[test]
    fn freefault_rejects_clusters_relaxfault_accepts() {
        let cluster = region(Extent::RowCluster {
            bank: 0,
            row_start: 0,
            row_count: 64,
        });
        // 64 rows × 256 blocks = 16,384 lines for FreeFault (1 MiB), with
        // 16 lines per set — beyond a 4-way budget.
        let mut ff = FreeFault::new(&dram(), &llc(), 4);
        assert!(!ff.try_repair(&[cluster]));
        // RelaxFault coalesces to 1,024 lines spread one per set.
        let mut rf = RelaxFault::new(&dram(), &llc(), 1);
        assert!(rf.try_repair(&[cluster]));
        assert_eq!(rf.lines_used(), 1024);
    }

    #[test]
    fn freefault_bit_fault_is_one_line() {
        let mut ff = FreeFault::new(&dram(), &llc(), 1);
        assert!(ff.try_repair(&[region(Extent::Bit {
            bank: 0,
            row: 0,
            col: 0
        })]));
        assert_eq!(ff.lines_used(), 1);
        // Another device, same block: the block is already locked.
        let other = FaultRegion {
            rank: rank0(),
            device: 9,
            extent: Extent::Bit {
                bank: 0,
                row: 0,
                col: 3,
            },
        };
        assert!(ff.try_repair(&[other]));
        assert_eq!(ff.lines_used(), 1, "FreeFault repairs whole blocks");
    }

    // --- PPR ---

    #[test]
    fn ppr_repairs_rows_and_bits() {
        let mut ppr = Ppr::new(&dram());
        assert!(ppr.try_repair(&[region(Extent::Row { bank: 0, row: 1 })]));
        assert!(ppr.try_repair(&[region(Extent::Bit {
            bank: 2,
            row: 3,
            col: 4
        })]));
        assert_eq!(ppr.spares_used(), 2);
        assert_eq!(ppr.lines_used(), 0);
    }

    #[test]
    fn ppr_exhausts_per_group_spares() {
        let d = dram();
        let mut ppr = Ppr::new(&d); // 8 banks → 4 groups of 2, 1 spare each
        assert!(ppr.try_repair(&[region(Extent::Row { bank: 0, row: 1 })]));
        // Bank 1 shares group 0 with bank 0: no spare left.
        assert!(!ppr.try_repair(&[region(Extent::Row { bank: 1, row: 9 })]));
        // Bank 2 is group 1: fine.
        assert!(ppr.try_repair(&[region(Extent::Row { bank: 2, row: 9 })]));
        // A different *device* has its own spares.
        let other_dev = FaultRegion {
            rank: rank0(),
            device: 7,
            extent: Extent::Row { bank: 0, row: 1 },
        };
        assert!(ppr.try_repair(&[other_dev]));
    }

    #[test]
    fn ppr_cannot_repair_columns_or_banks() {
        let mut ppr = Ppr::new(&dram());
        let col = region(Extent::Column {
            bank: 0,
            col: 0,
            row_start: 0,
            row_count: 512,
        });
        let bank = region(Extent::Banks {
            banks: BankSet::one(0),
        });
        let cluster = region(Extent::RowCluster {
            bank: 0,
            row_start: 0,
            row_count: 16,
        });
        assert!(!ppr.try_repair(&[col]));
        assert!(!ppr.try_repair(&[bank]));
        assert!(!ppr.try_repair(&[cluster]));
        assert_eq!(ppr.spares_used(), 0);
    }

    #[test]
    fn ppr_free_rides_on_substituted_rows() {
        let mut ppr = Ppr::new(&dram());
        assert!(ppr.try_repair(&[region(Extent::Row { bank: 0, row: 1 })]));
        // New fault inside the already-substituted row: free.
        assert!(ppr.try_repair(&[region(Extent::Bit {
            bank: 0,
            row: 1,
            col: 5
        })]));
        assert_eq!(ppr.spares_used(), 1);
    }

    #[test]
    fn ppr_with_generous_spares_takes_small_clusters() {
        let mut ppr = Ppr::with_spares(&dram(), 2, 8);
        let cluster = region(Extent::RowCluster {
            bank: 0,
            row_start: 0,
            row_count: 8,
        });
        assert!(ppr.try_repair(&[cluster]));
        assert_eq!(ppr.spares_used(), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use relaxfault_dram::RankId;
    use relaxfault_util::prop::{self, Source};
    use relaxfault_util::{prop_assert, prop_assert_eq};

    fn arb_extent(src: &mut Source) -> Extent {
        match src.choice_index(5) {
            0 => Extent::Bit {
                bank: src.u32(0, 7),
                row: src.u32(0, 65535),
                col: src.u32(0, 2047),
            },
            1 => Extent::Row {
                bank: src.u32(0, 7),
                row: src.u32(0, 65535),
            },
            2 => Extent::Column {
                bank: src.u32(0, 7),
                col: src.u32(0, 2047),
                row_start: src.u32(0, 126) * 512,
                row_count: 512,
            },
            3 => {
                let bank = src.u32(0, 7);
                let start = src.u32(0, 59999);
                let rows = src.u32(1, 2047);
                Extent::RowCluster {
                    bank,
                    row_start: start.min(65536 - rows),
                    row_count: rows,
                }
            }
            _ => Extent::Banks {
                banks: relaxfault_faults::BankSet::one(src.u32(0, 7)),
            },
        }
    }

    fn arb_region(src: &mut Source) -> FaultRegion {
        FaultRegion {
            rank: RankId {
                channel: src.u32(0, 3),
                dimm: src.u32(0, 1),
                rank: 0,
            },
            device: src.u32(0, 17),
            extent: arb_extent(src),
        }
    }

    /// try_repair is atomic: on failure nothing changes; on success the
    /// line count grows by at most the analytic need and the way limit
    /// holds.
    #[test]
    fn relaxfault_try_repair_is_atomic() {
        prop::check(64, |src| {
            let regions = src.vec(1, 5, arb_region);
            let dram = DramConfig::isca16_reliability();
            let llc = CacheConfig::isca16_llc();
            let mut rf = RelaxFault::new(&dram, &llc, 1);
            for r in &regions {
                let before_lines = rf.lines_used();
                let before_ways = rf.max_ways_used();
                let need = rf.lines_needed(&[*r]);
                let ok = rf.try_repair(&[*r]);
                if ok {
                    prop_assert!(rf.lines_used() <= before_lines + need);
                    prop_assert!(rf.max_ways_used() <= 1);
                } else {
                    prop_assert_eq!(rf.lines_used(), before_lines, "failed repair leaked lines");
                    prop_assert_eq!(rf.max_ways_used(), before_ways);
                }
                prop_assert_eq!(rf.bytes_used(), rf.lines_used() * 64);
                if let Err(e) = rf.check_invariants() {
                    prop_assert!(false, "invariant violated: {e}");
                }
            }
            Ok(())
        });
    }

    /// FreeFault never uses fewer lines than RelaxFault for the same
    /// fault (coalescing only helps), and both respect analytic counts.
    #[test]
    fn coalescing_never_loses() {
        prop::check(64, |src| {
            let region = arb_region(src);
            let dram = DramConfig::isca16_reliability();
            let llc = CacheConfig::isca16_llc();
            let mut rf = RelaxFault::new(&dram, &llc, 16);
            let mut ff = FreeFault::new(&dram, &llc, 16);
            prop_assert!(rf.lines_needed(&[region]) <= ff.lines_needed(&[region]));
            let rf_ok = rf.try_repair(&[region]);
            let ff_ok = ff.try_repair(&[region]);
            if rf_ok && ff_ok {
                prop_assert!(rf.lines_used() <= ff.lines_used());
            }
            // FreeFault never repairs something RelaxFault cannot: its
            // footprint per fault is a superset in lines and sets.
            if !rf_ok {
                // RelaxFault refused only for budget reasons; FreeFault
                // needs ≥ as many lines, so it must refuse too.
                prop_assert!(!ff_ok);
            }
            Ok(())
        });
    }

    /// PPR accounting: spares used never exceeds groups × devices ×
    /// spares, and repairs are idempotent per row.
    #[test]
    fn ppr_spares_bounded() {
        prop::check(64, |src| {
            let regions = src.vec(1, 9, arb_region);
            let dram = DramConfig::isca16_reliability();
            let mut ppr = Ppr::new(&dram);
            for r in &regions {
                let _ = ppr.try_repair(&[*r]);
                let _ = ppr.try_repair(&[*r]); // idempotent second offer
            }
            let bound = dram.ranks_per_node() as u64
                * dram.devices_per_rank() as u64
                * (dram.banks / 2) as u64;
            prop_assert!(ppr.spares_used() <= bound);
            Ok(())
        });
    }
}
