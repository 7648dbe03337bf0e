//! The runtime cache model: LRU, dirty state, locked repair lines.

use crate::config::{CacheConfig, SetIndex};

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the block was resident.
    pub hit: bool,
    /// On a miss that allocated over a valid dirty line, the evicted victim.
    pub evicted: Option<Evicted>,
    /// On a miss in a set whose ways are all locked, the access bypasses the
    /// cache (no allocation).
    pub bypassed: bool,
}

/// A victim written back on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Byte address of the victim block (reconstructable because the model
    /// stores full block addresses).
    pub addr: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

/// Aggregate access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses that could not allocate (fully locked set).
    pub bypasses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate over all demand accesses (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// `key` of a way that holds no normal line. A block of any cache with
/// lines of two bytes or more is below it; with one-byte lines a block
/// can equal it, which is why a lookup of that block also checks `age`.
const NO_BLOCK: u64 = u64::MAX;

/// `age` of a locked way: above every valid unlocked way's age, so a
/// victim scan picks it only when the whole set is locked.
const LOCKED: u64 = u64::MAX;

/// Whether a way's `age` says it holds a valid unlocked (normal) line.
#[inline]
fn is_normal(age: u64) -> bool {
    age != 0 && age != LOCKED
}

/// The first way of a set with the smallest `age`, found without
/// branches: the first invalid way, else the least recently used
/// unlocked one (valid unlocked ages are distinct and nonzero), else a
/// locked way when the whole set is locked. Even and odd ways form two
/// independent compare-and-select chains; the merge keeps the lower way
/// on a tie.
#[inline]
fn oldest(age: &[u64]) -> usize {
    let older = |best: (u64, usize), way: (u64, usize)| if way.0 < best.0 { way } else { best };
    let (mut even, mut odd) = ((u64::MAX, 0), (u64::MAX, 0));
    let mut pairs = age.chunks_exact(2);
    for (k, pair) in pairs.by_ref().enumerate() {
        even = older(even, (pair[0], 2 * k));
        odd = older(odd, (pair[1], 2 * k + 1));
    }
    if let [last] = pairs.remainder() {
        even = older(even, (*last, age.len() - 1));
    }
    even.min(odd).1
}

/// A set-associative cache with LRU replacement, way locking, and a
/// RelaxFault tag space.
///
/// Normal accesses go through [`Cache::access`]; repair lines are installed
/// with [`Cache::lock_repair_line`] and looked up with
/// [`Cache::probe_repair`]. A repair line never hits a normal access and
/// vice versa — the one-bit tag extension of the paper's Figure 4.
///
/// Each way is two hot words: `key` holds the block of a valid unlocked
/// line (else `NO_BLOCK`), so a lookup reads 8 bytes per way, and `age`
/// holds 0 for an invalid way, `(tick << 1) | dirty` for a valid unlocked
/// one and `LOCKED` for a locked one, so a victim scan reads 8 more. Locked ways are always
/// repair-space lines; their blocks live in the cold `repair` vector,
/// which only [`Cache::probe_repair`] and [`Cache::lock_repair_line`]
/// read.
///
/// # Examples
///
/// ```
/// use relaxfault_cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::isca16_l1());
/// c.access(0x80, true);
/// let r = c.access(0x80, false);
/// assert!(r.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    index: SetIndex,
    ways: usize,
    key: Vec<u64>,
    age: Vec<u64>,
    repair: Vec<u64>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid CacheConfig");
        let lines = cfg.total_lines() as usize;
        Self {
            cfg,
            index: SetIndex::new(&cfg),
            ways: cfg.ways as usize,
            key: vec![NO_BLOCK; lines],
            age: vec![0; lines],
            repair: vec![0; lines],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The block of `addr` and the first way index of its set.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let block = self.index.block(addr);
        (block, self.index.set_of_block(block) as usize * self.ways)
    }

    fn set_slice(&self, set: u64) -> std::ops::Range<usize> {
        let base = set as usize * self.ways;
        base..base + self.ways
    }

    /// The way of the set at `base` holding `block` as a normal line.
    #[inline]
    fn find(&self, base: usize, block: u64) -> Option<usize> {
        let w = self.key[base..base + self.ways]
            .iter()
            .position(|&k| k == block)?;
        if block == NO_BLOCK {
            return self.find_no_block(base + w);
        }
        Some(base + w)
    }

    /// `find` for the one block that equals the empty key (possible only
    /// with one-byte lines), from the set's first way holding that key:
    /// the first such way that is valid and unlocked.
    #[cold]
    fn find_no_block(&self, from: usize) -> Option<usize> {
        let end = from - from % self.ways + self.ways;
        (from..end).find(|&i| self.key[i] == NO_BLOCK && is_normal(self.age[i]))
    }

    /// The way a miss in the set at `base` fills: a locked one only when
    /// the whole set is locked.
    #[inline]
    fn victim(&self, base: usize) -> usize {
        base + oldest(&self.age[base..base + self.ways])
    }

    /// Counts and returns the writeback of unlocked way `i`'s line, if
    /// it is valid and dirty.
    #[inline]
    fn writeback(&mut self, i: usize) -> Option<Evicted> {
        (self.age[i] & 1 == 1).then(|| {
            self.stats.writebacks += 1;
            Evicted {
                addr: self.index.addr(self.key[i]),
                dirty: true,
            }
        })
    }

    /// Marks way `i` locked, holding `block` in the repair tag space.
    fn lock_way(&mut self, i: usize, block: u64) {
        self.key[i] = NO_BLOCK;
        self.age[i] = LOCKED;
        self.repair[i] = block;
    }

    /// Demand access to a byte address; allocates on miss (LRU victim among
    /// unlocked ways). Returns hit/miss, any dirty victim, and whether the
    /// access had to bypass a fully locked set.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let (block, base) = self.locate(addr);
        self.tick += 1;
        let stamp = (self.tick << 1) | write as u64;

        if let Some(i) = self.find(base, block) {
            self.age[i] = stamp | (self.age[i] & 1);
            self.stats.hits += 1;
            return Access {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }
        self.stats.misses += 1;

        let i = self.victim(base);
        if self.age[i] == LOCKED {
            self.stats.bypasses += 1;
            return Access {
                hit: false,
                evicted: None,
                bypassed: true,
            };
        }
        let evicted = self.writeback(i);
        self.key[i] = block;
        self.age[i] = stamp;
        Access {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Whether a normal block is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (block, base) = self.locate(addr);
        self.find(base, block).is_some()
    }

    /// Whether a repair-space line is resident (no state change).
    ///
    /// `repair_addr` is an address in the RelaxFault repair space (built by
    /// `relaxfault-core`'s mapping); it is matched only against lines whose
    /// RelaxFault indicator is set.
    pub fn probe_repair(&self, repair_addr: u64) -> bool {
        let (block, base) = self.locate(repair_addr);
        (base..base + self.ways).any(|i| self.age[i] == LOCKED && self.repair[i] == block)
    }

    /// Installs a locked repair line for `repair_addr`, evicting the LRU
    /// unlocked way of its set if needed. Returns the dirty victim, if any.
    ///
    /// # Errors
    ///
    /// Fails if every way of the set is already locked, or the line is
    /// already present.
    pub fn lock_repair_line(&mut self, repair_addr: u64) -> Result<Option<Evicted>, String> {
        if self.probe_repair(repair_addr) {
            return Err(format!("repair line {repair_addr:#x} already locked"));
        }
        let (block, base) = self.locate(repair_addr);
        let i = self.victim(base);
        if self.age[i] == LOCKED {
            return Err(format!("set {} fully locked", base / self.ways));
        }
        let evicted = self.writeback(i);
        self.lock_way(i, block);
        Ok(evicted)
    }

    /// Locks the first `n` unlocked ways of every set (marks them
    /// unavailable for normal allocation), emulating repair occupancy the
    /// way the paper's performance study does.
    ///
    /// # Panics
    ///
    /// Panics if `n > ways`.
    pub fn lock_ways_per_set(&mut self, n: u32) {
        assert!(n <= self.cfg.ways, "cannot lock more ways than exist");
        for set in 0..self.cfg.sets() {
            let mut left = n;
            for i in self.set_slice(set) {
                if left == 0 {
                    break;
                }
                if self.age[i] != LOCKED {
                    self.lock_way(i, u64::MAX - i as u64); // placeholder tag
                    left -= 1;
                }
            }
        }
    }

    /// Locks one way in each of `line_count` distinct sets chosen by a
    /// caller-supplied selector (the paper's "randomly assign 100 KiB"
    /// experiment passes a random set sequence).
    ///
    /// Returns how many lines were actually locked (a set already saturated
    /// with locks is skipped).
    pub fn lock_lines_in_sets<I: IntoIterator<Item = u64>>(&mut self, sets: I) -> u64 {
        let mut locked = 0;
        for set in sets {
            let set = set % self.cfg.sets();
            let slot = self.set_slice(set).find(|&i| self.age[i] != LOCKED);
            if let Some(i) = slot {
                self.lock_way(i, u64::MAX - i as u64);
                locked += 1;
            }
        }
        locked
    }

    /// Number of locked ways in `set`.
    pub fn locked_ways_in_set(&self, set: u64) -> u32 {
        self.age[self.set_slice(set)]
            .iter()
            .filter(|&&a| a == LOCKED)
            .count() as u32
    }

    /// Total locked lines in the cache.
    pub fn total_locked(&self) -> u64 {
        self.age.iter().filter(|&&a| a == LOCKED).count() as u64
    }

    /// Unlocks and invalidates every locked line (repair teardown).
    pub fn unlock_all(&mut self) {
        for a in &mut self.age {
            if *a == LOCKED {
                *a = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Indexing;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096, // 16 sets × 4 ways × 64 B
            ways: 4,
            line_bytes: 64,
            indexing: Indexing::Canonical,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different byte");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 5 conflicting blocks in a 4-way set (set 0: addresses k*16*64).
        let addrs: Vec<u64> = (0..5).map(|k| k * 16 * 64).collect();
        for &a in &addrs[..4] {
            c.access(a, false);
        }
        c.access(addrs[0], false); // refresh block 0
        c.access(addrs[4], false); // evicts block 1 (oldest)
        assert!(c.probe(addrs[0]));
        assert!(!c.probe(addrs[1]));
        assert!(c.probe(addrs[4]));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let addrs: Vec<u64> = (0..5).map(|k| k * 16 * 64).collect();
        c.access(addrs[0], true); // dirty
        for &a in &addrs[1..4] {
            c.access(a, false);
        }
        let r = c.access(addrs[4], false);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                addr: addrs[0],
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn repair_lines_do_not_match_normal_lookups() {
        let mut c = small();
        c.lock_repair_line(0x2000).unwrap();
        assert!(c.probe_repair(0x2000));
        assert!(!c.probe(0x2000), "repair bit isolates the tag space");
        assert!(!c.access(0x2000, false).hit);
        // And the normal line now coexists with the repair line.
        assert!(c.probe(0x2000));
        assert!(c.probe_repair(0x2000));
    }

    #[test]
    fn locked_lines_survive_pressure() {
        let mut c = small();
        c.lock_repair_line(0).unwrap();
        // Hammer the same set with conflicting normal blocks.
        for k in 0..64 {
            c.access(k * 16 * 64, true);
        }
        assert!(c.probe_repair(0));
        assert_eq!(c.locked_ways_in_set(0), 1);
    }

    #[test]
    fn fully_locked_set_bypasses() {
        let mut c = small();
        for k in 0..4 {
            // 4 distinct repair blocks landing in set 0.
            c.lock_repair_line(k * 16 * 64).unwrap();
        }
        let r = c.access(0, false);
        assert!(!r.hit);
        assert!(r.bypassed);
        assert_eq!(c.stats().bypasses, 1);
        // A fifth lock in the same set must fail.
        assert!(c.lock_repair_line(4 * 16 * 64).is_err());
    }

    #[test]
    fn duplicate_repair_lock_fails() {
        let mut c = small();
        c.lock_repair_line(0x40).unwrap();
        assert!(c.lock_repair_line(0x40).is_err());
    }

    #[test]
    fn lock_ways_per_set_reduces_capacity() {
        let mut c = small();
        c.lock_ways_per_set(1);
        assert_eq!(c.total_locked(), 16);
        for set in 0..16 {
            assert_eq!(c.locked_ways_in_set(set), 1);
        }
        // Still functions as a 3-way cache.
        let addrs: Vec<u64> = (0..3).map(|k| k * 16 * 64).collect();
        for &a in &addrs {
            c.access(a, false);
        }
        assert!(addrs.iter().all(|&a| c.probe(a)));
    }

    #[test]
    fn lock_lines_in_sets_counts() {
        let mut c = small();
        let n = c.lock_lines_in_sets([0u64, 1, 2, 0, 0, 0, 0]);
        // Set 0 saturates at 4 ways; 3 extra requests are dropped.
        assert_eq!(n, 6);
        assert_eq!(c.locked_ways_in_set(0), 4);
    }

    #[test]
    fn unlock_all_restores_capacity() {
        let mut c = small();
        c.lock_ways_per_set(4);
        assert!(c.access(0, false).bypassed);
        c.unlock_all();
        assert_eq!(c.total_locked(), 0);
        assert!(!c.access(0, false).bypassed);
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(64 * 16, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::Indexing;
    use relaxfault_util::prop;
    use relaxfault_util::{prop_assert, prop_assert_eq};

    /// Whatever the access pattern, structural invariants hold: lines
    /// per set never exceed associativity, stats balance, and locked
    /// lines survive.
    #[test]
    fn structural_invariants() {
        prop::check(48, |src| {
            let addrs = src.vec(1, 399, |s| (s.u64(0, (1 << 20) - 1), s.bool()));
            let locked_sets = src.vec(0, 7, |s| s.u64(0, 15));
            let cfg = CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
                indexing: Indexing::XorFold { rotation: 3 },
            };
            let mut c = Cache::new(cfg);
            let locked = c.lock_lines_in_sets(locked_sets.iter().copied());
            for &(a, w) in &addrs {
                let r = c.access(a, w);
                // A bypass can only happen in a fully locked set.
                if r.bypassed {
                    prop_assert_eq!(c.locked_ways_in_set(cfg.set_of(a)), cfg.ways);
                }
            }
            prop_assert_eq!(c.total_locked(), locked);
            let s = *c.stats();
            prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
            prop_assert!(s.bypasses <= s.misses);
            // Re-access of the most recent address must hit unless its set
            // is fully locked.
            let (last, _) = addrs[addrs.len() - 1];
            if c.locked_ways_in_set(cfg.set_of(last)) < cfg.ways {
                prop_assert!(c.probe(last));
            }
            Ok(())
        });
    }

    /// One call of the public API, with its inputs.
    #[derive(Debug, Clone)]
    enum Op {
        Access(u64, bool),
        Probe(u64),
        ProbeRepair(u64),
        LockRepairLine(u64),
        LockWaysPerSet(u32),
        LockLinesInSets(Vec<u64>),
        UnlockAll,
        ResetStats,
    }

    /// The two-word model and the reference model agree call by call:
    /// every `Access` (with its `Evicted`), every `lock_repair_line`
    /// result, every `probe`/`probe_repair` answer, the statistics and
    /// the locked counts, under canonical and XOR-folded indexing, with
    /// one-byte and 64-byte lines, one set or many. Addresses come from a
    /// small pool (so lines hit, conflict and get evicted dirty) and from
    /// the top of the address space, where one-byte blocks meet the empty
    /// way's key and the placeholder tags of locked ways.
    #[test]
    fn matches_reference_model() {
        prop::check(300, |src| {
            let line_bytes = [64u32, 1][src.choice_index(2)];
            let ways = 1u32 << src.u32(0, 4);
            let sets = 1u64 << src.u32(0, 6);
            let indexing = if src.bool() {
                Indexing::XorFold {
                    rotation: src.u32(0, 40),
                }
            } else {
                Indexing::Canonical
            };
            let cfg = CacheConfig {
                size_bytes: sets * ways as u64 * line_bytes as u64,
                ways,
                line_bytes,
                indexing,
            };
            let pool = src.vec(1, 24, |s| s.u64(0, u64::MAX));
            let addr = |s: &mut prop::Source| match s.weighted(&[8, 2, 1, 1]) {
                0 => pool[s.choice_index(pool.len())],
                1 => pool[s.choice_index(pool.len())] ^ s.u64(0, line_bytes as u64 - 1),
                2 => u64::MAX - s.u64(0, 2 * sets * ways as u64),
                _ => s.u64(0, u64::MAX),
            };
            let ops = src.vec(1, 400, |s| match s.weighted(&[24, 3, 3, 3, 1, 1, 1, 1]) {
                0 => Op::Access(addr(s), s.bool()),
                1 => Op::Probe(addr(s)),
                2 => Op::ProbeRepair(addr(s)),
                3 => Op::LockRepairLine(addr(s)),
                4 => Op::LockWaysPerSet(s.u32(0, ways)),
                5 => Op::LockLinesInSets(s.vec(0, 8, |s| s.u64(0, 4 * sets))),
                6 => Op::UnlockAll,
                _ => Op::ResetStats,
            });
            let mut fast = Cache::new(cfg);
            let mut slow = reference::Cache::new(cfg);
            for op in &ops {
                match op {
                    &Op::Access(a, w) => {
                        prop_assert_eq!(cfg.set_and_tag(a), reference::set_and_tag(&cfg, a));
                        prop_assert_eq!(fast.access(a, w), slow.access(a, w), "{:?}", op);
                    }
                    &Op::Probe(a) => prop_assert_eq!(fast.probe(a), slow.probe(a), "{:?}", op),
                    &Op::ProbeRepair(a) => {
                        prop_assert_eq!(fast.probe_repair(a), slow.probe_repair(a), "{:?}", op)
                    }
                    &Op::LockRepairLine(a) => prop_assert_eq!(
                        fast.lock_repair_line(a),
                        slow.lock_repair_line(a),
                        "{:?}",
                        op
                    ),
                    &Op::LockWaysPerSet(n) => {
                        fast.lock_ways_per_set(n);
                        slow.lock_ways_per_set(n);
                    }
                    Op::LockLinesInSets(v) => prop_assert_eq!(
                        fast.lock_lines_in_sets(v.iter().copied()),
                        slow.lock_lines_in_sets(v.iter().copied()),
                        "{:?}",
                        op
                    ),
                    Op::UnlockAll => {
                        fast.unlock_all();
                        slow.unlock_all();
                    }
                    Op::ResetStats => {
                        fast.reset_stats();
                        slow.reset_stats();
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats(), "after {:?}", op);
                prop_assert_eq!(fast.total_locked(), slow.total_locked(), "after {:?}", op);
            }
            for set in 0..sets {
                prop_assert_eq!(fast.locked_ways_in_set(set), slow.locked_ways_in_set(set));
            }
            Ok(())
        });
    }

    /// LRU is a permutation policy: filling a set with exactly `ways`
    /// distinct blocks keeps them all resident.
    #[test]
    fn full_set_retention() {
        prop::check(48, |src| {
            let base = src.u64(0, 15);
            let cfg = CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
                indexing: Indexing::Canonical,
            };
            let mut c = Cache::new(cfg);
            let addrs: Vec<u64> = (0..4).map(|k| (base + k * 16) * 64).collect();
            for &a in &addrs {
                c.access(a, false);
            }
            for &a in &addrs {
                prop_assert!(c.probe(a));
            }
            Ok(())
        });
    }
}

/// The model `Cache` replaced — one 24-byte struct per way, a linear
/// victim scan, and a set index that divides once per tag chunk — kept as
/// the reference that `proptests::matches_reference_model` holds the
/// two-word layout to.
#[cfg(test)]
mod reference {
    use super::{Access, CacheStats, Evicted};
    use crate::config::{CacheConfig, Indexing};
    use relaxfault_util::bits::mask;

    /// `(set, tag)` of `addr`; a one-set cache maps everything to set 0.
    pub fn set_and_tag(cfg: &CacheConfig, addr: u64) -> (u64, u64) {
        let block = addr >> cfg.offset_bits();
        let sb = cfg.set_bits();
        let index = block & mask(sb);
        let tag = block >> sb;
        let set = match cfg.indexing {
            Indexing::XorFold { rotation } if sb > 0 => {
                let mut set = index;
                let mut rest = tag;
                let mut chunk_no = 1u32;
                while rest != 0 {
                    let chunk = rest & mask(sb);
                    set ^= rotl(chunk, (rotation * chunk_no) % sb, sb);
                    rest >>= sb;
                    chunk_no += 1;
                }
                set
            }
            _ => index,
        };
        (set, tag)
    }

    fn rotl(v: u64, by: u32, width: u32) -> u64 {
        if by.is_multiple_of(width) {
            return v & mask(width);
        }
        let by = by % width;
        ((v << by) | (v >> (width - by))) & mask(width)
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        valid: bool,
        dirty: bool,
        locked: bool,
        repair: bool,
        block_addr: u64,
        lru: u64,
    }

    pub struct Cache {
        cfg: CacheConfig,
        lines: Vec<Line>,
        stats: CacheStats,
        tick: u64,
    }

    impl Cache {
        pub fn new(cfg: CacheConfig) -> Self {
            Self {
                cfg,
                lines: vec![Line::default(); cfg.total_lines() as usize],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        pub fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
        }

        fn set_slice(&self, set: u64) -> std::ops::Range<usize> {
            let base = set as usize * self.cfg.ways as usize;
            base..base + self.cfg.ways as usize
        }

        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        /// Invalid first, else LRU among unlocked.
        fn victim(&self, set: u64) -> Option<usize> {
            let mut victim: Option<usize> = None;
            for i in self.set_slice(set) {
                let line = &self.lines[i];
                if line.locked {
                    continue;
                }
                if !line.valid {
                    return Some(i);
                }
                match victim {
                    Some(v) if self.lines[v].lru <= line.lru => {}
                    _ => victim = Some(i),
                }
            }
            victim
        }

        fn writeback(&mut self, v: usize) -> Option<Evicted> {
            let old = self.lines[v];
            (old.valid && old.dirty).then(|| {
                self.stats.writebacks += 1;
                Evicted {
                    addr: old.block_addr << self.cfg.offset_bits(),
                    dirty: true,
                }
            })
        }

        pub fn access(&mut self, addr: u64, write: bool) -> Access {
            let (set, _) = set_and_tag(&self.cfg, addr);
            let block = addr >> self.cfg.offset_bits();
            let tick = self.next_tick();
            for i in self.set_slice(set) {
                let line = &mut self.lines[i];
                if line.valid && !line.repair && line.block_addr == block {
                    line.lru = tick;
                    line.dirty |= write;
                    self.stats.hits += 1;
                    return Access {
                        hit: true,
                        evicted: None,
                        bypassed: false,
                    };
                }
            }
            self.stats.misses += 1;
            let Some(v) = self.victim(set) else {
                self.stats.bypasses += 1;
                return Access {
                    hit: false,
                    evicted: None,
                    bypassed: true,
                };
            };
            let evicted = self.writeback(v);
            self.lines[v] = Line {
                valid: true,
                dirty: write,
                locked: false,
                repair: false,
                block_addr: block,
                lru: tick,
            };
            Access {
                hit: false,
                evicted,
                bypassed: false,
            }
        }

        pub fn probe(&self, addr: u64) -> bool {
            let (set, _) = set_and_tag(&self.cfg, addr);
            let block = addr >> self.cfg.offset_bits();
            self.set_slice(set).any(|i| {
                let l = &self.lines[i];
                l.valid && !l.repair && l.block_addr == block
            })
        }

        pub fn probe_repair(&self, repair_addr: u64) -> bool {
            let (set, _) = set_and_tag(&self.cfg, repair_addr);
            let block = repair_addr >> self.cfg.offset_bits();
            self.set_slice(set).any(|i| {
                let l = &self.lines[i];
                l.valid && l.repair && l.block_addr == block
            })
        }

        pub fn lock_repair_line(&mut self, repair_addr: u64) -> Result<Option<Evicted>, String> {
            if self.probe_repair(repair_addr) {
                return Err(format!("repair line {repair_addr:#x} already locked"));
            }
            let (set, _) = set_and_tag(&self.cfg, repair_addr);
            let block = repair_addr >> self.cfg.offset_bits();
            let tick = self.next_tick();
            let Some(v) = self.victim(set) else {
                return Err(format!("set {set} fully locked"));
            };
            let evicted = self.writeback(v);
            self.lines[v] = Line {
                valid: true,
                dirty: false,
                locked: true,
                repair: true,
                block_addr: block,
                lru: tick,
            };
            Ok(evicted)
        }

        fn lock_placeholder(&mut self, i: usize) {
            self.lines[i] = Line {
                valid: true,
                dirty: false,
                locked: true,
                repair: true,
                block_addr: u64::MAX - i as u64,
                lru: 0,
            };
        }

        pub fn lock_ways_per_set(&mut self, n: u32) {
            for set in 0..self.cfg.sets() {
                let mut locked = 0;
                for i in self.set_slice(set) {
                    if locked >= n {
                        break;
                    }
                    if !self.lines[i].locked {
                        self.lock_placeholder(i);
                        locked += 1;
                    }
                }
            }
        }

        pub fn lock_lines_in_sets<I: IntoIterator<Item = u64>>(&mut self, sets: I) -> u64 {
            let mut locked = 0;
            for set in sets {
                let set = set % self.cfg.sets();
                if let Some(i) = self.set_slice(set).find(|&i| !self.lines[i].locked) {
                    self.lock_placeholder(i);
                    locked += 1;
                }
            }
            locked
        }

        pub fn locked_ways_in_set(&self, set: u64) -> u32 {
            self.set_slice(set)
                .filter(|&i| self.lines[i].locked)
                .count() as u32
        }

        pub fn total_locked(&self) -> u64 {
            self.lines.iter().filter(|l| l.locked).count() as u64
        }

        pub fn unlock_all(&mut self) {
            for line in &mut self.lines {
                if line.locked {
                    *line = Line::default();
                }
            }
        }
    }
}
