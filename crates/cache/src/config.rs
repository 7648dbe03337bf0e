//! Cache geometry and set-index functions.

use relaxfault_util::bits::{bits_for, mask};

/// How a block address maps to a set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indexing {
    /// Classic contiguous mapping: `set = addr[offset .. offset+set_bits]`
    /// (paper Figure 7b).
    Canonical,
    /// XOR-folded set index (González et al.): every `set_bits`-wide chunk
    /// of the tag is rotated left by `rotation × chunk_number` and XORed
    /// into the canonical index. A nonzero rotation keeps the fold from
    /// cancelling against low tag bits that alias index bits, which is what
    /// lets one-device row *and* column faults spread across sets — the
    /// effect the paper's Figure 8 measures.
    XorFold {
        /// Per-chunk left-rotation step, in bits.
        rotation: u32,
    },
}

/// Geometry and indexing of one cache level.
///
/// # Examples
///
/// ```
/// use relaxfault_cache::CacheConfig;
/// let llc = CacheConfig::isca16_llc();
/// assert_eq!(llc.sets(), 8192);
/// assert_eq!(llc.set_bits(), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Set-index function.
    pub indexing: Indexing,
}

impl CacheConfig {
    /// The paper's LLC: 8 MiB, 16-way, 64 B lines, XOR-hashed set index
    /// (the paper applies set-address hashing "when evaluating the repair
    /// mechanisms in detail").
    pub fn isca16_llc() -> Self {
        Self {
            size_bytes: 8 << 20,
            ways: 16,
            line_bytes: 64,
            indexing: Indexing::XorFold { rotation: 5 },
        }
    }

    /// The paper's LLC with canonical (unhashed) indexing, for the
    /// Figure 8 comparison.
    pub fn isca16_llc_no_hash() -> Self {
        Self {
            indexing: Indexing::Canonical,
            ..Self::isca16_llc()
        }
    }

    /// Table 3 L1 data cache: 32 KiB, 8-way, 64 B lines.
    pub fn isca16_l1() -> Self {
        Self {
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
            indexing: Indexing::Canonical,
        }
    }

    /// Table 3 private L2: 128 KiB, 8-way, 64 B lines.
    pub fn isca16_l2() -> Self {
        Self {
            size_bytes: 128 << 10,
            ways: 8,
            line_bytes: 64,
            indexing: Indexing::Canonical,
        }
    }

    /// Checks structural invariants (powers of two, exact division).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes must be a power of two, got {}",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".into());
        }
        let line_cap = self.line_bytes as u64 * self.ways as u64;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(line_cap) {
            return Err(format!(
                "size {} is not a multiple of ways×line ({line_cap})",
                self.size_bytes
            ));
        }
        let sets = self.size_bytes / line_cap;
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes as u64 * self.ways as u64)
    }

    /// Width of the set index in bits.
    pub fn set_bits(&self) -> u32 {
        bits_for(self.sets())
    }

    /// Width of the line offset in bits.
    pub fn offset_bits(&self) -> u32 {
        bits_for(self.line_bytes as u64)
    }

    /// Total lines in the cache.
    pub fn total_lines(&self) -> u64 {
        self.sets() * self.ways as u64
    }

    /// Splits a byte address into `(set, tag)` under this config's indexing.
    ///
    /// The tag is the full block address above the set-index field
    /// (canonically `addr >> (offset+set)` bits); with XOR folding the set
    /// changes but the tag does not, so the pair remains unique per block.
    pub fn set_and_tag(&self, addr: u64) -> (u64, u64) {
        let index = SetIndex::new(self);
        let block = index.block(addr);
        (index.set_of_block(block), block >> index.bits)
    }

    /// The set an address maps to.
    pub fn set_of(&self, addr: u64) -> u64 {
        self.set_and_tag(addr).0
    }
}

/// A config's set-index function with its shifts, mask and fold step
/// worked out once, so that indexing an address divides nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetIndex {
    offset: u32,
    bits: u32,
    mask: u64,
    /// XOR folding's per-chunk rotation step reduced mod `bits`; `None`
    /// for canonical indexing and for a one-set cache, whose only set is 0.
    fold: Option<u32>,
}

impl SetIndex {
    /// The set-index function of `cfg`.
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        let bits = cfg.set_bits();
        let fold = match cfg.indexing {
            Indexing::XorFold { rotation } if bits > 0 => Some(rotation % bits),
            _ => None,
        };
        Self {
            offset: cfg.offset_bits(),
            bits,
            mask: mask(bits),
            fold,
        }
    }

    /// The block address of a byte address.
    #[inline]
    pub(crate) fn block(&self, addr: u64) -> u64 {
        addr >> self.offset
    }

    /// The byte address of a block.
    #[inline]
    pub(crate) fn addr(&self, block: u64) -> u64 {
        block << self.offset
    }

    /// The set of a block address. Chunk `k` of the tag is rotated by
    /// `rotation × k` mod the set bits; the rotation advances by one step
    /// per chunk and wraps by subtraction.
    #[inline]
    pub(crate) fn set_of_block(&self, block: u64) -> u64 {
        let mut set = block & self.mask;
        if let Some(step) = self.fold {
            let mut rest = block >> self.bits;
            let mut by = step;
            while rest != 0 {
                set ^= rotl(rest & self.mask, by, self.bits);
                rest >>= self.bits;
                by += step;
                if by >= self.bits {
                    by -= self.bits;
                }
            }
        }
        set
    }
}

/// Rotates the `width`-bit value `v` left by `by`, for `by < width < 64`
/// (at `by` = 0 the right shift by `width` contributes nothing).
#[inline]
fn rotl(v: u64, by: u32, width: u32) -> u64 {
    ((v << by) | (v >> (width - by))) & mask(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_util::prop;
    use relaxfault_util::{prop_assert, prop_assert_eq};
    use std::collections::HashSet;

    #[test]
    fn llc_geometry() {
        let c = CacheConfig::isca16_llc();
        c.validate().unwrap();
        assert_eq!(c.sets(), 8192);
        assert_eq!(c.set_bits(), 13);
        assert_eq!(c.offset_bits(), 6);
        assert_eq!(c.total_lines(), 131072);
    }

    #[test]
    fn l1_l2_validate() {
        CacheConfig::isca16_l1().validate().unwrap();
        CacheConfig::isca16_l2().validate().unwrap();
        assert_eq!(CacheConfig::isca16_l1().sets(), 64);
        assert_eq!(CacheConfig::isca16_l2().sets(), 256);
    }

    #[test]
    fn validate_rejects_bad_sizes() {
        let mut c = CacheConfig::isca16_llc();
        c.size_bytes = 1000;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::isca16_llc();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::isca16_llc();
        c.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn canonical_set_is_address_slice() {
        let c = CacheConfig::isca16_llc_no_hash();
        let addr = 0b1011_0101_1100_1010_1100_0000u64;
        let (set, _) = c.set_and_tag(addr);
        assert_eq!(set, (addr >> 6) & 0x1FFF);
    }

    #[test]
    fn hashed_and_canonical_share_tags() {
        let a = 0xDEAD_BEE0u64;
        let (_, t1) = CacheConfig::isca16_llc().set_and_tag(a);
        let (_, t2) = CacheConfig::isca16_llc_no_hash().set_and_tag(a);
        assert_eq!(t1, t2);
    }

    #[test]
    fn xor_fold_spreads_row_varying_addresses() {
        // 512 addresses differing only in bits 19.. (a one-device column
        // fault under the DRAM layout) collapse to one set canonically but
        // spread out with folding.
        let hashed = CacheConfig::isca16_llc();
        let plain = CacheConfig::isca16_llc_no_hash();
        let base = 0x3_0000_1000u64;
        let hashed_sets: HashSet<u64> = (0..512).map(|r| hashed.set_of(base | (r << 20))).collect();
        let plain_sets: HashSet<u64> = (0..512).map(|r| plain.set_of(base | (r << 20))).collect();
        assert_eq!(plain_sets.len(), 1);
        assert_eq!(hashed_sets.len(), 512);
    }

    /// With one set there are no index bits to fold into, so every
    /// address maps to set 0 (the fold used to shift by zero bits forever).
    #[test]
    fn one_set_xor_fold_maps_to_set_zero() {
        let cfg = CacheConfig {
            size_bytes: 1024,
            ways: 16,
            line_bytes: 64,
            indexing: Indexing::XorFold { rotation: 5 },
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 1);
        for addr in [0, 0x40, 0xDEAD_BEE0, u64::MAX] {
            assert_eq!(cfg.set_of(addr), 0);
            assert_eq!(cfg.set_and_tag(addr), (0, addr >> 6));
        }
        let mut c = crate::Cache::new(cfg);
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, true).hit);
        assert!(!c.access(u64::MAX, false).hit);
    }

    #[test]
    fn rotl_behaviour() {
        assert_eq!(rotl(0b01, 1, 2), 0b10);
        assert_eq!(rotl(0b10, 1, 2), 0b01);
        assert_eq!(rotl(0b1, 0, 4), 0b1);
        assert_eq!(rotl(0b1000, 1, 4), 0b0001);
    }

    #[test]
    fn set_tag_identifies_block() {
        prop::check(256, |src| {
            let a = src.u64(0, (1u64 << 36) - 1);
            let b = src.u64(0, (1u64 << 36) - 1);
            let c = CacheConfig::isca16_llc();
            let block_a = a >> 6;
            let block_b = b >> 6;
            let sa = c.set_and_tag(a);
            let sb = c.set_and_tag(b);
            // (set, tag) is unique per block and constant within a block.
            prop_assert_eq!(block_a == block_b, sa == sb);
            Ok(())
        });
    }

    #[test]
    fn set_in_range() {
        prop::check(256, |src| {
            let a = src.u64(0, u64::MAX);
            let c = CacheConfig::isca16_llc();
            prop_assert!(c.set_of(a) < c.sets());
            Ok(())
        });
    }
}
