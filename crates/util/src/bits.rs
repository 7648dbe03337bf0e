//! Bit-field manipulation and linear maps over GF(2).
//!
//! Hardware address mappings scatter contiguous logical fields (row, column,
//! bank, ...) across physical address bits and often XOR-fold high bits into
//! low ones ("bank hashing", "cache set-index hashing"). All of these are
//! linear transforms of the address interpreted as a vector over GF(2), so a
//! small bit-matrix type lets us build, compose, and *verify* them.

/// Extracts the `width`-bit field starting at `lsb` from `value`.
///
/// # Panics
///
/// Panics if `lsb + width > 64` or `width == 0 && lsb >= 64`.
///
/// # Examples
///
/// ```
/// use relaxfault_util::bits::extract;
/// assert_eq!(extract(0b1011_0100, 2, 4), 0b1101);
/// ```
#[inline]
pub fn extract(value: u64, lsb: u32, width: u32) -> u64 {
    assert!(
        lsb + width <= 64,
        "field out of range: lsb={lsb} width={width}"
    );
    if width == 0 {
        return 0;
    }
    (value >> lsb) & mask(width)
}

/// Deposits the low `width` bits of `field` into `value` at position `lsb`,
/// replacing whatever was there.
///
/// # Panics
///
/// Panics if `lsb + width > 64` or if `field` does not fit in `width` bits.
///
/// # Examples
///
/// ```
/// use relaxfault_util::bits::deposit;
/// assert_eq!(deposit(0, 2, 4, 0b1101), 0b0011_0100);
/// ```
#[inline]
pub fn deposit(value: u64, lsb: u32, width: u32, field: u64) -> u64 {
    assert!(
        lsb + width <= 64,
        "field out of range: lsb={lsb} width={width}"
    );
    assert!(
        width == 64 || field <= mask(width),
        "field value {field:#x} wider than {width} bits"
    );
    if width == 0 {
        return value;
    }
    (value & !(mask(width) << lsb)) | (field << lsb)
}

/// Returns a mask with the low `width` bits set.
///
/// # Panics
///
/// Panics if `width > 64`.
#[inline]
pub fn mask(width: u32) -> u64 {
    assert!(width <= 64);
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Parity (XOR-reduction) of the set bits of `x`, as 0 or 1.
#[inline]
pub fn parity(x: u64) -> u64 {
    (x.count_ones() & 1) as u64
}

/// Number of bits required to represent values `0..n` (i.e. `ceil(log2(n))`).
///
/// By convention `bits_for(0)` and `bits_for(1)` are `0`.
///
/// # Examples
///
/// ```
/// use relaxfault_util::bits::bits_for;
/// assert_eq!(bits_for(8), 3);
/// assert_eq!(bits_for(9), 4);
/// assert_eq!(bits_for(1), 0);
/// ```
#[inline]
pub fn bits_for(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// A linear map over GF(2) on up to 64-bit vectors.
///
/// Row `i` of the matrix is a 64-bit mask; output bit `i` of
/// [`BitMatrix::apply`] is the parity of `input & row[i]`. This is the
/// standard model for XOR-based address hashes: each output (set-index) bit
/// is the XOR of a subset of input (address) bits.
///
/// # Examples
///
/// ```
/// use relaxfault_util::bits::BitMatrix;
///
/// // set = index ^ tag_low  (a 2-bit XOR hash folding bits 2..4 onto 0..2)
/// let hash = BitMatrix::from_rows(2, &[0b0101, 0b1010]);
/// assert_eq!(hash.apply(0b1100), 0b11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    out_bits: u32,
    rows: Vec<u64>,
}

impl BitMatrix {
    /// Identity map on `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn identity(n: u32) -> Self {
        assert!(n <= 64);
        Self {
            out_bits: n,
            rows: (0..n).map(|i| 1u64 << i).collect(),
        }
    }

    /// Builds a matrix from explicit rows (row `i` produces output bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out_bits as usize` or `out_bits > 64`.
    pub fn from_rows(out_bits: u32, rows: &[u64]) -> Self {
        assert!(out_bits <= 64);
        assert_eq!(
            rows.len(),
            out_bits as usize,
            "row count must match out_bits"
        );
        Self {
            out_bits,
            rows: rows.to_vec(),
        }
    }

    /// Number of output bits.
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// The row masks (one per output bit).
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Applies the map to `input`.
    #[inline]
    pub fn apply(&self, input: u64) -> u64 {
        let mut out = 0u64;
        for (i, &row) in self.rows.iter().enumerate() {
            out |= parity(input & row) << i;
        }
        out
    }

    /// XORs another map of identical shape into this one
    /// (pointwise addition over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different `out_bits`.
    pub fn xor_with(&mut self, other: &BitMatrix) {
        assert_eq!(self.out_bits, other.out_bits);
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a ^= b;
        }
    }

    /// Rank of the matrix restricted to the `in_bits` low input columns.
    pub fn rank(&self, in_bits: u32) -> u32 {
        let m = mask(in_bits);
        let mut basis = EchelonBasis::new();
        for &row in &self.rows {
            basis.insert(row & m);
        }
        basis.dim()
    }

    /// Whether the map is a bijection from `out_bits`-wide inputs to
    /// `out_bits`-wide outputs (square and full-rank).
    pub fn is_invertible(&self) -> bool {
        self.rank(self.out_bits) == self.out_bits
    }

    /// Returns whether the restriction of this map to the input subspace
    /// spanned by the given input-bit positions is injective.
    ///
    /// This is the question repair planning cares about: "if addresses vary
    /// only in these (e.g. column) bits, do they land in distinct sets?"
    pub fn injective_on(&self, input_bits: &[u32]) -> bool {
        // Columns of the matrix restricted to the chosen inputs, expressed in
        // the output space; injectivity == columns linearly independent.
        let mut basis = EchelonBasis::new();
        input_bits.iter().all(|&bit| {
            let mut col = 0u64;
            for (i, &row) in self.rows.iter().enumerate() {
                col |= ((row >> bit) & 1) << i;
            }
            basis.insert(col)
        })
    }
}

/// The span of a set of vectors in GF(2)^64, kept in echelon form: at most
/// one basis vector per leading bit. Fixed storage, so building and
/// querying a span allocates nothing.
///
/// # Examples
///
/// ```
/// use relaxfault_util::bits::EchelonBasis;
///
/// let mut span = EchelonBasis::new();
/// assert!(span.insert(0b0011));
/// assert!(span.insert(0b0110));
/// assert!(!span.insert(0b0101), "0b0101 = 0b0011 ^ 0b0110");
/// assert_eq!(span.dim(), 2);
/// assert!(span.contains(0b0101));
/// assert!(!span.contains(0b0001));
/// ```
#[derive(Debug, Clone)]
pub struct EchelonBasis {
    /// `pivots[p]` is the basis vector whose highest set bit is `p`, or 0.
    pivots: [u64; 64],
    dim: u32,
}

impl Default for EchelonBasis {
    fn default() -> Self {
        Self::new()
    }
}

impl EchelonBasis {
    /// The span of nothing: `{0}`.
    pub fn new() -> Self {
        Self {
            pivots: [0; 64],
            dim: 0,
        }
    }

    /// Dimension of the span.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Reduces `v` against the basis: the result keeps only bits at
    /// positions no basis vector leads with. It is 0 exactly when `v` is in
    /// the span, and two vectors reduce to the same value exactly when
    /// their XOR is.
    #[inline]
    pub fn reduce(&self, mut v: u64) -> u64 {
        let mut rest = 0;
        while v != 0 {
            let top = 63 - v.leading_zeros();
            match self.pivots[top as usize] {
                0 => {
                    rest |= 1 << top;
                    v ^= 1 << top;
                }
                b => v ^= b,
            }
        }
        rest
    }

    /// Whether `v` is in the span.
    #[inline]
    pub fn contains(&self, v: u64) -> bool {
        self.reduce(v) == 0
    }

    /// Adds `v` to the span. Returns whether the span grew, i.e. whether
    /// `v` was independent of the vectors already inserted.
    pub fn insert(&mut self, v: u64) -> bool {
        let r = self.reduce(v);
        if r == 0 {
            return false;
        }
        self.pivots[(63 - r.leading_zeros()) as usize] = r;
        self.dim += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_deposit_roundtrip() {
        let v = deposit(0, 7, 9, 0x1AB);
        assert_eq!(extract(v, 7, 9), 0x1AB);
        assert_eq!(extract(v, 0, 7), 0);
        assert_eq!(extract(v, 16, 16), 0);
    }

    #[test]
    fn deposit_replaces_existing_field() {
        let v = deposit(u64::MAX, 4, 4, 0b0101);
        assert_eq!(extract(v, 4, 4), 0b0101);
        assert_eq!(extract(v, 0, 4), 0b1111);
        assert_eq!(extract(v, 8, 8), 0xFF);
    }

    #[test]
    fn zero_width_fields_are_inert() {
        assert_eq!(extract(0xDEAD, 3, 0), 0);
        assert_eq!(deposit(0xDEAD, 3, 0, 0), 0xDEAD);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn deposit_rejects_oversized_field() {
        deposit(0, 0, 2, 0b100);
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(65536), 16);
        assert_eq!(bits_for(65537), 17);
    }

    #[test]
    fn identity_is_invertible_and_inert() {
        let id = BitMatrix::identity(13);
        assert!(id.is_invertible());
        assert_eq!(id.apply(0x1ABC), 0x1ABC & mask(13));
    }

    #[test]
    fn xor_hash_is_still_bijective_on_index() {
        // set = index ^ tag_low: as a map of the *index* bits alone it is
        // the identity, hence injective on them.
        let mut m = BitMatrix::identity(13);
        let fold = BitMatrix::from_rows(13, &(0..13).map(|i| 1u64 << (i + 13)).collect::<Vec<_>>());
        m.xor_with(&fold);
        assert!(m.injective_on(&(0..13).collect::<Vec<_>>()));
        assert!(m.injective_on(&(13..26).collect::<Vec<_>>()));
        // But varying an index bit and the tag bit it folds with together is
        // not injective: both map to the same output bit.
        assert!(!m.injective_on(&[0, 13]));
    }

    #[test]
    fn rank_detects_degenerate_maps() {
        let m = BitMatrix::from_rows(3, &[0b001, 0b010, 0b011]);
        assert_eq!(m.rank(3), 2);
        assert!(!m.is_invertible());
    }

    #[test]
    fn echelon_membership_known_answers() {
        // Span of {e0 ^ e2, e1 ^ e2, e3}: every vector of bits 0..4 with an
        // even number of bits in 0..3, with or without e3.
        let mut span = EchelonBasis::new();
        for v in [0b0101, 0b0110, 0b1000] {
            assert!(span.insert(v));
        }
        assert!(!span.insert(0b0011), "e0 ^ e1 is already spanned");
        assert_eq!(span.dim(), 3);
        for v in [0, 0b0011, 0b0101, 0b0110, 0b1000, 0b1011, 0b1101, 0b1110] {
            assert!(span.contains(v), "{v:#06b} is in the span");
        }
        for v in [0b0001, 0b0010, 0b0100, 0b0111, 0b1001, 0b1111, 1 << 63] {
            assert!(!span.contains(v), "{v:#06b} is not in the span");
        }
        // Same coset, same reduction; different cosets, different ones.
        assert_eq!(span.reduce(0b0001), span.reduce(0b0010));
        assert_eq!(span.reduce(0b0001), span.reduce(0b1100));
        assert_ne!(span.reduce(0b0001), span.reduce(1 << 63));
        assert_eq!(EchelonBasis::new().reduce(0xABCD), 0xABCD);
    }

    #[test]
    fn parity_matches_count_ones() {
        for x in [0u64, 1, 0b1011, u64::MAX] {
            assert_eq!(parity(x), (x.count_ones() as u64) & 1);
        }
    }
}
