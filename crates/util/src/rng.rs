//! Deterministic pseudo-random generation with zero external dependencies.
//!
//! The workspace's Monte Carlo results are validated against published
//! numbers, so the RNG must be (a) fully specified in-repo and (b) stable
//! across platforms and releases. Two well-known generators provide that:
//!
//! * [`SplitMix64`] — Vigna's 64-bit mixer, used only for seeding (it turns
//!   any `u64` into a full 256-bit state without correlations);
//! * [`Xoshiro256StarStar`] — Vigna & Blackman's xoshiro256\*\*, the
//!   workhorse generator (period 2^256 − 1, passes BigCrush).
//!
//! Both are checked against the reference implementations' published output
//! vectors in this module's tests, so a port or refactor cannot silently
//! change every experiment in the repo.
//!
//! The [`Rng`] trait exposes exactly the narrow surface the codebase uses
//! (`gen`, `gen_bool`, `gen_range`), mirroring the subset of `rand::Rng`
//! the original implementation relied on.
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::rng::{Rng, Rng64};
//!
//! let mut rng = Rng64::seed_from_u64(7);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! let d = rng.gen_range(0..6u32);
//! assert!(d < 6);
//! ```

/// Vigna's SplitMix64: a tiny, statistically solid 64-bit generator used
/// here to expand one seed word into generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// One-shot SplitMix64 mix of a tuple, for deriving independent
/// counter-based streams from `(seed, counter, stream)` without
/// constructing a generator.
pub fn mix64(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\*: the workspace's default generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's default generator type (alias kept short because it
/// appears in every simulator signature).
pub type Rng64 = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Builds a generator from full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the one inadmissible state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must be nonzero"
        );
        Self { s }
    }

    /// Expands one seed word into state via SplitMix64, per the generator
    /// authors' recommendation. Every distinct seed yields an unrelated
    /// stream; this is the only constructor the simulators use.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // SplitMix64 output is equidistributed, so all-zero state has
        // probability 2^-256; the assert in from_state still guards it.
        Self::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }
}

/// The integer threshold `t` such that, for any generator output `u`,
/// `(u >> 11) < t` holds exactly when the canonical `f64` conversion of
/// `u` (see [`FromRng`] for `f64`) is `< p`. In other words:
/// `u64_is_below(u, unit_f64_threshold(p)) == (f64-from-u < p)` bit for
/// bit, with no floating point on the comparison path.
///
/// Why this is exact: the f64 draw is `(u >> 11) · 2⁻⁵³`, a 53-bit
/// integer scaled by a power of two — both the product and `p · 2⁵³` are
/// computed exactly in f64 (no rounding), so the float compare is an
/// integer compare against `⌈p · 2⁵³⌉`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn unit_f64_threshold(p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "threshold probability {p} not in [0, 1]"
    );
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Whether generator output `u` falls below a [`unit_f64_threshold`] —
/// the float-free form of `f64::from_rng(..) < p`.
#[inline]
pub fn u64_is_below(u: u64, threshold: u64) -> bool {
    (u >> 11) < threshold
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The narrow random-value interface the simulators are written against.
///
/// Any type producing uniform `u64`s gets `gen` / `gen_bool` / `gen_range`
/// for free; the derivations are fixed here so results are reproducible
/// bit-for-bit on every platform.
pub trait Rng {
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// A uniform value of `T` (see [`FromRng`] for each type's recipe).
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        f64::from_rng(self) < p
    }

    /// A uniform value in `range` (half-open `lo..hi` or inclusive
    /// `lo..=hi`), unbiased via Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        B::sample(range, self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types with a fixed recipe for deriving a uniform value from `u64`s.
pub trait FromRng {
    /// Draws one value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits (the full mantissa).
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` from the top 24 bits.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Uniform `u64` in `[0, span)` (`span == 0` means the full domain), by
/// Lemire's multiply-shift with rejection — exact, and one multiply in the
/// common case.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let mut m = u128::from(rng.next_u64()) * u128::from(span);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            m = u128::from(rng.next_u64()) * u128::from(span);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a uniform member of the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_uint_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                // Span may overflow $t (e.g. 0..=MAX); widen to u64 where
                // the full-domain case is span == 0 by wrapping.
                let span = (hi - lo) as u64 + 1; // == 0 iff full u64 domain
                lo + uniform_u64(rng, span) as $t
            }
        }
    )*};
}

impl_uint_range!(u8, u16, u32, usize);

// u64 needs its own inclusive impl: `hi - lo + 1` overflows on the full
// domain, which must map to span == 0.
impl SampleRange<u64> for core::ops::Range<u64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + uniform_u64(rng, self.end - self.start)
    }
}

impl SampleRange<u64> for core::ops::RangeInclusive<u64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        lo.wrapping_add(uniform_u64(rng, (hi - lo).wrapping_add(1)))
    }
}

macro_rules! impl_int_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = ((hi as $u).wrapping_sub(lo as $u) as u64).wrapping_add(1);
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_int_range!(i32 => u32, i64 => u64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Output of Vigna's reference `splitmix64.c` for seed 0 — the widely
    /// published test vector.
    #[test]
    fn splitmix64_known_answers_seed0() {
        let mut sm = SplitMix64::new(0);
        let expected = [
            0xE220A8397B1DCDAF_u64,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ];
        for e in expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    /// Reference `splitmix64.c` output for seed 1234567.
    #[test]
    fn splitmix64_known_answers_seed1234567() {
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            0x599ED017FB08FC85_u64,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
            0x3FBEF740E9177B3F,
            0xE3B8346708CB5ECD,
        ];
        for e in expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    /// Output of the reference `xoshiro256starstar.c` from state
    /// [1, 2, 3, 4] — the vector used by every faithful port.
    #[test]
    fn xoshiro_known_answers() {
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expected = [
            11520_u64,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// seed_from_u64 is SplitMix64 state expansion followed by the
    /// reference update (checked against an independent implementation).
    #[test]
    fn seed_from_u64_composition() {
        let mut rng = Rng64::seed_from_u64(42);
        let expected = [
            1546998764402558742_u64,
            6990951692964543102,
            12544586762248559009,
            17057574109182124193,
            18295552978065317476,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // Same seed reproduces exactly.
        let mut c = Rng64::seed_from_u64(1);
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vc);
    }

    #[test]
    fn f64_unit_interval_and_mean() {
        let mut rng = Rng64::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_and_uniformity() {
        let mut rng = Rng64::seed_from_u64(11);
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            counts[rng.gen_range(0..6usize)] += 1;
        }
        for c in counts {
            assert!((c as i64 - 10_000).abs() < 500, "count {c}");
        }
        for _ in 0..1000 {
            let v = rng.gen_range(5u32..=7);
            assert!((5..=7).contains(&v));
            let w = rng.gen_range(10u64..11);
            assert_eq!(w, 10);
        }
        // Signed ranges.
        for _ in 0..1000 {
            let v = rng.gen_range(-3i64..3);
            assert!((-3..3).contains(&v));
        }
    }

    #[test]
    fn gen_range_hits_every_member_of_small_ranges() {
        let mut rng = Rng64::seed_from_u64(13);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0u32..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut seen_inc = [false; 3];
        for _ in 0..1000 {
            seen_inc[rng.gen_range(0u32..=2) as usize] = true;
        }
        assert!(seen_inc.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_rate() {
        let mut rng = Rng64::seed_from_u64(17);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng64::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    fn full_u64_domain_inclusive_range() {
        let mut rng = Rng64::seed_from_u64(23);
        // Must not panic or loop; spans the wrap-around span == 0 path.
        for _ in 0..10 {
            let _ = rng.gen_range(0u64..=u64::MAX);
        }
    }

    #[test]
    fn unit_threshold_matches_float_compare() {
        // The integer gate must agree with the canonical f64 compare for
        // every (draw, probability) pair — including boundary mantissas.
        let probs = [
            0.0,
            1.0,
            0.5,
            0.25,
            1e-12,
            1.0 - 1e-12,
            0.8741,
            f64::from_bits(0x3FE5_5555_5555_5555), // ~2/3, odd mantissa
        ];
        let mut rng = Rng64::seed_from_u64(0x7157);
        for p in probs {
            let t = unit_f64_threshold(p);
            for _ in 0..2000 {
                let u = rng.next_u64();
                let f = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u64_is_below(u, t), f < p, "p={p} u={u:#x}");
            }
            // Exact boundary draws: mantissa at, just below, just above t.
            for m in [t.saturating_sub(1), t, t + 1] {
                let u = (m.min((1 << 53) - 1)) << 11;
                let f = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u64_is_below(u, t), f < p, "p={p} boundary {m}");
            }
        }
        assert_eq!(unit_f64_threshold(0.0), 0);
        assert_eq!(unit_f64_threshold(1.0), 1 << 53);
    }

    #[test]
    fn mix64_disperses_tuples() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for a in 0..64u64 {
            for b in 0..64u64 {
                seen.insert(mix64(99, a, b));
            }
        }
        assert_eq!(seen.len(), 64 * 64, "no collisions over a small grid");
        assert_ne!(mix64(1, 2, 3), mix64(2, 2, 3));
    }
}
