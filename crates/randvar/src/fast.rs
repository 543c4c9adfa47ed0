//! The exactness-preserving word-RAM fast path for Bernoulli decisions.
//!
//! Every coin in the HALT query algorithms is `Ber(p)` for some exact
//! probability `p`, realized by comparing a lazily-extended uniform bit
//! stream `U ∈ [0, 1)` against the binary expansion of `p`. The observation
//! behind this module (the same one that makes ODSS-style samplers fast) is
//! that the comparison almost always resolves inside the *first* 64-bit word
//! of `U` — and that resolving it there only requires a certified *bracket*
//! of `p`, not `p` itself:
//!
//! - if `u + 1 ≤ ⌊p_lo·2^64⌋` the draw is a **certain accept** (`U < p` no
//!   matter what the remaining bits of `U` or the remaining bits of `p` are);
//! - if `u ≥ ⌈p_hi·2^64⌉` it is a **certain reject**;
//! - otherwise the draw landed in the **sliver** between the two thresholds
//!   and the decision is delegated to the exact machinery ([`crate::ber_rational_from_word`]
//!   / [`crate::ber_oracle_from_word`]) *conditioned on the word already
//!   drawn* — so the output distribution is bit-for-bit identical to the
//!   all-exact implementation, for any bracket.
//!
//! Brackets come from certified `f64` interval arithmetic
//! ([`bignum::Ratio::to_f64_bounds`] plus directed-rounded products), so the
//! sliver is a few ulps wide and the exact fallback runs with probability
//! ≈ 2⁻⁵⁰ per coin: the BigUint multiplies leave the hot path entirely while
//! the sampling law stays exact.
//!
//! [`exact_mode_guard`] suspends the fast path on the current thread (the
//! `force_exact` mode of the samplers); the agreement test suite uses it to
//! check the two implementations against each other.

use bignum::{BigUint, Interval, Ratio};
use rand::RngCore;
use std::cell::Cell;

thread_local! {
    /// Nesting depth of [`exact_mode_guard`]s on this thread.
    static EXACT_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Number of fast decisions that fell through to the exact sliver.
    static SLIVER_HITS: Cell<u64> = const { Cell::new(0) };
}

/// `true` iff fast two-sided decisions are enabled on this thread (no
/// [`exact_mode_guard`] is alive).
#[inline]
pub fn fast_path_enabled() -> bool {
    EXACT_DEPTH.with(|d| d.get()) == 0
}

/// Number of fast decisions on this thread that landed in the uncertainty
/// sliver and were resolved by the exact fallback (diagnostics/tests).
pub fn sliver_hits() -> u64 {
    SLIVER_HITS.with(|c| c.get())
}

/// RAII guard that disables the fast path on the current thread for its
/// lifetime (nestable). While one is alive every variate is generated by the
/// original all-exact code paths — the `force_exact` mode the fast-vs-exact
/// agreement tests compare against.
#[derive(Debug)]
pub struct ExactModeGuard(());

impl Drop for ExactModeGuard {
    fn drop(&mut self) {
        EXACT_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Disables the fast path on this thread until the returned guard is dropped.
pub fn exact_mode_guard() -> ExactModeGuard {
    EXACT_DEPTH.with(|d| d.set(d.get() + 1));
    ExactModeGuard(())
}

/// Outcome of testing one uniform 64-bit word against a [`Bits64`] bracket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastDecision {
    /// `U < p` regardless of all remaining bits.
    Accept,
    /// `U ≥ p` regardless of all remaining bits.
    Reject,
    /// Unresolved: the word (carried inside) landed between the certain
    /// thresholds; the caller must finish exactly, conditioned on it.
    Sliver(u64),
}

/// A two-sided 64-bit threshold bracket of a probability `p`:
/// `lo ≤ p·2^64` and `hi + 1 ≥ p·2^64`.
///
/// Equivalently `lo ≤ ⌊p·2^64⌋ ≤ hi` whenever `p < 1`; a uniform word `u`
/// certainly accepts below `lo`, certainly rejects above `hi`, and is a
/// [`FastDecision::Sliver`] in between. With exact thresholds
/// ([`Bits64::from_ratio_parts`]) the sliver is the single word `⌊p·2^64⌋`
/// (probability 2⁻⁶⁴); with `f64`-derived thresholds it is a few ulps wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bits64 {
    lo: u64,
    hi: u64,
}

/// 2^64 as `f64` (exact).
const SCALE_64: f64 = 18446744073709551616.0;

impl Bits64 {
    /// Builds a bracket from certified `f64` probability bounds
    /// `p_lo ≤ p ≤ p_hi` (clamping handles `p_lo < 0`, `p_hi > 1`, and ±∞
    /// conservatively — out-of-range inputs only widen the sliver, never
    /// break exactness).
    pub fn from_f64_bounds(p_lo: f64, p_hi: f64) -> Self {
        debug_assert!(p_lo <= p_hi, "inverted bracket [{p_lo}, {p_hi}]");
        // Scaling by 2^64 is exact; `as u64` truncates toward zero (= floor
        // for non-negatives) and saturates, which keeps both invariants:
        // a saturated `lo` means p_lo·2^64 ≥ u64::MAX, and a saturated `hi`
        // merely disables certain rejection.
        let lo = (p_lo.max(0.0) * SCALE_64) as u64;
        let hi_scaled = p_hi.max(0.0) * SCALE_64;
        let hi = if hi_scaled.is_finite() { hi_scaled.ceil() as u64 } else { u64::MAX };
        Bits64 { lo, hi }
    }

    /// Builds the *exact* bracket of `p = num/den` (one multi-word division;
    /// worthwhile when the bracket is reused across many coins). The sliver
    /// shrinks to the single word `⌊p·2^64⌋`.
    pub fn from_ratio_parts(num: &bignum::BigUint, den: &bignum::BigUint) -> Self {
        assert!(!den.is_zero(), "Bits64 with zero denominator");
        if num.cmp(den) != std::cmp::Ordering::Less {
            // p ≥ 1: certain accept for every u except the (resolved-exactly)
            // top word, which the fallback accepts immediately anyway.
            return Bits64 { lo: u64::MAX, hi: u64::MAX };
        }
        // pss-lint: allow(no-panic-paths) — num < den is asserted on entry, so num·2^64/den < 2^64
        let t = num.shl(64).div_rem(den).0.to_u64().expect("num < den ⟹ quotient < 2^64");
        Bits64 { lo: t, hi: t }
    }

    /// The *exact* bracket of a [`bignum::Ratio`], taking the division-free
    /// u128 fast form when both parts fit in machine words
    /// ([`bignum::Ratio::to_u128_parts`]) and falling back to the multi-word
    /// division of [`Bits64::from_ratio_parts`] otherwise.
    pub fn from_ratio(p: &bignum::Ratio) -> Self {
        if let Some((num, den)) = p.to_u128_parts() {
            if num >= den {
                return Bits64 { lo: u64::MAX, hi: u64::MAX };
            }
            if num < 1 << 64 {
                // num·2^64 fits u128, so ⌊num·2^64/den⌋ is one word division.
                let t = ((num << 64) / den) as u64;
                return Bits64 { lo: t, hi: t };
            }
        }
        Self::from_ratio_parts(p.num(), p.den())
    }

    /// The trivial bracket `[0, 1]`: every word is a sliver (exact fallback
    /// always runs). Used to express "no usable bounds".
    pub fn trivial() -> Self {
        Bits64 { lo: 0, hi: u64::MAX }
    }

    /// Widens the bracket by `slack` words on each side (saturating). Test
    /// hook: inflating the sliver makes the exact fallback fire often enough
    /// to measure, without changing the sampled distribution.
    pub fn widened(self, slack: u64) -> Self {
        Bits64 { lo: self.lo.saturating_sub(slack), hi: self.hi.saturating_add(slack) }
    }

    /// Classifies an already-drawn uniform word.
    #[inline]
    pub fn classify(&self, u: u64) -> FastDecision {
        if u < self.lo {
            FastDecision::Accept
        } else if u > self.hi {
            FastDecision::Reject
        } else {
            SLIVER_HITS.with(|c| c.set(c.get() + 1));
            FastDecision::Sliver(u)
        }
    }

    /// Debug-only soundness check: asserts the bracket really contains
    /// `⌊(num/den)·2^64⌋` (with `num/den` clamped to 1). Compiled away in
    /// release builds; the query layer calls this next to every fast coin so
    /// the test suite exercises the certification of every bound it builds.
    pub fn debug_validate(&self, num: &bignum::BigUint, den: &bignum::BigUint) {
        if cfg!(debug_assertions) {
            let exact = Self::from_ratio_parts(num, den);
            assert!(
                self.lo <= exact.lo && exact.hi <= self.hi,
                "Bits64 bracket [{}, {}] does not contain exact threshold {}",
                self.lo,
                self.hi,
                exact.lo,
            );
        }
    }

    /// Debug-only soundness check against an interval `[a, b]` known to
    /// contain `p`: asserts `lo ≤ ⌊b·2^64⌋` and `hi + 1 ≥ ⌊a·2^64⌋`, which
    /// every bracket of `p` satisfies. For probabilities with no small exact
    /// form, such as `(1−p)^{2^i}`.
    pub fn debug_validate_interval(&self, iv: &Interval) {
        if cfg!(debug_assertions) {
            let word = |d: &bignum::Dyadic| {
                let e = d.exp() + 64;
                let m =
                    if e >= 0 { d.mantissa().shl(e as u64) } else { d.mantissa().shr((-e) as u64) };
                m.to_u64().unwrap_or(u64::MAX)
            };
            let (a, b) = (word(iv.lo()), word(iv.hi()));
            assert!(
                self.lo <= b && self.hi.saturating_add(1) >= a,
                "Bits64 bracket [{}, {}] misses the interval [{a}, {b}]",
                self.lo,
                self.hi,
            );
        }
    }
}

/// Draws `Ber(p)` through a precomputed bracket of `p`: one uniform word
/// decides unless it lands in the sliver, where `exact` — which must resolve
/// `[U < p]` *conditioned on the drawn word* (the `*_from_word`
/// continuations) — finishes the decision. The distribution is identical to
/// the all-exact implementation; the exact parts of `p` are only ever
/// materialized inside the closure.
#[inline]
pub fn ber_bits_with<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    exact: impl FnOnce(&mut R, u64) -> bool,
) -> bool {
    let u = rng.next_u64();
    ber_bits_from_word(rng, bits, u, exact)
}

/// [`ber_bits_with`] for a uniform word `u` the caller has already drawn
/// (and possibly already tested against a cheaper certain-accept bound).
#[inline]
pub fn ber_bits_from_word<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    u: u64,
    exact: impl FnOnce(&mut R, u64) -> bool,
) -> bool {
    match bits.classify(u) {
        FastDecision::Accept => true,
        FastDecision::Reject => false,
        FastDecision::Sliver(u) => exact(rng, u),
    }
}

/// Draws `Ber(min(1, num/den))` through a precomputed bracket
/// ([`ber_bits_with`] with the exact-rational continuation).
pub fn ber_bits_rational<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    num: &bignum::BigUint,
    den: &bignum::BigUint,
) -> bool {
    ber_bits_with(rng, bits, |rng, u| crate::ber_rational_from_word(rng, num, den, u))
}

/// Certified product bound: the largest `f64` known to be `≤ x·y` given
/// `x_lo ≤ x` and `y_lo ≤ y` (non-negative operands).
#[inline]
pub fn mul_down(x_lo: f64, y_lo: f64) -> f64 {
    (x_lo * y_lo).next_down().max(0.0)
}

/// Certified product bound: a `f64` known to be `≥ x·y` given `x ≤ x_hi`,
/// `y ≤ y_hi` (non-negative operands).
#[inline]
pub fn mul_up(x_hi: f64, y_hi: f64) -> f64 {
    let p = x_hi * y_hi;
    if p.is_finite() {
        p.next_up()
    } else {
        f64::INFINITY
    }
}

/// Certified quotient bound: the largest `f64` known to be `≤ x/y` given
/// `x_lo ≤ x` and `y ≤ y_hi` (non-negative numerator, positive denominator).
#[inline]
pub fn div_down(x_lo: f64, y_hi: f64) -> f64 {
    (x_lo / y_hi).next_down().max(0.0)
}

/// Certified quotient bound: a `f64` known to be `≥ x/y` given `x ≤ x_hi`
/// and `y_lo ≤ y` (non-negative numerator, positive denominator).
#[inline]
pub fn div_up(x_hi: f64, y_lo: f64) -> f64 {
    let q = x_hi / y_lo;
    if q.is_finite() {
        q.next_up()
    } else {
        f64::INFINITY
    }
}

/// Certified bracket of `1 − p` from a bracket `p_lo ≤ p ≤ p_hi` of a
/// probability (each bound nudged one ulp outward and clamped into `[0, 1]`).
#[inline]
pub(crate) fn one_minus_f64_bounds(p_lo: f64, p_hi: f64) -> (f64, f64) {
    ((1.0 - p_hi).next_down().max(0.0), (1.0 - p_lo).next_up().clamp(0.0, 1.0))
}

/// Certified bracket of `2^k·x` from a bracket `x_lo ≤ x ≤ x_hi` of a
/// non-negative `x` (`|k| ≤ 1023`, so `2^k` itself is an exact `f64`).
#[inline]
pub fn pow2_scaled_f64_bounds(x_lo: f64, x_hi: f64, k: i32) -> (f64, f64) {
    debug_assert!((-1023..=1023).contains(&k), "2^{k} is not an exact f64");
    let s = 2f64.powi(k);
    (mul_down(x_lo, s), mul_up(x_hi, s))
}

/// Certified bracket of the integer `d` as an `f64` (`u128 → f64` is
/// correctly rounded; exact below 2^53, nudged one ulp outward above).
#[inline]
pub fn u128_f64_bounds(d: u128) -> (f64, f64) {
    let f = d as f64;
    if d <= 1 << 53 {
        (f, f)
    } else {
        (f.next_down(), f.next_up())
    }
}

/// Certified bracket of `2^k / d` for a positive integer `d` (`k ≤ 1023`).
pub(crate) fn pow2_over_int_f64_bounds(k: u32, d: u128) -> (f64, f64) {
    let (d_lo, d_hi) = u128_f64_bounds(d);
    let num = 2f64.powi(wordram::narrow::i32_of_u64(u64::from(k)));
    (div_down(num, d_hi), div_up(num, d_lo))
}

/// Certified bracket of `(1−p)/(2−p)` from a bracket of `p ∈ [0, 1]` (the
/// `n = 2` case of T-Geo). Numerator and denominator are bracketed
/// independently, which only widens the result.
pub(crate) fn one_minus_over_two_minus_f64_bounds(p_lo: f64, p_hi: f64) -> (f64, f64) {
    let (b_lo, b_hi) = one_minus_f64_bounds(p_lo, p_hi);
    // 2 − p = 1 + (1 − p).
    let (d_lo, d_hi) = ((1.0 + b_lo).next_down(), (1.0 + b_hi).next_up());
    (div_down(b_lo, d_hi), div_up(b_hi, d_lo).min(1.0))
}

/// Relative widening of a plain product of at most 64 unit factors:
/// 2⁻⁴⁵, four times the worst-case rounding drift of 63 multiplies.
const PRODUCT_SLACK: f64 = 2.842_170_943_040_401e-14;

/// Smallest plain product [`WordProb::pow_one_minus_f64_bounds`] widens
/// relatively: 2⁻¹⁰⁰⁰, above the subnormal range.
const PRODUCT_FLOOR: f64 = 9.332_636_185_032_189e-302;

/// What a [`WordProb`] is exactly, kept as a recipe until it is needed.
#[derive(Clone, Copy, Debug)]
enum Source<'a> {
    /// A borrowed exact rational.
    Ratio(&'a Ratio),
    /// `2^k / w` for an exact rational `w > 0`.
    Pow2Over(u64, &'a Ratio),
    /// `2^k / d` for a positive integer `d`.
    Pow2OverInt(u32, u128),
}

/// A probability `p ∈ (0, 1]` in word form: a certified `f64` bracket, the
/// exact exponent `⌊log2 p⌋`, and a recipe for the exact value that is only
/// turned into a [`Ratio`] when a coin lands in the sliver (or the fast path
/// is off).
///
/// The bracket also carries a lazily extended table of `(1−p)^{2^i}`
/// brackets, so every `(1−p)^k` bracket costs popcount(k) multiplies once
/// the table has grown to `⌊log2 k⌋`. B-Geo, T-Geo, `Ber(p*)` and `Ber((1−p)^k)`
/// are implemented once, as methods on this type; their `&Ratio` entry
/// points ([`crate::bgeo`], [`crate::tgeo`], [`crate::ber_pstar`],
/// [`crate::ber_pow_one_minus`]) wrap a [`WordProb::from_ratio`].
#[derive(Clone, Debug)]
pub struct WordProb<'a> {
    lo: f64,
    hi: f64,
    floor_log2: i64,
    source: Source<'a>,
    /// The materialized exact value (sliver or force-exact mode only).
    exact: Option<Ratio>,
    /// `pow[i]` brackets `(1−p)^{2^i}` for `i < pow_len`.
    pow: [(f64, f64); 64],
    pow_len: usize,
}

impl<'a> WordProb<'a> {
    fn with(lo: f64, hi: f64, floor_log2: i64, source: Source<'a>) -> Self {
        let mut wp =
            WordProb { lo, hi, floor_log2, source, exact: None, pow: [(1.0, 1.0); 64], pow_len: 0 };
        if cfg!(debug_assertions) {
            let (lo, hi, e) = (wp.lo, wp.hi, wp.floor_log2);
            let p = wp.exact().clone();
            Bits64::from_f64_bounds(lo, hi).debug_validate(p.num(), p.den());
            assert_eq!(e, p.floor_log2(), "word probability exponent disagrees with exact value");
        }
        wp
    }

    /// The word form of an exact rational `p > 0` (bracket and exponent
    /// derived from its parts).
    pub fn from_ratio(p: &'a Ratio) -> Self {
        assert!(!p.is_zero(), "word probability needs p > 0");
        let (lo, hi) = p.to_f64_bounds();
        Self::with(lo, hi, p.floor_log2(), Source::Ratio(p))
    }

    /// `p = 2^k / w` from certified bounds `winv` of `1/w` and the exact
    /// `⌈log2 w⌉`: the bracket is `2^k·winv` and `⌊log2 p⌋ = k − ⌈log2 w⌉`,
    /// with no multi-word arithmetic.
    pub fn pow2_over(k: u64, w: &'a Ratio, winv: (f64, f64), w_ceil_log2: i64) -> Self {
        let (lo, hi) = pow2_scaled_f64_bounds(winv.0, winv.1, wordram::narrow::i32_of_u64(k));
        Self::with(lo, hi, k as i64 - w_ceil_log2, Source::Pow2Over(k, w))
    }

    /// `p = 2^k / d` for an integer `d ≥ 2^k` (the `p₀ = 1/N²` and `2/m²`
    /// of Algorithm 2).
    pub fn pow2_over_int(k: u32, d: u128) -> Self {
        assert!(d > 0, "word probability needs a positive denominator");
        let (lo, hi) = pow2_over_int_f64_bounds(k, d);
        let e = i64::from(k) - i64::from(wordram::bits::ceil_log2_u128(d));
        Self::with(lo, hi, e, Source::Pow2OverInt(k, d))
    }

    /// The certified bracket `(lo, hi)` of `p`.
    #[inline]
    pub fn f64_bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// `⌊log2 p⌋`, exact.
    #[inline]
    pub fn floor_log2(&self) -> i64 {
        self.floor_log2
    }

    /// The exact value, materialized on first use.
    pub fn exact(&mut self) -> &Ratio {
        match self.source {
            Source::Ratio(p) => p,
            Source::Pow2Over(k, w) => self
                .exact
                .get_or_insert_with(|| Ratio::new(BigUint::pow2(k).mul(w.den()), w.num().clone())),
            Source::Pow2OverInt(k, d) => self.exact.get_or_insert_with(|| {
                Ratio::new(BigUint::pow2(u64::from(k)), BigUint::from_u128(d))
            }),
        }
    }

    /// Certified bracket of `(1−p)^k` from the `(1−p)^{2^i}` table:
    /// popcount(k) multiplies once the table reaches `⌊log2 k⌋`.
    ///
    /// The table entries are certified; their products are formed in plain
    /// round-to-nearest arithmetic and widened once by [`PRODUCT_SLACK`].
    /// Each of the at most 63 rounded multiplies of factors in `[0, 1]` has
    /// relative error ≤ 2⁻⁵³ while the running product stays normal, so the
    /// plain products are within a factor `1 ± 2⁻⁴⁷` of the exact products
    /// of the bounds. The running products only shrink, so a final value
    /// ≥ [`PRODUCT_FLOOR`] shows every intermediate was normal; below it (a
    /// power of order 2⁻¹⁰⁰⁰, which the variates' coins do not meet unless
    /// `p` is within about 2⁻⁵⁰⁰ of 1) the products are redone with an
    /// outward nudge after every multiply.
    pub fn pow_one_minus_f64_bounds(&mut self, k: u64) -> (f64, f64) {
        let need = 64 - k.leading_zeros() as usize;
        while self.pow_len < need {
            let entry = match self.pow_len.checked_sub(1).and_then(|i| self.pow.get(i)) {
                None => one_minus_f64_bounds(self.lo, self.hi),
                Some(&(lo, hi)) => (mul_down(lo, lo), mul_up(hi, hi).min(1.0)),
            };
            if cfg!(debug_assertions) {
                self.debug_validate_pow(entry, self.pow_len as u64);
            }
            if let Some(slot) = self.pow.get_mut(self.pow_len) {
                *slot = entry;
            }
            self.pow_len += 1;
        }
        let factors = || {
            let mut bits = k;
            std::iter::from_fn(move || {
                let i = bits.checked_ilog2()?;
                bits ^= wordram::bits::pow2_64(u64::from(i));
                Some(i as usize)
            })
            .map(|i| self.pow.get(i).copied().unwrap_or((0.0, 1.0)))
        };
        let (lo, hi) = factors().fold((1.0f64, 1.0f64), |(lo, hi), (a, b)| (lo * a, hi * b));
        if lo >= PRODUCT_FLOOR {
            return (mul_down(lo, 1.0 - PRODUCT_SLACK), mul_up(hi, 1.0 + PRODUCT_SLACK).min(1.0));
        }
        factors().fold((1.0, 1.0), |(lo, hi), (a, b)| (mul_down(lo, a), mul_up(hi, b).min(1.0)))
    }

    /// Debug-build check of one `(1−p)^{2^i}` table entry against a
    /// 64-bit-accurate interval of the exact power.
    fn debug_validate_pow(&mut self, (lo, hi): (f64, f64), i: u64) {
        use crate::lazy::ProbOracle;
        let mut oracle =
            crate::oracles::PowOneMinusOracle::from_ratio(self.exact(), wordram::bits::pow2_64(i));
        Bits64::from_f64_bounds(lo, hi).debug_validate_interval(&oracle.bracket(64));
    }

    /// `true` iff `p·n ≥ 1`, decided from the exponents when they differ by
    /// more than one, then from the bracket, and exactly only when the
    /// bracket straddles 1 (or the fast path is off).
    pub fn times_int_ge_one(&mut self, n: u64) -> bool {
        assert!(n > 0, "p·n with n = 0");
        let e = self.floor_log2 + i64::from(wordram::bits::floor_log2_u64(n));
        if fast_path_enabled() {
            if e >= 0 {
                return true; // p·n ≥ 2^e·1 ≥ 1
            }
            if e <= -2 {
                return false; // p·n < 2^{e+2} ≤ 1
            }
            let (n_lo, n_hi) = u128_f64_bounds(u128::from(n));
            if mul_down(self.lo, n_lo) >= 1.0 {
                return true;
            }
            if mul_up(self.hi, n_hi) < 1.0 {
                return false;
            }
        }
        self.exact().mul_big(&BigUint::from_u64(n)).cmp_int(1) != std::cmp::Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::{BigUint, Ratio};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_bracket_matches_long_division_word() {
        // p = 1/3: first 64 expansion bits are ⌊2^64/3⌋.
        let b = Bits64::from_ratio_parts(&BigUint::from_u64(1), &BigUint::from_u64(3));
        let t = (u128::from(u64::MAX) + 1) / 3;
        assert_eq!(b.classify(t as u64 - 1), FastDecision::Accept);
        assert_eq!(b.classify(t as u64 + 1), FastDecision::Reject);
        assert_eq!(b.classify(t as u64), FastDecision::Sliver(t as u64));
        // p ≥ 1 never certainly rejects.
        let one = Bits64::from_ratio_parts(&BigUint::from_u64(7), &BigUint::from_u64(5));
        assert_eq!(one.classify(0), FastDecision::Accept);
        assert!(matches!(one.classify(u64::MAX), FastDecision::Sliver(_)));
    }

    #[test]
    fn from_ratio_u128_form_matches_multiword_division() {
        for (a, b) in [(1u64, 3u64), (2, 7), (7, 5), (u64::MAX - 1, u64::MAX), (1, u64::MAX)] {
            let r = Ratio::from_u64s(a, b);
            let parts = Bits64::from_ratio_parts(&BigUint::from_u64(a), &BigUint::from_u64(b));
            assert_eq!(Bits64::from_ratio(&r), parts, "{a}/{b}");
        }
        // Two-word numerators (≥ 2^64) and beyond-u128 parts fall back to the
        // multi-word division.
        for r in [
            Ratio::from_u128s((1 << 100) + 1, 1 << 120),
            Ratio::new(BigUint::pow2(130).add(&BigUint::one()), BigUint::pow2(131)),
        ] {
            assert_eq!(Bits64::from_ratio(&r), Bits64::from_ratio_parts(r.num(), r.den()));
        }
    }

    #[test]
    fn div_bounds_bracket_the_exact_quotient() {
        for (x, y) in [(1.0f64, 3.0f64), (4096.0, 10.0), (0.0, 7.0), (1e-300, 1e300), (64.0, 1.0)] {
            let (lo, hi) = (div_down(x, y), div_up(x, y));
            let q = x / y;
            assert!(lo <= q && q <= hi, "bracket misses {x}/{y}");
            assert!(lo >= 0.0, "negative lower bound for {x}/{y}");
        }
        assert_eq!(div_up(1.0, 0.0), f64::INFINITY);
        assert_eq!(div_down(0.0, 5.0), 0.0);
    }

    #[test]
    fn f64_bracket_contains_exact_threshold() {
        for (a, b) in [(1u64, 3u64), (2, 7), (999, 1000), (1, 1000), (1 << 40, (1 << 62) + 3)] {
            let r = Ratio::from_u64s(a, b);
            let (lo, hi) = r.to_f64_bounds();
            let bits = Bits64::from_f64_bounds(lo, hi);
            bits.debug_validate(&BigUint::from_u64(a), &BigUint::from_u64(b));
        }
    }

    #[test]
    fn widened_sliver_is_exercised_and_distribution_is_preserved() {
        // Inflate the sliver to ≈ 1/16 of the word space: the exact fallback
        // must fire often, and the overall frequency must still match p
        // (the two-sided construction is distribution-preserving for ANY
        // bracket containing p).
        let (a, b) = (2u64, 7u64);
        let (num, den) = (BigUint::from_u64(a), BigUint::from_u64(b));
        let bits = Bits64::from_ratio_parts(&num, &den).widened(1 << 60);
        let mut rng = SmallRng::seed_from_u64(77);
        let before = sliver_hits();
        let trials = 200_000u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            if ber_bits_rational(&mut rng, &bits, &num, &den) {
                hits += 1;
            }
        }
        let fallbacks = sliver_hits() - before;
        // Sliver width 2·2^60/2^64 = 1/8 ⇒ ≈ 25k fallbacks expected.
        assert!(fallbacks > 10_000, "sliver exercised only {fallbacks} times");
        let p = a as f64 / b as f64;
        let z = crate::stats::binomial_z(hits, trials, p);
        assert!(z.abs() < 5.0, "freq drifted: z = {z} (fallbacks = {fallbacks})");
    }

    #[test]
    fn trivial_bracket_always_falls_back_and_stays_exact() {
        let (num, den) = (BigUint::from_u64(3), BigUint::from_u64(8));
        let bits = Bits64::trivial();
        let mut rng = SmallRng::seed_from_u64(5);
        let before = sliver_hits();
        let trials = 100_000u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            if ber_bits_rational(&mut rng, &bits, &num, &den) {
                hits += 1;
            }
        }
        assert_eq!(sliver_hits() - before, trials);
        let z = crate::stats::binomial_z(hits, trials, 0.375);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn exact_mode_guard_nests() {
        assert!(fast_path_enabled());
        {
            let _g1 = exact_mode_guard();
            assert!(!fast_path_enabled());
            {
                let _g2 = exact_mode_guard();
                assert!(!fast_path_enabled());
            }
            assert!(!fast_path_enabled());
        }
        assert!(fast_path_enabled());
    }

    #[test]
    fn product_constants_are_the_stated_powers_of_two() {
        assert_eq!(PRODUCT_SLACK, 2f64.powi(-45));
        assert_eq!(PRODUCT_FLOOR, 2f64.powi(-1000));
    }

    #[test]
    fn pow_table_brackets_truth() {
        // The last two cases fall below the floor and take the nudged path.
        for (num, den, k) in [
            (1u64, 7u64, 20u64),
            (1, 1 << 20, 1 << 18),
            (3, 5, 1),
            (1, 2, 0),
            (1, 2, 1010),
            (3, 4, 505),
        ] {
            let p = Ratio::from_u64s(num, den);
            let mut wp = WordProb::from_ratio(&p);
            // Grow the table in two steps: the reused prefix must not move.
            let small = wp.pow_one_minus_f64_bounds(k / 3);
            let (lo, hi) = wp.pow_one_minus_f64_bounds(k);
            assert_eq!(wp.pow_one_minus_f64_bounds(k / 3), small);
            let truth = (1.0 - num as f64 / den as f64).powi(k as i32);
            assert!(lo <= truth && truth <= hi, "({num}/{den})^{k}: [{lo}, {hi}] vs {truth}");
            assert!(hi - lo < 1e-10, "bracket too wide: {}", hi - lo);
        }
    }

    #[test]
    fn word_forms_agree_with_exact_values() {
        // 2^k/w and 2^k/d: bracket and exponent match the exact rational.
        let w = Ratio::from_u64s(1_000_003, 7);
        let (winv_lo, winv_hi) = Ratio::f64_bounds_parts(w.den(), w.num());
        for k in [0u64, 3, 17, 18] {
            let mut wp = WordProb::pow2_over(k, &w, (winv_lo, winv_hi), w.ceil_log2());
            let (lo, hi) = wp.f64_bounds();
            let e = wp.floor_log2();
            let p = wp.exact().clone();
            assert_eq!(e, p.floor_log2());
            Bits64::from_f64_bounds(lo, hi).debug_validate(p.num(), p.den());
        }
        for (k, d) in [(0u32, 1u128), (0, 9), (1, 25), (1, 1 << 60), (0, (1 << 100) + 7)] {
            let mut wp = WordProb::pow2_over_int(k, d);
            let e = wp.floor_log2();
            assert_eq!(e, wp.exact().floor_log2(), "2^{k}/{d}");
        }
    }

    #[test]
    fn times_int_ge_one_matches_exact() {
        for (num, den) in [(1u64, 8u64), (3, 17), (1, 3), (5, 11), (999, 1000)] {
            let p = Ratio::from_u64s(num, den);
            for n in [1u64, 2, 3, 4, 5, 8, 9, 16, 17, 1000] {
                let exact = p.mul_big(&BigUint::from_u64(n)).cmp_int(1) != std::cmp::Ordering::Less;
                assert_eq!(WordProb::from_ratio(&p).times_int_ge_one(n), exact, "{num}/{den}·{n}");
                let _g = exact_mode_guard();
                assert_eq!(WordProb::from_ratio(&p).times_int_ge_one(n), exact);
            }
        }
    }

    #[test]
    fn saturation_edges() {
        // p ≥ 1 from f64 bounds: lo saturates, hi disables rejection.
        let b = Bits64::from_f64_bounds(1.0, 2.0);
        assert_eq!(b.classify(0), FastDecision::Accept);
        assert_eq!(b.classify(u64::MAX - 1), FastDecision::Accept);
        assert!(matches!(b.classify(u64::MAX), FastDecision::Sliver(_)));
        // p = 0.
        let z = Bits64::from_f64_bounds(0.0, 0.0);
        assert!(matches!(z.classify(0), FastDecision::Sliver(0)));
        assert_eq!(z.classify(1), FastDecision::Reject);
    }
}
