//! The plan of a query: what the HALT query algorithms need to know about
//! the parameterized total weight `W = α·Σw + β`, reduced once to words.
//!
//! [`QueryAccel`] holds certified `f64` bounds of `1/W` and of the
//! normalized `2^{⌊log2 W⌋}/W`, plus the exact `⌊log2 W⌋` and `⌈log2 W⌉`.
//! Every bucket probability `2^{b+1}/W`, every inclusion coin, the level
//! [`Thresholds`] and the final level's `i₁` follow from these words; a
//! comparison falls back to exact multi-word arithmetic only when its
//! bracket straddles the boundary, or in force-exact mode.
//! [`crate::DpssSampler`] caches one plan per `(α, β)` in each query
//! context; the de-amortized sampler builds one per query and shares it
//! between its two halves.

use bignum::{BigUint, Ratio};
use randvar::{mul_down, mul_up, pow2_scaled_f64_bounds, u128_f64_bounds};
use std::cmp::Ordering;
use wordram::bits::floor_log2_u128;
use wordram::narrow;

/// Precomputed word-sized accelerators for a query's total weight `W`:
/// certified `f64` bounds of `1/W` (each coin's [`Bits64`] bracket is then
/// one or two float multiplies away) and of the normalized `2^{⌊log2 W⌋}/W`
/// (threshold comparisons), plus the exact `⌊log2 W⌋` and `⌈log2 W⌉`.
/// [`crate::DpssSampler`] caches it per `(α, β)` across queries.
#[derive(Clone, Copy, Debug)]
pub struct QueryAccel {
    /// Certified bounds of `1/W`.
    pub(crate) winv: (f64, f64),
    /// Certified bounds of `2^{⌊log2 W⌋}/W ∈ (1/2, 1]`; `(0, ∞)` when `W`
    /// is outside the `f64` range.
    wnorm: (f64, f64),
    /// `⌊log2 W⌋`, exact.
    w_floor_log2: i64,
    /// `⌈log2 W⌉`, exact.
    pub(crate) w_ceil_log2: i64,
    /// `false` forces every coin onto the original all-exact path.
    fast: bool,
}

impl QueryAccel {
    /// Builds the accelerators for `w > 0`; pass `fast = false` for
    /// force-exact mode (agreement testing, ablations).
    pub fn new(w: &Ratio, fast: bool) -> Self {
        assert!(!w.is_zero(), "query accelerators need W > 0");
        let winv = Ratio::f64_bounds_parts(w.den(), w.num());
        let f = w.floor_log2();
        let c = if w.cmp_pow2_signed(f) == Ordering::Equal { f } else { f + 1 };
        let wnorm = if f == c {
            (1.0, 1.0)
        } else if (-1000..=1000).contains(&f) {
            pow2_scaled_f64_bounds(winv.0, winv.1, narrow::i32_of_i64(f))
        } else {
            (0.0, f64::INFINITY)
        };
        QueryAccel { winv, wnorm, w_floor_log2: f, w_ceil_log2: c, fast }
    }

    /// `true` iff coins may take the word-level shortcut (construction-time
    /// flag and no thread-level exact-mode guard).
    #[inline]
    pub(crate) fn use_fast(&self) -> bool {
        self.fast && randvar::fast_path_enabled()
    }

    /// Certified bracket of `w_x/W` (the inclusion probability before the
    /// clamp at 1) from a certified weight bracket.
    #[inline]
    pub(crate) fn incl_f64_bounds(&self, (w_lo, w_hi): (f64, f64)) -> (f64, f64) {
        (mul_down(w_lo, self.winv.0), mul_up(w_hi, self.winv.1))
    }

    /// Compares `W` with `d·2^e` (`d ≥ 1`): exponents first, then the
    /// mantissa brackets, exactly only when they straddle (or in force-exact
    /// mode). Debug builds check every word-level answer exactly.
    fn cmp_w(&self, w: &Ratio, d: u128, e: i64) -> Ordering {
        let exact = || {
            let (num, den) = (w.num(), w.den().mul(&BigUint::from_u128(d)));
            if e >= 0 {
                num.cmp(&den.shl(e as u64))
            } else {
                num.shl((-e) as u64).cmp(&den)
            }
        };
        let g = i64::from(floor_log2_u128(d));
        let fast = if !self.use_fast() {
            None
        } else if self.w_floor_log2 != g + e {
            Some(self.w_floor_log2.cmp(&(g + e)))
        } else {
            // Same binade: compare the mantissas W/2^f and d/2^g in [1, 2).
            match (self.w_floor_log2 == self.w_ceil_log2, d.is_power_of_two()) {
                (true, true) => Some(Ordering::Equal),
                (false, true) => Some(Ordering::Greater),
                (true, false) => Some(Ordering::Less),
                (false, false) => {
                    let (d_lo, d_hi) = u128_f64_bounds(d);
                    let (m_lo, m_hi) = pow2_scaled_f64_bounds(d_lo, d_hi, -narrow::i32_of_i64(g));
                    if mul_up(m_hi, self.wnorm.1) < 1.0 {
                        Some(Ordering::Greater)
                    } else if mul_down(m_lo, self.wnorm.0) > 1.0 {
                        Some(Ordering::Less)
                    } else {
                        None
                    }
                }
            }
        };
        match fast {
            Some(ord) => {
                debug_assert_eq!(ord, exact(), "word-level comparison of W with {d}·2^{e}");
                ord
            }
            None => exact(),
        }
    }

    /// `⌊log2(W/d)⌋` for an integer `d ≥ 1`.
    pub(crate) fn floor_log2_over(&self, w: &Ratio, d: u128) -> i64 {
        // W/d ∈ (2^{k−1}, 2^{k+1}) for k = ⌊log2 W⌋ − ⌊log2 d⌋.
        let k = self.w_floor_log2 - i64::from(floor_log2_u128(d));
        k - i64::from(self.cmp_w(w, d, k) == Ordering::Less)
    }

    /// [`thresholds`] from the accelerators: the only multi-word work is a
    /// comparison whose mantissa brackets straddle.
    pub(crate) fn thresholds(&self, w: &Ratio, n: usize, g: u32) -> Thresholds {
        let n2 = (n as u128) * (n as u128);
        Thresholds::from_logs(self.floor_log2_over(w, n2) - 1, self.w_ceil_log2, g)
    }
}

/// Query-time bucket/group range decomposition at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Thresholds {
    /// Largest *fully-insignificant* bucket index covered by the insignificant
    /// instance (`-1` if none).
    pub i_insig_top: i64,
    /// Smallest bucket index of the certain instance.
    pub i_cert_bottom: i64,
    /// Largest fully-insignificant group index (`-1` if none).
    pub j_insig_max: i64,
    /// Smallest fully-certain group index.
    pub j_cert_min: i64,
}

impl Thresholds {
    /// Group-aligns the largest insignificant bucket index `i_ins_max` and
    /// the smallest certain one `i_cert_min` for group width `g`.
    fn from_logs(i_ins_max: i64, i_cert_min: i64, g: u32) -> Self {
        let g = i64::from(g);
        // Group j fully insignificant ⟺ (j+1)g − 1 ≤ i_ins_max.
        let j_insig_max = if i_ins_max >= g - 1 { (i_ins_max - g + 1).div_euclid(g) } else { -1 };
        // Group j fully certain ⟺ j·g ≥ i_cert_min.
        let j_cert_min = i_cert_min.div_euclid(g) + i64::from(i_cert_min.rem_euclid(g) != 0);
        let j_cert_min = j_cert_min.max(0);
        Thresholds {
            i_insig_top: (j_insig_max + 1) * g - 1,
            i_cert_bottom: j_cert_min * g,
            j_insig_max,
            j_cert_min,
        }
    }
}

/// Computes the group-aligned thresholds for a level with `n` items and group
/// width `g` under total weight `w > 0` (§4.1 definitions), with exact
/// multi-word arithmetic (the query path derives the same values from its
/// [`QueryAccel`]).
pub fn thresholds(w: &Ratio, n: usize, g: u32) -> Thresholds {
    debug_assert!(!w.is_zero() && n >= 1 && g >= 1);
    // Insignificant bucket: 2^{i+1}/W ≤ 1/N² ⟺ i ≤ ⌊log2(W/N²)⌋ − 1.
    let n2 = BigUint::from_u128((n as u128) * (n as u128));
    let w_over_n2 = Ratio::new(w.num().clone(), w.den().mul(&n2));
    // Certain bucket: 2^i/W ≥ 1 ⟺ i ≥ ⌈log2 W⌉.
    Thresholds::from_logs(w_over_n2.floor_log2() - 1, w.ceil_log2(), g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_thresholds_match_exact() {
        // Powers of two on either side, mantissas on both sides, and W far
        // outside the f64 range (every comparison then runs exactly).
        let big = Ratio::new(BigUint::pow2(3000), BigUint::from_u64(3));
        let tiny = Ratio::new(BigUint::from_u64(5), BigUint::pow2(3000));
        for w in [Ratio::from_int(1 << 16), Ratio::from_u64s(1_000_003, 7), big, tiny] {
            let accel = QueryAccel::new(&w, true);
            for n in [1usize, 2, 3, 1000, 1 << 10, 123_457] {
                assert_eq!(accel.thresholds(&w, n, 5), thresholds(&w, n, 5), "W = {w:?}, n = {n}");
            }
            let exact = Ratio::new(w.num().mul_u64(2), w.den().mul_u64(25)).floor_log2() - 1;
            assert_eq!(accel.floor_log2_over(&w, 25), exact);
        }
    }
}
