//! The HALT query algorithms (§4.1–§4.4: Algorithms 1–5 and the final-level
//! lookup-table query).
//!
//! A PSS query with parameters `(α, β)` is answered by decomposing each
//! level's buckets, *at query time*, into three ranges determined by the
//! parameterized total weight `W = W_S(α,β)`:
//!
//! - **insignificant** (per-item probability `≤ p₀`): one `B-Geo(p₀, N+1)`
//!   jump decides in O(1) expected time whether anything is sampled at all
//!   (Algorithm 2);
//! - **certain** (per-item probability 1): emitted wholesale (Algorithm 3);
//! - **significant**: at most O(1) groups, each delegated to the next level of
//!   the hierarchy, whose sampled *bucket proxies* are opened by rejection
//!   sampling ([`extract_items`], Algorithm 5); the recursion bottoms out at
//!   the lookup table (§4.3–4.4).
//!
//! Every acceptance probability is an exact rational, so the returned subset
//! has exactly the distribution `Π_x Ber(p_x(α,β))`.
//!
//! **Word-RAM path.** `W` is the only multi-word quantity of a query, and it
//! is reduced once per plan to a [`QueryAccel`]: certified `f64` bounds of
//! `1/W` and of `2^{⌊log2 W⌋}/W`, plus the exact `⌊log2 W⌋` and `⌈log2 W⌉`.
//! From there every step is word-sized:
//!
//! - the level thresholds, `i₁` and the `p·n_b ≥ 1` test compare exponents,
//!   then mantissa brackets, and fall back to exact arithmetic only when a
//!   bracket straddles the boundary;
//! - each candidate bucket's `p = 2^{b+1}/W` is a [`randvar::WordProb`]
//!   (bracket `2^{b+1}·[1/W]`, exponent `b+1−⌈log2 W⌉`) with its own
//!   `(1−p)^{2^i}` power table, so the B-Geo/T-Geo/`Ber(p*)` coins of the
//!   stride walk cost popcount(k) multiplies each;
//! - an in-bucket coin whose word is below 2^63 accepts without reading the
//!   item's weight (every member of bucket `b` has `w ≥ 2^b`, so
//!   `w/2^{b+1} ≥ 1/2`);
//! - every other coin — Algorithm 2's thinning coin included, which fires
//!   about once per small level-2/3 node — is one uniform word against a
//!   [`Bits64`] bracket.
//!
//! Exact rationals run only in the ulp-wide sliver of a coin (≈ 2⁻⁵⁰,
//! *conditioned on the drawn word*, so the sample stream is bit-for-bit the
//! all-exact one) and whenever `W` leaves the `f64` range (every bracket is
//! then trivial). Force-exact mode runs everything exactly and stays the
//! oracle.
//!
//! The recursion keeps its sampled proxies in a [`QueryScratch`] owned by
//! the caller's context, and [`query_level1`] appends the sampled items to
//! one output buffer — the caller's own with `PssBackend::query_into` — so a
//! warm query performs no heap allocation.

use crate::lookup::{LookupTable, MAX_K};
pub use crate::plan::{thresholds, QueryAccel, Thresholds};
use crate::structure::{pow2_scaled, pow2f, Level1, LevelView, NodeView};
use crate::ItemId;
use bignum::{BigUint, Ratio};
use rand::RngCore;
use randvar::{
    ber_bits_from_word, ber_rational_from_word, ber_rational_parts, div_down, div_up, mul_down,
    mul_up, Bits64, WordProb,
};
use std::cmp::Ordering;
use wordram::{bits, narrow};

/// Reusable buffers of the query recursion, one per level below the root:
/// the proxies a level-2 node samples (level-1 buckets), the proxies a
/// level-3 node samples (level-2 buckets), and the level-3 buckets the final
/// level accepts as candidates. Kept in the caller's context, so warm
/// queries do not allocate.
#[derive(Debug, Default)]
pub struct QueryScratch {
    l1: Vec<u16>,
    l2: Vec<u16>,
    l3: Vec<u16>,
}

/// Per-query frame: the RNG, the exact parameterized total weight
/// `W = α·Σw + β > 0`, its precomputed accelerators, the lookup table, and
/// the recursion's scratch buffers.
///
/// Every field is *borrowed* — the RNG, the table and the scratch come out
/// of the caller's [`pss_core::QueryCtx`] (the sampler owns none of them),
/// which is what lets queries run on `&self` samplers.
#[derive(Debug)]
pub struct QueryFrame<'a, R: RngCore> {
    /// Random source (borrowed from the caller's context).
    pub rng: &'a mut R,
    /// `W_S(α,β)` as an exact rational (strictly positive).
    pub w: &'a Ratio,
    /// Word-sized accelerators derived from `w` (see [`QueryAccel`]).
    pub accel: QueryAccel,
    /// The HALT lookup table (rows memoized in the caller's context).
    pub table: &'a mut LookupTable,
    /// Final-level strategy (lookup table vs direct Bernoulli; ablation A1).
    pub final_mode: FinalLevelMode,
    /// Proxy buffers of the recursion (kept in the caller's context).
    pub scratch: &'a mut QueryScratch,
}

/// Strategy for answering final-level instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FinalLevelMode {
    /// The paper's lookup table (exact integer alias rows).
    #[default]
    Lookup,
    /// One exact Bernoulli per significant bucket (ablation baseline; also the
    /// overflow fallback when a configuration exceeds [`MAX_K`]).
    Direct,
}

/// Draws `Ber(num/den)` for the exact parts `parts()` of a probability.
/// Force-exact mode runs the exact comparison. Otherwise one uniform word
/// decides: below `floor` (a certain-accept bound the caller knows without
/// reading any data) it accepts outright; else it is tested against the
/// certified bracket `bracket()`, and the exact parts are formed only in the
/// sliver, conditioned on the word — so the stream is the exact one.
fn coin<R: RngCore>(
    rng: &mut R,
    accel: &QueryAccel,
    floor: u64,
    bracket: impl FnOnce() -> (f64, f64),
    mut parts: impl FnMut() -> (BigUint, BigUint),
) -> bool {
    if !accel.use_fast() {
        let (num, den) = parts();
        return ber_rational_parts(rng, &num, &den);
    }
    let u = rng.next_u64();
    if u < floor {
        // Premise p ≥ floor/2^64, checked exactly.
        debug_assert!(
            {
                let (num, den) = parts();
                num.shl(64).cmp(&den.mul(&BigUint::from_u64(floor))) != Ordering::Less
            },
            "certain-accept floor above p"
        );
        return true;
    }
    let (lo, hi) = bracket();
    let bits = Bits64::from_f64_bounds(lo, hi);
    if cfg!(debug_assertions) {
        let (num, den) = parts();
        bits.debug_validate(&num, &den);
    }
    ber_bits_from_word(rng, &bits, u, |rng, u| {
        let (num, den) = parts();
        ber_rational_from_word(rng, &num, &den, u)
    })
}

/// Draws `Ber(min(1, w_x/W))` — the plain inclusion coin. The weight only
/// leaves its fixed-width `U256` form inside the sliver.
fn accept_plain<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    x: V::Id,
) -> bool {
    let bracket = || accel.incl_f64_bounds(view.weight_f64_bounds(x));
    coin(rng, accel, 0, bracket, || {
        (view.weight_u256(x).to_biguint().mul(w.den()), w.num().clone())
    })
}

/// Draws `Ber(min(1, w_x/W) / p0)` — the thinning coin of Algorithm 2, on
/// the bracket `[w_x/W] / [p0]`.
fn accept_thinned<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    x: V::Id,
    p0: &mut WordProb<'_>,
) -> bool {
    let (p0_lo, p0_hi) = p0.f64_bounds();
    let bracket = || {
        let (a_lo, a_hi) = accel.incl_f64_bounds(view.weight_f64_bounds(x));
        (div_down(a_lo, p0_hi), div_up(a_hi, p0_lo))
    };
    coin(rng, accel, 0, bracket, || {
        // (w_x·W.den·p0.den) / (W.num·p0.num); callers guarantee ≤ 1.
        let p0 = p0.exact();
        let (num, den) = (view.weight_u256(x).to_biguint().mul(w.den()), w.num());
        (num.mul(p0.den()), den.mul(p0.num()))
    })
}

/// Algorithm 2: the insignificant instance. Samples from all items in buckets
/// `0..=i_top`, each of which has inclusion probability `≤ p0`, in O(1)
/// expected time via one `B-Geo(p0, N+1)` jump; hits go to `emit`.
pub fn query_insignificant<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    i_top: i64,
    p0: &mut WordProb<'_>,
    emit: &mut impl FnMut(V::Id),
) {
    let n = view.n_items() as u64;
    if n == 0 || i_top < 0 {
        return;
    }
    // First potential index k via B-Geo(p0, N+1) (p0 = 1 degenerates to k=1).
    let k = if p0.floor_log2() >= 0 { 1 } else { p0.bgeo(rng, n + 1) };
    if k > n {
        return;
    }
    // Walk A — all items in buckets with index ≤ i_top, in bucket order — from
    // its k-th item on (cost O(N), incurred with probability ≤ 1 − (1−p0)^N ≤
    // N·p0 ≤ 1/N — O(1) in expectation). If |A| < k no coin is drawn.
    let mut seen = 0u64;
    for b in view.nonempty().range(0, i_top as usize) {
        let len = view.bucket_len(b) as u64;
        for pos in k.saturating_sub(seen + 1)..len {
            let x = view.bucket_item(b, pos as usize);
            let hit = if seen + pos + 1 == k {
                accept_thinned(view, rng, w, accel, x, p0)
            } else {
                accept_plain(view, rng, w, accel, x)
            };
            if hit {
                emit(x);
            }
        }
        seen += len;
    }
}

/// Algorithm 3: the certain instance — every item in buckets `≥ i_bottom` has
/// inclusion probability exactly 1.
pub fn query_certain<V: LevelView>(view: &V, i_bottom: i64, emit: &mut impl FnMut(V::Id)) {
    let lo = i_bottom.max(0) as usize;
    if lo >= view.nonempty().universe() {
        return;
    }
    for b in view.nonempty().range(lo, view.nonempty().universe() - 1) {
        for pos in 0..view.bucket_len(b) {
            emit(view.bucket_item(b, pos));
        }
    }
}

/// Algorithm 5: opens each *candidate bucket* (a sampled next-level proxy) and
/// extracts this level's items with exact rejection sampling.
///
/// A candidate bucket `b` was sampled with probability `min(1, w(y_b)/W)`
/// where `w(y_b) = 2^{b+1}·n_b`. Let `p = min(1, 2^{b+1}/W)`:
/// - `p = 1`: every item is potential; accept each with `Ber(p_x)`;
/// - `p·n_b ≥ 1` (bucket was certain to be a candidate): first potential index
///   via `B-Geo(p, n_b+1)` (possibly none);
/// - `p·n_b < 1`: confirm the bucket *promising* with `Ber(p*)`
///   (`p* = (1−(1−p)^{n_b})/(p·n_b)`, the type (ii) Bernoulli of Theorem 3.1),
///   then locate the first potential index with `T-Geo(p, n_b)` (Theorem 1.3).
///
/// Each potential item `x` is accepted with `p_x/p = w(x)/2^{b+1}` exactly.
pub fn extract_items<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    candidate_buckets: &[u16],
    emit: &mut impl FnMut(V::Id),
) {
    // Warm every candidate bucket's head before the first coin is drawn:
    // the hints issue in parallel, so each bucket's first touch overlaps
    // the preceding buckets' acceptance arithmetic instead of serializing
    // behind it. Hints only: bounds-checked, no data read, no RNG drawn.
    for &bu in candidate_buckets {
        view.prefetch_bucket_item(bu as usize, 0);
    }
    for (ci, &bu) in candidate_buckets.iter().enumerate() {
        let b = bu as usize;
        let n_b = view.bucket_len(b) as u64;
        debug_assert!(n_b > 0, "candidate bucket {b} is empty");
        // Re-warm the next bucket — its head line may have been evicted
        // while this one's strides were walked.
        if let Some(&nb) = candidate_buckets.get(ci + 1) {
            view.prefetch_bucket_item(nb as usize, 0);
        }
        let shift = b as u64 + 1;
        // p = min(1, 2^{b+1}/W); clamped ⟺ 2^{b+1} ≥ W ⟺ b+1 ≥ ⌈log2 W⌉
        // (Claim 4.3 — exact, no multi-word multiply needed).
        let clamped = shift as i64 >= accel.w_ceil_log2;
        debug_assert_eq!(
            clamped,
            BigUint::pow2(shift).mul(w.den()).cmp(w.num()) != Ordering::Less,
            "log-threshold clamp disagrees with exact comparison"
        );
        if clamped {
            // p = 1: all items are potential; accept each with Ber(p_x).
            for pos in 0..n_b {
                view.prefetch_bucket_item(b, pos as usize + 8);
                let x = view.bucket_item(b, pos as usize);
                if accept_plain(view, rng, w, accel, x) {
                    emit(x);
                }
            }
            continue;
        }
        let mut p = WordProb::pow2_over(shift, w, accel.winv, accel.w_ceil_log2);
        // First potential index.
        let mut k = if p.times_int_ge_one(n_b) {
            p.bgeo(rng, n_b + 1)
        } else {
            if !p.ber_pstar(rng, n_b) {
                continue; // bucket rejected: contains no potential item
            }
            p.tgeo(rng, n_b)
        };
        // Walk the remaining potential items with B-Geo strides. While the
        // current item's acceptance coin is being drawn, hint the line one
        // *expected* stride ahead (E[stride] = 1/p ≈ W/2^{b+1}, a power of
        // two by the clamp test above). The hint is speculative and bounds-
        // checked — it moves no data and draws no randomness, so the sample
        // stream is bit-identical with or without it.
        let est_stride = bits::pow2_64((accel.w_ceil_log2 as u64 - shift).min(16));
        while k <= n_b {
            view.prefetch_bucket_item(b, (k - 1 + est_stride) as usize);
            let x = view.bucket_item(b, (k - 1) as usize);
            if accept_in_bucket(view, rng, accel, x, shift) {
                emit(x);
            }
            k += p.bgeo(rng, n_b + 1);
        }
    }
}

/// Draws `Ber(w(x)/2^{b+1})` — the open-bucket acceptance coin of
/// Algorithm 5 (`p_x/p ∈ [1/2, 1)`, since `2^b ≤ w(x) < 2^{b+1}`). A word
/// below 2^63 accepts without reading the weight; otherwise the denominator
/// is a power of two, so the bracket is an exact-scaling float multiply.
fn accept_in_bucket<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    accel: &QueryAccel,
    x: V::Id,
    shift: u64,
) -> bool {
    let bracket = || {
        let (w_lo, w_hi) = view.weight_f64_bounds(x);
        let sc = pow2f(-narrow::i32_of_u64(shift));
        (mul_down(w_lo, sc), mul_up(w_hi, sc))
    };
    coin(rng, accel, bits::pow2_64(63), bracket, || {
        (view.weight_u256(x).to_biguint(), BigUint::pow2(shift))
    })
}

/// Iterates the non-empty *significant* groups of a level and hands each to
/// `handle`. Their count is O(1) (Lemma 4.2).
fn for_significant_groups(
    groups: &wordram::BitsetList,
    th: &Thresholds,
    mut handle: impl FnMut(usize),
) {
    let lo = (th.j_insig_max + 1).max(0) as usize;
    // Guard both bounds: an empty group universe has no `universe − 1`
    // (underflow), and a certain range starting at or below `lo` leaves no
    // significant groups at all.
    if groups.universe() == 0 || th.j_cert_min <= lo as i64 {
        return;
    }
    let hi = ((th.j_cert_min - 1) as usize).min(groups.universe() - 1);
    let mut count = 0;
    for j in groups.range(lo, hi) {
        count += 1;
        debug_assert!(count <= 8, "more than O(1) significant groups");
        handle(j);
    }
}

/// One-level query on a level-2 node (Algorithm 1 with recursion into the
/// final level). Leaves the sampled proxies — level-1 bucket indices — in
/// the frame's scratch.
pub fn query_node<R: RngCore>(view: &NodeView<'_>, ctx: &mut QueryFrame<'_, R>) {
    debug_assert_eq!(view.node.level, 2);
    ctx.scratch.l1.clear();
    let n = view.node.n_members;
    if n == 0 {
        return;
    }
    let th = ctx.accel.thresholds(ctx.w, n, view.node.group_width);
    let mut p0 = WordProb::pow2_over_int(0, (n as u128) * (n as u128));
    let (rng, w, accel) = (&mut *ctx.rng, ctx.w, &ctx.accel);
    let mut emit = |y| ctx.scratch.l1.push(y);
    query_insignificant(view, rng, w, accel, th.i_insig_top, &mut p0, &mut emit);
    query_certain(view, th.i_cert_bottom, &mut |y| ctx.scratch.l1.push(y));
    for_significant_groups(&view.node.nonempty_groups, &th, |l| {
        // pss-lint: allow(no-panic-paths) — for_significant_groups only yields groups whose bitset bit is set, and a set bit implies an allocated child
        let child = view.child(l).expect("non-empty group without child");
        query_final(&child, ctx);
        let tz = &ctx.scratch.l2;
        extract_items(view, ctx.rng, ctx.w, &ctx.accel, tz, &mut |y| ctx.scratch.l1.push(y));
    });
}

/// The final-level query (§4.4): insignificant + certain ranges plus the
/// lookup-table-driven middle range of at most `K = O(log m)` buckets.
/// Leaves the sampled proxies — level-2 bucket indices — in the frame's
/// scratch.
pub fn query_final<R: RngCore>(view: &NodeView<'_>, ctx: &mut QueryFrame<'_, R>) {
    let node = view.node;
    debug_assert_eq!(node.level, 3);
    ctx.scratch.l2.clear();
    ctx.scratch.l3.clear();
    let n = node.n_members;
    if n == 0 {
        return;
    }
    let m = ctx.table.modulus() as u64;
    let m2 = m * m;
    // i1 = largest index with 2^{i1+1}/W ≤ 2/m² ⟺ i1 = ⌊log2(2W/m²)⌋ − 1.
    let i1 = ctx.accel.floor_log2_over(ctx.w, u128::from(m2));
    let i2 = ctx.accel.w_ceil_log2; // = ⌈log2 W⌉, precomputed
    let mut p0 = WordProb::pow2_over_int(1, u128::from(m2));
    let (rng, w, accel) = (&mut *ctx.rng, ctx.w, &ctx.accel);
    query_insignificant(view, rng, w, accel, i1, &mut p0, &mut |y| ctx.scratch.l2.push(y));
    query_certain(view, i2, &mut |y| ctx.scratch.l2.push(y));

    let k_len = i2 - i1 - 1;
    if k_len <= 0 || i2 <= 0 {
        // No middle range, or it lies entirely below bucket index 0.
        return;
    }
    let lo = i1 + 1; // first significant bucket index
    let bucket_len = |idx: usize| node.buckets.get(idx).map_or(0, |b| b.len());
    let mut config = [0u32; MAX_K];
    let table_config = (ctx.final_mode == FinalLevelMode::Lookup && lo >= 0)
        .then(|| config.get_mut(..k_len as usize))
        .flatten();
    if let Some(config) = table_config {
        // Assemble the 4S configuration from the adapter (bucket sizes).
        for (t, c) in config.iter_mut().enumerate() {
            *c = narrow::u32_of_usize(bucket_len(lo as usize + t));
        }
        if config.iter().all(|&c| c == 0) {
            return;
        }
        debug_assert!(config.iter().all(|&c| c as u64 <= m), "bucket size exceeds m");
        let r = ctx.table.sample(ctx.rng, config);
        for (t, &c) in config.iter().enumerate() {
            if !bits::bit64(u64::from(r), t as u64) || c == 0 {
                continue;
            }
            let idx = lo as usize + t;
            let num_t = ctx.table.slot_prob_num(t, c);
            if accept_table_candidate(ctx.rng, ctx.w, &ctx.accel, idx, c, num_t, m2) {
                ctx.scratch.l3.push(narrow::u16_of_usize(idx));
            }
        }
    } else if let Some(last) = node.buckets.len().checked_sub(1) {
        // Direct mode: one Bernoulli min(1, w_v/W) per significant bucket.
        // `checked_sub` guards the empty-bucket-vector edge case (no
        // underflowing `len() - 1`).
        let hi = ((i2 - 1) as usize).min(last);
        if lo.max(0) as usize <= hi {
            for idx in node.nonempty_buckets.range(lo.max(0) as usize, hi) {
                let c = bucket_len(idx) as u64;
                if accept_direct_candidate(ctx.rng, ctx.w, &ctx.accel, idx, c) {
                    ctx.scratch.l3.push(narrow::u16_of_usize(idx));
                }
            }
        }
    }
    let cand = &ctx.scratch.l3;
    extract_items(view, ctx.rng, ctx.w, &ctx.accel, cand, &mut |y| ctx.scratch.l2.push(y));
}

/// Exact parts of the table-candidate acceptance probability
/// `min(1, w_v/W) / (num_t/m²)` with `w_v = c·2^{idx+1}` (computed only in
/// the sliver, in force-exact mode, and for debug validation).
fn table_accept_parts(w: &Ratio, idx: usize, c: u32, num_t: u64, m2: u64) -> (BigUint, BigUint) {
    let w_v = BigUint::from_u64(c as u64).shl(idx as u64 + 1);
    let true_num = w_v.mul(w.den());
    let true_den = w.num();
    if true_num.cmp(true_den) != Ordering::Less {
        // True probability clamped to 1 ⇒ the table probability is also 1.
        debug_assert_eq!(num_t, m2, "table majorization violated at clamp");
        (BigUint::one(), BigUint::one())
    } else {
        let (num, den) = (true_num.mul_u64(m2), true_den.mul_u64(num_t));
        debug_assert!(num.cmp(&den) != Ordering::Greater, "table majorization violated");
        (num, den)
    }
}

/// Accepts a table-sampled bucket as a candidate with probability
/// `min(1, w_v/W) / (num_t/m²)`.
fn accept_table_candidate<R: RngCore>(
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    idx: usize,
    c: u32,
    num_t: u64,
    m2: u64,
) -> bool {
    let bracket = || {
        // w_v = c·2^{idx+1} is exact in f64 (c ≤ m ≤ 64: few significant
        // bits); m²/num_t is a directed-rounded quotient of small integers.
        let wv = pow2_scaled(u64::from(c), narrow::i32_of_u64(idx as u64) + 1);
        let (a_lo, a_hi) = accel.incl_f64_bounds((wv, wv));
        (
            mul_down(a_lo.min(1.0), div_down(m2 as f64, num_t as f64)),
            mul_up(a_hi.min(1.0), div_up(m2 as f64, num_t as f64)),
        )
    };
    coin(rng, accel, 0, bracket, || table_accept_parts(w, idx, c, num_t, m2))
}

/// Accepts a significant bucket in direct mode with probability
/// `min(1, w_v/W)`, `w_v = c·2^{idx+1}`.
fn accept_direct_candidate<R: RngCore>(
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    idx: usize,
    c: u64,
) -> bool {
    let wv = pow2_scaled(c, narrow::i32_of_u64(idx as u64) + 1); // exact product
    coin(
        rng,
        accel,
        0,
        || accel.incl_f64_bounds((wv, wv)),
        || (BigUint::from_u64(c).shl(idx as u64 + 1).mul(w.den()), w.num().clone()),
    )
}

/// Algorithm 1 at the root: the full PSS query on the real item set, under
/// the frame's `W` and accelerators (a cached per-`(α, β)` plan, or the
/// shared `W` of a de-amortized sampler's two halves). Appends `map(x)` for
/// every sampled item `x` to `out`.
pub fn query_level1<R: RngCore, T>(
    level1: &Level1,
    ctx: &mut QueryFrame<'_, R>,
    out: &mut Vec<T>,
    map: impl Fn(ItemId) -> T,
) {
    let n = level1.n_positive;
    if n == 0 {
        return;
    }
    let th = ctx.accel.thresholds(ctx.w, n, level1.group_width);
    let mut p0 = WordProb::pow2_over_int(0, (n as u128) * (n as u128));
    let mut emit = |x| out.push(map(x));
    query_insignificant(level1, ctx.rng, ctx.w, &ctx.accel, th.i_insig_top, &mut p0, &mut emit);
    query_certain(level1, th.i_cert_bottom, &mut emit);
    for_significant_groups(&level1.nonempty_groups, &th, |j| {
        // pss-lint: allow(no-panic-paths) — for_significant_groups only yields groups whose bitset bit is set, and a set bit implies an allocated child
        let child = level1.child_view(j).expect("non-empty group without child");
        query_node(&child, ctx);
        extract_items(level1, ctx.rng, ctx.w, &ctx.accel, &ctx.scratch.l1, &mut emit);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wordram::BitsetList;

    #[test]
    fn significant_groups_skip_empty_universe() {
        // Regression: `groups.universe() - 1` underflowed on an empty group
        // universe before the saturating guard.
        let groups = BitsetList::new(0);
        let th = Thresholds { i_insig_top: -1, i_cert_bottom: 64, j_insig_max: -1, j_cert_min: 4 };
        let mut seen = Vec::new();
        for_significant_groups(&groups, &th, |j| seen.push(j));
        assert!(seen.is_empty());
    }

    #[test]
    fn significant_groups_empty_when_certain_covers_all() {
        let mut groups = BitsetList::new(8);
        groups.insert(2);
        let th = Thresholds { i_insig_top: 7, i_cert_bottom: 8, j_insig_max: 1, j_cert_min: 2 };
        let mut seen = Vec::new();
        for_significant_groups(&groups, &th, |j| seen.push(j));
        assert!(seen.is_empty(), "j_cert_min ≤ lo must yield no groups");
    }

    /// A pool holding one level-3 node whose bucket vector is empty but that
    /// still claims a member — the degenerate shape that used to underflow
    /// `node.buckets.len() - 1` in direct mode.
    fn empty_bucket_pool() -> (crate::structure::NodePool, u32) {
        let mut pool = crate::structure::NodePool::new();
        let idx = pool.alloc_level3();
        let node = pool.node_mut(idx);
        node.buckets = Vec::new();
        node.nonempty_buckets = BitsetList::new(0);
        node.nonempty_groups = BitsetList::new(0);
        node.members = Vec::new();
        node.n_members = 1;
        (pool, idx)
    }

    #[test]
    fn query_final_survives_empty_bucket_vec() {
        for mode in [FinalLevelMode::Direct, FinalLevelMode::Lookup] {
            let (pool, idx) = empty_bucket_pool();
            let w = Ratio::from_int(8);
            let mut table = LookupTable::new(4);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut scratch = QueryScratch::default();
            let mut ctx = QueryFrame {
                rng: &mut rng,
                w: &w,
                accel: QueryAccel::new(&w, true),
                table: &mut table,
                final_mode: mode,
                scratch: &mut scratch,
            };
            let view =
                crate::structure::NodeView { pool: &pool, node: pool.node(idx), parent: &[] };
            query_final(&view, &mut ctx);
            assert!(ctx.scratch.l2.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn thresholds_match_definitions_small() {
        // W = 8, n = 4, g = 2: i_ins_max = ⌊log2(8/16)⌋ − 1 = −2,
        // i_cert_min = 3 ⇒ j_cert_min = 2.
        let th = thresholds(&Ratio::from_int(8), 4, 2);
        assert_eq!(th.j_insig_max, -1);
        assert_eq!(th.i_insig_top, -1);
        assert_eq!(th.j_cert_min, 2);
        assert_eq!(th.i_cert_bottom, 4);
    }
}
