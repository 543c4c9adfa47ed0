//! `serve_queries`: HALT at n = 2^20 answering a stream of PSS queries.
//!
//! Three queries in four come from a hot set of 16 `(α, β)` pairs with μ
//! from 1 to 256 (half with β > 0), which fits the 32-entry plan cache; the
//! fourth uses fresh rationals that miss it. One churn pair (delete a random
//! live item, insert a new one) follows every 32 queries, so cached plans go
//! stale and refresh. A block is 256 queries and 8 churn pairs, and every
//! block does the same work; throughputs are medians over slices of blocks.

#![allow(clippy::disallowed_types)] // Instant: timing is this crate's job.

use crate::backend::{mu, Checks, Halt};
use crate::stats::{median, slices, Block, Histogram};
use crate::trace::{Kind, Tracer};
use crate::{alloc_count, Args, Outcome, SLICES};
use bignum::Ratio;
use dpss::query::{thresholds, QueryAccel};
use dpss::{DpssSampler, SpaceUsage};
use pss_core::{Handle, PssBackend, QueryCtx, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use workloads::weights::WeightDist;

/// Items held.
pub const N: usize = 1 << 20;
/// Weight law of every item.
pub const DIST: WeightDist = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 };
const QUERIES_PER_BLOCK: usize = 256;
const QUERIES_PER_PAIR: usize = 32;
const HOT: usize = 16;
/// Fresh (cache-missing) queries per block: every fourth query.
const FRESH: usize = QUERIES_PER_BLOCK / 4;
/// Identical bulk loads timed per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 9;

/// `n` weights drawn from `dist`. `WeightDist` recomputes its rank table for
/// every draw, so a pool of 2^14 draws is made with it and resampled.
pub fn weights(dist: &WeightDist, n: usize, rng: &mut SmallRng) -> Vec<u64> {
    let pool = dist.generate(n.min(1 << 14), rng);
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// A query parameter pair, exact and as floats (for μ).
struct Param {
    alpha: Ratio,
    beta: Ratio,
    af: f64,
    bf: f64,
}

impl Param {
    fn new(a: (u64, u64), b: u64) -> Self {
        Param {
            alpha: Ratio::from_u64s(a.0, a.1),
            beta: Ratio::from_int(b),
            af: a.0 as f64 / a.1 as f64,
            bf: b as f64,
        }
    }
}

/// Hot pair `i` of 16: μ = 256^(i/15); odd pairs split `W` evenly between
/// `α·Σw` and `β`.
fn hot_pair(i: usize, total: u128) -> Param {
    let m = 256f64.powf(i as f64 / (HOT - 1) as f64);
    if i.is_multiple_of(2) {
        Param::new((1024, (m * 1024.0).round() as u64), 0)
    } else {
        Param::new((1024, (2.0 * m * 1024.0).round() as u64), (total as f64 / (2.0 * m)) as u64)
    }
}

/// Fresh pair `k` of a block's 64: μ = 256^(k/63), so every block does the
/// same work; the denominator is random in [2^30, 2^31), so the key never
/// repeats an earlier one.
fn fresh_pair(k: usize, rng: &mut SmallRng) -> Param {
    let m = 256f64.powf(k as f64 / (FRESH - 1) as f64);
    let den = rng.gen_range(1u64 << 30..1u64 << 31);
    Param::new(((den as f64 / m).round() as u64, den), 0)
}

/// Per-layer counters of the traced run.
#[derive(Default)]
struct Layer {
    words: u64,
    slivers: u64,
    allocs_q: u64,
    bytes_q: u64,
    allocs_u: u64,
    ins_ns: u64,
    del_ns: u64,
    build_ns: u64,
    builds: u64,
    q_ns: u64,
    items: u64,
    journal: Vec<f64>,
}

fn build(weights: &[u64], seed: u64, tr: &mut Tracer) -> (DpssSampler, Vec<Handle>, f64) {
    let t0 = Instant::now();
    let mut s = DpssSampler::with_seed(seed);
    let hs = PssBackend::insert_many(&mut s, weights);
    let t1 = Instant::now();
    tr.leaf(Kind::Setup, t0, t1);
    (s, hs, (t1 - t0).as_secs_f64())
}

/// Runs the workload for `args.seconds`.
pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let init = weights(&DIST, N, &mut rng);
    let pool = weights(&DIST, 1 << 16, &mut rng);
    let w_max = init.iter().chain(&pool).copied().max().unwrap_or(1);
    let ck = &mut out.checks;

    // Back-to-back identical builds, each dropped before the next but the
    // last: the allocator then sees the same request sequence in every run.
    // Builds interleaved with queries landed on freshly faulted or on reused
    // pages by chance, which moved single builds by 2x.
    tr.open(Kind::Phase);
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let (mut s, handles) = loop {
        let (s, hs, t) = build(&init, args.seed, tr);
        setup.push(t);
        if setup.len() == SETUP_BUILDS {
            break (s, hs);
        }
    };
    let mut scratch = Vec::new();
    ck.op(handles.len() == N && Checks::sample_ok(&s, &handles, &mut scratch), || {
        "bulk load returned dead or repeated handles".into()
    });
    let mut live: Vec<(Handle, u64)> = handles.into_iter().zip(init.iter().copied()).collect();
    let mut total: u128 = init.iter().map(|&w| w as u128).sum();
    tr.close();

    let hot: Vec<Param> = (0..HOT).map(|i| hot_pair(i, total)).collect();
    for p in &hot {
        let exact = s.expected_sample_size(&p.alpha, &p.beta);
        let mine = mu(p.af, p.bf, total);
        let w = p.af * total as f64 + p.bf;
        ck.op((exact - mine).abs() <= 1e-6 * exact && w >= w_max as f64, || {
            format!("hot pair μ {exact} from the sampler, {mine} from the shadow")
        });
    }
    // The block's query order: 3 hot to 1 fresh, hot pairs in a fixed shuffle.
    let mut order: Vec<usize> = (0..QUERIES_PER_BLOCK * 3 / 4).map(|k| k % HOT).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut fresh_order: Vec<usize> = (0..FRESH).collect();
    for i in (1..FRESH).rev() {
        fresh_order.swap(i, rng.gen_range(0..=i));
    }
    let group_width = s.stats().group_width_l1;

    let mut ctx = QueryCtx::new(args.seed ^ 0x5EED);
    let mut q_hist = Histogram::default();
    let mut u_hist = Histogram::default();
    let mut blocks: Vec<Block> = Vec::new();
    let (mut sampled, mut mu_sum) = (0u64, 0.0f64);
    let mut next_w = 0usize;
    let mut lay = Layer::default();
    let plan0 = s.plan_stats(&ctx).unwrap_or_default();

    let start = Instant::now();
    tr.open(Kind::Phase);
    while start.elapsed().as_secs_f64() < args.seconds {
        tr.open(Kind::Block);
        let mut blk = Block::default();
        let mut hot_i = 0;
        for j in 0..QUERIES_PER_BLOCK {
            let fresh;
            let p = if j % 4 == 3 {
                fresh = fresh_pair(fresh_order[j / 4], &mut rng);
                if tr.on() {
                    let t0 = Instant::now();
                    let w = s.param_weight(&fresh.alpha, &fresh.beta);
                    let th = thresholds(&w, s.len(), group_width);
                    let accel = QueryAccel::new(&w, true);
                    std::hint::black_box((th, accel));
                    lay.build_ns += t0.elapsed().as_nanos() as u64;
                    lay.builds += 1;
                }
                &fresh
            } else {
                hot_i += 1;
                &hot[order[hot_i - 1]]
            };
            let (a0, w0, sl0) =
                (alloc_count::snapshot(), ctx.words_consumed(), randvar::sliver_hits());
            let t0 = Instant::now();
            let t = PssBackend::query(&s, &mut ctx, &p.alpha, &p.beta);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            blk.reads += 1;
            blk.read_ns += ns;
            q_hist.record(ns);
            if tr.on() {
                tr.leaf(Kind::Query, t0, t1);
                let a1 = alloc_count::snapshot();
                lay.allocs_q += a1.0 - a0.0;
                lay.bytes_q += a1.1 - a0.1;
                lay.words += ctx.words_consumed() - w0;
                lay.slivers += randvar::sliver_hits() - sl0;
                lay.items += t.len() as u64;
                lay.q_ns += ns;
            }
            ck.op(Checks::sample_ok(&s, &t, &mut scratch), || {
                "query returned a dead or repeated handle".into()
            });
            sampled += t.len() as u64;
            mu_sum += mu(p.af, p.bf, total);

            if j % QUERIES_PER_PAIR == QUERIES_PER_PAIR - 1 {
                let (h, w) = live.swap_remove(rng.gen_range(0..live.len()));
                let nw = pool[next_w % pool.len()];
                next_w += 1;
                let a0 = alloc_count::snapshot();
                let t0 = Instant::now();
                let ok = PssBackend::delete(&mut s, h);
                let t1 = Instant::now();
                let nh = PssBackend::insert(&mut s, nw);
                let t2 = Instant::now();
                let (d, i) = ((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64);
                u_hist.record(d);
                u_hist.record(i);
                blk.updates += 2;
                blk.update_ns += d + i;
                if tr.on() {
                    tr.leaf(Kind::Delete, t0, t1);
                    tr.leaf(Kind::Insert, t1, t2);
                    lay.allocs_u += alloc_count::snapshot().0 - a0.0;
                    lay.del_ns += d;
                    lay.ins_ns += i;
                }
                ck.op(ok, || "delete of a live handle returned false".into());
                ck.op(s.live(nh), || "inserted handle is not live".into());
                total = total - w as u128 + nw as u128;
                live.push((nh, nw));
            }
        }
        tr.close();
        blocks.push(blk);
        if s.len() != live.len() || s.total_weight() != total {
            ck.fail(format!(
                "block end: len {} total {} vs shadow {} {total}",
                s.len(),
                s.total_weight(),
                live.len()
            ));
        }
        if tr.on() {
            lay.journal.push(s.journal().len() as f64);
        }
    }
    tr.close();
    ck.sample_total(sampled, mu_sum);

    out.metric("setup_s", median(&setup), "s");
    out.rates(&slices(&blocks, SLICES), "queries");
    out.latencies(&q_hist, "query", &u_hist);
    out.metric("space_bytes_per_item", s.space_words() as f64 * 8.0 / s.len() as f64, "bytes");
    let (queries, updates) = blocks.iter().fold((0, 0), |a, b| (a.0 + b.reads, a.1 + b.updates));
    out.fact("blocks", blocks.len());
    out.fact("queries", queries);
    out.fact("churn_pairs", updates / 2);
    out.fact("setup_builds", setup.len());
    out.fact("n", N);

    if tr.on() {
        let q = queries.max(1) as f64;
        let (h, m, r) = s.plan_stats(&ctx).unwrap_or_default();
        let (h, m, r) = (h - plan0.0, m - plan0.1, r - plan0.2);
        let lookups = (h + m + r).max(1) as f64;
        out.layer("query.us_per_item", lay.q_ns as f64 / 1e3 / (q + lay.items as f64));
        let pairs = (updates / 2).max(1) as f64;
        out.layer("update.insert_ns", lay.ins_ns as f64 / pairs);
        out.layer("update.delete_ns", lay.del_ns as f64 / pairs);
        out.layer("dpss.plan.hit_share", h as f64 / lookups);
        out.layer("dpss.plan.miss_share", m as f64 / lookups);
        out.layer("dpss.plan.refresh_share", r as f64 / lookups);
        out.layer("dpss.plan.build_us", lay.build_ns as f64 / 1e3 / lay.builds.max(1) as f64);
        out.layer("randvar.words_per_query", lay.words as f64 / q);
        out.layer("randvar.words_per_item", lay.words as f64 / lay.items.max(1) as f64);
        out.layer("randvar.sliver_per_mcoin", lay.slivers as f64 * 1e6 / lay.words.max(1) as f64);
        out.layer("alloc.per_query", lay.allocs_q as f64 / q);
        out.layer("alloc.bytes_per_query", lay.bytes_q as f64 / q);
        out.layer("alloc.per_update", lay.allocs_u as f64 / (2.0 * pairs));
        out.layer("journal.depth", median(&lay.journal));
        if let Some([l, p, sl]) = s.residency() {
            out.layer("wordram.arena_live_words", l as f64);
            out.layer("wordram.parked_words", p as f64);
            out.layer("wordram.slack_words", sl as f64);
        }
    }
}
