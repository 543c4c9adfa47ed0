//! `churn` and `churn_deam`: one op sequence through every update regime.
//!
//! Bulk-load n₀ = 2^20 items, insert one at a time past 2·n₀, run 2^20
//! churn pairs, then delete down below n₀/4, with one μ = 16 query per 4096
//! updates. Global rebuilds (amortized HALT) and migration epochs
//! (de-amortized HALT) fire on the way up and on the way down.
//!
//! The identical sequence is replayed at least [`STALL_REPLAYS`] times in a
//! run. Each replay is one slice of the run: throughputs are medians over
//! replays. A stall is an op index over 50 µs in every one of the first
//! [`STALL_REPLAYS`] replays.

#![allow(clippy::disallowed_types)] // Instant: timing is this crate's job.

use crate::backend::{mu, Checks, Halt};
use crate::serve::{weights, DIST};
use crate::stats::{median, recurring_stalls, Block, Histogram};
use crate::trace::{Kind, Tracer};
use crate::{alloc_count, Args, Outcome};
use bignum::Ratio;
use pss_core::{Handle, QueryCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Initial (bulk-loaded) size n₀.
pub const N0: usize = 1 << 20;
/// Churn pairs in the middle phase.
const PAIRS: usize = 1 << 20;
/// Updates between two queries; also the block size.
const BLOCK: usize = 4096;
/// Replays whose slow ops must coincide for a stall to count.
pub const STALL_REPLAYS: usize = 3;
/// An op slower than this is a stall candidate.
const STALL_NS: u64 = 50_000;

/// What one replay measured.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    total: Block,
    blocks: usize,
    slow: Vec<u64>,
    u_hist: Histogram,
    q_hist: Histogram,
    space: f64,
    /// Items sampled by the replay's queries, and their Σμ.
    sampled: u64,
    mu_sum: f64,
    lay: Layer,
}

/// Per-layer counters of the traced run.
#[derive(Default)]
struct Layer {
    allocs_u: u64,
    ins: (u64, u64),
    del: (u64, u64),
    rebuilds: u64,
    rebuild_ns: u64,
    migrating_ops: u64,
    epochs: u64,
    hist_migrating: Histogram,
    hist_idle: Histogram,
    journal: Vec<f64>,
    words: u64,
    items: u64,
    q_ns: u64,
    queries: u64,
    slivers: u64,
    allocs_q: u64,
    bytes_q: u64,
    plan: (u64, u64, u64),
    residency: Option<[usize; 3]>,
}

/// The client side of one replay: the sampler, its shadow and the timers.
struct Client<'a, B: Halt> {
    s: B,
    live: Vec<(Handle, u64)>,
    total: u128,
    rng: SmallRng,
    pool: &'a [u64],
    next_w: usize,
    ops: u64,
    ok: bool,
    r: Replay,
}

impl<B: Halt> Client<'_, B> {
    /// Times one library call, records its latency, and tags it for the trace.
    #[inline]
    fn timed<T>(&mut self, tr: &mut Tracer, kind: Kind, f: impl FnOnce(&mut B) -> T) -> T {
        let migrating = tr.on() && self.s.migrating();
        let (rb0, a0) = (self.s.rebuilds(), alloc_count::snapshot().0);
        let t0 = Instant::now();
        let v = f(&mut self.s);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        self.r.total.updates += 1;
        self.r.total.update_ns += ns;
        self.r.u_hist.record(ns);
        if ns > STALL_NS {
            self.r.slow.push(self.ops);
        }
        self.ops += 1;
        if tr.on() {
            tr.leaf(kind, t0, t1);
            let l = &mut self.r.lay;
            l.allocs_u += alloc_count::snapshot().0 - a0;
            let slot = if kind == Kind::Insert { &mut l.ins } else { &mut l.del };
            *slot = (slot.0 + ns, slot.1 + 1);
            if self.s.rebuilds() != rb0 {
                l.rebuilds += 1;
                l.rebuild_ns += ns;
            }
            if migrating {
                l.migrating_ops += 1;
                l.hist_migrating.record(ns);
            } else {
                l.hist_idle.record(ns);
            }
        }
        v
    }

    fn insert(&mut self, tr: &mut Tracer) {
        let w = self.pool[self.next_w % self.pool.len()];
        self.next_w += 1;
        let h = self.timed(tr, Kind::Insert, |s| s.insert(w));
        self.ok &= self.s.live(h);
        self.live.push((h, w));
        self.total += w as u128;
    }

    fn delete(&mut self, tr: &mut Tracer) {
        let (h, w) = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
        self.ok &= self.timed(tr, Kind::Delete, |s| s.delete(h));
        self.total -= w as u128;
    }
}

/// Runs replays of the op sequence until `args.seconds` have passed and at
/// least [`STALL_REPLAYS`] replays are done.
pub fn run<B: Halt>(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let init = weights(&DIST, N0, &mut rng);
    let pool = weights(&DIST, 1 << 16, &mut rng);
    let w_max = init.iter().chain(&pool).copied().max().unwrap_or(1);
    let victim_seed = rng.gen::<u64>();
    let (alpha, af) = (Ratio::from_u64s(1, 16), 1.0 / 16.0);

    let start = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    while replays.len() < STALL_REPLAYS || start.elapsed().as_secs_f64() < args.seconds {
        let ck = &mut out.checks;
        let mut r = Replay::default();
        tr.open(Kind::Phase);
        let t0 = Instant::now();
        let mut s = B::with_seed(args.seed);
        let hs = s.insert_many(&init);
        let t1 = Instant::now();
        tr.leaf(Kind::Setup, t0, t1);
        tr.close();
        r.setup_s = (t1 - t0).as_secs_f64();
        let mut scratch = Vec::new();
        ck.op(hs.len() == N0 && Checks::sample_ok(&s, &hs, &mut scratch), || {
            "bulk load returned dead or repeated handles".into()
        });
        let mut c = Client {
            live: hs.into_iter().zip(init.iter().copied()).collect(),
            total: init.iter().map(|&w| w as u128).sum(),
            s,
            rng: SmallRng::seed_from_u64(victim_seed),
            pool: &pool,
            next_w: 0,
            ops: 0,
            ok: true,
            r,
        };
        let mut ctx = QueryCtx::new(args.seed ^ 0xC0FFEE);
        let epochs0 = c.s.epochs();
        // Phases: grow past 2·n₀, churn, shrink below n₀/4. Blocks run
        // across phase boundaries, so the replay is one span.
        tr.open(Kind::Phase);
        for phase in 0..3 {
            loop {
                let more = match phase {
                    0 => c.live.len() <= 2 * N0,
                    1 => c.ops < (N0 + 1 + 2 * PAIRS) as u64,
                    _ => c.live.len() >= N0 / 4,
                };
                if !more {
                    break;
                }
                if c.ops.is_multiple_of(BLOCK as u64) {
                    tr.open(Kind::Block);
                }
                match phase {
                    0 => c.insert(tr),
                    1 if c.ops.is_multiple_of(2) => c.delete(tr),
                    1 => c.insert(tr),
                    _ => c.delete(tr),
                }
                if c.ops.is_multiple_of(BLOCK as u64) {
                    tr.close();
                    end_block(&mut c, &mut ctx, &alpha, af, w_max, tr, ck);
                }
            }
        }
        if !c.ops.is_multiple_of(BLOCK as u64) {
            tr.close();
        }
        tr.close();
        if tr.on() {
            c.r.lay.residency = c.s.residency();
        }
        c.r.space = c.s.space_words() as f64 * 8.0 / c.s.len() as f64;
        c.r.lay.epochs = c.s.epochs() - epochs0;
        if tr.on() {
            c.r.lay.plan = c.s.plan_stats(&ctx).unwrap_or_default();
        }
        ck.op(c.ok, || "a delete returned false or an inserted handle was dead".into());
        replays.push(c.r);
    }
    // Replays draw identical samples, so only the first one is independent.
    out.checks.sample_total(replays[0].sampled, replays[0].mu_sum);
    report(&replays, out, tr.on());
}

/// Closes a block: records its time, checks the shadow, runs the query.
fn end_block<B: Halt>(
    c: &mut Client<'_, B>,
    ctx: &mut QueryCtx,
    alpha: &Ratio,
    af: f64,
    w_max: u64,
    tr: &mut Tracer,
    ck: &mut Checks,
) {
    c.r.blocks += 1;
    if c.s.len() != c.live.len() || c.s.total_weight() != c.total {
        ck.fail(format!(
            "block end: len {} total {} vs shadow {} {}",
            c.s.len(),
            c.s.total_weight(),
            c.live.len(),
            c.total
        ));
    }
    let (a0, w0, sl0) = (alloc_count::snapshot(), ctx.words_consumed(), randvar::sliver_hits());
    let t0 = Instant::now();
    let t = c.s.query(ctx, alpha, &Ratio::zero());
    let t1 = Instant::now();
    let ns = (t1 - t0).as_nanos() as u64;
    c.r.total.reads += 1;
    c.r.total.read_ns += ns;
    c.r.q_hist.record(ns);
    let mut scratch = Vec::new();
    ck.op(Checks::sample_ok(&c.s, &t, &mut scratch) && af * c.total as f64 >= w_max as f64, || {
        "query returned a dead or repeated handle".into()
    });
    c.r.sampled += t.len() as u64;
    c.r.mu_sum += mu(af, 0.0, c.total);
    if tr.on() {
        tr.leaf(Kind::Query, t0, t1);
        let l = &mut c.r.lay;
        let a1 = alloc_count::snapshot();
        l.allocs_q += a1.0 - a0.0;
        l.bytes_q += a1.1 - a0.1;
        l.words += ctx.words_consumed() - w0;
        l.slivers += randvar::sliver_hits() - sl0;
        l.items += t.len() as u64;
        l.q_ns += ns;
        l.queries += 1;
        l.journal.push(c.s.journal().map_or(0, |j| j.len()) as f64);
    }
}

fn report(replays: &[Replay], out: &mut Outcome, traced: bool) {
    let totals: Vec<Block> = replays.iter().map(|r| r.total).collect();
    let (mut q_hist, mut u_hist) = (Histogram::default(), Histogram::default());
    for r in replays {
        q_hist.merge(&r.q_hist);
        u_hist.merge(&r.u_hist);
    }
    let setups: Vec<f64> = replays.iter().map(|r| r.setup_s).collect();
    let slow: Vec<Vec<u64>> = replays.iter().take(STALL_REPLAYS).map(|r| r.slow.clone()).collect();
    out.metric("setup_s", median(&setups), "s");
    out.rates(&totals, "queries");
    out.latencies(&q_hist, "query", &u_hist);
    out.metric("update_stalls_50us", recurring_stalls(&slow) as f64, "count");
    out.metric("space_bytes_per_item", replays.last().map_or(0.0, |r| r.space), "bytes");
    out.fact("replays", replays.len());
    out.fact("stall_replays", STALL_REPLAYS);
    out.fact("blocks_per_replay", replays[0].blocks);
    out.fact("updates_per_replay", replays[0].total.updates);
    out.fact("queries_per_replay", replays[0].total.reads);
    out.fact("n0", N0);

    if !traced {
        return;
    }
    let sum = |f: &dyn Fn(&Layer) -> u64| replays.iter().map(|r| f(&r.lay)).sum::<u64>() as f64;
    let mut mig = Histogram::default();
    let mut idle = Histogram::default();
    let mut journal = Vec::new();
    for r in replays {
        mig.merge(&r.lay.hist_migrating);
        idle.merge(&r.lay.hist_idle);
        journal.extend_from_slice(&r.lay.journal);
    }
    let q = sum(&|l| l.queries).max(1.0);
    let ops = totals.iter().map(|t| t.updates).sum::<u64>().max(1) as f64;
    let (h, m, rf) = replays
        .iter()
        .fold((0, 0, 0), |a, r| (a.0 + r.lay.plan.0, a.1 + r.lay.plan.1, a.2 + r.lay.plan.2));
    let lookups = (h + m + rf).max(1) as f64;
    out.layer("query.us_per_item", sum(&|l| l.q_ns) / 1e3 / (q + sum(&|l| l.items)));
    out.layer("update.insert_ns", sum(&|l| l.ins.0) / sum(&|l| l.ins.1).max(1.0));
    out.layer("update.delete_ns", sum(&|l| l.del.0) / sum(&|l| l.del.1).max(1.0));
    out.layer("dpss.plan.hit_share", h as f64 / lookups);
    out.layer("dpss.plan.miss_share", m as f64 / lookups);
    out.layer("dpss.plan.refresh_share", rf as f64 / lookups);
    out.layer("randvar.words_per_query", sum(&|l| l.words) / q);
    out.layer("randvar.words_per_item", sum(&|l| l.words) / sum(&|l| l.items).max(1.0));
    out.layer("randvar.sliver_per_mcoin", sum(&|l| l.slivers) * 1e6 / sum(&|l| l.words).max(1.0));
    out.layer("alloc.per_query", sum(&|l| l.allocs_q) / q);
    out.layer("alloc.bytes_per_query", sum(&|l| l.bytes_q) / q);
    out.layer("alloc.per_update", sum(&|l| l.allocs_u) / ops);
    let n = replays.len() as f64;
    out.layer("dpss.rebuild.count", sum(&|l| l.rebuilds) / n);
    out.layer("dpss.rebuild.ms", sum(&|l| l.rebuild_ns) / 1e6 / sum(&|l| l.rebuilds).max(1.0));
    // Only the de-amortized sampler migrates; on `halt` these stay 0.
    if sum(&|l| l.epochs + l.migrating_ops) > 0.0 {
        out.layer("dpss.deam.migrating_share", sum(&|l| l.migrating_ops) / ops);
        out.layer("dpss.deam.epochs", sum(&|l| l.epochs) / n);
        out.layer("dpss.deam.update_migrating_p99_ns", mig.percentile(0.99).unwrap_or(0.0));
        out.layer("dpss.deam.update_idle_p99_ns", idle.percentile(0.99).unwrap_or(0.0));
    }
    out.layer("journal.depth", median(&journal));
    if let Some([l, p, s]) = replays.last().and_then(|r| r.lay.residency) {
        out.layer("wordram.arena_live_words", l as f64);
        out.layer("wordram.parked_words", p as f64);
        out.layer("wordram.slack_words", s as f64);
    }
}
