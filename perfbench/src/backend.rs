//! The two HALT samplers behind one interface, plus the output checks.
//!
//! Workloads drive a sampler only through `PssBackend` and the public
//! accessors wrapped here; the extra accessors feed per-layer counters and
//! default to "this layer is absent".

use dpss::{DeamortizedDpss, DpssSampler, ItemId};
use pss_core::{Handle, QueryCtx, SeedableBackend};

/// Words of an arena split by residency: live, parked, never carved.
pub type Residency = [usize; 3];

/// A HALT sampler as the benchmark sees it.
pub trait Halt: SeedableBackend {
    /// `true` iff `h` names a live item.
    fn live(&self, h: Handle) -> bool;
    /// Global rebuilds so far (amortized HALT only).
    fn rebuilds(&self) -> u64 {
        0
    }
    /// `true` while a de-amortized migration epoch is open.
    fn migrating(&self) -> bool {
        false
    }
    /// Completed migration epochs (de-amortized HALT only).
    fn epochs(&self) -> u64 {
        0
    }
    /// Plan-cache `(hits, misses, refreshes)` inside `ctx`, if exposed.
    fn plan_stats(&self, _ctx: &QueryCtx) -> Option<(u64, u64, u64)> {
        None
    }
    /// Item-arena plus proxy-arena residency; O(capacity), so phase ends only.
    fn residency(&self) -> Option<Residency> {
        None
    }
}

impl Halt for DpssSampler {
    fn live(&self, h: Handle) -> bool {
        self.contains(ItemId::from_raw(h.raw()))
    }
    fn rebuilds(&self) -> u64 {
        self.rebuild_count()
    }
    fn plan_stats(&self, ctx: &QueryCtx) -> Option<(u64, u64, u64)> {
        Some(self.plan_cache_stats_in(ctx))
    }
    fn residency(&self) -> Option<Residency> {
        let s = self.stats();
        let (a, b) = (s.item_arena_residency, s.proxy_arena_residency);
        Some([
            a.live_words + b.live_words,
            a.parked_words + b.parked_words,
            a.slack_words + b.slack_words,
        ])
    }
}

impl Halt for DeamortizedDpss {
    fn live(&self, h: Handle) -> bool {
        self.weight(h.raw()).is_some()
    }
    fn migrating(&self) -> bool {
        DeamortizedDpss::migrating(self)
    }
    fn epochs(&self) -> u64 {
        self.epochs_completed()
    }
}

/// Output checks, made outside the timed regions. Each op attempted counts
/// once; an op fails if any check on it fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops (or aggregate checks) that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the error stream.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one op, failed unless `ok`.
    #[inline]
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an aggregate (whole-run or block-end) check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// `true` iff every handle in `t` is live and no handle repeats.
    pub fn sample_ok<B: Halt>(b: &B, t: &[Handle], scratch: &mut Vec<u64>) -> bool {
        scratch.clear();
        scratch.extend(t.iter().map(|h| h.raw()));
        scratch.sort_unstable();
        scratch.windows(2).all(|w| w[0] != w[1]) && t.iter().all(|&h| b.live(h))
    }

    /// The 6σ check of a run's total sample size against `Σμ`: the sampled
    /// count is a sum of independent Bernoulli trials with variance at most
    /// its mean.
    pub fn sample_total(&mut self, sampled: u64, mu_sum: f64) {
        let bound = 6.0 * mu_sum.max(1.0).sqrt();
        if (sampled as f64 - mu_sum).abs() > bound {
            self.fail(format!("sampled {sampled} items, expected {mu_sum:.1} ± {bound:.1}"));
        }
    }
}

/// `μ = Σ_x min(w_x/W, 1)` for `W = α·Σw + β`, exact whenever no item is
/// clamped, i.e. `max w ≤ W` (asserted by the caller's weight range).
pub fn mu(alpha: f64, beta: f64, total: u128) -> f64 {
    let t = total as f64;
    t / (alpha * t + beta)
}
