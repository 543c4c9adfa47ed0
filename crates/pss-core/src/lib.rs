//! # pss-core — the backend facade of the DPSS suite
//!
//! Bottom-of-stack crate owning the uniform interface through which every
//! parameterized-subset-sampling structure in this workspace is driven: the
//! HALT sampler of *Optimal Dynamic Parameterized Subset Sampling* (Gan,
//! Umboh, Wang, Wirth, Zhang — PODS 2024), its de-amortized variant, the
//! naive baselines, and the ODSS-style comparison structure of *Optimal
//! Dynamic Subset Sampling* (Yi, Wang, Wei).
//!
//! Layering: `pss-core` sits directly above `bignum`/`wordram` (plus the
//! `rand` shim for the context RNG) and below every sampler crate, so
//! `workloads`, `graphsub`, `bench`, and the integration suite can depend on
//! the *interface* without depending on any particular sampler. Concrete
//! structures implement [`PssBackend`] in their own crates (`dpss`,
//! `baselines`); this crate defines:
//!
//! - [`PssBackend`]: `&mut self` updates, **`&self` queries** with an
//!   explicit [`QueryCtx`] holding all read-path mutable state;
//! - [`QueryCtx`]: the caller-owned context (RNG stream + per-backend plan
//!   caches/memoizations) that makes shared-read queries possible;
//! - [`ChangeJournal`]: the bounded epoch-stamped ring of fine-grained
//!   [`Delta`]s a backend appends to on its update path, with the
//!   [`ChangeJournal::catch_up`] revalidation API through which per-context
//!   read-path state patches itself forward in O(deltas) instead of
//!   rebuilding Θ(n);
//! - [`ShardedQuery`]: the parallel `query_many` front-end built on the
//!   shared-read split — bit-identical to sequential at any thread count;
//! - [`Handle`]: the opaque item identifier shared by every backend;
//! - [`SeedableBackend`]: the uniform seeding surface (deterministic
//!   construction from a `u64` seed);
//! - [`SpaceUsage`] (re-exported from `wordram`): the paper's word-granularity
//!   space measure, a supertrait of [`PssBackend`];
//! - [`Store`]: the shared slot-based item store the O(n)-per-query baselines
//!   are built on, with native in-place [`Store::set_weight`] and the
//!   one-op decay [`Store::scale_all`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// pss-lint: allow-file(no-bare-index) — the reference backend indexes parallel weight/live vectors by handles it validated against live.len() on entry

use bignum::{BigUint, Ratio};
use wordram::narrow;

mod ctx;
pub mod fault;
mod journal;
mod shard;
mod snapshot;

pub use ctx::{fresh_backend_id, stream_seed, CtxRng, QueryCtx};
pub use journal::{ChangeJournal, Delta, DeltaReplay, Replay, DEFAULT_JOURNAL_CAPACITY};
pub use shard::ShardedQuery;
pub use snapshot::{
    kind, recover, Dec, Enc, RecoverError, SnapshotError, SnapshotReader, SnapshotWriter,
    Snapshottable, FORMAT_VERSION, MAGIC,
};
pub use wordram::SpaceUsage;

/// The decayed weight `⌊w·num/den⌋` of one global weight scale — the single
/// definition every producer (native [`Store::scale_all`], the workload
/// replayers' per-item fallback) shares, so journaled `ScaledAll` deltas and
/// tracked weights agree bit for bit. The product is widened to 128 bits and
/// the result saturates at `u64::MAX`, so a hand-built amplifying factor
/// (`num > den` — generators never emit one, and this helper debug-asserts
/// against it) clamps loudly instead of silently wrapping.
pub fn scale_weight(w: u64, num: u32, den: u32) -> u64 {
    debug_assert!(den >= 1 && (1..=den).contains(&num), "scale factor must be in (0, 1]");
    u64::try_from((w as u128 * num as u128) / den.max(1) as u128).unwrap_or(u64::MAX)
}

/// Opaque identifier of a live item inside a [`PssBackend`].
///
/// Handles are only meaningful to the backend that issued them, and only
/// until that backend deletes the item. The `u64` payload is exposed for
/// serialization and slot-addressed bookkeeping, not for interpretation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle(u64);

impl Handle {
    /// Reconstructs a handle from its raw payload.
    pub const fn from_raw(raw: u64) -> Self {
        Handle(raw)
    }

    /// The raw payload.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A dynamic parameterized subset sampler: maintains a weighted item set
/// under inserts/deletes and answers PSS queries `(α, β)` in which each live
/// item `x` is included independently with probability
/// `min( w(x) / (α·Σw + β), 1 )`.
///
/// ## Read/write split
///
/// Updates take `&mut self`; **queries take `&self`** plus an explicit
/// [`QueryCtx`] that owns every piece of query-time mutable state (the RNG
/// stream and whatever per-backend scratch the structure wants to reuse —
/// HALT's `(α, β)` plan cache, the ODSS baselines' materialized buckets).
/// Queries mutate nothing in the structure, so independent queries may run
/// concurrently over one shared backend, each thread holding its own
/// context — that is what [`ShardedQuery`] does.
///
/// Every sampler in the workspace implements this trait, which is what lets
/// the benches, the workload drivers, and the agreement tests treat HALT, its
/// de-amortized variant, and all baselines as interchangeable `dyn
/// PssBackend` values.
///
/// `Send + Sync` are supertraits: with every piece of query-time mutable
/// state evicted into [`QueryCtx`], a conforming backend is plain shared
/// data, and requiring it here is what lets [`ShardedQuery`] fan out over
/// `&dyn PssBackend` without per-callsite bounds.
pub trait PssBackend: SpaceUsage + Send + Sync {
    /// Inserts an item with the given weight, returning its handle.
    fn insert(&mut self, weight: u64) -> Handle;

    /// Inserts a batch of items, returning their handles in order.
    ///
    /// Semantically identical to calling [`PssBackend::insert`] in a loop
    /// (and that is the default). Backends with a [`ChangeJournal`] override
    /// this to stamp the whole batch with **one** journal epoch
    /// ([`ChangeJournal::record_batch`]) instead of one per item — observers
    /// replay whole batches or nothing, so per-op semantics are unchanged.
    fn insert_many(&mut self, weights: &[u64]) -> Vec<Handle> {
        weights.iter().map(|&w| self.insert(w)).collect()
    }

    /// Deletes an item by handle; `true` if it was live.
    fn delete(&mut self, handle: Handle) -> bool;

    /// Answers one PSS query with parameters `(α, β)`, drawing randomness
    /// (and any cached read-path state) from `ctx`, and appends the sampled
    /// handles to `out` (which is not cleared). A caller that reuses `out`
    /// across queries pays no allocation for the result once it has grown.
    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>);

    /// Answers one PSS query with parameters `(α, β)` into a fresh vector —
    /// [`PssBackend::query_into`] with a new buffer.
    fn query(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<Handle> {
        let mut out = Vec::new();
        self.query_into(ctx, alpha, beta, &mut out);
        out
    }

    /// Answers a batch of PSS queries, one independent result per `(α, β)`
    /// pair, in order.
    ///
    /// The default implementation follows the **batch stream discipline**
    /// (see [`QueryCtx`] docs): query `i` runs on an RNG stream derived from
    /// `(ctx seed, batch, i)`, which is what makes [`ShardedQuery`]
    /// bit-identical to this sequential loop at any thread count. Overrides
    /// may hoist deterministic RNG-free setup out of the loop (HALT-style
    /// structures reuse the per-`(α, β)` plans cached in `ctx` anyway), but
    /// must keep the same per-index stream selection.
    fn query_many(&self, ctx: &mut QueryCtx, params: &[(Ratio, Ratio)]) -> Vec<Vec<Handle>> {
        let batch = ctx.begin_batch();
        params
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                ctx.select_stream(batch, i as u64);
                self.query(ctx, a, b)
            })
            .collect()
    }

    /// Number of live items.
    fn len(&self) -> usize;

    /// `true` iff no live items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of live weights.
    fn total_weight(&self) -> u128;

    /// Short display name (stable; used in reports and test messages).
    fn name(&self) -> &'static str;

    /// Changes the weight of a live item, returning its (possibly new)
    /// handle, or `None` if the handle was stale.
    ///
    /// The default implementation deletes and re-inserts, which *changes the
    /// handle*; structures with native in-place reweighting (HALT, and every
    /// [`Store`]-backed baseline via [`Store::set_weight`]) override this and
    /// keep the handle stable. Callers that cache handles must always adopt
    /// the returned one.
    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        if !self.delete(handle) {
            return None;
        }
        Some(self.insert(new_weight))
    }

    /// Scales **every** live weight to `⌊w·num/den⌋` (see [`scale_weight`])
    /// in one native operation, returning `true` if the backend supports it.
    ///
    /// The default returns `false` without touching anything: callers (the
    /// workload replayers) then fall back to per-item
    /// [`PssBackend::set_weight`] calls. [`Store`]-backed backends override
    /// this via [`Store::scale_all`], emitting a single
    /// [`Delta::ScaledAll`] journal entry instead of `n` reweights — which
    /// is what keeps a decay op inside a journal replay window.
    fn scale_all_weights(&mut self, num: u32, den: u32) -> bool {
        let _ = (num, den);
        false
    }

    /// Hints that `handle`'s backing record is about to be touched by an
    /// update op, so the backend may warm the cache line it lives on.
    ///
    /// Purely advisory: moves no data, draws no randomness, and must accept
    /// stale handles (the default does nothing). Journal replay calls this
    /// one delta ahead of the op it is applying so the record's cache miss
    /// overlaps the current op's work — recovery over a big slab walks
    /// handles in journal order, which is random-access in memory.
    fn prefetch_handle(&self, _handle: Handle) {}

    /// The backend's change journal, if it keeps one.
    ///
    /// Backends whose queries park derived state in a [`QueryCtx`] (HALT's
    /// plan caches, the ODSS materializations) maintain a journal so that
    /// state can [`catch up`](ChangeJournal::catch_up) in O(deltas); stateless
    /// backends (the naive O(n) scans, whose update paths run at memcpy
    /// speed and have nothing to revalidate) return `None`.
    fn journal(&self) -> Option<&ChangeJournal> {
        None
    }

    /// `true` iff a previous `&mut` operation unwound mid-cascade and left
    /// the structure in an indeterminate state.
    ///
    /// Backends with multi-step update cascades (the HALT structures) arm a
    /// poison flag around each mutation: an unwind between the first write
    /// and the journal append leaves the flag set, and every subsequent
    /// fallible op returns `Err(Poisoned)` rather than computing on a
    /// half-cascaded structure. A poisoned backend still answers
    /// [`PssBackend::journal`] (recovery reads the durable watermark off it)
    /// but must not be queried or updated; the way out is
    /// [`recover`](crate::recover) from a snapshot + journal. Backends whose
    /// updates are single-step (the [`Store`]-backed baselines) never
    /// poison, which is what this default encodes.
    fn poisoned(&self) -> bool {
        false
    }
}

/// Uniform deterministic-seeding surface: every backend in the workspace can
/// be constructed from a bare `u64` seed, which is what the agreement tests
/// and the benchmark harness rely on for reproducibility.
///
/// Since the query-path RNG moved into [`QueryCtx`], the seed no longer
/// drives trait-level query randomness (the *context's* seed does); concrete
/// backends may still use it for legacy convenience-method streams.
pub trait SeedableBackend: PssBackend + Sized {
    /// Creates an empty backend whose internal coin flips (if any) are
    /// driven by `seed`.
    fn with_seed(seed: u64) -> Self;
}

/// Boxes a seeded backend as a trait object.
pub fn boxed<B: SeedableBackend + 'static>(seed: u64) -> Box<dyn PssBackend> {
    Box::new(B::with_seed(seed))
}

// ---------------------------------------------------------------------------
// Shared slot-based item storage.
// ---------------------------------------------------------------------------

/// Slot-based weighted item store shared by the O(n)-per-query baselines.
///
/// Handles are slot indices; freed slots are recycled. The store also tracks
/// the exact total weight, from which [`Store::param_weight`] derives the
/// query denominator `W(α, β) = α·Σw + β` in exact rational arithmetic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Store {
    /// Weight per slot (stale weights remain in dead slots).
    weights: Vec<u64>,
    /// Liveness per slot.
    live: Vec<bool>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Number of live items.
    n: usize,
    /// Exact sum of live weights.
    total: u128,
}

impl Store {
    /// Number of allocated slots (live + recycled); slot indices and handle
    /// payloads range over `0..slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.weights.len()
    }

    /// `true` iff slot `i` holds a live item. Out-of-range is `false`.
    pub fn is_live(&self, i: usize) -> bool {
        self.live.get(i).copied().unwrap_or(false)
    }

    /// Weight of the live item in slot `i`, or `None` if the slot is dead or
    /// out of range — the same total-function contract as [`Store::is_live`]
    /// (the panicking, stale-weight-leaking variant this replaces was the
    /// one asymmetric accessor in the store API).
    pub fn weight_at(&self, i: usize) -> Option<u64> {
        self.is_live(i).then(|| self.weights[i])
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff no live items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact sum of live weights.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Inserts an item, returning its slot handle.
    pub fn insert(&mut self, w: u64) -> Handle {
        self.n += 1;
        self.total += w as u128;
        if let Some(i) = self.free.pop() {
            self.weights[i as usize] = w;
            self.live[i as usize] = true;
            Handle::from_raw(i as u64)
        } else {
            self.weights.push(w);
            self.live.push(true);
            Handle::from_raw((self.weights.len() - 1) as u64)
        }
    }

    /// Deletes an item by handle; `true` if it was live.
    pub fn delete(&mut self, h: Handle) -> bool {
        let i = h.raw() as usize;
        if i >= self.live.len() || !self.live[i] {
            return false;
        }
        self.live[i] = false;
        self.total -= self.weights[i] as u128;
        self.free.push(narrow::u32_of_usize(i));
        self.n -= 1;
        true
    }

    /// Changes a live item's weight **in place** — the slot (and therefore
    /// the handle) is untouched and the exact total is maintained. Returns
    /// the previous weight, or `None` for a stale handle.
    ///
    /// This is what the baselines route [`PssBackend::set_weight`] through
    /// instead of the handle-churning delete + reinsert default.
    pub fn set_weight(&mut self, h: Handle, w: u64) -> Option<u64> {
        let i = h.raw() as usize;
        if !self.is_live(i) {
            return None;
        }
        let old = self.weights[i];
        self.total = self.total - old as u128 + w as u128;
        self.weights[i] = w;
        Some(old)
    }

    /// Scales every live weight to `⌊w·num/den⌋` in place (the decayed-weight
    /// discount; floors via [`scale_weight`], the shared definition), keeping
    /// the exact total and every handle. Returns the number of live items
    /// touched. O(slots) — one pass, no per-item handle churn.
    pub fn scale_all(&mut self, num: u32, den: u32) -> u64 {
        let mut touched = 0u64;
        let mut total = 0u128;
        for i in 0..self.weights.len() {
            if !self.live[i] {
                continue;
            }
            let scaled = scale_weight(self.weights[i], num, den);
            self.weights[i] = scaled;
            total += scaled as u128;
            touched += 1;
        }
        self.total = total;
        touched
    }

    /// The exact query denominator `W(α, β) = α·Σw + β`.
    pub fn param_weight(&self, alpha: &Ratio, beta: &Ratio) -> Ratio {
        alpha.mul_big(&BigUint::from_u128(self.total)).add(beta)
    }

    /// Iterates `(handle, weight)` over live slots (zero-weight items
    /// included — skipping them is the sampler's decision, not the store's).
    pub fn iter_live(&self) -> impl Iterator<Item = (Handle, u64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.live[i])
            .map(|(i, &w)| (Handle::from_raw(i as u64), w))
    }
}

impl SpaceUsage for Store {
    fn space_words(&self) -> usize {
        // One word per weight slot, one per 64 liveness flags (rounded up),
        // half a word per free-list entry, plus the two scalars.
        self.weights.capacity()
            + self.live.capacity().div_ceil(64)
            + self.free.capacity().div_ceil(2)
            + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip_and_totals() {
        let mut s = Store::default();
        let a = s.insert(5);
        let b = s.insert(7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total(), 12);
        assert!(s.delete(a));
        assert!(!s.delete(a), "double delete must fail");
        assert_eq!(s.total(), 7);
        // Slot is recycled.
        let c = s.insert(9);
        assert_eq!(c, a);
        assert_eq!(s.total(), 16);
        assert_eq!(s.iter_live().count(), 2);
        assert!(s.iter_live().any(|(h, w)| h == b && w == 7));
        assert!(s.space_words() > 0);
    }

    #[test]
    fn param_weight_is_exact() {
        let mut s = Store::default();
        s.insert(10);
        s.insert(20);
        // W = (1/3)·30 + 5 = 15.
        let w = s.param_weight(&Ratio::from_u64s(1, 3), &Ratio::from_int(5));
        assert_eq!(w.cmp(&Ratio::from_int(15)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn handle_raw_roundtrip() {
        let h = Handle::from_raw(123);
        assert_eq!(h.raw(), 123);
        assert_eq!(format!("{h}"), "#123");
        assert_eq!(h, Handle::from_raw(123));
    }

    #[test]
    fn set_weight_is_in_place_and_exact() {
        let mut s = Store::default();
        let a = s.insert(5);
        let b = s.insert(7);
        assert_eq!(s.set_weight(a, 50), Some(5));
        assert_eq!(s.total(), 57);
        assert_eq!(s.weight_at(a.raw() as usize), Some(50));
        // Handle-stable: the slot never moved, b untouched.
        assert_eq!(s.weight_at(b.raw() as usize), Some(7));
        assert_eq!(s.len(), 2);
        // Reweight to zero and back keeps exact totals.
        assert_eq!(s.set_weight(a, 0), Some(50));
        assert_eq!(s.total(), 7);
        assert_eq!(s.set_weight(a, 3), Some(0));
        assert_eq!(s.total(), 10);
        // Stale handles rejected.
        assert!(s.delete(a));
        assert_eq!(s.set_weight(a, 1), None);
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn scale_all_floors_and_keeps_exact_totals() {
        let mut s = Store::default();
        let a = s.insert(7);
        let b = s.insert(1);
        let dead = s.insert(100);
        assert!(s.delete(dead));
        assert_eq!(s.scale_all(1, 2), 2, "two live items touched");
        assert_eq!(s.weight_at(a.raw() as usize), Some(3), "⌊7/2⌋");
        assert_eq!(s.weight_at(b.raw() as usize), Some(0), "⌊1/2⌋ floors to zero");
        assert_eq!(s.total(), 3);
        assert_eq!(s.len(), 2, "zero-weight items stay live");
        // Identity factor is a no-op; repeated decay compounds with floors.
        assert_eq!(s.scale_all(3, 3), 2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.scale_all(2, 3), 2);
        assert_eq!(s.weight_at(a.raw() as usize), Some(2), "⌊3·2/3⌋");
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn weight_at_is_total_like_is_live() {
        let mut s = Store::default();
        let a = s.insert(5);
        assert_eq!(s.weight_at(a.raw() as usize), Some(5));
        assert_eq!(s.weight_at(999), None, "out of range is None, not a panic");
        assert!(s.delete(a));
        assert_eq!(s.weight_at(a.raw() as usize), None, "dead slot is None");
    }
}
