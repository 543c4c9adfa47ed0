//! [`PssBackend`] implementations for the two HALT samplers.
//!
//! The facade trait lives at the bottom of the workspace (`pss-core`) so that
//! `workloads`, `graphsub`, `bench`, and the integration suite can drive any
//! sampler without depending on this crate's concrete types. This module
//! adapts both HALT variants onto it:
//!
//! - [`DpssSampler`] — the paper's structure, O(1) *amortized* updates;
//! - [`DeamortizedDpss`] — worst-case O(1) structure work per update.
//!
//! Queries go through the shared-read surface (`&self` + [`QueryCtx`]):
//! the trait's `query_into` runs the same planned query path as
//! [`DpssSampler::query_in`] / [`DeamortizedDpss::query_in`], appending
//! straight into the caller's buffer, so one shared
//! sampler can serve many contexts — including `pss_core::ShardedQuery`'s
//! thread-per-chunk workers.
//!
//! Handles are the samplers' own ids re-wrapped as the opaque
//! [`pss_core::Handle`]; both directions are free (`raw`/`from_raw`).

use crate::deamortized::DeamortizedDpss;
use crate::item::ItemId;
use crate::sampler::DpssSampler;
use bignum::Ratio;
use pss_core::{ChangeJournal, Handle, PssBackend, QueryCtx, SeedableBackend};

impl PssBackend for DpssSampler {
    fn insert(&mut self, weight: u64) -> Handle {
        Handle::from_raw(DpssSampler::insert(self, weight).raw())
    }

    fn insert_many(&mut self, weights: &[u64]) -> Vec<Handle> {
        // Native batch: one journal epoch for the whole load.
        DpssSampler::insert_many(self, weights)
            .into_iter()
            .map(|id| Handle::from_raw(id.raw()))
            .collect()
    }

    fn delete(&mut self, handle: Handle) -> bool {
        DpssSampler::delete(self, ItemId::from_raw(handle.raw())).is_some()
    }

    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>) {
        self.query_mapped(ctx, alpha, beta, out, |id| Handle::from_raw(id.raw()));
    }

    // `query_many` deliberately uses the trait's default batch-stream loop:
    // the per-context (α, β) plan cache inside `query_in` already gives
    // batches their cross-query reuse, so an override would duplicate the
    // default verbatim.

    fn len(&self) -> usize {
        DpssSampler::len(self)
    }

    fn total_weight(&self) -> u128 {
        DpssSampler::total_weight(self)
    }

    fn name(&self) -> &'static str {
        "halt"
    }

    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        // Native O(1) reweighting keeps the handle stable.
        DpssSampler::set_weight(self, ItemId::from_raw(handle.raw()), new_weight).map(|_| handle)
    }

    fn prefetch_handle(&self, handle: Handle) {
        // Advisory: bounds-checked inside the slab, safe on stale handles.
        self.level1.slab.prefetch_slot(ItemId::from_raw(handle.raw()).idx());
    }

    fn journal(&self) -> Option<&ChangeJournal> {
        Some(DpssSampler::journal(self))
    }

    fn poisoned(&self) -> bool {
        DpssSampler::poisoned(self)
    }
}

impl SeedableBackend for DpssSampler {
    fn with_seed(seed: u64) -> Self {
        DpssSampler::new(seed)
    }
}

impl PssBackend for DeamortizedDpss {
    fn insert(&mut self, weight: u64) -> Handle {
        Handle::from_raw(DeamortizedDpss::insert(self, weight))
    }

    fn insert_many(&mut self, weights: &[u64]) -> Vec<Handle> {
        // Native batch: one union-journal epoch for the whole load.
        DeamortizedDpss::insert_many(self, weights).into_iter().map(Handle::from_raw).collect()
    }

    fn delete(&mut self, handle: Handle) -> bool {
        DeamortizedDpss::delete(self, handle.raw()).is_some()
    }

    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>) {
        self.query_mapped(ctx, alpha, beta, out, Handle::from_raw);
    }

    // `query_many` uses the trait's default batch-stream loop. The per-query
    // Σw → BigUint conversion the legacy batched entry hoisted is a handful
    // of word ops — not worth deviating from the shared stream discipline
    // that keeps `ShardedQuery` bit-identical to the sequential path.

    fn len(&self) -> usize {
        DeamortizedDpss::len(self)
    }

    fn total_weight(&self) -> u128 {
        DeamortizedDpss::total_weight(self)
    }

    fn name(&self) -> &'static str {
        "halt-deam"
    }

    fn journal(&self) -> Option<&ChangeJournal> {
        Some(DeamortizedDpss::journal(self))
    }

    fn poisoned(&self) -> bool {
        DeamortizedDpss::poisoned(self)
    }
}

impl SeedableBackend for DeamortizedDpss {
    fn with_seed(seed: u64) -> Self {
        DeamortizedDpss::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::Ratio;
    use pss_core::boxed;

    #[test]
    fn both_halt_variants_work_as_trait_objects() {
        let mut ctx = QueryCtx::new(11);
        for mut backend in [boxed::<DpssSampler>(7), boxed::<DeamortizedDpss>(7)] {
            let h1 = backend.insert(10);
            let h2 = backend.insert(30);
            assert_eq!(backend.len(), 2);
            assert_eq!(backend.total_weight(), 40);
            assert!(backend.space_words() > 0);
            let t = backend.query(&mut ctx, &Ratio::one(), &Ratio::zero());
            assert!(t.iter().all(|h| *h == h1 || *h == h2));
            assert!(backend.delete(h1));
            assert!(!backend.delete(h1), "{}: stale delete", backend.name());
            assert_eq!(backend.len(), 1);
        }
    }

    #[test]
    fn shared_receiver_queries_share_one_sampler() {
        // The point of the redesign: two contexts, one `&` sampler.
        let mut s = DpssSampler::new(3);
        for w in [1u64, 2, 4, 8, 1 << 20] {
            PssBackend::insert(&mut s, w);
        }
        let shared = &s;
        let mut a = QueryCtx::new(1);
        let mut b = QueryCtx::new(2);
        let ta = shared.query(&mut a, &Ratio::one(), &Ratio::zero());
        let tb = shared.query(&mut b, &Ratio::one(), &Ratio::zero());
        assert!(ta.iter().chain(&tb).all(|h| s.contains(crate::ItemId::from_raw(h.raw()))));
        // Same seed, same call sequence ⇒ same bits.
        let mut c = QueryCtx::new(1);
        assert_eq!(shared.query(&mut c, &Ratio::one(), &Ratio::zero()), ta);
    }

    #[test]
    fn set_weight_keeps_halt_handle_stable() {
        let mut s = DpssSampler::new(3);
        let h = PssBackend::insert(&mut s, 5);
        let h2 = PssBackend::set_weight(&mut s, h, 50).expect("live handle");
        assert_eq!(h, h2);
        assert_eq!(PssBackend::total_weight(&s), 50);
        // Stale handles are rejected.
        assert!(PssBackend::delete(&mut s, h));
        assert!(PssBackend::set_weight(&mut s, h, 1).is_none());
    }

    #[test]
    fn deamortized_default_set_weight_reweights() {
        let mut s = DeamortizedDpss::new(5);
        let h = PssBackend::insert(&mut s, 5);
        let _ = PssBackend::insert(&mut s, 7);
        let h2 = PssBackend::set_weight(&mut s, h, 50).expect("live handle");
        assert_eq!(PssBackend::total_weight(&s), 57);
        assert!(PssBackend::delete(&mut s, h2));
        assert_eq!(PssBackend::total_weight(&s), 7);
    }
}
