//! Proof that the HALT update cascade and the warm query path are
//! allocation-free in steady state.
//!
//! The arena/pool memory layout exists so that `insert`/`delete`/`set_weight`
//! never touch the global allocator once the structure has warmed up to its
//! high-water size. This test installs a counting `GlobalAlloc` and asserts
//! the allocation counter does not move across a 100k-op churn loop (plus a
//! 50k-op `set_weight` storm) on both HALT backends, nor across a loop of
//! `query_into` calls on hot `(α, β)` pairs into a reused buffer.
//!
//! The counting allocator is the workspace's one sanctioned use of `unsafe`
//! (see the workspace lint table): `GlobalAlloc` is an unsafe trait, and
//! delegating to `System` verbatim adds no behavior beyond the counter.
#![allow(unsafe_code)]

use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler, ItemId};
use pss_core::{PssBackend, QueryCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap requests observed (alloc/realloc/alloc_zeroed; frees don't count —
/// a free on the update path would imply a matching allocation elsewhere).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N: usize = 4096;
const WARMUP: usize = 60_000;
const CHURN: usize = 100_000;
const SET_WEIGHT: usize = 50_000;
const WARM_QUERIES: usize = 2_000;
const QUERIES: usize = 10_000;

/// Weights uniform over 16 weight buckets `[2^k, 2^{k+1})`, `k < 16`: each
/// bucket's occupancy concentrates around `N/16 = 256` — itself a power of
/// two, so proxies *constantly* cross a structural boundary (the slow
/// cascade path stays exercised) while the next boundaries (128, 512) sit
/// ≈ 8σ from the mean, far past anything a finite random walk reaches. That
/// makes "warmup visits every reachable configuration" a sound premise; an
/// unbounded weight range would instead have a vanishing-but-nonzero rate
/// of first-ever block carves forever (fresh tail configurations), which is
/// a property of the workload's tail, not of the update path.
fn weight(rng: &mut SmallRng) -> u64 {
    let k = rng.gen_range(0..16u32);
    (1u64 << k) + rng.gen_range(0..1u64 << k)
}

/// The counter is process-global and other tests in this binary run
/// concurrently, so every steady-state assertion lives in this one test.
#[test]
fn steady_state_updates_do_not_allocate() {
    // ---- Amortized HALT sampler -------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let mut s = DpssSampler::new(7);
    let mut ids: Vec<ItemId> = Vec::with_capacity(2 * N);
    // Overshoot to 2N then shrink back, so every bucket's high-water block
    // class comfortably exceeds anything the measured loop can reach.
    for _ in 0..2 * N {
        ids.push(s.insert(weight(&mut rng)));
    }
    while ids.len() > N {
        let j = rng.gen_range(0..ids.len());
        let id = ids.swap_remove(j);
        s.delete(id).unwrap();
    }
    // Warm the churn path itself (slab/roster free-list high-water, arena
    // block recycling, epoch settling).
    for _ in 0..WARMUP {
        let j = rng.gen_range(0..ids.len());
        let id = ids[j];
        s.delete(id).unwrap();
        ids[j] = s.insert(weight(&mut rng));
        let k = rng.gen_range(0..ids.len());
        s.set_weight(ids[k], weight(&mut rng)).unwrap();
    }

    let before = allocs();
    for _ in 0..CHURN {
        let j = rng.gen_range(0..ids.len());
        let id = ids[j];
        s.delete(id).unwrap();
        ids[j] = s.insert(weight(&mut rng));
    }
    for _ in 0..SET_WEIGHT {
        let k = rng.gen_range(0..ids.len());
        s.set_weight(ids[k], weight(&mut rng)).unwrap();
    }
    let halt_allocs = allocs() - before;
    assert_eq!(
        halt_allocs, 0,
        "halt: {halt_allocs} heap allocations across {CHURN} churn + {SET_WEIGHT} set_weight ops"
    );
    s.validate();

    // ---- Warm HALT queries ------------------------------------------------
    // Two hot pairs (one with β > 0) alternate, so every query hits the
    // context's plan cache; the lookup-table rows and the recursion's
    // scratch buffers reach their high-water mark during the warmup, and the
    // output buffer is reserved for the whole item set. Debug builds check
    // every word-level bracket against exact bignum values, which allocates
    // by design, so the zero is asserted in release builds.
    let hot = [
        (Ratio::from_u64s(1, 64), Ratio::zero()),
        (Ratio::from_u64s(1, 128), Ratio::from_int(1 << 20)),
    ];
    let mut ctx = QueryCtx::new(0xA110E);
    let mut out = Vec::with_capacity(N);
    for i in 0..WARM_QUERIES {
        let (a, b) = &hot[i % 2];
        out.clear();
        s.query_into(&mut ctx, a, b, &mut out);
    }
    let mut sampled = 0;
    let before = allocs();
    for i in 0..QUERIES {
        let (a, b) = &hot[i % 2];
        out.clear();
        s.query_into(&mut ctx, a, b, &mut out);
        sampled += out.len();
    }
    let query_allocs = allocs() - before;
    assert!(sampled > QUERIES, "hot queries sampled only {sampled} items");
    if !cfg!(debug_assertions) {
        assert_eq!(
            query_allocs, 0,
            "halt: {query_allocs} heap allocations across {QUERIES} warm query_into calls"
        );
    }

    // ---- De-amortized HALT ------------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xA110D);
    let mut d = DeamortizedDpss::new(9);
    let mut hs: Vec<u64> = Vec::with_capacity(2 * N);
    for _ in 0..2 * N {
        hs.push(d.insert(weight(&mut rng)));
    }
    while hs.len() > N {
        let j = rng.gen_range(0..hs.len());
        let h = hs.swap_remove(j);
        d.delete(h).unwrap();
    }
    // Constant-size churn cannot open a migration epoch, but the shrink
    // above may have left one in flight — drain it during warmup.
    for _ in 0..WARMUP {
        let j = rng.gen_range(0..hs.len());
        let h = hs[j];
        d.delete(h).unwrap();
        hs[j] = d.insert(weight(&mut rng));
    }
    assert!(!d.migrating(), "warmup must drain any open migration epoch");

    let before = allocs();
    for _ in 0..CHURN {
        let j = rng.gen_range(0..hs.len());
        let h = hs[j];
        d.delete(h).unwrap();
        hs[j] = d.insert(weight(&mut rng));
    }
    let deam_allocs = allocs() - before;
    assert_eq!(
        deam_allocs, 0,
        "halt-deam: {deam_allocs} heap allocations across {CHURN} churn ops"
    );
    d.validate();
}
