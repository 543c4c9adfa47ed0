//! The epoch-delta churn suite: delta-patched per-context state must be
//! **bit-identical** to a from-scratch materialization after every update
//! batch — the invariant that lets the journal's O(deltas) catch-up claim
//! the exact sampling law of the Θ(n) rebuild it replaces.
//!
//! Two revalidation protocols are pinned:
//! - `OdssStyle`'s weight-bucketed `DeltaDss` materialization (structure
//!   compared with `PartialEq`, canonical bucket order included), across
//!   single-item deltas, `ScaledAll` compounding, and the ring-wrap
//!   fallback;
//! - HALT's `PlanState` (plans compared through query outputs on pinned
//!   derived streams, since the plan is exactly the query's setup).

use baselines::{OdssStyle, PssBackend, SeedableBackend};
use bignum::Ratio;
use dpss::DpssSampler;
use pss_core::{QueryCtx, ShardedQuery, DEFAULT_JOURNAL_CAPACITY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Applies one pseudo-random update to `backend`, mirroring handles in
/// `live`. `kind_roll` selects insert / delete / reweight / global scale.
fn apply_update<B: PssBackend>(
    backend: &mut B,
    live: &mut Vec<pss_core::Handle>,
    rng: &mut SmallRng,
) {
    let roll: u32 = rng.gen_range(0..100);
    if live.is_empty() || roll < 30 {
        live.push(backend.insert(rng.gen_range(0..=1u64 << 34)));
    } else if roll < 55 {
        let j = rng.gen_range(0..live.len());
        let h = live.swap_remove(j);
        assert!(backend.delete(h));
    } else if roll < 95 {
        let j = rng.gen_range(0..live.len());
        let w = rng.gen_range(0..=1u64 << 34);
        live[j] = backend.set_weight(live[j], w).expect("live handle");
    } else {
        // Global decay — native (one journaled delta) on every backend this
        // suite drives.
        let den = rng.gen_range(2u32..5);
        let num = rng.gen_range(1..=den);
        assert!(backend.scale_all_weights(num, den), "backends under test decay natively");
    }
}

/// The tentpole invariant: after every batch of seeded churn, the structure
/// a long-lived context patched forward equals — bit for bit, canonical
/// bucket order included — the structure a fresh context materializes from
/// scratch, and both answer queries identically on the same derived stream.
#[test]
fn odss_delta_patched_state_is_bit_identical_to_rebuild() {
    let mut o = OdssStyle::with_seed(1);
    let mut rng = SmallRng::seed_from_u64(0xDE17A);
    let mut live = Vec::new();
    for _ in 0..200 {
        live.push(o.insert(rng.gen_range(0..=1u64 << 34)));
    }
    let mut patched = QueryCtx::new(99); // lives across all batches
    let params: Vec<(Ratio, Ratio)> = vec![
        (Ratio::one(), Ratio::zero()),
        (Ratio::from_u64s(1, 16), Ratio::zero()),
        (Ratio::zero(), Ratio::from_int(1000)),
    ];
    for batch in 0..40u64 {
        for _ in 0..rng.gen_range(1..30) {
            apply_update(&mut o, &mut live, &mut rng);
        }
        let mut fresh = QueryCtx::new(99); // rebuilds from scratch
        for (i, (a, b)) in params.iter().enumerate() {
            // Pin both contexts to the same derived stream so the sample is
            // a pure function of the materialized state.
            patched.select_stream(batch, i as u64);
            fresh.select_stream(batch, i as u64);
            let out_patched = o.query(&mut patched, a, b);
            let out_fresh = o.query(&mut fresh, a, b);
            assert_eq!(out_patched, out_fresh, "batch {batch}, params {i}: samples diverged");
        }
        let mat_patched = o.materialization(&patched).expect("patched ctx built");
        let mat_fresh = o.materialization(&fresh).expect("fresh ctx built");
        assert_eq!(mat_patched, mat_fresh, "batch {batch}: structures diverged");
        o.validate_materialization(&patched);
    }
    assert!(o.replays() >= 39, "the long-lived context must have patched, not rebuilt");
    assert_eq!(o.fallbacks(), 0, "no batch exceeded the replay window");
}

/// `ScaledAll` compounding: several global decays (plus interleaved churn)
/// inside ONE replay window must compound their floors exactly like the
/// store's sequential application — floors do not commute, so the patcher
/// must apply deltas strictly in order.
#[test]
fn odss_scaled_all_compounds_in_order() {
    let mut o = OdssStyle::with_seed(2);
    let mut ctx = QueryCtx::new(7);
    let a = Ratio::one();
    let b = Ratio::zero();
    let handles: Vec<_> = (0..50u64).map(|i| o.insert(3 * i * i + 1)).collect();
    let _ = o.query(&mut ctx, &a, &b);
    // Three compounding decays and a reweight between them, no query until
    // the end: one replay must absorb all of it.
    assert!(o.scale_all_weights(2, 3));
    assert!(o.scale_all_weights(1, 2));
    let _ = o.set_weight(handles[10], 12345).unwrap();
    assert!(o.scale_all_weights(3, 4));
    let _ = o.query(&mut ctx, &a, &b);
    assert_eq!(o.replays(), 1, "one catch-up absorbed the whole window");
    assert_eq!(o.rebuilds(), 1, "never rebuilt after the first build");
    o.validate_materialization(&ctx);
    let mut fresh = QueryCtx::new(8);
    let _ = o.query(&mut fresh, &a, &b);
    assert_eq!(o.materialization(&ctx), o.materialization(&fresh));
}

/// Ring-wrap fallback: a context that sleeps through more deltas than the
/// journal retains takes the Θ(n) path once — and the rebuilt state is
/// again bit-identical to a fresh materialization.
#[test]
fn odss_ring_wrap_rebuild_is_bit_identical() {
    let mut o = OdssStyle::with_seed(3);
    let mut rng = SmallRng::seed_from_u64(0x11AB);
    let mut live = Vec::new();
    for _ in 0..64 {
        live.push(o.insert(rng.gen_range(1..=1u64 << 20)));
    }
    let mut ctx = QueryCtx::new(5);
    let a = Ratio::from_u64s(1, 8);
    let b = Ratio::zero();
    let _ = o.query(&mut ctx, &a, &b);
    for _ in 0..(DEFAULT_JOURNAL_CAPACITY + 123) {
        apply_update(&mut o, &mut live, &mut rng);
    }
    let _ = o.query(&mut ctx, &a, &b);
    assert_eq!(o.fallbacks(), 1, "the sleeping context lost its window");
    o.validate_materialization(&ctx);
    let mut fresh = QueryCtx::new(6);
    let _ = o.query(&mut fresh, &a, &b);
    assert_eq!(o.materialization(&ctx), o.materialization(&fresh));
}

/// HALT's `PlanState` under the same protocol: a long-lived context whose
/// plans are journal-refreshed answers every query bit-identically to a
/// fresh context that derives its plans from scratch (same derived stream,
/// same backend state ⇒ the plans must be equal — the plan *is* the query
/// setup). Covers the refresh path, the weight-neutral keep path, and the
/// structural-rebuild clear.
#[test]
fn halt_plan_state_delta_vs_fresh_is_bit_identical() {
    let weights: Vec<u64> = (0..500u64).map(|i| (i * 2654435761) % (1 << 30) + 1).collect();
    let (mut s, ids) = DpssSampler::from_weights(&weights);
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let mut patched = QueryCtx::new(21);
    let params: Vec<(Ratio, Ratio)> =
        (0..6u64).map(|i| (Ratio::from_u64s(1, 4 + i), Ratio::zero())).collect();
    for batch in 0..30u64 {
        match batch % 4 {
            // Weight-only churn: reweights (plans refresh in place).
            0 | 1 => {
                for _ in 0..5 {
                    let id = ids[rng.gen_range(0..ids.len())];
                    let _ = s.set_weight(id, rng.gen_range(1..=1u64 << 30));
                }
            }
            // Weight-neutral churn: reweight there and back (plans survive).
            2 => {
                let id = ids[rng.gen_range(0..ids.len())];
                let w = s.weight(id).unwrap();
                let _ = s.set_weight(id, w + 1);
                let _ = s.set_weight(id, w);
            }
            // Structural: flip force_exact (a Rebuilt entry; plans clear).
            _ => {
                let flip = (batch / 4) % 2 == 1;
                s.set_force_exact(flip);
            }
        }
        let mut fresh = QueryCtx::new(21);
        for (i, (a, b)) in params.iter().enumerate() {
            patched.select_stream(batch, i as u64);
            fresh.select_stream(batch, i as u64);
            let out_patched = s.query_in(&mut patched, a, b);
            let out_fresh = s.query_in(&mut fresh, a, b);
            assert_eq!(out_patched, out_fresh, "batch {batch}, params {i}: samples diverged");
        }
    }
    let (hits, misses, refreshes) = s.plan_cache_stats_in(&patched);
    assert!(refreshes > 0, "the weight-only batches must have refreshed");
    assert!(hits > 0, "the weight-neutral batches must have hit");
    assert!(misses < 30 * params.len() as u64, "a fresh miss per query would defeat the cache");
}

/// `DynGraph` per-node contexts catch up through the same journal API: a
/// graph over `odss-style` samplers keeps sampling correctly (and
/// incrementally) as edges are added, reweighted, and removed — each node's
/// persistent context patches its materialization instead of rebuilding.
#[test]
fn dyn_graph_per_node_ctxs_catch_up_over_odss() {
    use graphsub::DynGraph;
    let mut g: DynGraph<OdssStyle> = DynGraph::new(6, 42);
    g.add_edge(0, 5, 10);
    g.add_edge(1, 5, 30);
    g.add_edge(2, 5, 60);
    // Warm node 5's context, then churn the in-edges.
    let _ = g.sample_in_neighbors(5);
    g.add_edge(1, 5, 90); // replace = in-place reweight
    g.add_edge(3, 5, 25);
    assert!(g.remove_edge(0, 5));
    let trials = 4000;
    let mut hits = [0u64; 6];
    for _ in 0..trials {
        for u in g.sample_in_neighbors(5) {
            hits[u as usize] += 1;
        }
    }
    // Weights now 90/60/25 of 175: the reweighted edge dominates, the
    // removed one never appears.
    assert_eq!(hits[0], 0, "removed edge sampled");
    assert!(hits[1] > hits[3], "reweight must have taken effect");
    assert!(hits[2] > 0 && hits[3] > 0);
}

/// `ShardedQuery` workers catch up through the same journal API: a sharded
/// batch over `odss-style` stays bit-identical to the sequential loop
/// across update epochs at any thread count, with each worker context
/// patching (or building) its own materialization independently.
#[test]
fn sharded_odss_stays_bit_identical_across_updates() {
    let mut o = OdssStyle::with_seed(4);
    let mut rng = SmallRng::seed_from_u64(0x5AAD);
    let mut live = Vec::new();
    for _ in 0..128 {
        live.push(o.insert(rng.gen_range(1..=1u64 << 28)));
    }
    let params: Vec<(Ratio, Ratio)> =
        (0..12u64).map(|i| (Ratio::from_u64s(1, 2 + i % 4), Ratio::zero())).collect();
    let mut seq_ctx = QueryCtx::new(77);
    let mut sharded2 = ShardedQuery::new(77, 2);
    let mut sharded8 = ShardedQuery::new(77, 8);
    for _ in 0..6 {
        for _ in 0..10 {
            apply_update(&mut o, &mut live, &mut rng);
        }
        let seq = o.query_many(&mut seq_ctx, &params);
        assert_eq!(sharded2.query_many(&o, &params), seq, "2 threads diverged");
        assert_eq!(sharded8.query_many(&o, &params), seq, "8 threads diverged");
    }
    assert!(o.replays() > 0, "persistent worker contexts must patch forward");
}
