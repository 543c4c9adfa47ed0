//! Flat-storage invariants under churn (the arena/pool layout this PR
//! introduced): an insert/delete/set_weight storm must keep
//!
//! - the node pool's free list sane and every arena block accounted for
//!   (live blocks disjoint, free blocks parked, together tiling the carved
//!   region — `Level1::audit_storage`, run inside `validate()`);
//! - every structural invariant of the three-level hierarchy;
//! - the space accounting deterministic: the same op sequence on a fresh
//!   sampler lands on bit-identical structure stats and `space_words` (the
//!   arena's block ladder is the same 4-8-16-… doubling the per-bucket
//!   `Vec` layout used, so the accounting tracks the same high-water
//!   capacities the pre-arena code reported).

use dpss::structure::NodePool;
use dpss::{DpssSampler, ItemId, SpaceUsage};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    DeleteNth(usize),
    SetWeightNth(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..=u64::MAX).prop_map(Op::Insert),
        2 => (0usize..4096).prop_map(Op::DeleteNth),
        3 => ((0usize..4096), (0u64..=u64::MAX)).prop_map(|(i, w)| Op::SetWeightNth(i, w)),
    ]
}

/// Applies `ops`, validating (structure + storage audit) every few steps.
/// Returns the surviving sampler.
fn apply(ops: &[Op], validate_every: usize) -> DpssSampler {
    let mut s = DpssSampler::new();
    let mut live: Vec<ItemId> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(w) => live.push(s.insert(w)),
            Op::DeleteNth(k) => {
                if !live.is_empty() {
                    let id = live.swap_remove(k % live.len());
                    assert!(s.delete(id).is_some());
                }
            }
            Op::SetWeightNth(k, w) => {
                if !live.is_empty() {
                    let id = live[k % live.len()];
                    assert!(s.set_weight(id, w).is_some());
                }
            }
        }
        if (step + 1) % validate_every == 0 {
            s.validate(); // includes audit_storage(): pool + both arenas
        }
    }
    s.validate();
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn storm_keeps_storage_invariants(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let s = apply(&ops, 25);
        // Determinism: an identical workload on a fresh sampler produces an
        // identical layout — same structural stats, same space accounting.
        let t = apply(&ops, usize::MAX);
        prop_assert_eq!(s.stats(), t.stats());
        prop_assert_eq!(s.space_words(), t.space_words());
    }
}

/// Grow across several rebuild boundaries, then delete almost everything:
/// the shrink rebuilds must compact the bucket blocks, so the final space is
/// that of a small structure, not of the 16k-item high-water mark.
#[test]
fn shrink_rebuilds_compact_the_arena() {
    let mut s = DpssSampler::new();
    let mut ids: Vec<ItemId> = Vec::new();
    for i in 0..16_384u64 {
        ids.push(s.insert((i % 4096) + 1));
    }
    let grown = s.stats().item_arena_words;
    for id in ids.drain(32..) {
        s.delete(id).unwrap();
    }
    s.validate();
    let shrunk = s.stats().item_arena_words;
    assert!(s.rebuild_count() >= 4, "grow+shrink must rebuild repeatedly");
    assert!(
        shrunk * 8 < grown,
        "item-arena space after mass deletion ({shrunk} words) must be far \
         below the high-water carve ({grown} words)"
    );
}

/// The pool's free list survives explicit node free/realloc cycles (the
/// structure itself keeps empty children warm, so this exercises the API the
/// way a pruning caller would).
#[test]
fn node_pool_free_list_roundtrip() {
    let mut pool = NodePool::new();
    let l2 = pool.alloc_level2(3);
    let l3 = pool.alloc_level3();
    // Grow some bucket lists so freeing returns real blocks to the arena.
    pool.set_member(l2, 5, 7, 6);
    pool.set_member(l3, 9, 3, 10);
    pool.audit([l2, l3].into_iter()).expect("live nodes audit");
    pool.free_node(l3);
    pool.audit([l2].into_iter()).expect("audit after free");
    // Recycling reuses the freed slot and leaves a clean node.
    let l3b = pool.alloc_level3();
    assert_eq!(l3b, l3, "freed slot must be recycled first");
    assert_eq!(pool.node(l3b).n_members, 0);
    pool.audit([l2, l3b].into_iter()).expect("audit after recycle");
}
