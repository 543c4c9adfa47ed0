//! [`ShardedQuery`] — answer an independent `(α, β)` batch across threads.
//!
//! PSS queries are reads: with the [`crate::QueryCtx`] split, `query` takes
//! `&self`, so a batch of independent parameter pairs can fan out across
//! `std::thread::scope` workers over one shared `&B`. Each worker owns its
//! own context (plan cache, memoized tables) and, crucially, derives the RNG
//! stream of query `i` from `(seed, batch, i)` — exactly the discipline the
//! sequential [`crate::PssBackend::query_many`] default uses. The partition
//! therefore never shows in the output: **the sharded result is bit-identical
//! to the sequential one at any thread count** (asserted by the suite's
//! `sharded_query` test at 1, 2, and 8 threads).
//!
//! Worker contexts persist across calls, so per-`(α, β)` plan setup amortizes
//! across batches within each worker just as it does sequentially. The
//! speedup on a batch of `q` queries is the usual embarrassingly-parallel
//! `min(threads, cores, q)` minus spawn overhead; on a single-core host the
//! fan-out degrades gracefully to sequential-plus-epsilon.

use crate::{Handle, PssBackend, QueryCtx};
use bignum::Ratio;

/// A parallel front-end for batched PSS queries over a shared backend.
///
/// Holds the batch counter and one persistent [`QueryCtx`] per worker. The
/// counter advances exactly like a sequential context's (one step per
/// `query_many` call), so interleaving sequential and sharded front-ends
/// *constructed from the same seed* keeps their streams in lockstep.
#[derive(Debug)]
pub struct ShardedQuery {
    seed: u64,
    next_batch: u64,
    ctxs: Vec<QueryCtx>,
}

impl ShardedQuery {
    /// Creates a front-end with `threads ≥ 1` workers whose derived streams
    /// are based on `seed` — the same seed a sequential [`QueryCtx`] would
    /// use to produce the identical results.
    pub fn new(seed: u64, threads: usize) -> Self {
        assert!(threads >= 1, "ShardedQuery needs at least one worker");
        ShardedQuery {
            seed,
            next_batch: 0,
            ctxs: (0..threads).map(|_| QueryCtx::new(seed)).collect(),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.ctxs.len()
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Answers one independent PSS query per `(α, β)` pair, in order,
    /// fanning the batch out over the workers in contiguous chunks.
    ///
    /// Bit-identical to `backend.query_many(&mut QueryCtx::new(seed), params)`
    /// issued the same number of calls in — the RNG stream of query `i` is
    /// derived from `(seed, batch, i)` regardless of which worker runs it.
    pub fn query_many<B: PssBackend + ?Sized>(
        &mut self,
        backend: &B,
        params: &[(Ratio, Ratio)],
    ) -> Vec<Vec<Handle>> {
        let batch = self.next_batch;
        self.next_batch += 1;
        if params.is_empty() {
            return Vec::new();
        }
        let workers = self.ctxs.len().min(params.len());
        let chunk = params.len().div_ceil(workers);
        // Spawning buys nothing when only one worker would run (a single
        // configured context, or a batch that fits one chunk): run the same
        // per-index stream loop inline. Stream selection is identical, so
        // this is invisible in the output — it only skips the scope/join.
        if workers == 1 {
            // pss-lint: allow(no-bare-index) — ctxs is non-empty by construction (threads >= 1)
            let ctx = &mut self.ctxs[0];
            return params
                .iter()
                .enumerate()
                .map(|(j, (a, b))| {
                    ctx.select_stream(batch, j as u64);
                    backend.query(ctx, a, b)
                })
                .collect();
        }
        std::thread::scope(|scope| {
            let joins: Vec<_> = params
                .chunks(chunk)
                .zip(self.ctxs.iter_mut())
                .enumerate()
                .map(|(c, (chunk_params, ctx))| {
                    scope.spawn(move || {
                        chunk_params
                            .iter()
                            .enumerate()
                            .map(|(j, (a, b))| {
                                ctx.select_stream(batch, (c * chunk + j) as u64);
                                backend.query(ctx, a, b)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins
                .into_iter()
                // pss-lint: allow(no-panic-paths) — a worker panic has already lost the query; re-raising on the caller thread preserves the panic message
                .flat_map(|j| j.join().expect("sharded query worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedableBackend, SpaceUsage, Store};
    use rand::Rng;

    /// A minimal shared-read backend: inclusion decided by one uniform word
    /// per live item, so results are a pure function of the ctx stream — the
    /// right shape for testing the stream discipline without `dpss`.
    #[derive(Debug, Default)]
    struct CoinStore {
        store: Store,
    }

    impl SpaceUsage for CoinStore {
        fn space_words(&self) -> usize {
            self.store.space_words()
        }
    }

    impl PssBackend for CoinStore {
        fn insert(&mut self, weight: u64) -> Handle {
            self.store.insert(weight)
        }
        fn delete(&mut self, handle: Handle) -> bool {
            self.store.delete(handle)
        }
        fn query_into(
            &self,
            ctx: &mut QueryCtx,
            alpha: &Ratio,
            _beta: &Ratio,
            out: &mut Vec<Handle>,
        ) {
            // Keep each item with probability w/(α den-scaled total) — the
            // exactness doesn't matter here, only determinism in the stream.
            let scale = alpha.to_f64_lossy().max(1e-9) * self.store.total().max(1) as f64;
            out.extend(
                self.store
                    .iter_live()
                    .filter(|&(_, w)| ctx.rng().gen::<f64>() < w as f64 / scale)
                    .map(|(h, _)| h),
            );
        }
        fn len(&self) -> usize {
            self.store.len()
        }
        fn total_weight(&self) -> u128 {
            self.store.total()
        }
        fn name(&self) -> &'static str {
            "coin-store"
        }
    }

    impl SeedableBackend for CoinStore {
        fn with_seed(_seed: u64) -> Self {
            CoinStore::default()
        }
    }

    fn batch(n: u64) -> Vec<(Ratio, Ratio)> {
        (0..n).map(|i| (Ratio::from_u64s(1, 2 + i % 5), Ratio::zero())).collect()
    }

    #[test]
    fn sharded_matches_sequential_at_any_thread_count() {
        let mut b = CoinStore::default();
        for w in 1..=64u64 {
            b.insert(w * 17 % 257 + 1);
        }
        let params = batch(23);
        let mut ctx = QueryCtx::new(99);
        let seq1 = b.query_many(&mut ctx, &params);
        let seq2 = b.query_many(&mut ctx, &params); // second batch: counter moved
        for threads in [1usize, 2, 3, 8] {
            let mut sharded = ShardedQuery::new(99, threads);
            assert_eq!(sharded.query_many(&b, &params), seq1, "{threads} threads, batch 0");
            assert_eq!(sharded.query_many(&b, &params), seq2, "{threads} threads, batch 1");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let b = CoinStore::default();
        let mut sharded = ShardedQuery::new(1, 4);
        assert!(sharded.query_many(&b, &[]).is_empty());
    }

    #[test]
    fn more_threads_than_queries_is_fine() {
        let mut b = CoinStore::default();
        b.insert(10);
        b.insert(20);
        let params = batch(2);
        let mut ctx = QueryCtx::new(5);
        let seq = b.query_many(&mut ctx, &params);
        let mut sharded = ShardedQuery::new(5, 16);
        assert_eq!(sharded.query_many(&b, &params), seq);
    }
}
