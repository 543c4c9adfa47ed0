//! `rr_sets`: reverse-reachable sets on a dynamic power-law graph.
//!
//! `DynGraph<DpssSampler>` over `power_law_digraph(50 000, 250 000)`, ten
//! times the node and edge count of the repository's `apps` bench. One
//! iteration is an RR set (cap 500) from a random root, then one edge
//! removal and one edge insertion. Edges come from a pool one fifth larger
//! than the graph, so the graph stays a random subset of one power-law edge
//! set and its RR sets keep the same size law however long the run. Every cascade step is a PSS query with
//! `(α, β) = (1, 0)` on a tiny in-neighbourhood (μ = 1), so the fixed cost
//! per query dominates. A block is 32 iterations; throughputs are medians
//! over slices of blocks.

#![allow(clippy::disallowed_types)] // Instant: timing is this crate's job.

use crate::stats::{median, slices, Block, Histogram};
use crate::trace::{Kind, Tracer};
use crate::{alloc_count, Args, Outcome, SLICES};
use dpss::{DpssSampler, SpaceUsage};
use graphsub::{gen, rr_set, DynGraph, NodeId};
use pss_core::{PssBackend, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Nodes of the graph.
pub const NODES: usize = 50_000;
/// Edges of the graph (kept constant by the updates).
pub const EDGES: usize = 250_000;
/// Pool edges not in the graph at any time.
const SPARE: usize = EDGES / 5;
/// Largest edge weight.
const W_MAX: u64 = 100;
/// RR-set size cap.
pub const CAP: usize = 500;
const PER_BLOCK: usize = 32;
/// Identical graph builds timed per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;

fn build(edges: &[(NodeId, NodeId, u64)], seed: u64, tr: &mut Tracer) -> (DynGraph, f64) {
    let t0 = Instant::now();
    let g = gen::build_dpss_graph(NODES, edges, seed);
    let t1 = Instant::now();
    tr.leaf(Kind::Setup, t0, t1);
    (g, (t1 - t0).as_secs_f64())
}

/// Space of per-node samplers holding the graph's final edge set, in bytes
/// per sampler item (two items per edge). `DynGraph` keeps its samplers
/// private, so they are rebuilt here one node at a time with the same
/// per-edge inserts and measured.
fn space_bytes_per_item(g: &DynGraph) -> f64 {
    let mut by_target: Vec<(NodeId, NodeId, u64)> = g.edges().map(|(u, v, w)| (v, u, w)).collect();
    let mut by_source: Vec<(NodeId, NodeId, u64)> = g.edges().collect();
    by_target.sort_unstable();
    by_source.sort_unstable();
    let mut words = 0usize;
    for list in [&by_target, &by_source] {
        for chunk in list.chunk_by(|a, b| a.0 == b.0) {
            let mut s = DpssSampler::with_seed(0);
            for &(_, _, w) in chunk {
                PssBackend::insert(&mut s, w);
            }
            words += s.space_words();
        }
        // Nodes without edges still hold an empty sampler.
        let nodes_with_edges = list.chunk_by(|a, b| a.0 == b.0).count();
        words += (NODES - nodes_with_edges) * DpssSampler::with_seed(0).space_words();
    }
    words as f64 * 8.0 / (2 * g.n_edges()) as f64
}

/// Runs the workload for `args.seconds`.
pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let mut pool = gen::power_law_digraph(NODES, EDGES + SPARE, W_MAX, args.seed);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xA11CE);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let edges = &pool[..EDGES.min(pool.len())];
    // Pool indices of the edges in the graph and of those outside it.
    let mut present: Vec<usize> = (0..edges.len()).collect();
    let mut absent: Vec<usize> = (edges.len()..pool.len()).collect();
    let ck = &mut out.checks;
    // Back-to-back identical builds, each dropped before the next but the
    // last, as in `serve_queries`.
    tr.open(Kind::Phase);
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut g = loop {
        let (g, t) = build(edges, args.seed, tr);
        setup.push(t);
        if setup.len() == SETUP_BUILDS {
            break g;
        }
    };
    tr.close();
    ck.op(g.n_edges() == edges.len() && !absent.is_empty(), || "graph build lost edges".into());

    let mut rr_hist = Histogram::default();
    let mut up_hist = Histogram::default();
    let mut blocks: Vec<Block> = Vec::new();
    let (mut nodes, mut allocs_rr, mut allocs_up) = (0u64, 0u64, 0u64);
    let mut seen = vec![false; NODES];
    let start = Instant::now();
    tr.open(Kind::Phase);
    while start.elapsed().as_secs_f64() < args.seconds {
        tr.open(Kind::Block);
        let mut blk = Block::default();
        for _ in 0..PER_BLOCK {
            let root = rng.gen_range(0..NODES as NodeId);
            let a0 = alloc_count::snapshot().0;
            let t0 = Instant::now();
            let set = rr_set(&mut g, root, CAP);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            blk.reads += 1;
            blk.read_ns += ns;
            rr_hist.record(ns);
            if tr.on() {
                tr.leaf(Kind::RrSet, t0, t1);
                allocs_rr += alloc_count::snapshot().0 - a0;
            }
            let mut ok = set.first() == Some(&root);
            for &v in &set {
                ok &= (v as usize) < NODES && !std::mem::replace(&mut seen[v as usize], true);
            }
            for &v in &set {
                if (v as usize) < NODES {
                    seen[v as usize] = false;
                }
            }
            ck.op(ok, || format!("RR set from {root} has a repeated or foreign node"));
            nodes += set.len() as u64;

            // One edge removal, then one insertion of an edge from outside
            // the graph (never the one just removed).
            let out_i = present.swap_remove(rng.gen_range(0..present.len()));
            let in_i = absent.swap_remove(rng.gen_range(0..absent.len()));
            absent.push(out_i);
            present.push(in_i);
            let ((u, v, _), (nu, nv, _)) = (pool[out_i], pool[in_i]);
            let w = rng.gen_range(1..=W_MAX);
            let a0 = alloc_count::snapshot().0;
            let t0 = Instant::now();
            let removed = g.remove_edge(u, v);
            let t1 = Instant::now();
            g.add_edge(nu, nv, w);
            let t2 = Instant::now();
            let (d, i) = ((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64);
            up_hist.record(d);
            up_hist.record(i);
            blk.updates += 2;
            blk.update_ns += d + i;
            if tr.on() {
                tr.leaf(Kind::EdgeRemove, t0, t1);
                tr.leaf(Kind::EdgeAdd, t1, t2);
                allocs_up += alloc_count::snapshot().0 - a0;
            }
            ck.op(removed, || format!("remove_edge({u}, {v}) of a live edge returned false"));
            ck.op(g.has_edge(nu, nv) && g.edge_weight(nu, nv) == Some(w), || {
                "added edge missing".into()
            });
        }
        tr.close();
        blocks.push(blk);
        if g.n_edges() != present.len() {
            ck.fail(format!("edge count {} vs shadow {}", g.n_edges(), present.len()));
        }
    }
    tr.close();

    let mut all = Block::default();
    blocks.iter().for_each(|b| all.add(b));
    out.metric("setup_s", median(&setup), "s");
    out.rates(&slices(&blocks, SLICES), "rr_sets");
    out.latencies(&rr_hist, "rr_set", &up_hist);
    out.metric("space_bytes_per_item", space_bytes_per_item(&g), "bytes");
    out.fact("blocks", blocks.len());
    out.fact("rr_sets", all.reads);
    out.fact("edge_updates", all.updates);
    out.fact("setup_builds", setup.len());
    out.fact("nodes", NODES);
    out.fact("edges", EDGES);

    if tr.on() {
        let sets = all.reads.max(1) as f64;
        let updates = all.updates.max(1) as f64;
        out.layer("graphsub.rr_set_us", all.read_ns as f64 / 1e3 / sets);
        out.layer("graphsub.nodes_per_rr_set", nodes as f64 / sets);
        out.layer("graphsub.us_per_node", all.read_ns as f64 / 1e3 / nodes.max(1) as f64);
        out.layer("graphsub.edge_update_us", all.update_ns as f64 / 1e3 / updates);
        out.layer("alloc.per_rr_set", allocs_rr as f64 / sets);
        out.layer("alloc.per_update", allocs_up as f64 / updates);
    }
}
