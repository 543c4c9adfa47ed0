//! Dynamic weighted digraph substrates.
//!
//! [`DynGraph`] attaches a [`DpssSampler`] pair (in-edges / out-edges) to
//! every node, so edge updates are O(1) while every incident sampling
//! probability implicitly rescales — the DPSS property the appendix
//! applications rely on. [`NaiveDynGraph`] is the linear-scan comparator.

// HashMap/HashSet sanctioned: graph application layer; sampling determinism is owned by the DpssSampler underneath, and these maps never feed a sample order.
#![allow(clippy::disallowed_types)]

use dpss::{DpssSampler, Ratio};
use pss_core::{Handle, PssBackend, QueryCtx, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Node identifier.
pub type NodeId = u32;

/// Per-node sampling state.
#[derive(Debug)]
struct NodeState<B> {
    /// Sampler over in-edges; item = edge, weight = A_uv.
    in_sampler: B,
    /// Sampler over out-edges.
    out_sampler: B,
    /// in-edge item → source node.
    in_edges: HashMap<Handle, NodeId>,
    /// out-edge item → target node.
    out_edges: HashMap<Handle, NodeId>,
    /// Query context for this node's two samplers. Per-node (rather than one
    /// graph-wide context) so that each sampler's plan/table state survives
    /// round-robin sampling over arbitrarily many nodes — a shared context's
    /// bounded state area would thrash above its entry cap. Since the
    /// backends adopted the epoch-delta change journal, this persistence is
    /// also what makes edge churn cheap: the context's cached read-path
    /// state (plan caches, DSS materializations) catches up through
    /// `ChangeJournal::catch_up` in O(deltas touched) at the node's next
    /// sample instead of rebuilding.
    ctx: QueryCtx,
}

impl<B: SeedableBackend> NodeState<B> {
    fn new(seed: u64) -> Self {
        NodeState {
            in_sampler: B::with_seed(seed),
            out_sampler: B::with_seed(seed ^ 0x9E37_79B9_7F4A_7C15),
            in_edges: HashMap::new(),
            out_edges: HashMap::new(),
            ctx: QueryCtx::new(seed ^ 0x6A09_E667_F3BC_C909),
        }
    }
}

/// A dynamic directed weighted graph with O(1) edge updates and
/// output-sensitive neighborhood subset sampling at every node.
///
/// Generic over the sampling backend: any [`PssBackend`] from the workspace
/// roster works (the default is HALT, the paper's structure). The backend is
/// driven exclusively through the `pss-core` facade, so swapping in a
/// baseline — or a future sharded/batched backend — is a type parameter, not
/// a rewrite.
#[derive(Debug)]
pub struct DynGraph<B: PssBackend = DpssSampler> {
    nodes: Vec<NodeState<B>>,
    /// (u, v) → (item in u's out-sampler, item in v's in-sampler, weight).
    edges: HashMap<(NodeId, NodeId), (Handle, Handle, u64)>,
    /// Reused query output buffer of the neighbor samplers.
    sampled: Vec<Handle>,
    /// The neighbor samplers' query parameters `(α, β) = (1, 0)`.
    unit: (Ratio, Ratio),
}

impl<B: SeedableBackend> DynGraph<B> {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize, seed: u64) -> Self {
        DynGraph {
            nodes: (0..n)
                .map(|i| NodeState::new(seed.wrapping_add(i as u64 * 2654435761)))
                .collect(),
            edges: HashMap::new(),
            sampled: Vec::new(),
            unit: (Ratio::one(), Ratio::zero()),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the edge exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains_key(&(u, v))
    }

    /// Weight of an edge.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.edges.get(&(u, v)).map(|&(_, _, w)| w)
    }

    /// Iterates over all edges as `(u, v, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.edges.iter().map(|(&(u, v), &(_, _, w))| (u, v, w))
    }

    /// Inserts (or replaces) edge `(u, v)` with weight `w ≥ 1`. O(1).
    /// Replacing an existing edge reweights it in place (`set_weight`), so
    /// its sampler items keep their handles.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) {
        assert!(w >= 1, "edge weights must be positive");
        assert!((u as usize) < self.nodes.len() && (v as usize) < self.nodes.len());
        if let Some(&(out_item, in_item, _)) = self.edges.get(&(u, v)) {
            // `set_weight` may re-issue the handle on backends without native
            // in-place reweighting; adopt whatever comes back.
            let new_out =
                self.nodes[u as usize].out_sampler.set_weight(out_item, w).expect("edge desync");
            if new_out != out_item {
                let t = self.nodes[u as usize].out_edges.remove(&out_item).expect("edge desync");
                self.nodes[u as usize].out_edges.insert(new_out, t);
            }
            let new_in =
                self.nodes[v as usize].in_sampler.set_weight(in_item, w).expect("edge desync");
            if new_in != in_item {
                let s = self.nodes[v as usize].in_edges.remove(&in_item).expect("edge desync");
                self.nodes[v as usize].in_edges.insert(new_in, s);
            }
            self.edges.insert((u, v), (new_out, new_in, w));
            return;
        }
        let out_item = self.nodes[u as usize].out_sampler.insert(w);
        self.nodes[u as usize].out_edges.insert(out_item, v);
        let in_item = self.nodes[v as usize].in_sampler.insert(w);
        self.nodes[v as usize].in_edges.insert(in_item, u);
        self.edges.insert((u, v), (out_item, in_item, w));
    }

    /// Removes edge `(u, v)` if present. O(1).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some((out_item, in_item, _)) = self.edges.remove(&(u, v)) else {
            return false;
        };
        self.nodes[u as usize].out_sampler.delete(out_item);
        self.nodes[u as usize].out_edges.remove(&out_item);
        self.nodes[v as usize].in_sampler.delete(in_item);
        self.nodes[v as usize].in_edges.remove(&in_item);
        true
    }

    /// Samples a subset of `v`'s in-neighbors, each included independently
    /// with probability `A_uv / Σ_u A_uv` (weighted-cascade probabilities —
    /// the Appendix A.1 PSS query with `(α,β) = (1,0)`). The sampler itself
    /// is queried on `&self` through the shared-read surface; only the
    /// node's context keeps this method `&mut`.
    pub fn sample_in_neighbors(&mut self, v: NodeId) -> Vec<NodeId> {
        let st = &mut self.nodes[v as usize];
        self.sampled.clear();
        st.in_sampler.query_into(&mut st.ctx, &self.unit.0, &self.unit.1, &mut self.sampled);
        self.sampled.iter().map(|item| st.in_edges[item]).collect()
    }

    /// Samples a subset of `u`'s out-neighbors, each included independently
    /// with probability `A_uv / d_out(u)` (the Appendix A.2 push probability).
    pub fn sample_out_neighbors(&mut self, u: NodeId) -> Vec<NodeId> {
        let st = &mut self.nodes[u as usize];
        self.sampled.clear();
        st.out_sampler.query_into(&mut st.ctx, &self.unit.0, &self.unit.1, &mut self.sampled);
        self.sampled.iter().map(|item| st.out_edges[item]).collect()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.nodes[v as usize].in_edges.len()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.nodes[u as usize].out_edges.len()
    }

    /// Total weight of `u`'s out-edges.
    pub fn out_weight(&self, u: NodeId) -> u128 {
        self.nodes[u as usize].out_sampler.total_weight()
    }

    /// Total weight of `v`'s in-edges.
    pub fn in_weight(&self, v: NodeId) -> u128 {
        self.nodes[v as usize].in_sampler.total_weight()
    }
}

/// Baseline graph with identical semantics but linear-scan sampling and
/// per-node `Vec` edge lists (the E9/E10 comparator).
#[derive(Debug)]
pub struct NaiveDynGraph {
    in_adj: Vec<Vec<(NodeId, u64)>>,
    out_adj: Vec<Vec<(NodeId, u64)>>,
    rng: SmallRng,
    n_edges: usize,
}

impl NaiveDynGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize, seed: u64) -> Self {
        NaiveDynGraph {
            in_adj: vec![Vec::new(); n],
            out_adj: vec![Vec::new(); n],
            rng: SmallRng::seed_from_u64(seed),
            n_edges: 0,
        }
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Inserts (or replaces) edge `(u, v)` with weight `w ≥ 1`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) {
        self.remove_edge(u, v);
        self.out_adj[u as usize].push((v, w));
        self.in_adj[v as usize].push((u, w));
        self.n_edges += 1;
    }

    /// Removes edge `(u, v)` if present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let out = &mut self.out_adj[u as usize];
        let Some(i) = out.iter().position(|&(t, _)| t == v) else {
            return false;
        };
        out.swap_remove(i);
        let inn = &mut self.in_adj[v as usize];
        let j = inn.iter().position(|&(s, _)| s == u).expect("in/out desync");
        inn.swap_remove(j);
        self.n_edges -= 1;
        true
    }

    /// Linear-scan in-neighbor sampling (f64 coins; E9 baseline).
    pub fn sample_in_neighbors(&mut self, v: NodeId) -> Vec<NodeId> {
        let total: u128 = self.in_adj[v as usize].iter().map(|&(_, w)| w as u128).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &(u, w) in &self.in_adj[v as usize] {
            if self.rng.gen::<f64>() < w as f64 / total as f64 {
                out.push(u);
            }
        }
        out
    }

    /// Linear-scan out-neighbor sampling (f64 coins; E10 baseline).
    pub fn sample_out_neighbors(&mut self, u: NodeId) -> Vec<NodeId> {
        let total: u128 = self.out_adj[u as usize].iter().map(|&(_, w)| w as u128).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &(v, w) in &self.out_adj[u as usize] {
            if self.rng.gen::<f64>() < w as f64 / total as f64 {
                out.push(v);
            }
        }
        out
    }

    /// Linear-scan RR set with identical cascade semantics.
    pub fn rr_set(&mut self, root: NodeId, max_size: usize) -> Vec<NodeId> {
        let mut activated = vec![root];
        let mut seen = std::collections::HashSet::from([root]);
        let mut frontier = vec![root];
        while let Some(v) = frontier.pop() {
            if activated.len() >= max_size {
                break;
            }
            for u in self.sample_in_neighbors(v) {
                if seen.insert(u) {
                    activated.push(u);
                    frontier.push(u);
                }
            }
        }
        activated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    #[test]
    fn edge_crud() {
        let mut g: DynGraph = DynGraph::new(4, 1);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 1, 10);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
        g.add_edge(0, 1, 7); // replace keeps counts consistent
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(7));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn weight_accounting() {
        let mut g: DynGraph = DynGraph::new(3, 6);
        g.add_edge(0, 2, 5);
        g.add_edge(1, 2, 7);
        assert_eq!(g.in_weight(2), 12);
        assert_eq!(g.out_weight(0), 5);
        g.remove_edge(0, 2);
        assert_eq!(g.in_weight(2), 7);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let mut g: DynGraph = DynGraph::new(4, 13);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 4);
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
    }

    #[test]
    fn in_neighbor_sampling_marginals() {
        // Node 3 has in-edges with weights 1, 3, 4 → probabilities 1/8, 3/8, 1/2.
        let mut g: DynGraph = DynGraph::new(4, 2);
        g.add_edge(0, 3, 1);
        g.add_edge(1, 3, 3);
        g.add_edge(2, 3, 4);
        let trials = 30_000u64;
        let mut hits = [0u64; 3];
        for _ in 0..trials {
            for u in g.sample_in_neighbors(3) {
                hits[u as usize] += 1;
            }
        }
        for (u, p) in [(0usize, 0.125), (1, 0.375), (2, 0.5)] {
            let z = binomial_z(hits[u], trials, p);
            assert!(z.abs() < 5.0, "node {u}: z = {z}");
        }
    }

    #[test]
    fn dynamic_update_shifts_all_probabilities() {
        // Adding a heavy in-edge must reduce every other in-probability — the
        // core DPSS property.
        let mut g: DynGraph = DynGraph::new(3, 3);
        g.add_edge(0, 2, 10);
        g.add_edge(1, 2, 10);
        let trials = 20_000u64;
        let count_before: u64 = (0..trials)
            .map(|_| g.sample_in_neighbors(2).iter().filter(|&&u| u == 0).count() as u64)
            .sum();
        g.add_edge(1, 2, 80); // replaces (1,2): p of edge (0,2) drops 1/2 → 1/9
        let count_after: u64 = (0..trials)
            .map(|_| g.sample_in_neighbors(2).iter().filter(|&&u| u == 0).count() as u64)
            .sum();
        let zb = binomial_z(count_before, trials, 0.5);
        let za = binomial_z(count_after, trials, 1.0 / 9.0);
        assert!(zb.abs() < 5.0, "before: z = {zb}");
        assert!(za.abs() < 5.0, "after: z = {za}");
    }

    #[test]
    fn naive_out_sampling_marginals() {
        let mut g = NaiveDynGraph::new(3, 17);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 3);
        let trials = 30_000u64;
        let mut hits = [0u64; 3];
        for _ in 0..trials {
            for v in g.sample_out_neighbors(0) {
                hits[v as usize] += 1;
            }
        }
        assert!(binomial_z(hits[1], trials, 0.25).abs() < 5.0);
        assert!(binomial_z(hits[2], trials, 0.75).abs() < 5.0);
    }

    #[test]
    fn isolated_nodes_sample_empty() {
        let mut g: DynGraph = DynGraph::new(2, 21);
        assert!(g.sample_in_neighbors(0).is_empty());
        assert!(g.sample_out_neighbors(1).is_empty());
        let mut ng = NaiveDynGraph::new(2, 21);
        assert!(ng.sample_in_neighbors(0).is_empty());
        assert!(ng.sample_out_neighbors(1).is_empty());
    }
}
