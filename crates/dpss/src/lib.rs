//! # dpss — Optimal Dynamic Parameterized Subset Sampling (HALT)
//!
//! A faithful Rust implementation of the HALT data structure from
//! *Optimal Dynamic Parameterized Subset Sampling* (Gan, Umboh, Wang, Wirth,
//! Zhang — PODS 2024): **H**ierarchy + **A**dapter + **L**ookup **T**able.
//!
//! Given a dynamic set `S` of items with non-negative integer weights, a PSS
//! query `(α, β)` returns a subset `T ⊆ S` where each item `x` appears
//! independently with probability exactly
//! `p_x(α,β) = min( w(x) / (α·Σ_{y∈S} w(y) + β), 1 )`.
//!
//! Guarantees (Theorem 1.1): O(n) preprocessing, O(1+μ) expected query time
//! (`μ` = expected output size), O(1) updates (worst-case inside an epoch,
//! amortized O(1) across the standard global rebuilds of §4.5), and O(n) words
//! of space.
//!
//! ```
//! use dpss::{DpssSampler, Ratio};
//!
//! let (mut s, ids) = DpssSampler::from_weights(&[1, 2, 4, 8, 1000], 42);
//! // Sample each x with probability min(w(x) / (0.5·Σw + 3), 1).
//! let t = s.query(&Ratio::from_u64s(1, 2), &Ratio::from_u64s(3, 1));
//! assert!(t.iter().all(|id| s.contains(*id)));
//! // Dynamic updates in O(1):
//! s.delete(ids[4]);
//! let heavy = s.insert(1 << 40);
//! let t2 = s.query(&Ratio::from_u64s(1, 1), &Ratio::from_u64s(0, 1));
//! assert!(t2.contains(&heavy)); // p ≈ 1 for the dominating item
//! ```
//!
//! Module map (paper § → code): §4.1/4.2 hierarchy → [`structure`]; Algorithms
//! 1–5 → [`query`]; §4.3 lookup table → [`lookup`] (+ exact integer alias
//! tables in [`alias`]); §4.5 updates/rebuild → [`sampler`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod backend;
pub mod deamortized;
pub mod diagnostics;
pub mod item;
pub mod lookup;
pub mod plan;
pub mod query;
pub mod sampler;
mod snapshot;
pub mod structure;

pub use bignum::Ratio;
pub use deamortized::DeamortizedDpss;
pub use diagnostics::{LevelStats, StructureStats};
pub use item::ItemId;
pub use pss_core::{
    recover, Handle, PssBackend, RecoverError, SeedableBackend, SnapshotError, Snapshottable,
};
pub use query::FinalLevelMode;
pub use sampler::{DpssSampler, OpError};
pub use wordram::SpaceUsage;
