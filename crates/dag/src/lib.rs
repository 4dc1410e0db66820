//! # incr-dag — DAG substrate for incremental Datalog scheduling
//!
//! This crate provides the graph machinery that every other crate in the
//! workspace builds on. It corresponds to the role the Boost Graph Library
//! played in the paper's C++ simulator (§VI-A), re-implemented from scratch:
//!
//! * [`Dag`] — a compact CSR (compressed sparse row) representation of a
//!   directed acyclic graph with both out- and in-adjacency, built through
//!   [`DagBuilder`] which rejects cycles.
//! * [`levels`] — the *level* of a node: the maximum number of edges on any
//!   path from any source (indegree-0) node, the key precomputation of the
//!   LevelBased scheduler (paper §III).
//! * [`reach`] — BFS/DFS reachability: descendants, ancestors, and
//!   descendant censuses used by the trace statistics (Figure 1).
//! * [`interval`] — the interval-list transitive-closure encoding
//!   (Agrawal–Borgida–Jagadish, Nuutila) that the production LogicBlox
//!   scheduler uses for ancestor queries (paper §II-C).
//! * [`critical`] — weighted critical-path length, the `C` in the
//!   arbitrary-job makespan bound `O(w/P + C)` (paper §II-B).
//! * [`dot`] — Graphviz export for inspecting instances (Figure 1 excerpt).
//! * [`random`] — seeded random-DAG generators shared by property tests.
//!
//! The graph is purely structural: node payloads (task durations, predicate
//! names, activation behaviour) live in the crates that consume it.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod critical;
pub mod dot;
pub mod graph;
pub mod interval;
pub mod levels;
pub mod random;
pub mod reach;

pub use builder::{DagBuilder, DagError};
pub use graph::{Dag, NodeId};
pub use interval::IntervalList;
pub use levels::LevelBuckets;

#[cfg(test)]
mod proptests;
