//! # incr-datalog — a from-scratch Datalog engine with incremental
//! maintenance
//!
//! The substrate the paper's scheduling problem comes from: Datalog
//! programs whose materializations must be kept consistent as base data
//! changes (§I). This crate implements the full pipeline:
//!
//! * [`ast`] / [`parser`] — rules, atoms, terms; a hand-written
//!   recursive-descent parser for conventional Datalog syntax.
//! * [`value`] — the constant domain (interned symbols + integers).
//! * [`hash`] — the one fixed-key hasher every container here uses.
//! * [`query`](mod@query) — pattern queries against the materialization.
//! * [`rel`] — relation storage with tuple indices.
//! * [`stratify`] — predicate dependency graph, Tarjan SCCs, and
//!   negation-safe stratification.
//! * [`eval`] — naive and semi-naive bottom-up evaluation, plus grouped
//!   aggregate evaluation (`count`/`sum`/`min`/`max` heads).
//! * [`incr`] — incremental maintenance, the one backend: every deletion
//!   candidate is put to a grounded proof search and deleted only if it
//!   fails (prove or delete), then insertions propagate semi-naively.
//! * [`mvcc`] — concurrent snapshot readers: a lock-free pin registry
//!   over the epoch-versioned arena, so queries serve a consistent
//!   published cut while maintenance cascades mutate the head.
//! * [`taskgraph`] — the bridge to the paper: compile a program into the
//!   scheduling DAG whose nodes are predicate evaluations, and drive any
//!   [`incr_sched::Scheduler`] with *real* data-dependent activations
//!   ("just because an input to a predicate changes does not mean that
//!   the predicate's output changes", §II-A).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod engine;
pub mod eval;
pub mod hash;
pub mod incr;
pub mod mvcc;
pub mod parser;
mod prove;
pub mod query;
pub mod rel;
pub mod shard;
pub mod stratify;
pub mod stream;
pub mod taskgraph;
pub mod value;

#[cfg(test)]
mod lattice;
#[cfg(test)]
mod proptests;

pub use ast::{Atom, Literal, Program, Rule, Term};
pub use engine::{EvalOptions, FactEdit, IncrementalEngine, TypedEdit, UpdateReport};
pub use eval::Access;
pub use mvcc::{PinRegistry, ReaderHandle, Snapshot};
pub use parser::parse_program;
pub use query::{parse_pattern, query, query_at, Pat};
pub use rel::{Database, Relation};
pub use shard::{
    shard_of_first, split_by_shard, PortableValue, RuleClass, ShardCause, ShardFault,
    ShardFaultHook, ShardPlan, ShardStatus, ShardUpdateReport, ShardedEngine,
};
pub use stream::DeltaQueue;
pub use value::{Tuple, Value};
