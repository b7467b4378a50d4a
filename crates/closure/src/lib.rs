//! # ds-closure — the disconnection set approach
//!
//! Parallel evaluation of transitive closure queries over a fragmented
//! relation, per Houtsma, Apers & Ceri (VLDB'90) as summarized in §2.1 of
//! the ICDE'93 paper this workspace reproduces:
//!
//! 1. **Precompute** complementary information: shortest distances between
//!    the border nodes of every disconnection set (stored at both adjacent
//!    sites) — [`complementary`].
//! 2. **Plan**: locate the fragments holding the query endpoints and find
//!    the chain(s) of fragments connecting them — [`planner`].
//! 3. **Evaluate locally**, one independent subquery per fragment on the
//!    chain, with *no communication*: each site computes a very small
//!    border-to-border distance relation on its fragment augmented with
//!    its complementary shortcuts — [`local`], [`executor`]. The
//!    endpoint-independent interior segments are memoized per site on
//!    the snapshot and shared by every later query — [`transit`].
//! 4. **Assemble**: fold the small relations with min-plus joins and read
//!    off the answer — [`assemble`].
//!
//! [`engine::DisconnectionSetEngine`] packages the pipeline; [`baseline`]
//! holds the centralized algorithms the engine is validated against, and
//! [`phe`] implements the Parallel Hierarchical Evaluation extension
//! (ref \[12\]) for fragmentation graphs too complex to enumerate.
//!
//! [`api`] defines [`TcEngine`], the backend-polymorphic query surface
//! (single queries, routes, updates, and the amortized
//! [`TcEngine::query_batch`]) that both this crate's engine and
//! `ds_machine::Machine` implement, plus the build path and batch driver
//! the backends share. The umbrella crate's `System` builder deploys
//! either backend behind it.
//!
//! ```
//! use ds_closure::engine::{DisconnectionSetEngine, EngineConfig};
//! use ds_fragment::linear::{linear_sweep, LinearConfig};
//! use ds_gen::deterministic::grid;
//! use ds_graph::NodeId;
//!
//! let g = grid(10, 3);
//! let frag = linear_sweep(&g.edge_list(), &LinearConfig { fragments: 3, ..Default::default() })
//!     .unwrap()
//!     .fragmentation;
//! let engine = DisconnectionSetEngine::build(
//!     g.closure_graph(), frag, true, EngineConfig::default()).unwrap();
//! let answer = engine.shortest_path(NodeId(0), NodeId(29));
//! assert_eq!(answer.cost, Some(11)); // corner to corner of the grid
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod assemble;
pub mod baseline;
pub mod complementary;
pub mod engine;
pub mod error;
pub mod executor;
pub mod local;
pub mod phe;
pub mod planner;
pub mod snapshot;
pub mod transit;
pub mod updates;

pub use api::{
    BatchAnswer, BatchStats, BoundedBatchAnswer, NetworkUpdate, QueryRequest, RealHopSet, TcEngine,
};
pub use complementary::{
    ComplementaryInfo, ComplementaryScope, PrecomputeStats, PrecomputeStrategy,
};
pub use engine::{DisconnectionSetEngine, EngineConfig, QueryAnswer, QueryStats, Route};
pub use error::ClosureError;
pub use snapshot::{CowMaintenance, EngineSnapshot};
pub use updates::{FallbackReason, UpdateBatchReport, UpdateReport};
