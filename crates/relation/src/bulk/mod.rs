//! Bulk materialization of the transitive closure over a *fragmented*
//! relation — the parallel strategy of the source paper, run as a
//! subsystem instead of a per-query engine.
//!
//! The paper's §2.1 observation is that fragmenting `R` by a
//! disconnection-set partition turns one big recursive query into many
//! small ones: each fragment can compute its local closure almost
//! independently, and only tuples ending on a *shared* node (a
//! disconnection-set member) ever need to travel. This module family
//! implements exactly that pipeline:
//!
//! - [`partition`] — split the edge relation by a
//!   [`ds_fragment::Fragmentation`] and precompute the border structure
//!   ([`FragmentPartition`]).
//! - [`exchange`] — route border-crossing delta tuples to the fragments
//!   that can extend them, and only those ([`ExchangeRouter`]).
//! - [`engine`] — per-fragment semi-naive fixpoints, fanned out over
//!   threads once per exchange round until the global fixpoint, then a
//!   final min-cost assembly ([`MaterializeEngine`]).
//!
//! The result is **tuple-identical** to running
//! [`crate::tc::seminaive_closure`] on the union of all fragments — the
//! property tests enforce this across every generator × fragmenter
//! combination — while doing fragment-local work that parallelizes and,
//! even single-threaded, probes prebuilt per-fragment adjacency indexes
//! instead of rebuilding join tables.
//!
//! ```
//! use ds_fragment::Fragmentation;
//! use ds_graph::{Edge, NodeId};
//! use ds_relation::bulk::{MaterializeConfig, MaterializeEngine};
//!
//! // Path 0-1-2-3 split at node 2 (DS = {2}).
//! let frag = Fragmentation::new(
//!     4,
//!     vec![
//!         vec![Edge::unit(NodeId(0), NodeId(1)), Edge::unit(NodeId(1), NodeId(2))],
//!         vec![Edge::unit(NodeId(2), NodeId(3))],
//!     ],
//!     vec![vec![], vec![]],
//! );
//! let engine = MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
//! let (closure, stats) = engine.materialize().unwrap();
//! assert_eq!(closure.cost_of(NodeId(0), NodeId(3)), Some(3));
//! assert!(stats.exchanged_tuples > 0);
//! ```

pub mod engine;
pub mod exchange;
pub mod partition;

pub use engine::{
    MaterializeConfig, MaterializeEngine, MaterializeError, MaterializeStats, RoundStats,
};
pub use exchange::ExchangeRouter;
pub use partition::FragmentPartition;
