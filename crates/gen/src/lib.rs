//! # ds-gen — seeded graph generators from §4.1 of the paper
//!
//! The paper evaluates its fragmentation algorithms on randomly generated
//! graphs: nodes get coordinates "evenly spread over a given interval",
//! then edges are drawn with probability
//!
//! ```text
//! P(p, q) = (c1 / n²) · e^(−c2 · d(p, q))
//! ```
//!
//! so close nodes connect more often than remote ones. *Transportation
//! graphs* (Fig. 3) are built cluster by cluster with user-specified
//! inter-cluster connections; *general graphs* use the probability
//! function over all pairs. This crate reproduces both, plus the
//! ellipse-shaped graphs of Fig. 8 and deterministic graphs for tests.
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use ds_gen::{GeneralConfig, generate_general};
//!
//! let cfg = GeneralConfig { nodes: 50, target_edges: 140, ..Default::default() };
//! let a = generate_general(&cfg, 7);
//! let b = generate_general(&cfg, 7);
//! assert_eq!(a.connections, b.connections); // same seed, same graph
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod deterministic;
pub mod ellipse;
pub mod general;
pub mod output;
pub mod probability;
pub mod scale;
pub mod spatial;
pub mod transportation;

pub use config::{ClusterTopology, EllipseConfig, GeneralConfig, TransportationConfig};
pub use ellipse::generate_ellipse;
pub use general::generate_general;
pub use output::GeneratedGraph;
pub use scale::{generate_scale, ScaleConfig};
pub use transportation::generate_transportation;
