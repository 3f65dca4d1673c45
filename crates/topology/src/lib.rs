//! Network topology substrate for `losstomo`.
//!
//! Implements everything Section 3.1 of Nguyen & Thiran (IMC 2007) needs
//! from the network side:
//!
//! * a directed [`graph::Graph`] of routers, hosts and links, with
//!   optional AS annotations and geometric positions;
//! * shortest-path [`routing`] from beacons to destinations
//!   (deterministic per-beacon trees, satisfying Assumption T.2 within
//!   each beacon);
//! * [`alias`] reduction grouping indistinguishable links into virtual
//!   links and building the reduced routing matrix `R` — a
//!   [`matrix::RoutingMatrix`], the workspace's one shared path→link
//!   CSR representation;
//! * route-[`flutter`] detection and removal (Assumption T.2 across
//!   beacons);
//! * BRITE-like topology [`gen`]erators (tree, Waxman, Barabási–Albert,
//!   hierarchical) plus synthetic PlanetLab-like and DIMES-like
//!   topologies;
//! * the paper's figure [`fixtures`] for tests and demos.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod churn;
pub mod fixtures;
pub mod flutter;
pub mod gen;
pub mod graph;
pub mod matrix;
pub mod path;
pub mod routing;

pub use alias::{reduce, ReducedTopology, VirtualLink, VirtualLinkId};
pub use churn::{ChurnError, DeltaEffect, TopologyDelta, TopologyEdit};
pub use gen::GeneratedTopology;
pub use graph::{Graph, Link, LinkId, Node, NodeId, NodeKind};
pub use matrix::{RoutingMatrix, RoutingMatrixBuilder};
pub use path::{Path, PathId, PathSet};
pub use routing::{compute_paths, SpTree};
