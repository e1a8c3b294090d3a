//! Graph structure, classic graph algorithms and random-graph generators.
//!
//! The paper's core claim is about **node locality**: hub nodes over-smooth
//! under deep propagation while peripheral nodes need depth (Fig 1, §5.2.2).
//! This crate supplies everything needed to study that claim:
//!
//! * [`Graph`] — an undirected graph with a cached CSR adjacency;
//! * algorithms — BFS, connected components, **Average Path Length** (Eq 8,
//!   used to pick depth sweeps), **PageRank** (the paper's locality measure),
//!   clustering coefficient, and a BFS-grown partitioner (the ClusterGCN
//!   substrate);
//! * generators — a degree-corrected stochastic block model (power-law hubs +
//!   controllable homophily), Barabási–Albert, and a bipartite user–item
//!   generator with Pareto item popularity (the Tencent substitute).
//!
//! # Example
//! ```
//! use lasagne_graph::{Graph, generators};
//! use lasagne_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from_u64(7);
//! let (g, labels) = generators::dc_sbm(&generators::DcSbmConfig {
//!     nodes: 200, classes: 4, avg_degree: 6.0, homophily: 0.8,
//!     power_exponent: 2.5, max_weight_ratio: 50.0,
//! }, &mut rng);
//! assert_eq!(g.num_nodes(), 200);
//! assert_eq!(labels.len(), 200);
//! let pr = lasagne_graph::pagerank(&g, 0.85, 50);
//! assert!((pr.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! ```

mod algos;
mod error;
pub mod generators;
mod graph;
mod partition;
mod stats;

pub use algos::{
    average_path_length, bfs_distances, clustering_coefficient, connected_components, pagerank,
    partition_bfs, sample_neighbors,
};
pub use error::GraphError;
pub use graph::Graph;
pub use partition::{PartitionBlock, Partitioning};
pub use stats::{degree_assortativity, degree_histogram, degree_stats, k_core, DegreeStats};
