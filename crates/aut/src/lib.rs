//! Graph automorphism detection for vertex-colored graphs.
//!
//! This crate stands in for the Saucy/Nauty automorphism tools the paper's
//! symmetry-breaking flow depends on (Darga et al. 2004; McKay 1990). Given
//! a [`ColoredGraph`], [`automorphisms`] returns a generating set of its
//! color-preserving automorphism group together with the exact group order,
//! computed along a stabilizer chain by the orbit–stabilizer theorem:
//!
//! 1. the vertex partition, starting from the input colors, is refined to
//!    equitability as an ordered partition (cells are ranges of one vertex
//!    array): a splitter queue revisits only the cells a split touches, as
//!    in nauty and Saucy;
//! 2. a base point is chosen in the first non-singleton cell; for every
//!    other vertex of its cell not yet known to be in its orbit, a
//!    backtracking search (individualization–refinement on a source/target
//!    partition pair, compared by their split traces) looks for an
//!    automorphism mapping base → candidate, and every candidate is
//!    verified with [`ColoredGraph::is_automorphism`];
//! 3. the base point is pinned — its refined partition is carried to the
//!    next level — and the process recurses into its stabilizer;
//!    `|Aut| = Π |orbit(bᵢ)|`.
//!
//! The search is exact by default and can be budgeted (see
//! [`AutomorphismOptions`]); Table 2 of the paper reports group orders as
//! large as 10¹⁶⁸, which we expose as `log10` (plus `u128` when it fits).
//!
//! # Example
//!
//! ```
//! use sbgc_aut::{automorphisms, ColoredGraph};
//!
//! // A 4-cycle: |Aut| = 8 (dihedral group D4).
//! let g = ColoredGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], None);
//! let group = automorphisms(&g);
//! assert_eq!(group.order_u128(), Some(8));
//! assert!(!group.generators().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colored_graph;
mod group;
mod perm;
mod refine;
mod search;

pub use colored_graph::ColoredGraph;
pub use group::{automorphisms, automorphisms_with, AutomorphismGroup, AutomorphismOptions};
pub use perm::Permutation;
