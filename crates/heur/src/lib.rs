//! Deterministic local-search heuristics for graph coloring.
//!
//! This crate is the heuristic half of the hybrid solver described in
//! ROADMAP's "primal bounds racing the exact search" item: fast incomplete
//! methods that tighten the `[lower, upper]` bracket before — and while —
//! the exact CDCL/PB portfolio closes it.
//!
//! * [`rlf()`] — Recursive Largest First constructive coloring, the classic
//!   high-quality greedy start;
//! * [`tabucol()`] — Hertz & de Werra tabu search over improper complete
//!   k-assignments (minimizes conflicting edges);
//! * [`partialcol()`] — Blöchliger & Zufferey tabu search over proper partial
//!   assignments (minimizes uncolored vertices);
//! * [`backtracking_dsatur`] — a small independent exact solver with Brélaz
//!   branching and clique pre-coloring, used as a cross-check in the
//!   agreement suite;
//! * [`clique_search`] — penalty-driven iterated clique construction, which
//!   lifts the chromatic lower bound.
//!
//! # Determinism
//!
//! Every function here is a pure function of its arguments: randomness comes
//! only from an explicit [`SplitMix64`] seed, no `std` hash-map iteration
//! order is consulted anywhere, and cancellation hooks can only make a
//! search return *earlier*, never change the moves it makes. The hybrid race
//! in `sbgc-core` relies on this for seeded replay.
//!
//! # Trust boundary
//!
//! Nothing in this crate is trusted by the exact search. Colorings and
//! cliques produced here are re-validated (propriety, color count, pairwise
//! adjacency) by `sbgc-core` before they may touch a proven bound — see
//! DESIGN.md §4i.
//!
//! # Example
//!
//! ```
//! use sbgc_heur::{backtracking_dsatur, tabucol, BdsaturResult};
//! use sbgc_graph::gen::queens;
//!
//! let graph = queens(5, 5);
//! // TabuCol finds a 5-coloring quickly...
//! let c = tabucol(&graph, 5, 1, 100_000, || false).expect("queen5_5 is 5-colorable");
//! assert!(c.is_proper(&graph));
//! // ...and backtracking DSATUR proves it optimal.
//! match backtracking_dsatur(&graph, 1_000_000) {
//!     BdsaturResult::Exact { chromatic_number, .. } => assert_eq!(chromatic_number, 5),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdsatur;
pub mod clique;
pub mod partialcol;
pub mod rlf;
pub mod rng;
pub mod tabucol;

/// How patient [`tabucol()`] and [`partialcol()`] are with a level that has
/// stopped improving: an attempt with budget `max_iters` gives up after
/// `max_iters / STALL_DIVISOR` consecutive iterations without a new best
/// score (fewest conflicting edges, resp. fewest uncolored vertices).
///
/// Failed attempts in the hybrid race are almost always at an infeasible
/// level (k < χ), where no budget helps, while a level that succeeds
/// usually does so within a few dozen iterations. `max_iters` itself stays
/// the hard cap: a stall-only rule lets slow late improvements keep
/// restarting the window. The stop counts iterations, not time, so it
/// keeps every search a pure function of its arguments.
pub const STALL_DIVISOR: u64 = 8;

pub use bdsatur::{backtracking_dsatur, BdsaturResult};
pub use clique::clique_search;
pub use partialcol::partialcol;
pub use rlf::rlf;
pub use rng::{derive_seed, SplitMix64};
pub use tabucol::{tabucol, tabucol_from};

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::Graph;

    #[test]
    fn zero_colors_cannot_color_a_non_empty_graph() {
        let g = Graph::cycle(5);
        assert!(tabucol(&g, 0, 1, 1_000, || false).is_none());
        let start = vec![0; g.num_vertices()];
        assert!(tabucol_from(&g, 0, start, &mut SplitMix64::new(1), 1_000, || false).is_none());
        assert!(partialcol(&g, 0, 1, 1_000, || false).is_none());
    }
}
