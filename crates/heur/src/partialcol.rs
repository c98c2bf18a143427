//! PartialCol (Blöchliger & Zufferey 2008): tabu search over *partial*
//! proper k-assignments, minimizing the number of uncolored vertices.
//!
//! Where TabuCol tolerates conflicts, PartialCol never creates one: a move
//! assigns color `c` to an uncolored vertex `v` and un-colors every neighbor
//! of `v` that currently carries `c`. The two searches have complementary
//! landscapes, which is why both run in the hybrid race.

use crate::rng::SplitMix64;
use crate::STALL_DIVISOR;
use sbgc_graph::{Coloring, Graph};

const UNCOLORED: usize = usize::MAX;

/// Searches for a proper `k`-coloring of `graph` via partial assignments.
///
/// Returns `Some(coloring)` once every vertex is colored, or `None` when the
/// attempt gives up or `should_stop` reports cancellation. `max_iters` is
/// the hard cap on iterations; the attempt also gives up after
/// `max_iters /` [`STALL_DIVISOR`] consecutive iterations that do not lower
/// the fewest uncolored vertices seen so far. Both stops count iterations,
/// so the move sequence — and whether the attempt succeeds — is a pure
/// function of `(graph, k, seed, max_iters)`.
pub fn partialcol<F: FnMut() -> bool>(
    graph: &Graph,
    k: usize,
    seed: u64,
    max_iters: u64,
    mut should_stop: F,
) -> Option<Coloring> {
    let n = graph.num_vertices();
    if n == 0 {
        return Some(Coloring::new(Vec::new()));
    }
    if k == 0 {
        return None;
    }
    let mut rng = SplitMix64::new(seed);

    // Greedy start: random vertex order, first conflict-free color.
    let mut col = vec![UNCOLORED; n];
    // nbc[v * k + c]: colored neighbors of v carrying color c.
    let mut nbc = vec![0u32; n * k];
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.index(i + 1);
        order.swap(i, j);
    }
    let mut uncolored: Vec<usize> = Vec::new();
    for &v in &order {
        match (0..k).find(|&c| nbc[v * k + c] == 0) {
            Some(c) => {
                col[v] = c;
                for &u in graph.neighbors(v) {
                    nbc[u as usize * k + c] += 1;
                }
            }
            None => uncolored.push(v),
        }
    }
    uncolored.sort_unstable();
    if uncolored.is_empty() {
        return Some(Coloring::new(col));
    }

    let mut best_u = uncolored.len();
    let stall_limit = max_iters / STALL_DIVISOR;
    let mut last_improvement = 0u64;
    let mut tabu = vec![0u64; n * k];

    for iter in 1..=max_iters {
        if iter % 64 == 0 && should_stop() {
            return None;
        }

        // Candidate moves: (delta-|U|, v, c) over uncolored v. Assigning c to
        // v un-colors nbc[v][c] neighbors and colors v itself.
        let mut best: Option<(i64, usize, usize)> = None;
        let mut ties = 0u64;
        for &v in &uncolored {
            for c in 0..k {
                let delta = i64::from(nbc[v * k + c]) - 1;
                let aspires = (uncolored.len() as i64 + delta) < best_u as i64;
                if tabu[v * k + c] > iter && !aspires {
                    continue;
                }
                match best {
                    None => {
                        best = Some((delta, v, c));
                        ties = 1;
                    }
                    Some((bd, _, _)) if delta < bd => {
                        best = Some((delta, v, c));
                        ties = 1;
                    }
                    Some((bd, _, _)) if delta == bd => {
                        ties += 1;
                        if rng.below(ties) == 0 {
                            best = Some((delta, v, c));
                        }
                    }
                    _ => {}
                }
            }
        }
        let (v, c) = match best {
            Some((_, v, c)) => (v, c),
            None => {
                // All moves tabu: pick one anyway, uniformly.
                let v = uncolored[rng.index(uncolored.len())];
                (v, rng.index(k))
            }
        };

        // Apply: color v with c, evict conflicting neighbors.
        let tenure = (6 * uncolored.len() as u64) / 10 + rng.below(10);
        col[v] = c;
        for &u in graph.neighbors(v) {
            nbc[u as usize * k + c] += 1;
        }
        uncolored.retain(|&u| u != v);
        let evicted: Vec<usize> = graph
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| u != v && col[u] == c)
            .collect();
        for &u in &evicted {
            col[u] = UNCOLORED;
            for &w in graph.neighbors(u) {
                nbc[w as usize * k + c] -= 1;
            }
            // Moving u straight back onto c would undo the move: tabu it.
            tabu[u * k + c] = iter + tenure + 1;
            uncolored.push(u);
        }
        uncolored.sort_unstable();

        if uncolored.is_empty() {
            return Some(Coloring::new(col));
        }
        if uncolored.len() < best_u {
            best_u = uncolored.len();
            last_improvement = iter;
        } else if iter - last_improvement >= stall_limit {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::gen;

    #[test]
    fn finds_exact_colorings_on_known_graphs() {
        let cases: [(&str, Graph, usize); 4] = [
            ("k5", Graph::complete(5), 5),
            ("c5", Graph::cycle(5), 3),
            ("queen5_5", gen::queens(5, 5), 5),
            ("myciel3", gen::mycielski(3), 4),
        ];
        for (name, graph, chi) in cases {
            let c = partialcol(&graph, chi, 29, 200_000, || false)
                .unwrap_or_else(|| panic!("{name}: partialcol failed at k = chi"));
            assert!(c.is_proper(&graph), "{name}: improper");
            assert!(c.num_colors() <= chi, "{name}: too many colors");
        }
    }

    #[test]
    fn refuses_below_chromatic_number() {
        assert!(partialcol(&Graph::complete(4), 3, 5, 20_000, || false).is_none());
    }

    #[test]
    fn infeasible_level_ends_on_stall() {
        // K6 has no 5-coloring: one uncolored vertex is the best any
        // partial assignment reaches, so after that the attempt only stalls.
        let max_iters = 1_000_000;
        let mut polls = 0u64;
        let found = partialcol(&Graph::complete(6), 5, 11, max_iters, || {
            polls += 1;
            false
        });
        assert!(found.is_none());
        // `should_stop` is polled once per 64 iterations.
        assert!(polls * 64 <= max_iters / 4, "ran {} iterations", polls * 64);
    }

    #[test]
    fn replay_is_deterministic() {
        let g = gen::gnm(30, 140, 9);
        let a = partialcol(&g, 6, 321, 50_000, || false);
        let b = partialcol(&g, 6, 321, 50_000, || false);
        match (a, b) {
            (Some(x), Some(y)) => assert_eq!(x.colors(), y.colors()),
            (None, None) => {}
            _ => panic!("same seed diverged"),
        }
    }
}
