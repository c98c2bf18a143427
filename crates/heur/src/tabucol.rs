//! TabuCol (Hertz & de Werra 1987): tabu search over complete (possibly
//! improper) k-assignments, minimizing the number of conflicting edges.
//!
//! The neighborhood is the classic one-exchange: recolor one conflicting
//! vertex. Reverse moves are tabu for a dynamic tenure of
//! `0.6 · |conflicting vertices| + rand(10)` iterations (Galinier & Hao's
//! reactive tenure), with the standard aspiration criterion — a tabu move is
//! allowed when it beats the best assignment seen so far.

use crate::rng::SplitMix64;
use crate::STALL_DIVISOR;
use sbgc_graph::{Coloring, Graph};

/// Searches for a proper `k`-coloring of `graph`.
///
/// Returns `Some(coloring)` as soon as an assignment with zero conflicting
/// edges is found, or `None` when the attempt gives up or `should_stop`
/// reports cancellation first. `max_iters` is the hard cap on iterations;
/// the attempt also gives up after `max_iters /` [`STALL_DIVISOR`]
/// consecutive iterations that do not lower the fewest conflicting edges
/// seen so far. Both stops count iterations, so the move sequence — and
/// whether the attempt succeeds — is a pure function of
/// `(graph, k, seed, max_iters)`.
pub fn tabucol<F: FnMut() -> bool>(
    graph: &Graph,
    k: usize,
    seed: u64,
    max_iters: u64,
    should_stop: F,
) -> Option<Coloring> {
    if k == 0 && graph.num_vertices() > 0 {
        // No color to build a start assignment from.
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    let init = greedy_k_assignment(graph, k, &mut rng);
    tabucol_from(graph, k, init, &mut rng, max_iters, should_stop)
}

/// TabuCol starting from a caller-supplied complete assignment.
///
/// `start[v]` must be in `0..k` for every vertex. This is the entry point
/// the descent driver uses to reuse the previous level's coloring with the
/// top class collapsed. `max_iters` and the stall stop work as in
/// [`tabucol`].
pub fn tabucol_from<F: FnMut() -> bool>(
    graph: &Graph,
    k: usize,
    start: Vec<usize>,
    rng: &mut SplitMix64,
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
    debug_assert_eq!(start.len(), n);
    debug_assert!(start.iter().all(|&c| c < k));

    let mut col = start;
    // nbc[v * k + c]: how many neighbors of v currently carry color c.
    let mut nbc = vec![0u32; n * k];
    // vconf[v]: how many neighbors of v share v's color.
    let mut vconf = vec![0u32; n];
    let mut conflicts: u64 = 0;
    for v in 0..n {
        for &u in graph.neighbors(v) {
            let u = u as usize;
            nbc[v * k + col[u]] += 1;
            if col[u] == col[v] {
                vconf[v] += 1;
                if v < u {
                    conflicts += 1;
                }
            }
        }
    }
    if conflicts == 0 {
        return Some(Coloring::new(col));
    }
    if k == 1 {
        // A conflicting edge can never be repaired with a single color.
        return None;
    }

    let mut best_conflicts = conflicts;
    let stall_limit = max_iters / STALL_DIVISOR;
    let mut last_improvement = 0u64;
    // tabu[v * k + c]: first iteration at which recoloring v to c is allowed
    // again.
    let mut tabu = vec![0u64; n * k];

    for iter in 1..=max_iters {
        if iter % 64 == 0 && should_stop() {
            return None;
        }

        let conflicted = vconf.iter().filter(|&&c| c > 0).count() as u64;
        // Best admissible move: (delta, v, c). Ties broken by reservoir
        // sampling so the walk does not fixate, yet stays seed-deterministic.
        let mut best: Option<(i64, usize, usize)> = None;
        let mut ties = 0u64;
        for v in 0..n {
            if vconf[v] == 0 {
                continue;
            }
            let old = col[v];
            for c in 0..k {
                if c == old {
                    continue;
                }
                let delta = i64::from(nbc[v * k + c]) - i64::from(nbc[v * k + old]);
                let aspires = (conflicts as i64 + delta) < best_conflicts as i64;
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
                // Everything tabu: kick a random conflicted vertex.
                let nth = rng.below(conflicted.max(1)) as usize;
                let v = (0..n).filter(|&v| vconf[v] > 0).nth(nth).unwrap_or(0);
                let mut c = rng.index(k);
                if c == col[v] {
                    c = (c + 1) % k;
                }
                (v, c)
            }
        };

        // Apply the move and update incremental structures.
        let old = col[v];
        let tenure = (6 * conflicted) / 10 + rng.below(10);
        tabu[v * k + old] = iter + tenure + 1;
        col[v] = c;
        let mut vc = 0u32;
        for &u in graph.neighbors(v) {
            let u = u as usize;
            nbc[u * k + old] -= 1;
            nbc[u * k + c] += 1;
            if col[u] == old {
                conflicts -= 1;
                vconf[u] -= 1;
            } else if col[u] == c {
                conflicts += 1;
                vconf[u] += 1;
                vc += 1;
            }
        }
        vconf[v] = vc;

        if conflicts == 0 {
            return Some(Coloring::new(col));
        }
        if conflicts < best_conflicts {
            best_conflicts = conflicts;
            last_improvement = iter;
        } else if iter - last_improvement >= stall_limit {
            return None;
        }
    }
    None
}

/// Builds a complete min-conflict `k`-assignment greedily, visiting the
/// vertices in a seed-determined random order.
fn greedy_k_assignment(graph: &Graph, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates with the worker's own stream.
    for i in (1..n).rev() {
        let j = rng.index(i + 1);
        order.swap(i, j);
    }
    let mut col = vec![usize::MAX; n];
    for &v in &order {
        let mut counts = vec![0u32; k];
        for &u in graph.neighbors(v) {
            let cu = col[u as usize];
            if cu != usize::MAX {
                counts[cu] += 1;
            }
        }
        let min = *counts.iter().min().unwrap_or(&0);
        // Random choice among the least-conflicting colors.
        let cands: Vec<usize> = (0..k).filter(|&c| counts[c] == min).collect();
        col[v] = cands[rng.index(cands.len())];
    }
    col
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
            let c = tabucol(&graph, chi, 17, 200_000, || false)
                .unwrap_or_else(|| panic!("{name}: tabucol failed at k = chi"));
            assert!(c.is_proper(&graph), "{name}: improper");
            assert!(c.num_colors() <= chi, "{name}: too many colors");
        }
    }

    #[test]
    fn refuses_below_chromatic_number() {
        // K4 cannot be 3-colored; the search must time out, not lie.
        assert!(tabucol(&Graph::complete(4), 3, 5, 20_000, || false).is_none());
    }

    #[test]
    fn infeasible_level_ends_on_stall() {
        // K6 has no 5-coloring: one conflicting edge is the best any
        // assignment reaches, so after that the attempt only stalls.
        let max_iters = 1_000_000;
        let mut polls = 0u64;
        let found = tabucol(&Graph::complete(6), 5, 11, max_iters, || {
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
        let a = tabucol(&g, 6, 123, 50_000, || false);
        let b = tabucol(&g, 6, 123, 50_000, || false);
        match (a, b) {
            (Some(x), Some(y)) => assert_eq!(x.colors(), y.colors()),
            (None, None) => {}
            _ => panic!("same seed diverged"),
        }
    }

    #[test]
    fn respects_cancellation() {
        let g = gen::gnm(40, 400, 3);
        // Cancel immediately: with k far below chi the only exits are the
        // stop hook or the iteration cap; the hook must win fast.
        assert!(tabucol(&g, 2, 1, u64::MAX >> 1, || true).is_none());
    }
}
