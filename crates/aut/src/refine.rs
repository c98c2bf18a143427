//! Equitable refinement of ordered partitions, in the style of nauty and
//! Saucy.
//!
//! A [`Partition`] keeps every vertex in one array; each cell is a
//! contiguous range of it and is named by the position it starts at. The
//! [`Refiner`] works off a queue of splitter cells: popping a splitter, it
//! counts, for the vertices adjacent to it only, how many neighbours each
//! has in the splitter, and splits every touched cell by those counts in
//! ascending order. When a split cell was already queued, all its fragments
//! are queued; otherwise all but the largest are (Hopcroft's trick). The
//! result is the coarsest equitable refinement, reached while revisiting
//! only the cells a split touches.
//!
//! Every choice the refiner makes — which splitter comes next, which
//! touched cell is split first, the order of the fragments — depends only
//! on cell positions and neighbour counts, never on vertex labels. Two
//! partitions related by a color-preserving automorphism therefore refine
//! to partitions related by it, cell for cell, and emit the same split
//! trace. The search compares two sides by those traces and abandons a
//! pair at the first split that differs. Refinement is exact: no hashing is
//! involved, and every candidate automorphism is still verified at the
//! leaves ([`crate::ColoredGraph::is_automorphism`]).

use crate::ColoredGraph;
use std::collections::VecDeque;

/// An ordered partition of the vertex set: cells are ranges of one vertex
/// array.
#[derive(Clone)]
pub(crate) struct Partition {
    /// The vertices, grouped by cell.
    elems: Vec<u32>,
    /// `pos[v]` — index of `v` in `elems`.
    pos: Vec<u32>,
    /// `cell[v]` — start position of the cell holding `v`.
    cell: Vec<u32>,
    /// `len[s]` — length of the cell starting at position `s` (meaningful
    /// at cell starts only).
    len: Vec<u32>,
    /// Number of cells.
    cells: usize,
}

impl Partition {
    /// The partition of `g`'s vertices by color, cells in ascending color
    /// order.
    pub(crate) fn by_color(g: &ColoredGraph) -> Partition {
        let n = g.num_vertices();
        let mut elems: Vec<u32> = (0..n as u32).collect();
        elems.sort_by_key(|&v| g.color(v as usize));
        let mut pos = vec![0u32; n];
        let mut cell = vec![0u32; n];
        let mut len = vec![0u32; n];
        let mut start = 0;
        let mut cells = usize::from(n > 0);
        for (i, &v) in elems.iter().enumerate() {
            if g.color(v as usize) != g.color(elems[start] as usize) {
                start = i;
                cells += 1;
            }
            pos[v as usize] = i as u32;
            cell[v as usize] = start as u32;
            len[start] += 1;
        }
        Partition { elems, pos, cell, len, cells }
    }

    /// The cells in position order, each with its start position.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let mut s = 0;
        std::iter::from_fn(move || {
            (s < self.elems.len()).then(|| {
                let start = s;
                s += self.len[start] as usize;
                (start, self.cell(start))
            })
        })
    }

    /// Number of cells.
    #[cfg(test)]
    pub(crate) fn num_cells(&self) -> usize {
        self.cells
    }

    /// `true` when every cell is a singleton.
    fn is_discrete(&self) -> bool {
        self.cells == self.elems.len()
    }

    /// Start position of the cell holding `v`.
    pub(crate) fn cell_of(&self, v: usize) -> usize {
        self.cell[v] as usize
    }

    /// The members of the cell starting at `start`.
    pub(crate) fn cell(&self, start: usize) -> &[u32] {
        &self.elems[start..start + self.len[start] as usize]
    }

    /// Start position of the first cell with more than one vertex; `None`
    /// when the partition is discrete.
    pub(crate) fn first_non_singleton(&self) -> Option<usize> {
        self.cells().find(|(_, cell)| cell.len() > 1).map(|(s, _)| s)
    }

    /// The vertex array: at a discrete partition, `elems()[i]` is the only
    /// vertex of the cell at position `i`.
    pub(crate) fn elems(&self) -> &[u32] {
        &self.elems
    }

    /// Splits `v` off its cell as a singleton at the cell's last position
    /// and returns that position. The rest of the cell keeps its start.
    pub(crate) fn individualize(&mut self, v: usize) -> usize {
        let s = self.cell[v] as usize;
        let last = s + self.len[s] as usize - 1;
        if last == s {
            return s;
        }
        self.swap_to(v, last);
        self.len[s] -= 1;
        self.len[last] = 1;
        self.cell[v] = last as u32;
        self.cells += 1;
        last
    }

    /// Moves `v` to position `at`, swapping with the vertex there.
    fn swap_to(&mut self, v: usize, at: usize) {
        let from = self.pos[v] as usize;
        let u = self.elems[at];
        self.elems.swap(from, at);
        self.pos[u as usize] = from as u32;
        self.pos[v] = at as u32;
    }
}

/// What a refinement does with its split trace: record it, or check it
/// against a recorded one.
pub(crate) enum Trace<'a> {
    /// Appends every trace word.
    Record(&'a mut Vec<u32>),
    /// Compares every trace word with `expected[at]`, failing on the first
    /// difference.
    Check {
        /// The recorded trace of the other side.
        expected: &'a [u32],
        /// Words compared so far.
        at: usize,
    },
}

impl<'a> Trace<'a> {
    /// A trace that checks against `expected`.
    pub(crate) fn check(expected: &'a [u32]) -> Trace<'a> {
        Trace::Check { expected, at: 0 }
    }

    /// Emits one word; `false` when it differs from the expected trace.
    fn emit(&mut self, word: u32) -> bool {
        match self {
            Trace::Record(out) => {
                out.push(word);
                true
            }
            Trace::Check { expected, at } => {
                let ok = expected.get(*at) == Some(&word);
                *at += 1;
                ok
            }
        }
    }

    /// `true` unless a check trace stopped short of its expected length.
    fn complete(&self) -> bool {
        match self {
            Trace::Record(_) => true,
            Trace::Check { expected, at } => *at == expected.len(),
        }
    }
}

/// Splitter-queue refinement of [`Partition`]s of one graph, with scratch
/// space reused across calls.
pub(crate) struct Refiner<'g> {
    g: &'g ColoredGraph,
    /// `count[w]` — neighbours of `w` in the current splitter.
    count: Vec<u32>,
    /// Vertices with a non-zero count.
    touched: Vec<u32>,
    /// `(cell start, touched members)` of every touched cell.
    touched_cells: Vec<(u32, u32)>,
    /// `hits[s]` — touched members of the cell at `s`, during one splitter.
    hits: Vec<u32>,
    /// Fragment boundaries of the cell being split.
    bounds: Vec<usize>,
    /// Splitter cells, by start position.
    queue: VecDeque<u32>,
    /// `queued[s]` — the cell at `s` is in `queue`.
    queued: Vec<bool>,
}

impl<'g> Refiner<'g> {
    /// Scratch space for refining partitions of `g`.
    pub(crate) fn new(g: &'g ColoredGraph) -> Refiner<'g> {
        let n = g.num_vertices();
        Refiner {
            g,
            count: vec![0; n],
            touched: Vec::new(),
            touched_cells: Vec::new(),
            hits: vec![0; n],
            bounds: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; n],
        }
    }

    /// The graph being refined.
    pub(crate) fn graph(&self) -> &'g ColoredGraph {
        self.g
    }

    /// Refines `p` to equitability with every cell as a splitter.
    pub(crate) fn refine_all(&mut self, p: &mut Partition) {
        let starts: Vec<usize> = p.cells().map(|(s, _)| s).collect();
        for s in starts {
            self.enqueue(s as u32);
        }
        let mut sink = Vec::new();
        self.run(p, &mut Trace::Record(&mut sink));
    }

    /// Individualizes `v` in the equitable partition `p` and refines with
    /// the new singleton as the only splitter. Returns `false` as soon as
    /// the split trace departs from a [`Trace::Check`] (`p` is then left
    /// half refined).
    pub(crate) fn individualize(&mut self, p: &mut Partition, v: usize, trace: &mut Trace) -> bool {
        let s = p.individualize(v);
        self.enqueue(s as u32);
        self.run(p, trace)
    }

    fn enqueue(&mut self, s: u32) {
        if !self.queued[s as usize] {
            self.queued[s as usize] = true;
            self.queue.push_back(s);
        }
    }

    /// Drains the splitter queue. On a trace mismatch, empties the queue
    /// and returns `false`.
    fn run(&mut self, p: &mut Partition, trace: &mut Trace) -> bool {
        while let Some(s) = self.queue.pop_front() {
            self.queued[s as usize] = false;
            if p.is_discrete() {
                // Nothing left to split; both sides of a pair stop here.
                continue;
            }
            if !self.split_by(p, s as usize, trace) {
                for s in self.queue.drain(..) {
                    self.queued[s as usize] = false;
                }
                return false;
            }
        }
        trace.complete()
    }

    /// Splits every cell the splitter at `s` touches by neighbour count;
    /// `false` (with the splits stopped) once the trace departs from the
    /// expected one.
    fn split_by(&mut self, p: &mut Partition, s: usize, trace: &mut Trace) -> bool {
        let g = self.g;
        for i in s..s + p.len[s] as usize {
            for &w in g.neighbors(p.elems[i] as usize) {
                if self.count[w as usize] == 0 {
                    self.touched.push(w);
                }
                self.count[w as usize] += 1;
            }
        }
        for &w in &self.touched {
            let c = p.cell[w as usize] as usize;
            if self.hits[c] == 0 {
                self.touched_cells.push((c as u32, 0));
            }
            self.hits[c] += 1;
        }
        for t in &mut self.touched_cells {
            t.1 = self.hits[t.0 as usize];
        }
        // Gather each cell's touched members at its tail.
        for &w in &self.touched {
            let c = p.cell[w as usize] as usize;
            let at = c + p.len[c] as usize - self.hits[c] as usize;
            self.hits[c] -= 1;
            p.swap_to(w as usize, at);
        }
        self.touched_cells.sort_unstable();
        let mut same = trace.emit(self.touched_cells.len() as u32);
        for k in 0..self.touched_cells.len() {
            let (c, hit) = self.touched_cells[k];
            same = same && self.split_cell(p, c as usize, hit as usize, trace);
        }
        for &w in &self.touched {
            self.count[w as usize] = 0;
        }
        self.touched.clear();
        self.touched_cells.clear();
        same
    }

    /// Splits the cell at `c`, whose last `hit` members are the touched
    /// ones, into fragments of equal count, ascending.
    fn split_cell(&mut self, p: &mut Partition, c: usize, hit: usize, trace: &mut Trace) -> bool {
        let len = p.len[c] as usize;
        let end = c + len;
        let tail = end - hit;
        let count = &self.count;
        let key = |v: &u32| count[*v as usize];
        let first = key(&p.elems[tail]);
        if p.elems[tail..end].iter().any(|v| key(v) != first) {
            p.elems[tail..end].sort_unstable_by_key(key);
            for i in tail..end {
                p.pos[p.elems[i] as usize] = i as u32;
            }
        }
        // Fragments: the untouched head (count 0), then runs of equal count.
        let mut bounds = std::mem::take(&mut self.bounds);
        bounds.clear();
        if tail > c {
            bounds.push(c);
        }
        for i in tail..end {
            if i == tail || key(&p.elems[i]) != key(&p.elems[i - 1]) {
                bounds.push(i);
            }
        }
        bounds.push(end);
        let fragments = bounds.len() - 1;
        let same = trace.emit(c as u32)
            && trace.emit(fragments as u32)
            && bounds.windows(2).all(|w| {
                let k = if w[0] < tail { 0 } else { key(&p.elems[w[0]]) };
                trace.emit(k) && trace.emit((w[1] - w[0]) as u32)
            });
        if fragments > 1 && same {
            self.split(p, c, &bounds);
        }
        self.bounds = bounds;
        same
    }

    /// Splits the cell at `c` into the fragments `bounds` delimits and
    /// queues them.
    fn split(&mut self, p: &mut Partition, c: usize, bounds: &[usize]) {
        let fragments = bounds.len() - 1;
        p.cells += fragments - 1;
        let was_queued = self.queued[c];
        let mut largest = 0;
        for f in 0..fragments {
            let (fs, fe) = (bounds[f], bounds[f + 1]);
            p.len[fs] = (fe - fs) as u32;
            if f > 0 {
                for i in fs..fe {
                    p.cell[p.elems[i] as usize] = fs as u32;
                }
            }
            if fe - fs > bounds[largest + 1] - bounds[largest] {
                largest = f;
            }
        }
        for (f, &fs) in bounds[..fragments].iter().enumerate() {
            if f != largest || was_queued {
                self.enqueue(fs as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refined(g: &ColoredGraph) -> Partition {
        let mut p = Partition::by_color(g);
        Refiner::new(g).refine_all(&mut p);
        p
    }

    #[test]
    fn refine_splits_by_degree() {
        // Path 0-1-2: endpoints vs middle.
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], None);
        let p = refined(&g);
        assert_eq!(p.num_cells(), 2);
        assert_eq!(p.cell_of(0), p.cell_of(2));
        assert_ne!(p.cell_of(0), p.cell_of(1));
    }

    #[test]
    fn refine_respects_initial_colors() {
        let g = ColoredGraph::from_edges(2, [], Some(vec![9, 7]));
        let p = refined(&g);
        assert_eq!(p.num_cells(), 2);
        // Cells come in ascending color order.
        assert_eq!(p.elems(), &[1, 0]);
    }

    #[test]
    fn cycle_stays_one_cell() {
        let g = ColoredGraph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)), None);
        let p = refined(&g);
        assert_eq!(p.num_cells(), 1);
        assert_eq!(p.first_non_singleton(), Some(0));
    }

    #[test]
    fn refinement_distinguishes_distance_classes() {
        // Star plus a pendant path: 0 center; leaves 1,2,3; path 3-4.
        let g = ColoredGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], None);
        let p = refined(&g);
        // Cells: {0}, {1,2}, {3}, {4}.
        assert_eq!(p.num_cells(), 4);
        assert_eq!(p.cell_of(1), p.cell_of(2));
    }

    #[test]
    fn refinement_is_equitable() {
        // Every vertex of a cell has the same number of neighbours in every
        // cell, on random two-colored graphs.
        use rand::{Rng, SeedableRng};
        for seed in 0..200 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..40);
            let edges: Vec<(usize, usize)> =
                (0..2 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
            let colors = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let g = ColoredGraph::from_edges(n, edges, Some(colors));
            let p = refined(&g);
            for (s, cell) in p.cells() {
                for (t, _) in p.cells() {
                    let counts: Vec<usize> = cell
                        .iter()
                        .map(|&v| {
                            let nbrs = g.neighbors(v as usize).iter();
                            nbrs.filter(|&&w| p.cell_of(w as usize) == t).count()
                        })
                        .collect();
                    assert!(counts.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {s} vs {t}");
                }
            }
        }
    }

    /// Individualizes `a` on one side and `b` on the other, refining the
    /// second against the first's trace.
    fn pair(g: &ColoredGraph, a: usize, b: usize) -> (Partition, Partition, bool) {
        let base = refined(g);
        let mut refiner = Refiner::new(g);
        let (mut left, mut right) = (base.clone(), base);
        let mut trace = Vec::new();
        assert!(refiner.individualize(&mut left, a, &mut Trace::Record(&mut trace)));
        let ok = refiner.individualize(&mut right, b, &mut Trace::check(&trace));
        (left, right, ok)
    }

    #[test]
    fn pair_refinement_diverges_on_individualization_mismatch() {
        // C3 + C4 is 2-regular, so refinement leaves one cell; a triangle
        // vertex and a square vertex part ways once individualized.
        let mut edges: Vec<(usize, usize)> = (0..3).map(|i| (i, (i + 1) % 3)).collect();
        edges.extend((0..4).map(|i| (3 + i, 3 + (i + 1) % 4)));
        let g = ColoredGraph::from_edges(7, edges, None);
        assert_eq!(refined(&g).num_cells(), 1);
        let (.., ok) = pair(&g, 0, 3);
        assert!(!ok, "triangle vertex vs square vertex must diverge");
        let (.., ok) = pair(&g, 3, 5);
        assert!(ok, "two square vertices refine alike");
    }

    #[test]
    fn pair_refinement_succeeds_on_symmetric_choice() {
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], None);
        let (left, right, ok) = pair(&g, 0, 2);
        assert!(ok);
        // Both partitions are now discrete and correspond.
        assert!(left.first_non_singleton().is_none());
        assert!(right.first_non_singleton().is_none());
        let images: Vec<(u32, u32)> =
            left.elems().iter().copied().zip(right.elems().iter().copied()).collect();
        assert!(images.contains(&(0, 2)) && images.contains(&(1, 1)) && images.contains(&(2, 0)));
    }

    #[test]
    fn individualize_creates_singleton() {
        let g = ColoredGraph::from_edges(4, (0..4).map(|i| (i, (i + 1) % 4)), None);
        let mut p = refined(&g);
        let mut sink = Vec::new();
        Refiner::new(&g).individualize(&mut p, 2, &mut Trace::Record(&mut sink));
        assert_eq!(p.cell(p.cell_of(2)), &[2]);
        // The opposite vertex 0 is now alone too; 1 and 3 still share.
        assert_eq!(p.cell(p.cell_of(0)), &[0]);
        let s = p.first_non_singleton().expect("1 and 3 still symmetric");
        let mut rest = p.cell(s).to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 3]);
    }
}
