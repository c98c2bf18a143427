//! Symmetry detection: graph automorphisms mapped back to literal
//! permutations.

use crate::graph::formula_graph;
use crate::litperm::{ConstraintIndex, LitPermutation};
use sbgc_aut::{automorphisms_with, AutomorphismOptions};
use sbgc_formula::PbFormula;
use std::time::{Duration, Instant};

/// Detection-stage statistics — the symmetry columns of the paper's
/// Table 2 (`#S` as `10^x`, `#G`, Saucy time).
#[derive(Clone, Debug)]
pub struct SymmetryReport {
    /// `log₁₀` of the symmetry-group order.
    pub order_log10: f64,
    /// Group order as `u128` when it fits.
    pub order: Option<u128>,
    /// Number of generators after spurious filtering.
    pub num_generators: usize,
    /// Generators dropped because they did not commute with negation or
    /// did not map the formula onto itself (spurious graph automorphisms;
    /// rare, see Section 2.4).
    pub spurious_dropped: usize,
    /// Wall-clock time of the whole detection stage: symmetry-graph
    /// construction, automorphism search and the spurious-generator
    /// filter (the sum of the three times below).
    pub detection_time: Duration,
    /// Time spent building the symmetry graph.
    pub graph_time: Duration,
    /// Time spent in the automorphism search.
    pub search_time: Duration,
    /// Time spent mapping generators back to literal permutations and
    /// dropping the spurious ones.
    pub filter_time: Duration,
    /// Vertices in the symmetry graph.
    pub graph_vertices: usize,
    /// Edges in the symmetry graph.
    pub graph_edges: usize,
    /// `false` if the automorphism search hit its budget (order is then a
    /// lower bound).
    pub exact: bool,
}

/// Detects the symmetries of `formula`: builds the colored symmetry graph,
/// computes its automorphism group, and maps each generator back to a
/// permutation of the formula's literals.
///
/// Generators that move literal vertices inconsistently with negation, or
/// that do not map the formula's constraints onto themselves (spurious
/// symmetries, possible only in the presence of circular implication
/// chains — see the paper, Section 2.4), are dropped and counted in the
/// report. The formula is indexed once, and each generator is checked only
/// on the constraints that touch the variables it moves.
pub fn detect_symmetries(
    formula: &PbFormula,
    opts: &AutomorphismOptions,
) -> (Vec<LitPermutation>, SymmetryReport) {
    let start = Instant::now();
    let fg = formula_graph(formula);
    let graph_time = start.elapsed();
    let group = automorphisms_with(&fg.graph, opts);
    let search_time = start.elapsed() - graph_time;
    let n2 = 2 * fg.num_vars;
    let mut index = None;
    let mut perms = Vec::new();
    let mut spurious = 0;
    for g in group.generators() {
        let images: Vec<u32> = (0..n2).map(|code| g.apply(code) as u32).collect();
        match LitPermutation::from_images(images) {
            Some(p) if !p.is_identity() => {
                // The efficient same-color literal encoding can produce
                // spurious automorphisms when the formula contains circular
                // implication chains (binary clause edges masquerading as
                // Boolean-consistency edges) — the paper notes these "can
                // be easily checked for", which is what we do here.
                if index.get_or_insert_with(|| ConstraintIndex::new(formula)).preserves(&p) {
                    perms.push(p);
                } else {
                    spurious += 1;
                }
            }
            Some(_) => {} // identity on literals (moves only constraint vertices)
            None => spurious += 1,
        }
    }
    let detection_time = start.elapsed();
    let report = SymmetryReport {
        order_log10: group.order_log10(),
        order: group.order_u128(),
        num_generators: perms.len(),
        spurious_dropped: spurious,
        detection_time,
        graph_time,
        search_time,
        filter_time: detection_time - graph_time - search_time,
        graph_vertices: fg.graph.num_vertices(),
        graph_edges: fg.graph.num_edges(),
        exact: group.is_exact(),
    };
    (perms, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{PbConstraint, Var};

    fn detect(f: &PbFormula) -> (Vec<LitPermutation>, SymmetryReport) {
        detect_symmetries(f, &AutomorphismOptions::default())
    }

    #[test]
    fn symmetric_or_clause() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.positive(), b.positive()]);
        let (perms, report) = detect(&f);
        assert!(!perms.is_empty());
        assert!(perms.iter().all(|p| p.preserves(&f)));
        assert!(report.order_log10 > 0.0);
    }

    #[test]
    fn asymmetric_formula_has_no_generators() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        // a forced, a->b: no symmetry (not even phase shifts).
        f.add_unit(a.positive());
        f.add_clause([a.negative(), b.positive()]);
        f.add_unit(b.positive());
        let (perms, _) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        // No permutation may move anything: a and b are distinguished.
        assert!(perms.is_empty(), "got {perms:?}");
    }

    #[test]
    fn exactly_one_block_is_fully_symmetric() {
        // exactly-one over k variables: symmetry group S_k on the block.
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(4).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        let (perms, report) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        // |S_4| = 24.
        assert_eq!(report.order, Some(24));
    }

    #[test]
    fn weighted_pb_restricts_symmetry() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        // 2a + b + c >= 2: only b<->c symmetric.
        f.add_pb(PbConstraint::at_least([(2, lits[0]), (1, lits[1]), (1, lits[2])], 2));
        let (perms, _) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        assert!(perms.iter().all(|p| p.apply(lits[0]).var() == lits[0].var()));
    }

    #[test]
    fn phase_shift_symmetry_found() {
        // A single unconstrained variable: x <-> ~x is a symmetry.
        let f = PbFormula::with_vars(1);
        let (perms, _) = detect(&f);
        assert!(perms.iter().any(|p| p.has_phase_shift()));
    }

    #[test]
    fn report_counts_graph_size() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause(lits);
        let (_, report) = detect(&f);
        assert_eq!(report.graph_vertices, 7);
        assert_eq!(report.graph_edges, 6);
        assert!(report.exact);
        assert_eq!(report.spurious_dropped, 0);
    }
}
