//! Exact chromatic numbers via the paper's K-selection procedure.
//!
//! Since the persistent-session refactor, the default path for every
//! CDCL-backed configuration (including the portfolio) is the
//! *incremental ladder*: encode once at `K = min(options.k, DSATUR)`,
//! then walk the upper bound down with assumption queries against
//! long-lived solver state ([`crate::session::ColoringSession`]). Learned
//! clauses survive from one ladder step to the next instead of being
//! re-derived per K. The rung loop itself lives in [`crate::supervisor`]:
//! [`chromatic_number_outcome`] runs it as one attempt with no
//! checkpoint, resume or watchdog, and [`crate::solve_supervised`] runs
//! the same loop with them switched on. The one-shot optimization run
//! remains for the CPLEX baseline and for instance-dependent (Shatter)
//! SBPs, which the session cannot drive soundly (see `DESIGN.md` §4g).

use crate::error::SolveError;
use crate::flow::{try_solve_coloring, ColoringOutcome, SolveOptions};
use crate::session::ColoringSession;
use crate::supervisor::{run_ladder, SolveState};
use sbgc_graph::{algo, Coloring, Graph};
use sbgc_pb::ExhaustReason;

/// Cheap combinatorial bounds on the chromatic number.
#[derive(Clone, Debug)]
pub struct ChromaticBounds {
    /// Clique lower bound (greedy max clique).
    pub lower: usize,
    /// DSATUR upper bound.
    pub upper: usize,
    /// The DSATUR coloring that witnesses the upper bound.
    pub witness: Coloring,
}

/// Computes the clique lower bound and DSATUR upper bound — step 1 of the
/// paper's per-instance K-selection procedure (Section 4.1).
pub fn bounds(graph: &Graph) -> ChromaticBounds {
    let witness = algo::dsatur(graph);
    let lower = algo::greedy_clique(graph).len().max(usize::from(graph.num_vertices() > 0));
    ChromaticBounds { lower, upper: witness.num_colors(), witness }
}

/// The input checks every chromatic entry point shares: χ is undefined
/// on the empty graph, and the encoding needs at least one color.
pub(crate) fn check_inputs(graph: &Graph, options: &SolveOptions) -> Result<(), SolveError> {
    match (graph.num_vertices(), options.k) {
        (0, _) => Err(SolveError::EmptyGraph),
        (_, 0) => Err(SolveError::ZeroColorBound),
        _ => Ok(()),
    }
}

/// The bracket the exact search actually starts from: the one-shot greedy
/// [`bounds`], tightened by the heuristic race of [`crate::heuristics`]
/// when `options.heuristics` allows it (the default). The race's TabuCol
/// and PartialCol descents cap the upper bound below DSATUR and its
/// clique search lifts the lower bound beyond the greedy clique; every
/// heuristic result is re-validated against the graph before it may
/// tighten the bracket (see `DESIGN.md` §4i).
///
/// # Errors
///
/// [`SolveError::BoundContradiction`] if the tightened bracket crosses
/// (`upper < lower`) — impossible while both validators are sound, so it
/// is surfaced instead of being clamped away.
pub fn initial_bounds(
    graph: &Graph,
    options: &SolveOptions,
) -> Result<ChromaticBounds, SolveError> {
    let b = bounds(graph);
    if !options.heuristics || b.lower >= b.upper {
        return Ok(b);
    }
    let h = crate::heuristics::race_heuristics(graph, options, &b);
    if h.upper < h.lower {
        return Err(SolveError::BoundContradiction {
            lower: h.lower,
            upper: h.upper,
            detail: "heuristic race produced a crossed bracket".to_string(),
        });
    }
    Ok(ChromaticBounds { lower: h.lower, upper: h.upper, witness: h.witness })
}

/// Result of [`chromatic_number`].
#[derive(Clone, Debug)]
pub enum ChromaticResult {
    /// Chromatic number determined exactly, with a witness coloring.
    Exact {
        /// χ(G).
        chromatic_number: usize,
        /// A proper coloring using χ(G) colors.
        witness: Coloring,
    },
    /// The budget ran out; χ is within the given (inclusive) bounds.
    Bounded {
        /// Best known lower bound.
        lower: usize,
        /// Best known upper bound, witnessed by `witness`.
        upper: usize,
        /// A proper coloring using `upper` colors.
        witness: Coloring,
    },
}

impl ChromaticResult {
    /// The exact chromatic number, if determined.
    pub fn exact(&self) -> Option<usize> {
        match self {
            ChromaticResult::Exact { chromatic_number, .. } => Some(*chromatic_number),
            ChromaticResult::Bounded { .. } => None,
        }
    }

    /// The best witness coloring available.
    pub fn witness(&self) -> &Coloring {
        match self {
            ChromaticResult::Exact { witness, .. } | ChromaticResult::Bounded { witness, .. } => {
                witness
            }
        }
    }

    /// The proven inclusive bracket `[lower, upper]` on χ — collapsed to a
    /// point for exact results. Even a budget-starved run returns an
    /// honest bracket: the lower bound is proven (clique or refutation),
    /// the upper bound is witnessed by a verified coloring.
    pub fn bracket(&self) -> (usize, usize) {
        match self {
            ChromaticResult::Exact { chromatic_number, .. } => {
                (*chromatic_number, *chromatic_number)
            }
            ChromaticResult::Bounded { lower, upper, .. } => (*lower, *upper),
        }
    }
}

/// Result of [`chromatic_number_outcome`]: the chromatic answer plus the
/// reason the search stopped when it did not finish. Degrading gracefully
/// means a budget-starved query still returns everything it proved — the
/// bracket, the witness, and *which* limit stopped it.
#[derive(Clone, Debug)]
pub struct ChromaticOutcome {
    /// The chromatic answer (exact or bracketed).
    pub result: ChromaticResult,
    /// Why the search stopped early, when `result` is bounded because a
    /// limit was hit; `None` for exact results and for brackets that are
    /// final for other reasons (e.g. a K-cap below χ).
    pub exhaust: Option<ExhaustReason>,
}

impl ChromaticOutcome {
    /// The exact chromatic number, if determined.
    pub fn exact(&self) -> Option<usize> {
        self.result.exact()
    }

    /// The best witness coloring available.
    pub fn witness(&self) -> &Coloring {
        self.result.witness()
    }

    /// The proven inclusive bracket `[lower, upper]` on χ.
    pub fn bracket(&self) -> (usize, usize) {
        self.result.bracket()
    }
}

/// Computes the chromatic number exactly, following the paper's procedure:
/// take the DSATUR upper bound as K (clamped by `options.k` if smaller),
/// then search. By default the greedy bracket is first tightened by the
/// heuristic race of [`initial_bounds`] (disable with
/// [`SolveOptions::without_heuristics`] for the pure paper procedure). For every CDCL-backed configuration the search is the
/// incremental ladder of a [`ColoringSession`] (encode once at
/// `K = min(options.k, DSATUR bound − 1)`, then tighten the color budget
/// one step at a time by *assuming* the usage indicators `y[target..K]`
/// false, so clauses learned while refuting one target are reused by every
/// later query — the incremental-SAT refinement of the paper's Section 4.1
/// procedure; [`SolverKind::Portfolio`](sbgc_pb::SolverKind::Portfolio)
/// races a persistent portfolio on each query). The CPLEX baseline and
/// instance-dependent SBPs, which have no sound incremental interface, use
/// one exact-optimization run. The clique bound can certify optimality
/// without search.
///
/// `options.k` acts as a cap (like the paper's K = 20 application bound);
/// the effective K is `min(options.k, DSATUR bound − 1)` — the
/// largest color count any ladder query can ask for.
///
/// # Panics
///
/// Panics if `options.k == 0` or the graph has no vertices. Use
/// [`chromatic_number_outcome`] for the non-panicking form (which also
/// reports why a bounded search stopped).
pub fn chromatic_number(graph: &Graph, options: &SolveOptions) -> ChromaticResult {
    chromatic_number_outcome(graph, options).unwrap_or_else(|e| panic!("{e}")).result
}

/// [`chromatic_number`] with typed errors and graceful degradation: input
/// failures (empty graph, zero K) become [`SolveError`]s, and when the
/// budget runs out the returned [`ChromaticOutcome`] carries both the
/// proven `[lower, upper]` bracket and the [`ExhaustReason`] that stopped
/// the search.
pub fn chromatic_number_outcome(
    graph: &Graph,
    options: &SolveOptions,
) -> Result<ChromaticOutcome, SolveError> {
    check_inputs(graph, options)?;
    let b = initial_bounds(graph, options)?;
    if b.lower >= b.upper {
        // The bracket is already collapsed (DSATUR met the clique bound,
        // or the heuristic race closed the gap): provably optimal without
        // any exact search.
        return Ok(ChromaticOutcome {
            result: ChromaticResult::Exact { chromatic_number: b.upper, witness: b.witness },
            exhaust: None,
        });
    }
    if ColoringSession::supports(options) {
        let ladder = run_ladder(graph, options.clone(), SolveState::from(b), None, None)?;
        return Ok(ladder.outcome);
    }
    chromatic_number_via_optimization(graph, options, b)
}

/// The pre-session path: one `try_solve_coloring` optimization run at
/// `K = min(options.k, DSATUR)`. Still the only option for the CPLEX
/// baseline and for instance-dependent SBPs.
fn chromatic_number_via_optimization(
    graph: &Graph,
    options: &SolveOptions,
    b: ChromaticBounds,
) -> Result<ChromaticOutcome, SolveError> {
    let k = b.upper.min(options.k);
    // When the cap is below the known-feasible bound, the search below can
    // still determine χ exactly if χ ≤ k.
    let mut opts = options.clone();
    opts.k = k;
    let report = try_solve_coloring(graph, &opts)?;
    let exhaust = report.exhaust;
    let result = match report.outcome {
        ColoringOutcome::Optimal { coloring, colors } => {
            if colors < b.lower {
                return Err(SolveError::BoundContradiction {
                    lower: b.lower,
                    upper: colors,
                    detail: "optimal witness below the proven clique bound".to_string(),
                });
            }
            ChromaticResult::Exact { chromatic_number: colors, witness: coloring }
        }
        ColoringOutcome::InfeasibleAtK => {
            // χ > k; DSATUR's bound stands as the upper bound. When the
            // cap was below the clique bound, k + 1 would *regress* the
            // already-known lower bound — keep the max of the two.
            ChromaticResult::Bounded {
                lower: (k + 1).max(b.lower),
                upper: b.upper,
                witness: b.witness,
            }
        }
        ColoringOutcome::Feasible { coloring, colors } => {
            collapse_feasible(graph, b.lower, coloring, colors)?
        }
        ColoringOutcome::Unknown => {
            ChromaticResult::Bounded { lower: b.lower, upper: b.upper, witness: b.witness }
        }
    };
    // An exact answer supersedes any limit hit along the way.
    let exhaust = if result.exact().is_some() { None } else { exhaust };
    Ok(ChromaticOutcome { result, exhaust })
}

/// Collapses a budget-starved *feasible* answer onto the proven bracket.
///
/// A witness that meets the clique lower bound proves optimality even
/// though the solver ran out of budget — but only after re-validation.
/// The previous behavior treated `colors <= lower` as `Exact`, which
/// would have laundered two distinct invariant violations into a fake
/// proof: a witness *below* a proven lower bound (one of the two
/// "proofs" must be wrong) and an improper witness whose color count
/// coincidentally matched. Both now surface as
/// [`SolveError::BoundContradiction`] (see `DESIGN.md` §4i).
fn collapse_feasible(
    graph: &Graph,
    lower: usize,
    coloring: Coloring,
    colors: usize,
) -> Result<ChromaticResult, SolveError> {
    if colors < lower {
        return Err(SolveError::BoundContradiction {
            lower,
            upper: colors,
            detail: "feasible witness below the proven clique bound".to_string(),
        });
    }
    if colors > lower {
        return Ok(ChromaticResult::Bounded { lower, upper: colors, witness: coloring });
    }
    // colors == lower: re-validate before promoting the bracket collapse
    // into an `Exact` claim.
    if coloring.num_vertices() == graph.num_vertices()
        && coloring.is_proper(graph)
        && coloring.num_colors() == colors
    {
        Ok(ChromaticResult::Exact { chromatic_number: colors, witness: coloring })
    } else {
        Err(SolveError::BoundContradiction {
            lower,
            upper: colors,
            detail: "feasible witness failed re-validation at bracket collapse".to_string(),
        })
    }
}

/// How [`chromatic_number_by_decision`] walks the K range — the two
/// options of the paper's Section 4.1 procedure ("perform linear search by
/// incrementally tightening the color constraint, otherwise perform binary
/// search").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SearchStrategy {
    /// Tighten K one color at a time from the DSATUR bound downwards.
    Linear,
    /// Bisect between the clique bound and the DSATUR bound.
    Binary,
}

/// Computes the chromatic number with repeated *decision* queries ("is G
/// K-colorable?"), the way a pure CNF-SAT solver would be driven (paper
/// Section 2.3 / 4.1), instead of one optimization run.
///
/// Uses `options` for the per-query SBP/solver/budget configuration; the
/// objective is dropped from each query. Returns bounds if the budget runs
/// out mid-search.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn chromatic_number_by_decision(
    graph: &Graph,
    options: &SolveOptions,
    strategy: SearchStrategy,
) -> ChromaticResult {
    use crate::encode::ColoringEncoding;
    use crate::sbp::add_instance_independent_sbps;
    use sbgc_obs::Phase;
    use sbgc_pb::{solve_decision_recorded, DecisionBackend, SolverKind};

    assert!(graph.num_vertices() > 0, "chromatic number of the empty graph is undefined here");
    let recorder = &options.recorder;
    let b = bounds(graph);
    if b.lower >= b.upper {
        return ChromaticResult::Exact { chromatic_number: b.upper, witness: b.witness };
    }
    // Query: is the graph k-colorable? Some(witness) / None, or Err on
    // budget exhaustion.
    let query = |k: usize| -> Result<Option<Coloring>, ()> {
        let mut enc = {
            let _span = recorder.span(Phase::Encode);
            ColoringEncoding::new(graph, k)
        };
        enc.formula_mut().clear_objective();
        {
            let _span = recorder.span(Phase::Sbp);
            let _ = add_instance_independent_sbps(&mut enc, graph, options.sbp_mode);
        }
        if matches!(options.symmetry, crate::flow::SymmetryHandling::WithInstanceDependent) {
            let _span = recorder.span(Phase::Detect);
            let _ = sbgc_shatter::shatter(enc.formula_mut(), &options.shatter);
        }
        // Each K-query is an independent decision problem, so parallelism
        // applies per query: race a diversified portfolio when requested.
        let out = {
            let _span = recorder.span(Phase::Solve);
            match options.solver {
                SolverKind::Cplex => solve_decision_recorded(
                    enc.formula(),
                    options.solver,
                    &options.budget,
                    recorder,
                ),
                solver => {
                    DecisionBackend::new(enc.formula(), solver, options.parallelism, recorder)
                        .query(&[], &options.budget)
                        .outcome
                }
            }
        };
        let _span = recorder.span(Phase::Verify);
        match out {
            out if out.is_unsat() => Ok(None),
            out => match out.model() {
                Some(m) => {
                    let c = enc.decode(m).filter(|c| c.is_proper(graph)).ok_or(())?;
                    Ok(Some(c.compacted()))
                }
                None => Err(()),
            },
        }
    };

    let mut lo = b.lower; // known: χ >= lo
    let mut hi = b.upper; // known: χ <= hi, witnessed
    let mut witness = b.witness;
    loop {
        if lo >= hi {
            return ChromaticResult::Exact { chromatic_number: hi, witness };
        }
        let k = match strategy {
            SearchStrategy::Linear => hi - 1,
            SearchStrategy::Binary => (lo + hi - 1) / 2,
        };
        match query(k) {
            Ok(Some(c)) => {
                hi = c.num_colors().min(k);
                witness = c;
            }
            Ok(None) => lo = k + 1,
            Err(()) => return ChromaticResult::Bounded { lower: lo, upper: hi, witness },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbp::SbpMode;
    use sbgc_graph::gen::{mycielski, queens};
    use sbgc_pb::Budget;

    #[test]
    fn known_chromatic_numbers() {
        let cases: [(&str, Graph, usize); 5] = [
            ("K4", Graph::complete(4), 4),
            ("C5", Graph::cycle(5), 3),
            ("C6", Graph::cycle(6), 2),
            ("myciel3", mycielski(3), 4),
            ("queen5_5", queens(5, 5), 5),
        ];
        for (name, g, expected) in cases {
            let result = chromatic_number(&g, &SolveOptions::new(20));
            assert_eq!(result.exact(), Some(expected), "{name}");
            assert!(result.witness().is_proper(&g), "{name}");
        }
    }

    #[test]
    fn clique_certificate_avoids_search() {
        // Complete graphs: clique bound == DSATUR bound, no solver needed.
        let g = Graph::complete(6);
        let result = chromatic_number(
            &g,
            &SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(0)),
        );
        assert_eq!(result.exact(), Some(6));
    }

    #[test]
    fn cap_below_chi_reports_bounds() {
        // bounds() certifies K5 without search, so use a graph where
        // DSATUR overshoots: Mycielski-3 has clique 2 but χ = 4. A K-cap
        // of 3 refutes 3-colorability, so the lower bound must rise to 4;
        // whether that closes the bracket depends on the DSATUR witness
        // (4 colors → exact; more → a [4, upper] bracket).
        let g2 = mycielski(3);
        let result = chromatic_number(&g2, &SolveOptions::new(3));
        match result {
            ChromaticResult::Bounded { lower, upper, ref witness } => {
                assert_eq!(lower, 4);
                assert!(witness.is_proper(&g2));
                assert!(upper >= 4);
            }
            ChromaticResult::Exact { chromatic_number, ref witness } => {
                assert_eq!(chromatic_number, 4);
                assert!(witness.is_proper(&g2));
                assert_eq!(witness.num_colors(), 4);
            }
        }
    }

    #[test]
    fn infeasible_cap_keeps_clique_lower_bound() {
        // queens(6,6): clique bound 6, DSATUR bound 9. A cap of 4 is below
        // the clique bound; proving "not 4-colorable" must not *regress*
        // the reported lower bound to 5.
        let g = queens(6, 6);
        let b = bounds(&g);
        assert!(b.lower >= 6, "test premise: clique bound is {}", b.lower);
        match chromatic_number(&g, &SolveOptions::new(4)) {
            ChromaticResult::Bounded { lower, upper, .. } => {
                assert!(lower >= b.lower, "lower bound regressed: {lower} < {}", b.lower);
                assert!(upper >= lower);
            }
            ChromaticResult::Exact { .. } => panic!("cap 4 cannot certify χ of queens(6,6)"),
        }
    }

    #[test]
    fn sbp_modes_do_not_change_chi() {
        let g = queens(5, 5);
        for mode in SbpMode::ALL {
            let result = chromatic_number(&g, &SolveOptions::new(20).with_sbp_mode(mode));
            assert_eq!(result.exact(), Some(5), "{mode}");
        }
    }

    #[test]
    fn decision_search_agrees_with_optimization() {
        for g in [Graph::cycle(5), mycielski(3), queens(4, 4), Graph::complete(4)] {
            let expected = chromatic_number(&g, &SolveOptions::new(20)).exact();
            for strategy in [SearchStrategy::Linear, SearchStrategy::Binary] {
                let result = chromatic_number_by_decision(&g, &SolveOptions::new(20), strategy);
                assert_eq!(result.exact(), expected, "{strategy:?}");
                assert!(result.witness().is_proper(&g));
            }
        }
    }

    #[test]
    fn decision_search_with_sbps_and_shatter() {
        let g = queens(5, 5);
        let opts =
            SolveOptions::new(20).with_sbp_mode(SbpMode::NuSc).with_instance_dependent_sbps();
        let result = chromatic_number_by_decision(&g, &opts, SearchStrategy::Binary);
        assert_eq!(result.exact(), Some(5));
    }

    #[test]
    fn decision_search_budget_exhaustion_gives_bounds() {
        use sbgc_pb::Budget;
        let g = mycielski(4);
        let opts = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
        let result = chromatic_number_by_decision(&g, &opts, SearchStrategy::Linear);
        match result {
            ChromaticResult::Bounded { lower, upper, ref witness } => {
                assert!(lower <= 5 && upper >= 5);
                assert!(witness.is_proper(&g));
            }
            ChromaticResult::Exact { chromatic_number, .. } => {
                assert_eq!(chromatic_number, 5)
            }
        }
    }

    #[test]
    fn incremental_agrees_with_optimization() {
        for g in [Graph::cycle(5), mycielski(3), queens(4, 4), Graph::cycle(6)] {
            let expected = chromatic_number(&g, &SolveOptions::new(20)).exact();
            for mode in [SbpMode::None, SbpMode::Nu, SbpMode::NuSc] {
                let opts = SolveOptions::new(20).with_sbp_mode(mode);
                let result = chromatic_number(&g, &opts);
                assert_eq!(result.exact(), expected, "{mode}");
                assert!(result.witness().is_proper(&g), "{mode}");
            }
        }
    }

    #[test]
    fn incremental_on_queens() {
        let g = queens(5, 5);
        let result = chromatic_number(&g, &SolveOptions::new(20).with_sbp_mode(SbpMode::Nu));
        assert_eq!(result.exact(), Some(5));
    }

    #[test]
    fn incremental_cplex_falls_back() {
        use sbgc_pb::SolverKind;
        let g = mycielski(3);
        let opts = SolveOptions::new(20).with_solver(SolverKind::Cplex);
        let result = chromatic_number(&g, &opts);
        assert_eq!(result.exact(), Some(4));
    }

    #[test]
    fn incremental_portfolio_runs_in_session() {
        // The portfolio must drive the persistent session, not fall back
        // to one-shot optimization: the recorder's ladder telemetry only
        // exists on the session path, and it must show multiple workers.
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        use sbgc_pb::SolverKind;
        // χ = 7 with clique bound 6 and DSATUR bound 8: search needed.
        let g = gnp(24, 0.5, 3);
        let recorder = Recorder::new();
        // Heuristics off: the race could close the bracket by itself and
        // leave no ladder step for the assertions below.
        let opts = SolveOptions::new(20)
            .with_solver(SolverKind::Portfolio)
            .with_recorder(recorder.clone())
            .without_heuristics();
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        assert_eq!(out.exact(), Some(7));
        let steps = recorder.ladder_steps();
        assert!(!steps.is_empty(), "session path must record ladder telemetry");
        assert!(steps.iter().all(|s| s.workers > 1), "portfolio session must race workers");
    }

    #[test]
    fn ladder_retains_clauses_across_steps() {
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        // χ = 7, clique bound 6, DSATUR bound 8: the ladder runs a SAT
        // query at 7 and then an UNSAT query at 6 through the same engine.
        let g = gnp(24, 0.5, 3);
        let recorder = Recorder::new();
        // Heuristics off: a TabuCol incumbent at 7 would collapse the
        // ladder to a single UNSAT query and leave nothing to retain.
        let opts = SolveOptions::new(20).with_recorder(recorder.clone()).without_heuristics();
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        assert_eq!(out.exact(), Some(7));
        let steps = recorder.ladder_steps();
        assert!(steps.len() >= 2, "expected a multi-step ladder, got {}", steps.len());
        assert_eq!(steps[0].retained_clauses, 0, "nothing to retain on the first query");
        assert!(
            steps[1..].iter().any(|s| s.retained_clauses > 0),
            "later ladder steps must reuse learned clauses: {steps:?}"
        );
    }

    #[test]
    fn incremental_empty_graph_is_a_typed_error() {
        let g = Graph::empty(0);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(5)).unwrap_err();
        assert_eq!(err, SolveError::EmptyGraph);
    }

    #[test]
    fn incremental_zero_k_is_a_typed_error() {
        let g = Graph::cycle(5);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(0)).unwrap_err();
        assert_eq!(err, SolveError::ZeroColorBound);
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = Graph::empty(0);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(5)).unwrap_err();
        assert_eq!(err, SolveError::EmptyGraph);
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let g = Graph::cycle(5);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(0)).unwrap_err();
        assert_eq!(err, SolveError::ZeroColorBound);
    }

    #[test]
    fn exhausted_search_returns_proven_bracket_and_reason() {
        // Mycielski-4: clique 2, χ = 5, DSATUR overshoots — search needed.
        let g = mycielski(4);
        let opts = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        match out.result {
            ChromaticResult::Bounded { lower, upper, ref witness } => {
                let (lo, hi) = out.bracket();
                assert_eq!((lo, hi), (lower, upper));
                assert!(lo <= 5 && hi >= 5, "bracket [{lo}, {hi}] must contain χ=5");
                assert!(witness.is_proper(&g), "upper bound must stay witnessed");
                assert_eq!(witness.num_colors(), hi);
                assert_eq!(out.exhaust, Some(ExhaustReason::Conflicts));
            }
            // A 1-conflict budget conceivably still decides; then no reason.
            ChromaticResult::Exact { chromatic_number, .. } => {
                assert_eq!(chromatic_number, 5);
                assert_eq!(out.exhaust, None);
            }
        }
    }

    #[test]
    fn exact_outcome_has_point_bracket_and_no_exhaust() {
        let g = queens(5, 5);
        let out = chromatic_number_outcome(&g, &SolveOptions::new(20)).expect("valid inputs");
        assert_eq!(out.exact(), Some(5));
        assert_eq!(out.bracket(), (5, 5));
        assert_eq!(out.exhaust, None);
        assert!(out.witness().is_proper(&g));
    }

    #[test]
    fn bounds_are_consistent() {
        for g in [Graph::cycle(7), mycielski(4), queens(4, 4)] {
            let b = bounds(&g);
            assert!(b.lower <= b.upper);
            assert!(b.witness.is_proper(&g));
            assert_eq!(b.witness.num_colors(), b.upper);
        }
    }

    #[test]
    fn initial_bounds_tighten_the_bracket_and_respect_the_flag() {
        let g = mycielski(4); // χ = 5; DSATUR may overshoot, greedy clique is 2.
        let base = bounds(&g);
        let off = initial_bounds(&g, &SolveOptions::new(20).without_heuristics())
            .expect("greedy bounds never contradict");
        assert_eq!(off.upper, base.upper, "the flag must restore the pure paper procedure");
        assert_eq!(off.lower, base.lower);
        let on = initial_bounds(&g, &SolveOptions::new(20)).expect("validated bounds");
        assert!(on.lower >= base.lower);
        assert!(on.upper <= base.upper, "heuristics must never loosen the bracket");
        assert_eq!(on.upper, 5, "TabuCol reliably lands χ(M4) = 5 on 23 vertices");
        assert!(on.witness.is_proper(&g));
        assert_eq!(on.witness.num_colors(), on.upper);
    }

    #[test]
    fn hybrid_search_agrees_and_records_heuristic_telemetry() {
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        // χ = 7, greedy clique 6, DSATUR 8: the race has a rung to skip.
        let g = gnp(24, 0.5, 3);
        let base = bounds(&g);
        let exact_only = chromatic_number_outcome(&g, &SolveOptions::new(20).without_heuristics())
            .expect("valid inputs");
        let recorder = Recorder::new();
        let hybrid =
            chromatic_number_outcome(&g, &SolveOptions::new(20).with_recorder(recorder.clone()))
                .expect("valid inputs");
        assert_eq!(hybrid.exact(), exact_only.exact(), "hybrid must prove the same χ");
        assert!(hybrid.witness().is_proper(&g));
        let h = recorder.heuristics().expect("hybrid run records heuristics telemetry");
        assert_eq!(h.dsatur_upper, base.upper);
        assert_eq!(h.greedy_clique_lower, base.lower);
        assert!(h.upper <= base.upper);
        assert_eq!(h.rungs_skipped, base.upper - h.upper);
        assert_eq!(h.workers, 3);
        assert_eq!(h.failed_workers, 0);
        assert_eq!(h.rejected_witnesses, 0);
        // Every exact query ran strictly below the heuristic cap.
        assert!(recorder.ladder_steps().iter().all(|s| s.target < h.upper));
    }

    #[test]
    fn feasible_collapse_validates_the_witness() {
        let g = Graph::cycle(5); // χ = 3
        let proper = sbgc_graph::algo::dsatur(&g);
        assert_eq!(proper.num_colors(), 3);
        match collapse_feasible(&g, 3, proper.clone(), 3).expect("validated collapse") {
            ChromaticResult::Exact { chromatic_number, .. } => assert_eq!(chromatic_number, 3),
            other => panic!("expected exact, got {other:?}"),
        }
        match collapse_feasible(&g, 2, proper, 3).expect("honest bracket") {
            ChromaticResult::Bounded { lower, upper, .. } => assert_eq!((lower, upper), (2, 3)),
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn feasible_collapse_below_lower_bound_is_a_contradiction() {
        // The old behavior reported `Exact { chromatic_number: 3 }` here:
        // a witness below a proven lower bound was laundered into a fake
        // optimality proof instead of being surfaced as an invariant
        // violation.
        let g = Graph::cycle(5);
        let proper = sbgc_graph::algo::dsatur(&g);
        let err = collapse_feasible(&g, 4, proper, 3).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { lower: 4, upper: 3, .. }), "{err}");
    }

    #[test]
    fn feasible_collapse_rejects_improper_and_miscounted_witnesses() {
        let g = Graph::cycle(5);
        // Improper witness whose color count matches the lower bound.
        let improper = Coloring::new(vec![0; 5]);
        let err = collapse_feasible(&g, 1, improper, 1).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { .. }), "{err}");
        // Proper witness whose actual color count contradicts the claim.
        let proper = sbgc_graph::algo::dsatur(&g); // 3 colors
        let err = collapse_feasible(&g, 2, proper, 2).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { .. }), "{err}");
    }
}
