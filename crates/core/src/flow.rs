//! End-to-end coloring flows: encode → SBPs → (Shatter) → solve → decode
//! → verify.
//!
//! These are the *one-shot* flows: encode at a fixed K and run a single
//! optimization. Since the persistent-session refactor, the chromatic
//! searches in [`crate::chromatic`] route every CDCL-backed
//! configuration through the incremental ladder of
//! [`crate::session::ColoringSession`] instead; the flows here remain
//! the driver for single fixed-K solves, for the CPLEX baseline, and
//! for instance-dependent (Shatter) SBPs, which the session cannot
//! drive soundly (see `DESIGN.md` §4g).

use crate::encode::ColoringEncoding;
use crate::error::SolveError;
use crate::sbp::{add_instance_independent_sbps, SbpMode, SbpSizeStats};
use sbgc_formula::FormulaStats;
use sbgc_graph::{Coloring, Graph};
use sbgc_obs::{FaultPlan, Phase, Recorder};
use sbgc_pb::{
    optimize_recorded_with_stats, Budget, ExhaustReason, OptOutcome, Optimizer, SolverKind,
};
use sbgc_shatter::{shatter, ShatterOptions, ShatterReport};
use std::time::{Duration, Instant};

/// Whether to run the instance-dependent (Shatter) symmetry-breaking flow
/// after the instance-independent constructions — the "w/ i.-d. SBPs"
/// column split of Tables 3–5.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SymmetryHandling {
    /// Instance-independent SBPs only (the `Orig.` columns).
    #[default]
    InstanceIndependentOnly,
    /// Also detect and break instance-dependent symmetries.
    WithInstanceDependent,
}

/// Options for [`solve_coloring`].
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// The color bound K (the paper uses 20 and 30).
    pub k: usize,
    /// Instance-independent SBP construction.
    pub sbp_mode: SbpMode,
    /// Instance-dependent symmetry handling.
    pub symmetry: SymmetryHandling,
    /// Which 0-1 ILP solver to run.
    pub solver: SolverKind,
    /// Search budget.
    pub budget: Budget,
    /// Options of the Shatter flow (used only with
    /// [`SymmetryHandling::WithInstanceDependent`]).
    pub shatter: ShatterOptions,
    /// Number of parallel solver workers. `1` (the default) runs exactly
    /// the sequential path of the paper reproduction; larger values race a
    /// diversified portfolio of that many CDCL workers with cooperative
    /// cancellation (see [`sbgc_pb::PortfolioSession`] and
    /// [`SolverKind::portfolio_workers`]). Ignored by the branch-and-bound
    /// [`SolverKind::Cplex`] baseline.
    pub parallelism: usize,
    /// Observability sink: an enabled [`Recorder`] receives phase spans
    /// (encode/sbp/detect/solve/verify), solver counters, and per-worker
    /// portfolio telemetry. The default disabled recorder adds only
    /// stride-boundary branches to the hot paths.
    pub recorder: Recorder,
    /// Whether the chromatic searches may race the `sbgc-heur` local-search
    /// workers (TabuCol/PartialCol descents and clique search) to tighten
    /// the initial `[lower, upper]` bracket before the exact ladder runs.
    /// On by default; affects only chromatic-number entry points, never
    /// fixed-K [`solve_coloring`] runs. Every heuristic bound is
    /// re-validated at the trust boundary, so this flag trades wall-clock,
    /// not soundness (see `DESIGN.md` §4i).
    pub heuristics: bool,
    /// Deterministic fault injection for chaos tests (`None` in
    /// production): the chromatic ladder hands the plan to the heuristic
    /// race, the session workers, the mid-rung kill and checkpoint writes,
    /// for the first attempt only. The one-shot flows here ignore it.
    pub fault: Option<FaultPlan>,
}

impl SolveOptions {
    /// Defaults: the given K, no SBPs of either kind, the PBS II analogue,
    /// unlimited budget.
    pub fn new(k: usize) -> Self {
        SolveOptions {
            k,
            sbp_mode: SbpMode::None,
            symmetry: SymmetryHandling::InstanceIndependentOnly,
            solver: SolverKind::PbsII,
            budget: Budget::unlimited(),
            shatter: ShatterOptions::default(),
            parallelism: 1,
            recorder: Recorder::disabled(),
            heuristics: true,
            fault: None,
        }
    }

    /// Sets the instance-independent SBP mode.
    pub fn with_sbp_mode(mut self, mode: SbpMode) -> Self {
        self.sbp_mode = mode;
        self
    }

    /// Enables instance-dependent (Shatter) symmetry breaking.
    pub fn with_instance_dependent_sbps(mut self) -> Self {
        self.symmetry = SymmetryHandling::WithInstanceDependent;
        self
    }

    /// Sets the solver.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the number of parallel solver workers (clamped to ≥ 1).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Attaches an observability [`Recorder`]; the flow and the solvers
    /// it runs will log phase spans and search counters into it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Enables or disables the heuristic primal-bound race in the
    /// chromatic searches.
    pub fn with_heuristics(mut self, enabled: bool) -> Self {
        self.heuristics = enabled;
        self
    }

    /// Disables the heuristic primal-bound race — exact-only search, as
    /// before the hybrid. Shorthand for `with_heuristics(false)`.
    pub fn without_heuristics(self) -> Self {
        self.with_heuristics(false)
    }

    /// Injects the faults `plan` schedules (see [`SolveOptions::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// Outcome of a coloring run.
#[derive(Clone, Debug)]
pub enum ColoringOutcome {
    /// A provably minimum coloring within the K bound.
    Optimal {
        /// The verified coloring.
        coloring: Coloring,
        /// Number of colors it uses (the chromatic number when ≤ K).
        colors: usize,
    },
    /// Budget ran out with a feasible (possibly suboptimal) coloring.
    Feasible {
        /// The best verified coloring found.
        coloring: Coloring,
        /// Number of colors it uses.
        colors: usize,
    },
    /// Proven not K-colorable (χ > K).
    InfeasibleAtK,
    /// Budget ran out with no answer.
    Unknown,
}

impl ColoringOutcome {
    /// `true` when the run was decided (optimal or infeasible) — the
    /// "solved" criterion of the paper's tables.
    pub fn is_decided(&self) -> bool {
        matches!(self, ColoringOutcome::Optimal { .. } | ColoringOutcome::InfeasibleAtK)
    }

    /// The coloring, if one was found.
    pub fn coloring(&self) -> Option<&Coloring> {
        match self {
            ColoringOutcome::Optimal { coloring, .. }
            | ColoringOutcome::Feasible { coloring, .. } => Some(coloring),
            _ => None,
        }
    }

    /// The number of colors, if a coloring was found.
    pub fn colors(&self) -> Option<usize> {
        match self {
            ColoringOutcome::Optimal { colors, .. } | ColoringOutcome::Feasible { colors, .. } => {
                Some(*colors)
            }
            _ => None,
        }
    }
}

/// Full report of a [`solve_coloring`] run.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The outcome, with the coloring verified against the input graph.
    pub outcome: ColoringOutcome,
    /// Formula size before SBPs.
    pub base_stats: FormulaStats,
    /// Formula size actually solved (after all SBPs).
    pub final_stats: FormulaStats,
    /// Size of the instance-independent SBPs added.
    pub sbp_stats: SbpSizeStats,
    /// Report of the Shatter stage, when it ran.
    pub shatter: Option<ShatterReport>,
    /// Wall-clock time of the solver stage only.
    pub solve_time: Duration,
    /// Wall-clock time of the whole flow (encode + SBPs + detect + solve).
    pub total_time: Duration,
    /// Why the search stopped early when the outcome is undecided
    /// (conflict cap, deadline, memory budget, or cancellation); `None`
    /// when the run was decided or never hit a limit.
    pub exhaust: Option<ExhaustReason>,
}

/// A prepared (encoded + symmetry-broken) coloring instance that can be
/// solved several times — e.g. once per solver in the experiment grid —
/// without repeating encoding or symmetry detection.
#[derive(Clone, Debug)]
pub struct PreparedColoring {
    encoding: ColoringEncoding,
    base_stats: FormulaStats,
    final_stats: FormulaStats,
    sbp_stats: SbpSizeStats,
    shatter: Option<ShatterReport>,
    prepare_time: Duration,
    /// Recorder captured at prepare time; solve calls log into it too.
    recorder: Recorder,
}

impl PreparedColoring {
    /// Encodes `graph` at `options.k`, adds the configured
    /// instance-independent SBPs and (optionally) the Shatter
    /// instance-dependent SBPs. `options.solver`/`options.budget` are not
    /// used here.
    ///
    /// # Panics
    ///
    /// Panics if `options.k == 0`.
    pub fn new(graph: &Graph, options: &SolveOptions) -> Self {
        let recorder = options.recorder.clone();
        let start = Instant::now();
        let mut encoding = {
            let _span = recorder.span(Phase::Encode);
            ColoringEncoding::new(graph, options.k)
        };
        let base_stats = encoding.formula().stats();
        let sbp_stats = {
            let _span = recorder.span(Phase::Sbp);
            add_instance_independent_sbps(&mut encoding, graph, options.sbp_mode)
        };
        let shatter_report = match options.symmetry {
            SymmetryHandling::InstanceIndependentOnly => None,
            SymmetryHandling::WithInstanceDependent => {
                let _span = recorder.span(Phase::Detect);
                Some(shatter(encoding.formula_mut(), &options.shatter))
            }
        };
        let final_stats = encoding.formula().stats();
        PreparedColoring {
            encoding,
            base_stats,
            final_stats,
            sbp_stats,
            shatter: shatter_report,
            prepare_time: start.elapsed(),
            recorder,
        }
    }

    /// The prepared formula (with all SBPs appended).
    pub fn formula(&self) -> &sbgc_formula::PbFormula {
        self.encoding.formula()
    }

    /// Report of the Shatter stage, when it ran.
    pub fn shatter_report(&self) -> Option<&ShatterReport> {
        self.shatter.as_ref()
    }

    /// Time spent encoding + adding SBPs (+ symmetry detection).
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
    }

    /// Solves the prepared instance with `solver` under `budget`, decoding
    /// and independently verifying the result against `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph this instance was prepared from
    /// (detected via vertex count).
    pub fn solve(&self, graph: &Graph, solver: SolverKind, budget: &Budget) -> SolveReport {
        self.solve_with_parallelism(graph, solver, budget, 1)
    }

    /// Like [`PreparedColoring::solve`], but racing the portfolio workers
    /// that [`SolverKind::portfolio_workers`] assigns to `solver` and
    /// `parallelism`. With `parallelism = 1` and a non-portfolio solver
    /// this is exactly the sequential path.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph this instance was prepared from
    /// (detected via vertex count) — that is a programming error of the
    /// caller, not an input failure.
    pub fn solve_with_parallelism(
        &self,
        graph: &Graph,
        solver: SolverKind,
        budget: &Budget,
        parallelism: usize,
    ) -> SolveReport {
        assert_eq!(
            graph.num_vertices(),
            self.encoding.num_vertices(),
            "graph does not match the prepared encoding"
        );
        let start = Instant::now();
        let (result, exhaust) = {
            let _span = self.recorder.span(Phase::Solve);
            let formula = self.encoding.formula();
            let (outcome, stats) = match solver {
                SolverKind::Cplex => {
                    optimize_recorded_with_stats(formula, solver, budget, &self.recorder)
                }
                _ => {
                    let mut opt = Optimizer::new(formula, solver, parallelism, &self.recorder);
                    (opt.run(budget), opt.stats())
                }
            };
            (outcome, stats.exhaust)
        };
        let solve_time = start.elapsed();
        // A decided run's answer supersedes any limit an earlier
        // strengthening iteration may have touched.
        let exhaust = if result.is_decided() { None } else { exhaust };

        let decode_verified = |value: u64, model: &sbgc_formula::Assignment| {
            let coloring = self.encoding.decode(model)?;
            if !coloring.is_proper(graph) {
                return None;
            }
            if coloring.num_colors() as u64 != value {
                return None;
            }
            Some(coloring)
        };

        let outcome = {
            let _span = self.recorder.span(Phase::Verify);
            match result {
                OptOutcome::Optimal { value, model } => match decode_verified(value, &model) {
                    Some(coloring) => ColoringOutcome::Optimal { coloring, colors: value as usize },
                    None => ColoringOutcome::Unknown,
                },
                OptOutcome::Feasible { value, model } => match decode_verified(value, &model) {
                    Some(coloring) => {
                        ColoringOutcome::Feasible { coloring, colors: value as usize }
                    }
                    None => ColoringOutcome::Unknown,
                },
                OptOutcome::Infeasible => ColoringOutcome::InfeasibleAtK,
                OptOutcome::Unknown => ColoringOutcome::Unknown,
            }
        };

        SolveReport {
            outcome,
            base_stats: self.base_stats,
            final_stats: self.final_stats,
            sbp_stats: self.sbp_stats,
            shatter: self.shatter.clone(),
            solve_time,
            total_time: self.prepare_time + solve_time,
            exhaust,
        }
    }
}

/// Encodes, optionally breaks symmetries, solves, decodes and verifies.
///
/// The returned coloring is always re-verified against `graph`
/// independently of the solver ([`Coloring::is_proper`]); a solver model
/// that fails verification is reported as [`ColoringOutcome::Unknown`]
/// (this "trust but verify" step has never fired in our test suite — it
/// exists to keep the experiment harness honest).
///
/// To solve one instance with several solvers, prepare once with
/// [`PreparedColoring::new`] and call [`PreparedColoring::solve`] per
/// solver.
///
/// # Panics
///
/// Panics if `options.k == 0`. Use [`try_solve_coloring`] for the
/// non-panicking form.
pub fn solve_coloring(graph: &Graph, options: &SolveOptions) -> SolveReport {
    try_solve_coloring(graph, options).unwrap_or_else(|e| panic!("{e}"))
}

/// [`solve_coloring`] with typed errors: a zero color bound is reported as
/// a [`SolveError`] instead of a panic.
/// Budget exhaustion is still *not* an error — it yields an
/// [`ColoringOutcome::Unknown`]/[`ColoringOutcome::Feasible`] report whose
/// [`SolveReport::exhaust`] says which limit was hit.
pub fn try_solve_coloring(
    graph: &Graph,
    options: &SolveOptions,
) -> Result<SolveReport, SolveError> {
    if options.k == 0 {
        return Err(SolveError::ZeroColorBound);
    }
    Ok(PreparedColoring::new(graph, options).solve_with_parallelism(
        graph,
        options.solver,
        &options.budget,
        options.parallelism,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::gen::{mycielski, queens};

    #[test]
    fn triangle_needs_three_colors() {
        let g = Graph::complete(3);
        let report = solve_coloring(&g, &SolveOptions::new(4));
        match report.outcome {
            ColoringOutcome::Optimal { ref coloring, colors } => {
                assert_eq!(colors, 3);
                assert!(coloring.is_proper(&g));
            }
            ref other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_when_k_too_small() {
        let g = Graph::complete(4);
        let report = solve_coloring(&g, &SolveOptions::new(3));
        assert!(matches!(report.outcome, ColoringOutcome::InfeasibleAtK));
    }

    #[test]
    fn every_sbp_mode_preserves_the_optimum() {
        let g = mycielski(3); // χ = 4, plenty of symmetry
        for mode in SbpMode::EXTENDED {
            let report = solve_coloring(&g, &SolveOptions::new(6).with_sbp_mode(mode));
            match report.outcome {
                ColoringOutcome::Optimal { ref coloring, colors } => {
                    assert_eq!(colors, 4, "{mode}");
                    assert!(coloring.is_proper(&g), "{mode}");
                }
                ref other => panic!("{mode}: expected optimal, got {other:?}"),
            }
        }
    }

    #[test]
    fn instance_dependent_sbps_preserve_the_optimum() {
        let g = queens(5, 5);
        for mode in [SbpMode::None, SbpMode::Nu, SbpMode::Sc] {
            let opts = SolveOptions::new(6).with_sbp_mode(mode).with_instance_dependent_sbps();
            let report = solve_coloring(&g, &opts);
            assert_eq!(report.outcome.colors(), Some(5), "{mode}");
            assert!(report.shatter.is_some());
        }
    }

    #[test]
    fn all_solvers_agree_on_small_instance() {
        let g = mycielski(3);
        for solver in SolverKind::MAIN {
            let report = solve_coloring(&g, &SolveOptions::new(5).with_solver(solver));
            assert_eq!(report.outcome.colors(), Some(4), "{solver}");
            assert!(report.outcome.is_decided(), "{solver}");
        }
    }

    #[test]
    fn parallel_solve_agrees_with_sequential() {
        let g = mycielski(3);
        for n in [2, 4] {
            let report = solve_coloring(&g, &SolveOptions::new(5).with_parallelism(n));
            assert_eq!(report.outcome.colors(), Some(4), "n={n}");
            assert!(report.outcome.is_decided(), "n={n}");
        }
    }

    #[test]
    fn portfolio_solver_kind_solves() {
        let g = queens(5, 5);
        let report = solve_coloring(&g, &SolveOptions::new(6).with_solver(SolverKind::Portfolio));
        assert_eq!(report.outcome.colors(), Some(5));
        assert!(report.outcome.is_decided());
    }

    #[test]
    fn parallelism_is_ignored_by_cplex() {
        // The non-CDCL control stays sequential whatever the parallelism.
        let g = mycielski(3);
        let opts = SolveOptions::new(5).with_solver(SolverKind::Cplex).with_parallelism(4);
        assert_eq!(opts.solver.portfolio_workers(opts.parallelism), None);
        let report = solve_coloring(&g, &opts);
        assert_eq!(report.outcome.colors(), Some(4));
    }

    #[test]
    fn report_tracks_formula_growth() {
        let g = Graph::complete(3);
        let report = solve_coloring(&g, &SolveOptions::new(4).with_sbp_mode(SbpMode::Li));
        assert!(report.final_stats.vars > report.base_stats.vars);
        assert!(report.final_stats.clauses > report.base_stats.clauses);
        assert_eq!(report.sbp_stats.aux_vars, 3 * 4);
    }

    #[test]
    fn recorder_captures_phase_timings_and_counters() {
        let g = queens(5, 5);
        let rec = Recorder::new();
        let opts = SolveOptions::new(6)
            .with_sbp_mode(SbpMode::NuSc)
            .with_instance_dependent_sbps()
            .with_recorder(rec.clone());
        let report = solve_coloring(&g, &opts);
        assert!(report.outcome.is_decided());
        for phase in Phase::ALL {
            assert!(rec.phase_count(phase) > 0, "no {phase} span recorded");
        }
        assert!(rec.counter(sbgc_obs::Counter::Decisions) > 0);
        assert_eq!(rec.open_spans(), 0);
        // Sequential solve: no portfolio worker records.
        assert!(rec.workers().is_empty());
    }

    #[test]
    fn recorder_captures_portfolio_workers() {
        let g = queens(5, 5);
        let rec = Recorder::new();
        let opts = SolveOptions::new(6).with_parallelism(3).with_recorder(rec.clone());
        let report = solve_coloring(&g, &opts);
        assert!(report.outcome.is_decided());
        // One entry per worker per strengthening query, one winner each.
        let workers = rec.workers();
        let queries = workers.iter().filter_map(|w| w.query).max().expect("tagged") + 1;
        for q in 0..queries {
            let per_query: Vec<_> = workers.iter().filter(|w| w.query == Some(q)).collect();
            assert_eq!(per_query.len(), 3, "query {q}");
            assert_eq!(per_query.iter().filter(|w| w.won).count(), 1, "query {q}");
        }
        assert_eq!(workers.len() as u64, 3 * queries);
    }

    #[test]
    fn zero_budget_gives_unknown() {
        let g = queens(5, 5);
        let opts = SolveOptions::new(6).with_budget(Budget::unlimited().with_max_conflicts(0));
        let report = solve_coloring(&g, &opts);
        assert!(matches!(
            report.outcome,
            ColoringOutcome::Unknown | ColoringOutcome::Feasible { .. }
        ));
    }

    #[test]
    fn exhausted_budget_reports_its_reason() {
        let g = queens(5, 5);
        let opts = SolveOptions::new(6).with_budget(Budget::unlimited().with_max_conflicts(0));
        let report = solve_coloring(&g, &opts);
        assert!(!report.outcome.is_decided());
        assert_eq!(report.exhaust, Some(ExhaustReason::Conflicts));
    }

    #[test]
    fn decided_runs_carry_no_exhaust_reason() {
        let g = Graph::complete(3);
        let report = solve_coloring(&g, &SolveOptions::new(4));
        assert!(report.outcome.is_decided());
        assert_eq!(report.exhaust, None);
    }

    #[test]
    fn zero_color_bound_is_a_typed_error() {
        let g = Graph::complete(3);
        let err = try_solve_coloring(&g, &SolveOptions::new(0)).unwrap_err();
        assert_eq!(err, SolveError::ZeroColorBound);
    }
}
