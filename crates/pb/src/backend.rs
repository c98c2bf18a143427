//! The one decision backend: long-lived solver state answering a sequence
//! of assumption queries, either one [`PbEngine`] or a racing
//! [`PortfolioSession`].
//!
//! The chromatic ladder (`sbgc-core`'s `ColoringSession`) and the
//! linear-search [`crate::Optimizer`] both drive this type, so sequential
//! and parallel solving share one query loop. Every strengthening —
//! root units from [`DecisionBackend::commit_units`], objective cuts from
//! [`DecisionBackend::commit_cut`] — reaches every engine before the next
//! query starts.

use crate::config::{EngineConfig, SolverKind};
use crate::engine::PbEngine;
use crate::portfolio::{portfolio_configs, stats_delta, PortfolioSession, SessionQueryOutcome};
use sbgc_formula::{Lit, Objective, PbConstraint, PbFormula};
use sbgc_obs::{FaultPlan, Recorder};
use sbgc_sat::{Budget, SharingConfig, SolveOutcome};

/// Long-lived decision solver state: one persistent engine, or one
/// persistent engine per portfolio worker thread.
pub enum DecisionBackend {
    /// One long-lived [`PbEngine`].
    Sequential(Box<PbEngine>),
    /// A persistent portfolio: one long-lived engine per worker thread,
    /// racing each query (see [`PortfolioSession`]).
    Portfolio(PortfolioSession),
}

impl DecisionBackend {
    /// The backend that `kind` and `parallelism` select on `formula` (its
    /// objective is ignored): a portfolio of
    /// [`SolverKind::portfolio_workers`] workers when that is `Some`, one
    /// engine with `kind`'s preset otherwise. Every engine flushes its
    /// counters into `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SolverKind::Cplex`], which has no CDCL engine
    /// (use [`crate::BnbSolver`]).
    pub fn new(
        formula: &PbFormula,
        kind: SolverKind,
        parallelism: usize,
        recorder: &Recorder,
    ) -> Self {
        Self::new_with(formula, kind, parallelism, recorder, 0, None)
    }

    /// [`DecisionBackend::new`] with every engine's diversification seed
    /// shifted by `seed_offset` and deterministic fault injection for the
    /// portfolio workers (see [`PortfolioSession::with_instrumentation`]).
    /// Production callers pass `0` and `None`.
    ///
    /// # Panics
    ///
    /// As [`DecisionBackend::new`].
    pub fn new_with(
        formula: &PbFormula,
        kind: SolverKind,
        parallelism: usize,
        recorder: &Recorder,
        seed_offset: u64,
        fault: Option<&FaultPlan>,
    ) -> Self {
        let reseed = |c: EngineConfig| c.with_seed(c.seed.wrapping_add(seed_offset));
        match kind.portfolio_workers(parallelism) {
            Some(n) => {
                let configs: Vec<_> = portfolio_configs(n).into_iter().map(reseed).collect();
                let session = PortfolioSession::with_instrumentation(
                    formula,
                    &configs,
                    recorder,
                    fault,
                    Some(SharingConfig::default()),
                )
                .expect("portfolio_configs is never empty");
                DecisionBackend::Portfolio(session)
            }
            None => {
                let config = kind.engine_config().expect("the CPLEX baseline has no CDCL engine");
                let mut engine = PbEngine::from_formula(formula, reseed(config));
                engine.set_recorder(recorder.clone());
                DecisionBackend::Sequential(Box::new(engine))
            }
        }
    }

    /// Answers one assumption query against the persistent state. `stats`
    /// holds this query's counter deltas; `core` is the failed-assumption
    /// core of an `Unsat` answer. The budget keeps solver-side semantics:
    /// its deadline is armed on first use, and conflict caps compare
    /// against *cumulative* engine conflicts.
    pub fn query(&mut self, assumptions: &[Lit], budget: &Budget) -> SessionQueryOutcome {
        let engine = match self {
            DecisionBackend::Sequential(engine) => engine,
            DecisionBackend::Portfolio(session) => return session.query(assumptions, budget),
        };
        let before = engine.stats();
        let retained_clauses = engine.live_learned() as u64;
        let outcome = engine.solve_with_assumptions(assumptions, budget);
        let core = match outcome {
            SolveOutcome::Unsat => engine.assumption_core().to_vec(),
            _ => Vec::new(),
        };
        let winner = (!matches!(outcome, SolveOutcome::Unknown)).then(|| (0, engine.config()));
        SessionQueryOutcome {
            outcome,
            winner,
            stats: stats_delta(before, engine.stats()),
            failed_workers: 0,
            retained_clauses,
            core,
        }
    }

    /// Permanently adds each literal in `units` as a unit clause in every
    /// engine, ahead of all later queries. Only sound when every future
    /// query would assume these literals anyway (see
    /// [`PortfolioSession::commit_units`]).
    pub fn commit_units(&mut self, units: &[Lit]) {
        match self {
            DecisionBackend::Sequential(engine) => {
                for &lit in units {
                    engine.add_clause([lit]);
                }
            }
            DecisionBackend::Portfolio(session) => session.commit_units(units),
        }
    }

    /// Permanently adds the objective cut `objective ≤ max_value` to every
    /// engine, ahead of all later queries. Only sound when the caller holds
    /// a model of value `max_value + 1` — the cut then removes no better
    /// solution.
    pub fn commit_cut(&mut self, objective: &Objective, max_value: u64) {
        let cut = PbConstraint::at_most(
            objective.terms().iter().map(|&(c, l)| (c as i64, l)),
            max_value as i64,
        );
        match self {
            DecisionBackend::Sequential(engine) => engine.add_pb(cut),
            DecisionBackend::Portfolio(session) => session.commit_cut(cut),
        }
    }

    /// Engines still alive (always 1 for the sequential backend).
    pub fn alive_workers(&self) -> usize {
        match self {
            DecisionBackend::Sequential(_) => 1,
            DecisionBackend::Portfolio(session) => session.alive_workers(),
        }
    }

    /// The diversification seed of each engine, in worker order (a single
    /// entry for the sequential backend).
    pub fn worker_seeds(&self) -> Vec<u64> {
        match self {
            DecisionBackend::Sequential(engine) => vec![engine.config().seed],
            DecisionBackend::Portfolio(session) => session.worker_seeds(),
        }
    }

    /// Learned clauses worth persisting in a checkpoint: every clause that
    /// passes the default LBD/size share filter. For the portfolio this is
    /// the shared pool's snapshot (filtered at export time); for the
    /// sequential engine its live learned clauses are filtered here.
    pub fn export_learned(&self) -> Vec<(Vec<Lit>, u32)> {
        match self {
            DecisionBackend::Sequential(engine) => engine.export_learned(SharingConfig::default()),
            DecisionBackend::Portfolio(session) => session.export_clauses(),
        }
    }

    /// Imports externally supplied learned clauses and returns how many
    /// were accepted. Only sound when each clause is entailed by the
    /// current formula (see [`PortfolioSession::import_clauses`]).
    pub fn import_learned(&mut self, clauses: &[(Vec<Lit>, u32)]) -> usize {
        match self {
            DecisionBackend::Sequential(engine) => {
                let before = engine.stats().imported;
                engine.import_learned(clauses);
                (engine.stats().imported - before) as usize
            }
            DecisionBackend::Portfolio(session) => session.import_clauses(clauses),
        }
    }
}

impl std::fmt::Debug for DecisionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionBackend::Sequential(_) => f.write_str("sequential"),
            DecisionBackend::Portfolio(session) => {
                write!(f, "portfolio({} alive)", session.alive_workers())
            }
        }
    }
}
