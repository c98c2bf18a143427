//! Solver configurations and the named presets used in the experiments.

use crate::explain::ExplainStrategy;

// The restart schedule moved to `sbgc-sat` so both CDCL cores share the
// same policy type; re-exported here so existing imports keep working.
pub use sbgc_sat::RestartPolicy;

/// Tunable parameters of the CDCL-PB engine.
///
/// The named constructors reproduce the solver line-up of the paper's
/// Tables 3–5; see [`SolverKind`]. The modern-CDCL knobs (`chrono`,
/// `rephase`, `tiered_reduce`, adaptive restarts) all default *off* so the
/// presets keep reproducing the paper's solvers; the portfolio turns them
/// on per worker for diversification (see [`crate::portfolio_configs`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// How PB conflicts/propagations are explained as clauses.
    pub explain: ExplainStrategy,
    /// Whether to reuse the last assigned polarity at decisions.
    pub phase_saving: bool,
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// VSIDS activity decay (0 < decay < 1; higher = slower forgetting).
    pub var_decay: f64,
    /// Diversification seed. `0` (the default) leaves initial phases and
    /// activities untouched — the exact behavior of the sequential presets.
    /// A nonzero seed deterministically perturbs the initial phases and
    /// breaks VSIDS ties differently, so portfolio workers running the same
    /// preset explore different parts of the search tree.
    pub seed: u64,
    /// Chronological backtracking: after a conflict whose backjump would
    /// discard more than a threshold of decision levels, step back just one
    /// level instead (CaDiCaL-style).
    pub chrono: bool,
    /// Periodic rephasing of saved polarities (splr-style stabilization
    /// schedule).
    pub rephase: bool,
    /// LBD-tiered learned-clause reduction: glue clauses (LBD ≤ 2) are
    /// kept forever; the rest are ranked by (LBD, activity).
    pub tiered_reduce: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            explain: ExplainStrategy::AllFalse,
            phase_saving: true,
            restart: RestartPolicy::Luby { base: 100 },
            var_decay: 0.95,
            seed: 0,
            chrono: false,
            rephase: false,
            tiered_reduce: false,
        }
    }
}

impl EngineConfig {
    /// Returns the same configuration with the given diversification seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The solvers evaluated in the paper, as configurations of our engines.
///
/// The paper observes that PBS II, Galena and Pueblo — three independent
/// implementations of the same DLL framework — show the *same* performance
/// trends, while the generic ILP solver CPLEX behaves differently. We
/// reproduce that axis with four configurations of one CDCL-PB engine
/// (differing in explanation strategy, phase handling and restarts) plus a
/// learning-free branch-and-bound baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// PBS II analogue: CNF-clause learning from PB conflicts, weak
    /// (all-false-literals) explanations, phase saving, Luby restarts.
    PbsII,
    /// Galena analogue: coefficient-greedy (cardinality-reduction-style)
    /// explanations.
    Galena,
    /// Pueblo analogue: recency-greedy (slack/cutting-plane-style)
    /// explanations.
    Pueblo,
    /// The retired original PBS: weak explanations, no phase saving,
    /// geometric restarts (Appendix Table 5 only).
    PbsLegacy,
    /// Generic branch-and-bound 0-1 ILP without conflict learning
    /// (CPLEX stand-in).
    Cplex,
    /// Parallel portfolio racing diversified CDCL configurations (see
    /// [`crate::PortfolioSession`]); not part of the paper's line-up. The
    /// worker count comes from [`SolverKind::portfolio_workers`].
    Portfolio,
}

impl SolverKind {
    /// Worker count of [`SolverKind::Portfolio`] when no parallelism above
    /// 1 is requested.
    pub const DEFAULT_PORTFOLIO_WORKERS: usize = 4;

    /// The portfolio worker count that this solver and a requested
    /// `parallelism` imply: `Some(n)` when the solve should race a
    /// portfolio (explicit [`SolverKind::Portfolio`] — with
    /// [`SolverKind::DEFAULT_PORTFOLIO_WORKERS`] unless `parallelism > 1`
    /// — or `parallelism > 1` with a CDCL solver), `None` for the
    /// sequential path. The CPLEX baseline never races — it is the paper's
    /// non-CDCL control.
    ///
    /// ```
    /// use sbgc_pb::SolverKind;
    ///
    /// assert_eq!(SolverKind::PbsII.portfolio_workers(1), None);
    /// assert_eq!(SolverKind::PbsII.portfolio_workers(3), Some(3));
    /// assert_eq!(SolverKind::Portfolio.portfolio_workers(1), Some(4));
    /// assert_eq!(SolverKind::Cplex.portfolio_workers(8), None);
    /// ```
    pub fn portfolio_workers(self, parallelism: usize) -> Option<usize> {
        match self {
            SolverKind::Cplex => None,
            SolverKind::Portfolio if parallelism <= 1 => Some(Self::DEFAULT_PORTFOLIO_WORKERS),
            _ if parallelism > 1 => Some(parallelism),
            _ => None,
        }
    }

    /// All kinds used in the main tables (Tables 3–4).
    pub const MAIN: [SolverKind; 4] =
        [SolverKind::PbsII, SolverKind::Cplex, SolverKind::Galena, SolverKind::Pueblo];

    /// All kinds used in the Appendix (Table 5).
    pub const APPENDIX: [SolverKind; 5] = [
        SolverKind::PbsLegacy,
        SolverKind::PbsII,
        SolverKind::Cplex,
        SolverKind::Galena,
        SolverKind::Pueblo,
    ];

    /// The engine configuration for CDCL-based kinds; `None` for
    /// [`SolverKind::Cplex`] (which uses [`crate::BnbSolver`] instead) and
    /// [`SolverKind::Portfolio`] (which runs several configurations at
    /// once — see [`crate::portfolio_configs`]).
    pub fn engine_config(self) -> Option<EngineConfig> {
        match self {
            SolverKind::PbsII => Some(EngineConfig::default()),
            SolverKind::Galena => Some(EngineConfig {
                explain: ExplainStrategy::GreedyCoefficient,
                restart: RestartPolicy::Luby { base: 128 },
                ..EngineConfig::default()
            }),
            SolverKind::Pueblo => Some(EngineConfig {
                explain: ExplainStrategy::GreedyRecency,
                var_decay: 0.97,
                ..EngineConfig::default()
            }),
            SolverKind::PbsLegacy => Some(EngineConfig {
                explain: ExplainStrategy::AllFalse,
                phase_saving: false,
                restart: RestartPolicy::Geometric { first: 100, factor: 1.5 },
                ..EngineConfig::default()
            }),
            SolverKind::Cplex | SolverKind::Portfolio => None,
        }
    }

    /// Display name used in the experiment tables.
    pub fn display_name(self) -> &'static str {
        match self {
            SolverKind::PbsII => "PBS II",
            SolverKind::Galena => "Galena",
            SolverKind::Pueblo => "Pueblo",
            SolverKind::PbsLegacy => "PBS",
            SolverKind::Cplex => "CPLEX*",
            SolverKind::Portfolio => "Portfolio",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct() {
        let configs: Vec<_> =
            [SolverKind::PbsII, SolverKind::Galena, SolverKind::Pueblo, SolverKind::PbsLegacy]
                .iter()
                .map(|k| k.engine_config().expect("cdcl kind"))
                .collect();
        for i in 0..configs.len() {
            for j in i + 1..configs.len() {
                assert_ne!(configs[i], configs[j], "presets {i} and {j} identical");
            }
        }
    }

    #[test]
    fn cplex_has_no_engine_config() {
        assert!(SolverKind::Cplex.engine_config().is_none());
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<_> = SolverKind::APPENDIX.iter().map(|k| k.display_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
