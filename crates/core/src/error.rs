//! Typed errors of the solving pipeline.
//!
//! The original entry points of this crate report misuse (a zero color
//! bound, an empty graph, a portfolio with no workers) by panicking —
//! acceptable in a research harness, but hostile to callers that feed the
//! pipeline untrusted inputs. The `try_*` variants introduced alongside
//! them return [`SolveError`] instead; the panicking forms remain as thin
//! wrappers so existing code keeps its behavior (see `docs/ROBUSTNESS.md`).

use crate::checkpoint::CheckpointError;
use sbgc_pb::PortfolioError;

/// Why a solve could not even be attempted. These are *input* failures,
/// distinct from budget exhaustion (which yields an `Unknown`/bracketed
/// outcome, not an error — partial answers are still answers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The graph has no vertices; chromatic-number queries are undefined.
    EmptyGraph,
    /// The color bound K was 0; the encoding needs at least one color.
    ZeroColorBound,
    /// The underlying portfolio race could not start.
    Portfolio(PortfolioError),
    /// A persistent incremental session was requested for a configuration
    /// without an incremental interface: the branch-and-bound CPLEX
    /// baseline, or instance-dependent (Shatter) SBPs, whose soundness
    /// under suffix color assumptions is not established (see
    /// `DESIGN.md` §4g). Use the one-shot optimization path instead.
    UnsupportedIncremental,
    /// The search derived a bracket with `upper < lower` — an invariant
    /// violation, never a legitimate answer. A coloring below a proven
    /// clique bound means one of the two "proofs" is wrong (an improper
    /// witness that slipped past verification, or an unsound lower bound),
    /// so the contradiction is surfaced instead of being laundered into a
    /// fake `Exact` result (see `DESIGN.md` §4i).
    BoundContradiction {
        /// The proven lower bound the result contradicts.
        lower: usize,
        /// The contradicting upper bound (witness color count).
        upper: usize,
        /// Where the contradiction was detected.
        detail: String,
    },
    /// A solve checkpoint could not be written, read, or trusted —
    /// corruption, truncation, a stale graph, or a witness that failed
    /// re-validation (see [`CheckpointError`] for the specific failure).
    Checkpoint(CheckpointError),
    /// A supervisor/CLI knob was invalid at parse time: a zero watchdog
    /// window, a zero retry cap, or a checkpoint path colliding with
    /// another output artifact.
    InvalidConfig(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::EmptyGraph => write!(f, "chromatic number of the empty graph"),
            SolveError::ZeroColorBound => write!(f, "color bound K must be at least 1"),
            SolveError::Portfolio(e) => write!(f, "portfolio could not start: {e}"),
            SolveError::UnsupportedIncremental => {
                write!(f, "this solver configuration has no incremental interface")
            }
            SolveError::BoundContradiction { lower, upper, detail } => {
                write!(
                    f,
                    "bound contradiction: upper bound {upper} below proven lower bound {lower} \
                     ({detail})"
                )
            }
            SolveError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            SolveError::InvalidConfig(detail) => {
                write!(f, "invalid supervisor configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Portfolio(e) => Some(e),
            SolveError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PortfolioError> for SolveError {
    fn from(e: PortfolioError) -> Self {
        SolveError::Portfolio(e)
    }
}

impl From<CheckpointError> for SolveError {
    fn from(e: CheckpointError) -> Self {
        SolveError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SolveError::ZeroColorBound.to_string().contains("K"));
        assert!(SolveError::EmptyGraph.to_string().contains("empty"));
        let wrapped = SolveError::from(PortfolioError::NoWorkers);
        assert!(wrapped.to_string().contains("portfolio"));
    }

    #[test]
    fn bound_contradiction_reports_both_bounds() {
        let e = SolveError::BoundContradiction {
            lower: 6,
            upper: 4,
            detail: "optimization collapse".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains('6') && msg.contains('4'), "{msg}");
        assert!(msg.contains("contradiction"), "{msg}");
    }

    #[test]
    fn portfolio_errors_convert() {
        let e: SolveError = PortfolioError::NoWorkers.into();
        assert_eq!(e, SolveError::Portfolio(PortfolioError::NoWorkers));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn checkpoint_errors_convert_and_chain() {
        use std::error::Error;
        let e: SolveError = CheckpointError::BadMagic.into();
        assert!(e.to_string().contains("checkpoint"));
        let source = e.source().expect("checkpoint errors carry a source");
        assert!(source.to_string().contains("magic"));
    }

    /// Satellite guarantee: every `SolveError` variant (and every
    /// `CheckpointError` / `PortfolioError` it can wrap) has a non-empty,
    /// panic-free `Display`, and `source()` chains terminate.
    #[test]
    fn every_variant_displays_without_panicking() {
        use crate::checkpoint::GraphFingerprint;
        use std::error::Error;
        let fp = GraphFingerprint { vertices: 3, edges: 2, edge_hash: 9 };
        let checkpoint_errors = vec![
            CheckpointError::Io { path: "a/b.ckpt".to_string(), detail: "denied".to_string() },
            CheckpointError::BadMagic,
            CheckpointError::UnsupportedVersion(9),
            CheckpointError::ChecksumMismatch { stored: 1, computed: 2 },
            CheckpointError::Malformed("truncated".to_string()),
            CheckpointError::GraphMismatch { stored: fp, resuming: fp },
            CheckpointError::SbpMismatch {
                stored: "nu".to_string(),
                detail: "unknown".to_string(),
            },
            CheckpointError::InvalidWitness("improper".to_string()),
        ];
        let mut errors: Vec<SolveError> = vec![
            SolveError::EmptyGraph,
            SolveError::ZeroColorBound,
            SolveError::Portfolio(PortfolioError::NoWorkers),
            SolveError::UnsupportedIncremental,
            SolveError::BoundContradiction { lower: 2, upper: 1, detail: "x".to_string() },
            SolveError::InvalidConfig("watchdog window must be positive".to_string()),
        ];
        errors.extend(checkpoint_errors.into_iter().map(SolveError::Checkpoint));
        for e in errors {
            assert!(!e.to_string().is_empty(), "{e:?} must Display");
            let mut source = e.source();
            let mut depth = 0;
            while let Some(s) = source {
                assert!(!s.to_string().is_empty());
                source = s.source();
                depth += 1;
                assert!(depth < 8, "source chain of {e:?} must terminate");
            }
        }
    }
}
