//! The chromatic ladder driver and its supervision: checkpoints,
//! watchdog, retries.
//!
//! `run_ladder` is the one rung loop that walks the color budget down
//! through [`ColoringSession`] queries. `chromatic_number_outcome` runs it
//! as a single attempt with no checkpoint, resume or watchdog;
//! [`solve_supervised`] is the same loop with three independent layers
//! switched on:
//!
//! 1. **Auto-checkpointing.** With a configured checkpoint path, a
//!    [`SolveCheckpoint`] — bracket, incumbent witness, worker seeds, and
//!    the learned clauses passing the share filter — is persisted
//!    atomically after the initial bounds and after *every* ladder rung.
//!    A process killed mid-ladder loses at most one rung of work.
//! 2. **Resume.** With a configured resume path, the supervisor loads the
//!    checkpoint, re-validates it at the trust boundary (graph
//!    fingerprint, SBP mode, witness propriety — corrupted or stale files
//!    are typed [`SolveError`]s, never panics), rebuilds a
//!    [`ColoringSession`], re-commits the restored upper bound as root
//!    units, and only then re-imports the persisted clauses. The order
//!    matters: each persisted clause is entailed by the encoding plus the
//!    bounds committed when it was learned, so the bounds must be in
//!    place first.
//! 3. **Watchdog + retries.** A wall-clock watchdog thread samples the
//!    recorder's conflict counter; if no conflict progress happens for
//!    the configured window, the attempt's cancel token is tripped
//!    ("cancel"), the session's learned clauses are exported, and the
//!    solve restarts with shifted worker seeds ("reseed, restart") and an
//!    escalated budget — caps multiplied by the escalation factor per
//!    retry, up to [`MAX_ESCALATION`]. Genuine budget exhaustion retries
//!    through the same escalation path; the bracket and clauses carry
//!    over, so no retry ever re-proves a committed rung.
//!
//! See `docs/ROBUSTNESS.md` ("Checkpoint & resume", "Watchdog/retry")
//! for the operational story and the chaos tests that pin it down.

use crate::checkpoint::{CheckpointError, GraphFingerprint, SolveCheckpoint};
use crate::chromatic::{
    bounds, check_inputs, initial_bounds, ChromaticBounds, ChromaticOutcome, ChromaticResult,
};
use crate::error::SolveError;
use crate::flow::SolveOptions;
use crate::sbp::SbpMode;
use crate::session::{encoding_width, ColoringSession, SessionAnswer};
use sbgc_formula::Lit;
use sbgc_graph::{Coloring, Graph};
use sbgc_obs::{
    Counter, FaultPlan, LadderStepTelemetry, Recorder, ResumeTelemetry, SupervisorTelemetry,
};
use sbgc_pb::{CancelToken, ExhaustReason};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on the budget-escalation factor: caps double (or multiply by
/// the configured factor) per retry but never beyond this.
pub const MAX_ESCALATION: u32 = 64;

/// Worker-seed stride between attempts: each retry shifts every backend
/// engine's diversification seed by this (odd) constant so the restarted
/// search explores a genuinely different portfolio trajectory.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Knobs of the supervised solve. Construct with
/// [`SupervisorConfig::new`], chain the builders, and let
/// [`solve_supervised`] validate — or call
/// [`validate`](SupervisorConfig::validate) eagerly at CLI-parse time.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Where to auto-checkpoint at ladder-rung boundaries; `None`
    /// disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// A checkpoint to resume from; `None` starts fresh.
    pub resume_from: Option<PathBuf>,
    /// Watchdog stall window: an attempt with no conflict progress for
    /// this long is cancelled and retried. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Maximum retries after the first attempt (total attempts =
    /// `max_retries + 1`). Must be ≥ 1; a solve that should never retry
    /// belongs on the plain `chromatic_number_outcome` path.
    pub max_retries: u32,
    /// Per-retry budget multiplier (conflicts, time, memory), applied
    /// cumulatively up to [`MAX_ESCALATION`]. Must be ≥ 1; the default 2
    /// doubles per retry.
    pub escalation: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_path: None,
            resume_from: None,
            watchdog: None,
            max_retries: 3,
            escalation: 2,
        }
    }
}

impl SupervisorConfig {
    /// The default configuration: no checkpointing, no resume, no
    /// watchdog, 3 retries, escalation factor 2.
    pub fn new() -> Self {
        Self::default()
    }

    /// Auto-checkpoint to `path` at every ladder-rung boundary.
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from the checkpoint at `path`.
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Cancel and retry an attempt after `window` without conflict
    /// progress.
    pub fn with_watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Allow up to `retries` retries after the first attempt.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Multiply budget caps by `factor` per retry.
    pub fn with_escalation(mut self, factor: u32) -> Self {
        self.escalation = factor;
        self
    }

    /// Rejects misconfigurations at parse time with typed errors instead
    /// of silent misbehavior at solve time.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidConfig`] for a zero watchdog window (every
    /// attempt would be cancelled instantly), a retry cap of 0 (the
    /// supervisor exists to retry; use the plain chromatic entry points
    /// for one-shot solves), a zero escalation factor (retries would run
    /// with an empty budget), or a checkpoint path that is also the
    /// resume path's temp file.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.watchdog == Some(Duration::ZERO) {
            return Err(SolveError::InvalidConfig(
                "watchdog window must be positive (a zero window cancels every attempt \
                 before its first conflict)"
                    .to_string(),
            ));
        }
        if self.max_retries == 0 {
            return Err(SolveError::InvalidConfig(
                "retry cap must be at least 1; for a solve that never retries use \
                 chromatic_number_outcome directly"
                    .to_string(),
            ));
        }
        if self.escalation == 0 {
            return Err(SolveError::InvalidConfig(
                "escalation factor must be at least 1 (0 would zero every retry's budget)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Everything a supervised solve produced: the chromatic answer plus the
/// supervision trace (attempts, watchdog trips, checkpoints written).
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The chromatic answer (exact or bracketed), exactly as the plain
    /// ladder would report it.
    pub outcome: ChromaticOutcome,
    /// Solve attempts made (1 = no retries were needed).
    pub attempts: u64,
    /// Times the watchdog cancelled a stalled attempt.
    pub watchdog_trips: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Whether the solve started from a restored checkpoint.
    pub resumed: bool,
}

/// Runs the chromatic ladder with supervision on (see the module docs):
/// the same driver as `chromatic_number_outcome`, plus crash safety and
/// stall recovery as `config` asks. With an all-default `config` it
/// reaches the same answer as the plain ladder and only adds the
/// `supervisor` telemetry.
///
/// # Errors
///
/// [`SolveError::InvalidConfig`] for invalid knobs,
/// [`SolveError::Checkpoint`] for unwritable/corrupted/stale checkpoints,
/// [`SolveError::UnsupportedIncremental`] for configurations without the
/// incremental session interface (the supervisor checkpoints *session*
/// state), plus everything the underlying ladder can return.
pub fn solve_supervised(
    graph: &Graph,
    options: &SolveOptions,
    config: &SupervisorConfig,
) -> Result<SupervisedOutcome, SolveError> {
    config.validate()?;
    check_inputs(graph, options)?;
    if !ColoringSession::supports(options) {
        return Err(SolveError::UnsupportedIncremental);
    }
    // The watchdog detects stalls through the recorder's conflict
    // counter, so supervision needs an enabled recorder even when the
    // caller runs without telemetry.
    let mut options = options.clone();
    if !options.recorder.is_enabled() && config.watchdog.is_some() {
        options.recorder = Recorder::new();
    }
    // Establish the starting state: a validated checkpoint, or the usual
    // heuristic-tightened greedy bracket.
    let (state, resume) = match &config.resume_from {
        Some(path) => {
            let (state, telemetry) = restore(graph, &options, path)?;
            (state, Some(telemetry))
        }
        None => (SolveState::from(initial_bounds(graph, &options)?), None),
    };
    run_ladder(graph, options, state, Some(config), resume)
}

/// The plain ladder's configuration: one attempt, no checkpoint, no
/// resume, no watchdog.
static SINGLE_ATTEMPT: SupervisorConfig = SupervisorConfig {
    checkpoint_path: None,
    resume_from: None,
    watchdog: None,
    max_retries: 0,
    escalation: 1,
};

/// The chromatic ladder: one [`ColoringSession`] per attempt answers
/// every decision query `[lower, upper)` needs, recording one
/// [`LadderStepTelemetry`] entry per query. `supervisor: None` is the
/// plain single attempt of `chromatic_number_outcome`, which records no
/// `supervisor` telemetry; `resume` is a restored checkpoint's telemetry,
/// recorded once the first session has re-imported its clauses.
///
/// Callers guarantee `graph` is nonempty, `options.k >= 1`, and
/// [`ColoringSession::supports`]`(&options)`.
pub(crate) fn run_ladder(
    graph: &Graph,
    mut options: SolveOptions,
    mut state: SolveState,
    supervisor: Option<&SupervisorConfig>,
    mut resume: Option<ResumeTelemetry>,
) -> Result<SupervisedOutcome, SolveError> {
    let config = supervisor.unwrap_or(&SINGLE_ATTEMPT);
    let recorder = options.recorder.clone();
    let mut run = Supervision {
        attempts: 0,
        watchdog_trips: 0,
        checkpoints_written: 0,
        final_escalation: 1,
        config,
        recorder: recorder.clone(),
        resumed: resume.is_some(),
        report: supervisor.is_some(),
    };

    if state.lower >= state.upper {
        // Bracket already collapsed (clique met DSATUR, or the resumed
        // checkpoint was final): provably optimal without any search. A
        // checkpoint is still written so a `--checkpoint` run always
        // leaves a resumable artifact behind.
        if let Some(telemetry) = resume {
            recorder.record_resume(telemetry);
        }
        run.attempts = 1;
        run.write_checkpoint(graph, &options, &state, None)?;
        return Ok(run.finish(state.into_outcome(None)));
    }
    run.write_checkpoint(graph, &options, &state, None)?;

    // `step` numbers every query across all attempts (the telemetry id);
    // `rungs_done` counts decided rungs (the mid-rung kill's schedule).
    let mut step: u64 = 0;
    let mut rungs_done: u64 = 0;
    loop {
        run.attempts += 1;
        let attempt = run.attempts;
        // Caps multiply per retry: factor = escalation^(attempt-1), capped.
        let factor = config
            .escalation
            .saturating_pow((attempt - 1).min(u64::from(u32::MAX)) as u32)
            .min(MAX_ESCALATION);
        run.final_escalation = u64::from(factor);
        // The first attempt runs the caller's budget verbatim (cancel
        // tokens included); retries re-arm with escalated caps and fresh
        // cancellation (a tripped watchdog token must not kill them).
        let base_budget =
            if attempt == 1 { options.budget.clone() } else { options.budget.escalated(factor) };

        // Reseed: shift every engine seed per attempt (and once more for
        // a resume, diversifying away from the dead run's seeds).
        let seed_offset = SEED_STRIDE.wrapping_mul(attempt - 1 + u64::from(run.resumed));
        let mut session = ColoringSession::with_seed_offset(graph, &options, seed_offset)?;
        // Committing the carried (re-validated, witnessed) upper bound
        // retires the rungs the heuristic race, an earlier attempt or the
        // checkpoint already skipped, and makes every carried clause
        // entailed by the strengthened formula, so the import is sound.
        session.commit_upper_bound(state.upper);
        let imported =
            if state.clauses.is_empty() { 0 } else { session.import_learned(&state.clauses) };
        if let Some(telemetry) = resume.take() {
            recorder
                .record_resume(ResumeTelemetry { clauses_imported: imported as u64, ..telemetry });
        }

        // One wall-clock for the whole attempt: arming the deadline here
        // (it arms once) makes every query share it. Conflict caps need
        // no special handling — persistent engines count cumulatively, so
        // a cap bounds the session's *total* work.
        let watchdog = Watchdog::arm(config.watchdog, &recorder);
        let budget = match &watchdog {
            Some(w) => base_budget.with_cancel_token(w.token.clone()).started(),
            None => base_budget.started(),
        };

        let mut exhaust: Option<ExhaustReason> = None;
        while state.lower < state.upper {
            if options.fault.as_ref().and_then(FaultPlan::mid_rung_kill) == Some(rungs_done) {
                panic!("injected fault: solve killed at ladder rung {rungs_done}");
            }
            let target = (state.upper - 1).min(session.k());
            let started = Instant::now();
            let s = session.query(target, &budget);
            recorder.record_ladder_step(LadderStepTelemetry {
                step,
                target,
                outcome: match &s.answer {
                    SessionAnswer::Colorable(_) => "sat",
                    SessionAnswer::NotColorable { .. } => "unsat",
                    SessionAnswer::Unknown => "unknown",
                }
                .to_string(),
                seconds: started.elapsed().as_secs_f64(),
                retained_clauses: s.retained_clauses,
                workers: s.workers,
            });
            step += 1;
            let k_capped = match s.answer {
                SessionAnswer::Colorable(c) => {
                    let colors = c.num_colors().min(target);
                    if colors < state.lower {
                        // A verified witness below a proven lower bound is
                        // an invariant violation, not progress (§4i).
                        return Err(SolveError::BoundContradiction {
                            lower: state.lower,
                            upper: colors,
                            detail: format!(
                                "ladder witness at target {target} beat the lower bound"
                            ),
                        });
                    }
                    state.upper = colors;
                    state.witness = c;
                    // The bound is monotone; retire the colors above it as
                    // permanent units so later queries run on a formula as
                    // tight as a fresh encoding at their own width.
                    session.commit_upper_bound(state.upper);
                    false
                }
                SessionAnswer::NotColorable { .. } => {
                    state.lower = (target + 1).max(state.lower);
                    target == session.k()
                }
                SessionAnswer::Unknown => {
                    exhaust = s.exhaust;
                    break;
                }
            };
            rungs_done += 1;
            run.write_checkpoint(graph, &options, &state, Some(&session))?;
            if k_capped && state.lower < state.upper {
                // The encoding cannot express more than k colors; the
                // remaining gap to the witness is a final K-cap bracket,
                // not budget exhaustion, so no retry can close it.
                return Ok(run.finish(state.into_outcome(None)));
            }
        }
        if watchdog.is_some_and(Watchdog::disarm) {
            run.watchdog_trips += 1;
        }
        if state.lower >= state.upper {
            return Ok(run.finish(state.into_outcome(None)));
        }
        // The attempt ran out (stall or genuine exhaustion): give up
        // honestly with everything proven so far, or carry the bracket
        // and clauses into a reseeded, escalated retry.
        if run.attempts > u64::from(config.max_retries) {
            return Ok(run.finish(state.into_outcome(exhaust)));
        }
        state.clauses = session.export_learned();
        // Injected faults hit the first attempt only: retries must
        // demonstrate genuine recovery.
        options.fault = None;
    }
}

/// Mutable solve state carried across attempts (and restored from
/// checkpoints): the bracket, its witness, and the clauses worth
/// re-importing.
pub(crate) struct SolveState {
    lower: usize,
    upper: usize,
    witness: Coloring,
    clauses: Vec<(Vec<Lit>, u32)>,
}

impl From<ChromaticBounds> for SolveState {
    fn from(b: ChromaticBounds) -> Self {
        SolveState { lower: b.lower, upper: b.upper, witness: b.witness, clauses: Vec::new() }
    }
}

impl SolveState {
    /// The chromatic answer this state proves: exact once the bracket has
    /// collapsed, the bracket otherwise.
    fn into_outcome(self, exhaust: Option<ExhaustReason>) -> ChromaticOutcome {
        let SolveState { lower, upper, witness, .. } = self;
        let result = if lower >= upper {
            ChromaticResult::Exact { chromatic_number: upper, witness }
        } else {
            ChromaticResult::Bounded { lower, upper, witness }
        };
        ChromaticOutcome { result, exhaust }
    }
}

/// Supervision bookkeeping shared by every exit path.
struct Supervision<'a> {
    attempts: u64,
    watchdog_trips: u64,
    checkpoints_written: u64,
    final_escalation: u64,
    config: &'a SupervisorConfig,
    recorder: Recorder,
    /// Whether the solve started from a restored checkpoint.
    resumed: bool,
    /// Whether to record `supervisor` telemetry (off for the plain ladder).
    report: bool,
}

impl Supervision<'_> {
    /// Persists the current state when checkpointing is configured, with
    /// the learned clauses `session` exports (the carried ones before the
    /// first session exists). Write failures are hard errors: the caller
    /// asked for durability, and pretending to have it would be the
    /// silent misbehavior this module exists to remove.
    fn write_checkpoint(
        &mut self,
        graph: &Graph,
        options: &SolveOptions,
        state: &SolveState,
        session: Option<&ColoringSession<'_>>,
    ) -> Result<(), SolveError> {
        let Some(path) = &self.config.checkpoint_path else {
            return Ok(());
        };
        let ckpt = SolveCheckpoint {
            fingerprint: GraphFingerprint::of(graph),
            sbp: options.sbp_mode.display_name().to_string(),
            ceiling: session.map(ColoringSession::k).unwrap_or(0) as u64,
            lower: state.lower as u64,
            upper: state.upper as u64,
            witness: Some(state.witness.colors().iter().map(|&c| c as u64).collect()),
            worker_seeds: session.map(ColoringSession::worker_seeds).unwrap_or_default(),
            clauses: match session {
                Some(session) => session.export_learned(),
                None => state.clauses.clone(),
            },
        };
        ckpt.save(path, options.fault.as_ref())?;
        self.checkpoints_written += 1;
        Ok(())
    }

    /// Records the supervision summary (supervised runs only) and
    /// assembles the outcome.
    fn finish(self, outcome: ChromaticOutcome) -> SupervisedOutcome {
        if self.report {
            self.recorder.record_supervisor(SupervisorTelemetry {
                attempts: self.attempts,
                watchdog_trips: self.watchdog_trips,
                watchdog_secs: self.config.watchdog.map(|w| w.as_secs_f64()),
                final_escalation: self.final_escalation,
                checkpoints_written: self.checkpoints_written,
                checkpoint_path: self
                    .config
                    .checkpoint_path
                    .as_ref()
                    .map(|p| p.display().to_string()),
            });
        }
        SupervisedOutcome {
            outcome,
            attempts: self.attempts,
            watchdog_trips: self.watchdog_trips,
            checkpoints_written: self.checkpoints_written,
            resumed: self.resumed,
        }
    }
}

/// Loads `path` and re-validates everything the checkpoint claims at the
/// trust boundary. Returns the restored state plus the resume telemetry
/// (its `clauses_imported` is filled in once the first session accepts
/// the clauses).
fn restore(
    graph: &Graph,
    options: &SolveOptions,
    path: &std::path::Path,
) -> Result<(SolveState, ResumeTelemetry), SolveError> {
    let ckpt = SolveCheckpoint::load(path)?;
    let resuming = GraphFingerprint::of(graph);
    if ckpt.fingerprint != resuming {
        return Err(CheckpointError::GraphMismatch { stored: ckpt.fingerprint, resuming }.into());
    }
    match SbpMode::parse(&ckpt.sbp) {
        None => {
            return Err(CheckpointError::SbpMismatch {
                stored: ckpt.sbp,
                detail: "unknown SBP mode name".to_string(),
            }
            .into());
        }
        Some(mode) if mode != options.sbp_mode => {
            return Err(CheckpointError::SbpMismatch {
                stored: ckpt.sbp,
                detail: format!(
                    "resume options use {} — committed bounds and learned clauses are only \
                     sound under the encoding they were produced with",
                    options.sbp_mode.display_name()
                ),
            }
            .into());
        }
        Some(_) => {}
    }
    // The witness is cheap to re-check, so it is never trusted: length,
    // propriety, and color count must all hold before its upper bound
    // counts for anything.
    let upper = usize::try_from(ckpt.upper)
        .map_err(|_| CheckpointError::Malformed("upper bound exceeds usize".to_string()))?;
    let witness = match &ckpt.witness {
        None => None,
        Some(colors) => {
            let mut decoded = Vec::with_capacity(colors.len());
            for &c in colors {
                decoded.push(usize::try_from(c).map_err(|_| {
                    CheckpointError::InvalidWitness("color exceeds usize".to_string())
                })?);
            }
            let coloring = Coloring::new(decoded);
            if coloring.num_vertices() != graph.num_vertices() {
                return Err(CheckpointError::InvalidWitness(format!(
                    "witness colors {} vertices, graph has {}",
                    coloring.num_vertices(),
                    graph.num_vertices()
                ))
                .into());
            }
            if !coloring.is_proper(graph) {
                return Err(CheckpointError::InvalidWitness("improper coloring".to_string()).into());
            }
            if coloring.num_colors() > upper {
                return Err(CheckpointError::InvalidWitness(format!(
                    "witness uses {} colors, more than the claimed upper bound {}",
                    coloring.num_colors(),
                    upper
                ))
                .into());
            }
            Some(coloring.compacted())
        }
    };
    // The greedy bounds are recomputed from the graph, so the resumed
    // bracket can only be as good as or better than a fresh start —
    // never worse, and never below a provable clique bound.
    let fresh = bounds(graph);
    // Clauses reference the dead session's encoding variables; they are
    // only meaningful if the resumed session will rebuild the *same*
    // encoding (same width). A mismatched width drops them — the bracket
    // and witness still resume fine.
    let clauses = if ckpt.ceiling == encoding_width(&fresh, options) as u64 {
        ckpt.clauses.clone()
    } else {
        Vec::new()
    };
    let stored_lower = usize::try_from(ckpt.lower)
        .map_err(|_| CheckpointError::Malformed("lower bound exceeds usize".to_string()))?;
    let lower = stored_lower.max(fresh.lower);
    let (upper, witness) = match witness {
        Some(w) => (w.num_colors().min(upper), w),
        // No witness in the checkpoint: the stored upper bound is
        // unwitnessed hearsay; fall back to the fresh DSATUR witness.
        None => (fresh.upper, fresh.witness),
    };
    if lower > upper {
        return Err(CheckpointError::Malformed(format!(
            "restored bracket [{lower}, {upper}] is crossed after re-validation"
        ))
        .into());
    }
    let telemetry = ResumeTelemetry {
        from_path: path.display().to_string(),
        lower,
        upper,
        witness_colors: Some(witness.num_colors()),
        clauses_offered: ckpt.clauses.len() as u64,
        clauses_imported: 0,
        rungs_skipped: fresh.upper.saturating_sub(upper) as u64,
    };
    Ok((SolveState { lower, upper, witness, clauses }, telemetry))
}

/// A per-attempt watchdog: a thread that trips `token` when the
/// recorder's conflict counter stops advancing for the window.
struct Watchdog {
    token: CancelToken,
    tripped: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(window: Option<Duration>, recorder: &Recorder) -> Option<Watchdog> {
        let window = window?;
        let token = CancelToken::new();
        let tripped = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let token = token.clone();
            let tripped = Arc::clone(&tripped);
            let stop = Arc::clone(&stop);
            let recorder = recorder.clone();
            // Poll often enough to trip promptly, rarely enough to stay
            // invisible next to the solver threads.
            let poll = (window / 8).clamp(Duration::from_millis(5), Duration::from_millis(250));
            std::thread::spawn(move || {
                let mut last_conflicts = recorder.counter(Counter::Conflicts);
                let mut last_progress = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    let conflicts = recorder.counter(Counter::Conflicts);
                    if conflicts != last_conflicts {
                        last_conflicts = conflicts;
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= window {
                        tripped.store(true, Ordering::Relaxed);
                        token.cancel();
                        return;
                    }
                }
            })
        };
        Some(Watchdog { token, tripped, stop, handle })
    }

    /// Stops the thread and reports whether it tripped.
    fn disarm(self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        self.tripped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::SolveOptions;
    use sbgc_graph::gen::{mycielski, queens};

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sbgc-supervisor-{}-{}.ckpt", std::process::id(), name));
        p
    }

    #[test]
    fn knob_validation_rejects_degenerate_configs() {
        let zero_watchdog = SupervisorConfig::new().with_watchdog(Duration::ZERO);
        assert!(matches!(zero_watchdog.validate(), Err(SolveError::InvalidConfig(_))));
        let zero_retries = SupervisorConfig::new().with_max_retries(0);
        assert!(matches!(zero_retries.validate(), Err(SolveError::InvalidConfig(_))));
        let zero_escalation = SupervisorConfig::new().with_escalation(0);
        assert!(matches!(zero_escalation.validate(), Err(SolveError::InvalidConfig(_))));
        assert!(SupervisorConfig::new().validate().is_ok());
    }

    #[test]
    fn supervised_solve_matches_the_plain_ladder() {
        let graph = mycielski(4); // χ = 5, triangle-free: the ladder works
        let options = SolveOptions::new(8);
        let out = solve_supervised(&graph, &options, &SupervisorConfig::new()).unwrap();
        assert_eq!(out.outcome.exact(), Some(5));
        assert!(out.outcome.witness().is_proper(&graph));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.watchdog_trips, 0);
        assert_eq!(out.checkpoints_written, 0);
        assert!(!out.resumed);
    }

    #[test]
    fn checkpoints_are_written_and_resumable() {
        let graph = mycielski(4); // χ = 5, bracket starts open: rungs run
        let options = SolveOptions::new(8);
        let path = scratch("resume");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        let out = solve_supervised(&graph, &options, &config).unwrap();
        assert_eq!(out.outcome.exact(), Some(5));
        assert!(out.checkpoints_written >= 2, "initial + per-rung checkpoints");
        // The final checkpoint resumes to the exact answer without any
        // further search, and the report still says it resumed.
        let rec = Recorder::new();
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let back =
            solve_supervised(&graph, &options.clone().with_recorder(rec.clone()), &resume).unwrap();
        assert_eq!(back.outcome.exact(), Some(5));
        assert!(back.resumed);
        let telemetry = rec.resume().expect("a resume from a final checkpoint is recorded");
        assert_eq!((telemetry.lower, telemetry.upper), (5, 5));
        assert!(rec.ladder_steps().is_empty(), "no rung is re-run");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_graph() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8);
        let path = scratch("stale");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let other = mycielski(4);
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&other, &options, &resume).unwrap_err();
        assert!(matches!(err, SolveError::Checkpoint(CheckpointError::GraphMismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_bit_flipped_checkpoint() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8);
        let path = scratch("flipped");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&graph, &options, &resume).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::Checkpoint(
                    CheckpointError::ChecksumMismatch { .. } | CheckpointError::Malformed(_)
                )
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_mismatched_sbp_mode() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8).with_sbp_mode(SbpMode::Nu);
        let path = scratch("sbp");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let other = SolveOptions::new(8).with_sbp_mode(SbpMode::Li);
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&graph, &other, &resume).unwrap_err();
        assert!(
            matches!(err, SolveError::Checkpoint(CheckpointError::SbpMismatch { .. })),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
