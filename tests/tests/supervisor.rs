//! Supervisor chaos suite: kill-and-resume, corrupted checkpoints, and
//! watchdog-driven restarts, end to end.
//!
//! These are the acceptance tests of the resumable-solve layer (see
//! `docs/ROBUSTNESS.md`):
//!
//! * a solve killed mid-ladder resumes from its on-disk checkpoint,
//!   skips the already-committed rungs (visible in the `ladder[]` and
//!   `resume` telemetry of the v8 report schema), and reaches the same χ;
//! * a bit-flipped checkpoint is rejected with a typed error, never a
//!   panic or a silently wrong resume;
//! * a deliberately stalled portfolio is detected by the wall-clock
//!   watchdog, cancelled, and restarted with an escalated budget — and
//!   the retried race still completes;
//! * on random G(n,p) instances, killing the solve at a scheduled ladder
//!   rung and resuming agrees exactly with the uninterrupted solve
//!   (seeded and deterministic, so failures replay).

use sbgc_core::{
    solve_supervised, CheckpointError, SolveError, SolveOptions, SolverKind, SupervisorConfig,
};
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_obs::{FaultPlan, Recorder, RunReport};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbgc-supervisor-it-{}-{name}.ckpt", std::process::id()))
}

#[test]
fn killed_queen6_6_solve_resumes_and_skips_committed_rungs() {
    // χ(queen6_6) = 7. Without heuristics the DSATUR bracket is open, so
    // rung 0 is a SAT query that commits a tighter upper bound (and its
    // checkpoint); the injected kill then fires at the start of rung 1.
    let graph = queens(6, 6);
    let path = scratch("queen66-kill");
    let options = SolveOptions::new(9).without_heuristics();
    let config = SupervisorConfig::new().with_checkpoint_path(&path);
    let fault = FaultPlan::new(17).with_mid_rung_kill(1);
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        solve_supervised(&graph, &options.clone().with_fault_plan(fault), &config)
    }));
    let message = match killed {
        Err(payload) => *payload.downcast::<String>().expect("panic carries its message"),
        Ok(out) => panic!("the injected kill must unwind, got {out:?}"),
    };
    assert!(message.contains("injected fault"), "{message}");
    assert!(path.exists(), "rung 0's checkpoint must already be on disk");

    // Resume from the checkpoint: same χ, and the committed rung is never
    // re-proved — every remaining ladder query targets at most the
    // restored upper bound minus one.
    let rec = Recorder::new();
    let resume_options = SolveOptions::new(9).without_heuristics().with_recorder(rec.clone());
    let resume = SupervisorConfig::new().with_resume_from(&path);
    let out = solve_supervised(&graph, &resume_options, &resume).expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7), "resumed solve reaches χ(queen6_6)");
    assert!(out.resumed);
    assert!(out.outcome.witness().is_proper(&graph));

    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert!(telemetry.rungs_skipped >= 1, "the committed rung is skipped: {telemetry:?}");
    assert!(telemetry.upper <= 8, "rung 0's checkpoint tightened the DSATUR bracket");
    assert!(telemetry.witness_colors.is_some());
    let steps = rec.ladder_steps();
    assert!(!steps.is_empty(), "the resumed ladder still proves the lower bound");
    assert!(
        steps.iter().all(|s| s.target < telemetry.upper),
        "no resumed query re-asks a committed rung: {steps:?}"
    );

    // The v8 report schema carries the whole story.
    let mut report = RunReport::default();
    report.from_recorder(&rec);
    let json = report.to_json(0);
    assert!(json.contains("\"resume\""), "{json}");
    assert!(json.contains("\"rungs_skipped\""), "{json}");
    assert!(json.contains("\"supervisor\""), "{json}");
    assert!(json.contains("\"ladder\""), "{json}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flipped_checkpoint_is_rejected_with_a_typed_error() {
    // The corruption is injected at write time (one flipped bit in the
    // payload), modeling storage rot between the save and the resume.
    let graph = mycielski(4); // χ = 5
    let path = scratch("bit-flip");
    let options = SolveOptions::new(8);
    let fault = FaultPlan::new(3).with_checkpoint_corruption(41);
    let config = SupervisorConfig::new().with_checkpoint_path(&path);
    let out = solve_supervised(&graph, &options.clone().with_fault_plan(fault), &config)
        .expect("corruption only bites at load time");
    assert_eq!(out.outcome.exact(), Some(5));

    let resume = SupervisorConfig::new().with_resume_from(&path);
    let err = solve_supervised(&graph, &options, &resume)
        .expect_err("a corrupted checkpoint must never resume");
    match err {
        SolveError::Checkpoint(CheckpointError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected a checksum rejection, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn watchdog_restarts_a_stalled_race_and_still_completes() {
    // Every portfolio worker stalls from the very first query (burning
    // wall-clock with zero conflict progress). The watchdog must trip,
    // cancel the attempt, and the reseeded, escalated retry — where the
    // fault no longer applies — must still prove χ(myciel3) = 4.
    let graph = mycielski(3);
    let rec = Recorder::new();
    let options = SolveOptions::new(6)
        .with_solver(SolverKind::Portfolio)
        .with_recorder(rec.clone())
        .without_heuristics();
    let fault = FaultPlan::new(7).with_stalled_worker(0, 0);
    let config =
        SupervisorConfig::new().with_watchdog(Duration::from_millis(250)).with_max_retries(2);
    let out = solve_supervised(&graph, &options.with_fault_plan(fault), &config)
        .expect("a stall is recoverable, not an error");
    assert_eq!(out.outcome.exact(), Some(4), "the race still completes");
    assert!(out.watchdog_trips >= 1, "the stall must be detected: {out:?}");
    assert!(out.attempts >= 2, "the stalled attempt must be retried: {out:?}");

    let sup = rec.supervisor().expect("supervisor telemetry recorded");
    assert_eq!(sup.attempts, out.attempts);
    assert_eq!(sup.watchdog_trips, out.watchdog_trips);
    assert!(sup.final_escalation >= 2, "retries run with escalated budgets: {sup:?}");
    assert_eq!(sup.watchdog_secs, Some(0.25));

    // Every query gets its own step id across attempts: the stalled
    // query that ended attempt 1 and the retry's first query differ.
    let steps: Vec<u64> = rec.ladder_steps().iter().map(|s| s.step).collect();
    let expected: Vec<u64> = (0..steps.len() as u64).collect();
    assert_eq!(steps, expected, "ladder step ids must number every query");
}

#[test]
fn resumed_clauses_are_reimported_only_at_the_same_encoding_width() {
    // χ(queen6_6) = 7 and DSATUR needs 9 colors, so a session encodes at
    // width 8 under a cap of 9 and at width 7 under a cap of 7. Variable
    // x[v,c] is numbered v·K + c, so clauses learned at one width name
    // other literals at another: a resume under the same cap re-imports
    // them, a resume that changes the width must drop them.
    let graph = queens(6, 6);
    let path = scratch("width");
    let options = SolveOptions::new(9).without_heuristics();
    let config = SupervisorConfig::new().with_checkpoint_path(&path);
    let fault = FaultPlan::new(5).with_mid_rung_kill(1);
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        solve_supervised(&graph, &options.with_fault_plan(fault), &config)
    }));
    assert!(killed.is_err(), "the injected kill must unwind");

    for (k, same_width) in [(9, true), (7, false)] {
        let rec = Recorder::new();
        let options = SolveOptions::new(k).without_heuristics().with_recorder(rec.clone());
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let out = solve_supervised(&graph, &options, &resume).expect("checkpoint accepted");
        assert_eq!(out.outcome.exact(), Some(7), "k = {k}: resumed χ agrees");
        let telemetry = rec.resume().expect("resume telemetry recorded");
        assert!(telemetry.clauses_offered > 0, "k = {k}: the checkpoint carries clauses");
        if same_width {
            assert!(telemetry.clauses_imported > 0, "same width re-imports: {telemetry:?}");
        } else {
            assert_eq!(telemetry.clauses_imported, 0, "another width drops: {telemetry:?}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn random_gnp_kill_and_resume_agrees_with_the_uninterrupted_solve() {
    // Seeded G(n,p) property sweep: for each instance, the uninterrupted
    // supervised solve fixes the ground truth; a solve killed at a seeded
    // ladder rung and resumed from its checkpoint must reach the same χ
    // with a proper witness. Everything is derived from the seed — a
    // failing case replays identically.
    for seed in [11u64, 23, 47] {
        let graph = gnp(18, 0.45, seed);
        if graph.num_vertices() == 0 {
            continue;
        }
        let options = SolveOptions::new(12).without_heuristics();
        let truth = solve_supervised(&graph, &options, &SupervisorConfig::new())
            .expect("uninterrupted solve")
            .outcome;
        let chi = truth.exact().expect("small G(n,p) instances decide");

        let path = scratch(&format!("gnp-{seed}"));
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        let kill_rung = seed % 3; // seeded, spread over early rungs
        let fault = FaultPlan::new(seed).with_mid_rung_kill(kill_rung);
        let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            solve_supervised(&graph, &options.clone().with_fault_plan(fault), &config)
        }));
        let resumed = match killed {
            // The kill fired mid-ladder: resume from the checkpoint.
            Err(_) => {
                assert!(path.exists(), "seed {seed}: checkpoint written before the kill");
                let resume = SupervisorConfig::new().with_resume_from(&path);
                solve_supervised(&graph, &options, &resume).expect("resume accepted").outcome
            }
            // The ladder finished before the scheduled rung: the result
            // must already agree, and the final checkpoint still resumes.
            Ok(done) => {
                done.expect("supervised solve");
                let resume = SupervisorConfig::new().with_resume_from(&path);
                solve_supervised(&graph, &options, &resume).expect("resume accepted").outcome
            }
        };
        assert_eq!(resumed.exact(), Some(chi), "seed {seed}: resumed χ agrees");
        let witness = resumed.witness();
        assert!(witness.is_proper(&graph), "seed {seed}: resumed witness is proper");
        assert!(witness.num_colors() <= chi, "seed {seed}: witness within χ");
        std::fs::remove_file(&path).unwrap();
    }
}
