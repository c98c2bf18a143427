//! Chaos suite: deterministic fault injection across the whole pipeline.
//!
//! Every fault here is scheduled by a seeded [`FaultPlan`] — no wall-clock
//! or RNG state at trigger time — so a failing case replays identically.
//! The suite exercises the robustness contracts end to end:
//!
//! * a portfolio worker that panics mid-race must not take the race down:
//!   survivors decide, telemetry marks the corpse, no lock is poisoned;
//! * a failing proof-archive stream must degrade the certificate honestly
//!   (`Unchecked`, never a fabricated `Checked` or a spurious `Rejected`);
//! * an exhausted budget must yield a proven bracket plus the *reason*
//!   the search stopped, for every budget dimension including memory.

use sbgc_core::{
    certify_unsat_formula_streamed, chromatic_number_outcome, cnf_decision_formula,
    ChromaticResult, ColoringEncoding, ProofStatus, SolveOptions,
};
use sbgc_formula::PbFormula;
use sbgc_formula::{Lit, Objective, Var};
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_graph::Graph;
use sbgc_obs::{FaultPlan, Recorder};
use sbgc_pb::{
    optimize, portfolio_configs, Budget, DecisionBackend, ExhaustReason, OptOutcome, Optimizer,
    PortfolioSession, SharingConfig, SolveOutcome, SolverKind,
};
use sbgc_proof::FileProofLogger;

fn coloring_formula(graph: &Graph, k: usize) -> PbFormula {
    ColoringEncoding::new(graph, k).formula().clone()
}

/// A session of `workers` portfolio workers with clause sharing on and
/// the given fault plan.
fn session(
    formula: &PbFormula,
    workers: usize,
    rec: &Recorder,
    plan: Option<&FaultPlan>,
) -> PortfolioSession {
    PortfolioSession::with_instrumentation(
        formula,
        &portfolio_configs(workers),
        rec,
        plan,
        Some(SharingConfig::default()),
    )
    .expect("non-empty portfolio")
}

/// Linear-search optimization over a faulted session of `workers`.
fn faulted_optimizer(
    formula: &PbFormula,
    workers: usize,
    rec: &Recorder,
    plan: &FaultPlan,
) -> Optimizer {
    let objective = formula.objective().expect("coloring objective").clone();
    Optimizer::with_backend(
        DecisionBackend::Portfolio(session(formula, workers, rec, Some(plan))),
        objective,
    )
}

/// Pigeonhole behind a gate literal: UNSAT under `¬gate`, SAT outright.
fn gated_pigeonhole(holes: usize) -> (PbFormula, Lit) {
    let pigeons = holes + 1;
    let mut f = PbFormula::new();
    let gate = f.new_var().positive();
    let x: Vec<Vec<Lit>> =
        (0..pigeons).map(|_| f.new_vars(holes).into_iter().map(Var::positive).collect()).collect();
    for p in &x {
        f.add_clause(p.iter().copied().chain([gate]));
    }
    for p in 0..pigeons {
        for q in p + 1..pigeons {
            for (&ph, &qh) in x[p].iter().zip(&x[q]) {
                f.add_clause([!ph, !qh]);
            }
        }
    }
    (f, gate)
}

fn unsat_cnf(graph: &Graph, k: usize) -> PbFormula {
    let (num_vars, clauses) = cnf_decision_formula(graph, k);
    let mut f = PbFormula::with_vars(num_vars);
    for c in &clauses {
        f.add_clause(c.iter().copied());
    }
    f
}

#[test]
fn mid_race_panic_yields_correct_answer_from_survivors() {
    // Kill one of three workers the moment it starts; the other two must
    // still prove χ(queen5_5) = 5 and the race must report the casualty.
    let formula = coloring_formula(&queens(5, 5), 7);
    let plan = FaultPlan::new(3).with_worker_panic(1, 0);
    let rec = Recorder::new();
    let mut opt = faulted_optimizer(&formula, 3, &rec, &plan);

    match opt.run(&Budget::unlimited()) {
        OptOutcome::Optimal { value, .. } => assert_eq!(value, 5),
        ref other => panic!("survivors must still decide, got {other:?}"),
    }
    assert_eq!(opt.backend().alive_workers(), 2, "exactly one worker died");

    // Telemetry: all three workers reported on query 0, exactly one marked
    // failed, and the dead worker won nothing.
    let workers = rec.workers();
    assert_eq!(workers.iter().filter(|w| w.query == Some(0)).count(), 3);
    assert!(workers.iter().filter(|w| w.won).all(|w| w.index != 1), "the dead worker cannot win");
    let dead: Vec<_> = workers.iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].index, 1);
    assert!(dead[0].failed.as_deref().unwrap().contains("injected fault"));
    assert!(!dead[0].won);
}

#[test]
fn injected_faults_replay_deterministically() {
    // The same plan against the same instance must kill the same worker
    // and leave the same answer — chaos tests that fail must replay.
    let formula = coloring_formula(&mycielski(3), 6);
    let run = || {
        let plan = FaultPlan::new(11).with_seeded_worker_panic(4, 0);
        let rec = Recorder::new();
        let mut opt = faulted_optimizer(&formula, 4, &rec, &plan);
        let value = opt.run(&Budget::unlimited()).value();
        let failed = 4 - opt.backend().alive_workers();
        let dead: Vec<usize> =
            rec.workers().iter().filter(|w| w.failed.is_some()).map(|w| w.index).collect();
        (value, failed, dead)
    };
    let (value_a, failed_a, dead_a) = run();
    let (value_b, failed_b, dead_b) = run();
    assert_eq!(value_a, Some(4), "χ(myciel3) = 4");
    assert_eq!((value_a, failed_a, &dead_a), (value_b, failed_b, &dead_b));
    assert_eq!(dead_a.len(), 1);
}

#[test]
fn panicked_race_leaves_shared_state_usable() {
    // A recorder that lived through a worker panic must keep working: a
    // poisoned telemetry lock would hang or crash the next race.
    let formula = coloring_formula(&Graph::complete(4), 5);
    let rec = Recorder::new();
    let plan = FaultPlan::new(0).with_worker_panic(0, 0);
    let first = session(&formula, 2, &rec, Some(&plan)).query(&[], &Budget::unlimited());
    assert!(matches!(first.outcome, SolveOutcome::Sat(_)));
    assert_eq!(first.failed_workers, 1);

    // Same recorder, no faults: the second race must behave normally.
    let second = session(&formula, 2, &rec, None).query(&[], &Budget::unlimited());
    assert!(matches!(second.outcome, SolveOutcome::Sat(_)));
    assert_eq!(second.failed_workers, 0);
    assert_eq!(rec.workers().len(), 4, "both races recorded telemetry");
}

#[test]
fn mid_export_panic_leaves_the_clause_pool_usable() {
    // Worker 2 exports learned clauses into the shared pool during query 0
    // and dies at the start of query 1. The pool must not be poisoned for
    // the survivors, who keep importing and still refute the gated
    // pigeonhole; the dead worker's published clauses stay valid (they are
    // formula-entailed regardless of who learned them). Query 0 is capped
    // far below what refuting PHP(7, 6) takes, so every worker runs to the
    // cap.
    let (formula, gate) = gated_pigeonhole(6);
    let rec = Recorder::new();
    let plan = FaultPlan::new(5).with_worker_panic(2, 1);
    let mut s = session(&formula, 4, &rec, Some(&plan));
    let first = s.query(&[!gate], &Budget::unlimited().with_max_conflicts(64));
    assert!(matches!(first.outcome, SolveOutcome::Unknown));
    let exported: u64 = rec
        .workers()
        .iter()
        .filter(|w| w.index == 2 && w.query == Some(0))
        .map(|w| w.search.exported)
        .sum();
    assert!(exported > 0, "the doomed worker exported before dying");

    let out = s.query(&[!gate], &Budget::unlimited());
    assert!(matches!(out.outcome, SolveOutcome::Unsat), "survivors must still refute");
    assert_eq!(out.failed_workers, 1);
    let (winner_index, _) = out.winner.expect("a survivor won");
    assert_ne!(winner_index, 2, "the dead worker cannot win");
    // The sharing counters flowed through telemetry despite the casualty.
    assert!(rec.counter(sbgc_obs::Counter::Exported) >= first.stats.exported + out.stats.exported);
    assert!(rec.counter(sbgc_obs::Counter::Imported) >= first.stats.imported + out.stats.imported);
}

#[test]
fn worker_panic_through_the_public_ladder_keeps_chi() {
    // The fault plan rides in the options, so the public ladder entry
    // point injects it too: worker 1 of the session's portfolio dies on
    // entry, and the survivors must still prove χ(G(24, 0.5, 3)) = 7.
    let g = gnp(24, 0.5, 3);
    let options = SolveOptions::new(20).with_solver(SolverKind::Portfolio).without_heuristics();
    let clean = chromatic_number_outcome(&g, &options).expect("valid inputs");
    assert_eq!(clean.exact(), Some(7));

    let rec = Recorder::new();
    let plan = FaultPlan::new(4).with_worker_panic(1, 0);
    let faulted = options.with_recorder(rec.clone()).with_fault_plan(plan);
    let out = chromatic_number_outcome(&g, &faulted).expect("valid inputs");
    assert_eq!(out.exact(), clean.exact(), "survivors reach the unfaulted χ");
    assert!(out.witness().is_proper(&g));
    let dead: Vec<_> = rec.workers().into_iter().filter(|w| w.failed.is_some()).collect();
    assert!(!dead.is_empty(), "the casualty is in telemetry");
    assert!(dead.iter().all(|w| w.index == 1), "only worker 1 died: {dead:?}");
}

#[test]
fn killing_the_only_worker_degrades_to_unknown() {
    let formula = coloring_formula(&queens(5, 5), 7);
    let plan = FaultPlan::new(0).with_worker_panic(0, 0);
    let mut opt = faulted_optimizer(&formula, 1, &Recorder::disabled(), &plan);
    let out = opt.run(&Budget::unlimited());
    assert!(!out.is_optimal(), "no survivor can have proven optimality");
    assert!(!out.is_decided(), "no winner");
    assert_eq!(opt.backend().alive_workers(), 0, "the only worker died");
}

/// Maximum independent set of `graph` as a minimization: one variable per
/// vertex, a clause per edge, and the objective counts the vertices left
/// out. The all-false phase of the sequential preset finds the worst model
/// first, so the strengthening loop runs through many improvements.
fn independent_set_formula(graph: &Graph) -> PbFormula {
    let mut f = PbFormula::new();
    let x: Vec<Lit> = f.new_vars(graph.num_vertices()).into_iter().map(Var::positive).collect();
    for (u, v) in graph.edges() {
        f.add_clause([!x[u], !x[v]]);
    }
    f.set_objective(Objective::minimize(x.iter().map(|&l| (1, !l))));
    f
}

#[test]
fn worker_death_between_improvements_keeps_the_sequential_optimum() {
    // Worker 1 dies at the start of query 1: after the first model's
    // objective cut was committed to every worker, before the next
    // improvement. The survivors must carry the strengthening loop on to
    // the same optimum as the sequential optimizer (36 − α = 30 cells
    // left empty on the 6×6 queens board).
    let formula = independent_set_formula(&queens(6, 6));
    let sequential = optimize(&formula, SolverKind::PbsII, &Budget::unlimited());
    assert_eq!(sequential.value(), Some(30));
    assert!(sequential.is_optimal());
    let rec = Recorder::new();
    let plan = FaultPlan::new(2).with_worker_panic(1, 1);
    let mut opt = faulted_optimizer(&formula, 3, &rec, &plan);
    let out = opt.run(&Budget::unlimited());
    assert!(out.is_optimal(), "survivors must prove optimality, got {out:?}");
    assert_eq!(out.value(), sequential.value());
    assert!(formula.is_satisfied_by(out.model().expect("optimal model")));
    assert_eq!(opt.backend().alive_workers(), 2);

    let workers = rec.workers();
    let dead: Vec<_> = workers.iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1);
    assert_eq!((dead[0].index, dead[0].query), (1, Some(1)));
    // Queries 0 and 1 both ended in an improvement: the loop issued at
    // least one more query (the next improvement or the optimality proof).
    let last = workers.iter().filter_map(|w| w.query).max().expect("tagged");
    assert!(last >= 2, "expected two improvements, got {} queries", last + 1);
}

#[test]
fn failed_proof_stream_degrades_certificate_honestly() {
    // K4 is not 3-colorable, so the refutation certifies — unless the
    // archive stream fails, in which case the status must drop to
    // Unchecked with the stream error, never stay Checked.
    let f = unsat_cnf(&Graph::complete(4), 3);
    let plan = FaultPlan::new(9).with_proof_write_failure(1);
    let logger = FileProofLogger::new(std::io::sink()).with_fault_plan(&plan);
    let (status, proof) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
    match status {
        ProofStatus::Unchecked { reason } => {
            assert!(reason.contains("proof stream failed"), "{reason}");
        }
        other => panic!("a failing archive must degrade the status, got {other}"),
    }
    assert!(proof.is_some(), "the in-memory proof survives the archive failure");

    // A later write failing (not the first) degrades just the same — the
    // archive is incomplete either way.
    let plan = FaultPlan::new(9).with_proof_write_failure(5);
    let logger = FileProofLogger::new(std::io::sink()).with_fault_plan(&plan);
    let (status, _) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
    assert!(matches!(status, ProofStatus::Unchecked { .. }), "{status}");
}

#[test]
fn healthy_proof_stream_still_certifies() {
    // Control for the degradation test: without injected faults the
    // streamed path must certify exactly like the in-memory path.
    let f = unsat_cnf(&Graph::complete(4), 3);
    let logger = FileProofLogger::new(std::io::sink());
    let (status, proof) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
    assert!(matches!(status, ProofStatus::Checked { .. }), "{status}");
    assert!(proof.is_some());
}

#[test]
fn conflict_exhausted_search_reports_proven_bracket() {
    // Mycielski-4: clique 2, χ = 5, DSATUR overshoots, so a real search is
    // needed and a 1-conflict budget cannot finish it.
    let g = mycielski(4);
    let opts = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
    let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
    match out.result {
        ChromaticResult::Bounded { lower, upper, ref witness } => {
            assert!(lower <= 5 && 5 <= upper, "bracket [{lower}, {upper}] must contain χ");
            assert!(witness.is_proper(&g), "the upper bound stays witnessed");
            assert_eq!(out.exhaust, Some(ExhaustReason::Conflicts));
        }
        ChromaticResult::Exact { chromatic_number, .. } => {
            // A 1-conflict budget conceivably still decides; then there is
            // no exhaustion to report.
            assert_eq!(chromatic_number, 5);
            assert_eq!(out.exhaust, None);
        }
    }
}

#[test]
fn memory_exhausted_search_reports_memory_reason() {
    // A one-byte arena cap trips the memory check at the first stride-64
    // budget check; queen6_6 at K = 7 needs far more than 64 conflicts.
    let g = queens(6, 6);
    let opts = SolveOptions::new(7).with_budget(Budget::unlimited().with_max_memory(1));
    let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
    match out.result {
        ChromaticResult::Bounded { lower, upper, ref witness } => {
            assert!(lower <= 7 && 7 <= upper, "bracket [{lower}, {upper}] must contain χ");
            assert!(witness.is_proper(&g));
            assert_eq!(out.exhaust, Some(ExhaustReason::Memory));
        }
        ChromaticResult::Exact { .. } => {
            panic!("a one-byte memory budget cannot complete the queen6_6 search")
        }
    }
}

#[test]
fn improper_heuristic_witness_is_rejected_at_the_trust_boundary() {
    // A fault-injected TabuCol worker emits an improper coloring (one
    // monochromatic edge). The trust boundary must reject it before it
    // can touch the shared incumbent, count the rejection, and retire the
    // worker — while the surviving workers keep the bracket sound.
    use sbgc_core::{race_heuristics, ChromaticBounds, Coloring};

    let g = Graph::cycle(9); // χ = 3
    let loose = ChromaticBounds { lower: 1, upper: 9, witness: Coloring::new((0..9).collect()) };
    let rec = Recorder::new();
    let opts = SolveOptions::new(20).with_recorder(rec.clone());
    let plan = FaultPlan::new(21).with_improper_witness(0);
    let out = race_heuristics(&g, &opts.clone().with_fault_plan(plan), &loose);

    assert!(out.rejected_witnesses >= 1, "the corrupted offer must be rejected");
    assert!(out.failed_workers >= 1, "an untrustworthy worker is retired");
    assert!(out.witness.is_proper(&g), "survivors keep a validated witness");
    assert_eq!(out.witness.num_colors(), out.upper);
    assert!(out.lower <= out.upper);
    assert_eq!(out.upper, 3, "PartialCol alone still walks C9 down to χ = 3");

    // Telemetry tells the same story: the TabuCol record is marked
    // failed, and the per-run heuristics object carries both tallies.
    let workers = rec.workers();
    let tabu = workers.iter().find(|w| w.kind == "tabucol").expect("telemetry for worker 0");
    assert!(tabu.failed.is_some(), "the rejection is fatal for the offending worker");
    let h = rec.heuristics().expect("heuristics telemetry recorded");
    assert!(h.rejected_witnesses >= 1);
    assert!(h.failed_workers >= 1);

    // And the sound result is untouched by re-running without the fault.
    let healthy = race_heuristics(&g, &opts, &loose);
    assert_eq!(healthy.rejected_witnesses, 0);
    assert_eq!(healthy.failed_workers, 0);
    assert_eq!(healthy.upper, 3);
}

#[test]
fn heuristic_faults_replay_deterministically() {
    // Chaos results are only diagnosable if a failing schedule replays
    // identically: same fault plan, same bracket, same tallies.
    use sbgc_core::{race_heuristics, ChromaticBounds, Coloring};

    let g = mycielski(4); // triangle-free: the clique/χ gap never closes
    let n = g.num_vertices();
    let loose = ChromaticBounds { lower: 2, upper: n, witness: Coloring::new((0..n).collect()) };
    let opts = SolveOptions::new(20);
    // Worker 1 (PartialCol) panics on entry; worker 0 (TabuCol) has its
    // first offer corrupted into an improper coloring.
    let plan = FaultPlan::new(5).with_worker_panic(1, 0).with_improper_witness(0);
    let faulted = opts.with_fault_plan(plan);
    let first = race_heuristics(&g, &faulted, &loose);
    let second = race_heuristics(&g, &faulted, &loose);
    assert_eq!(first.lower, second.lower);
    assert_eq!(first.upper, second.upper);
    assert_eq!(first.rejected_witnesses, second.rejected_witnesses);
    assert_eq!(first.failed_workers, second.failed_workers);
    assert_eq!(first.failed_workers, 2, "both faulted workers are retired");
    assert_eq!(first.rejected_witnesses, 1);
    assert!(first.witness.is_proper(&g), "the seed witness outlives the casualties");
}
