//! Verified optimality certificates for chromatic numbers.
//!
//! A claim "χ(G) = k" decomposes into two independently checkable halves:
//!
//! 1. **Feasibility** — a proper k-coloring of `G`, verified syntactically
//!    against the edge list ([`Coloring::is_proper`]);
//! 2. **Optimality** — a refutation of (k−1)-colorability, verified by
//!    replaying a DRAT proof against the *pure-CNF decision encoding*
//!    ([`crate::encode::cnf_decision_formula`]) with the independent
//!    checker in `sbgc-proof`.
//!
//! The refutation is always produced on a formula with no symmetry-breaking
//! predicates and no PB constraints: SBP soundness and the PB inference
//! rules are exactly what a certificate must not take on faith. When the
//! solved formula cannot be proof-checked (it carries PB constraints, e.g.
//! the CA construction's cardinality chain), the certificate says
//! [`ProofStatus::Unchecked`] with a reason rather than pretending.
//!
//! The incremental ladder changes nothing here, deliberately. A ladder
//! step's UNSAT is *assumption-relative* (the formula refutes
//! `¬y[target..K]`, not `⊥`) and is solved against an SBP-augmented,
//! possibly unit-committed formula — none of which a DRAT refutation of
//! the original instance may rely on. So certification ignores the
//! session's clause database entirely and re-derives the χ−1 refutation
//! from scratch on the SBP-free pure-CNF encoding below.

use crate::chromatic::{chromatic_number, ChromaticResult};
use crate::encode::cnf_decision_formula;
use crate::flow::SolveOptions;
use sbgc_formula::{Lit, PbFormula};
use sbgc_graph::{Coloring, Graph};
use sbgc_pb::Budget;
use sbgc_proof::{
    check_drat, AddsOnlyProofLogger, DratProof, FileProofLogger, ProofLogger, SharedProof,
    TeeProofLogger,
};
use sbgc_sat::{
    CancelToken, RestartPolicy, SatSolver, SharedClausePool, SharingConfig, SolveOutcome,
};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Outcome of the UNSAT half of a certificate.
#[derive(Clone, Debug, PartialEq)]
pub enum ProofStatus {
    /// A DRAT refutation was produced and accepted by the independent
    /// checker.
    Checked {
        /// Proof steps replayed (additions + deletions).
        steps: usize,
        /// Lemma additions verified RUP/RAT.
        adds: usize,
        /// Deletions applied.
        deletes: usize,
        /// Total literals across all proof steps (a size proxy).
        literals: usize,
        /// Wall-clock seconds spent producing the refutation.
        solve_seconds: f64,
        /// Wall-clock seconds spent checking it.
        check_seconds: f64,
    },
    /// No proof is needed: the claim holds by definition (e.g. χ ≤ 1, where
    /// no smaller color count exists to refute).
    Trivial {
        /// Why no proof is required.
        reason: String,
    },
    /// No checked proof is available — the formula was not checkable (PB
    /// constraints present) or the proving budget ran out. The chromatic
    /// number may still be correct; it is just not *certified*.
    Unchecked {
        /// Why checking was not possible.
        reason: String,
    },
    /// A proof was produced but the checker rejected it, or the certifying
    /// solve contradicted the claimed optimum. This indicates a solver or
    /// logger bug and must fail loudly downstream.
    Rejected {
        /// The checker's error, or the contradiction found.
        error: String,
    },
}

impl ProofStatus {
    /// `true` when optimality is established without trusting any solver:
    /// either an accepted DRAT refutation or a by-definition case.
    pub fn is_verified(&self) -> bool {
        matches!(self, ProofStatus::Checked { .. } | ProofStatus::Trivial { .. })
    }
}

impl std::fmt::Display for ProofStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofStatus::Checked { steps, adds, deletes, .. } => {
                write!(f, "checked ({steps} steps: {adds} adds, {deletes} deletes)")
            }
            ProofStatus::Trivial { reason } => write!(f, "trivial ({reason})"),
            ProofStatus::Unchecked { reason } => write!(f, "unchecked ({reason})"),
            ProofStatus::Rejected { error } => write!(f, "REJECTED ({error})"),
        }
    }
}

/// A machine-checkable certificate that `chromatic_number` colors suffice
/// and `chromatic_number − 1` do not.
#[derive(Clone, Debug)]
pub struct OptimalityCertificate {
    /// The certified chromatic number.
    pub chromatic_number: usize,
    /// The witness coloring at χ colors.
    pub witness: Coloring,
    /// Whether the witness passed independent verification: proper on the
    /// input graph and using exactly χ colors.
    pub witness_verified: bool,
    /// Status of the (χ−1)-uncolorability proof.
    pub unsat: ProofStatus,
    /// The DRAT refutation itself, when one was produced (checked or
    /// rejected). `None` for trivial/unchecked certificates.
    pub proof: Option<DratProof>,
}

impl OptimalityCertificate {
    /// `true` when both halves hold: the witness verified syntactically and
    /// optimality is [`ProofStatus::is_verified`].
    pub fn is_certified(&self) -> bool {
        self.witness_verified && self.unsat.is_verified()
    }
}

/// Attempts to produce a checked DRAT refutation of `formula`. With
/// `workers > 1` it races that many diversified CDCL solvers with
/// learned-clause sharing, whose combined adds-only DRAT log stays
/// checkable whichever worker wins; `workers ≤ 1` runs one sequential
/// solver.
///
/// Returns [`ProofStatus::Unchecked`] without solving when the formula
/// carries PB constraints (the DRAT calculus speaks only CNF — this is the
/// honest answer for e.g. CA-encoded instances), when the budget runs out,
/// or when the formula turns out satisfiable.
pub fn certify_unsat_formula(
    formula: &PbFormula,
    budget: &Budget,
    workers: usize,
) -> (ProofStatus, Option<DratProof>) {
    refute_formula(formula, budget, workers, None)
}

/// The pure-CNF guard in front of [`refute_and_check`], shared by both
/// formula entry points.
fn refute_formula(
    formula: &PbFormula,
    budget: &Budget,
    workers: usize,
    archive: Option<Box<dyn ProofLogger>>,
) -> (ProofStatus, Option<DratProof>) {
    if !formula.is_pure_cnf() {
        let status = ProofStatus::Unchecked {
            reason: format!(
                "formula has {} PB constraints; DRAT checking covers only pure CNF",
                formula.pb_constraints().len()
            ),
        };
        return (status, None);
    }
    let clauses: Vec<Vec<Lit>> =
        formula.clauses().iter().map(|c| c.iter().copied().collect()).collect();
    refute_and_check(formula.num_vars(), &clauses, budget, workers, archive)
}

/// Owns the archive logger behind a shared slot so it can be reclaimed
/// (and flushed, with errors captured) after the solver is done with its
/// boxed copy of the handle.
struct StreamHandle<W: std::io::Write + Send>(Arc<Mutex<Option<FileProofLogger<W>>>>);

impl<W: std::io::Write + Send> ProofLogger for StreamHandle<W> {
    fn log_add(&mut self, lits: &[Lit]) {
        if let Some(l) = self.0.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
            l.log_add(lits);
        }
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        if let Some(l) = self.0.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
            l.log_delete(lits);
        }
    }
}

/// Sequential [`certify_unsat_formula`] that *also* streams the DRAT
/// proof into a file-backed logger while solving, so an archived copy
/// exists outside the process.
///
/// The in-memory proof is still replayed through the independent checker;
/// the stream is the archival artifact. If any write (or the final flush)
/// of the archive fails, a would-be [`ProofStatus::Checked`] result
/// degrades to [`ProofStatus::Unchecked`] naming the I/O error — a
/// certificate whose artifact of record is corrupt must not claim full
/// verification. [`ProofStatus::Rejected`] is never masked by an I/O
/// failure.
pub fn certify_unsat_formula_streamed<W: std::io::Write + Send + 'static>(
    formula: &PbFormula,
    budget: &Budget,
    archive: FileProofLogger<W>,
) -> (ProofStatus, Option<DratProof>) {
    let flag = archive.error_flag();
    let slot = Arc::new(Mutex::new(Some(archive)));
    let (status, proof) =
        refute_formula(formula, budget, 1, Some(Box::new(StreamHandle(slot.clone()))));
    // Reclaim and flush the archive; flush failures land in the error flag
    // like write failures.
    if let Some(logger) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
        let _ = logger.into_inner();
    }
    let status = match (flag.get(), status) {
        (Some(err), ProofStatus::Checked { .. }) => {
            ProofStatus::Unchecked { reason: format!("proof stream failed: {err}") }
        }
        (_, status) => status,
    };
    (status, proof)
}

/// Applies the modern-CDCL diversification ladder to a certifying worker:
/// worker 0 is the stock solver, further workers enable adaptive-LBD
/// restarts, chronological backtracking, rephasing and tiered clause
/// reduction in distinct combinations (the same ladder as
/// [`sbgc_pb::portfolio_configs`]).
fn diversify_certifier(solver: &mut SatSolver, index: usize) {
    match index {
        0 => {}
        1 => {
            solver.set_restart_policy(RestartPolicy::AdaptiveLbd { min_interval: 100 });
            solver.set_chrono(true);
            solver.set_rephase(true);
            solver.set_tiered_reduce(true);
        }
        2 => {
            solver.set_rephase(true);
            solver.set_tiered_reduce(true);
        }
        3 => {
            solver.set_restart_policy(RestartPolicy::AdaptiveLbd { min_interval: 50 });
            solver.set_chrono(true);
            solver.set_tiered_reduce(true);
        }
        _ => {
            solver.set_restart_policy(RestartPolicy::Luby { base: 50 << ((index / 4).min(10)) });
            solver.set_tiered_reduce(true);
        }
    }
}

/// Solves `clauses` expecting UNSAT, then replays the logged proof through
/// the independent checker.
///
/// With `workers > 1` this races that many diversified solvers that share
/// learned clauses through a [`SharedClausePool`]; the first definitive
/// answer cancels the rest. The combined DRAT log stays checkable because
/// every worker appends *additions only* (deletions are suppressed by
/// [`AddsOnlyProofLogger`] — one worker's deletion could strip a clause a
/// peer's later addition resolves on) into the same [`SharedProof`], an
/// exporter logs its clause before publishing it to the pool, and an
/// importer re-logs what it attaches: every addition is RUP with respect
/// to the log prefix it lands after, whichever interleaving the race
/// produces, and the checker stops at the first derived empty clause.
///
/// `archive` (the streamed certifier's file-backed logger) receives a copy
/// of every proof step; only the sequential solver streams.
fn refute_and_check(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    budget: &Budget,
    workers: usize,
    archive: Option<Box<dyn ProofLogger>>,
) -> (ProofStatus, Option<DratProof>) {
    debug_assert!(archive.is_none() || workers <= 1, "only the sequential solver streams");
    let shared = SharedProof::new();
    let solve_start = Instant::now();
    let outcome = if workers <= 1 {
        let mut solver = SatSolver::new(num_vars);
        solver.set_proof_logger(match archive {
            Some(archive) => Box::new(TeeProofLogger::new(shared.clone(), archive)),
            None => Box::new(shared.clone()),
        });
        for c in clauses {
            solver.add_clause(c.iter().copied());
        }
        solver.solve_with_budget(budget)
    } else {
        race_refutation(num_vars, clauses, budget, workers, &shared)
    };
    let solve_seconds = solve_start.elapsed().as_secs_f64();
    let proof = shared.take();
    match outcome {
        SolveOutcome::Unsat => {
            let check_start = Instant::now();
            let checked = check_drat(num_vars, clauses, &proof);
            let check_seconds = check_start.elapsed().as_secs_f64();
            let status = match checked {
                Ok(stats) => ProofStatus::Checked {
                    steps: stats.steps,
                    adds: stats.adds,
                    deletes: stats.deletes,
                    literals: proof.total_literals(),
                    solve_seconds,
                    check_seconds,
                },
                Err(e) => ProofStatus::Rejected { error: e.to_string() },
            };
            (status, Some(proof))
        }
        SolveOutcome::Sat(_) => {
            (ProofStatus::Unchecked { reason: "formula is satisfiable".into() }, None)
        }
        SolveOutcome::Unknown => {
            let status = ProofStatus::Unchecked {
                reason: "budget exhausted before a refutation was found".into(),
            };
            (status, None)
        }
    }
}

/// The racing half of [`refute_and_check`]: `workers` diversified solvers,
/// one clause pool, adds-only proof logging into `shared`.
fn race_refutation(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    budget: &Budget,
    workers: usize,
    shared: &SharedProof,
) -> SolveOutcome {
    let budget = budget.started();
    let race = CancelToken::new();
    let pool = SharedClausePool::new();
    let first: Mutex<Option<SolveOutcome>> = Mutex::new(None);
    std::thread::scope(|s| {
        for index in 0..workers {
            let worker_budget = budget.clone().with_cancel_token(race.clone());
            let handle = pool.handle(index, SharingConfig::default());
            let logger = AddsOnlyProofLogger::new(shared.clone());
            let (race, first) = (&race, &first);
            s.spawn(move || {
                let mut solver = SatSolver::new(num_vars);
                solver.set_proof_logger(Box::new(logger));
                solver.set_sharing(handle);
                diversify_certifier(&mut solver, index);
                for c in clauses {
                    solver.add_clause(c.iter().copied());
                }
                let out = solver.solve_with_budget(&worker_budget);
                if matches!(out, SolveOutcome::Sat(_) | SolveOutcome::Unsat) {
                    let mut w = first.lock().unwrap_or_else(PoisonError::into_inner);
                    if w.is_none() {
                        *w = Some(out);
                        race.cancel();
                    }
                }
            });
        }
    });
    first.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or(SolveOutcome::Unknown)
}

/// Certifies an exact chromatic-number result, racing the refutation
/// across `workers` clause-sharing CDCL solvers (see
/// [`certify_unsat_formula`]; `workers ≤ 1` is sequential).
///
/// Returns `None` when `result` is only a bound (there is no optimum to
/// certify). For an exact result this verifies the witness syntactically
/// and attempts a checked refutation of (χ−1)-colorability on the SBP-free
/// pure-CNF decision encoding — independent of whatever encoding and solver
/// produced `result`.
///
/// A [`ProofStatus::Rejected`] status (checker refused the proof, or the
/// certifying solver *satisfied* the χ−1 formula) means the claimed optimum
/// is unsupported and should be treated as a bug.
pub fn certify_result(
    graph: &Graph,
    result: &ChromaticResult,
    budget: &Budget,
    workers: usize,
) -> Option<OptimalityCertificate> {
    let (chi, witness) = match result {
        ChromaticResult::Exact { chromatic_number, witness } => (*chromatic_number, witness),
        ChromaticResult::Bounded { .. } => return None,
    };
    let witness_verified = witness.is_proper(graph) && witness.num_colors() == chi;
    let (unsat, proof) = if chi <= 1 {
        let status = ProofStatus::Trivial {
            reason: "χ ≤ 1: there is no smaller color count to refute".into(),
        };
        (status, None)
    } else {
        let (num_vars, clauses) = cnf_decision_formula(graph, chi - 1);
        match refute_and_check(num_vars, &clauses, budget, workers, None) {
            (ProofStatus::Unchecked { reason }, p) if reason == "formula is satisfiable" => {
                let error =
                    format!("graph is ({})-colorable — claimed χ = {chi} is not optimal", chi - 1);
                (ProofStatus::Rejected { error }, p)
            }
            other => other,
        }
    };
    Some(OptimalityCertificate {
        chromatic_number: chi,
        witness: witness.clone(),
        witness_verified,
        unsat,
        proof,
    })
}

/// Computes the chromatic number and certifies it in one call.
///
/// Runs [`chromatic_number`] with `options`, then [`certify_result`] under
/// the same budget — raced across the
/// [`portfolio_workers`](sbgc_pb::SolverKind::portfolio_workers) that the
/// options' solver and parallelism imply, sequential otherwise. The certificate is `None` exactly when the search only
/// bounded χ.
///
/// # Panics
///
/// Panics if `graph` has no vertices or `options.k == 0` (as
/// [`chromatic_number`] does).
pub fn chromatic_number_certified(
    graph: &Graph,
    options: &SolveOptions,
) -> (ChromaticResult, Option<OptimalityCertificate>) {
    let result = chromatic_number(graph, options);
    let workers = options.solver.portfolio_workers(options.parallelism).unwrap_or(1);
    let certificate = certify_result(graph, &result, &options.budget, workers);
    (result, certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbp::SbpMode;
    use sbgc_graph::gen::{mycielski, queens};

    fn certify(graph: &Graph, k: usize) -> OptimalityCertificate {
        let (result, cert) = chromatic_number_certified(graph, &SolveOptions::new(k));
        assert!(result.exact().is_some(), "expected an exact result");
        cert.expect("exact result must yield a certificate")
    }

    #[test]
    fn complete_graph_certificate_checks() {
        let cert = certify(&Graph::complete(4), 6);
        assert_eq!(cert.chromatic_number, 4);
        assert!(cert.witness_verified);
        assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
        assert!(cert.is_certified());
        assert!(cert.proof.is_some());
    }

    #[test]
    fn odd_cycle_certificate_checks() {
        let cert = certify(&Graph::cycle(7), 4);
        assert_eq!(cert.chromatic_number, 3);
        assert!(cert.is_certified());
    }

    #[test]
    fn mycielski_certificate_checks() {
        let cert = certify(&mycielski(3), 6);
        assert_eq!(cert.chromatic_number, 4);
        assert!(cert.is_certified());
        if let ProofStatus::Checked { adds, .. } = cert.unsat {
            assert!(adds > 0, "a nontrivial refutation must contain lemmas");
        }
    }

    #[test]
    fn queens5_certificate_checks() {
        let cert = certify(&queens(5, 5), 6);
        assert_eq!(cert.chromatic_number, 5);
        assert!(cert.is_certified());
    }

    #[test]
    fn edgeless_graph_is_trivially_certified() {
        let cert = certify(&Graph::empty(3), 3);
        assert_eq!(cert.chromatic_number, 1);
        assert!(matches!(cert.unsat, ProofStatus::Trivial { .. }));
        assert!(cert.is_certified());
        assert!(cert.proof.is_none());
    }

    #[test]
    fn certificate_is_independent_of_sbp_mode() {
        // Whatever (possibly SBP-heavy) flow produced the result, the
        // certificate re-derives optimality on the SBP-free encoding.
        let g = mycielski(3);
        for mode in [SbpMode::Li, SbpMode::NuSc] {
            let opts = SolveOptions::new(6).with_sbp_mode(mode);
            let (result, cert) = chromatic_number_certified(&g, &opts);
            assert_eq!(result.exact(), Some(4), "{mode}");
            assert!(cert.expect("certificate").is_certified(), "{mode}");
        }
    }

    #[test]
    fn bounded_results_yield_no_certificate() {
        let g = queens(6, 6);
        let opts = SolveOptions::new(7).with_budget(Budget::unlimited().with_max_conflicts(1));
        let (result, cert) = chromatic_number_certified(&g, &opts);
        if result.exact().is_none() {
            assert!(cert.is_none());
        }
    }

    #[test]
    fn overclaimed_optimum_is_rejected() {
        // Claim χ = 4 for an even cycle (true χ = 2): the certifying solver
        // finds a 3-coloring of the "χ−1" formula and must flag the claim.
        let g = Graph::cycle(6);
        let bogus = ChromaticResult::Exact {
            chromatic_number: 4,
            witness: Coloring::new(vec![0, 1, 2, 3, 0, 1]),
        };
        let cert = certify_result(&g, &bogus, &Budget::unlimited(), 1).expect("exact claim");
        assert!(matches!(cert.unsat, ProofStatus::Rejected { .. }), "{}", cert.unsat);
        assert!(!cert.is_certified());
    }

    #[test]
    fn pb_bearing_formula_reports_unchecked() {
        // The optimization encoding keeps per-vertex exactly-one PB pairs,
        // so its refutations cannot be DRAT-checked; the honest answer is
        // Unchecked with a reason, not a fake pass.
        let enc = crate::ColoringEncoding::new(&Graph::complete(4), 2);
        let (status, proof) = certify_unsat_formula(enc.formula(), &Budget::unlimited(), 1);
        match status {
            ProofStatus::Unchecked { reason } => assert!(reason.contains("PB")),
            other => panic!("expected Unchecked, got {other}"),
        }
        assert!(proof.is_none());
    }

    #[test]
    fn pure_cnf_formula_certifies() {
        let (num_vars, clauses) = cnf_decision_formula(&Graph::complete(4), 3);
        let mut f = PbFormula::with_vars(num_vars);
        for c in &clauses {
            f.add_clause(c.iter().copied());
        }
        let (status, proof) = certify_unsat_formula(&f, &Budget::unlimited(), 1);
        assert!(matches!(status, ProofStatus::Checked { .. }), "{status}");
        assert!(proof.is_some());
    }

    /// A `Write` whose buffer outlives the logger, so tests can inspect
    /// what was streamed after `into_inner` consumed the writer.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
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
    fn streamed_certificate_archives_the_proof() {
        let f = unsat_cnf(&Graph::complete(4), 3);
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let logger = FileProofLogger::new(buf.clone());
        let (status, proof) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
        assert!(matches!(status, ProofStatus::Checked { .. }), "{status}");
        let proof = proof.expect("refutation");
        let streamed = String::from_utf8(
            buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        )
        .expect("utf8 drat");
        assert!(!streamed.is_empty(), "the archive must receive the proof");
        // Every proof step is one archived line ending in the DRAT "0".
        assert_eq!(streamed.lines().count(), proof.steps().len());
        assert!(streamed.lines().all(|l| l.ends_with(" 0") || l == "0"));
    }

    #[test]
    fn failed_proof_stream_degrades_certificate() {
        use sbgc_obs::FaultPlan;
        let f = unsat_cnf(&Graph::complete(4), 3);
        // Fail the very first archive write.
        let plan = FaultPlan::new(1).with_proof_write_failure(1);
        let logger = FileProofLogger::new(std::io::sink()).with_fault_plan(&plan);
        let (status, proof) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
        match status {
            ProofStatus::Unchecked { reason } => {
                assert!(reason.contains("proof stream failed"), "{reason}");
            }
            other => panic!("a corrupt archive must degrade the status, got {other}"),
        }
        assert!(proof.is_some(), "the in-memory proof is still produced");
    }

    #[test]
    fn streamed_sat_formula_stays_unchecked_not_rejected() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_clause([a]);
        let logger = FileProofLogger::new(std::io::sink());
        let (status, proof) = certify_unsat_formula_streamed(&f, &Budget::unlimited(), logger);
        assert!(matches!(status, ProofStatus::Unchecked { .. }), "{status}");
        assert!(proof.is_none());
    }

    #[test]
    fn racing_certificate_checks_with_sharing() {
        // Four diversified, clause-sharing workers append into one
        // adds-only DRAT log; the interleaved proof must still replay
        // through the independent checker, whichever worker won.
        let f = unsat_cnf(&queens(5, 5), 4);
        let (status, proof) = certify_unsat_formula(&f, &Budget::unlimited(), 4);
        match status {
            ProofStatus::Checked { adds, .. } => {
                assert!(adds > 0, "a nontrivial refutation must contain lemmas");
            }
            other => panic!("expected Checked, got {other}"),
        }
        let proof = proof.expect("refutation");
        assert_eq!(proof.num_deletes(), 0, "racing proofs are adds-only");
    }

    #[test]
    fn racing_certificate_agrees_with_sequential() {
        let f = unsat_cnf(&mycielski(3), 3);
        for workers in [1, 2, 3] {
            let (status, _) = certify_unsat_formula(&f, &Budget::unlimited(), workers);
            assert!(matches!(status, ProofStatus::Checked { .. }), "workers={workers}: {status}");
        }
    }

    #[test]
    fn racing_sat_formula_stays_unchecked() {
        // A satisfiable formula must come back "satisfiable", not a bogus
        // refutation, no matter how many workers race it.
        let f = unsat_cnf(&Graph::cycle(6), 3); // even cycle IS 3-colorable
        let (status, proof) = certify_unsat_formula(&f, &Budget::unlimited(), 3);
        match status {
            ProofStatus::Unchecked { reason } => assert!(reason.contains("satisfiable")),
            other => panic!("expected Unchecked, got {other}"),
        }
        assert!(proof.is_none());
    }

    #[test]
    fn portfolio_options_race_the_certificate() {
        // chromatic_number_certified with parallelism > 1 must route the
        // refutation through the racing path and still certify.
        let g = mycielski(3);
        let opts = SolveOptions::new(6).with_parallelism(3);
        let (result, cert) = chromatic_number_certified(&g, &opts);
        assert_eq!(result.exact(), Some(4));
        let cert = cert.expect("certificate");
        assert!(cert.is_certified(), "{}", cert.unsat);
    }

    #[test]
    fn budget_exhaustion_reports_unchecked() {
        let (num_vars, clauses) = cnf_decision_formula(&queens(6, 6), 6);
        let mut f = PbFormula::with_vars(num_vars);
        for c in &clauses {
            f.add_clause(c.iter().copied());
        }
        let (status, _) = certify_unsat_formula(&f, &Budget::unlimited().with_max_conflicts(0), 1);
        match status {
            ProofStatus::Unchecked { reason } => assert!(reason.contains("budget")),
            other => panic!("expected Unchecked, got {other}"),
        }
    }
}
