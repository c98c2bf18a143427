//! Cross-crate certificate tests: chromatic-number results from the full
//! solving stack must come back with DRAT proofs that the independent
//! checker in `sbgc-proof` accepts — and corrupted proofs must be refused.

use sbgc_core::{
    certify_unsat_formula, chromatic_number_certified, cnf_decision_formula, ColoringEncoding,
    OptimalityCertificate, ProofStatus, SbpMode, SolveOptions,
};
use sbgc_graph::{gen, suite, Graph};
use sbgc_pb::Budget;
use sbgc_proof::{check_drat, CheckError, DratProof, ProofStep};
use std::time::Duration;

fn certified(graph: &Graph, k: usize) -> OptimalityCertificate {
    let opts = SolveOptions::new(k)
        .with_sbp_mode(SbpMode::NuSc)
        .with_budget(Budget::unlimited().with_timeout(Duration::from_secs(120)));
    let (result, cert) = chromatic_number_certified(graph, &opts);
    assert!(result.exact().is_some(), "chi search must finish");
    cert.expect("exact result yields a certificate")
}

#[test]
fn small_graph_suite_certifies() {
    // Every clausal-encoding instance of the small suite must produce an
    // accepted UNSAT proof at chi - 1 (the acceptance criterion of this
    // feature): mycielski, small queens, and seeded random graphs.
    for (name, expected_chi) in [("myciel3", 4), ("myciel4", 5), ("queen5_5", 5)] {
        let inst = suite::build(name);
        let cert = certified(&inst.graph, 20);
        assert_eq!(cert.chromatic_number, expected_chi, "{name}");
        assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{name}: {}", cert.unsat);
        assert!(cert.is_certified(), "{name}");
    }
    for seed in [1u64, 2, 3] {
        let g = gen::gnp(14, 0.5, seed);
        let cert = certified(&g, 14);
        assert!(cert.is_certified(), "gnp seed {seed}: {}", cert.unsat);
    }
}

#[test]
fn certificate_proof_survives_dimacs_round_trip() {
    // The proof a certificate carries must stay checkable after being
    // serialized to DRAT text and parsed back — the format the --proof
    // flag writes to disk.
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let proof = cert.proof.expect("checked certificate carries its proof");
    let text = proof.to_dimacs();
    let parsed = DratProof::from_dimacs(&text).expect("round-trip parse");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_drat(num_vars, &clauses, &parsed).expect("round-tripped proof must check");
}

#[test]
fn corrupted_certificate_proofs_are_rejected() {
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let proof = cert.proof.expect("checked certificate carries its proof");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_drat(num_vars, &clauses, &proof).expect("the genuine proof checks");

    // Truncating away the refutation tail leaves the formula unrefuted.
    let mut truncated = DratProof::new();
    for step in proof.steps().iter().take(proof.len() / 2) {
        match step {
            ProofStep::Add(lits) => truncated.push_add(lits),
            ProofStep::Delete(lits) => truncated.push_delete(lits),
        }
    }
    match check_drat(num_vars, &clauses, &truncated) {
        Err(_) => {}
        Ok(_) => panic!("half a proof must not certify"),
    }

    // An injected deletion of an absent clause is refused at its step.
    let mut injected = DratProof::new();
    injected.push_delete(&clauses[0][..1]);
    for step in proof.steps() {
        match step {
            ProofStep::Add(lits) => injected.push_add(lits),
            ProofStep::Delete(lits) => injected.push_delete(lits),
        }
    }
    assert_eq!(
        check_drat(num_vars, &clauses, &injected),
        Err(CheckError::MissingDeletion { step: 0 })
    );

    // A proof replayed against the wrong formula (one clause dropped, the
    // residual is satisfiable) must not be accepted.
    let weakened: Vec<_> = clauses[1..].to_vec();
    assert!(check_drat(num_vars, &weakened, &proof).is_err());
}

#[test]
fn ca_encoding_reports_unchecked_not_fake_pass() {
    // The CA construction adds PB cardinality constraints, so a refutation
    // of that formula cannot be DRAT-checked; the honest status is
    // Unchecked with a PB reason.
    let g = Graph::complete(4);
    let mut enc = ColoringEncoding::new(&g, 3);
    sbgc_core::add_instance_independent_sbps(&mut enc, &g, SbpMode::Ca);
    assert!(!enc.formula().is_pure_cnf(), "CA must add PB constraints");
    let (status, proof) = certify_unsat_formula(enc.formula(), &Budget::unlimited(), 1);
    match status {
        ProofStatus::Unchecked { reason } => assert!(reason.contains("PB"), "{reason}"),
        other => panic!("expected Unchecked, got {other}"),
    }
    assert!(proof.is_none());
}

#[test]
fn trivial_and_bipartite_certificates() {
    // chi = 1 certifies by definition; chi = 2 exercises the smallest
    // genuine refutation (1-coloring a graph with an edge).
    let cert = certified(&Graph::empty(4), 4);
    assert_eq!(cert.chromatic_number, 1);
    assert!(matches!(cert.unsat, ProofStatus::Trivial { .. }));
    assert!(cert.is_certified());

    let cert = certified(&Graph::cycle(8), 4);
    assert_eq!(cert.chromatic_number, 2);
    assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
    assert!(cert.is_certified());
}
