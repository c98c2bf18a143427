//! DRAT proof representation and logging sinks.
//!
//! A DRAT proof is a sequence of clause *additions* (each a RUP or RAT
//! consequence of the formula plus the earlier additions) and clause
//! *deletions*, ending — for a refutation — in the empty clause. Solvers
//! emit steps through the [`ProofLogger`] trait; the independent checker in
//! [`crate::checker`] replays them against the original formula.

use sbgc_formula::Lit;
use sbgc_obs::FaultPlan;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Addition of a clause derived by the solver (learned clause,
    /// root-simplified clause, or the final empty clause).
    Add(Vec<Lit>),
    /// Deletion of a clause no longer needed (database reduction).
    Delete(Vec<Lit>),
}

/// An in-memory DRAT proof: the ordered list of additions and deletions a
/// solver emitted while refuting a formula.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        DratProof::default()
    }

    /// Appends a clause addition.
    pub fn push_add(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Appends a clause deletion.
    pub fn push_delete(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Total number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of addition steps.
    pub fn num_adds(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, ProofStep::Add(_))).count()
    }

    /// Number of deletion steps.
    pub fn num_deletes(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, ProofStep::Delete(_))).count()
    }

    /// Total literal count across all steps — the proof-size metric of the
    /// run reports.
    pub fn total_literals(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                ProofStep::Add(lits) | ProofStep::Delete(lits) => lits.len(),
            })
            .sum()
    }

    /// Renders the proof in the standard textual DRAT format: one step per
    /// line, `d`-prefixed deletions, 1-based signed literals, `0`
    /// terminators.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for l in lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses the textual DRAT format produced by [`DratProof::to_dimacs`]
    /// (comment lines starting with `c` are skipped).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input
    /// (non-integer token, missing `0` terminator, or a `0` literal).
    pub fn from_dimacs(text: &str) -> Result<Self, String> {
        let mut proof = DratProof::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (delete, rest) = match line.strip_prefix('d') {
                Some(rest) => (true, rest),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for tok in rest.split_whitespace() {
                let n: i64 =
                    tok.parse().map_err(|_| format!("line {}: bad literal {tok:?}", lineno + 1))?;
                if n == 0 {
                    terminated = true;
                    break;
                }
                lits.push(Lit::from_dimacs(n));
            }
            if !terminated {
                return Err(format!("line {}: missing 0 terminator", lineno + 1));
            }
            proof.steps.push(if delete { ProofStep::Delete(lits) } else { ProofStep::Add(lits) });
        }
        Ok(proof)
    }
}

/// Sink for DRAT steps emitted by a solver.
///
/// Implementations must be `Send`: portfolio workers carry their solvers
/// (and thus any attached logger) across threads.
pub trait ProofLogger: Send {
    /// Records the addition of a derived clause.
    fn log_add(&mut self, lits: &[Lit]);
    /// Records the deletion of a clause.
    fn log_delete(&mut self, lits: &[Lit]);
}

impl<L: ProofLogger + ?Sized> ProofLogger for Box<L> {
    fn log_add(&mut self, lits: &[Lit]) {
        (**self).log_add(lits);
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        (**self).log_delete(lits);
    }
}

impl ProofLogger for DratProof {
    fn log_add(&mut self, lits: &[Lit]) {
        self.push_add(lits);
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.push_delete(lits);
    }
}

/// A cloneable handle to an in-memory proof, for retrieving the steps after
/// the solver (which owns its logger as a `Box<dyn ProofLogger>`) is done.
///
/// # Example
///
/// ```
/// use sbgc_proof::{ProofLogger, SharedProof};
/// use sbgc_formula::Var;
///
/// let shared = SharedProof::new();
/// let mut sink: Box<dyn ProofLogger> = Box::new(shared.clone());
/// sink.log_add(&[Var::from_index(0).positive()]);
/// assert_eq!(shared.take().num_adds(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharedProof {
    inner: Arc<Mutex<DratProof>>,
}

impl SharedProof {
    /// Creates a handle to a fresh empty proof.
    pub fn new() -> Self {
        SharedProof::default()
    }

    /// Takes the accumulated proof, leaving the shared buffer empty.
    ///
    /// Poison-tolerant: if a solver thread panicked while holding the
    /// lock, the steps logged so far are still recovered (a partial proof
    /// that the checker will honestly reject, rather than a second panic).
    pub fn take(&self) -> DratProof {
        std::mem::take(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Copies the accumulated proof without clearing it.
    pub fn snapshot(&self) -> DratProof {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl ProofLogger for SharedProof {
    fn log_add(&mut self, lits: &[Lit]) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).push_add(lits);
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).push_delete(lits);
    }
}

/// A cloneable, thread-safe record of the first I/O failure a
/// [`FileProofLogger`] hit.
///
/// The logger is moved into the solver as a `Box<dyn ProofLogger>`, so the
/// caller keeps this handle to find out — after the solve — whether the
/// streamed proof file is complete. A set flag means the on-disk proof is
/// truncated and certification must degrade to `Unchecked` instead of
/// presenting the file as checkable.
#[derive(Clone, Debug, Default)]
pub struct ProofErrorFlag {
    inner: Arc<Mutex<Option<String>>>,
}

impl ProofErrorFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        ProofErrorFlag::default()
    }

    /// Records an error message; only the first error is kept.
    fn set(&self, message: String) {
        let mut slot = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    /// The first recorded error, if any.
    pub fn get(&self) -> Option<String> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// `true` once any write has failed.
    pub fn is_set(&self) -> bool {
        self.get().is_some()
    }
}

/// Fans proof steps out to two sinks — typically an in-memory
/// [`SharedProof`] for checking plus a [`FileProofLogger`] for archival.
pub struct TeeProofLogger<A: ProofLogger, B: ProofLogger> {
    a: A,
    b: B,
}

impl<A: ProofLogger, B: ProofLogger> TeeProofLogger<A, B> {
    /// Combines two sinks; every step goes to both, `a` first.
    pub fn new(a: A, b: B) -> Self {
        TeeProofLogger { a, b }
    }
}

impl<A: ProofLogger, B: ProofLogger> ProofLogger for TeeProofLogger<A, B> {
    fn log_add(&mut self, lits: &[Lit]) {
        self.a.log_add(lits);
        self.b.log_add(lits);
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.a.log_delete(lits);
        self.b.log_delete(lits);
    }
}

/// Forwards clause additions and *suppresses deletions* — the logging
/// discipline for clause-sharing portfolio races.
///
/// When several workers log into one shared proof, additions compose
/// soundly: RUP is monotone in the clause database, so a clause derivable
/// from one worker's database is derivable from the union the checker
/// replays, and an importer's re-log of an exporter's clause is a
/// duplicate addition (trivially RUP — the pool mutex orders the
/// exporter's add before the importer's). Deletions do **not** compose: a
/// worker deleting a clause from *its* database would strip a clause that
/// a peer's later addition still resolves on, making a sound run fail the
/// check (or trip the checker's missing-deletion error for clauses the
/// log never saw added by *this* worker). Dropping deletions keeps the
/// merged log a valid, if larger, DRAT proof.
pub struct AddsOnlyProofLogger<L: ProofLogger> {
    inner: L,
}

impl<L: ProofLogger> AddsOnlyProofLogger<L> {
    /// Wraps a sink; only `log_add` calls reach it.
    pub fn new(inner: L) -> Self {
        AddsOnlyProofLogger { inner }
    }
}

impl<L: ProofLogger> ProofLogger for AddsOnlyProofLogger<L> {
    fn log_add(&mut self, lits: &[Lit]) {
        self.inner.log_add(lits);
    }

    fn log_delete(&mut self, _lits: &[Lit]) {}
}

/// A file-backed logger streaming textual DRAT to any writer; pair with
/// [`DratProof::from_dimacs`] to re-load.
///
/// I/O failures never abort the solve: the first error is recorded in a
/// [`ProofErrorFlag`] the caller keeps (see
/// [`error_flag`](FileProofLogger::error_flag)), and all later writes are
/// skipped. Downstream certification checks the flag and degrades to an
/// `Unchecked` status when the streamed file is truncated.
pub struct FileProofLogger<W: Write + Send> {
    out: W,
    errors: ProofErrorFlag,
    /// Steps attempted so far, for the injected-failure countdown.
    writes: u64,
    /// 1-based index of the first write forced to fail (fault injection).
    fail_at: Option<u64>,
}

impl FileProofLogger<BufWriter<File>> {
    /// Creates (truncating) `path` and returns a buffered logger writing
    /// textual DRAT to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FileProofLogger::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> FileProofLogger<W> {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(out: W) -> Self {
        FileProofLogger { out, errors: ProofErrorFlag::new(), writes: 0, fail_at: None }
    }

    /// Applies a [`FaultPlan`]: if the plan schedules a proof-write
    /// failure, the K-th and every later [`ProofLogger`] call on this
    /// logger reports a (simulated) I/O error through the error flag
    /// without touching the underlying writer.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.fail_at = plan.proof_write_failure();
        self
    }

    /// A cloneable handle reporting the first I/O failure; keep it before
    /// boxing the logger into a solver.
    pub fn error_flag(&self) -> ProofErrorFlag {
        self.errors.clone()
    }

    /// Unwraps the underlying writer (flushing it first; a flush error is
    /// recorded in the error flag like any write error).
    pub fn into_inner(mut self) -> W {
        if let Err(e) = self.out.flush() {
            self.errors.set(format!("flush failed: {e}"));
        }
        self.out
    }

    fn write_step(&mut self, prefix: &str, lits: &[Lit]) {
        self.writes += 1;
        if let Some(k) = self.fail_at {
            if self.writes >= k {
                self.errors.set(format!("injected I/O failure at proof write {k} (fault plan)"));
                return;
            }
        }
        if self.errors.is_set() {
            // The stream is already known-truncated; writing further steps
            // would produce a gapped proof that looks more complete than
            // it is.
            return;
        }
        let mut line = String::with_capacity(prefix.len() + 6 * lits.len() + 2);
        line.push_str(prefix);
        for l in lits {
            let _ = write!(line, "{} ", l.to_dimacs());
        }
        line.push_str("0\n");
        // Proof logging is advisory: an I/O error degrades to a truncated
        // proof (recorded in the error flag) rather than aborting the
        // solve.
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.errors.set(format!("write failed at proof step {}: {e}", self.writes));
        }
    }
}

impl<W: Write + Send> ProofLogger for FileProofLogger<W> {
    fn log_add(&mut self, lits: &[Lit]) {
        self.write_step("", lits);
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.write_step("d ", lits);
    }
}

/// Renders a clause list in DIMACS CNF format (for dumping certified
/// formulas next to their `.drat` proofs).
pub fn dimacs_cnf(num_vars: usize, clauses: &[Vec<Lit>]) -> String {
    let mut out = format!("p cnf {} {}\n", num_vars, clauses.len());
    for clause in clauses {
        for l in clause {
            let _ = write!(out, "{} ", l.to_dimacs());
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::Var;

    fn lit(i: usize, neg: bool) -> Lit {
        Var::from_index(i).lit(neg)
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut proof = DratProof::new();
        proof.push_add(&[lit(0, false), lit(1, true)]);
        proof.push_delete(&[lit(1, true), lit(2, false)]);
        proof.push_add(&[]);
        let text = proof.to_dimacs();
        assert_eq!(text, "1 -2 0\nd -2 3 0\n0\n");
        assert_eq!(DratProof::from_dimacs(&text).unwrap(), proof);
    }

    #[test]
    fn from_dimacs_rejects_garbage() {
        assert!(DratProof::from_dimacs("1 x 0\n").is_err());
        assert!(DratProof::from_dimacs("1 2\n").is_err());
    }

    #[test]
    fn from_dimacs_skips_comments() {
        let proof = DratProof::from_dimacs("c hello\n1 0\n").unwrap();
        assert_eq!(proof.steps(), &[ProofStep::Add(vec![lit(0, false)])]);
    }

    #[test]
    fn size_metrics() {
        let mut proof = DratProof::new();
        proof.push_add(&[lit(0, false), lit(1, false)]);
        proof.push_delete(&[lit(0, false)]);
        proof.push_add(&[]);
        assert_eq!(proof.num_adds(), 2);
        assert_eq!(proof.num_deletes(), 1);
        assert_eq!(proof.total_literals(), 3);
        assert_eq!(proof.len(), 3);
        assert!(!proof.is_empty());
    }

    #[test]
    fn file_logger_matches_memory_format() {
        let mut logger = FileProofLogger::new(Vec::new());
        logger.log_add(&[lit(0, false), lit(1, true)]);
        logger.log_delete(&[lit(1, true)]);
        let bytes = logger.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = DratProof::from_dimacs(&text).unwrap();
        assert_eq!(parsed.num_adds(), 1);
        assert_eq!(parsed.num_deletes(), 1);
    }

    /// A writer that fails after a fixed number of successful writes.
    struct FlakyWriter {
        ok_writes: usize,
        written: Vec<u8>,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_error_sets_flag_and_stops_writing() {
        let mut logger = FileProofLogger::new(FlakyWriter { ok_writes: 1, written: Vec::new() });
        let flag = logger.error_flag();
        logger.log_add(&[lit(0, false)]);
        assert!(!flag.is_set());
        logger.log_add(&[lit(1, false)]); // write fails here
        assert!(flag.is_set());
        logger.log_add(&[lit(2, false)]); // skipped: stream known-truncated
        let w = logger.into_inner();
        assert_eq!(String::from_utf8(w.written).unwrap(), "1 0\n");
        assert!(flag.get().unwrap().contains("proof step 2"));
    }

    #[test]
    fn fault_plan_fails_kth_write_deterministically() {
        let plan = FaultPlan::new(1).with_proof_write_failure(2);
        let mut logger = FileProofLogger::new(Vec::new()).with_fault_plan(&plan);
        let flag = logger.error_flag();
        logger.log_add(&[lit(0, false)]);
        assert!(!flag.is_set());
        logger.log_delete(&[lit(0, false)]);
        assert!(flag.is_set(), "second write must fail");
        logger.log_add(&[lit(1, false)]);
        let bytes = logger.into_inner();
        assert_eq!(String::from_utf8(bytes).unwrap(), "1 0\n");
        assert!(flag.get().unwrap().contains("injected"));
    }

    #[test]
    fn adds_only_logger_drops_deletions() {
        let shared = SharedProof::new();
        let mut sink = AddsOnlyProofLogger::new(shared.clone());
        sink.log_add(&[lit(0, false), lit(1, true)]);
        sink.log_delete(&[lit(0, false), lit(1, true)]);
        sink.log_add(&[]);
        let proof = shared.take();
        assert_eq!(proof.num_adds(), 2);
        assert_eq!(proof.num_deletes(), 0);
    }

    #[test]
    fn tee_logger_feeds_both_sinks() {
        let shared = SharedProof::new();
        let file = FileProofLogger::new(Vec::new());
        let mut tee = TeeProofLogger::new(shared.clone(), file);
        tee.log_add(&[lit(0, false), lit(1, true)]);
        tee.log_delete(&[lit(1, true)]);
        assert_eq!(shared.snapshot().num_adds(), 1);
        assert_eq!(shared.snapshot().num_deletes(), 1);
    }

    #[test]
    fn shared_proof_tolerates_poisoned_lock() {
        let shared = SharedProof::new();
        let mut h = shared.clone();
        h.log_add(&[lit(0, false)]);
        // Poison the mutex from a panicking thread while it holds the lock.
        let arc = shared.inner.clone();
        let _ = std::thread::spawn(move || {
            let _guard = arc.lock().unwrap();
            panic!("poison");
        })
        .join();
        // All accessors must keep working on the recovered state.
        let mut h2 = shared.clone();
        h2.log_add(&[lit(1, false)]);
        assert_eq!(shared.snapshot().num_adds(), 2);
        assert_eq!(shared.take().num_adds(), 2);
    }

    #[test]
    fn shared_proof_take_resets() {
        let shared = SharedProof::new();
        let mut h = shared.clone();
        h.log_add(&[lit(0, false)]);
        assert_eq!(shared.snapshot().num_adds(), 1);
        assert_eq!(shared.take().num_adds(), 1);
        assert!(shared.take().is_empty());
    }

    #[test]
    fn dimacs_cnf_header() {
        let cnf = dimacs_cnf(3, &[vec![lit(0, false), lit(2, true)], vec![lit(1, false)]]);
        assert_eq!(cnf, "p cnf 3 2\n1 -3 0\n2 0\n");
    }
}
