//! The traced solve: the same public calls `chromatic_number_outcome`
//! (and, for certified items, `chromatic_number_certified`) make, in the
//! same order, each timed from outside. The search counters come from the
//! program's existing `Recorder`, enabled on this path only.

use crate::solve::{capped_budget, check_result, check_witness, options, Sample};
use crate::workload::{Config, Item};
use sbgc_core::{
    add_instance_independent_sbps, bounds, cnf_decision_formula, race_heuristics, ChromaticResult,
    ColoringEncoding, ColoringSession, Phase, Recorder, SessionAnswer, SolveOptions,
    SymmetryHandling,
};
use sbgc_pb::{optimize_recorded_with_stats, OptOutcome};
use sbgc_proof::{check_drat, SharedProof};
use sbgc_sat::{SatSolver, SolveOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order. `--trace 1`
/// prints exactly these.
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("graph.bounds_s", "s"),
    ("graph.dsatur_overshoot", "count"),
    ("heur.race_s", "s"),
    ("heur.rungs_skipped", "count"),
    ("heur.closed_frac", "fraction"),
    ("encode.s", "s"),
    ("encode.vars", "count"),
    ("encode.clauses", "count"),
    ("sbp.s", "s"),
    ("sbp.clauses", "count"),
    ("session.new_s", "s"),
    ("session.query_s", "s"),
    ("session.unsat_query_s", "s"),
    ("session.rungs", "count"),
    ("session.retained_clauses", "count"),
    ("pb.conflicts", "count"),
    ("pb.propagations", "count"),
    ("pb.props_per_s", "1/s"),
    ("pb.learned", "count"),
    ("pb.deleted", "count"),
    ("pb.optimize_s", "s"),
    ("shatter.detect_s", "s"),
    ("shatter.generators", "count"),
    ("shatter.sbp_clauses", "count"),
    ("sharing.exported", "count"),
    ("sharing.imported", "count"),
    ("portfolio.cancel_latency_s", "s"),
    ("certify.cnf_s", "s"),
    ("certify.refute_s", "s"),
    ("certify.check_s", "s"),
    ("certify.proof_steps", "count"),
    ("certify.proof_literals", "count"),
    ("obs.recorder_overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
];

/// Layer times that do not nest inside one another; their sum over the
/// traced wall time is `trace.coverage`. (`encode.s` and `sbp.s` run
/// inside `session.new_s` on the ladder path and are added here only on
/// the one-shot path, through the `oneshot.` keys.)
const TOP_LEVEL: [&str; 11] = [
    "graph.bounds_s",
    "heur.race_s",
    "session.new_s",
    "session.query_s",
    "oneshot.encode_s",
    "oneshot.sbp_s",
    "shatter.detect_s",
    "pb.optimize_s",
    "certify.cnf_s",
    "certify.refute_s",
    "certify.check_s",
];

/// Per-pass sums of the layer metrics, keyed by metric name (plus a few
/// internal keys the summary turns into ratios).
#[derive(Default, Debug, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    fn time(&mut self, key: &'static str, since: Instant) {
        self.add(key, since.elapsed().as_secs_f64());
    }

    /// A summed value, `0` when never recorded.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Summed top-level layer time.
    pub fn covered(&self) -> f64 {
        TOP_LEVEL.iter().map(|k| self.get(k)).sum()
    }
}

/// What the traced path of one chromatic search reached.
struct Chromatic {
    result: ChromaticResult,
    exhausted: bool,
    rungs: usize,
    /// The session's encoding width, when the ladder ran.
    session_k: Option<usize>,
    /// The upper bound the heuristic race reached, when it ran.
    race_upper: Option<usize>,
}

fn layer_err(item: &Item, e: impl std::fmt::Display) -> String {
    format!("{} [{}] (traced): {e}", item.name, item.config.label())
}

/// `chromatic_number_outcome`, call by call.
fn traced_chromatic(item: &Item, opts: &SolveOptions, l: &mut Layers) -> Result<Chromatic, String> {
    let g = &item.graph;
    let t = Instant::now();
    let b = bounds(g);
    l.time("graph.bounds_s", t);
    l.add("graph.dsatur_overshoot", b.upper.saturating_sub(item.reference) as f64);
    let mut race_upper = None;
    let (lower, upper, witness) = if opts.heuristics && b.lower < b.upper {
        let t = Instant::now();
        let h = race_heuristics(g, opts, &b);
        l.time("heur.race_s", t);
        l.add("heur.rungs_skipped", (b.upper - h.upper) as f64);
        l.add("heur.raced", 1.0);
        if h.upper < h.lower {
            return Err(layer_err(item, "heuristic race crossed the bracket"));
        }
        if h.lower >= h.upper {
            l.add("heur.closed", 1.0);
        }
        race_upper = Some(h.upper);
        (h.lower, h.upper, h.witness)
    } else {
        (b.lower, b.upper, b.witness)
    };
    if lower >= upper {
        let result = ChromaticResult::Exact { chromatic_number: upper, witness };
        return Ok(Chromatic { result, exhausted: false, rungs: 0, session_k: None, race_upper });
    }
    let solved = if ColoringSession::supports(opts) {
        ladder(item, opts, l, lower, upper, witness)
    } else {
        one_shot(item, opts, l, lower, upper, witness)
    };
    solved.map(|c| Chromatic { race_upper, ..c })
}

/// The incremental ladder: one session, one query per rung.
fn ladder(
    item: &Item,
    opts: &SolveOptions,
    l: &mut Layers,
    mut lower: usize,
    mut upper: usize,
    mut witness: sbgc_core::Coloring,
) -> Result<Chromatic, String> {
    let t = Instant::now();
    let mut session = ColoringSession::new(&item.graph, opts).map_err(|e| layer_err(item, e))?;
    session.commit_upper_bound(upper);
    l.time("session.new_s", t);
    let k = session.k();
    let budget = opts.budget.started();
    let mut rungs = 0;
    while lower < upper {
        let target = (upper - 1).min(k);
        let t = Instant::now();
        let step = session.query(target, &budget);
        let seconds = t.elapsed().as_secs_f64();
        l.add("session.query_s", seconds);
        l.add("session.retained_clauses", step.retained_clauses as f64);
        rungs += 1;
        match step.answer {
            SessionAnswer::Colorable(c) => {
                let colors = c.num_colors().min(target);
                if colors < lower {
                    return Err(layer_err(item, "ladder witness below the lower bound"));
                }
                upper = colors;
                witness = c;
                session.commit_upper_bound(upper);
            }
            SessionAnswer::NotColorable { .. } => {
                l.add("session.unsat_query_s", seconds);
                lower = (target + 1).max(lower);
                if target == k && lower < upper {
                    return Err(layer_err(item, "ladder stopped at the K cap"));
                }
            }
            SessionAnswer::Unknown => {
                let result = ChromaticResult::Bounded { lower, upper, witness };
                return Ok(Chromatic {
                    result,
                    exhausted: true,
                    rungs,
                    session_k: Some(k),
                    race_upper: None,
                });
            }
        }
    }
    let result = ChromaticResult::Exact { chromatic_number: upper, witness };
    Ok(Chromatic { result, exhausted: false, rungs, session_k: Some(k), race_upper: None })
}

/// The one-shot path: encode, SBPs, Shatter, optimize, decode.
fn one_shot(
    item: &Item,
    opts: &SolveOptions,
    l: &mut Layers,
    lower: usize,
    upper: usize,
    witness: sbgc_core::Coloring,
) -> Result<Chromatic, String> {
    let g = &item.graph;
    let k = upper.min(opts.k);
    let t = Instant::now();
    let mut enc = ColoringEncoding::new(g, k);
    l.time("oneshot.encode_s", t);
    let stats = enc.formula().stats();
    l.add("encode.vars", stats.vars as f64);
    l.add("encode.clauses", stats.clauses as f64);
    let t = Instant::now();
    let sbp = add_instance_independent_sbps(&mut enc, g, opts.sbp_mode);
    l.time("oneshot.sbp_s", t);
    l.add("sbp.clauses", sbp.clauses as f64);
    if opts.symmetry == SymmetryHandling::WithInstanceDependent {
        let t = Instant::now();
        let report = sbgc_shatter::shatter(enc.formula_mut(), &opts.shatter);
        l.time("shatter.detect_s", t);
        l.add("shatter.generators", report.num_generators as f64);
        l.add("shatter.sbp_clauses", report.sbp.clauses as f64);
    }
    let t = Instant::now();
    let (out, _) =
        optimize_recorded_with_stats(enc.formula(), opts.solver, &opts.budget, &opts.recorder);
    l.time("pb.optimize_s", t);
    let decoded = |value: u64, model| {
        enc.decode(model).filter(|c| c.is_proper(g) && c.num_colors() as u64 == value)
    };
    let result = match &out {
        OptOutcome::Optimal { value, model } => match decoded(*value, model) {
            Some(c) => ChromaticResult::Exact { chromatic_number: *value as usize, witness: c },
            None => return Err(layer_err(item, "optimal model failed to decode")),
        },
        OptOutcome::Feasible { value, model } => match decoded(*value, model) {
            Some(c) => ChromaticResult::Bounded { lower, upper: *value as usize, witness: c },
            None => return Err(layer_err(item, "feasible model failed to decode")),
        },
        OptOutcome::Infeasible => return Err(layer_err(item, "infeasible at the DSATUR bound")),
        OptOutcome::Unknown => ChromaticResult::Bounded { lower, upper, witness },
    };
    let exhausted = result.exact().is_none();
    Ok(Chromatic { result, exhausted, rungs: 0, session_k: None, race_upper: None })
}

/// Refutes χ−1 on the SBP-free CNF and replays the DRAT proof, as
/// `certify_result` does with one worker. `Ok(true)` when checked.
fn traced_certificate(
    item: &Item,
    chi: usize,
    opts: &SolveOptions,
    l: &mut Layers,
) -> Result<bool, String> {
    if chi <= 1 {
        return Ok(true);
    }
    let t = Instant::now();
    let (num_vars, clauses) = cnf_decision_formula(&item.graph, chi - 1);
    l.time("certify.cnf_s", t);
    let t = Instant::now();
    let shared = SharedProof::new();
    let mut solver = SatSolver::new(num_vars);
    solver.set_proof_logger(Box::new(shared.clone()));
    for c in &clauses {
        solver.add_clause(c.iter().copied());
    }
    let outcome = solver.solve_with_budget(&opts.budget);
    l.time("certify.refute_s", t);
    match outcome {
        SolveOutcome::Unsat => {
            let proof = shared.take();
            let t = Instant::now();
            let checked = check_drat(num_vars, &clauses, &proof);
            l.time("certify.check_s", t);
            let stats = checked.map_err(|e| layer_err(item, format!("proof rejected: {e}")))?;
            l.add("certify.proof_steps", stats.steps as f64);
            l.add("certify.proof_literals", proof.total_literals() as f64);
            Ok(true)
        }
        SolveOutcome::Sat(_) => Err(layer_err(item, format!("graph is {}-colorable", chi - 1))),
        SolveOutcome::Unknown => Ok(false),
    }
}

/// Solves `item` once on the traced path, adding its layer times and
/// counts to `l`, and checks the answer as the untraced path does.
pub fn traced_solve(item: &Item, cap: f64, l: &mut Layers) -> Result<Sample, String> {
    let recorder = Recorder::new();
    let opts = options(item.config, capped_budget(cap), recorder.clone());
    let start = Instant::now();
    let chromatic = traced_chromatic(item, &opts, l)?;
    let mut decided = check_result(item, &chromatic.result, chromatic.exhausted)?;
    if item.config == Config::Certified && decided {
        decided = traced_certificate(item, item.reference, &opts, l)?;
    }
    let seconds = start.elapsed().as_secs_f64();
    if item.config == Config::Certified {
        decided &= seconds <= cap;
    }
    l.add("trace.wall_s", seconds);
    l.add("session.rungs", chromatic.rungs as f64);

    // Bookkeeping below runs after the clock stopped.
    for span in recorder.spans() {
        match span.phase {
            Phase::Encode => l.add("session.encode_s", span.duration.as_secs_f64()),
            Phase::Sbp => l.add("session.sbp_s", span.duration.as_secs_f64()),
            _ => {}
        }
    }
    if let Some(k) = chromatic.session_k {
        // The session encoded inside `ColoringSession::new`; rebuild the
        // same encoding untimed to count its size.
        let mut enc = ColoringEncoding::new(&item.graph, k);
        enc.formula_mut().clear_objective();
        let stats = enc.formula().stats();
        l.add("encode.vars", stats.vars as f64);
        l.add("encode.clauses", stats.clauses as f64);
        let sbp = add_instance_independent_sbps(&mut enc, &item.graph, opts.sbp_mode);
        l.add("sbp.clauses", sbp.clauses as f64);
    }
    let c = recorder.search_counters();
    l.add("pb.conflicts", c.conflicts as f64);
    l.add("pb.propagations", c.propagations as f64);
    l.add("pb.learned", c.learned as f64);
    l.add("pb.deleted", c.deleted as f64);
    l.add("sharing.exported", c.exported as f64);
    l.add("sharing.imported", c.imported as f64);
    for w in recorder.workers() {
        if let Some(lat) = w.cancel_latency {
            l.add("portfolio.cancel_latency_s", lat.as_secs_f64());
            l.add("portfolio.cancels", 1.0);
        }
    }
    if let ChromaticResult::Exact { chromatic_number, witness } = &chromatic.result {
        check_witness(&item.graph, witness, *chromatic_number).map_err(|e| layer_err(item, e))?;
    }
    let (rungs, race_upper) = (Some(chromatic.rungs), chromatic.race_upper);
    Ok(if decided {
        Sample { seconds, censored: false, chi: Some(item.reference), rungs, race_upper }
    } else {
        Sample { seconds: cap, censored: true, chi: None, rungs, race_upper }
    })
}

/// Turns the sums of one traced pass into the reported per-layer values.
pub fn summarize(l: &Layers) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (name, _) in LAYER_METRICS {
        m.insert(name, l.get(name));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("encode.s", l.get("oneshot.encode_s") + l.get("session.encode_s"));
    m.insert("sbp.s", l.get("oneshot.sbp_s") + l.get("session.sbp_s"));
    m.insert("heur.closed_frac", ratio(l.get("heur.closed"), l.get("heur.raced")));
    m.insert(
        "pb.props_per_s",
        ratio(l.get("pb.propagations"), l.get("session.query_s") + l.get("pb.optimize_s")),
    );
    m.insert(
        "portfolio.cancel_latency_s",
        ratio(l.get("portfolio.cancel_latency_s"), l.get("portfolio.cancels")),
    );
    m.insert("trace.coverage", ratio(l.covered(), l.get("trace.wall_s")));
    m
}
