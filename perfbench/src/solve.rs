//! One untraced instance-solve through the library's public entry points,
//! and the correctness checks every answer must pass.

use crate::workload::{Config, Item};
use sbgc_core::{
    chromatic_number_certified, chromatic_number_outcome, Budget, ChromaticResult, Coloring, Graph,
    ProofStatus, Recorder, SbpMode, SolveOptions,
};
use std::time::{Duration, Instant};

/// Color cap handed to the solver. Far above every workload's χ, so the
/// DSATUR bound always sets the effective K.
const K_CAP: usize = 64;

/// What one instance-solve produced, after checking.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall-clock seconds of the call; the cap when censored.
    pub seconds: f64,
    /// The budget ran out before the answer was decided (or certified).
    pub censored: bool,
    /// The χ reached (the reference, since checks passed); `None` when
    /// censored.
    pub chi: Option<usize>,
    /// Ladder rungs the run recorded (only when a recorder was enabled).
    pub rungs: Option<usize>,
    /// The upper bound the heuristic race reached, when it ran and was
    /// recorded. The race's threads share one bracket, so this may differ
    /// from run to run, and the rung count with it.
    pub race_upper: Option<usize>,
}

/// Checks a witness without trusting the library's own validator: the
/// right length, no monochromatic edge, exactly `colors` distinct colors.
pub fn check_witness(graph: &Graph, witness: &Coloring, colors: usize) -> Result<(), String> {
    let c = witness.colors();
    if c.len() != graph.num_vertices() {
        return Err(format!(
            "witness has {} entries for {} vertices",
            c.len(),
            graph.num_vertices()
        ));
    }
    if let Some((u, v)) = graph.edges().find(|&(u, v)| c[u] == c[v]) {
        return Err(format!("witness colors edge ({u}, {v}) with one color"));
    }
    let mut used: Vec<usize> = c.to_vec();
    used.sort_unstable();
    used.dedup();
    if used.len() != colors {
        return Err(format!("witness uses {} colors, expected {colors}", used.len()));
    }
    Ok(())
}

/// The options an item is solved with. `budget` carries the cap;
/// `recorder` is disabled on the untraced path.
pub fn options(config: Config, budget: Budget, recorder: Recorder) -> SolveOptions {
    let base = SolveOptions::new(K_CAP).with_budget(budget).with_recorder(recorder);
    match config {
        Config::Ladder | Config::Certified => base.with_sbp_mode(SbpMode::NuSc),
        Config::ShatterOneShot => base.with_sbp_mode(SbpMode::Sc).with_instance_dependent_sbps(),
        Config::Portfolio => base.with_sbp_mode(SbpMode::NuSc).with_parallelism(nproc()),
    }
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The per-solve budget: a wall-clock cap. It is armed before the call,
/// so a certified solve's search and refutation share one deadline.
pub fn capped_budget(cap: f64) -> Budget {
    Budget::unlimited().with_timeout(Duration::from_secs_f64(cap)).started()
}

/// Checks a chromatic answer against the item's reference. `Ok(true)`
/// when exact, `Ok(false)` when the budget stopped it with a bracket that
/// still contains the reference.
pub fn check_result(
    item: &Item,
    result: &ChromaticResult,
    budget_hit: bool,
) -> Result<bool, String> {
    match result {
        ChromaticResult::Exact { chromatic_number, witness } => {
            if *chromatic_number != item.reference {
                return Err(format!(
                    "{} [{}]: χ = {chromatic_number}, reference ({}) says {}",
                    item.name,
                    item.config.label(),
                    item.source,
                    item.reference
                ));
            }
            check_witness(&item.graph, witness, *chromatic_number)
                .map_err(|e| format!("{} [{}]: {e}", item.name, item.config.label()))?;
            Ok(true)
        }
        ChromaticResult::Bounded { lower, upper, witness } => {
            if !(*lower <= item.reference && item.reference <= *upper) {
                return Err(format!(
                    "{} [{}]: bracket [{lower}, {upper}] excludes the reference χ = {}",
                    item.name,
                    item.config.label(),
                    item.reference
                ));
            }
            check_witness(&item.graph, witness, *upper)
                .map_err(|e| format!("{} [{}]: {e}", item.name, item.config.label()))?;
            if !budget_hit {
                return Err(format!(
                    "{} [{}]: bracket [{lower}, {upper}] without budget exhaustion",
                    item.name,
                    item.config.label()
                ));
            }
            Ok(false)
        }
    }
}

/// Solves `item` once through the public entry point its configuration
/// names, times the call, and checks the answer. An `Err` is a wrong
/// answer and ends the benchmark.
pub fn solve(item: &Item, cap: f64, recorder: &Recorder) -> Result<Sample, String> {
    let opts = options(item.config, capped_budget(cap), recorder.clone());
    let start = Instant::now();
    let decided = if item.config == Config::Certified {
        let (result, cert) = chromatic_number_certified(&item.graph, &opts);
        let seconds = start.elapsed().as_secs_f64();
        let exact = check_result(item, &result, true)?;
        let certified = match cert {
            Some(cert) => {
                if let ProofStatus::Rejected { error } = &cert.unsat {
                    return Err(format!("{}: proof rejected: {error}", item.name));
                }
                if !cert.witness_verified {
                    return Err(format!("{}: certificate witness failed verification", item.name));
                }
                cert.is_certified()
            }
            None => false,
        };
        // The DRAT check runs outside the budget; a certificate that lands
        // after the cap was not delivered within it.
        (exact && certified && seconds <= cap, seconds)
    } else {
        let out = chromatic_number_outcome(&item.graph, &opts)
            .map_err(|e| format!("{} [{}]: {e}", item.name, item.config.label()))?;
        let seconds = start.elapsed().as_secs_f64();
        (check_result(item, &out.result, out.exhaust.is_some())?, seconds)
    };
    let rungs = recorder.is_enabled().then(|| recorder.ladder_steps().len());
    let race_upper = recorder.heuristics().map(|h| h.upper);
    Ok(match decided {
        (true, seconds) => {
            Sample { seconds, censored: false, chi: Some(item.reference), rungs, race_upper }
        }
        (false, _) => Sample { seconds: cap, censored: true, chi: None, rungs, race_upper },
    })
}
