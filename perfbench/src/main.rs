//! `perfbench`: the time-to-χ benchmark of the sbgc workspace.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 [--wrong-reference]
//! perfbench selftest --seed N
//! ```
//!
//! `run` builds the workload's graph pool, computes every reference χ
//! untimed, then solves the items in a closed loop — one caller, the next
//! solve only after the previous answer returned — in passes relabeled
//! from the seed, for about `S` seconds, checking every answer. Its last
//! stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A wrong χ, an improper witness or a rejected proof exits
//! 1. `--wrong-reference` corrupts one reference χ to prove that it does.
//!
//! `selftest` checks that one seed always gives the same graphs and, on
//! the sequential workloads, the same search counts.

mod solve;
mod trace;
mod workload;

use sbgc_core::Recorder;
use solve::Sample;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Layers;
use workload::{Item, Workload};

/// The graphs are built at least `SETUP_REPS` times and for at least
/// `SETUP_MIN_S` seconds per run; `setup_s` is the median build time.
const SETUP_REPS: usize = 31;
const SETUP_MIN_S: f64 = 1.0;

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    wrong_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command: run | selftest")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        wrong_reference: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--wrong-reference" => args.wrong_reference = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample (the largest, when there are fewer than eleven).
fn tail(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| b.total_cmp(a));
    values.get(10).or(values.last()).copied().unwrap_or(0.0)
}

/// The median over passes of a statistic of one pass's solve times.
/// `samples` holds whole passes of `per_pass` solves each.
fn per_pass(samples: &[Sample], per_pass: usize, stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let mut values: Vec<f64> = samples
        .chunks(per_pass)
        .map(|pass| stat(&mut pass.iter().map(|s| s.seconds).collect::<Vec<_>>()))
        .collect();
    median(&mut values)
}

/// Builds the workload's graphs repeatedly — the pool, and its labeling
/// for the first pass; returns the pool and the median build time.
fn setup(workload: Workload, seed: u64) -> (Vec<workload::Instance>, f64) {
    let mut times = Vec::new();
    let mut instances = Vec::new();
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        instances = workload::build_instances(workload);
        std::hint::black_box(workload::labeled(workload, &instances, seed, 0));
        times.push(t.elapsed().as_secs_f64());
    }
    (instances, median(&mut times))
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

/// The machine block every result carries. `run.py` passes the rustc
/// version and the commit in the environment.
fn machine_json(workload: Workload, seed: u64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"seed\": {seed}, \"budget_s\": {}}}",
        solve::nproc(),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_SHA")),
        json_num(workload.cap_seconds()),
    )
}

/// One entry per item: its reference and its median time over the run.
fn items_json(items: &[Item], samples: &[Sample]) -> String {
    let rows: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let mine: Vec<&Sample> = samples.iter().skip(i).step_by(items.len()).collect();
            let mut secs: Vec<f64> = mine.iter().map(|s| s.seconds).collect();
            let censored = mine.iter().filter(|s| s.censored).count();
            format!(
                "{{\"name\": {}, \"config\": {}, \"reference\": {}, \"source\": {}, \"median_s\": {}, \"censored\": {censored}, \"solves\": {}}}",
                json_str(&item.name),
                json_str(item.config.label()),
                item.reference,
                json_str(item.source),
                json_num(median(&mut secs)),
                mine.len()
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Runs one untraced pass over `items`, with a fresh recorder per solve.
fn pass(items: &[Item], cap: f64, recorder: impl Fn() -> Recorder) -> Result<Vec<Sample>, String> {
    items.iter().map(|item| solve::solve(item, cap, &recorder())).collect()
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// When the next of equally long passes would end, in seconds since
/// `start`: a run starts a pass only if it is expected to end within
/// `--seconds`.
fn expected_end(start: Instant, passes: usize) -> f64 {
    start.elapsed().as_secs_f64() * (passes + 1) as f64 / passes as f64
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let (instances, setup_s) = setup(workload, args.seed);
    let mut items = workload::items(workload, instances)?;
    if args.wrong_reference {
        items[0].reference += 1;
    }
    let cap = workload.cap_seconds();
    let start = Instant::now();
    let (samples, metrics, passes) = if args.trace {
        traced_run(workload, &items, args.seed, cap, args.seconds)?
    } else {
        let mut samples = Vec::new();
        let (mut passes, mut wall) = (0, 0.0);
        while passes == 0 || expected_end(start, passes) <= args.seconds {
            let pass_items = workload::pass_items(workload, &items, args.seed, passes as u64);
            let t = Instant::now();
            samples.extend(pass(&pass_items, cap, Recorder::disabled)?);
            wall += t.elapsed().as_secs_f64();
            passes += 1;
        }
        let decided = samples.iter().filter(|s| !s.censored).count() as f64;
        let metrics = vec![
            ("solved_per_s", decided / wall, "1/s"),
            ("time_p50_s", per_pass(&samples, items.len(), median), "s"),
            ("time_tail_s", per_pass(&samples, items.len(), tail), "s"),
            ("decided_frac", decided / samples.len() as f64, "fraction"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (samples, metrics, passes)
    };
    let failed = samples.iter().filter(|s| s.censored).count();
    println!(
        "{{\"report\": {{\"workload\": {}, \"trace\": {}, \"passes\": {passes}, \"wall_s\": {}, \"machine\": {}, \"items\": {}}}}}",
        json_str(workload.name()),
        u8::from(args.trace),
        json_num(start.elapsed().as_secs_f64()),
        machine_json(workload, args.seed),
        items_json(&items, &samples)
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        samples.len(),
        metrics_json(&metrics)
    );
    Ok(())
}

/// The `--trace 1` run: rounds of an untraced pass, a pass with the
/// program's `Recorder` enabled, and a traced pass, until the run has
/// lasted `seconds`. Returns the traced samples and the per-layer metrics,
/// each the median over the traced passes.
fn traced_run(
    workload: Workload,
    items: &[Item],
    seed: u64,
    cap: f64,
    seconds: f64,
) -> Result<(Vec<Sample>, Metrics, usize), String> {
    let start = Instant::now();
    let (mut plain_s, mut recorded_s, mut traced_s) = (0.0, 0.0, 0.0);
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut samples = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || expected_end(start, rounds) <= seconds {
        let items = &workload::pass_items(workload, items, seed, rounds as u64);
        let t = Instant::now();
        pass(items, cap, Recorder::disabled)?;
        plain_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let recorded = pass(items, cap, Recorder::new)?;
        recorded_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut layers = Layers::default();
        let traced: Vec<Sample> = items
            .iter()
            .map(|item| trace::traced_solve(item, cap, &mut layers))
            .collect::<Result<_, _>>()?;
        traced_s += t.elapsed().as_secs_f64();

        // The traced path must reach the χ the program's own path reached,
        // in as many rungs when both started from the same bracket.
        for ((item, r), tr) in items.iter().zip(&recorded).zip(&traced) {
            if r.censored || tr.censored {
                continue;
            }
            let same_start = workload.sequential() && r.race_upper == tr.race_upper;
            if r.chi != tr.chi || (same_start && r.rungs != tr.rungs) {
                return Err(format!(
                    "{} [{}]: traced run reached χ {:?} in {:?} rungs, untraced χ {:?} in {:?}",
                    item.name,
                    item.config.label(),
                    tr.chi,
                    tr.rungs,
                    r.chi,
                    r.rungs
                ));
            }
        }
        per_pass.push(trace::summarize(&layers));
        samples.extend(traced);
        rounds += 1;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics = trace::LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "obs.recorder_overhead" => ratio(recorded_s, plain_s),
                "trace.overhead" => ratio(traced_s, plain_s),
                _ => median(&mut per_pass.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            (name, value, unit)
        })
        .collect();
    Ok((samples, metrics, rounds))
}

/// Same seed, same graphs; on the sequential workloads, same counts.
fn selftest(seed: u64) -> Result<(), String> {
    const COUNTS: [&str; 3] = ["pb.conflicts", "session.rungs", "certify.proof_steps"];
    for workload in Workload::ALL {
        let a = workload::fingerprints(workload, seed);
        if a != workload::fingerprints(workload, seed) {
            return Err(format!("{}: seed {seed} built different graphs", workload.name()));
        }
        println!("{}: {} graphs, fingerprints repeat", workload.name(), a.len());
        if !workload.sequential() {
            continue;
        }
        let items = workload::items(workload, workload::build_instances(workload))?;
        let items = workload::pass_items(workload, &items, seed, 0);
        let counts = || -> Result<Vec<[f64; 3]>, String> {
            items
                .iter()
                .map(|item| {
                    let mut l = Layers::default();
                    trace::traced_solve(item, workload.cap_seconds(), &mut l)?;
                    Ok(COUNTS.map(|k| l.get(k)))
                })
                .collect()
        };
        let (first, second) = (counts()?, counts()?);
        for ((item, x), y) in items.iter().zip(&first).zip(&second) {
            if x != y {
                return Err(format!(
                    "{}: {} [{}] counts {COUNTS:?} differ: {x:?} then {y:?}",
                    workload.name(),
                    item.name,
                    item.config.label()
                ));
            }
        }
        let total = |i: usize| first.iter().map(|c| c[i]).sum::<f64>();
        println!(
            "{}: counts repeat (pb.conflicts {}, session.rungs {}, certify.proof_steps {})",
            workload.name(),
            total(0),
            total(1),
            total(2)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "run" => run(&args),
        "selftest" => selftest(args.seed),
        other => Err(format!("unknown command {other:?}: run | selftest")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
