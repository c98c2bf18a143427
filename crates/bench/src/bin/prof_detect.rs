//! Diagnostic: symmetry-detection cost per instance/K — the Table 2
//! "Saucy time" column in isolation, split into symmetry-graph
//! construction, automorphism search and the spurious-generator filter.
//! Useful for sizing `--full` runs.
//!
//! Every detection must be exact and find the group order pinned below;
//! the binary exits 1 otherwise, so it doubles as a gate on group orders
//! at Table 2 scale.
//!
//! `cargo run --release -p sbgc-bench --bin prof_detect`

use sbgc_core::{add_instance_independent_sbps, ColoringEncoding, SbpMode};
use sbgc_graph::{gen, suite, Graph};
use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
use std::process::ExitCode;
use std::time::Instant;

/// `(name, graph, K, SBP mode, |Aut| of the encoded formula)`.
type Case = (String, Graph, usize, SbpMode, u128);

fn cases() -> Vec<Case> {
    let suite_case = |name: &str, k, order| {
        (name.to_string(), suite::build(name).graph, k, SbpMode::None, order)
    };
    vec![
        suite_case("myciel4", 10, 36_288_000),
        suite_case("myciel5", 20, 24_329_020_081_766_400_000),
        suite_case("queen6_6", 20, 19_463_216_065_413_120_000),
        // The shape of the benchmark's hard G(36, 0.5) items under SC plus
        // instance-dependent SBPs: K = χ = 8.
        ("gnp_36_0.5_1".to_string(), gen::gnp(36, 0.5, 1), 8, SbpMode::Sc, 720),
    ]
}

fn main() -> ExitCode {
    let mut ok = true;
    for (name, graph, k, mode, pinned) in cases() {
        let mut enc = ColoringEncoding::new(&graph, k);
        let _ = add_instance_independent_sbps(&mut enc, &graph, mode);
        let t = Instant::now();
        let (perms, report) = detect_symmetries(enc.formula(), &AutomorphismOptions::default());
        let total = t.elapsed();
        println!(
            "{name} K={k} {}: graph {}v/{}e, |S|=10^{:.1}, #G={}, exact={}, {total:?} \
             (graph {:?}, search {:?}, filter {:?})",
            mode.display_name(),
            report.graph_vertices,
            report.graph_edges,
            report.order_log10,
            perms.len(),
            report.exact,
            report.graph_time,
            report.search_time,
            report.filter_time,
        );
        if !report.exact || report.order != Some(pinned) {
            eprintln!("{name}: expected an exact |S| = {pinned}, got {:?}", report.order);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
