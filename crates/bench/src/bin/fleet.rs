//! The experiment-fleet driver.
//!
//! ```text
//! fleet figures [ids...]   run registered figures (default: every one)
//! fleet matrix [out_dir]   run the default 24-scenario sweep (default: fleet-results/)
//! fleet smoke  [out_dir]   run the 4-scenario CI sweep (default: target/fleet-smoke/)
//! ```
//!
//! Figures run through [`kairos_bench::registry`] — the table the `figures`
//! bench target runs — so one fleet invocation regenerates every
//! checked-in `BENCH_*.json` bit-for-bit; an unknown id runs nothing and
//! exits non-zero.  Run it through `cargo run`, which sets the
//! `CARGO_MANIFEST_DIR` the figures record under.  Matrix sweeps fan their
//! scenarios out over rayon workers and write one JSON result file per
//! scenario.  `KAIROS_FIG_FAST=1` shrinks the figures for CI.

use kairos_bench::fleet::{run_matrix, ScenarioMatrix};
use kairos_bench::registry;
use std::path::PathBuf;
use std::process::ExitCode;

fn run_figures(ids: &[String]) -> ExitCode {
    match registry::run(ids) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn run_sweep(matrix: &ScenarioMatrix, out_dir: PathBuf) -> ExitCode {
    println!(
        "fleet: {} scenario(s) -> {}",
        matrix.scenarios.len(),
        out_dir.display()
    );
    let results = run_matrix(matrix, &out_dir);
    println!(
        "{:<28}{:>10}{:>14}{:>12}{:>14}",
        "scenario", "offered", "violations %", "p99 (ms)", "events/sec"
    );
    for r in &results {
        println!(
            "{:<28}{:>10}{:>14.2}{:>12.2}{:>14.0}",
            r.name,
            r.offered,
            r.violation_fraction * 100.0,
            r.p99_us as f64 / 1000.0,
            r.events_per_sec
        );
    }
    println!(
        "--> {} result file(s) in {}",
        results.len(),
        out_dir.display()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Large-scale replays (fig_scale) re-fault the same gigabytes every pass
    // without this; see the harness doc.
    kairos_bench::tune_allocator_for_replay();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("figures") => run_figures(&args[1..]),
        Some("matrix") => {
            let out = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("fleet-results"));
            run_sweep(&ScenarioMatrix::default_sweep(), out)
        }
        Some("smoke") => {
            let out = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("target/fleet-smoke"));
            run_sweep(&ScenarioMatrix::smoke(), out)
        }
        _ => {
            eprintln!("usage: fleet <figures [ids...] | matrix [out_dir] | smoke [out_dir]>");
            ExitCode::from(2)
        }
    }
}
