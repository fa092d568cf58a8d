//! CI performance gate for the simulator hot path.
//!
//! Usage: `bench_gate <measured.json> <budget.json>`
//!
//! `measured.json` is the JSONL file the criterion shim appends to when
//! `CRITERION_JSON` is set (`{"name": ..., "mean_ns": ..., "median_ns": ...,
//! ...}` per line); `budget.json` is the checked-in budget
//! (`BENCH_budget.json`, `{"name": ..., "budget_ns": ...}` per line).  The
//! gate **fails** when a budgeted benchmark's measured median over its
//! samples exceeds `budget_ns × 1.25` — a regression of more than 25 %
//! against the budget — or when a budgeted benchmark was not measured at
//! all.  The median, unlike the mean, is not dragged by one sample a noisy
//! neighbour slowed down.  Benchmarks without a budget line are
//! reported but never fail the gate, so the baseline (`*_run_trace_naive`)
//! entries stay unguarded.
//!
//! Budgets are deliberately set above the reference machine's measured
//! times (see BENCH_simulator.json) so ordinary CI hardware variance does
//! not trip the gate; the 1.25 factor on top catches real hot-path
//! regressions.
//!
//! The parser is intentionally line-based and field-anchored rather than a
//! full JSON reader: both files are machine-written single-level objects.

use std::process::ExitCode;

/// Extracts a `"key":value` number from a flat JSONL line.
fn field(line: &str, key: &str) -> Option<f64> {
    let anchor = format!("\"{key}\":");
    let start = line.find(&anchor)? + anchor.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `"name":"..."` string from a flat JSONL line.
fn name(line: &str) -> Option<String> {
    let anchor = "\"name\":\"";
    let start = line.find(anchor)? + anchor.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn parse(path: &str, value_key: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.lines()
        .filter_map(|line| Some((name(line)?, field(line, value_key)?)))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <measured.json> <budget.json>");
        return ExitCode::from(2);
    }
    let measured = parse(&args[1], "median_ns");
    let budgets = parse(&args[2], "budget_ns");
    if budgets.is_empty() {
        eprintln!("bench_gate: no budgets found in {}", args[2]);
        return ExitCode::from(2);
    }

    const TOLERANCE: f64 = 1.25;
    let mut failed = false;
    for (bench, budget_ns) in &budgets {
        // The criterion shim appends; the *last* measurement wins.
        let median = measured
            .iter()
            .rev()
            .find(|(name, _)| name == bench)
            .map(|(_, median)| *median);
        match median {
            None => {
                eprintln!("FAIL  {bench}: budgeted but not measured");
                failed = true;
            }
            Some(median_ns) => {
                let limit = budget_ns * TOLERANCE;
                let verdict = if median_ns > limit { "FAIL" } else { "ok  " };
                println!(
                    "{verdict}  {bench}: median {:.2} ms vs budget {:.2} ms (limit {:.2} ms)",
                    median_ns / 1e6,
                    budget_ns / 1e6,
                    limit / 1e6
                );
                failed |= median_ns > limit;
            }
        }
    }
    for (bench, median_ns) in &measured {
        if !budgets.iter().any(|(b, _)| b == bench) {
            println!(
                "info  {bench}: median {:.2} ms (no budget)",
                median_ns / 1e6
            );
        }
    }
    if failed {
        eprintln!("bench_gate: hot-path benchmarks regressed >25% against BENCH_budget.json");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
