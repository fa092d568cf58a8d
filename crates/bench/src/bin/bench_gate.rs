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

/// The scale and name of the unit that shows `ns` with at least three
/// significant digits at two decimals.
fn unit(ns: f64) -> (f64, &'static str) {
    if ns < 1e3 {
        (1.0, "ns")
    } else if ns < 1e6 {
        (1e3, "µs")
    } else if ns < 1e9 {
        (1e6, "ms")
    } else {
        (1e9, "s")
    }
}

/// Shows each of `values_ns` at two decimals in the one unit that resolves
/// the smallest of them.
fn in_one_unit<const N: usize>(values_ns: [f64; N]) -> [String; N] {
    let (scale, name) = unit(values_ns.iter().copied().fold(f64::INFINITY, f64::min));
    values_ns.map(|ns| format!("{:.2} {name}", ns / scale))
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
                let [median, budget, limit_text] = in_one_unit([median_ns, *budget_ns, limit]);
                println!(
                    "{verdict}  {bench}: median {median} vs budget {budget} (limit {limit_text})"
                );
                failed |= median_ns > limit;
            }
        }
    }
    for (bench, median_ns) in &measured {
        if !budgets.iter().any(|(b, _)| b == bench) {
            let [median] = in_one_unit([*median_ns]);
            println!("info  {bench}: median {median} (no budget)");
        }
    }
    if failed {
        eprintln!("bench_gate: hot-path benchmarks regressed >25% against BENCH_budget.json");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::in_one_unit;

    #[test]
    fn rows_print_in_a_unit_that_resolves_them() {
        assert_eq!(
            in_one_unit([2_340.0, 3_600.0, 4_500.0]),
            ["2.34 µs", "3.60 µs", "4.50 µs"]
        );
        assert_eq!(
            in_one_unit([2_880_000.0, 2_000_000.0, 2_500_000.0]),
            ["2.88 ms", "2.00 ms", "2.50 ms"]
        );
        // A median far under its budget keeps its digits.
        assert_eq!(
            in_one_unit([1_500.0, 2_000_000.0]),
            ["1.50 µs", "2000.00 µs"]
        );
        assert_eq!(in_one_unit([640.0]), ["640.00 ns"]);
        assert_eq!(in_one_unit([9.4e9]), ["9.40 s"]);
    }
}
