//! Command-line entry point:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one JSON line per metric, then the result object as the last
//! line.  Exits 1 when an output check fails and 2 on bad arguments.

use kairos_perfbench::{metrics, run, RunSpec, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&spec) {
        Ok(report) => {
            let (wall_s, setup_s) = report.raw_s;
            eprintln!(
                "plain seconds: wall_s {wall_s:.4}, setup_s {setup_s:.4}; reference slice {:.3} ms \
                 mean ({:.3} ms at the reference speed)",
                report.reference_s * 1e3,
                kairos_perfbench::REFERENCE_S * 1e3
            );
            for metric in &report.metrics {
                println!("{}", metrics::metric_line(spec.workload.name(), metric));
            }
            println!(
                "{}",
                metrics::result_line(true, report.attempted, 0, &report.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("check failed: {}", failure.message);
            println!("{}", metrics::result_line(false, failure.attempted, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
