//! Every workload end to end at smoke scale, through the library entry
//! point: the metrics printed are the ones `BENCHMARK.json` names, the
//! output checks pass, and the outcome repeats from run to run.

use kairos_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use kairos_perfbench::{run, RunReport, RunSpec, Scale, Workload};
use serde_json::Value;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    field(value, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is not a string"))
}

fn smoke(workload: Workload, trace: bool) -> RunReport {
    smoke_seed(workload, trace, 7)
}

fn smoke_seed(workload: Workload, trace: bool, seed: u64) -> RunReport {
    let spec = RunSpec {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    };
    run(&spec).unwrap_or_else(|failure| panic!("{}: {}", workload.name(), failure.message))
}

fn names_and_units(report: &RunReport) -> Vec<(&str, &str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn the_metric_tables_are_the_ones_benchmark_json_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text_of = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::parse(&text_of).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = field(&json, "workloads")
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = field(&json, key)
            .as_array()
            .expect("metrics are a list")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        assert_eq!(listed, table, "{key}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let report = smoke(workload, false);
        assert_eq!(names_and_units(&report), END_TO_END, "{}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{} {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let line = metrics::result_line(true, report.attempted, 0, &report.metrics);
        let parsed = serde_json::parse(&line).expect("the result line is JSON");
        assert_eq!(field(&parsed, "correct"), &Value::Bool(true));
        for (name, unit) in END_TO_END {
            let metric = field(field(&parsed, "metrics"), name);
            assert_eq!(text(metric, "unit"), unit);
            assert!(matches!(field(metric, "value"), Value::Number(_)));
        }

        let traced = smoke(workload, true);
        assert_eq!(names_and_units(&traced), PER_LAYER, "{}", workload.name());
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn the_outcome_repeats_whatever_the_seed() {
    // The outcome metrics come from the outcome cycle's fixed inputs, so a
    // second run, and a run on another seed, read the same bits.
    for workload in Workload::ALL {
        let runs = [
            smoke(workload, false),
            smoke(workload, false),
            smoke_seed(workload, false, 8),
        ];
        for name in ["goodput_pct", "p99_qos_pct", "cost_per_hr"] {
            let value = |r: &RunReport| {
                r.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value.to_bits())
            };
            assert!(value(&runs[0]).is_some(), "{} {name}", workload.name());
            for other in &runs[1..] {
                assert_eq!(value(&runs[0]), value(other), "{} {name}", workload.name());
            }
        }
    }
}
