//! Calibrated latency table for the paper's five models on the four EC2
//! instance types.
//!
//! The original evaluation measures these latencies on real AWS instances.
//! Those measurements are not available, so the constants below are a
//! synthetic calibration chosen to preserve the *structural* properties the
//! paper's results rely on (see DESIGN.md, "Substitutions"):
//!
//! 1. The GPU base type (`g4dn.xlarge`) meets QoS for every batch size up to
//!    the 1000-request cap, for every model.
//! 2. Each CPU auxiliary type has a model-dependent QoS cutoff `s` well below
//!    1000: it can serve small queries within QoS but not large ones.
//! 3. On the small-batch mass of the workload, the cheap auxiliary types
//!    deliver *more throughput per dollar* than the base type, which is what
//!    makes heterogeneous configurations attractive (paper Sec. 4).
//! 4. The advantage differs per model: embedding-dominated RM2 benefits the
//!    most from cheap CPU instances (the paper reports 2.03x), while the
//!    compute-heavy MT-WND benefits the least (1.25x).
//!
//! All constants are in milliseconds: `latency = intercept + slope * batch`.

use crate::latency::{LatencyProfile, LatencyTable};
use crate::mlmodel::ModelKind;

/// One calibration row: instance type name, intercept (ms), slope (ms/request).
type Row = (&'static str, f64, f64);

/// Calibration constants per model.  Order of rows: G1, C1, C2, C3.
fn rows(model: ModelKind) -> [Row; 4] {
    match model {
        // NCF: tiny MLP, 5 ms QoS.  GPU has relatively high fixed dispatch
        // overhead compared to the arithmetic, so cheap CPUs shine on small
        // batches (paper reports 1.68x).
        ModelKind::Ncf => [
            ("g4dn.xlarge", 0.80, 0.0025),
            ("c5n.2xlarge", 0.25, 0.0100),
            ("r5n.large", 0.30, 0.0160),
            ("t3.xlarge", 0.35, 0.0260),
        ],
        // RM2: large embedding tables dominate; memory-bound work maps well to
        // CPU hosts and the GPU pays a large data-movement overhead per query,
        // so heterogeneity helps the most (paper reports 2.03x).
        ModelKind::Rm2 => [
            ("g4dn.xlarge", 60.0, 0.2400),
            ("c5n.2xlarge", 6.0, 0.5500),
            ("r5n.large", 6.0, 0.8000),
            ("t3.xlarge", 10.0, 1.5000),
        ],
        // WND: medium dense model, 25 ms QoS (paper reports 1.34x).
        ModelKind::Wnd => [
            ("g4dn.xlarge", 4.0, 0.0160),
            ("c5n.2xlarge", 2.0, 0.0800),
            ("r5n.large", 2.5, 0.1300),
            ("t3.xlarge", 3.0, 0.2000),
        ],
        // MT-WND: several parallel DNN towers; CPUs struggle, so the gain from
        // heterogeneity is the smallest (paper reports 1.25x).
        ModelKind::MtWnd => [
            ("g4dn.xlarge", 4.0, 0.0170),
            ("c5n.2xlarge", 3.0, 0.1300),
            ("r5n.large", 3.5, 0.1900),
            ("t3.xlarge", 5.0, 0.3000),
        ],
        // DIEN: GRU-based sequence model, 35 ms QoS (paper reports 1.43x).
        ModelKind::Dien => [
            ("g4dn.xlarge", 5.0, 0.0250),
            ("c5n.2xlarge", 2.5, 0.1000),
            ("r5n.large", 3.0, 0.1600),
            ("t3.xlarge", 3.5, 0.2100),
        ],
    }
}

/// Builds the full calibrated latency table for all five models on the four
/// paper instance types.
pub fn paper_calibration() -> LatencyTable {
    let mut table = LatencyTable::new();
    for model in ModelKind::ALL {
        for (name, intercept, slope) in rows(model) {
            table.insert(model, name, LatencyProfile::new(intercept, slope));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ec2;
    use crate::mlmodel::{spec, MAX_BATCH_SIZE};

    #[test]
    fn every_pair_is_calibrated() {
        let t = paper_calibration();
        assert_eq!(t.len(), 5 * 4);
        for model in ModelKind::ALL {
            for inst in ec2::paper_pool() {
                assert!(
                    t.get(model, &inst.name).is_some(),
                    "{model} on {}",
                    inst.name
                );
            }
        }
    }

    #[test]
    fn base_instance_meets_qos_for_all_batch_sizes() {
        // Structural property 1: only the GPU can serve the largest query
        // within QoS for every model (it is the base type of the paper).
        let t = paper_calibration();
        for model in ModelKind::ALL {
            let qos = spec(model).qos_ms;
            let gpu = t.expect(model, "g4dn.xlarge");
            assert!(
                gpu.latency_ms(MAX_BATCH_SIZE) <= qos,
                "{model}: GPU latency {} exceeds QoS {qos}",
                gpu.latency_ms(MAX_BATCH_SIZE)
            );
        }
    }

    #[test]
    fn auxiliary_instances_cannot_serve_largest_queries() {
        // Structural property 2: every CPU type has a cutoff below the cap.
        let t = paper_calibration();
        for model in ModelKind::ALL {
            let qos = spec(model).qos_ms;
            for inst in &ec2::paper_pool()[1..] {
                let p = t.expect(model, &inst.name);
                let cutoff = p.max_batch_within(qos);
                assert!(
                    cutoff.is_none() || cutoff.unwrap() < MAX_BATCH_SIZE,
                    "{model} on {} should not meet QoS at the batch cap",
                    inst.name
                );
                // ...but each can serve at least small queries.
                assert!(
                    cutoff.unwrap_or(0) >= 30,
                    "{model} on {}: cutoff too small to be useful",
                    inst.name
                );
            }
        }
    }

    #[test]
    fn cheapest_auxiliary_has_better_small_batch_throughput_per_dollar() {
        // Structural property 3: on a representative small batch, r5n.large
        // offers more QPS per dollar than the GPU — the economic driver of
        // heterogeneous serving.
        let t = paper_calibration();
        let pool = ec2::paper_pool();
        let gpu_price = pool[0].price_per_hour;
        let r5n_price = pool[2].price_per_hour;
        for model in ModelKind::ALL {
            let small_batch = 64;
            let gpu = t.expect(model, "g4dn.xlarge");
            let r5n = t.expect(model, "r5n.large");
            let gpu_eff = gpu.throughput_qps(small_batch) / gpu_price;
            let r5n_eff = r5n.throughput_qps(small_batch) / r5n_price;
            assert!(
                r5n_eff > gpu_eff,
                "{model}: r5n {r5n_eff:.1} QPS/$ should beat GPU {gpu_eff:.1} QPS/$"
            );
        }
    }

    #[test]
    fn rm2_benefits_more_than_mtwnd() {
        // Structural property 4: the per-dollar advantage of the cheap CPU is
        // larger for RM2 than for MT-WND, matching the paper's ordering of
        // heterogeneity gains (2.03x vs 1.25x).
        let t = paper_calibration();
        let pool = ec2::paper_pool();
        let advantage = |model: ModelKind| {
            let gpu = t.expect(model, "g4dn.xlarge");
            let r5n = t.expect(model, "r5n.large");
            (r5n.throughput_qps(64) / pool[2].price_per_hour)
                / (gpu.throughput_qps(64) / pool[0].price_per_hour)
        };
        assert!(advantage(ModelKind::Rm2) > advantage(ModelKind::MtWnd));
    }
}
