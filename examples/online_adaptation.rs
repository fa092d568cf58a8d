//! Online adaptation: the controller-in-the-loop serving system reacting to
//! a load shift on a *live* cluster (the end-to-end Fig. 12 story).
//!
//! A step-change workload doubles-and-a-half the offered rate mid-run.  The
//! Kairos serving loop watches every arrival and completion, notices the
//! drift, replans from its online knowledge, and steers the cluster to the
//! new configuration — adding instances (which come online after a
//! provisioning delay) and gracefully draining surplus ones.  A frozen copy
//! of the initial plan serves the same trace for comparison.
//!
//! Run with:
//! ```text
//! cargo run --release --example online_adaptation
//! ```

use kairos::prelude::*;

fn main() {
    let pool = PoolSpec::new(ec2::paper_pool());
    let model = ModelKind::Rm2;
    let latency = paper_calibration();
    let service = ServiceSpec::new(model, latency.clone());

    // A 40 -> 100 QPS step change with the production batch mix.
    let workload = PhasedArrival::step_change(
        40.0,
        100.0,
        BatchSizeDistribution::production_default(),
        5.0,
        5.0,
        4242,
    );
    let trace = workload.generate();
    let boundary_us = workload.boundaries_us()[1];
    println!(
        "Workload: {} queries, 40 QPS -> 100 QPS step at t = {:.0}s",
        trace.len(),
        boundary_us as f64 / 1e6
    );

    // The serving system: Kairos controller in the loop, 0.5 s replan
    // cadence, 300 ms provisioning delay, monitor warmed with the mix.
    let mut system = ServingSystem::new(
        pool.clone(),
        model,
        Some(latency.clone()),
        ServingOptions::default()
            .replan_every(500_000)
            .provisioning_delay(300_000),
    );
    system.warm_monitor(&BatchSizeDistribution::production_default(), 2_000, 7);

    let initial = system.plan_for_demand(40.0).expect("prior knowledge");
    println!(
        "Initial deployment (sized for 40 QPS): {} at {:.3} $/hr\n",
        initial,
        initial.cost(&pool)
    );

    let outcome = system.run(&initial, &service, &trace);

    println!("Reconfiguration timeline:");
    for r in &outcome.reconfigs {
        println!(
            "  t = {:>5.2}s  [{:?}] demand {:>6.1} QPS -> {} ({:.3} $/hr), +{} / -{} instances",
            r.at_us as f64 / 1e6,
            r.trigger,
            r.demand_qps,
            r.target,
            r.target.cost(&pool),
            r.added_types.len(),
            r.retired_instances.len()
        );
    }
    let final_active = &outcome.final_active.pools[0].config;
    println!(
        "  final active cluster: {} at {:.3} $/hr",
        final_active,
        final_active.cost(&pool)
    );

    // The frozen initial plan on the same trace.
    let mut frozen_scheduler = KairosScheduler::with_priors(model, &latency);
    let frozen = run_trace(
        &pool,
        &initial,
        &service,
        &trace,
        &mut frozen_scheduler,
        &SimulationOptions::default(),
    );

    println!("\nOutcome across the shift:");
    let recover = |r: &kairos_sim::SimReport| {
        r.time_to_recover(boundary_us, 500_000, 0.15)
            .map(|t| format!("{:.1} s", t as f64 / 1e6))
            .unwrap_or_else(|| "never".into())
    };
    println!(
        "  adaptive: {:>5.2} % violations, recovered in {}",
        outcome.report.violation_fraction() * 100.0,
        recover(&outcome.report)
    );
    println!(
        "  frozen:   {:>5.2} % violations, recovered in {}",
        frozen.violation_fraction() * 100.0,
        recover(&frozen)
    );

    // Violation-rate timeline around the boundary (by arrival window).
    println!("\nWindowed violation rate (adaptive | frozen):");
    let a = outcome.report.violation_timeline(1_000_000);
    let f = frozen.violation_timeline(1_000_000);
    for ((t, av), (_, fv)) in a.iter().zip(f.iter()) {
        if *t > workload.total_duration_us() {
            break;
        }
        let marker = if *t == boundary_us { "  <- shift" } else { "" };
        println!(
            "  t = {:>4.0}s  {:>5.1} % | {:>5.1} %{}",
            *t as f64 / 1e6,
            av * 100.0,
            fv * 100.0,
            marker
        );
    }
}
