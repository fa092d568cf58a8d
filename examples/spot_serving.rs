//! Spot-aware serving: the Kairos control loop buying preemptible cloud
//! capacity through a preemption storm.
//!
//! The offering catalog extends the paper's pool along a second axis — *how*
//! each instance is bought.  Spot g4dn capacity costs about a third of its
//! on-demand price but the cloud reclaims it mid-run (two scripted notices,
//! 200 ms warning each).  The serving loop plans over offerings, so its
//! configurations say "1 on-demand GPU + N spot instances"; on a notice it
//! replans immediately with the stormed offering priced out (cooldown),
//! re-buying stable capacity, and drifts back to the discount once the storm
//! passes.
//!
//! Run with:
//! ```text
//! cargo run --release --example spot_serving
//! ```

use kairos::prelude::*;
use kairos_models::{Offering, OfferingCatalog, PreemptionProcess, PriceTrace, TraceMarket};
use std::sync::Arc;

fn main() {
    let model = ModelKind::Rm2;
    let latency = paper_calibration();
    let service = ServiceSpec::new(model, latency.clone());

    // Two hardware types, four offerings: each GPU/CPU type on-demand and as
    // deeply discounted spot capacity.  The GPU spot offering is hit by two
    // preemption storms.
    let storms_us = vec![4_000_000, 7_000_000];
    let catalog = OfferingCatalog::new(vec![
        Offering::on_demand(ec2::g4dn_xlarge()),
        Offering::on_demand(ec2::r5n_large()),
        Offering::spot(
            ec2::g4dn_xlarge(),
            PriceTrace::constant(0.17),
            PreemptionProcess::At {
                notices_us: storms_us.clone(),
            },
        ),
        Offering::spot(
            ec2::r5n_large(),
            PriceTrace::constant(0.05),
            PreemptionProcess::None,
        ),
    ]);
    let market = Arc::new(TraceMarket::new(catalog.clone()));
    let effective = catalog.effective_pool();
    println!("Offering catalog:");
    for (i, offering) in catalog.offerings().iter().enumerate() {
        println!(
            "  [{i}] {:<18} {:>7.3} $/hr{}",
            offering.label(),
            offering.price_at(0),
            if offering.preemptible() {
                "  (preemptible)"
            } else {
                ""
            }
        );
    }

    // 60 QPS steady RM2 stream for 10 s; storms at 4 s and 7 s.
    let trace = TraceSpec::production(60.0, 10.0, 4242).generate();
    println!(
        "\nWorkload: {} queries at 60 QPS; GPU-spot storms at {:?} s\n",
        trace.len(),
        storms_us
            .iter()
            .map(|&t| t as f64 / 1e6)
            .collect::<Vec<_>>()
    );

    let mut system = ServingSystem::with_market(
        catalog.clone(),
        market,
        model,
        Some(latency.clone()),
        ServingOptions::default()
            .budget(2.5)
            .replan_every(500_000)
            .provisioning_delay(300_000),
    );
    system.warm_monitor(&BatchSizeDistribution::production_default(), 2_000, 7);
    let initial = system.plan_for_demand(60.0).expect("prior knowledge");
    println!(
        "Initial deployment {} at {:.3} $/hr (on-demand-only would pay {:.3} $/hr \
         for the same counts)",
        initial,
        initial.cost(&effective),
        initial
            .counts()
            .iter()
            .enumerate()
            .map(|(i, &c)| catalog.on_demand_price(i) * c as f64)
            .sum::<f64>()
    );

    let outcome = system.run(&initial, &service, &trace);

    println!("\nReconfiguration timeline:");
    for r in &outcome.reconfigs {
        println!(
            "  t = {:>5.2}s  [{:?}] demand {:>6.1} QPS -> {} ({:.3} $/hr), +{} / -{} instances",
            r.at_us as f64 / 1e6,
            r.trigger,
            r.demand_qps,
            r.target,
            r.target.cost(&effective),
            r.added_types.len(),
            r.retired_instances.len()
        );
    }

    let report = &outcome.report;
    println!("\nOutcome:");
    println!(
        "  {} preemption notice(s), {} instance(s) reclaimed, {} quer(ies) requeued",
        report.preemption_notices, report.preempted_instances, report.requeued_queries
    );
    println!(
        "  violations {:.2} %, billed {:.3} $/hr time-weighted (budget 2.5 $/hr)",
        report.violation_fraction() * 100.0,
        report.billed_cost_per_hour()
    );

    // Violation-rate timeline: the storms show up as short spikes that the
    // market replans absorb.
    println!("\nWindowed violation rate:");
    for (t, rate) in report.violation_timeline(1_000_000) {
        if t >= trace.duration_us() {
            break;
        }
        let marker = if storms_us.iter().any(|&s| s >= t && s < t + 1_000_000) {
            "  <- storm"
        } else {
            ""
        };
        println!(
            "  t = {:>4.0}s  {:>5.1} %{}",
            t as f64 / 1e6,
            rate * 100.0,
            marker
        );
    }
}
