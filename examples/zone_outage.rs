//! Surviving a zone outage: the failure-domain spread constraint versus a
//! domain-blind plan.
//!
//! The offering catalog places the paper's hardware menu in two availability
//! zones; zone-b aux capacity costs 2 % more, so an unconstrained cost-ranked
//! plan concentrates in zone a.  Mid-run, zone a goes dark: every instance
//! there gets a 200 ms notice, then dies, and purchases into the zone are
//! rejected until the outage lifts.  The *domain-aware* loop plans under a
//! `max_fraction_per_domain` spread constraint, so half the fleet (including
//! a GPU) survives in zone b; the *domain-blind* loop runs the identical
//! fault replans and purchase backoff but concentrated its fleet, so the
//! outage wipes nearly all of it.
//!
//! Run with:
//! ```text
//! cargo run --release --example zone_outage
//! ```

use kairos::prelude::*;
use std::sync::Arc;

fn main() {
    let model = ModelKind::Rm2;
    let latency = paper_calibration();
    let service = ServiceSpec::new(model, latency.clone());

    // Two zones, same hardware menu.  GPU pricing is near-uniform across
    // zones (the 0.1 % epsilon only breaks cost ties toward zone a); the
    // zone-b aux premium is what pushes a cost-only plan into one zone.
    let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
    let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
    let mut gpu_b = ec2::g4dn_xlarge();
    gpu_b.is_base = false;
    gpu_b.price_per_hour *= 1.001;
    let mut aux_b = ec2::r5n_large();
    aux_b.price_per_hour *= 1.02;
    let catalog = OfferingCatalog::new(vec![
        Offering::on_demand(ec2::g4dn_xlarge()).in_domain(zone_a.clone()),
        Offering::on_demand(ec2::r5n_large()).in_domain(zone_a.clone()),
        Offering::on_demand(gpu_b).in_domain(zone_b.clone()),
        Offering::on_demand(aux_b).in_domain(zone_b.clone()),
    ]);
    let market = Arc::new(TraceMarket::new(catalog.clone()));
    println!("Offering catalog:");
    for (i, offering) in catalog.offerings().iter().enumerate() {
        println!(
            "  [{i}] {:<18} {:>7.4} $/hr  in {}",
            offering.label(),
            offering.price_at(0),
            offering.placement
        );
    }

    // Zone a goes down at 3.2 s for 2 s: notice -> drain -> kill on every
    // zone-a instance, purchases into the zone rejected for the window.
    let outage_start_us = 3_200_000;
    let outage_len_us = 2_000_000;
    let process = FaultProcess::new(vec![FaultEvent::ZoneOutage {
        domain: zone_a.clone(),
        start_us: outage_start_us,
        duration_us: outage_len_us,
    }]);
    let trace = TraceSpec::production(60.0, 8.0, 7).generate();
    println!(
        "\nWorkload: {} queries at 60 QPS over 8 s; {} dark from 3.2 s to 5.2 s\n",
        trace.len(),
        zone_a
    );

    let options = ServingOptions::default()
        .budget(2.6)
        .replan_every(500_000)
        .provisioning_delay(400_000);

    let mut results = Vec::new();
    for (label, spread) in [("domain-aware", Some(0.5)), ("domain-blind", None)] {
        let opts = match spread {
            Some(fraction) => options.spread_limit(fraction),
            None => options,
        };
        let mut system = ServingSystem::with_market(
            catalog.clone(),
            market.clone(),
            model,
            Some(latency.clone()),
            opts,
        )
        .with_fault_process(process.clone());
        system.warm_monitor(&BatchSizeDistribution::production_default(), 2_000, 7);
        let initial = system.plan_for_demand(60.0).expect("prior knowledge");
        println!("{label}: initial deployment {initial}");
        let outcome = system.run(&initial, &service, &trace);
        for r in &outcome.reconfigs {
            println!(
                "  t = {:>5.2}s  [{:?}] demand {:>6.1} QPS -> {}, +{} / -{} instances",
                r.at_us as f64 / 1e6,
                r.trigger,
                r.demand_qps,
                r.target,
                r.added_types.len(),
                r.retired_instances.len()
            );
        }
        results.push((label, outcome));
    }

    println!(
        "\n{:<16}{:>14}{:>14}{:>14}{:>9}{:>7}",
        "scheme", "violations %", "billed $/hr", "recover (ms)", "killed", "lost"
    );
    for (label, outcome) in &results {
        let report = &outcome.report;
        // Time-to-recover: first 250 ms bucket from the outage onset after
        // which the violation rate stays within 20 % (about twice this
        // workload's steady-state noise) through the end of the run.
        let recover = report
            .outage_recoveries(250_000, 0.2)
            .first()
            .and_then(|(_, t)| *t)
            .map(|t| format!("{:.0}", t as f64 / 1000.0))
            .unwrap_or_else(|| "never".into());
        println!(
            "{:<16}{:>14.2}{:>14.3}{:>14}{:>9}{:>7}",
            label,
            report.violation_fraction() * 100.0,
            report.billed_cost_per_hour(),
            recover,
            report
                .outages
                .iter()
                .map(|o| o.killed_instances)
                .sum::<usize>(),
            report.outages.iter().map(|o| o.lost_queries).sum::<usize>()
        );
    }
}
