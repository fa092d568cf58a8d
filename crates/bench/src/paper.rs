//! The paper's own evaluation: Figs. 1–3 and 7–16, on the simulator
//! substrate.  Each figure prints paper-style rows to stdout; run them
//! through [`crate::registry`].  `KAIROS_FIG_FAST=1` shortens the capacity
//! probes (see [`ExperimentContext::new`]).

use crate::figures::section;
use crate::{ExperimentContext, SchedulerKind};
use kairos_baselines::{
    best_oracle_throughput, oracle_throughput, BayesianOptimization, ConfigSearch,
    ExhaustiveSearch, GeneticSearch, RandomSearch, SearchSpace, SimulatedAnnealing,
};
use kairos_core::{kairos_plus_search, upper_bound_single, SingleAuxInputs, ThroughputEstimator};
use kairos_models::{best_homogeneous, Config, ModelKind, NoiseModel};
use kairos_workload::BatchSizeDistribution;

/// Fig. 1 — heterogeneous vs best homogeneous configurations for RM2 under a
/// fixed budget (three-type pool, Ribbon's FCFS distribution as in Sec. 4).
pub fn figure1() {
    section("Figure 1: heterogeneous vs homogeneous configurations (RM2, budget 2.5 $/hr)");
    let ctx = ExperimentContext::figure1(ModelKind::Rm2);
    let configs = vec![
        ("(4, 0, 0) homogeneous", Config::new(vec![4, 0, 0])),
        ("(3, 1, 3)", Config::new(vec![3, 1, 3])),
        ("(2, 0, 9)", Config::new(vec![2, 0, 9])),
        ("(1, 4, 2)", Config::new(vec![1, 4, 2])),
    ];
    println!(
        "{:<24}{:>12}{:>18}",
        "configuration", "cost $/hr", "throughput (QPS)"
    );
    // The four ramps are independent: fan them out over the cores.
    let candidates: Vec<Config> = configs.iter().map(|(_, c)| c.clone()).collect();
    let measured = ctx.measure_throughput_many(&candidates, SchedulerKind::Ribbon);
    for ((label, config), mut qps) in configs.into_iter().zip(measured) {
        let cost = config.cost(&ctx.pool);
        if config.is_homogeneous(&ctx.pool) {
            // The paper scales the homogeneous configuration's throughput up
            // proportionally to its unused budget.
            qps *= ctx.budget / cost;
        }
        println!("{label:<24}{cost:>12.3}{qps:>18.1}");
    }
}

/// Fig. 2 — simulated-annealing exploration: most explored configurations are
/// worse than the homogeneous baseline.
pub fn figure2() {
    section(
        "Figure 2: throughput gain over homogeneous while exploring with simulated annealing (RM2)",
    );
    let ctx = ExperimentContext::figure1(ModelKind::Rm2);
    let sample = ctx.sample(2500);
    let homo = best_homogeneous(&ctx.pool, ctx.budget);
    let homo_qps = oracle_throughput(&ctx.pool, &homo, ctx.model, &ctx.latency, &sample)
        * (ctx.budget / homo.cost(&ctx.pool));

    let space = SearchSpace::new(ctx.pool.clone(), ctx.budget);
    let mut eval = |c: &Config| oracle_throughput(&ctx.pool, c, ctx.model, &ctx.latency, &sample);
    let out = SimulatedAnnealing {
        seed: 4,
        ..Default::default()
    }
    .search(&space, &mut eval, 40);

    let mut worse = 0usize;
    println!(
        "{:<8}{:>16}{:>22}",
        "step", "explored config", "gain over homo (%)"
    );
    for (step, (config, qps)) in out.history.iter().enumerate() {
        let gain = (qps - homo_qps) / homo_qps * 100.0;
        if gain < 0.0 {
            worse += 1;
        }
        println!("{:<8}{:>16}{:>22.1}", step + 1, config.to_string(), gain);
    }
    println!(
        "--> {} of {} explored configurations are worse than homogeneous ({:.0} %)",
        worse,
        out.history.len(),
        worse as f64 / out.history.len() as f64 * 100.0
    );
}

/// Fig. 3 — the same configurations under different query-distribution
/// mechanisms (RIBBON / DRS / CLKWRK / ORCL).
pub fn figure3() {
    section("Figure 3: query-distribution mechanism matters (RM2)");
    let ctx = ExperimentContext::figure1(ModelKind::Rm2);
    let sample = ctx.sample(2500);
    let configs = vec![
        Config::new(vec![4, 0, 0]),
        Config::new(vec![2, 0, 9]),
        Config::new(vec![3, 1, 3]),
    ];
    println!(
        "{:<14}{:>10}{:>10}{:>10}{:>10}",
        "config", "RIBBON", "DRS", "CLKWRK", "ORCL"
    );
    // Uniform-scheduler columns sweep in parallel; the DRS column stays
    // per-config because its tuned threshold depends on the configuration.
    let ribbons = ctx.measure_throughput_many(&configs, SchedulerKind::Ribbon);
    let clkwrks = ctx.measure_throughput_many(&configs, SchedulerKind::Clockwork);
    for ((config, ribbon), clkwrk) in configs.iter().zip(ribbons).zip(clkwrks) {
        let drs = ctx.measure_throughput(config, SchedulerKind::Drs(ctx.drs_threshold(config)));
        let orcl = oracle_throughput(&ctx.pool, config, ctx.model, &ctx.latency, &sample);
        println!(
            "{:<14}{:>10.1}{:>10.1}{:>10.1}{:>10.1}",
            config.to_string(),
            ribbon,
            drs,
            clkwrk,
            orcl
        );
    }
}

/// Fig. 7 — the two worked upper-bound scenarios (exact numbers).
pub fn figure7() {
    section("Figure 7: upper-bound calculation scenarios");
    let s1 = SingleAuxInputs {
        base_nodes: 1,
        aux_nodes: 1,
        q_base: 100.0,
        q_base_splus: 90.0,
        q_aux: 150.0,
        fraction_small: 0.6,
    };
    let s2 = SingleAuxInputs {
        q_aux: 140.0,
        fraction_small: 0.7,
        ..s1
    };
    println!(
        "Scenario 1 (base bottleneck):      QPS_max = {:.0} (paper: 225)",
        upper_bound_single(&s1)
    );
    println!(
        "Scenario 2 (auxiliary bottleneck): QPS_max = {:.0} (paper: 233)",
        upper_bound_single(&s2)
    );
}

/// Fig. 8 — Kairos vs the optimal homogeneous configuration, all five models.
pub fn figure8() {
    section("Figure 8: Kairos vs optimal homogeneous (normalized throughput)");
    println!(
        "{:<10}{:>16}{:>18}{:>18}{:>12}",
        "model", "Kairos config", "Kairos QPS", "homogeneous QPS", "speedup"
    );
    for model in ModelKind::ALL {
        let ctx = ExperimentContext::new(model);
        let plan = ctx.kairos_plan();
        let kairos = ctx.measure_throughput(&plan.chosen, SchedulerKind::Kairos);
        let homo = ctx.best_homogeneous_throughput(SchedulerKind::Fcfs);
        println!(
            "{:<10}{:>16}{:>18.1}{:>18.1}{:>12.2}",
            model.to_string(),
            plan.chosen.to_string(),
            kairos,
            homo,
            kairos / homo.max(1e-9)
        );
    }
}

/// Fig. 9 — Kairos and Kairos+ vs RIBBON / DRS / CLKWRK / ORCL.
pub fn figure9() {
    section("Figure 9: throughput vs state-of-the-art (normalized to RIBBON)");
    println!(
        "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "model", "RIBBON", "DRS", "CLKWRK", "KAIROS", "KAIROS+", "ORCL"
    );
    for model in ModelKind::ALL {
        let ctx = ExperimentContext::new(model);
        let sample = ctx.sample(2500);
        let plan = ctx.kairos_plan();

        // Competing schemes are given the best configuration found by oracle
        // search, as in the paper's conservative setup.
        let configs: Vec<Config> = plan.ranked.iter().map(|(c, _)| c.clone()).collect();
        let (best_cfg, orcl) =
            best_oracle_throughput(&ctx.pool, &configs, model, &ctx.latency, &sample);
        let best_cfg = best_cfg.unwrap_or_else(|| plan.chosen.clone());

        let ribbon = ctx.measure_throughput(&best_cfg, SchedulerKind::Ribbon);
        let drs =
            ctx.measure_throughput(&best_cfg, SchedulerKind::Drs(ctx.drs_threshold(&best_cfg)));
        let clkwrk = ctx.measure_throughput(&best_cfg, SchedulerKind::Clockwork);
        let kairos = ctx.measure_throughput(&plan.chosen, SchedulerKind::Kairos);

        // Kairos+ refines the configuration with a few real evaluations.
        let plus = kairos_plus_search(
            &plan.ranked,
            |c| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample),
            Some(10),
        );
        let plus_cfg = plus.best_config.unwrap_or_else(|| plan.chosen.clone());
        let kairos_plus = ctx
            .measure_throughput(&plus_cfg, SchedulerKind::Kairos)
            .max(kairos);

        let norm = ribbon.max(1e-9);
        println!(
            "{:<10}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}",
            model.to_string(),
            1.0,
            drs / norm,
            clkwrk / norm,
            kairos / norm,
            kairos_plus / norm,
            orcl / norm
        );
    }
}

/// Fig. 10 / Fig. 11 — number of online evaluations needed to find the
/// optimal configuration, Kairos+ vs competing search algorithms (all with
/// sub-configuration pruning, oracle model as the expensive evaluator).
pub fn figure10_11() {
    section("Figures 10 & 11: online evaluations to reach the optimum (% of search space)");
    println!(
        "{:<10}{:>8}{:>10}{:>10}{:>10}{:>12}{:>10}",
        "model", "space", "KAIROS+", "RAND", "GENE", "RIBBON(BO)", "ANNEAL"
    );
    for model in ModelKind::ALL {
        let ctx = ExperimentContext::new(model);
        let sample = ctx.sample(2500);
        let plan = ctx.kairos_plan();
        let space = SearchSpace::new(ctx.pool.clone(), ctx.budget);
        let space_size = space.len();

        let oracle_eval =
            |c: &Config| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample);

        // Ground-truth optimum via exhaustive search.
        let mut eval = oracle_eval;
        let exhaustive = ExhaustiveSearch.search(&space, &mut eval, usize::MAX);
        let optimum = exhaustive.best.as_ref().unwrap().1;
        let target = optimum * 0.999;

        let plus = kairos_plus_search(&plan.ranked, oracle_eval, None);
        let plus_evals = plus
            .evaluated
            .iter()
            .position(|(_, v)| *v >= target)
            .map(|p| p + 1)
            .unwrap_or(plus.evaluations());

        let budget = space_size; // allow the baselines to run to exhaustion
        let mut eval = oracle_eval;
        let rand_out = RandomSearch { seed: 5 }.search(&space, &mut eval, budget);
        let mut eval = oracle_eval;
        let gene_out = GeneticSearch {
            seed: 5,
            ..Default::default()
        }
        .search(&space, &mut eval, budget);
        let mut eval = oracle_eval;
        let bo_out = BayesianOptimization {
            seed: 5,
            ..Default::default()
        }
        .search(&space, &mut eval, 60);
        let mut eval = oracle_eval;
        let sa_out = SimulatedAnnealing {
            seed: 5,
            ..Default::default()
        }
        .search(&space, &mut eval, budget);

        let pct = |n: Option<usize>, fallback: usize| {
            let n = n.unwrap_or(fallback);
            n as f64 / space_size as f64 * 100.0
        };
        println!(
            "{:<10}{:>8}{:>9.1}%{:>9.1}%{:>9.1}%{:>11.1}%{:>9.1}%",
            model.to_string(),
            space_size,
            plus_evals as f64 / space_size as f64 * 100.0,
            pct(
                rand_out.evaluations_to_reach(target),
                rand_out.evaluations()
            ),
            pct(
                gene_out.evaluations_to_reach(target),
                gene_out.evaluations()
            ),
            pct(bo_out.evaluations_to_reach(target), bo_out.evaluations()),
            pct(sa_out.evaluations_to_reach(target), sa_out.evaluations()),
        );
    }
}

/// Fig. 12 — transient behaviour when the batch-size distribution shifts from
/// log-normal to Gaussian: throughput of the configurations each scheme
/// evaluates during its search, vs Kairos's one-shot choice.
pub fn figure12() {
    section("Figure 12: reaction to a load change (RM2, log-normal -> Gaussian)");
    let mut ctx = ExperimentContext::new(ModelKind::Rm2);
    ctx.batch_sizes = BatchSizeDistribution::gaussian_default();
    let sample = ctx.sample(2500);
    let model = ctx.model;

    // Kairos replans in one shot from the new monitor window.
    let plan = ctx.kairos_plan();
    let kairos_now = oracle_throughput(&ctx.pool, &plan.chosen, model, &ctx.latency, &sample);

    // Competing schemes restart their searches and walk through configurations.
    let space = SearchSpace::new(ctx.pool.clone(), ctx.budget);
    let mut eval = |c: &Config| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample);
    let bo = BayesianOptimization {
        seed: 9,
        ..Default::default()
    }
    .search(&space, &mut eval, 20);
    let mut eval = |c: &Config| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample);
    let sa = SimulatedAnnealing {
        seed: 9,
        ..Default::default()
    }
    .search(&space, &mut eval, 20);
    let plus = kairos_plus_search(
        &plan.ranked,
        |c| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample),
        Some(20),
    );

    println!(
        "KAIROS one-shot configuration {} -> {:.1} QPS under the new mix",
        plan.chosen, kairos_now
    );
    println!(
        "KAIROS+ finished after {} evaluations -> {:.1} QPS",
        plus.evaluations(),
        plus.best_throughput
    );
    println!(
        "\n{:<8}{:>18}{:>18}{:>14}",
        "step", "RIBBON(BO) QPS", "ANNEALING QPS", "KAIROS QPS"
    );
    let steps = bo.history.len().max(sa.history.len()).min(20);
    for i in 0..steps {
        let bo_v = bo.history.get(i).map(|(_, v)| *v).unwrap_or(f64::NAN);
        let sa_v = sa.history.get(i).map(|(_, v)| *v).unwrap_or(f64::NAN);
        println!(
            "{:<8}{:>18.1}{:>18.1}{:>14.1}",
            i + 1,
            bo_v,
            sa_v,
            kairos_now
        );
    }
}

/// Fig. 13 — actual throughput of the top-20 configurations ranked by upper
/// bound; Kairos's pick is near-optimal.
pub fn figure13() {
    section("Figure 13: actual throughput of the top-20 upper-bound configurations");
    for model in ModelKind::ALL {
        let ctx = ExperimentContext::new(model);
        let sample = ctx.sample(2500);
        let plan = ctx.kairos_plan();
        let top: Vec<(Config, f64)> = plan.top(20).to_vec();
        let best_overall = plan
            .ranked
            .iter()
            .map(|(c, _)| oracle_throughput(&ctx.pool, c, model, &ctx.latency, &sample))
            .fold(f64::MIN, f64::max);

        println!("\n{model}: Kairos picked {} (marked *)", plan.chosen);
        println!(
            "{:<6}{:>14}{:>14}{:>22}",
            "rank", "UB (QPS)", "actual (QPS)", "% of best achievable"
        );
        for (rank, (config, ub)) in top.iter().enumerate() {
            let actual = oracle_throughput(&ctx.pool, config, model, &ctx.latency, &sample);
            let marker = if *config == plan.chosen { "*" } else { " " };
            println!(
                "{:<6}{:>14.1}{:>14.1}{:>21.1}%{}",
                rank + 1,
                ub,
                actual,
                actual / best_overall * 100.0,
                marker
            );
        }
    }
}

/// Fig. 14 — RM2 top-UB configurations under different distribution schemes,
/// with the upper bound and the oracle reference.
pub fn figure14() {
    section("Figure 14: co-design of configuration search and query distribution (RM2)");
    let ctx = ExperimentContext::new(ModelKind::Rm2);
    let sample = ctx.sample(2500);
    let plan = ctx.kairos_plan();
    let estimator = ThroughputEstimator::new(
        ctx.pool.clone(),
        ctx.model,
        ctx.latency.clone(),
        sample.clone(),
    );

    println!(
        "{:<6}{:<14}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "rank", "config", "RIBBON", "DRS", "CLKWRK", "KAIROS", "UB", "ORCL"
    );
    // The three uniform-scheduler columns are independent capacity ramps per
    // configuration: sweep each column in parallel.  DRS stays per-config
    // because its tuned threshold depends on the configuration.
    let top: Vec<Config> = plan.top(12).iter().map(|(c, _)| c.clone()).collect();
    let ribbons = ctx.measure_throughput_many(&top, SchedulerKind::Ribbon);
    let clkwrks = ctx.measure_throughput_many(&top, SchedulerKind::Clockwork);
    let kairoses = ctx.measure_throughput_many(&top, SchedulerKind::Kairos);
    for (rank, config) in top.iter().enumerate() {
        let drs = ctx.measure_throughput(config, SchedulerKind::Drs(ctx.drs_threshold(config)));
        let ub = estimator.estimate(config);
        let orcl = oracle_throughput(&ctx.pool, config, ctx.model, &ctx.latency, &sample);
        println!(
            "{:<6}{:<14}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}",
            rank + 1,
            config.to_string(),
            ribbons[rank],
            drs,
            clkwrks[rank],
            kairoses[rank],
            ub,
            orcl
        );
    }
}

/// Fig. 15 — robustness to a 4x budget and a 20 % higher QoS target.
pub fn figure15() {
    section("Figure 15: robustness to budget scale (4x) and relaxed QoS (+20 %)");
    println!(
        "{:<10}{:>22}{:>22}",
        "model", "4x budget speedup", "+20% QoS speedup"
    );
    for model in ModelKind::ALL {
        // (a) 4x budget.
        let mut ctx = ExperimentContext::new(model);
        ctx.budget = 10.0;
        let plan = ctx.kairos_plan();
        let kairos = ctx.measure_throughput(&plan.chosen, SchedulerKind::Kairos);
        let homo = ctx.best_homogeneous_throughput(SchedulerKind::Fcfs);
        let budget_speedup = kairos / homo.max(1e-9);

        // (b) QoS target 20 % higher (more relaxed).
        let mut ctx = ExperimentContext::new(model);
        let qos_scale = 1.2;
        for ty in ctx.pool.clone().types() {
            // Scale QoS by loosening every latency profile equivalently: the
            // simulator's QoS comes from the model spec, so instead we scale
            // the latency table down by 1/1.2 which is equivalent.
            let p = ctx.latency.expect(model, &ty.name);
            ctx.latency.insert(
                model,
                &ty.name,
                kairos_models::LatencyProfile::new(
                    p.intercept_ms / qos_scale,
                    p.slope_ms / qos_scale,
                ),
            );
        }
        let plan = ctx.kairos_plan();
        let kairos = ctx.measure_throughput(&plan.chosen, SchedulerKind::Kairos);
        let homo = ctx.best_homogeneous_throughput(SchedulerKind::Fcfs);
        let qos_speedup = kairos / homo.max(1e-9);

        println!(
            "{:<10}{:>22.2}{:>22.2}",
            model.to_string(),
            budget_speedup,
            qos_speedup
        );
    }
}

/// Fig. 16 — robustness to Gaussian batch sizes and 5 % latency noise.
pub fn figure16() {
    section("Figure 16: robustness to Gaussian batch sizes and latency noise");
    println!(
        "{:<10}{:>24}{:>24}",
        "model", "Gaussian-mix speedup", "5% noise speedup"
    );
    for model in ModelKind::ALL {
        // (a) Gaussian batch-size distribution.
        let mut ctx = ExperimentContext::new(model);
        ctx.batch_sizes = BatchSizeDistribution::gaussian_default();
        let plan = ctx.kairos_plan();
        let kairos = ctx.measure_throughput(&plan.chosen, SchedulerKind::Kairos);
        let homo = ctx.best_homogeneous_throughput(SchedulerKind::Fcfs);
        let gaussian_speedup = kairos / homo.max(1e-9);

        // (b) 5 % Gaussian white noise on service latency.
        let ctx = ExperimentContext::new(model);
        let plan = ctx.kairos_plan();
        let noisy = {
            let mut opts = ctx.capacity.clone();
            opts.batch_sizes = ctx.batch_sizes.clone();
            let service = kairos_sim::ServiceSpec::with_noise(
                model,
                ctx.latency.clone(),
                NoiseModel::Gaussian { std_fraction: 0.05 },
            );
            let kairos =
                kairos_sim::allowable_throughput(&ctx.pool, &plan.chosen, &service, &opts, || {
                    crate::scheduler_factory(SchedulerKind::Kairos, model, &ctx.latency)
                })
                .allowable_qps;
            let homo_cfg = best_homogeneous(&ctx.pool, ctx.budget);
            let homo =
                kairos_sim::allowable_throughput(&ctx.pool, &homo_cfg, &service, &opts, || {
                    crate::scheduler_factory(SchedulerKind::Fcfs, model, &ctx.latency)
                })
                .allowable_qps
                    * (ctx.budget / homo_cfg.cost(&ctx.pool));
            kairos / homo.max(1e-9)
        };
        println!(
            "{:<10}{:>24.2}{:>24.2}",
            model.to_string(),
            gaussian_speedup,
            noisy
        );
    }
}
