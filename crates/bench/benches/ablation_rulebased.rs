//! Ablation (beyond the paper's figures): the Volcano/Cascades-style
//! rule-based search versus the two-dimensional dynamic program — plan search
//! time, number of plans considered, and quality (estimated cost and actual
//! predicate-evaluation work) of the chosen plan.
//!
//! The paper argues (Section 5) that rule-based optimizers absorb the
//! rank-relational algebra "for free" by registering the Figure 5 laws as
//! transformation rules, while bottom-up optimizers need the dedicated
//! two-dimensional enumeration; this bench quantifies the trade-off on the
//! Section 6 synthetic workload.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_executor::execute_query_plan;
use ranksql_optimizer::{
    CostModel, DpOptimizer, OptimizedPlan, RuleBasedConfig, RuleBasedOptimizer, SamplingEstimator,
};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

const STRATEGIES: [&str; 4] = [
    "dp_exhaustive",
    "dp_heuristic",
    "rule_based",
    "rule_based_small_budget",
];

fn optimize_with(
    strategy: &str,
    workload: &SyntheticWorkload,
    estimator: &Arc<SamplingEstimator>,
) -> OptimizedPlan {
    match strategy {
        "dp_exhaustive" => DpOptimizer::new(
            &workload.query,
            &workload.catalog,
            estimator,
            CostModel::default(),
            false,
        )
        .optimize()
        .expect("plan"),
        "dp_heuristic" => DpOptimizer::new(
            &workload.query,
            &workload.catalog,
            estimator,
            CostModel::default(),
            true,
        )
        .optimize()
        .expect("plan"),
        "rule_based" => RuleBasedOptimizer::new(
            &workload.query,
            &workload.catalog,
            Arc::clone(estimator),
            CostModel::default(),
        )
        .optimize()
        .expect("plan"),
        "rule_based_small_budget" => RuleBasedOptimizer::new(
            &workload.query,
            &workload.catalog,
            Arc::clone(estimator),
            CostModel::default(),
        )
        .with_config(RuleBasedConfig {
            max_plans: 300,
            max_costed: 60,
        })
        .optimize()
        .expect("plan"),
        other => unreachable!("unknown strategy {other}"),
    }
}

fn bench_rulebased(c: &mut Criterion) {
    let config = SyntheticConfig {
        table_size: 1_500,
        join_selectivity: 0.01,
        predicate_cost: 20,
        k: 10,
        ..SyntheticConfig::default()
    };
    let workload = SyntheticWorkload::generate(config).expect("workload");
    workload.build_indexes().expect("indexes");
    let estimator = Arc::new(
        SamplingEstimator::build(&workload.query, &workload.catalog, 0.02, 1).expect("estimator"),
    );

    // One-off report: chosen-plan quality of each strategy (estimated cost and
    // the real work its plan does when executed).
    for strategy in STRATEGIES {
        let chosen = optimize_with(strategy, &workload, &estimator);
        workload.query.ranking.counters().reset();
        let result = execute_query_plan(&workload.query, &chosen.plan, &workload.catalog)
            .expect("execution");
        eprintln!(
            "{strategy}: {} plans considered, estimated cost {:.0}, {} predicate evaluations, \
             {} results",
            chosen.stats.plans_considered,
            chosen.cost.value(),
            result.total_predicate_evaluations(),
            result.tuples.len()
        );
    }

    // Timed comparison of the searches themselves.
    let mut group = c.benchmark_group("ablation_rulebased");
    group.sample_size(10);
    for strategy in STRATEGIES {
        group.bench_with_input(
            BenchmarkId::new("search", strategy),
            &strategy,
            |b, strategy| {
                b.iter(|| {
                    optimize_with(strategy, &workload, &estimator)
                        .stats
                        .plans_considered
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rulebased);
criterion_main!(benches);
