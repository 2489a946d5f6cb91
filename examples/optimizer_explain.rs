//! A tour of the rank-aware optimizer: the two-dimensional plan enumeration
//! of Example 5 / Figure 9, the Figure 10 heuristics, and the
//! sampling-based cardinality estimator of Section 5.2.
//!
//! Run with: `cargo run --example optimizer_explain --release`

use ranksql::optimizer::{CostModel, DpOptimizer, SamplingEstimator};
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{OptimizerConfig, PlanMode, RankQuery};
use ranksql_optimizer::RankOptimizer;

fn main() -> ranksql::Result<()> {
    // A scaled-down instance of the paper's synthetic workload (Section 6).
    let config = SyntheticConfig {
        table_size: 5_000,
        join_selectivity: 0.002,
        predicate_cost: 5,
        k: 10,
        ..SyntheticConfig::default()
    };
    println!(
        "workload: s = {} tuples/table, j = {}, c = {}, k = {}",
        config.table_size, config.join_selectivity, config.predicate_cost, config.k
    );
    let workload = SyntheticWorkload::generate(config)?;
    let query: &RankQuery = &workload.query;

    // ------------------------------------------------------------------
    // 1. The sampling-based cardinality estimator.
    // ------------------------------------------------------------------
    let estimator = SamplingEstimator::build(query, &workload.catalog, 0.02, 7)?;
    println!(
        "\nsampling estimator: 2% sample, estimated k-th score x' = {}",
        estimator.x_threshold()
    );
    let a = workload.catalog.table("A")?;
    let rank_scan = ranksql::LogicalPlan::rank_scan(&a, 0);
    let seq_scan = ranksql::LogicalPlan::scan(&a);
    println!(
        "estimated cardinality of SeqScan(A)      = {:.0} (table has {})",
        estimator.estimate_cardinality(&seq_scan)?,
        a.row_count()
    );
    println!(
        "estimated cardinality of RankScan_f1(A)  = {:.0}  <- k-aware: only tuples that can reach the top-k",
        estimator.estimate_cardinality(&rank_scan)?
    );

    // ------------------------------------------------------------------
    // 2. Exhaustive vs heuristic two-dimensional enumeration.
    // ------------------------------------------------------------------
    for heuristic in [false, true] {
        let dp = DpOptimizer::new(
            query,
            &workload.catalog,
            &estimator,
            CostModel::default(),
            heuristic,
        );
        let plan = dp.optimize()?;
        println!(
            "\n==== {} enumeration ====",
            if heuristic {
                "heuristic (left-deep + rank metric)"
            } else {
                "exhaustive 2-D"
            }
        );
        println!(
            "plans considered: {}, signatures kept: {}, enumeration time: {:?}",
            plan.stats.plans_considered, plan.stats.signatures_kept, plan.stats.elapsed
        );
        println!(
            "sample operators run: {}, sample rows emitted: {}",
            plan.stats.operator_runs, plan.stats.sample_rows
        );
        println!("estimated cost: {:.1}", plan.cost.value());
        println!("{}", plan.plan.explain(Some(&query.ranking)));
    }

    // ------------------------------------------------------------------
    // 3. The full optimizer entry point, including the traditional baseline.
    // ------------------------------------------------------------------
    for mode in [PlanMode::Traditional, PlanMode::RankAware] {
        let optimizer = RankOptimizer::new(OptimizerConfig {
            mode,
            sample_ratio: 0.02,
            ..OptimizerConfig::default()
        });
        let optimized = optimizer.optimize(query, &workload.catalog)?;
        println!("\n==== RankOptimizer, mode {mode:?} ====");
        println!("estimated cost {:.1}", optimized.cost.value());
        println!("{}", optimized.plan.explain(Some(&query.ranking)));
    }

    // ------------------------------------------------------------------
    // 4. The same comparison through the public Session surface: sessions
    //    carry the plan mode, `explain` shows what a caller would run, and
    //    repeated prepared executions hit the database's plan cache.
    // ------------------------------------------------------------------
    let db = workload.database()?;
    for mode in [ranksql::PlanMode::Traditional, ranksql::PlanMode::RankAware] {
        let session = db.session().with_mode(mode);
        println!("\n==== Session explain, mode {mode:?} ====");
        println!("{}", session.explain(query)?);
        let prepared = session.prepare_query(query.clone())?;
        let cold = prepared.execute()?;
        let hot = prepared.execute()?;
        assert_eq!(cold.scores(), hot.scores());
        println!(
            "prepared twice: first binding {}, second binding {}",
            if cold.plan_cache.map(|c| c.hit).unwrap_or(false) {
                "hit"
            } else {
                "missed (optimized + cached)"
            },
            if hot.plan_cache.map(|c| c.hit).unwrap_or(false) {
                "hit the cache"
            } else {
                "missed"
            },
        );
    }
    let stats = db.plan_cache_stats();
    println!(
        "\nplan cache: {} hits, {} misses, {} cached shapes",
        stats.hits, stats.misses, stats.entries
    );
    Ok(())
}
