//! Comparing the three rank-aware plan-search strategies (Section 5):
//!
//! * the **two-dimensional dynamic program** of Figure 8 (exhaustive),
//! * the DP restricted by the **Figure 10 heuristics** (left-deep joins +
//!   greedy rank-metric scheduling of µ),
//! * the **Volcano/Cascades-style rule-based search**, in which the algebraic
//!   laws of Figure 5 act as transformation rules and physical join / access
//!   path choices act as implementation rules,
//!
//! against the ranking-blind traditional baseline.  For each strategy the
//! example prints the chosen plan, its estimated cost, the number of plans
//! the search considered, and the *actual* work done when the plan executes
//! (ranking-predicate evaluations and tuples scanned).
//!
//! Run with: `cargo run --example rule_based_optimizer --release`

use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{OptimizerConfig, PlanMode, RankOptimizer};

fn main() -> ranksql::Result<()> {
    // A scaled-down instance of the paper's synthetic workload (Section 6)
    // with moderately expensive ranking predicates so the plan choice
    // actually matters.
    // Costing in the rule-based search executes candidate plans over the
    // sample tables, and its seed set includes the canonical cross-product
    // plan — sample size drives the search cost cubically, so this example
    // keeps the tables small enough for the full mode comparison to finish
    // in seconds.
    let config = SyntheticConfig {
        table_size: 1_200,
        join_selectivity: 0.008,
        predicate_cost: 20,
        k: 10,
        ..SyntheticConfig::default()
    };
    println!(
        "workload: s = {} tuples per table, j = {}, c = {} unit costs, k = {}\n",
        config.table_size, config.join_selectivity, config.predicate_cost, config.k
    );
    let workload = SyntheticWorkload::generate(config)?;
    workload.build_indexes()?;
    // The chosen plans execute through the public cursor-backed engine.
    let db = workload.database()?;

    let modes = [
        ("traditional (ranking-blind)", PlanMode::Traditional),
        ("2-D DP, exhaustive (Fig. 8)", PlanMode::RankAwareExhaustive),
        ("2-D DP + heuristics (Fig. 10)", PlanMode::RankAware),
        ("rule-based (Volcano-style)", PlanMode::RankAwareRuleBased),
    ];

    for (label, mode) in modes {
        let optimizer = RankOptimizer::new(OptimizerConfig {
            mode,
            sample_ratio: 0.02,
            ..OptimizerConfig::default()
        });
        let chosen = optimizer.optimize(&workload.query, &workload.catalog)?;

        // Execute the chosen plan through `Database::execute_plan` (the
        // cursor-backed compatibility wrapper) and collect runtime metrics.
        let result = db.execute_plan(&workload.query, &chosen.plan)?;
        let scanned: u64 = result
            .metrics
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("Scan"))
            .map(|m| m.tuples_out())
            .sum();

        println!("=== {label} ===");
        println!(
            "plans considered: {}   estimated cost: {:.0}",
            chosen.stats.plans_considered,
            chosen.cost.value()
        );
        println!("{}", chosen.plan.explain(Some(&workload.query.ranking)));
        println!(
            "execution: {} results in {:.1} ms, {} predicate evaluations, {} tuples scanned\n",
            result.rows.len(),
            result.elapsed.as_secs_f64() * 1e3,
            result.total_predicate_evaluations(),
            scanned
        );
    }

    println!(
        "All four strategies return the same top-k (the algebra guarantees equivalence); the \
         rank-aware searches find pipelined plans that evaluate far fewer expensive predicates \
         than the traditional materialise-then-sort plan."
    );
    Ok(())
}
