//! Ablation (beyond the paper's figures): the µ chain of Section 4 versus the
//! MPro-style multi-predicate rank operator with minimal probing.
//!
//! The paper implements µ as the single-predicate special case of MPro
//! (Section 4.2).  This bench quantifies the difference between the two for
//! the same top-k answer over one table ranked by three predicates (one
//! served by the rank-scan, two expensive):
//!
//! * `µ_{f5}(µ_{f4}(rank-scan_{f3}))` — the paper's chain, and
//! * `MPro{f4, f5}(rank-scan_{f3})` — one operator probing lazily per tuple.
//!
//! Both produce the identical rank-relation; MPro's probe count is usually at
//! or slightly below the chain's, and the gap is small when (as here) the
//! input already arrives in rank order — the interesting output is how close
//! the two are, i.e. how little slack the paper's µ chain leaves on the
//! table.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ranksql_executor::{
    mpro::MProOp, operator::take, rank::RankOp, scan::RankScan, ExecutionContext, PhysicalOperator,
};
use ranksql_expr::{RankPredicate, RankingContext, ScalarExpr, ScoringFunction};
use ranksql_storage::{ScoreIndex, Table};
use ranksql_workload::{SyntheticConfig, SyntheticWorkload};

const PREDICATE_COST: u64 = 50;
const KS: [usize; 3] = [1, 10, 100];

fn table_and_ctx() -> (Arc<Table>, Arc<RankingContext>) {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        table_size: 20_000,
        join_selectivity: 0.002,
        predicate_cost: PREDICATE_COST,
        k: 10,
        ..SyntheticConfig::default()
    })
    .expect("workload");
    let b = workload.catalog.table("B").expect("table B");
    // A private three-predicate context over B, independent of the rest of
    // the join query: f3 = B.p1 (served by the rank-scan), f4 = B.p2 and
    // f5 = B.p1 · B.p2 both expensive.
    let ctx = RankingContext::new(
        vec![
            RankPredicate::attribute("f3", "B.p1"),
            RankPredicate::attribute_with_cost("f4", "B.p2", PREDICATE_COST),
            RankPredicate::expression(
                "f5",
                ScalarExpr::col("B.p1").mul(ScalarExpr::col("B.p2")),
                PREDICATE_COST,
            ),
        ],
        ScoringFunction::Sum,
    );
    (b, ctx)
}

fn fresh_ctx(ctx: &RankingContext) -> Arc<RankingContext> {
    RankingContext::new(ctx.predicates().to_vec(), ctx.scoring().clone())
}

fn mu_chain(
    table: &Arc<Table>,
    index: &Arc<ScoreIndex>,
    ctx: &Arc<RankingContext>,
) -> Box<dyn PhysicalOperator> {
    let exec = ExecutionContext::new(Arc::clone(ctx));
    let scan =
        RankScan::new(Arc::clone(table), Arc::clone(index), 0, &exec, "scan").expect("rank-scan");
    let mu_f4 = RankOp::new(Box::new(scan), 1, &exec, "mu_f4").expect("bind");
    Box::new(RankOp::new(Box::new(mu_f4), 2, &exec, "mu_f5").expect("bind"))
}

fn mpro(
    table: &Arc<Table>,
    index: &Arc<ScoreIndex>,
    ctx: &Arc<RankingContext>,
) -> Box<dyn PhysicalOperator> {
    let exec = ExecutionContext::new(Arc::clone(ctx));
    let scan =
        RankScan::new(Arc::clone(table), Arc::clone(index), 0, &exec, "scan").expect("rank-scan");
    Box::new(MProOp::new(Box::new(scan), vec![1, 2], &exec, "mpro").expect("bind"))
}

fn bench_mpro(c: &mut Criterion) {
    let (table, base_ctx) = table_and_ctx();
    // The rank-scan's score index is built once and shared: both operators see
    // the same access path, only the probe scheduling differs.
    let index = Arc::new(
        ScoreIndex::build(base_ctx.predicate(0), table.schema(), &table.scan()).expect("index"),
    );

    // One-off probe-count report per k (outside the timed loops).
    for &k in &KS {
        let ctx_chain = fresh_ctx(&base_ctx);
        let mut chain = mu_chain(&table, &index, &ctx_chain);
        let chain_answers = take(chain.as_mut(), k).expect("chain").len();
        let ctx_mpro = fresh_ctx(&base_ctx);
        let mut lazy = mpro(&table, &index, &ctx_mpro);
        let mpro_answers = take(lazy.as_mut(), k).expect("mpro").len();
        assert_eq!(chain_answers, mpro_answers);
        eprintln!(
            "k = {k:>4}: µ-chain expensive probes = {}, MPro expensive probes = {}",
            ctx_chain.counters().count(1) + ctx_chain.counters().count(2),
            ctx_mpro.counters().count(1) + ctx_mpro.counters().count(2)
        );
    }

    let mut group = c.benchmark_group("ablation_mpro");
    group.sample_size(10);
    for &k in &KS {
        group.bench_with_input(BenchmarkId::new("mu_chain", k), &k, |b, &k| {
            b.iter(|| {
                let ctx = fresh_ctx(&base_ctx);
                let mut op = mu_chain(&table, &index, &ctx);
                take(op.as_mut(), k).expect("chain").len()
            })
        });
        group.bench_with_input(BenchmarkId::new("mpro", k), &k, |b, &k| {
            b.iter(|| {
                let ctx = fresh_ctx(&base_ctx);
                let mut op = mpro(&table, &index, &ctx);
                take(op.as_mut(), k).expect("mpro").len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mpro);
criterion_main!(benches);
