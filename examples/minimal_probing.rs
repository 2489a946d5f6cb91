//! Minimal probing: scheduling expensive ranking predicates lazily.
//!
//! Section 4.2 of the paper implements the rank operator µ as the
//! single-predicate special case of the middleware MPro algorithm.  This
//! example compares three ways of answering the same top-k query when the
//! ranking predicates are expensive (imagine each predicate being a remote
//! call to a web source):
//!
//! * the **naive materialise-then-sort** scheme — every expensive predicate
//!   is evaluated for every hotel before anything can be sorted,
//! * the paper's **µ chain** — `µ_location(µ_review(rank-scan_price(Hotel)))`
//!   — where each µ evaluates its predicate for every tuple that reaches its
//!   stage, and
//! * the **MPro operator** — one operator responsible for both expensive
//!   predicates that probes them only when a hotel actually competes for the
//!   next output slot.
//!
//! The two rank-aware strategies emit the identical rank-relation (same
//! hotels, same order) while evaluating an order of magnitude fewer expensive
//! predicates than the naive scheme; MPro's probe count stays at or slightly
//! below the chain's (the difference is small when, as here, the input
//! already arrives in rank order — the probes both strategies perform are
//! mostly *necessary* ones).  The example also demonstrates the incremental
//! execution model:
//! results are drawn one at a time and the probe counter grows with `k`, not
//! with the table size.
//!
//! Run with: `cargo run --example minimal_probing --release`

use std::sync::Arc;

use ranksql::common::{DataType, Field, Schema, Value};
use ranksql::executor::mpro::MProOp;
use ranksql::executor::operator::take;
use ranksql::executor::rank::RankOp;
use ranksql::executor::scan::RankScan;
use ranksql::executor::{ExecutionContext, PhysicalOperator};
use ranksql::expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql::storage::{ScoreIndex, Table, TableBuilder};

/// Simulated per-evaluation cost of the "review sentiment" and "location"
/// predicates (e.g. an HTTP round-trip to a review site / a geo service).
const EXPENSIVE_PREDICATE_COST: u64 = 200;
const HOTELS: usize = 5_000;

fn hotel_table() -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("cheapness", DataType::Float64),
        Field::new("review", DataType::Float64),
        Field::new("location", DataType::Float64),
    ])
    .qualify_all("Hotel");
    let mut builder = TableBuilder::new("Hotel", schema);
    for i in 0..HOTELS as i64 {
        // Deterministic pseudo-random scores in [0, 1].
        let cheapness = ((i * 7919 + 13) % 10_000) as f64 / 10_000.0;
        let review = ((i * 104_729 + 7) % 10_000) as f64 / 10_000.0;
        let location = ((i * 15_485_863 + 3) % 10_000) as f64 / 10_000.0;
        builder = builder.row(vec![
            Value::from(i),
            Value::from(cheapness),
            Value::from(review),
            Value::from(location),
        ]);
    }
    Arc::new(builder.build(0).expect("hotel table"))
}

fn ranking() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            // The price predicate is cheap (it is backed by a score index).
            RankPredicate::attribute("cheap", "Hotel.cheapness"),
            // The review and location predicates are expensive to evaluate.
            RankPredicate::attribute_with_cost("review", "Hotel.review", EXPENSIVE_PREDICATE_COST),
            RankPredicate::attribute_with_cost(
                "location",
                "Hotel.location",
                EXPENSIVE_PREDICATE_COST,
            ),
        ],
        ScoringFunction::Sum,
    )
}

fn build_chain(
    table: &Arc<Table>,
    index: &Arc<ScoreIndex>,
    ctx: &Arc<RankingContext>,
) -> Box<dyn PhysicalOperator> {
    let exec = ExecutionContext::new(Arc::clone(ctx));
    let scan = RankScan::new(
        Arc::clone(table),
        Arc::clone(index),
        0,
        &exec,
        "rank-scan(cheap)",
    )
    .expect("rank-scan");
    let mu_review = RankOp::new(Box::new(scan), 1, &exec, "mu(review)").expect("bind");
    Box::new(RankOp::new(Box::new(mu_review), 2, &exec, "mu(location)").expect("bind"))
}

fn build_mpro(
    table: &Arc<Table>,
    index: &Arc<ScoreIndex>,
    ctx: &Arc<RankingContext>,
) -> Box<dyn PhysicalOperator> {
    let exec = ExecutionContext::new(Arc::clone(ctx));
    let scan = RankScan::new(
        Arc::clone(table),
        Arc::clone(index),
        0,
        &exec,
        "rank-scan(cheap)",
    )
    .expect("rank-scan");
    Box::new(MProOp::new(Box::new(scan), vec![1, 2], &exec, "mpro(review,location)").expect("bind"))
}

fn main() -> ranksql::Result<()> {
    let table = hotel_table();
    let base_ctx = ranking();
    let index = Arc::new(ScoreIndex::build(
        base_ctx.predicate(0),
        table.schema(),
        &table.scan(),
    )?);

    println!(
        "{} hotels ranked by cheapness + review + location; review and location cost {} units per call\n",
        HOTELS, EXPENSIVE_PREDICATE_COST
    );
    // The naive materialise-then-sort plan evaluates both expensive
    // predicates for every hotel, regardless of k.
    let naive_probes = 2 * HOTELS as u64;
    println!(
        "{:>6}  {:>14}  {:>16}  {:>14}  {:>16}",
        "k", "naive probes", "µ-chain probes", "MPro probes", "saved vs naive"
    );

    for k in [1usize, 5, 10, 50, 200] {
        // A fresh ranking context per run so each strategy's evaluation
        // counters are independent.
        let ctx_chain =
            RankingContext::new(base_ctx.predicates().to_vec(), base_ctx.scoring().clone());
        let mut chain = build_chain(&table, &index, &ctx_chain);
        let chain_top = take(chain.as_mut(), k)?;

        let ctx_mpro =
            RankingContext::new(base_ctx.predicates().to_vec(), base_ctx.scoring().clone());
        let mut lazy = build_mpro(&table, &index, &ctx_mpro);
        let mpro_top = take(lazy.as_mut(), k)?;

        // Same answer, in the same order.
        assert_eq!(chain_top.len(), mpro_top.len());
        for (a, b) in chain_top.iter().zip(mpro_top.iter()) {
            assert_eq!(a.tuple.id(), b.tuple.id());
        }

        let chain_probes = ctx_chain.counters().count(1) + ctx_chain.counters().count(2);
        let mpro_probes = ctx_mpro.counters().count(1) + ctx_mpro.counters().count(2);
        println!(
            "{:>6}  {:>14}  {:>16}  {:>14}  {:>15.0}%",
            k,
            naive_probes,
            chain_probes,
            mpro_probes,
            100.0 * (1.0 - mpro_probes as f64 / naive_probes as f64)
        );
    }

    // Incremental consumption through the public Session/Cursor API: the
    // top hotel is available after probing only a handful of reviews — no
    // materialisation, no full sort — and `fetch_more` keeps extending the
    // top-k from where the operators stopped.
    let db = ranksql::Database::new();
    db.create_table(
        "Hotel",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("cheapness", DataType::Float64),
            Field::new("review", DataType::Float64),
            Field::new("location", DataType::Float64),
        ]),
    )?;
    db.insert_batch(
        "Hotel",
        table.scan().into_iter().map(|t| t.values().to_vec()),
    )?;
    let query = ranksql::QueryBuilder::new()
        .table("Hotel")
        .rank_predicate(RankPredicate::attribute("cheap", "Hotel.cheapness"))
        .rank_predicate(RankPredicate::attribute_with_cost(
            "review",
            "Hotel.review",
            EXPENSIVE_PREDICATE_COST,
        ))
        .rank_predicate(RankPredicate::attribute_with_cost(
            "location",
            "Hotel.location",
            EXPENSIVE_PREDICATE_COST,
        ))
        .limit(3)
        .build()?;
    let session = db.session();
    let before = query.ranking.counters().snapshot();
    let mut cursor = session
        .prepare_query(query.clone())?
        .bind(ranksql::Params::none())?
        .cursor()?;
    let first = cursor.next()?.expect("at least one hotel");
    let after = query.ranking.counters().snapshot();
    println!(
        "\nfirst result (hotel {}) streamed through a Cursor after {} expensive probes out of {} hotels",
        first.tuple.value(0),
        (after[1] - before[1]) + (after[2] - before[2]),
        HOTELS
    );
    let _rest = cursor.drain()?;
    let extension = cursor.fetch_more(3)?;
    println!(
        "fetch_more(3) extended the top-{} to {} hotels by resuming the incremental operators",
        query.k,
        cursor.rows_emitted()
    );
    assert_eq!(extension.len(), 3);
    Ok(())
}
