//! A naive, obviously-correct evaluator used as the correctness oracle.
//!
//! `oracle_top_k` evaluates a [`RankQuery`] exactly as the canonical form of
//! Eq. 1 prescribes — full Cartesian product, filter, evaluate every ranking
//! predicate, sort, cut off at `k` — without going through the physical
//! operators.  Tests compare every physical plan and every optimizer choice
//! against it; the sampling-based cardinality estimator also reuses it to run
//! queries over table samples.

use ranksql_algebra::RankQuery;
use ranksql_common::{Result, Schema, Tuple};
use ranksql_expr::{RankedTuple, ScoreState};
use ranksql_storage::Catalog;

/// Executes `query` naively over full tables and returns the top `k` ranked
/// tuples (ties broken by tuple identity, like everywhere else).
///
/// Ranking predicates are evaluated directly (bypassing the shared evaluation
/// counters) so the oracle does not disturb the metrics under test.
pub fn oracle_top_k(query: &RankQuery, catalog: &Catalog) -> Result<Vec<RankedTuple>> {
    let tables: Vec<_> = query
        .tables
        .iter()
        .map(|name| catalog.table(name))
        .collect::<Result<Vec<_>>>()?;
    let scans: Vec<Vec<Tuple>> = tables.iter().map(|t| t.scan()).collect();
    let schema = tables
        .iter()
        .map(|t| t.schema().clone())
        .reduce(|a, b| a.join(&b))
        .unwrap_or_else(Schema::empty);
    oracle_top_k_over_rows(query, &schema, &scans)
}

/// The same oracle, but over externally supplied row sets (one per query
/// table, in query-table order).  Used by the sampling-based estimator to run
/// the query over table *samples*.
pub fn oracle_top_k_over_rows(
    query: &RankQuery,
    schema: &Schema,
    rows_per_table: &[Vec<Tuple>],
) -> Result<Vec<RankedTuple>> {
    assert_eq!(
        rows_per_table.len(),
        query.tables.len(),
        "one row set per query table is required"
    );
    // Bind Boolean predicates once against the product schema.
    let bound: Vec<_> = query
        .bool_predicates
        .iter()
        .map(|p| p.bind(schema))
        .collect::<Result<Vec<_>>>()?;
    let n = query.num_rank_predicates();
    let ranking: Vec<_> = query
        .ranking
        .predicates()
        .iter()
        .map(|p| p.bind(schema))
        .collect::<Result<Vec<_>>>()?;

    let mut results: Vec<RankedTuple> = Vec::new();
    let mut stack: Vec<Tuple> = Vec::new();
    product(
        rows_per_table,
        0,
        &mut stack,
        &mut |joined: &Tuple| -> Result<()> {
            for b in &bound {
                if !b.eval(joined)? {
                    return Ok(());
                }
            }
            let mut state = ScoreState::new(n);
            for (i, p) in ranking.iter().enumerate() {
                state.set(i, p.evaluate(joined)?.value());
            }
            results.push(RankedTuple::new(joined.clone(), state));
            Ok(())
        },
    )?;

    let scoring = query.ranking.scoring().clone();
    let max_value = query.ranking.max_predicate_value();
    results.sort_by(|a, b| a.cmp_desc(b, &scoring, max_value));
    results.truncate(query.k);
    Ok(results)
}

fn product(
    rows_per_table: &[Vec<Tuple>],
    depth: usize,
    stack: &mut Vec<Tuple>,
    visit: &mut dyn FnMut(&Tuple) -> Result<()>,
) -> Result<()> {
    if depth == rows_per_table.len() {
        let joined = stack
            .iter()
            .cloned()
            .reduce(|a, b| a.join(&b))
            .expect("queries have at least one table");
        return visit(&joined);
    }
    for t in &rows_per_table[depth] {
        stack.push(t.clone());
        product(rows_per_table, depth + 1, stack, visit)?;
        stack.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Score, Value};
    use ranksql_expr::{BoolExpr, RankPredicate, RankingContext, ScoringFunction};

    fn setup() -> (Catalog, RankQuery) {
        let cat = Catalog::new();
        let r = cat
            .create_table(
                "R",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p1", DataType::Float64),
                ]),
            )
            .unwrap();
        let s = cat
            .create_table(
                "S",
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("p2", DataType::Float64),
                ]),
            )
            .unwrap();
        for (a, p) in [(1, 0.9), (2, 0.8), (3, 0.7)] {
            r.insert(vec![Value::from(a), Value::from(p)]).unwrap();
        }
        for (a, p) in [(1, 0.5), (1, 0.4), (3, 0.95), (4, 1.0)] {
            s.insert(vec![Value::from(a), Value::from(p)]).unwrap();
        }
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "S.p2"),
            ],
            ScoringFunction::Sum,
        );
        let query = RankQuery::new(
            vec!["R".into(), "S".into()],
            vec![BoolExpr::col_eq_col("R.a", "S.a")],
            ranking,
            2,
        );
        (cat, query)
    }

    #[test]
    fn oracle_returns_correct_top_k() {
        let (cat, query) = setup();
        let top = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(top.len(), 2);
        // Join results: (1,0.9,1,0.5)=1.4, (1,0.9,1,0.4)=1.3, (3,0.7,3,0.95)=1.65.
        let s0 = query.ranking.upper_bound(&top[0].state);
        let s1 = query.ranking.upper_bound(&top[1].state);
        assert_eq!(s0, Score::new(1.65));
        assert_eq!(s1, Score::new(1.4));
    }

    #[test]
    fn oracle_respects_k_larger_than_results() {
        let (cat, mut query) = setup();
        query.k = 100;
        let all = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(all.len(), 3);
        // Non-increasing scores.
        for w in all.windows(2) {
            assert!(
                query.ranking.upper_bound(&w[0].state) >= query.ranking.upper_bound(&w[1].state)
            );
        }
    }

    #[test]
    fn oracle_does_not_touch_eval_counters() {
        let (cat, query) = setup();
        let _ = oracle_top_k(&query, &cat).unwrap();
        assert_eq!(query.ranking.counters().total(), 0);
    }

    #[test]
    fn oracle_over_explicit_rows_matches_full_oracle() {
        let (cat, query) = setup();
        let rows: Vec<Vec<Tuple>> = query
            .tables
            .iter()
            .map(|t| cat.table(t).unwrap().scan())
            .collect();
        let schema = cat
            .table("R")
            .unwrap()
            .schema()
            .join(cat.table("S").unwrap().schema());
        let a = oracle_top_k(&query, &cat).unwrap();
        let b = oracle_top_k_over_rows(&query, &schema, &rows).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tuple.id(), y.tuple.id());
        }
    }
}
