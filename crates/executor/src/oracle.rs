//! A naive, obviously-correct evaluator used as the correctness oracle.
//!
//! `oracle_top_k` evaluates a [`RankQuery`] as the canonical form of Eq. 1
//! prescribes — product, filter, evaluate every ranking predicate, sort, cut
//! off at `k` — without going through the physical operators.  Tests compare
//! every physical plan and every optimizer choice against it; the
//! sampling-based cardinality estimator also uses it to find `x'` over the
//! table samples.
//!
//! The product is a plain nested loop over the tables in query order that
//! checks each Boolean conjunct at the shallowest level where every table it
//! reads is bound, so a failing prefix is never extended and the full
//! Cartesian product is never built.  It does no hashing and returns exactly
//! the filtered full product's sorted top-k.  One difference is observable:
//! a conjunct that fails to *evaluate* raises its error on the first prefix
//! that reaches it, where filtering whole product tuples in conjunct order
//! could have rejected that tuple on an earlier conjunct first.

use ranksql_algebra::RankQuery;
use ranksql_common::{RankSqlError, Result, Schema, Tuple};
use ranksql_expr::{BoundBoolExpr, RankedTuple, ScoreState};
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
    let scans = tables
        .iter()
        .map(|t| {
            let epoch = t.pin_epoch();
            epoch.tuples(0..epoch.row_count())
        })
        .collect::<Result<Vec<_>>>()?;
    let schema = tables
        .iter()
        .map(|t| t.schema().clone())
        .reduce(|a, b| a.join(&b))
        .unwrap_or_else(Schema::empty);
    oracle_top_k_over_rows(query, &schema, &scans)
}

/// The same oracle, but over externally supplied row sets (one per query
/// table, in query-table order, whose schemas joined in that order are
/// `schema`).  Used by the sampling-based estimator to run the query over
/// table *samples*.
pub fn oracle_top_k_over_rows<R: AsRef<[Tuple]>>(
    query: &RankQuery,
    schema: &Schema,
    rows_per_table: &[R],
) -> Result<Vec<RankedTuple>> {
    if rows_per_table.len() != query.tables.len() {
        return Err(RankSqlError::Execution(format!(
            "the oracle needs one row set per query table: {} for {} tables",
            rows_per_table.len(),
            query.tables.len()
        )));
    }
    let Some(last) = rows_per_table.len().checked_sub(1) else {
        return Ok(Vec::new());
    };
    // Bind every Boolean conjunct once against the product schema and file
    // it under the level where its last table is bound.  A conjunct that
    // names no table, or reads an unqualified column, waits for the full
    // product.
    let mut checks: Vec<Vec<BoundBoolExpr>> = vec![Vec::new(); rows_per_table.len()];
    for p in &query.bool_predicates {
        let bound = p.bind(schema)?;
        let level = if p.columns().iter().any(|c| c.relation.is_none()) {
            last
        } else {
            query.bool_predicate_tables(p)?.iter().max().unwrap_or(last)
        };
        checks[level].push(bound);
    }
    let n = query.num_rank_predicates();
    let ranking: Vec<_> = query
        .ranking
        .predicates()
        .iter()
        .map(|p| p.bind(schema))
        .collect::<Result<Vec<_>>>()?;

    // At most `2k` candidates are held: whenever that many gather, the
    // best `k` under the (total) result order are kept.
    let scoring = query.ranking.scoring().clone();
    let max_value = query.ranking.max_predicate_value();
    let best_k = |results: &mut Vec<RankedTuple>| {
        results.sort_by(|a, b| a.cmp_desc(b, &scoring, max_value));
        results.truncate(query.k);
    };
    let held = query.k.saturating_mul(2).max(1);
    let mut results: Vec<RankedTuple> = Vec::new();
    descend(rows_per_table, &checks, None, &mut |joined: &Tuple| {
        let mut state = ScoreState::new(n);
        for (i, p) in ranking.iter().enumerate() {
            state.set(i, p.evaluate(joined)?.value());
        }
        results.push(RankedTuple::new(joined.clone(), state));
        if results.len() >= held {
            best_k(&mut results);
        }
        Ok(())
    })?;
    best_k(&mut results);
    Ok(results)
}

/// Extends `prefix` (the join of one row per outer table) by every row of
/// the next table that passes that level's `checks`, and hands each
/// complete product tuple to `visit`.
fn descend<R: AsRef<[Tuple]>>(
    rows_per_table: &[R],
    checks: &[Vec<BoundBoolExpr>],
    prefix: Option<&Tuple>,
    visit: &mut dyn FnMut(&Tuple) -> Result<()>,
) -> Result<()> {
    let (Some((rows, inner_rows)), Some((level, inner_checks))) =
        (rows_per_table.split_first(), checks.split_first())
    else {
        return prefix.map_or(Ok(()), visit);
    };
    'rows: for row in rows.as_ref() {
        let joined = match prefix {
            Some(p) => p.join(row),
            None => row.clone(),
        };
        for check in level {
            if !check.eval(&joined)? {
                continue 'rows;
            }
        }
        descend(inner_rows, inner_checks, Some(&joined), visit)?;
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
