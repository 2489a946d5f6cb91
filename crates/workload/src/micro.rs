//! The running-example micro relations of Figure 2.

use std::sync::Arc;

use ranksql_common::{DataType, Field, Schema, Value};
use ranksql_expr::{RankPredicate, RankingContext, ScoringFunction};
use ranksql_storage::{Catalog, Table};

/// Builds relation `R` of Figure 2(a): columns `a`, `b`, predicate scores
/// `p1`, `p2` for tuples r1–r3.
pub fn relation_r(catalog: &Catalog) -> Arc<Table> {
    let t = catalog
        .create_table(
            "R",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
                Field::new("p1", DataType::Float64),
                Field::new("p2", DataType::Float64),
            ]),
        )
        .expect("fresh catalog");
    for (a, b, p1, p2) in [(1, 2, 0.9, 0.65), (2, 3, 0.8, 0.5), (3, 4, 0.7, 0.7)] {
        t.insert(vec![
            Value::from(a),
            Value::from(b),
            Value::from(p1),
            Value::from(p2),
        ])
        .expect("arity matches");
    }
    t
}

/// Builds relation `R′` of Figure 2(b) (same schema as `R`).
pub fn relation_r_prime(catalog: &Catalog) -> Arc<Table> {
    let t = catalog
        .create_table(
            "Rp",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
                Field::new("p1", DataType::Float64),
                Field::new("p2", DataType::Float64),
            ]),
        )
        .expect("fresh catalog");
    for (a, b, p1, p2) in [(1, 2, 0.9, 0.65), (3, 4, 0.7, 0.7), (5, 1, 0.75, 0.6)] {
        t.insert(vec![
            Value::from(a),
            Value::from(b),
            Value::from(p1),
            Value::from(p2),
        ])
        .expect("arity matches");
    }
    t
}

/// Builds relation `S` of Figure 2(c): columns `a`, `c`, predicate scores
/// `p3`, `p4`, `p5` for tuples s1–s6.
pub fn relation_s(catalog: &Catalog) -> Arc<Table> {
    let t = catalog
        .create_table(
            "S",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("c", DataType::Int64),
                Field::new("p3", DataType::Float64),
                Field::new("p4", DataType::Float64),
                Field::new("p5", DataType::Float64),
            ]),
        )
        .expect("fresh catalog");
    let rows = [
        (4, 3, 0.7, 0.8, 0.9),
        (1, 1, 0.9, 0.85, 0.8),
        (1, 2, 0.5, 0.45, 0.75),
        (4, 2, 0.4, 0.7, 0.95),
        (5, 1, 0.3, 0.9, 0.6),
        (2, 3, 0.25, 0.45, 0.9),
    ];
    for (a, c, p3, p4, p5) in rows {
        t.insert(vec![
            Value::from(a),
            Value::from(c),
            Value::from(p3),
            Value::from(p4),
            Value::from(p5),
        ])
        .expect("arity matches");
    }
    t
}

/// The scoring context `F1 = p1 + p2` over relation R (Example 2).
pub fn context_f1() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            RankPredicate::attribute("p1", "R.p1"),
            RankPredicate::attribute("p2", "R.p2"),
        ],
        ScoringFunction::Sum,
    )
}

/// The scoring context `F2 = p3 + p4 + p5` over relation S (Example 2).
pub fn context_f2() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            RankPredicate::attribute("p3", "S.p3"),
            RankPredicate::attribute("p4", "S.p4"),
            RankPredicate::attribute("p5", "S.p5"),
        ],
        ScoringFunction::Sum,
    )
}

/// The scoring context `F3 = p1 + p2 + p3 + p4 + p5` over R ⋈ S
/// (Figure 4(f)).
pub fn context_f3() -> Arc<RankingContext> {
    RankingContext::new(
        vec![
            RankPredicate::attribute("p1", "R.p1"),
            RankPredicate::attribute("p2", "R.p2"),
            RankPredicate::attribute("p3", "S.p3"),
            RankPredicate::attribute("p4", "S.p4"),
            RankPredicate::attribute("p5", "S.p5"),
        ],
        ScoringFunction::Sum,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_have_paper_cardinalities() {
        let cat = Catalog::new();
        assert_eq!(relation_r(&cat).row_count(), 3);
        assert_eq!(relation_r_prime(&cat).row_count(), 3);
        assert_eq!(relation_s(&cat).row_count(), 6);
        assert_eq!(cat.len(), 3);
    }

    #[test]
    fn contexts_have_expected_arity() {
        assert_eq!(context_f1().num_predicates(), 2);
        assert_eq!(context_f2().num_predicates(), 3);
        assert_eq!(context_f3().num_predicates(), 5);
    }

    #[test]
    fn figure2d_scores_check_out() {
        // F1{p1}[r1] = 0.9 + 1 = 1.9 (Figure 2(d)).
        let cat = Catalog::new();
        let r = relation_r(&cat);
        let ctx = context_f1();
        let t = r.pin_epoch().tuples([0]).unwrap().remove(0);
        let p1 = ctx.predicate(0).bind(r.schema()).unwrap();
        let score = p1.evaluate(&t).unwrap();
        assert_eq!(score.value(), 0.9);
    }
}
