//! Order-preserving unary operators: selection (σ) and projection (π).

use std::sync::Arc;

use ranksql_common::{Result, Schema};
use ranksql_expr::{BoolExpr, BoundBoolExpr};

use crate::context::ExecutionContext;
use crate::metrics::OperatorMetrics;
use crate::operator::{retain_from, Batch, BoxedOperator, PhysicalOperator};

/// Selection σ_c: filters membership, keeps the input order untouched
/// (`σ_c(R_P) ≡ (σ_c R)_P`, Figure 3).
pub struct Filter {
    input: BoxedOperator,
    predicate: BoundBoolExpr,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
}

impl Filter {
    /// Creates a filter, binding `predicate` against the input schema.
    pub fn new(
        input: BoxedOperator,
        predicate: &BoolExpr,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let schema = input.schema().clone();
        let bound = predicate.bind(&schema)?;
        Ok(Filter {
            input,
            predicate: bound,
            schema,
            metrics: exec.register(label),
        })
    }
}

impl PhysicalOperator for Filter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        // Pull input chunks of at most the still-missing count, so the
        // output can never overshoot `max` however selective the predicate
        // is; loop until the chunk is full or the input dries up.  The input
        // appends straight to `out` and the tuples that fail are squeezed
        // out of the chunk in place.
        let mut produced = 0;
        let mut pulled = 0u64;
        while produced < max {
            let chunk = out.len();
            let n = self.input.next_batch(max - produced, out)?;
            if n == 0 {
                break;
            }
            pulled += n as u64;
            produced += retain_from(out, chunk, |rt| self.predicate.eval(&rt.tuple))?;
        }
        self.metrics.add_in(pulled);
        if produced > 0 {
            self.metrics.add_out(produced as u64);
            self.metrics.add_batch();
        }
        Ok(produced)
    }

    fn is_ranked(&self) -> bool {
        self.input.is_ranked()
    }

    fn can_extend_limit(&self) -> bool {
        self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        self.input.extend_limit(extra)
    }
}

/// Projection π: keeps membership and order, narrows the value vector.
///
/// Projection keeps the tuple identity, so set operators above a projection
/// still deduplicate correctly.
pub struct Project {
    input: BoxedOperator,
    indices: Vec<usize>,
    schema: Schema,
    metrics: Arc<OperatorMetrics>,
}

impl Project {
    /// Creates a projection onto `columns` (qualified names).
    pub fn new(
        input: BoxedOperator,
        columns: &[String],
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let in_schema = input.schema().clone();
        let mut indices = Vec::with_capacity(columns.len());
        for c in columns {
            indices.push(in_schema.index_of_str(c)?);
        }
        let schema = in_schema.project(&indices);
        Ok(Project {
            input,
            indices,
            schema,
            metrics: exec.register(label),
        })
    }
}

impl PhysicalOperator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        let chunk = out.len();
        let n = self.input.next_batch(max, out)?;
        for rt in &mut out[chunk..] {
            rt.tuple = rt.tuple.project(&self.indices);
        }
        if n > 0 {
            self.metrics.add_in(n as u64);
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn is_ranked(&self) -> bool {
        self.input.is_ranked()
    }

    fn can_extend_limit(&self) -> bool {
        self.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        self.input.extend_limit(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_scan::tests::scan_table;
    use crate::operator::drain_batched;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{CompareOp, RankingContext, ScalarExpr};
    use ranksql_storage::{Table, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Bool),
        ])
        .qualify_all("R");
        TableBuilder::new("R", schema)
            .rows((0..10i64).map(|i| vec![Value::from(i), Value::from(i % 2 == 0)]))
            .build(0)
            .unwrap()
    }

    fn exec() -> ExecutionContext {
        ExecutionContext::new(RankingContext::unranked())
    }

    fn scan(t: &Table, exec: &ExecutionContext) -> BoxedOperator {
        Box::new(scan_table(t, exec, "scan"))
    }

    #[test]
    fn filter_keeps_matching_tuples_only() {
        let t = table();
        let exec = exec();
        let pred = BoolExpr::compare(ScalarExpr::col("R.a"), CompareOp::GtEq, ScalarExpr::lit(5));
        let mut f = Filter::new(scan(&t, &exec), &pred, &exec, "filter").unwrap();
        let out = drain_batched(&mut f, 4).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|t| t.tuple.value(0).as_i64().unwrap() >= 5));
        let m = exec.metrics().snapshot();
        assert_eq!(m[1].tuples_in(), 10);
        assert_eq!(m[1].tuples_out(), 5);
    }

    #[test]
    fn filter_on_boolean_column() {
        let t = table();
        let exec = exec();
        let pred = BoolExpr::column_is_true("R.b");
        let mut f = Filter::new(scan(&t, &exec), &pred, &exec, "filter").unwrap();
        assert_eq!(drain_batched(&mut f, 4).unwrap().len(), 5);
    }

    #[test]
    fn filter_bind_error_on_unknown_column() {
        let t = table();
        let exec = exec();
        let pred = BoolExpr::column_is_true("R.zzz");
        assert!(Filter::new(scan(&t, &exec), &pred, &exec, "filter").is_err());
    }

    #[test]
    fn project_narrows_schema_and_keeps_identity() {
        let t = table();
        let exec = exec();
        let mut p = Project::new(scan(&t, &exec), &["R.b".to_owned()], &exec, "proj").unwrap();
        assert_eq!(p.schema().len(), 1);
        let out = drain_batched(&mut p, 4).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].tuple.arity(), 1);
        assert_eq!(out[3].tuple.id().parts()[0].1, 3);
    }

    #[test]
    fn project_unknown_column_errors() {
        let t = table();
        let exec = exec();
        assert!(Project::new(scan(&t, &exec), &["R.zzz".to_owned()], &exec, "proj").is_err());
    }
}
