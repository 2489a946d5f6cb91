//! Rank-relational query specifications and their canonical form.

use std::sync::Arc;

use ranksql_common::{BitSet64, RankSqlError, Result};
use ranksql_expr::{BoolExpr, RankingContext};
use ranksql_storage::Catalog;

use crate::plan::{JoinAlgorithm, LogicalPlan};

/// A rank-relational query (Eq. 1 of the paper):
///
/// ```text
/// Q = π*  λ_k  τ_F(p1..pn)  σ_B(c1..cm)  (R1 × ... × Rh)
/// ```
///
/// i.e. an SPJ query over `tables`, filtered by the conjunction of
/// `bool_predicates`, ranked by the scoring function and ranking predicates
/// of `ranking`, returning the top `k` tuples (optionally projected).
#[derive(Debug, Clone)]
pub struct RankQuery {
    /// The base relations `R1..Rh` (table names).
    pub tables: Vec<String>,
    /// The Boolean predicates `c1..cm` (implicitly conjoined).
    pub bool_predicates: Vec<BoolExpr>,
    /// The ranking predicates `p1..pn` and scoring function `F`.
    pub ranking: Arc<RankingContext>,
    /// The number of results requested.
    pub k: usize,
    /// Optional projection (qualified column names); `None` = `SELECT *`.
    pub projection: Option<Vec<String>>,
    /// Whether `k` is a prepared-statement placeholder (`LIMIT ?`): the
    /// stored `k` is then only a default and a binding must supply the real
    /// value before execution.
    pub k_is_param: bool,
}

impl RankQuery {
    /// Creates a query specification.
    pub fn new(
        tables: Vec<String>,
        bool_predicates: Vec<BoolExpr>,
        ranking: Arc<RankingContext>,
        k: usize,
    ) -> Self {
        RankQuery {
            tables,
            bool_predicates,
            ranking,
            k,
            projection: None,
            k_is_param: false,
        }
    }

    /// Sets the projection list.
    pub fn with_projection(mut self, columns: Vec<String>) -> Self {
        self.projection = Some(columns);
        self
    }

    /// Marks `k` as a prepared-statement placeholder (`LIMIT ?`).
    pub fn with_k_param(mut self) -> Self {
        self.k_is_param = true;
        self
    }

    /// The parameter slots referenced anywhere in the query — Boolean
    /// predicates and ranking-predicate expressions (sorted, deduplicated).
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .bool_predicates
            .iter()
            .flat_map(|p| p.param_slots())
            .collect();
        out.extend(self.ranking.param_slots());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// One entry per parameter slot with its currently bound value: `None`
    /// when any occurrence of the slot is still unbound (an execution must
    /// supply it), `Some` when every occurrence carries a value (which then
    /// serves as the default for re-binding).  Sorted by slot.
    pub fn param_bindings(&self) -> Vec<(usize, Option<ranksql_common::Value>)> {
        let mut merged: std::collections::BTreeMap<usize, Option<ranksql_common::Value>> =
            std::collections::BTreeMap::new();
        let occurrences = self
            .bool_predicates
            .iter()
            .flat_map(|p| p.param_bindings())
            .chain(self.ranking.param_bindings());
        for (slot, value) in occurrences {
            match merged.entry(slot) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // An unbound occurrence makes the whole slot unbound.
                    if value.is_none() {
                        e.insert(None);
                    }
                }
            }
        }
        merged.into_iter().collect()
    }

    /// A copy of the query with every parameter slot bound to the value at
    /// its index in `values` (fresh ranking context with fresh counters).
    pub fn with_params(&self, values: &[ranksql_common::Value]) -> Result<RankQuery> {
        let bool_predicates = self
            .bool_predicates
            .iter()
            .map(|p| p.with_params(values))
            .collect::<Result<Vec<_>>>()?;
        let ranking = if self.ranking.param_slots().is_empty() {
            Arc::clone(&self.ranking)
        } else {
            self.ranking.with_params(values)?
        };
        Ok(RankQuery {
            tables: self.tables.clone(),
            bool_predicates,
            ranking,
            k: self.k,
            projection: self.projection.clone(),
            k_is_param: self.k_is_param,
        })
    }

    /// Number of ranking predicates `n`.
    pub fn num_rank_predicates(&self) -> usize {
        self.ranking.num_predicates()
    }

    /// The set of all ranking predicate indices.
    pub fn all_rank_predicates(&self) -> BitSet64 {
        BitSet64::all(self.num_rank_predicates())
    }

    /// Index of a table name within the query's `tables` list.
    pub fn table_index(&self, name: &str) -> Result<usize> {
        self.tables
            .iter()
            .position(|t| t == name)
            .ok_or_else(|| RankSqlError::Plan(format!("table `{name}` is not part of the query")))
    }

    /// The set of query-table indices referenced by a Boolean predicate.
    pub fn bool_predicate_tables(&self, predicate: &BoolExpr) -> Result<BitSet64> {
        let mut set = BitSet64::EMPTY;
        for rel in predicate.relations() {
            set.insert(self.table_index(&rel)?);
        }
        Ok(set)
    }

    /// The set of query-table indices referenced by ranking predicate `i`.
    pub fn rank_predicate_tables(&self, i: usize) -> Result<BitSet64> {
        let mut set = BitSet64::EMPTY;
        for rel in self.ranking.predicate(i).relations() {
            set.insert(self.table_index(&rel)?);
        }
        Ok(set)
    }

    /// Boolean predicates fully evaluable on the given set of tables.
    pub fn bool_predicates_on(&self, tables: BitSet64) -> Result<Vec<BoolExpr>> {
        let mut out = Vec::new();
        for p in &self.bool_predicates {
            if self.bool_predicate_tables(p)?.is_subset_of(tables) {
                out.push(p.clone());
            }
        }
        Ok(out)
    }

    /// Boolean predicates that connect the two table sets (evaluable on the
    /// union but on neither side alone) — the join conditions to apply when
    /// joining those sides.
    pub fn join_predicates_between(
        &self,
        left: BitSet64,
        right: BitSet64,
    ) -> Result<Vec<BoolExpr>> {
        let both = left.union(right);
        let mut out = Vec::new();
        for p in &self.bool_predicates {
            let t = self.bool_predicate_tables(p)?;
            if t.is_subset_of(both) && !t.is_subset_of(left) && !t.is_subset_of(right) {
                out.push(p.clone());
            }
        }
        Ok(out)
    }

    /// Ranking predicates (indices) evaluable on the given set of tables.
    pub fn rank_predicates_on(&self, tables: BitSet64) -> Result<BitSet64> {
        let mut out = BitSet64::EMPTY;
        for i in 0..self.num_rank_predicates() {
            if self.rank_predicate_tables(i)?.is_subset_of(tables) {
                out.insert(i);
            }
        }
        Ok(out)
    }

    /// Builds the canonical (materialise-then-sort) plan of Eq. 1: the
    /// Cartesian product of all tables, one big selection, a blocking sort by
    /// the full scoring function and the top-k limit.
    ///
    /// This is the only plan a ranking-blind engine can produce; it serves as
    /// the correctness oracle and as the starting point of the traditional
    /// optimizer baseline.
    pub fn canonical_plan(&self, catalog: &Catalog) -> Result<LogicalPlan> {
        let mut plan: Option<LogicalPlan> = None;
        for name in &self.tables {
            let table = catalog.table(name)?;
            let scan = LogicalPlan::scan(&table);
            plan = Some(match plan {
                None => scan,
                Some(acc) => acc.join(scan, None, JoinAlgorithm::NestedLoop),
            });
        }
        let Some(mut plan) = plan else {
            return Err(RankSqlError::Plan("query has no tables".into()));
        };
        if let Some(filter) = BoolExpr::conjoin(self.bool_predicates.clone()) {
            plan = plan.select(filter);
        }
        if self.num_rank_predicates() > 0 {
            plan = plan.sort(self.all_rank_predicates());
        }
        plan = plan.limit(self.k);
        if let Some(cols) = &self.projection {
            plan = plan.project(cols.clone());
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field, Schema, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        for name in ["R", "S", "T"] {
            let t = cat
                .create_table(
                    name,
                    Schema::new(vec![
                        Field::new("a", DataType::Int64),
                        Field::new("p", DataType::Float64),
                        Field::new("b", DataType::Bool),
                    ]),
                )
                .unwrap();
            t.insert(vec![Value::from(1), Value::from(0.5), Value::from(true)])
                .unwrap();
        }
        cat
    }

    fn query() -> RankQuery {
        let ranking = RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p"),
                RankPredicate::attribute("p2", "S.p"),
                RankPredicate::attribute("p3", "T.p"),
            ],
            ScoringFunction::Sum,
        );
        RankQuery::new(
            vec!["R".into(), "S".into(), "T".into()],
            vec![
                BoolExpr::col_eq_col("R.a", "S.a"),
                BoolExpr::col_eq_col("S.a", "T.a"),
                BoolExpr::column_is_true("R.b"),
            ],
            ranking,
            10,
        )
    }

    #[test]
    fn table_and_predicate_indexing() {
        let q = query();
        assert_eq!(q.table_index("S").unwrap(), 1);
        assert!(q.table_index("X").is_err());
        assert_eq!(
            q.bool_predicate_tables(&q.bool_predicates[0]).unwrap(),
            BitSet64::from_indices([0, 1])
        );
        assert_eq!(q.rank_predicate_tables(2).unwrap(), BitSet64::singleton(2));
    }

    #[test]
    fn predicates_on_table_sets() {
        let q = query();
        let rs = BitSet64::from_indices([0, 1]);
        let on_rs = q.bool_predicates_on(rs).unwrap();
        assert_eq!(on_rs.len(), 2); // R.a=S.a and R.b
        let joins = q
            .join_predicates_between(BitSet64::from_indices([0, 1]), BitSet64::singleton(2))
            .unwrap();
        assert_eq!(joins.len(), 1); // S.a = T.a
        assert_eq!(
            q.rank_predicates_on(rs).unwrap(),
            BitSet64::from_indices([0, 1])
        );
        assert_eq!(
            q.rank_predicates_on(BitSet64::all(3)).unwrap(),
            BitSet64::all(3)
        );
    }

    #[test]
    fn canonical_plan_shape() {
        let q = query();
        let cat = catalog();
        let plan = q.canonical_plan(&cat).unwrap();
        // π is absent (SELECT *): Limit over Sort over Select over joins.
        assert!(plan.has_blocking_sort());
        assert_eq!(plan.rank_operator_count(), 0);
        assert_eq!(plan.evaluated_predicates(), BitSet64::all(3));
        assert_eq!(
            plan.relations(),
            vec!["R".to_string(), "S".to_string(), "T".to_string()]
        );
        let text = plan.explain(Some(&q.ranking));
        assert!(text.contains("Sort[p1+p2+p3]"));
        assert!(text.contains("Limit[10]"));
    }

    #[test]
    fn canonical_plan_with_projection() {
        let q = query().with_projection(vec!["R.a".into()]);
        let cat = catalog();
        let plan = q.canonical_plan(&cat).unwrap();
        assert_eq!(plan.schema().unwrap().len(), 1);
    }

    #[test]
    fn empty_query_rejected() {
        let q = RankQuery::new(vec![], vec![], RankingContext::unranked(), 1);
        assert!(q.canonical_plan(&Catalog::new()).is_err());
    }
}
