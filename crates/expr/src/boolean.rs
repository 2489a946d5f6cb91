//! Boolean predicates: selections and join conditions.

use std::fmt;

use ranksql_common::{RankSqlError, Result, Row, Schema, Tuple, Value};

use crate::scalar::{BoundScalarExpr, ColumnRef, ScalarExpr};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CompareOp {
    fn apply(self, l: &Value, r: &Value) -> Option<bool> {
        if l.is_null() || r.is_null() {
            return None; // SQL three-valued logic: comparison with NULL is unknown.
        }
        Some(match self {
            CompareOp::Eq => l == r,
            CompareOp::NotEq => l != r,
            CompareOp::Lt => l < r,
            CompareOp::LtEq => l <= r,
            CompareOp::Gt => l > r,
            CompareOp::GtEq => l >= r,
        })
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "<>",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        })
    }
}

/// A Boolean predicate tree.
///
/// Boolean predicates restrict *membership* (the traditional dimension of
/// query processing); they are evaluated with SQL three-valued logic where a
/// `NULL` comparison makes the tuple fail the filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// A comparison between two scalar expressions.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Left operand.
        left: ScalarExpr,
        /// Right operand.
        right: ScalarExpr,
    },
    /// A column that is itself a boolean (e.g. `A.b` in the paper's query Q).
    Column(ColumnRef),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
    /// A constant truth value.
    Literal(bool),
}

impl BoolExpr {
    /// Builds `left op right`.
    pub fn compare(left: ScalarExpr, op: CompareOp, right: ScalarExpr) -> Self {
        BoolExpr::Compare { op, left, right }
    }

    /// Builds an equality comparison between two columns (common join form).
    pub fn col_eq_col(left: &str, right: &str) -> Self {
        BoolExpr::compare(ScalarExpr::col(left), CompareOp::Eq, ScalarExpr::col(right))
    }

    /// Builds a predicate testing a boolean column.
    pub fn column_is_true(column: &str) -> Self {
        BoolExpr::Column(ColumnRef::parse(column))
    }

    /// Conjunction helper.
    pub fn and(self, other: BoolExpr) -> Self {
        BoolExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: BoolExpr) -> Self {
        BoolExpr::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> Self {
        BoolExpr::Not(Box::new(self))
    }

    /// Splits a conjunction into its conjuncts (`a AND b AND c` → `[a, b, c]`).
    ///
    /// This mirrors the classical "splitting of selections" the paper points
    /// at when contrasting Boolean filtering with monolithic sorting.
    pub fn split_conjuncts(&self) -> Vec<BoolExpr> {
        match self {
            BoolExpr::And(l, r) => {
                let mut out = l.split_conjuncts();
                out.extend(r.split_conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// Re-assembles a conjunction from conjuncts; `None` for an empty list.
    pub fn conjoin(conjuncts: Vec<BoolExpr>) -> Option<BoolExpr> {
        conjuncts.into_iter().reduce(BoolExpr::and)
    }

    /// All column references appearing in this predicate.
    pub fn columns(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            BoolExpr::Compare { left, right, .. } => {
                out.extend(left.columns());
                out.extend(right.columns());
            }
            BoolExpr::Column(c) => out.push(c.clone()),
            BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            BoolExpr::Not(e) => e.collect_columns(out),
            BoolExpr::Literal(_) => {}
        }
    }

    /// The parameter slots referenced by this predicate (sorted,
    /// deduplicated).
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_params(&self, out: &mut Vec<usize>) {
        match self {
            BoolExpr::Compare { left, right, .. } => {
                out.extend(left.param_slots());
                out.extend(right.param_slots());
            }
            BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
                l.collect_params(out);
                r.collect_params(out);
            }
            BoolExpr::Not(e) => e.collect_params(out),
            BoolExpr::Column(_) | BoolExpr::Literal(_) => {}
        }
    }

    /// Every parameter occurrence with its currently bound value (`None` =
    /// unbound), in syntactic order.
    pub fn param_bindings(&self) -> Vec<(usize, Option<Value>)> {
        let mut out = Vec::new();
        self.collect_param_bindings(&mut out);
        out
    }

    fn collect_param_bindings(&self, out: &mut Vec<(usize, Option<Value>)>) {
        match self {
            BoolExpr::Compare { left, right, .. } => {
                out.extend(left.param_bindings());
                out.extend(right.param_bindings());
            }
            BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
                l.collect_param_bindings(out);
                r.collect_param_bindings(out);
            }
            BoolExpr::Not(e) => e.collect_param_bindings(out),
            BoolExpr::Column(_) | BoolExpr::Literal(_) => {}
        }
    }

    /// Rebinds every parameter slot in the predicate to the value at its
    /// index in `values` (see [`ScalarExpr::with_params`]).
    pub fn with_params(&self, values: &[Value]) -> Result<BoolExpr> {
        Ok(match self {
            BoolExpr::Compare { op, left, right } => BoolExpr::Compare {
                op: *op,
                left: left.with_params(values)?,
                right: right.with_params(values)?,
            },
            BoolExpr::And(l, r) => BoolExpr::And(
                Box::new(l.with_params(values)?),
                Box::new(r.with_params(values)?),
            ),
            BoolExpr::Or(l, r) => BoolExpr::Or(
                Box::new(l.with_params(values)?),
                Box::new(r.with_params(values)?),
            ),
            BoolExpr::Not(e) => BoolExpr::Not(Box::new(e.with_params(values)?)),
            BoolExpr::Column(_) | BoolExpr::Literal(_) => self.clone(),
        })
    }

    /// The relation names referenced (deduplicated, sorted).
    pub fn relations(&self) -> Vec<String> {
        let mut rels: Vec<String> = self
            .columns()
            .into_iter()
            .filter_map(|c| c.relation)
            .collect();
        rels.sort();
        rels.dedup();
        rels
    }

    /// Whether this predicate references columns of a single relation
    /// (a *Boolean-selection* predicate, e.g. `c1` in Example 1) as opposed
    /// to multiple relations (a *Boolean-join* predicate, e.g. `c2`, `c3`).
    pub fn is_selection(&self) -> bool {
        self.relations().len() <= 1
    }

    /// Binds against a schema for repeated evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<BoundBoolExpr> {
        Ok(match self {
            BoolExpr::Compare { op, left, right } => BoundBoolExpr::Compare {
                op: *op,
                left: left.bind(schema)?,
                right: right.bind(schema)?,
            },
            BoolExpr::Column(c) => BoundBoolExpr::Column(c.resolve(schema)?),
            BoolExpr::And(l, r) => {
                BoundBoolExpr::And(Box::new(l.bind(schema)?), Box::new(r.bind(schema)?))
            }
            BoolExpr::Or(l, r) => {
                BoundBoolExpr::Or(Box::new(l.bind(schema)?), Box::new(r.bind(schema)?))
            }
            BoolExpr::Not(e) => BoundBoolExpr::Not(Box::new(e.bind(schema)?)),
            BoolExpr::Literal(b) => BoundBoolExpr::Literal(*b),
        })
    }

    /// Convenience: bind and evaluate in one step.
    pub fn eval(&self, tuple: &Tuple, schema: &Schema) -> Result<bool> {
        self.bind(schema)?.eval(tuple)
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Compare { op, left, right } => write!(f, "{left} {op} {right}"),
            BoolExpr::Column(c) => write!(f, "{c}"),
            BoolExpr::And(l, r) => write!(f, "({l} AND {r})"),
            BoolExpr::Or(l, r) => write!(f, "({l} OR {r})"),
            BoolExpr::Not(e) => write!(f, "(NOT {e})"),
            BoolExpr::Literal(b) => write!(f, "{b}"),
        }
    }
}

/// A Boolean predicate with column references resolved to indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundBoolExpr {
    /// Comparison.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Left operand.
        left: BoundScalarExpr,
        /// Right operand.
        right: BoundScalarExpr,
    },
    /// Boolean column by index.
    Column(usize),
    /// Conjunction.
    And(Box<BoundBoolExpr>, Box<BoundBoolExpr>),
    /// Disjunction.
    Or(Box<BoundBoolExpr>, Box<BoundBoolExpr>),
    /// Negation.
    Not(Box<BoundBoolExpr>),
    /// Constant.
    Literal(bool),
}

impl BoundBoolExpr {
    /// Evaluates the predicate; an unknown (NULL-involving) comparison is
    /// treated as `false`, matching SQL `WHERE` semantics.
    pub fn eval<R: Row + ?Sized>(&self, tuple: &R) -> Result<bool> {
        Ok(self.eval_tristate(tuple)?.unwrap_or(false))
    }

    /// Evaluates with three-valued logic (`None` = unknown).
    pub fn eval_tristate<R: Row + ?Sized>(&self, tuple: &R) -> Result<Option<bool>> {
        match self {
            BoundBoolExpr::Compare { op, left, right } => {
                let l = left.eval(tuple)?;
                let r = right.eval(tuple)?;
                Ok(op.apply(&l, &r))
            }
            BoundBoolExpr::Column(i) => {
                let v = tuple.get(*i).ok_or_else(|| {
                    RankSqlError::Expression(format!("column index {i} out of bounds"))
                })?;
                if v.is_null() {
                    Ok(None)
                } else {
                    v.as_bool().map(Some).ok_or_else(|| {
                        RankSqlError::Expression(format!("column value {v} is not boolean"))
                    })
                }
            }
            BoundBoolExpr::And(l, r) => {
                let a = l.eval_tristate(tuple)?;
                let b = r.eval_tristate(tuple)?;
                Ok(match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
            }
            BoundBoolExpr::Or(l, r) => {
                let a = l.eval_tristate(tuple)?;
                let b = r.eval_tristate(tuple)?;
                Ok(match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            BoundBoolExpr::Not(e) => Ok(e.eval_tristate(tuple)?.map(|b| !b)),
            BoundBoolExpr::Literal(b) => Ok(Some(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksql_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("R", "a", DataType::Int64),
            Field::qualified("R", "flag", DataType::Bool),
            Field::qualified("S", "a", DataType::Int64),
        ])
    }

    fn t(a: i64, flag: Option<bool>, sa: i64) -> Tuple {
        Tuple::synthetic(
            0,
            vec![
                Value::from(a),
                flag.map(Value::from).unwrap_or(Value::Null),
                Value::from(sa),
            ],
        )
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let e = BoolExpr::compare(ScalarExpr::col("R.a"), CompareOp::Gt, ScalarExpr::lit(3));
        assert!(e.eval(&t(4, Some(true), 0), &s).unwrap());
        assert!(!e.eval(&t(3, Some(true), 0), &s).unwrap());
        let e = BoolExpr::col_eq_col("R.a", "S.a");
        assert!(e.eval(&t(5, None, 5), &s).unwrap());
        assert!(!e.eval(&t(5, None, 6), &s).unwrap());
    }

    #[test]
    fn boolean_column_predicate() {
        let s = schema();
        let e = BoolExpr::column_is_true("R.flag");
        assert!(e.eval(&t(0, Some(true), 0), &s).unwrap());
        assert!(!e.eval(&t(0, Some(false), 0), &s).unwrap());
        // NULL flag → unknown → filtered out.
        assert!(!e.eval(&t(0, None, 0), &s).unwrap());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        // NULL AND false = false ; NULL OR true = true ; NOT NULL = NULL.
        let null_cmp = BoolExpr::compare(
            ScalarExpr::lit(Value::Null),
            CompareOp::Eq,
            ScalarExpr::lit(1),
        );
        let f = BoolExpr::Literal(false);
        let tr = BoolExpr::Literal(true);
        let tu = t(0, Some(true), 0);
        assert_eq!(
            null_cmp
                .clone()
                .and(f)
                .bind(&s)
                .unwrap()
                .eval_tristate(&tu)
                .unwrap(),
            Some(false)
        );
        assert_eq!(
            null_cmp
                .clone()
                .or(tr)
                .bind(&s)
                .unwrap()
                .eval_tristate(&tu)
                .unwrap(),
            Some(true)
        );
        assert_eq!(
            null_cmp
                .clone()
                .negate()
                .bind(&s)
                .unwrap()
                .eval_tristate(&tu)
                .unwrap(),
            None
        );
        assert!(!null_cmp.eval(&tu, &s).unwrap());
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let a = BoolExpr::column_is_true("R.flag");
        let b = BoolExpr::col_eq_col("R.a", "S.a");
        let c = BoolExpr::compare(ScalarExpr::col("R.a"), CompareOp::Lt, ScalarExpr::lit(10));
        let all = a.clone().and(b.clone()).and(c.clone());
        let parts = all.split_conjuncts();
        assert_eq!(parts, vec![a, b, c]);
        let rejoined = BoolExpr::conjoin(parts).unwrap();
        assert_eq!(rejoined.split_conjuncts().len(), 3);
        assert!(BoolExpr::conjoin(vec![]).is_none());
    }

    #[test]
    fn selection_vs_join_classification() {
        assert!(BoolExpr::column_is_true("R.flag").is_selection());
        assert!(!BoolExpr::col_eq_col("R.a", "S.a").is_selection());
        let complex = BoolExpr::compare(
            ScalarExpr::col("R.a").add(ScalarExpr::col("S.a")),
            CompareOp::Lt,
            ScalarExpr::lit(100),
        );
        assert_eq!(complex.relations(), vec!["R".to_string(), "S".to_string()]);
        assert!(!complex.is_selection());
    }

    #[test]
    fn display() {
        let e = BoolExpr::col_eq_col("R.a", "S.a").and(BoolExpr::Literal(true));
        assert_eq!(e.to_string(), "(R.a = S.a AND true)");
    }
}
