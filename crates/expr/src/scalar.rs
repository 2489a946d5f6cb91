//! Scalar expressions over tuples.

use std::fmt;

use ranksql_common::{RankSqlError, Result, Row, Schema, Tuple, Value};

/// A reference to a column by (optionally qualified) name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional relation qualifier.
    pub relation: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnRef {
            relation: None,
            name: name.into(),
        }
    }

    /// A qualified column reference (`relation.name`).
    pub fn qualified(relation: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            relation: Some(relation.into()),
            name: name.into(),
        }
    }

    /// Parses `"rel.name"` or `"name"`.
    pub fn parse(s: &str) -> Self {
        match s.split_once('.') {
            Some((rel, name)) => ColumnRef::qualified(rel, name),
            None => ColumnRef::new(s),
        }
    }

    /// Resolves this reference to a column index in `schema`.
    pub fn resolve(&self, schema: &Schema) -> Result<usize> {
        schema.index_of(self.relation.as_deref(), &self.name)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.relation {
            Some(rel) => write!(f, "{rel}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinaryOp {
    fn apply(self, l: &Value, r: &Value) -> Result<Value> {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        // Integer arithmetic stays integral except for division.
        if let (Value::Int64(a), Value::Int64(b)) = (l, r) {
            return Ok(match self {
                BinaryOp::Add => Value::Int64(a.wrapping_add(*b)),
                BinaryOp::Sub => Value::Int64(a.wrapping_sub(*b)),
                BinaryOp::Mul => Value::Int64(a.wrapping_mul(*b)),
                BinaryOp::Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Float64(*a as f64 / *b as f64)
                    }
                }
            });
        }
        let (a, b) = match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(RankSqlError::Expression(format!(
                    "cannot apply {self:?} to {l} and {r}"
                )))
            }
        };
        Ok(Value::Float64(match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return Ok(Value::Null);
                }
                a / b
            }
        }))
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        })
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A column reference.
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
    /// A binary arithmetic expression.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Negation (`-expr`).
    Negate(Box<ScalarExpr>),
    /// A prepared-statement parameter slot (displayed as `$index`).
    ///
    /// A parameter starts *unbound* (`value: None`); binding replaces the
    /// value in place while keeping the slot index, so a plan containing
    /// bound parameters can be re-bound with fresh values without
    /// re-optimizing — the expression *shape* (and therefore its display
    /// form, used for plan-cache keys) is independent of the bound value.
    Param {
        /// Zero-based parameter slot.
        index: usize,
        /// The currently bound value (`None` until bound).
        value: Option<Value>,
    },
}

impl ScalarExpr {
    /// Shorthand for a column reference expression.
    pub fn col(name: &str) -> Self {
        ScalarExpr::Column(ColumnRef::parse(name))
    }

    /// Shorthand for an unbound parameter slot (`$index`).
    pub fn param(index: usize) -> Self {
        ScalarExpr::Param { index, value: None }
    }

    /// Shorthand for a literal expression.
    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Literal(v.into())
    }

    /// Builds `self + other`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on values
    pub fn add(self, other: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Builds `self - other`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on values
    pub fn sub(self, other: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op: BinaryOp::Sub,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Builds `self * other`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on values
    pub fn mul(self, other: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op: BinaryOp::Mul,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Builds `self / other`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on values
    pub fn div(self, other: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op: BinaryOp::Div,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// All column references appearing in this expression.
    pub fn columns(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            ScalarExpr::Column(c) => out.push(c.clone()),
            ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::Negate(e) => e.collect_columns(out),
        }
    }

    /// The parameter slots referenced by this expression (sorted,
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
            ScalarExpr::Param { index, .. } => out.push(*index),
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
            ScalarExpr::Negate(e) => e.collect_params(out),
        }
    }

    /// Every parameter occurrence with its currently bound value (`None` =
    /// unbound), in syntactic order; used to let already-bound values act
    /// as defaults when a statement is re-bound.
    pub fn param_bindings(&self) -> Vec<(usize, Option<Value>)> {
        let mut out = Vec::new();
        self.collect_param_bindings(&mut out);
        out
    }

    fn collect_param_bindings(&self, out: &mut Vec<(usize, Option<Value>)>) {
        match self {
            ScalarExpr::Param { index, value } => out.push((*index, value.clone())),
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_param_bindings(out);
                right.collect_param_bindings(out);
            }
            ScalarExpr::Negate(e) => e.collect_param_bindings(out),
        }
    }

    /// Rebinds every parameter slot in the expression to the value at its
    /// index in `values`, leaving everything else untouched.  Fails if a
    /// slot has no corresponding value.
    pub fn with_params(&self, values: &[Value]) -> Result<ScalarExpr> {
        Ok(match self {
            ScalarExpr::Param { index, .. } => {
                let value = values.get(*index).cloned().ok_or_else(|| {
                    RankSqlError::Expression(format!(
                        "no value bound for parameter ${index} ({} values supplied)",
                        values.len()
                    ))
                })?;
                ScalarExpr::Param {
                    index: *index,
                    value: Some(value),
                }
            }
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => self.clone(),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.with_params(values)?),
                right: Box::new(right.with_params(values)?),
            },
            ScalarExpr::Negate(e) => ScalarExpr::Negate(Box::new(e.with_params(values)?)),
        })
    }

    /// The relation names referenced by this expression (deduplicated).
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

    /// Binds the expression against a schema, producing an index-resolved
    /// form suitable for repeated evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<BoundScalarExpr> {
        Ok(match self {
            ScalarExpr::Column(c) => BoundScalarExpr::Column(c.resolve(schema)?),
            ScalarExpr::Literal(v) => BoundScalarExpr::Literal(v.clone()),
            ScalarExpr::Param { index, value } => match value {
                Some(v) => BoundScalarExpr::Literal(v.clone()),
                None => {
                    return Err(RankSqlError::Expression(format!(
                        "parameter ${index} is unbound; bind a value before execution"
                    )))
                }
            },
            ScalarExpr::Binary { op, left, right } => BoundScalarExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            ScalarExpr::Negate(e) => BoundScalarExpr::Negate(Box::new(e.bind(schema)?)),
        })
    }

    /// Convenience: bind and evaluate in one step (used in tests and in the
    /// optimizer's sample executor where expressions are evaluated rarely).
    pub fn eval(&self, tuple: &Tuple, schema: &Schema) -> Result<Value> {
        self.bind(schema)?.eval(tuple)
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Negate(e) => write!(f, "(-{e})"),
            // The bound value is deliberately NOT shown: the display form is
            // the normalized shape plan-cache keys are built from.
            ScalarExpr::Param { index, .. } => write!(f, "${index}"),
        }
    }
}

/// A scalar expression with column references resolved to indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundScalarExpr {
    /// Column by index.
    Column(usize),
    /// Literal value.
    Literal(Value),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<BoundScalarExpr>,
        /// Right operand.
        right: Box<BoundScalarExpr>,
    },
    /// Negation.
    Negate(Box<BoundScalarExpr>),
}

impl BoundScalarExpr {
    /// Evaluates the expression against a row (a tuple, or a pair of
    /// tuples viewed as their concatenation).
    pub fn eval<R: Row + ?Sized>(&self, tuple: &R) -> Result<Value> {
        match self {
            BoundScalarExpr::Column(i) => tuple.get(*i).cloned().ok_or_else(|| {
                RankSqlError::Expression(format!(
                    "column index {i} out of bounds for tuple of arity {}",
                    tuple.arity()
                ))
            }),
            BoundScalarExpr::Literal(v) => Ok(v.clone()),
            BoundScalarExpr::Binary { op, left, right } => {
                let l = left.eval(tuple)?;
                let r = right.eval(tuple)?;
                op.apply(&l, &r)
            }
            BoundScalarExpr::Negate(e) => {
                let v = e.eval(tuple)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int64(i) => Ok(Value::Int64(-i)),
                    Value::Float64(x) => Ok(Value::Float64(-x)),
                    other => Err(RankSqlError::Expression(format!("cannot negate {other}"))),
                }
            }
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
            Field::qualified("R", "b", DataType::Float64),
            Field::qualified("S", "a", DataType::Int64),
        ])
    }

    fn tuple() -> Tuple {
        Tuple::synthetic(0, vec![Value::from(4), Value::from(0.5), Value::from(7)])
    }

    #[test]
    fn column_resolution_and_eval() {
        let e = ScalarExpr::col("R.a");
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(4));
        let e2 = ScalarExpr::col("S.a");
        assert_eq!(e2.eval(&tuple(), &schema()).unwrap(), Value::from(7));
    }

    #[test]
    fn arithmetic_mixed_types() {
        let e = ScalarExpr::col("R.a").add(ScalarExpr::col("R.b"));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(4.5));
        let e = ScalarExpr::col("R.a").mul(ScalarExpr::lit(3));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(12));
        let e = ScalarExpr::lit(10).sub(ScalarExpr::col("S.a"));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(3));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = ScalarExpr::lit(1).div(ScalarExpr::lit(0));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::Null);
        let e = ScalarExpr::lit(1.0).div(ScalarExpr::lit(0.0));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagates() {
        let e = ScalarExpr::lit(Value::Null).add(ScalarExpr::lit(1));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::Null);
    }

    #[test]
    fn negate() {
        let e = ScalarExpr::Negate(Box::new(ScalarExpr::col("R.b")));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(-0.5));
        let e = ScalarExpr::Negate(Box::new(ScalarExpr::lit("x")));
        assert!(e.eval(&tuple(), &schema()).is_err());
    }

    #[test]
    fn type_error_reported() {
        let e = ScalarExpr::lit("x").add(ScalarExpr::lit(1));
        assert!(e.eval(&tuple(), &schema()).is_err());
    }

    #[test]
    fn columns_and_relations() {
        let e = ScalarExpr::col("R.a")
            .add(ScalarExpr::col("S.a"))
            .mul(ScalarExpr::col("R.b"));
        assert_eq!(e.columns().len(), 3);
        assert_eq!(e.relations(), vec!["R".to_string(), "S".to_string()]);
    }

    #[test]
    fn display_forms() {
        let e = ScalarExpr::col("R.a").add(ScalarExpr::lit(1));
        assert_eq!(e.to_string(), "(R.a + 1)");
        assert_eq!(ColumnRef::parse("x").to_string(), "x");
    }

    #[test]
    fn unknown_column_errors_at_bind_time() {
        let e = ScalarExpr::col("R.zzz");
        assert!(e.bind(&schema()).is_err());
    }

    #[test]
    fn params_display_bind_and_rebind() {
        // Shape (display) is value-independent: the cache-key property.
        let e = ScalarExpr::col("R.a").add(ScalarExpr::param(0));
        assert_eq!(e.to_string(), "(R.a + $0)");
        assert_eq!(e.param_slots(), vec![0]);
        // Unbound parameters refuse to bind/evaluate.
        let err = e.eval(&tuple(), &schema()).unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
        // Binding substitutes the value but keeps the slot (and display).
        let bound = e.with_params(&[Value::from(10)]).unwrap();
        assert_eq!(bound.to_string(), "(R.a + $0)");
        assert_eq!(bound.eval(&tuple(), &schema()).unwrap(), Value::from(14));
        // Re-binding replaces the value in place.
        let rebound = bound.with_params(&[Value::from(100)]).unwrap();
        assert_eq!(rebound.eval(&tuple(), &schema()).unwrap(), Value::from(104));
        // A slot with no supplied value is an error.
        assert!(e.with_params(&[]).is_err());
        // Params are invisible to column collection.
        assert_eq!(bound.columns().len(), 1);
    }

    #[test]
    fn integer_division_produces_float() {
        let e = ScalarExpr::lit(3).div(ScalarExpr::lit(2));
        assert_eq!(e.eval(&tuple(), &schema()).unwrap(), Value::from(1.5));
    }
}
