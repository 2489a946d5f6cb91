//! Dynamically typed cell values and their data types.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::score::Score;

/// The logical type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 floating point.
    Float64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Utf8,
    /// The type of SQL `NULL` when no better type is known.
    Null,
}

impl DataType {
    /// Returns `true` if values of this type can be used in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::Float64 => "FLOAT64",
            DataType::Bool => "BOOL",
            DataType::Utf8 => "UTF8",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed cell value.
///
/// `Value` implements a *total* order (`Ord`) so that values can be used as
/// index keys and sort keys: `Null` sorts before everything, numeric values
/// compare numerically across `Int64`/`Float64`, `NaN` sorts after all other
/// floats, and values of different non-numeric types compare by a fixed type
/// rank. Equality follows the same rules (so `Int64(1) == Float64(1.0)`).
///
/// A value is 16 bytes: a string is shared (`Arc<String>`), so cloning one
/// is a refcount bump, and it compares, hashes and displays by content.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string, shared.
    Utf8(Arc<String>),
}

impl Value {
    /// Returns the [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Bool(_) => DataType::Bool,
            Value::Utf8(_) => DataType::Utf8,
        }
    }

    /// Returns `true` if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets this value as a float, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(i) => Some(*i as f64),
            Value::Float64(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interprets this value as an integer, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interprets this value as a boolean, if it is a boolean.
    ///
    /// Follows SQL three-valued logic at the caller: `Null` yields `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int64(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// Interprets this value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A rank used to order values of different types in the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int64(_) | Value::Float64(_) => 2,
            Value::Utf8(_) => 3,
        }
    }

    /// Compares two floats with a total order: `NaN` sorts greater than
    /// every non-NaN value and equal to itself.
    fn cmp_f64(a: f64, b: f64) -> Ordering {
        cmp_f64_total(a, b)
    }
}

/// The total order over `f64` that [`Value`] comparisons use: `NaN` sorts
/// greater than every non-NaN value and equal to itself, `-0.0` equals `0.0`.
///
/// Public because the columnar zone maps fold block minima/maxima with this
/// exact order — their pruning soundness depends on matching the order the
/// executor's filters see, so there must be one definition.
pub fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    // [`Score::order_key`] puts NaN at 0; subtracting one wraps it to the top.
    let key = |f: f64| Score(f).order_key().wrapping_sub(1);
    key(a).cmp(&key(b))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Int64(a), Float64(b)) => Value::cmp_f64(*a as f64, *b),
            (Float64(a), Int64(b)) => Value::cmp_f64(*a, *b as f64),
            (Float64(a), Float64(b)) => Value::cmp_f64(*a, *b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The hash must be consistent with the cross-type numeric equality
        // above, so all numeric values hash through their f64 bit pattern
        // (canonicalising -0.0 to 0.0 and all NaNs to one pattern).
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(u8::from(*b));
            }
            Value::Int64(i) => {
                state.write_u8(2);
                hash_f64(*i as f64, state);
            }
            Value::Float64(f) => {
                state.write_u8(2);
                hash_f64(*f, state);
            }
            Value::Utf8(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

fn hash_f64<H: std::hash::Hasher>(f: f64, state: &mut H) {
    let canonical = if f == 0.0 {
        0.0_f64
    } else if f.is_nan() {
        f64::NAN
    } else {
        f
    };
    state.write_u64(canonical.to_bits());
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int64(i) => write!(f, "{i}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Utf8(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int64(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(Arc::new(v.to_owned()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(Arc::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int64(3), Value::Float64(3.0));
        assert_ne!(Value::Int64(3), Value::Float64(3.5));
        assert_eq!(hash_of(&Value::Int64(3)), hash_of(&Value::Float64(3.0)));
    }

    #[test]
    fn numeric_order_agrees_with_the_float_comparison() {
        // The definition `cmp_f64_total` had before it compared keys.
        let reference = |a: f64, b: f64| match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.partial_cmp(&b).unwrap(),
        };
        for a in crate::score::tests::GRID {
            for b in crate::score::tests::GRID {
                assert_eq!(cmp_f64_total(a, b), reference(a, b), "{a} vs {b}");
            }
        }
        for (i, f) in [(0, 0.0), (-7, -7.0), (1 << 53, 2f64.powi(53))] {
            assert_eq!(Value::Int64(i), Value::Float64(f));
            assert_eq!(hash_of(&Value::Int64(i)), hash_of(&Value::Float64(f)));
        }
    }

    #[test]
    fn strings_compare_and_hash_by_content() {
        let owned = Value::from(String::from("héllo"));
        let borrowed = Value::from("héllo");
        for v in [owned.clone(), borrowed.clone()] {
            assert_eq!(v, owned);
            assert_eq!(v, borrowed);
            assert_eq!(v.cmp(&borrowed), Ordering::Equal);
            assert_eq!(hash_of(&v), hash_of(&owned));
            assert_eq!(v.to_string(), "'héllo'");
        }
        // The hash is the content's: the same as before strings were shared.
        let mut h = DefaultHasher::new();
        h.write_u8(3);
        "héllo".hash(&mut h);
        assert_eq!(hash_of(&owned), h.finish());
        assert!(Value::from("héllo") < Value::from(String::from("hëllo")));
        assert_ne!(Value::from("a"), Value::from("b"));
    }

    #[test]
    fn a_value_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int64(i64::MIN));
        assert!(Value::Null < Value::from(""));
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        assert!(Value::Float64(f64::NAN) > Value::Float64(f64::MAX));
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
    }

    #[test]
    fn negative_zero_equals_zero_and_hashes_alike() {
        assert_eq!(Value::Float64(-0.0), Value::Float64(0.0));
        assert_eq!(
            hash_of(&Value::Float64(-0.0)),
            hash_of(&Value::Float64(0.0))
        );
    }

    #[test]
    fn ordering_of_strings() {
        assert!(Value::from("abc") < Value::from("abd"));
        assert!(Value::from("abc") > Value::Int64(1_000));
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Value::Int64(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int64(0).as_bool(), Some(false));
        assert_eq!(Value::Null.as_bool(), None);
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
    }

    #[test]
    fn display_round_trip_is_reasonable() {
        assert_eq!(Value::Int64(42).to_string(), "42");
        assert_eq!(Value::from("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn data_type_properties() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
        assert_eq!(Value::from(true).data_type(), DataType::Bool);
        assert_eq!(DataType::Utf8.to_string(), "UTF8");
    }
}
