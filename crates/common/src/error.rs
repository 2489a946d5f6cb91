//! Error handling for the RankSQL workspace.

use std::fmt;

/// The error type used throughout the RankSQL crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankSqlError {
    /// A column lookup or schema manipulation failed.
    Schema(String),
    /// A catalog operation failed (unknown table, duplicate table, ...).
    Catalog(String),
    /// Data ingestion or storage-level access failed (e.g. a corrupt page).
    Storage(String),
    /// An expression could not be evaluated (type mismatch, missing column).
    Expression(String),
    /// A logical plan is malformed or violates an invariant.
    Plan(String),
    /// A physical operator hit an unrecoverable execution error.
    Execution(String),
    /// The optimizer could not produce a plan.
    Optimizer(String),
    /// The top-k SQL front-end could not parse the query text.
    Parse(String),
    /// Anything else.
    Internal(String),
}

impl RankSqlError {
    /// Short category label (used in Display and logging).
    pub fn category(&self) -> &'static str {
        match self {
            RankSqlError::Schema(_) => "schema",
            RankSqlError::Catalog(_) => "catalog",
            RankSqlError::Storage(_) => "storage",
            RankSqlError::Expression(_) => "expression",
            RankSqlError::Plan(_) => "plan",
            RankSqlError::Execution(_) => "execution",
            RankSqlError::Optimizer(_) => "optimizer",
            RankSqlError::Parse(_) => "parse",
            RankSqlError::Internal(_) => "internal",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            RankSqlError::Schema(m)
            | RankSqlError::Catalog(m)
            | RankSqlError::Storage(m)
            | RankSqlError::Expression(m)
            | RankSqlError::Plan(m)
            | RankSqlError::Execution(m)
            | RankSqlError::Optimizer(m)
            | RankSqlError::Parse(m)
            | RankSqlError::Internal(m) => m,
        }
    }
}

impl fmt::Display for RankSqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.category(), self.message())
    }
}

impl std::error::Error for RankSqlError {}

/// Result alias using [`RankSqlError`].
pub type Result<T> = std::result::Result<T, RankSqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = RankSqlError::Catalog("table `foo` not found".into());
        assert_eq!(e.to_string(), "catalog error: table `foo` not found");
        assert_eq!(e.category(), "catalog");
        assert_eq!(e.message(), "table `foo` not found");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            RankSqlError::Parse("x".into()),
            RankSqlError::Parse("x".into())
        );
        assert_ne!(
            RankSqlError::Parse("x".into()),
            RankSqlError::Plan("x".into())
        );
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RankSqlError::Internal("oops".into()));
    }
}
