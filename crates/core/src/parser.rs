//! A small SQL-ish front end for top-k queries.
//!
//! The accepted grammar covers the paper's query form (PostgreSQL LIMIT
//! syntax):
//!
//! ```text
//! SELECT (* | col, col, ...)
//! FROM table, table, ...
//! [WHERE conjunct AND conjunct AND ...]
//! ORDER BY term + term + ...
//! LIMIT (k | ?)
//! ```
//!
//! where a WHERE conjunct is `col op col`, `col op literal`, `col op ?` (a
//! prepared-statement placeholder) or a bare boolean column, and an ORDER BY
//! term is either a bare (qualified) column — a ranking predicate reading
//! that column — or `name(col)`, naming the predicate explicitly (e.g.
//! `f1(A.p1)`), optionally with a trailing `COST n` annotation to model an
//! expensive predicate.
//!
//! `?` placeholders number left to right from 0 and are bound later through
//! [`Params`](crate::Params); `LIMIT ?` marks `k` itself as bind-time
//! (`Params::k`).
//!
//! Parse failures carry a **byte offset** into the original input
//! ([`ParseError::pos`]) pointing at the offending token, so callers can
//! render a caret under the mistake.

use std::fmt;

use ranksql_algebra::RankQuery;
use ranksql_common::{RankSqlError, Result, Value};
use ranksql_expr::{
    BoolExpr, CompareOp, RankPredicate, RankingContext, ScalarExpr, ScoringFunction,
};

/// A parse failure: what was expected, and the byte offset into the
/// original input where the offending token starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the original query text.
    pub pos: usize,
    /// What the parser expected at `pos`.
    pub expected: String,
}

impl ParseError {
    fn new(pos: usize, expected: impl Into<String>) -> Self {
        ParseError {
            pos,
            expected: expected.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: expected {}", self.pos, self.expected)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for RankSqlError {
    fn from(e: ParseError) -> Self {
        RankSqlError::Parse(e.to_string())
    }
}

/// Parses the SQL-ish top-k syntax into a [`RankQuery`]; see
/// [`parse_topk_query_spanned`] for the error-span-preserving form.
pub fn parse_topk_query(sql: &str) -> Result<RankQuery> {
    Ok(parse_topk_query_spanned(sql)?)
}

/// Parses the SQL-ish top-k syntax, reporting failures as a structured
/// [`ParseError`] with a byte offset into `sql`.
pub fn parse_topk_query_spanned(sql: &str) -> std::result::Result<RankQuery, ParseError> {
    // Offsets are reported against the *original* input, so account for the
    // leading whitespace the parser trims away.
    let base = sql.len() - sql.trim_start().len();
    let text = sql.trim().trim_end_matches(';');
    let lowered = text.to_lowercase();
    let end = base + text.len();

    let select_pos = lowered
        .find("select")
        .ok_or_else(|| ParseError::new(base, "a SELECT clause"))?;
    let from_pos = lowered
        .find("from")
        .ok_or_else(|| ParseError::new(end, "a FROM clause"))?;
    let where_pos = lowered.find(" where ");
    let order_pos = lowered
        .find(" order by ")
        .ok_or_else(|| ParseError::new(end, "an ORDER BY clause (top-k queries are ranked)"))?;
    let limit_pos = lowered
        .find(" limit ")
        .ok_or_else(|| ParseError::new(end, "a LIMIT clause (top-k queries need k)"))?;

    // Clauses must appear in SQL order (SELECT … FROM … [WHERE …] ORDER BY …
    // LIMIT …) and may not overlap; anything else is a parse error (pointing
    // at the out-of-place clause), never a slicing panic.  Each entry is
    // `(match position incl. delimiter, keyword start, keyword end, name,
    // rank)`.
    {
        let mut clauses = vec![
            (
                select_pos,
                select_pos,
                select_pos + "select".len(),
                "SELECT",
                0usize,
            ),
            (from_pos, from_pos, from_pos + "from".len(), "FROM", 1),
            (
                order_pos,
                order_pos + 1,
                order_pos + " order by ".len(),
                "ORDER BY",
                3,
            ),
            (
                limit_pos,
                limit_pos + 1,
                limit_pos + " limit ".len(),
                "LIMIT",
                4,
            ),
        ];
        if let Some(w) = where_pos {
            clauses.push((w, w + 1, w + " where ".len(), "WHERE", 2));
        }
        clauses.sort_by_key(|&(pos, ..)| pos);
        if let Some(&(_, kw_start, _, name, _)) = clauses
            .windows(2)
            .find(|w| {
                let (.., prev_end, _, prev_rank) = w[0];
                let (cur_match, .., cur_rank) = w[1];
                // Out of rank order, or the previous clause's keyword spills
                // past where this clause's (delimiter-inclusive) match
                // begins — i.e. no room for the previous clause's body.
                prev_rank > cur_rank || prev_end > cur_match
            })
            .map(|w| &w[1])
        {
            return Err(ParseError::new(
                base + kw_start,
                format!(
                    "clauses in the order SELECT … FROM … [WHERE …] ORDER BY … LIMIT … \
                     ({name} is out of place)"
                ),
            ));
        }
    }

    let select_clause = text[select_pos + "select".len()..from_pos].trim();
    let from_end = where_pos.unwrap_or(order_pos);
    let from_clause_start = from_pos + "from".len();
    let from_clause = text[from_clause_start..from_end].trim();
    let where_clause = where_pos.map(|w| {
        let start = w + " where ".len();
        (start, text[start..order_pos].trim())
    });
    let order_clause_start = order_pos + " order by ".len();
    let order_clause = text[order_clause_start..limit_pos].trim();
    let limit_clause_start = limit_pos + " limit ".len();
    let limit_clause = text[limit_clause_start..].trim();

    // FROM
    let tables: Vec<String> = from_clause
        .split(',')
        .map(|t| t.trim().to_owned())
        .filter(|t| !t.is_empty())
        .collect();
    if tables.is_empty() {
        return Err(ParseError::new(
            base + from_clause_start,
            "at least one table name in FROM",
        ));
    }

    // SELECT
    let projection = if select_clause == "*" {
        None
    } else {
        Some(
            select_clause
                .split(',')
                .map(|c| c.trim().to_owned())
                .filter(|c| !c.is_empty())
                .collect::<Vec<_>>(),
        )
    };

    // Positional `?` placeholders number left to right across the whole
    // statement (WHERE first, since ORDER BY terms take none).
    let mut next_param = 0usize;

    // WHERE
    let mut filters = Vec::new();
    if let Some((clause_start, clause)) = where_clause {
        let clause_base = base + clause_start;
        for (off, conjunct) in split_conjuncts_with_offsets(clause) {
            filters.push(parse_condition(
                &conjunct,
                clause_base + off,
                &mut next_param,
            )?);
        }
    }

    // ORDER BY
    let mut predicates = Vec::new();
    let order_base = base + order_clause_start;
    let mut term_start = 0usize;
    for term in order_clause.split('+') {
        let off = term_start + (term.len() - term.trim_start().len());
        term_start += term.len() + 1; // + separator
        predicates.push(parse_rank_term(
            term.trim(),
            predicates.len(),
            order_base + off,
        )?);
    }
    if predicates.is_empty() {
        return Err(ParseError::new(
            order_base,
            "at least one ranking predicate in ORDER BY",
        ));
    }

    // LIMIT: a number, or `?` to bind k at execution time.
    let limit_token = limit_clause.split_whitespace().next().unwrap_or("");
    let (k, k_is_param) = if limit_token == "?" {
        (0, true)
    } else {
        let k: usize = limit_token.parse().map_err(|_| {
            ParseError::new(
                base + limit_clause_start,
                format!("a number or `?` after LIMIT, found `{limit_clause}`"),
            )
        })?;
        (k, false)
    };

    let ranking = RankingContext::new(predicates, ScoringFunction::Sum);
    let mut query = RankQuery::new(tables, filters, ranking, k);
    if k_is_param {
        query = query.with_k_param();
    }
    if let Some(cols) = projection {
        query = query.with_projection(cols);
    }
    Ok(query)
}

/// Splits a WHERE clause at ` and ` boundaries, keeping each conjunct's
/// byte offset within the clause.
fn split_conjuncts_with_offsets(clause: &str) -> Vec<(usize, String)> {
    let lowered = clause.to_lowercase();
    let sep = " and ";
    let mut parts = Vec::new();
    let mut start = 0;
    loop {
        let piece_end = lowered[start..]
            .find(sep)
            .map(|p| start + p)
            .unwrap_or(clause.len());
        let piece = &clause[start..piece_end];
        let trimmed = piece.trim();
        if !trimmed.is_empty() {
            let off = start + (piece.len() - piece.trim_start().len());
            parts.push((off, trimmed.to_owned()));
        }
        if piece_end == clause.len() {
            return parts;
        }
        start = piece_end + sep.len();
    }
}

fn parse_operand(token: &str, next_param: &mut usize) -> ScalarExpr {
    let token = token.trim();
    if token == "?" {
        let slot = *next_param;
        *next_param += 1;
        return ScalarExpr::param(slot);
    }
    if let Ok(i) = token.parse::<i64>() {
        return ScalarExpr::lit(i);
    }
    if let Ok(f) = token.parse::<f64>() {
        return ScalarExpr::lit(f);
    }
    if (token.starts_with('\'') && token.ends_with('\'') && token.len() >= 2)
        || (token.starts_with('"') && token.ends_with('"') && token.len() >= 2)
    {
        return ScalarExpr::Literal(Value::from(&token[1..token.len() - 1]));
    }
    // A (possibly qualified) column, allowing simple `a + b` arithmetic.
    if let Some((l, r)) = token.split_once('+') {
        return parse_operand(l, next_param).add(parse_operand(r, next_param));
    }
    ScalarExpr::col(token)
}

fn parse_condition(
    conjunct: &str,
    pos: usize,
    next_param: &mut usize,
) -> std::result::Result<BoolExpr, ParseError> {
    const OPS: [(&str, CompareOp); 6] = [
        ("<=", CompareOp::LtEq),
        (">=", CompareOp::GtEq),
        ("<>", CompareOp::NotEq),
        ("!=", CompareOp::NotEq),
        ("<", CompareOp::Lt),
        (">", CompareOp::Gt),
    ];
    // `=` handled last so `<=`, `>=`, `<>` are not split at their `=`.
    for (sym, op) in OPS {
        if let Some((l, r)) = conjunct.split_once(sym) {
            return Ok(BoolExpr::compare(
                parse_operand(l, next_param),
                op,
                parse_operand(r, next_param),
            ));
        }
    }
    if let Some((l, r)) = conjunct.split_once('=') {
        return Ok(BoolExpr::compare(
            parse_operand(l, next_param),
            CompareOp::Eq,
            parse_operand(r, next_param),
        ));
    }
    // A bare boolean column.
    let col = conjunct.trim();
    if col.is_empty() {
        return Err(ParseError::new(
            pos,
            "a WHERE conjunct (`col op value` or a boolean column)",
        ));
    }
    Ok(BoolExpr::column_is_true(col))
}

fn parse_rank_term(
    term: &str,
    index: usize,
    pos: usize,
) -> std::result::Result<RankPredicate, ParseError> {
    if term.is_empty() {
        return Err(ParseError::new(
            pos,
            "an ORDER BY term (a column or `name(column)`)",
        ));
    }
    // Optional trailing `COST n`.
    let (term, cost) = match term.to_lowercase().find(" cost ") {
        Some(cost_pos) => {
            let cost_value = term[cost_pos + " cost ".len()..].trim();
            let cost: u64 = cost_value.parse().map_err(|_| {
                ParseError::new(
                    pos + cost_pos + " cost ".len(),
                    format!("a number after COST, found `{cost_value}`"),
                )
            })?;
            (term[..cost_pos].trim(), cost)
        }
        None => (term, 0),
    };
    // `name(column)` or a bare column.
    if let Some(open) = term.find('(') {
        let close = term
            .rfind(')')
            .ok_or_else(|| ParseError::new(pos + open, "a closing `)` for this `(`"))?;
        let name = term[..open].trim();
        let column = term[open + 1..close].trim();
        if name.is_empty() || column.is_empty() {
            return Err(ParseError::new(
                pos,
                "a ranking predicate of the form `name(column)`",
            ));
        }
        return Ok(RankPredicate::attribute_with_cost(name, column, cost));
    }
    let name = if term.contains('.') {
        term.replace('.', "_")
    } else {
        format!("p{index}")
    };
    Ok(RankPredicate::attribute_with_cost(name, term, cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query_q() {
        let q = parse_topk_query(
            "SELECT * FROM A, B, C \
             WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b \
             ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) \
             LIMIT 10",
        )
        .unwrap();
        assert_eq!(
            q.tables,
            vec!["A".to_string(), "B".to_string(), "C".to_string()]
        );
        assert_eq!(q.bool_predicates.len(), 4);
        assert_eq!(q.num_rank_predicates(), 5);
        assert_eq!(q.ranking.predicate(0).name, "f1");
        assert_eq!(q.k, 10);
        assert!(q.projection.is_none());
        assert!(!q.k_is_param);
    }

    #[test]
    fn parses_projection_literals_and_costs() {
        let q = parse_topk_query(
            "SELECT H.id, R.id FROM H, R \
             WHERE H.city = R.city AND R.cuisine = 'Italian' AND H.price < 100 \
             ORDER BY H.quality + related(R.desc) COST 50 \
             LIMIT 3;",
        )
        .unwrap();
        assert_eq!(q.projection.as_ref().unwrap().len(), 2);
        assert_eq!(q.k, 3);
        assert_eq!(q.num_rank_predicates(), 2);
        assert_eq!(q.ranking.predicate(0).name, "H_quality");
        assert_eq!(q.ranking.predicate(1).cost, 50);
        // The string literal survived with its case.
        let c = &q.bool_predicates[1];
        assert!(c.to_string().contains("Italian"));
    }

    #[test]
    fn question_marks_become_positional_params() {
        let q = parse_topk_query("SELECT * FROM T WHERE T.a < ? AND T.b = ? ORDER BY T.p LIMIT ?")
            .unwrap();
        assert_eq!(q.param_slots(), vec![0, 1]);
        assert!(q.k_is_param);
        assert_eq!(q.k, 0, "k is a placeholder until bound");
        let rendered: Vec<String> = q.bool_predicates.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, vec!["T.a < $0", "T.b = $1"]);
    }

    #[test]
    fn missing_clauses_are_reported() {
        assert!(parse_topk_query("SELECT * FROM A LIMIT 5").is_err());
        assert!(parse_topk_query("SELECT * FROM A ORDER BY p").is_err());
        assert!(parse_topk_query("FROM A ORDER BY p LIMIT 1").is_err());
        assert!(parse_topk_query("SELECT * FROM A ORDER BY p LIMIT x").is_err());
    }

    // One test per error arm, each asserting the span points at the
    // offending token of the *original* input.

    #[test]
    fn span_missing_select() {
        let sql = "FROM A ORDER BY p LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert_eq!(e.pos, 0);
        assert!(e.expected.contains("SELECT"), "{e}");
    }

    #[test]
    fn span_missing_from() {
        let sql = "SELECT * ORDER BY p LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert_eq!(e.pos, sql.len());
        assert!(e.expected.contains("FROM"), "{e}");
    }

    #[test]
    fn span_missing_order_by_and_limit() {
        let sql = "SELECT * FROM A LIMIT 5";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert_eq!(e.pos, sql.len());
        assert!(e.expected.contains("ORDER BY"), "{e}");

        let sql = "SELECT * FROM A ORDER BY p";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert_eq!(e.pos, sql.len());
        assert!(e.expected.contains("LIMIT"), "{e}");
    }

    #[test]
    fn span_out_of_order_clauses() {
        let sql = "SELECT * FROM A LIMIT 3 ORDER BY A.p";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("out of place"), "{e}");
        assert_eq!(&sql[e.pos..e.pos + 8], "ORDER BY");
    }

    #[test]
    fn span_empty_from_list() {
        let sql = "SELECT * FROM , ORDER BY p LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("table name"), "{e}");
        assert_eq!(e.pos, sql.find(',').unwrap() - 1);
    }

    #[test]
    fn span_invalid_limit() {
        let sql = "SELECT * FROM A ORDER BY A.p LIMIT ten";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("number or `?`"), "{e}");
        assert_eq!(e.pos, sql.find("ten").unwrap());
    }

    #[test]
    fn span_bad_cost_annotation() {
        let sql = "SELECT * FROM A ORDER BY f(A.p) COST abc LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("after COST"), "{e}");
        assert_eq!(e.pos, sql.find("abc").unwrap());
    }

    #[test]
    fn span_unbalanced_parens_in_rank_term() {
        let sql = "SELECT * FROM A ORDER BY f(A.p LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("closing"), "{e}");
        assert_eq!(e.pos, sql.find('(').unwrap());
    }

    #[test]
    fn span_malformed_rank_predicate() {
        let sql = "SELECT * FROM A ORDER BY (A.p) LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("name(column)"), "{e}");
        assert_eq!(e.pos, sql.find("(A.p)").unwrap());
    }

    #[test]
    fn span_empty_order_by_term() {
        let sql = "SELECT * FROM A ORDER BY A.p + + A.q LIMIT 1";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert!(e.expected.contains("ORDER BY term"), "{e}");
    }

    #[test]
    fn span_accounts_for_leading_whitespace() {
        let sql = "   SELECT * FROM A ORDER BY A.p LIMIT x";
        let e = parse_topk_query_spanned(sql).unwrap_err();
        assert_eq!(e.pos, sql.find('x').unwrap());
        // And the RankSqlError conversion keeps the offset in the message.
        let err: RankSqlError = e.into();
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn comparison_operators_are_parsed() {
        let q = parse_topk_query(
            "SELECT * FROM T WHERE T.a >= 3 AND T.b <> 4 AND T.c <= 1.5 ORDER BY T.p LIMIT 1",
        )
        .unwrap();
        assert_eq!(q.bool_predicates.len(), 3);
        let rendered: Vec<String> = q.bool_predicates.iter().map(|p| p.to_string()).collect();
        assert!(rendered[0].contains(">="));
        assert!(rendered[1].contains("<>"));
        assert!(rendered[2].contains("<="));
    }

    #[test]
    fn end_to_end_parse_and_execute() {
        use crate::database::Database;
        use ranksql_common::{DataType, Field, Schema, Value};
        let db = Database::new();
        db.create_table(
            "T",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("good", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..20i64 {
            db.insert("T", vec![Value::from(i), Value::from((i as f64) / 20.0)])
                .unwrap();
        }
        let q = parse_topk_query("SELECT * FROM T ORDER BY T.good LIMIT 3").unwrap();
        let r = db
            .execute_with_mode(&q, crate::PlanMode::Canonical)
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].tuple.value(0), &Value::from(19));
    }
}
