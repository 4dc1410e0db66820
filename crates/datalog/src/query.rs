//! Query interface: match patterns against the materialized database.
//!
//! Queries in a Datalog system "are answered by checking them against the
//! stored dataset of all facts that can be derived" (paper §I) — i.e.
//! lookups against the incrementally-maintained materialization, which is
//! why keeping it consistent cheaply matters.

use crate::rel::Database;
use crate::value::{Tuple, Value};

/// One position of a query pattern: bound to a constant or free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pat {
    /// Must equal this symbol (interned on the fly; unknown symbols match
    /// nothing).
    Sym(String),
    /// Must equal this integer.
    Int(i64),
    /// Matches anything.
    Any,
}

impl Pat {
    fn matches(&self, v: Value, db: &Database) -> bool {
        match self {
            Pat::Any => true,
            Pat::Int(i) => v == Value::Int(*i),
            Pat::Sym(s) => match db.interner.get(s) {
                Some(id) => v == Value::Sym(id),
                None => false,
            },
        }
    }
}

/// Parse a textual pattern like `path(a, ?)` or `size(?, 10)`.
/// `?` and identifiers starting uppercase/`_` are free positions.
pub fn parse_pattern(src: &str) -> Result<(String, Vec<Pat>), String> {
    let src = src.trim().trim_end_matches('.');
    let open = src.find('(').ok_or("missing '('")?;
    if !src.ends_with(')') {
        return Err("missing ')'".to_string());
    }
    let pred = src[..open].trim().to_string();
    if pred.is_empty() {
        return Err("missing predicate name".to_string());
    }
    let inner = &src[open + 1..src.len() - 1];
    let pats = inner
        .split(',')
        .map(|t| {
            let t = t.trim();
            if t.is_empty() {
                return Err("empty term".to_string());
            }
            if t == "?" || t.starts_with(|c: char| c.is_ascii_uppercase() || c == '_') {
                Ok(Pat::Any)
            } else if let Ok(i) = t.parse::<i64>() {
                Ok(Pat::Int(i))
            } else {
                Ok(Pat::Sym(t.trim_matches('"').to_string()))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((pred, pats))
}

/// All tuples of `pred` matching the pattern, sorted for determinism.
/// An unknown predicate matches nothing; a pattern of the wrong arity is
/// an error naming both arities, not an empty answer.
pub fn query(db: &Database, pred: &str, pattern: &[Pat]) -> Result<Vec<Tuple>, String> {
    query_filtered(db, pred, pattern, None)
}

/// [`query`] against the consistent cut at a pinned snapshot epoch —
/// the read path [`crate::mvcc::Snapshot`] serves while the head
/// version is mid-cascade.
pub fn query_at(
    db: &Database,
    pred: &str,
    pattern: &[Pat],
    epoch: u64,
) -> Result<Vec<Tuple>, String> {
    query_filtered(db, pred, pattern, Some(epoch))
}

fn query_filtered(
    db: &Database,
    pred: &str,
    pattern: &[Pat],
    at: Option<u64>,
) -> Result<Vec<Tuple>, String> {
    let Some(id) = db.pred_id(pred) else {
        return Ok(Vec::new());
    };
    let rel = db.rel(id);
    if rel.arity() != pattern.len() {
        return Err(format!(
            "{pred} has arity {}, pattern has {}",
            rel.arity(),
            pattern.len()
        ));
    }
    let keep = |t: &&Tuple| t.iter().zip(pattern).all(|(&v, p)| p.matches(v, db));
    let mut out: Vec<Tuple> = match at {
        None => rel.iter().filter(keep).cloned().collect(),
        Some(e) => rel.iter_at(e).filter(keep).cloned().collect(),
    };
    out.sort();
    Ok(out)
}

/// Render query results with the interner.
pub fn render(db: &Database, tuples: &[Tuple]) -> Vec<String> {
    tuples.iter().map(|t| db.interner.display_tuple(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["a", "c"]);
        db.insert_fact("edge", &["b", "c"]);
        let size = db.pred("size", 2);
        let a = db.sym("a");
        db.rel_mut(size).insert(vec![a, Value::Int(10)]);
        db
    }

    #[test]
    fn wildcard_queries() {
        let db = db();
        assert_eq!(query(&db, "edge", &[Pat::Any, Pat::Any]).unwrap().len(), 3);
        assert_eq!(
            query(&db, "edge", &[Pat::Sym("a".into()), Pat::Any]).unwrap().len(),
            2
        );
        assert_eq!(
            query(&db, "edge", &[Pat::Any, Pat::Sym("c".into())]).unwrap().len(),
            2
        );
    }

    #[test]
    fn int_patterns() {
        let db = db();
        assert_eq!(query(&db, "size", &[Pat::Any, Pat::Int(10)]).unwrap().len(), 1);
        assert_eq!(query(&db, "size", &[Pat::Any, Pat::Int(11)]).unwrap().len(), 0);
    }

    #[test]
    fn unknown_symbol_or_pred_matches_nothing() {
        let db = db();
        assert!(query(&db, "edge", &[Pat::Sym("zzz".into()), Pat::Any]).unwrap().is_empty());
        assert!(query(&db, "ghost", &[Pat::Any]).unwrap().is_empty());
    }

    #[test]
    fn arity_mismatch_is_an_error_naming_both_arities() {
        let mut db = db();
        let want = Err("edge has arity 2, pattern has 1".to_string());
        assert_eq!(query(&db, "edge", &[Pat::Any]), want);
        let epoch = db.publish(u64::MAX);
        assert_eq!(query_at(&db, "edge", &[Pat::Any], epoch), want);
    }

    #[test]
    fn pattern_parsing() {
        assert_eq!(
            parse_pattern("path(a, ?)").unwrap(),
            ("path".into(), vec![Pat::Sym("a".into()), Pat::Any])
        );
        assert_eq!(
            parse_pattern("size(X, 10).").unwrap(),
            ("size".into(), vec![Pat::Any, Pat::Int(10)])
        );
        assert!(parse_pattern("nope").is_err());
        assert!(parse_pattern("p(").is_err());
        assert!(parse_pattern("(a)").is_err());
    }

    #[test]
    fn render_uses_symbol_names() {
        let db = db();
        let rows = query(&db, "edge", &[Pat::Sym("a".into()), Pat::Any]).unwrap();
        let shown = render(&db, &rows);
        assert!(shown.contains(&"(a, b)".to_string()));
        assert!(shown.contains(&"(a, c)".to_string()));
    }
}
