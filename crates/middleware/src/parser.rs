//! SQL parser.
//!
//! The middleware accepts a compact SQL subset (enough to express the paper's
//! running example and the benchmark workloads) plus the annotation hints
//! GeoTP relies on:
//!
//! ```sql
//! BEGIN;
//! UPDATE savings SET bal = bal - 100 WHERE id = 1;
//! UPDATE savings SET bal = bal + 100 WHERE id = 1000001; /*+ last */
//! COMMIT;
//! ```
//!
//! The `/*+ last */` annotation marks the transaction's last statement
//! (paper §III: "we leverage annotations to mark the last statement"), which
//! lets the transaction manager trigger the decentralized prepare as soon as
//! that statement finishes.

use geotp_simrt::hash::FxHashMap;
use std::fmt;

use geotp_storage::TableId;

use crate::ops::{ClientOp, GlobalKey};

/// A parsed SQL statement plus its annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedStatement {
    /// The operation the statement maps to (`None` for BEGIN/COMMIT/ROLLBACK).
    pub op: Option<ClientOp>,
    /// Transaction control verb, if any.
    pub control: Option<TxnControl>,
    /// Whether the statement carries the `/*+ last */` annotation.
    pub is_last: bool,
}

/// Transaction-control statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnControl {
    /// `BEGIN` / `START TRANSACTION`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
}

/// Errors produced by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// The offending statement text.
    pub statement: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {} in `{}`", self.message, self.statement)
    }
}

impl std::error::Error for ParseError {}

/// Maps table names to [`TableId`]s.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: FxHashMap<String, TableId>,
    next_id: u16,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a table by name.
    pub fn table(&mut self, name: &str) -> TableId {
        let lowered = name.to_ascii_lowercase();
        if let Some(id) = self.tables.get(&lowered) {
            return *id;
        }
        let id = TableId(self.next_id);
        self.next_id += 1;
        self.tables.insert(lowered, id);
        id
    }

    /// Look up a table without registering it.
    pub fn lookup(&self, name: &str) -> Option<TableId> {
        self.tables.get(&name.to_ascii_lowercase()).copied()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// The SQL parser.
#[derive(Debug, Default)]
pub struct SqlParser {
    catalog: Catalog,
}

impl SqlParser {
    /// Create a parser with an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the catalog built while parsing.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parse a semicolon-separated script into statements.
    pub fn parse_script(&mut self, script: &str) -> Result<Vec<ParsedStatement>, ParseError> {
        script
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| self.parse_statement(s))
            .collect()
    }

    /// Parse one statement.
    pub fn parse_statement(&mut self, statement: &str) -> Result<ParsedStatement, ParseError> {
        let original = statement.to_string();
        let mut text = statement.trim().to_string();
        let is_last = Self::strip_last_annotation(&mut text);
        let upper = text.to_ascii_uppercase();

        let err = |message: &str| ParseError {
            message: message.to_string(),
            statement: original.clone(),
        };

        if upper.starts_with("BEGIN") || upper.starts_with("START TRANSACTION") {
            return Ok(ParsedStatement {
                op: None,
                control: Some(TxnControl::Begin),
                is_last,
            });
        }
        if upper.starts_with("COMMIT") {
            return Ok(ParsedStatement {
                op: None,
                control: Some(TxnControl::Commit),
                is_last,
            });
        }
        if upper.starts_with("ROLLBACK") {
            return Ok(ParsedStatement {
                op: None,
                control: Some(TxnControl::Rollback),
                is_last,
            });
        }

        if upper.starts_with("SELECT") {
            let table = Self::capture_after(&text, "FROM").ok_or_else(|| err("missing FROM"))?;
            let row = Self::capture_where_id(&text).ok_or_else(|| err("missing WHERE id = <n>"))?;
            let key = GlobalKey::new(self.catalog.table(&table), row);
            let op = if upper.contains("FOR UPDATE") {
                ClientOp::ReadForUpdate(key)
            } else {
                ClientOp::Read(key)
            };
            return Ok(ParsedStatement {
                op: Some(op),
                control: None,
                is_last,
            });
        }

        if upper.starts_with("UPDATE") {
            let table = Self::capture_after(&text, "UPDATE").ok_or_else(|| err("missing table"))?;
            let row = Self::capture_where_id(&text).ok_or_else(|| err("missing WHERE id = <n>"))?;
            let key = GlobalKey::new(self.catalog.table(&table), row);
            // Two supported forms: `SET col = col + N` and `SET col = N`.
            let set_clause = Self::capture_between(&upper, "SET", "WHERE")
                .ok_or_else(|| err("missing SET clause"))?;
            let delta =
                Self::parse_delta(&set_clause).ok_or_else(|| err("unsupported SET clause"))?;
            let op = match delta {
                SetExpr::Delta(d) => ClientOp::AddInt {
                    key,
                    col: 0,
                    delta: d,
                },
                SetExpr::Assign(v) => ClientOp::Write {
                    key,
                    row: geotp_storage::Row::int(v),
                },
            };
            return Ok(ParsedStatement {
                op: Some(op),
                control: None,
                is_last,
            });
        }

        if upper.starts_with("INSERT") {
            let table = Self::capture_after(&text, "INTO").ok_or_else(|| err("missing INTO"))?;
            let values = Self::capture_values(&text).ok_or_else(|| err("missing VALUES"))?;
            if values.is_empty() {
                return Err(err("empty VALUES list"));
            }
            let key = GlobalKey::new(self.catalog.table(&table), values[0] as u64);
            let row = geotp_storage::Row::from_values(
                values
                    .iter()
                    .skip(1)
                    .map(|v| geotp_storage::Value::Int(*v))
                    .collect(),
            );
            return Ok(ParsedStatement {
                op: Some(ClientOp::Insert { key, row }),
                control: None,
                is_last,
            });
        }

        if upper.starts_with("DELETE") {
            let table = Self::capture_after(&text, "FROM").ok_or_else(|| err("missing FROM"))?;
            let row = Self::capture_where_id(&text).ok_or_else(|| err("missing WHERE id = <n>"))?;
            let key = GlobalKey::new(self.catalog.table(&table), row);
            return Ok(ParsedStatement {
                op: Some(ClientOp::Delete(key)),
                control: None,
                is_last,
            });
        }

        Err(err("unsupported statement"))
    }

    fn strip_last_annotation(text: &mut String) -> bool {
        let lowered = text.to_ascii_lowercase();
        let markers = [
            "/*+ last */",
            "/* last */",
            "/*last*/",
            "/* last statement */",
        ];
        for marker in markers {
            if let Some(pos) = lowered.find(marker) {
                text.replace_range(pos..pos + marker.len(), "");
                return true;
            }
        }
        false
    }

    fn capture_after(text: &str, keyword: &str) -> Option<String> {
        let upper = text.to_ascii_uppercase();
        let pos = upper.find(&keyword.to_ascii_uppercase())? + keyword.len();
        text[pos..]
            .split_whitespace()
            .next()
            .map(|s| {
                s.trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
                    .to_string()
            })
            .filter(|s| !s.is_empty())
    }

    fn capture_between(text: &str, start: &str, end: &str) -> Option<String> {
        let upper = text.to_ascii_uppercase();
        let s = upper.find(start)? + start.len();
        let e = upper.find(end)?;
        if e <= s {
            return None;
        }
        Some(text[s..e].trim().to_string())
    }

    fn capture_where_id(text: &str) -> Option<u64> {
        let upper = text.to_ascii_uppercase();
        let pos = upper.find("WHERE")?;
        let clause = &text[pos + 5..];
        let eq = clause.find('=')?;
        clause[eq + 1..]
            .split_whitespace()
            .next()?
            .trim_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .ok()
    }

    fn capture_values(text: &str) -> Option<Vec<i64>> {
        let upper = text.to_ascii_uppercase();
        let pos = upper.find("VALUES")?;
        let rest = &text[pos + 6..];
        let open = rest.find('(')?;
        let close = rest.find(')')?;
        let inner = &rest[open + 1..close];
        inner
            .split(',')
            .map(|v| v.trim().parse::<i64>().ok())
            .collect()
    }

    fn parse_delta(set_clause: &str) -> Option<SetExpr> {
        // Forms (already upper-cased by the caller): "BAL = BAL + 100",
        // "BAL = BAL - 100", "BAL = 42".
        let eq = set_clause.find('=')?;
        let rhs = set_clause[eq + 1..].trim();
        let col = set_clause[..eq].trim();
        if let Some(stripped) = rhs.strip_prefix(col) {
            let stripped = stripped.trim();
            if let Some(v) = stripped.strip_prefix('+') {
                return v.trim().parse().ok().map(SetExpr::Delta);
            }
            if let Some(v) = stripped.strip_prefix('-') {
                return v.trim().parse::<i64>().ok().map(|d| SetExpr::Delta(-d));
            }
        }
        rhs.parse().ok().map(SetExpr::Assign)
    }
}

enum SetExpr {
    Delta(i64),
    Assign(i64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_running_example() {
        let mut parser = SqlParser::new();
        let script = "BEGIN;\
            UPDATE savings SET bal = bal - 100 WHERE id = 2000001;\
            UPDATE savings SET bal = bal + 100 WHERE id = 42 /*+ last */;\
            COMMIT;";
        let parsed = parser.parse_script(script).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].control, Some(TxnControl::Begin));
        assert_eq!(
            parsed[1].op,
            Some(ClientOp::AddInt {
                key: GlobalKey::new(parser.catalog().lookup("savings").unwrap(), 2000001),
                col: 0,
                delta: -100
            })
        );
        assert!(!parsed[1].is_last);
        assert!(parsed[2].is_last, "annotation must be recognized");
        assert_eq!(parsed[3].control, Some(TxnControl::Commit));
    }

    #[test]
    fn parses_selects_with_and_without_for_update() {
        let mut parser = SqlParser::new();
        let plain = parser
            .parse_statement("SELECT * FROM usertable WHERE id = 7")
            .unwrap();
        assert!(matches!(plain.op, Some(ClientOp::Read(_))));
        let locked = parser
            .parse_statement("SELECT * FROM usertable WHERE id = 7 FOR UPDATE")
            .unwrap();
        assert!(matches!(locked.op, Some(ClientOp::ReadForUpdate(_))));
    }

    #[test]
    fn parses_insert_delete_and_assignment_update() {
        let mut parser = SqlParser::new();
        let ins = parser
            .parse_statement("INSERT INTO accounts (id, bal) VALUES (9, 500)")
            .unwrap();
        match ins.op {
            Some(ClientOp::Insert { key, row }) => {
                assert_eq!(key.row, 9);
                assert_eq!(row.int_at(0), Some(500));
            }
            other => panic!("unexpected {other:?}"),
        }
        let del = parser
            .parse_statement("DELETE FROM accounts WHERE id = 9")
            .unwrap();
        assert!(matches!(del.op, Some(ClientOp::Delete(_))));
        let assign = parser
            .parse_statement("UPDATE accounts SET bal = 77 WHERE id = 3")
            .unwrap();
        assert!(matches!(assign.op, Some(ClientOp::Write { .. })));
    }

    #[test]
    fn rejects_unsupported_statements() {
        let mut parser = SqlParser::new();
        assert!(parser.parse_statement("CREATE TABLE foo (id INT)").is_err());
        assert!(parser
            .parse_statement("UPDATE t SET a = b WHERE id = 1")
            .is_err());
        assert!(parser.parse_statement("SELECT * FROM t").is_err());
        let err = parser.parse_statement("GRANT ALL").unwrap_err();
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn catalog_reuses_table_ids_case_insensitively() {
        let mut parser = SqlParser::new();
        parser
            .parse_statement("SELECT * FROM Savings WHERE id = 1")
            .unwrap();
        parser
            .parse_statement("SELECT * FROM SAVINGS WHERE id = 2")
            .unwrap();
        assert_eq!(parser.catalog().len(), 1);
        assert!(parser.catalog().lookup("savings").is_some());
    }
}
