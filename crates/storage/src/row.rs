//! Row and value representation.

use std::fmt;
use std::sync::Arc;

/// A single column value. The workloads only need integers, floats and
/// strings (YCSB payload fields, TPC-C balances and names).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float (TPC-C amounts).
    Float(f64),
    /// UTF-8 string (names, payload padding).
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Interpret as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as a float (integers are widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Interpret as a string slice if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A record: an ordered list of column values, exactly one [`Value`] wide.
///
/// A single-column row (the YCSB usertable shape that dominates every
/// benchmark) holds its value inline and is created, cloned and dropped
/// without touching the allocator. A wider row (TPC-C) keeps its columns in
/// one shared `Arc<[Value]>`: cloning it is a reference-count bump, and a
/// write copies the columns only while another clone is alive
/// (copy-on-write through [`Arc::make_mut`]). `Arc` rather than `Rc` keeps
/// rows `Send`, so they may cross threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(Repr);

/// The shape follows the column count — 0 is `Empty`, 1 is `One`, 2 or more
/// is `Many` — so the derived equality is column-wise equality. `Value`'s
/// `String` niche holds the tag: the enum is no wider than one `Value`.
#[derive(Debug, Clone, PartialEq, Default)]
enum Repr {
    #[default]
    Empty,
    One(Value),
    Many(Arc<[Value]>),
}

const _: () = assert!(std::mem::size_of::<Row>() == std::mem::size_of::<Value>());

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a row from column values.
    pub fn from_values(mut columns: Vec<Value>) -> Self {
        Self(match columns.len() {
            0 => Repr::Empty,
            1 => Repr::One(columns.swap_remove(0)),
            _ => Repr::Many(columns.into()),
        })
    }

    /// A single-integer-column row, the common YCSB shape (allocation-free).
    pub fn int(v: i64) -> Self {
        Self(Repr::One(Value::Int(v)))
    }

    /// The columns, in order.
    fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(value) => std::slice::from_ref(value),
            Repr::Many(columns) => columns,
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Column accessor.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.as_slice().get(idx)
    }

    /// Mutable column accessor. On a wide row whose columns another clone
    /// shares, this first gives the row its own copy of them.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        match &mut self.0 {
            Repr::One(value) if idx == 0 => Some(value),
            Repr::Many(columns) if idx < columns.len() => Some(&mut Arc::make_mut(columns)[idx]),
            _ => None,
        }
    }

    /// Overwrite (or extend with `Null`s to include) column `idx`.
    pub fn set(&mut self, idx: usize, value: Value) {
        if let Some(slot) = self.get_mut(idx) {
            *slot = value;
            return;
        }
        let mut columns = self.as_slice().to_vec();
        columns.resize(idx, Value::Null);
        columns.push(value);
        *self = Self::from_values(columns);
    }

    /// First column as integer (YCSB convenience).
    pub fn int_value(&self) -> Option<i64> {
        self.get(0).and_then(Value::as_int)
    }

    /// Add `delta` to the integer in column `idx` (e.g. balance updates).
    pub fn add_int(&mut self, idx: usize, delta: i64) {
        let current = self.get(idx).and_then(Value::as_int).unwrap_or(0);
        self.set(idx, Value::Int(current + delta));
    }

    /// Iterate over the columns.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.as_slice().iter()
    }
}

impl From<Vec<Value>> for Row {
    fn from(columns: Vec<Value>) -> Self {
        Self::from_values(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert_eq!(Value::from(2.5f64).as_float(), Some(2.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn row_set_extends_with_nulls() {
        let mut r = Row::new();
        r.set(2, Value::Int(9));
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(0), Some(&Value::Null));
        assert_eq!(r.get(2).unwrap().as_int(), Some(9));
    }

    #[test]
    fn add_int_accumulates() {
        let mut r = Row::int(100);
        r.add_int(0, -30);
        r.add_int(0, 5);
        assert_eq!(r.int_value(), Some(75));
    }

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<Row>();

    #[test]
    fn equal_columns_make_equal_rows_whatever_the_construction() {
        assert_eq!(Row::from_values(vec![Value::Int(7)]), Row::int(7));
        assert_eq!(Row::from_values(vec![]), Row::new());
        assert!(Row::new().is_empty());

        let columns = vec![Value::Int(1), Value::Null, Value::Str("c".into())];
        let mut grown = Row::new();
        grown.set(0, Value::Int(1));
        assert_eq!(grown, Row::int(1));
        grown.set(2, Value::Str("c".into()));
        assert_eq!(grown, Row::from_values(columns.clone()));
        assert_eq!(grown.iter().cloned().collect::<Vec<_>>(), columns);
        assert_eq!(grown.get(3), None);
    }

    #[test]
    fn writing_a_clone_of_a_wide_row_leaves_the_original_alone() {
        let original = Row::from_values(vec![Value::Int(10), Value::Int(20)]);
        let mut copy = original.clone();
        copy.add_int(1, 5);
        copy.set(0, Value::Null);
        assert_eq!(original.get(0), Some(&Value::Int(10)));
        assert_eq!(original.get(1), Some(&Value::Int(20)));
        assert_eq!(copy.get(0), Some(&Value::Null));
        assert_eq!(copy.get(1), Some(&Value::Int(25)));
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Int(1).to_string(), "1");
        assert_eq!(Value::Str("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
