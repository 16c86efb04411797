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
/// It has four shapes, and only the widest keeps its columns in a separate
/// heap block. A single-column row (the YCSB usertable shape that dominates
/// every benchmark) holds its value inline. A row of exactly two integers
/// (every hot TPC-C table: district, customer, stock, order line) holds both
/// inline too, so it is created, cloned, written and dropped in place. Any
/// other row of two or more columns (the TPC-C warehouse row, with its name)
/// keeps them in one shared `Arc<[Value]>`: cloning it is a reference-count
/// bump, and a write copies the columns only while another clone is alive
/// (copy-on-write through [`Arc::make_mut`]). `Arc` rather than `Rc` keeps
/// rows `Send`, so they may cross threads.
///
/// Columns are read by value ([`Row::get`], [`Row::iter`]) because an inline
/// pair has no `Value` to lend; [`Row::int_at`] reads an integer without
/// building one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(Repr);

/// The shape follows the columns — none is `Empty`, one is `One`, two `Int`s
/// are `Pair`, anything else is `Many` — so the derived equality is
/// column-wise equality. `Value`'s `String` niche holds the tag: the enum is
/// no wider than one `Value`.
#[derive(Debug, Clone, PartialEq, Default)]
enum Repr {
    #[default]
    Empty,
    One(Value),
    Pair(i64, i64),
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
        Self(match columns.as_slice() {
            [] => Repr::Empty,
            [_] => Repr::One(columns.swap_remove(0)),
            [Value::Int(a), Value::Int(b)] => Repr::Pair(*a, *b),
            _ => Repr::Many(columns.into()),
        })
    }

    /// A single-integer-column row, the common YCSB shape (allocation-free).
    pub fn int(v: i64) -> Self {
        Self(Repr::One(Value::Int(v)))
    }

    /// A two-integer-column row, the hot TPC-C shape (allocation-free).
    pub fn pair(a: i64, b: i64) -> Self {
        Self(Repr::Pair(a, b))
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Pair(..) => 2,
            Repr::Many(columns) => columns.len(),
        }
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Column `idx`, by value.
    pub fn get(&self, idx: usize) -> Option<Value> {
        match &self.0 {
            Repr::One(value) if idx == 0 => Some(value.clone()),
            Repr::Pair(..) => self.int_at(idx).map(Value::Int),
            Repr::Many(columns) => columns.get(idx).cloned(),
            _ => None,
        }
    }

    /// Column `idx` as an integer; `None` if it is absent or not an `Int`.
    pub fn int_at(&self, idx: usize) -> Option<i64> {
        match (&self.0, idx) {
            (Repr::One(value), 0) => value.as_int(),
            (Repr::Pair(a, _), 0) => Some(*a),
            (Repr::Pair(_, b), 1) => Some(*b),
            (Repr::Many(columns), _) => columns.get(idx).and_then(Value::as_int),
            _ => None,
        }
    }

    /// Overwrite (or extend with `Null`s to include) column `idx`. On a wide
    /// row whose columns another clone shares, this first gives the row its
    /// own copy of them.
    pub fn set(&mut self, idx: usize, value: Value) {
        match (&mut self.0, idx, value) {
            (Repr::One(slot), 0, value) => *slot = value,
            (Repr::Pair(a, _), 0, Value::Int(v)) => *a = v,
            (Repr::Pair(_, b), 1, Value::Int(v)) => *b = v,
            (Repr::Many(columns), idx, value) if idx < columns.len() => {
                let columns = Arc::make_mut(columns);
                columns[idx] = value;
                // Two `Int`s are always a `Pair`.
                if let [Value::Int(a), Value::Int(b)] = *columns {
                    *self = Self::pair(a, b);
                }
            }
            (_, idx, value) => {
                let mut columns: Vec<Value> = self.iter().collect();
                if idx >= columns.len() {
                    columns.resize(idx + 1, Value::Null);
                }
                columns[idx] = value;
                *self = Self::from_values(columns);
            }
        }
    }

    /// First column as integer (YCSB convenience).
    pub fn int_value(&self) -> Option<i64> {
        self.int_at(0)
    }

    /// Add `delta` to the integer in column `idx` (e.g. balance updates).
    pub fn add_int(&mut self, idx: usize, delta: i64) {
        let current = self.int_at(idx).unwrap_or(0);
        self.set(idx, Value::Int(current + delta));
    }

    /// Iterate over the columns, by value.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).filter_map(|idx| self.get(idx))
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
    use crate::history::row_fingerprint;

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
        assert_eq!(r.get(0), Some(Value::Null));
        assert_eq!(r.get(2).unwrap().as_int(), Some(9));
    }

    #[test]
    fn add_int_accumulates() {
        let mut r = Row::int(100);
        r.add_int(0, -30);
        r.add_int(0, 5);
        assert_eq!(r.int_value(), Some(75));

        // A pair is written in place: it stays inline, and a clone of it is
        // a separate copy.
        let original = Row::pair(10, 20);
        let mut copy = original.clone();
        copy.add_int(1, 5);
        copy.add_int(0, -10);
        assert!(matches!(copy.0, Repr::Pair(0, 25)), "{copy:?}");
        assert_eq!(original, Row::pair(10, 20));
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
        assert_eq!(grown.iter().collect::<Vec<_>>(), columns);
        assert_eq!(grown.get(3), None);

        // Two integers are a `Pair` whatever the construction.
        let built = Row::from_values(vec![Value::Int(4), Value::Int(-2)]);
        let mut grown = Row::new();
        grown.set(1, Value::Int(-2));
        grown.set(0, Value::Int(4));
        for row in [&built, &grown] {
            assert_eq!(row, &Row::pair(4, -2));
            assert!(matches!(row.0, Repr::Pair(4, -2)), "{row:?}");
        }
        assert_eq!(built.len(), 2);
        assert_eq!(
            built.iter().collect::<Vec<_>>(),
            [Value::Int(4), Value::Int(-2)]
        );
        assert_eq!(
            (built.get(1), built.int_at(1)),
            (Some(Value::Int(-2)), Some(-2))
        );
        assert_eq!((built.get(2), built.int_at(2)), (None, None));
    }

    #[test]
    fn a_non_integer_column_moves_a_pair_to_many_and_back() {
        let mut row = Row::pair(1, 2);
        row.set(1, Value::Str("x".into()));
        assert!(matches!(row.0, Repr::Many(_)), "{row:?}");
        assert_eq!(row.get(1), Some(Value::Str("x".into())));
        assert_eq!(row.int_at(1), None);
        row.set(1, Value::Int(3));
        assert!(matches!(row.0, Repr::Pair(1, 3)), "{row:?}");
        row.set(2, Value::Int(4));
        assert!(matches!(row.0, Repr::Many(_)), "{row:?}");
        assert_eq!(row, Row::from_values(vec![1.into(), 3.into(), 4.into()]));
    }

    #[test]
    fn a_pair_fingerprints_like_the_same_columns_in_an_arc() {
        let pair = Row::pair(1_000, -7);
        let shared = Row(Repr::Many(vec![Value::Int(1_000), Value::Int(-7)].into()));
        // Recorded from the `Arc<[Value]>` shape every two-column row had
        // before pairs were inline; chaos traces embed this hash.
        assert_eq!(row_fingerprint(&pair), 0x3e48_30b7_3c69_1392);
        assert_eq!(row_fingerprint(&pair), row_fingerprint(&shared));
    }

    #[test]
    fn writing_a_clone_of_a_wide_row_leaves_the_original_alone() {
        let original = Row::from_values(vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        let mut copy = original.clone();
        copy.add_int(1, 5);
        copy.set(0, Value::Null);
        assert_eq!(original.get(0), Some(Value::Int(10)));
        assert_eq!(original.get(1), Some(Value::Int(20)));
        assert_eq!(copy.get(0), Some(Value::Null));
        assert_eq!(copy.get(1), Some(Value::Int(25)));
        assert_eq!(copy.get(2), Some(Value::Int(30)));

        // The warehouse shape: two columns, one of them not an `Int`.
        let original = Row::from_values(vec![Value::Int(0), Value::Str("wh1".into())]);
        let mut copy = original.clone();
        copy.add_int(0, 7);
        assert_eq!(original.get(0), Some(Value::Int(0)));
        assert_eq!(copy.get(0), Some(Value::Int(7)));
        assert_eq!(copy.get(1), Some(Value::Str("wh1".into())));
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Int(1).to_string(), "1");
        assert_eq!(Value::Str("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
