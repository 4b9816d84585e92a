//! Dynamic relational values, tuples and schemas.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed relational value.
///
/// `Value` has a *total* order and hash across all variants (variant rank
/// first, then value; floats via `total_cmp`), so tuples can serve as
/// grouping and join keys everywhere in the toolkit.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Numeric view (ints widen to float); `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view with SQL-ish semantics: only `Bool(true)` is truthy.
    pub fn truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// SQL-style comparison for predicates: two `Int`s compare exactly, an
    /// `Int` and a `Float` by value through `f64`; mismatched types (or Null)
    /// compare as `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Some(a.total_cmp(&b))
            }
        }
    }
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
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Cross-type numeric ordering keeps Int(2) == Float(2.0) OUT of
            // the total order (they are distinct keys); order by rank.
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
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

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// A row: a vector of values positionally matching a [`Schema`].
pub type Tuple = Vec<Value>;

/// Column names of a tuple stream, fully qualified where applicable
/// (`alias.column`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    /// Creates a schema from column names.
    pub fn new(columns: Vec<String>) -> Self {
        Schema { columns }
    }

    /// Creates a schema from string literals.
    pub fn of(columns: &[&str]) -> Self {
        Schema {
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Prefixes every column with a qualifier: `col` → `alias.col`
    /// (existing qualifiers are replaced).
    pub fn qualified(&self, alias: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let base = c.rsplit('.').next().unwrap_or(c);
                    format!("{alias}.{base}")
                })
                .collect(),
        }
    }

    /// Concatenates two schemas (join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Resolves a (possibly unqualified) name to a column index.
    ///
    /// Exact matches win; otherwise an unqualified `name` matches the
    /// unique column whose suffix after the dot equals `name`. Ambiguity or
    /// absence yields an error message.
    pub fn resolve(&self, name: &str) -> Result<usize, String> {
        if let Some(i) = self.columns.iter().position(|c| c == name) {
            return Ok(i);
        }
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.rsplit('.').next() == Some(name))
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(format!(
                "unknown column '{name}' (have: {})",
                self.columns.join(", ")
            )),
            _ => Err(format!("ambiguous column '{name}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_and_hash_consistency() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(5),
            Value::Float(2.5),
            Value::str("a"),
        ];
        for a in &vals {
            for b in &vals {
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b));
                    assert_eq!(a.cmp(b), Ordering::Equal);
                }
            }
        }
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert_eq!(
            Value::Float(f64::NAN).cmp(&Value::Float(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn sql_cmp_coerces_numerics() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("x").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(1).truthy());
        assert!(!Value::Null.truthy());
    }

    #[test]
    fn schema_resolution() {
        let s = Schema::of(&["t.a", "t.b", "u.b", "c"]);
        assert_eq!(s.resolve("t.a"), Ok(0));
        assert_eq!(s.resolve("a"), Ok(0));
        assert!(s.resolve("b").is_err()); // ambiguous
        assert_eq!(s.resolve("u.b"), Ok(2));
        assert_eq!(s.resolve("c"), Ok(3));
        assert!(s.resolve("zzz").is_err());
    }

    #[test]
    fn schema_qualify_and_concat() {
        let s = Schema::of(&["a", "x.b"]);
        let q = s.qualified("t");
        assert_eq!(q.columns(), &["t.a".to_string(), "t.b".to_string()]);
        let joined = q.concat(&Schema::of(&["u.c"]));
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.resolve("c"), Ok(2));
    }
}
