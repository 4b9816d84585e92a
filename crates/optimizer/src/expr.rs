//! Scalar expressions over tuples.
//!
//! A [`BoundExpr`] reads columns and literals by reference: comparing or
//! adding them clones no `Value`. Every predicate goes through one SQL
//! three-valued truth table, [`BoundExpr::test`]; the logic and comparisons
//! of [`BoundExpr::eval`] are `test` mapped to `Bool`/`Null`. Arithmetic
//! never fails a row: two `Int`s stay integral and every operation wraps
//! on overflow — `+ - *`, unary `-`, and `/` and `%` at `i64::MIN` and
//! `-1` (so `x / -1` is `x * -1` and `x % -1` is 0 for every `x`); `Int /
//! 0` and `Int % 0` are NULL. A `Float` operand widens both sides to
//! `f64`, so `Float / 0` is `inf`; a non-numeric or NULL operand yields
//! NULL.

use crate::value::{Schema, Tuple, Value};
use std::fmt;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
}

impl BinOp {
    /// The CQL surface syntax for this operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// An unbound scalar expression (column references by name).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A column reference, possibly qualified (`alias.col`).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary(Box<Expr>, BinOp, Box<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Builder for binary expressions.
    pub fn bin(lhs: Expr, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(Box::new(lhs), op, Box::new(rhs))
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::bin(self, BinOp::And, rhs)
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::bin(self, BinOp::Eq, rhs)
    }

    /// All column names referenced by the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.as_str());
            }
        });
        out
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary(l, _, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Unary(_, e) => e.visit(f),
            _ => {}
        }
    }

    /// Splits a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::Binary(l, BinOp::And, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// Re-joins conjuncts into one predicate (`true` literal when empty).
    pub fn conjoin(conjuncts: Vec<Expr>) -> Expr {
        conjuncts
            .into_iter()
            .reduce(|a, b| a.and(b))
            .unwrap_or(Expr::Literal(Value::Bool(true)))
    }

    /// Binds column names to indices against `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr, String> {
        Ok(match self {
            Expr::Column(name) => BoundExpr::Col(schema.resolve(name)?),
            Expr::Literal(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary(l, op, r) => {
                BoundExpr::Binary(Box::new(l.bind(schema)?), *op, Box::new(r.bind(schema)?))
            }
            Expr::Unary(op, e) => BoundExpr::Unary(*op, Box::new(e.bind(schema)?)),
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary(l, op, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Unary(UnOp::Not, e) => write!(f, "(NOT {e})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
        }
    }
}

/// An expression bound to a concrete schema: column references are indices,
/// evaluation needs no name resolution.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary(Box<BoundExpr>, BinOp, Box<BoundExpr>),
    /// Unary operation.
    Unary(UnOp, Box<BoundExpr>),
}

/// What an out-of-range column reads.
static NULL: Value = Value::Null;

impl BoundExpr {
    /// Evaluates against a tuple; logic and comparisons are
    /// [`test`](BoundExpr::test) mapped to `Bool`, UNKNOWN to `Null`.
    pub fn eval(&self, t: &Tuple) -> Value {
        match self {
            BoundExpr::Col(i) => t.get(*i).cloned().unwrap_or(Value::Null),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Unary(UnOp::Neg, e) => match e.operand(t, &mut Value::Null) {
                Value::Int(i) => Value::Int(i.wrapping_neg()),
                Value::Float(f) => Value::Float(-f),
                _ => Value::Null,
            },
            BoundExpr::Binary(
                l,
                op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem),
                r,
            ) => arith(
                l.operand(t, &mut Value::Null),
                *op,
                r.operand(t, &mut Value::Null),
            ),
            _ => self.test(t).map_or(Value::Null, Value::Bool),
        }
    }

    /// Evaluates as a predicate under SQL's three-valued logic (`None` is
    /// UNKNOWN; a `WHERE` keeps a row only on `Some(true)`). A comparison is
    /// UNKNOWN where [`Value::sql_cmp`] is `None`. `AND` and `OR` are Kleene's
    /// and read the right side only when the left does not decide (`FALSE
    /// AND x` is FALSE, `TRUE OR x` TRUE); `NOT` keeps UNKNOWN. Any other
    /// expression is its value if boolean, else UNKNOWN: `TRUE AND 5` is
    /// UNKNOWN, `FALSE AND 5` FALSE.
    pub fn test(&self, t: &Tuple) -> Option<bool> {
        match self {
            BoundExpr::Unary(UnOp::Not, e) => e.test(t).map(|b| !b),
            // Past the deciding value, `Option::and` finishes both tables: two
            // TRUEs (AND) or two FALSEs (OR) stay, any UNKNOWN is UNKNOWN.
            BoundExpr::Binary(l, BinOp::And, r) => match l.test(t) {
                Some(false) => Some(false),
                a => match r.test(t) {
                    Some(false) => Some(false),
                    b => a.and(b),
                },
            },
            BoundExpr::Binary(l, BinOp::Or, r) => match l.test(t) {
                Some(true) => Some(true),
                a => match r.test(t) {
                    Some(true) => Some(true),
                    b => a.and(b),
                },
            },
            BoundExpr::Binary(
                l,
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                r,
            ) => {
                let (mut a, mut b) = (Value::Null, Value::Null);
                let ord = l.operand(t, &mut a).sql_cmp(r.operand(t, &mut b))?;
                Some(match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::Ne => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                })
            }
            _ => match self.operand(t, &mut Value::Null) {
                Value::Bool(b) => Some(*b),
                _ => None,
            },
        }
    }

    /// The value of `self` by reference: a column or literal is borrowed in
    /// place, anything else is evaluated into `slot`.
    fn operand<'a>(&'a self, t: &'a Tuple, slot: &'a mut Value) -> &'a Value {
        match self {
            BoundExpr::Col(i) => t.get(*i).unwrap_or(&NULL),
            BoundExpr::Lit(v) => v,
            _ => {
                *slot = self.eval(t);
                slot
            }
        }
    }
}

fn arith(l: &Value, op: BinOp, r: &Value) -> Value {
    // Integer arithmetic stays integral; anything involving floats widens.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div if *b != 0 => Value::Int(a.wrapping_div(*b)),
            BinOp::Rem if *b != 0 => Value::Int(a.wrapping_rem(*b)),
            // `/ 0`, `% 0` and the logic operators.
            _ => Value::Null,
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinOp::Add => Value::Float(a + b),
            BinOp::Sub => Value::Float(a - b),
            BinOp::Mul => Value::Float(a * b),
            BinOp::Div => Value::Float(a / b),
            BinOp::Rem => Value::Float(a % b),
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&["t.a", "t.b", "t.name"])
    }

    fn row() -> Tuple {
        vec![Value::Int(10), Value::Float(2.5), Value::str("x")]
    }

    #[test]
    fn bind_and_eval_arithmetic() {
        let e = Expr::bin(Expr::col("a"), BinOp::Add, Expr::lit(5i64));
        let b = e.bind(&schema()).unwrap();
        assert_eq!(b.eval(&row()), Value::Int(15));

        let e = Expr::bin(Expr::col("a"), BinOp::Mul, Expr::col("b"));
        assert_eq!(e.bind(&schema()).unwrap().eval(&row()), Value::Float(25.0));
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::bin(Expr::col("a"), BinOp::Gt, Expr::lit(3i64)).and(Expr::bin(
            Expr::col("name"),
            BinOp::Eq,
            Expr::lit("x"),
        ));
        assert_eq!(e.bind(&schema()).unwrap().eval(&row()), Value::Bool(true));

        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::bin(Expr::col("a"), BinOp::Lt, Expr::lit(3i64))),
        );
        assert_eq!(e.bind(&schema()).unwrap().eval(&row()), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::bin(Expr::lit(1i64), BinOp::Div, Expr::lit(0i64));
        assert_eq!(e.bind(&schema()).unwrap().eval(&row()), Value::Null);
        // And null is not truthy, so such predicates drop rows.
        assert!(!Value::Null.truthy());
    }

    #[test]
    fn integer_overflow_wraps_in_every_operation() {
        let int = |i: i64| BoundExpr::Lit(Value::Int(i));
        let bin = |a, op, b| BoundExpr::Binary(Box::new(int(a)), op, Box::new(int(b)));
        for x in [i64::MIN, i64::MIN + 1, -7, 0, 7, i64::MAX] {
            assert_eq!(
                bin(x, BinOp::Div, -1).eval(&row()),
                bin(x, BinOp::Mul, -1).eval(&row()),
                "{x} / -1"
            );
            assert_eq!(bin(x, BinOp::Rem, -1).eval(&row()), Value::Int(0));
            assert_eq!(bin(x, BinOp::Rem, 0).eval(&row()), Value::Null);
        }
        let neg = BoundExpr::Unary(UnOp::Neg, Box::new(int(i64::MIN)));
        assert_eq!(neg.eval(&row()), Value::Int(i64::MIN));
    }

    #[test]
    fn logic_follows_kleene_tables() {
        let (t, f, u) = (Some(true), Some(false), None);
        let lit = |b: Option<bool>| BoundExpr::Lit(b.map_or(Value::Null, Value::Bool));
        let bin = |a, op, b| BoundExpr::Binary(Box::new(lit(a)), op, Box::new(lit(b)));
        // (left, right, AND, OR) over every pair of TRUE, FALSE, NULL.
        let table = [
            (t, t, t, t),
            (t, f, f, t),
            (t, u, u, t),
            (f, t, f, t),
            (f, f, f, f),
            (f, u, f, u),
            (u, t, u, t),
            (u, f, f, u),
            (u, u, u, u),
        ];
        for (a, b, and, or) in table {
            for (op, want) in [(BinOp::And, and), (BinOp::Or, or)] {
                let e = bin(a, op, b);
                assert_eq!(e.test(&row()), want, "{a:?} {op:?} {b:?}");
                assert_eq!(e.eval(&row()), lit(want).eval(&row()), "{a:?} {op:?} {b:?}");
            }
        }
        for (a, not) in [(t, f), (f, t), (u, u)] {
            let e = BoundExpr::Unary(UnOp::Not, Box::new(lit(a)));
            assert_eq!(e.test(&row()), not, "NOT {a:?}");
            assert_eq!(e.eval(&row()), lit(not).eval(&row()), "NOT {a:?}");
        }
        // NOT (FALSE AND NULL) is TRUE.
        let e = BoundExpr::Unary(UnOp::Not, Box::new(bin(f, BinOp::And, u)));
        assert_eq!(e.eval(&row()), Value::Bool(true));
        // A non-boolean operand is UNKNOWN: `a` is Int 10.
        let with_int = |b, op| BoundExpr::Binary(Box::new(lit(b)), op, Box::new(BoundExpr::Col(0)));
        assert_eq!(with_int(t, BinOp::And).eval(&row()), Value::Null);
        assert_eq!(with_int(f, BinOp::And).eval(&row()), Value::Bool(false));
        assert_eq!(with_int(t, BinOp::Or).eval(&row()), Value::Bool(true));
        assert_eq!(with_int(f, BinOp::Or).test(&row()), None);
    }

    #[test]
    fn integers_compare_exactly() {
        // 2^53 + 1 and 2^53 are one `f64`.
        let (big, next) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        let cmp = |op| {
            let e = BoundExpr::Binary(
                Box::new(BoundExpr::Lit(next.clone())),
                op,
                Box::new(BoundExpr::Lit(big.clone())),
            );
            e.eval(&row())
        };
        assert_eq!(cmp(BinOp::Eq), Value::Bool(false));
        assert_eq!(cmp(BinOp::Gt), Value::Bool(true));
        assert_eq!(cmp(BinOp::Le), Value::Bool(false));
    }

    #[test]
    fn type_mismatch_is_null() {
        let e = Expr::bin(Expr::col("name"), BinOp::Add, Expr::lit(1i64));
        assert_eq!(e.bind(&schema()).unwrap().eval(&row()), Value::Null);
    }

    #[test]
    fn conjunct_split_and_join() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit(2i64)))
            .and(Expr::col("name").eq(Expr::lit("x")));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        let rejoined = Expr::conjoin(parts);
        assert_eq!(rejoined.conjuncts().len(), 3);
    }

    #[test]
    fn unknown_column_fails_binding() {
        assert!(Expr::col("nope").bind(&schema()).is_err());
    }

    #[test]
    fn columns_listed() {
        let e = Expr::col("a").and(Expr::col("t.b").eq(Expr::lit(1i64)));
        assert_eq!(e.columns(), vec!["a", "t.b"]);
    }
}
