//! `BoundExpr::eval` and `BoundExpr::test` against a reference evaluator
//! that shares no code with the engine: random bound expressions of depth
//! ≤ 4 over random rows of NULLs, booleans, ints (small, near 2^53 and at
//! the ends of `i64`), floats (±0.0, a tie with an int, huge) and strings.
//!
//! The reference is transcribed from `expr.rs`'s documented rules and uses
//! none of `eval`, `test`, `Value::sql_cmp` or `Value`'s `Ord`/`Eq`; it works
//! on its own value type, [`R`]:
//!
//! * `AND`, `OR` and `NOT` are Kleene's tables, written out as arrays;
//! * comparisons: NULL is UNKNOWN, two ints compare exactly as `i64`, an
//!   int and a float (or two floats) through `f64` under `total_cmp`,
//!   booleans and strings among themselves, any other mix is UNKNOWN;
//! * arithmetic: two ints stay integral, `+ - *` and negation wrap, `/ 0`
//!   and `% 0` are NULL, `x / -1` is `x * -1` and `x % -1` is 0 (so
//!   `i64::MIN / -1` wraps to `i64::MIN`); a float operand widens both
//!   sides to `f64`; anything else NULL.

use pipes_optimizer::{BinOp, BoundExpr, UnOp, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

/// A reference value; floats are equal when their bits are (or both NaN).
#[derive(Clone, Debug)]
enum R {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'static str),
}

impl PartialEq for R {
    fn eq(&self, other: &R) -> bool {
        match (self, other) {
            (R::Null, R::Null) => true,
            (R::Bool(a), R::Bool(b)) => a == b,
            (R::Int(a), R::Int(b)) => a == b,
            (R::Float(a), R::Float(b)) => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            (R::Str(a), R::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl R {
    fn to_value(&self) -> Value {
        match self {
            R::Null => Value::Null,
            R::Bool(b) => Value::Bool(*b),
            R::Int(i) => Value::Int(*i),
            R::Float(f) => Value::Float(*f),
            R::Str(s) => Value::str(s),
        }
    }

    fn of(v: &Value) -> R {
        match v {
            Value::Null => R::Null,
            Value::Bool(b) => R::Bool(*b),
            Value::Int(i) => R::Int(*i),
            Value::Float(f) => R::Float(*f),
            Value::Str(s) => R::Str(
                STRS.into_iter()
                    .find(|x| **x == **s)
                    .expect("a known string"),
            ),
        }
    }
}

const STRS: [&str; 3] = ["", "a", "b"];

/// Truth values as indices: TRUE, FALSE, UNKNOWN.
const T: usize = 0;
const F: usize = 1;
const U: usize = 2;
const AND: [[usize; 3]; 3] = [[T, F, U], [F, F, F], [U, F, U]];
const OR: [[usize; 3]; 3] = [[T, T, T], [T, F, U], [T, U, U]];
const NOT: [usize; 3] = [F, T, U];

/// A generated expression: the reference reads this, the engine its
/// [`Node::bound`] form.
#[derive(Clone, Debug)]
enum Node {
    Col(usize),
    Lit(R),
    Bin(Box<Node>, BinOp, Box<Node>),
    Un(UnOp, Box<Node>),
}

impl Node {
    fn bound(&self) -> BoundExpr {
        match self {
            Node::Col(i) => BoundExpr::Col(*i),
            Node::Lit(v) => BoundExpr::Lit(v.to_value()),
            Node::Bin(l, op, r) => BoundExpr::Binary(Box::new(l.bound()), *op, Box::new(r.bound())),
            Node::Un(op, e) => BoundExpr::Unary(*op, Box::new(e.bound())),
        }
    }
}

fn truth(v: &R) -> usize {
    match v {
        R::Bool(true) => T,
        R::Bool(false) => F,
        _ => U,
    }
}

fn of_truth(t: usize) -> R {
    [R::Bool(true), R::Bool(false), R::Null][t].clone()
}

fn compare(l: &R, r: &R) -> Option<Ordering> {
    match (l, r) {
        (R::Int(a), R::Int(b)) => Some(a.cmp(b)),
        (R::Int(a), R::Float(b)) => Some((*a as f64).total_cmp(b)),
        (R::Float(a), R::Int(b)) => Some(a.total_cmp(&(*b as f64))),
        (R::Float(a), R::Float(b)) => Some(a.total_cmp(b)),
        (R::Bool(a), R::Bool(b)) => Some(a.cmp(b)),
        (R::Str(a), R::Str(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

fn arith(l: &R, op: BinOp, r: &R) -> R {
    let float = |x: &R| match x {
        R::Int(i) => Some(*i as f64),
        R::Float(f) => Some(*f),
        _ => None,
    };
    if let (R::Int(a), R::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => R::Int(a.wrapping_add(b)),
            BinOp::Sub => R::Int(a.wrapping_sub(b)),
            BinOp::Mul => R::Int(a.wrapping_mul(b)),
            _ if b == 0 => R::Null,
            BinOp::Div if b == -1 => R::Int(a.wrapping_mul(-1)),
            BinOp::Div => R::Int(a / b),
            _ if b == -1 => R::Int(0),
            _ => R::Int(a % b),
        };
    }
    let (Some(a), Some(b)) = (float(l), float(r)) else {
        return R::Null;
    };
    R::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => a % b,
    })
}

/// The reference value of `e` over `row`; every operand is evaluated.
fn reference(e: &Node, row: &[R]) -> R {
    match e {
        Node::Col(i) => row.get(*i).cloned().unwrap_or(R::Null),
        Node::Lit(v) => v.clone(),
        Node::Un(UnOp::Not, e) => of_truth(NOT[truth(&reference(e, row))]),
        Node::Un(UnOp::Neg, e) => match reference(e, row) {
            R::Int(i) => R::Int(0i64.wrapping_sub(i)),
            R::Float(f) => R::Float(-f),
            _ => R::Null,
        },
        Node::Bin(l, op, r) => {
            let (a, b) = (reference(l, row), reference(r, row));
            let cmp = compare(&a, &b);
            let truth_of = |holds: fn(Ordering) -> bool| {
                of_truth(cmp.map_or(U, |o| [F, T][holds(o) as usize]))
            };
            match op {
                BinOp::And => of_truth(AND[truth(&a)][truth(&b)]),
                BinOp::Or => of_truth(OR[truth(&a)][truth(&b)]),
                BinOp::Eq => truth_of(|o| o == Ordering::Equal),
                BinOp::Ne => truth_of(|o| o != Ordering::Equal),
                BinOp::Lt => truth_of(|o| o == Ordering::Less),
                BinOp::Le => truth_of(|o| o != Ordering::Greater),
                BinOp::Gt => truth_of(|o| o == Ordering::Greater),
                BinOp::Ge => truth_of(|o| o != Ordering::Less),
                _ => arith(&a, *op, &b),
            }
        }
    }
}

/// Two pairs of ints that one `f64` cannot tell apart: 2^53 and 2^53 + 1,
/// `i64::MAX - 1` and `i64::MAX`.
const INTS: [i64; 8] = [
    -1,
    0,
    2,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX - 1,
    i64::MAX,
    i64::MIN,
];
const FLOATS: [f64; 6] = [0.0, -0.0, 0.5, 2.0, 9_007_199_254_740_992.0, 1e300];

/// Ints twice as often as each other type.
fn arb_value() -> impl Strategy<Value = R> {
    (0u32..6, 0usize..INTS.len()).prop_map(|(kind, i)| match kind {
        0 => R::Null,
        1 => R::Bool(i % 2 == 0),
        2 | 3 => R::Int(INTS[i]),
        4 => R::Float(FLOATS[i % FLOATS.len()]),
        _ => R::Str(STRS[i % STRS.len()]),
    })
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::And,
    BinOp::Or,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
];

/// Rows have three columns; column 3 is out of range and reads NULL.
const WIDTH: usize = 3;

/// Predicates (the first eight operators) and arithmetic equally often.
fn arb_expr() -> BoxedStrategy<Node> {
    let leaf = prop_oneof![
        (0usize..=WIDTH).prop_map(Node::Col),
        arb_value().prop_map(Node::Lit),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        let bin = |ops| {
            (inner.clone(), ops, inner.clone()).prop_map(|(l, op, r): (Node, usize, Node)| {
                Node::Bin(Box::new(l), BIN_OPS[op], Box::new(r))
            })
        };
        prop_oneof![
            bin(0..8),
            bin(8..BIN_OPS.len()),
            (0usize..2, inner.clone())
                .prop_map(|(op, e)| Node::Un([UnOp::Not, UnOp::Neg][op], Box::new(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn eval_and_test_match_the_reference(
        e in arb_expr(),
        rows in prop::collection::vec(prop::collection::vec(arb_value(), WIDTH), 1..6),
    ) {
        let bound = e.bound();
        for row in &rows {
            let want = reference(&e, row);
            let tuple: Vec<Value> = row.iter().map(R::to_value).collect();
            prop_assert_eq!(R::of(&bound.eval(&tuple)), want.clone(), "eval {:?} over {:?}", e, row);
            let test = bound.test(&tuple).map_or(U, |b| [F, T][b as usize]);
            prop_assert_eq!(test, truth(&want), "test {:?} over {:?}", e, row);
        }
    }
}
