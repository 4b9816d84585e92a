//! Plan persistence: a textual s-expression format for logical plans.
//!
//! The PIPES demo stores query plans built in its GUI as XML files and
//! re-instantiates them later. This module provides the equivalent
//! round-trippable persistence for [`LogicalPlan`]s:
//!
//! ```text
//! (filter (bin Ge (col v) (lit int 15))
//!   (window (time 8000)
//!     (stream s)))
//! ```

use crate::expr::{BinOp, Expr, UnOp};
use crate::plan::{AggFunc, AggSpec, LogicalPlan, WindowSpec};
use crate::value::Value;
use pipes_time::Duration;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes a plan to the textual format.
pub fn to_string(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    write_plan(plan, &mut out);
    out
}

fn write_plan(plan: &LogicalPlan, out: &mut String) {
    match plan {
        LogicalPlan::Stream { name, alias } => match alias {
            Some(a) => {
                let _ = write!(out, "(stream {} {})", atom(name), atom(a));
            }
            None => {
                let _ = write!(out, "(stream {})", atom(name));
            }
        },
        LogicalPlan::Window { input, spec } => {
            out.push_str("(window ");
            match spec {
                WindowSpec::Time(d) => {
                    let _ = write!(out, "(time {})", d.ticks());
                }
                WindowSpec::Rows(n) => {
                    let _ = write!(out, "(rows {n})");
                }
                WindowSpec::PartitionRows(cols, n) => {
                    let _ = write!(out, "(partition-rows {n}");
                    for c in cols {
                        let _ = write!(out, " {}", atom(c));
                    }
                    out.push(')');
                }
                WindowSpec::Now => out.push_str("(now)"),
            }
            out.push(' ');
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Filter { input, predicate } => {
            out.push_str("(filter ");
            write_expr(predicate, out);
            out.push(' ');
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Project { input, exprs } => {
            out.push_str("(project (");
            for (e, n) in exprs {
                out.push_str("(as ");
                write_expr(e, out);
                let _ = write!(out, " {})", atom(n));
            }
            out.push_str(") ");
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            out.push_str("(join ");
            write_expr(predicate, out);
            out.push(' ');
            write_plan(left, out);
            out.push(' ');
            write_plan(right, out);
            out.push(')');
        }
        LogicalPlan::RelationJoin {
            input,
            relation,
            alias,
            stream_key,
        } => {
            let _ = write!(out, "(rel-join {} ", atom(relation));
            match alias {
                Some(a) => {
                    let _ = write!(out, "{} ", atom(a));
                }
                None => out.push_str("_ "),
            }
            write_expr(stream_key, out);
            out.push(' ');
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            out.push_str("(aggregate (");
            for (e, n) in group_by {
                out.push_str("(as ");
                write_expr(e, out);
                let _ = write!(out, " {})", atom(n));
            }
            out.push_str(") (");
            for (a, n) in aggs {
                let _ = write!(out, "({} ", a.func.name().to_lowercase());
                write_expr(&a.arg, out);
                let _ = write!(out, " {})", atom(n));
            }
            out.push_str(") ");
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Distinct { input } => {
            out.push_str("(distinct ");
            write_plan(input, out);
            out.push(')');
        }
        LogicalPlan::Union { inputs } => {
            out.push_str("(union");
            for i in inputs {
                out.push(' ');
                write_plan(i, out);
            }
            out.push(')');
        }
        LogicalPlan::Difference { left, right } => {
            out.push_str("(difference ");
            write_plan(left, out);
            out.push(' ');
            write_plan(right, out);
            out.push(')');
        }
        LogicalPlan::Every { input, period } => {
            let _ = write!(out, "(every {} ", period.ticks());
            write_plan(input, out);
            out.push(')');
        }
    }
}

fn write_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Column(c) => {
            let _ = write!(out, "(col {})", atom(c));
        }
        Expr::Literal(v) => match v {
            Value::Null => out.push_str("(lit null)"),
            Value::Bool(b) => {
                let _ = write!(out, "(lit bool {b})");
            }
            Value::Int(i) => {
                let _ = write!(out, "(lit int {i})");
            }
            Value::Float(f) => {
                let _ = write!(out, "(lit float {f})");
            }
            Value::Str(s) => {
                let _ = write!(
                    out,
                    "(lit str \"{}\")",
                    s.replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
        },
        Expr::Binary(l, op, r) => {
            let _ = write!(out, "(bin {:?} ", op);
            write_expr(l, out);
            out.push(' ');
            write_expr(r, out);
            out.push(')');
        }
        Expr::Unary(op, x) => {
            let _ = write!(out, "(un {:?} ", op);
            write_expr(x, out);
            out.push(')');
        }
    }
}

fn atom(s: &str) -> String {
    if !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "._-[]".contains(c))
    {
        s.to_string()
    } else {
        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SExp {
    Atom(String),
    Str(String),
    List(Vec<SExp>),
}

struct Reader<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn read(&mut self) -> Result<SExp, String> {
        self.skip_ws();
        match self.chars.peek() {
            None => Err("unexpected end of input".into()),
            Some('(') => {
                self.chars.next();
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.chars.peek() {
                        Some(')') => {
                            self.chars.next();
                            return Ok(SExp::List(items));
                        }
                        None => return Err("unterminated list".into()),
                        _ => items.push(self.read()?),
                    }
                }
            }
            Some(')') => Err("unexpected ')'".into()),
            Some('"') => {
                self.chars.next();
                let mut s = String::new();
                loop {
                    match self.chars.next() {
                        None => return Err("unterminated string".into()),
                        Some('"') => return Ok(SExp::Str(s)),
                        Some('\\') => match self.chars.next() {
                            Some(c) => s.push(c),
                            None => return Err("dangling escape".into()),
                        },
                        Some(c) => s.push(c),
                    }
                }
            }
            Some(_) => {
                let mut s = String::new();
                while let Some(&c) = self.chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' {
                        break;
                    }
                    s.push(c);
                    self.chars.next();
                }
                Ok(SExp::Atom(s))
            }
        }
    }
}

impl SExp {
    fn text(&self) -> Result<&str, String> {
        match self {
            SExp::Atom(s) | SExp::Str(s) => Ok(s),
            SExp::List(_) => Err("expected atom, found list".into()),
        }
    }

    fn list(&self) -> Result<&[SExp], String> {
        match self {
            SExp::List(items) => Ok(items),
            _ => Err(format!("expected list, found {self:?}")),
        }
    }
}

/// Parses a plan from the textual format.
pub fn from_str(input: &str) -> Result<LogicalPlan, String> {
    let sexp = Reader {
        chars: input.chars().peekable(),
    }
    .read()?;
    parse_plan(&sexp)
}

fn parse_plan(s: &SExp) -> Result<LogicalPlan, String> {
    let items = s.list()?;
    let head = items
        .first()
        .ok_or_else(|| "empty plan form".to_string())?
        .text()?;
    match head {
        "stream" => match items.len() {
            2 => Ok(LogicalPlan::Stream {
                name: items[1].text()?.to_string(),
                alias: None,
            }),
            3 => Ok(LogicalPlan::Stream {
                name: items[1].text()?.to_string(),
                alias: Some(items[2].text()?.to_string()),
            }),
            _ => Err("stream takes 1-2 arguments".into()),
        },
        "window" => {
            let spec_items = items[1].list()?;
            let kind = spec_items[0].text()?;
            let spec = match kind {
                "time" => WindowSpec::Time(Duration::from_ticks(parse_u64(&spec_items[1])?)),
                "rows" => WindowSpec::Rows(parse_u64(&spec_items[1])? as usize),
                "now" => WindowSpec::Now,
                "partition-rows" => {
                    let n = parse_u64(&spec_items[1])? as usize;
                    let cols = spec_items[2..]
                        .iter()
                        .map(|c| c.text().map(str::to_string))
                        .collect::<Result<_, _>>()?;
                    WindowSpec::PartitionRows(cols, n)
                }
                other => return Err(format!("unknown window kind '{other}'")),
            };
            Ok(LogicalPlan::Window {
                input: Box::new(parse_plan(&items[2])?),
                spec,
            })
        }
        "filter" => Ok(LogicalPlan::Filter {
            predicate: parse_expr(&items[1])?,
            input: Box::new(parse_plan(&items[2])?),
        }),
        "project" => {
            let exprs = items[1]
                .list()?
                .iter()
                .map(parse_named_expr)
                .collect::<Result<_, _>>()?;
            Ok(LogicalPlan::Project {
                exprs,
                input: Box::new(parse_plan(&items[2])?),
            })
        }
        "join" => Ok(LogicalPlan::Join {
            predicate: parse_expr(&items[1])?,
            left: Box::new(parse_plan(&items[2])?),
            right: Box::new(parse_plan(&items[3])?),
        }),
        "rel-join" => {
            let alias = match items[2].text()? {
                "_" => None,
                a => Some(a.to_string()),
            };
            Ok(LogicalPlan::RelationJoin {
                relation: items[1].text()?.to_string(),
                alias,
                stream_key: parse_expr(&items[3])?,
                input: Box::new(parse_plan(&items[4])?),
            })
        }
        "aggregate" => {
            let group_by = items[1]
                .list()?
                .iter()
                .map(parse_named_expr)
                .collect::<Result<_, _>>()?;
            let aggs = items[2]
                .list()?
                .iter()
                .map(|a| {
                    let parts = a.list()?;
                    let func = match parts[0].text()? {
                        "count" => AggFunc::Count,
                        "sum" => AggFunc::Sum,
                        "avg" => AggFunc::Avg,
                        "min" => AggFunc::Min,
                        "max" => AggFunc::Max,
                        other => return Err(format!("unknown aggregate '{other}'")),
                    };
                    Ok((
                        AggSpec {
                            func,
                            arg: parse_expr(&parts[1])?,
                        },
                        parts[2].text()?.to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?;
            Ok(LogicalPlan::Aggregate {
                group_by,
                aggs,
                input: Box::new(parse_plan(&items[3])?),
            })
        }
        "distinct" => Ok(LogicalPlan::Distinct {
            input: Box::new(parse_plan(&items[1])?),
        }),
        "union" => Ok(LogicalPlan::Union {
            inputs: items[1..]
                .iter()
                .map(parse_plan)
                .collect::<Result<_, _>>()?,
        }),
        "difference" => Ok(LogicalPlan::Difference {
            left: Box::new(parse_plan(&items[1])?),
            right: Box::new(parse_plan(&items[2])?),
        }),
        "every" => Ok(LogicalPlan::Every {
            period: Duration::from_ticks(parse_u64(&items[1])?),
            input: Box::new(parse_plan(&items[2])?),
        }),
        other => Err(format!("unknown plan form '{other}'")),
    }
}

fn parse_named_expr(s: &SExp) -> Result<(Expr, String), String> {
    let items = s.list()?;
    if items.len() != 3 || items[0].text()? != "as" {
        return Err("expected (as <expr> <name>)".into());
    }
    Ok((parse_expr(&items[1])?, items[2].text()?.to_string()))
}

fn parse_expr(s: &SExp) -> Result<Expr, String> {
    let items = s.list()?;
    match items[0].text()? {
        "col" => Ok(Expr::Column(items[1].text()?.to_string())),
        "lit" => {
            let v = match items[1].text()? {
                "null" => Value::Null,
                "bool" => Value::Bool(items[2].text()? == "true"),
                "int" => Value::Int(
                    items[2]
                        .text()?
                        .parse()
                        .map_err(|e| format!("bad int: {e}"))?,
                ),
                "float" => Value::Float(
                    items[2]
                        .text()?
                        .parse()
                        .map_err(|e| format!("bad float: {e}"))?,
                ),
                "str" => Value::str(items[2].text()?),
                other => return Err(format!("unknown literal kind '{other}'")),
            };
            Ok(Expr::Literal(v))
        }
        "bin" => {
            let op = match items[1].text()? {
                "And" => BinOp::And,
                "Or" => BinOp::Or,
                "Eq" => BinOp::Eq,
                "Ne" => BinOp::Ne,
                "Lt" => BinOp::Lt,
                "Le" => BinOp::Le,
                "Gt" => BinOp::Gt,
                "Ge" => BinOp::Ge,
                "Add" => BinOp::Add,
                "Sub" => BinOp::Sub,
                "Mul" => BinOp::Mul,
                "Div" => BinOp::Div,
                "Rem" => BinOp::Rem,
                other => return Err(format!("unknown operator '{other}'")),
            };
            Ok(Expr::Binary(
                Box::new(parse_expr(&items[2])?),
                op,
                Box::new(parse_expr(&items[3])?),
            ))
        }
        "un" => {
            let op = match items[1].text()? {
                "Not" => UnOp::Not,
                "Neg" => UnOp::Neg,
                other => return Err(format!("unknown unary operator '{other}'")),
            };
            Ok(Expr::Unary(op, Box::new(parse_expr(&items[2])?)))
        }
        other => Err(format!("unknown expression form '{other}'")),
    }
}

fn parse_u64(s: &SExp) -> Result<u64, String> {
    s.text()?.parse().map_err(|e| format!("bad number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(plan: &LogicalPlan) {
        let text = to_string(plan);
        let back = from_str(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(&back, plan, "round-trip changed plan:\n{text}");
    }

    #[test]
    fn roundtrip_simple_chain() {
        roundtrip(&LogicalPlan::Filter {
            predicate: Expr::bin(Expr::col("v"), BinOp::Ge, Expr::lit(15i64)),
            input: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "s".into(),
                    alias: Some("x".into()),
                }),
                spec: WindowSpec::Time(Duration::from_ticks(8000)),
            }),
        });
    }

    #[test]
    fn roundtrip_all_node_kinds() {
        let base = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Stream {
                name: "s".into(),
                alias: None,
            }),
            spec: WindowSpec::PartitionRows(vec!["k".into()], 7),
        };
        roundtrip(&LogicalPlan::Every {
            period: Duration::from_ticks(100),
            input: Box::new(LogicalPlan::Aggregate {
                group_by: vec![(Expr::col("k"), "k".into())],
                aggs: vec![
                    (
                        AggSpec {
                            func: AggFunc::Max,
                            arg: Expr::col("v"),
                        },
                        "m".into(),
                    ),
                    (
                        AggSpec {
                            func: AggFunc::Count,
                            arg: Expr::lit(0i64),
                        },
                        "c".into(),
                    ),
                ],
                input: Box::new(LogicalPlan::Distinct {
                    input: Box::new(base.clone()),
                }),
            }),
        });
        roundtrip(&LogicalPlan::Union {
            inputs: vec![base.clone(), base.clone()],
        });
        roundtrip(&LogicalPlan::Difference {
            left: Box::new(base.clone()),
            right: Box::new(base.clone()),
        });
        roundtrip(&LogicalPlan::Join {
            predicate: Expr::col("a").eq(Expr::col("b")),
            left: Box::new(base.clone()),
            right: Box::new(base.clone()),
        });
        roundtrip(&LogicalPlan::RelationJoin {
            relation: "dim".into(),
            alias: None,
            stream_key: Expr::col("k"),
            input: Box::new(base.clone()),
        });
        roundtrip(&LogicalPlan::Project {
            exprs: vec![(
                Expr::Unary(UnOp::Neg, Box::new(Expr::col("v"))),
                "neg".into(),
            )],
            input: Box::new(base),
        });
    }

    #[test]
    fn roundtrip_literals_and_strings() {
        roundtrip(&LogicalPlan::Filter {
            predicate: Expr::col("name")
                .eq(Expr::lit("weird \"quoted\" na\\me"))
                .and(Expr::bin(Expr::col("f"), BinOp::Lt, Expr::lit(2.5f64)))
                .and(Expr::col("b").eq(Expr::Literal(Value::Bool(true))))
                .and(Expr::col("n").eq(Expr::Literal(Value::Null))),
            input: Box::new(LogicalPlan::Stream {
                name: "s".into(),
                alias: None,
            }),
        });
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str("(unknown-node)").is_err());
        assert!(from_str("(stream").is_err());
        assert!(from_str("").is_err());
        assert!(from_str("(filter (bogus) (stream s))").is_err());
    }
}
