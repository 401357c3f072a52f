//! In-Memory Expressions (paper §V).
//!
//! "In-Memory Expressions are now supported on the Standby database and
//! provide even faster performance for complex, analytical expressions
//! used in reporting queries." An expression registered for an object is
//! evaluated **once per row at population time** and stored as an extra
//! encoded virtual column inside each IMCU (with its own storage-index
//! entry); scans filter on the precomputed column instead of re-evaluating
//! the expression per row. Stale rows fall back to evaluating the
//! expression over the row image fetched from the row store — the same
//! SMU reconciliation discipline as base columns.

use std::fmt;
use std::sync::Arc;

use imadg_common::{Error, Result};
use imadg_storage::{ColumnType, Row, Schema, Value};

use crate::bitmap::SelBitmap;
use crate::coldstore::{ColdMeta, ColdUnitFile};
use crate::imcu::Imcu;
use crate::predicate::{CmpOp, Predicate, RowPredicate};

/// A scalar expression over a row.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A base column by ordinal.
    Column(usize),
    /// An integer literal.
    IntLit(i64),
    /// A string literal.
    StrLit(Arc<str>),
    /// Integer addition (NULL-propagating).
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// String concatenation.
    Concat(Box<Expr>, Box<Expr>),
    /// Uppercase a string.
    Upper(Box<Expr>),
    /// Substring by byte range `[start, start+len)`, clamped.
    Substr(Box<Expr>, usize, usize),
    /// Integer CASE: if the operand is NULL yield the default literal.
    Coalesce(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: base column by name.
    pub fn col(schema: &Schema, name: &str) -> Result<Expr> {
        Ok(Expr::Column(schema.ordinal(name)?))
    }

    /// Evaluate against a row image. NULL propagates through arithmetic
    /// and string operators (SQL semantics).
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            Expr::Column(ord) => row.get(*ord).clone(),
            Expr::IntLit(v) => Value::Int(*v),
            Expr::StrLit(s) => Value::Str(s.clone()),
            Expr::Add(a, b) => int_op(a.eval(row), b.eval(row), i64::wrapping_add),
            Expr::Sub(a, b) => int_op(a.eval(row), b.eval(row), i64::wrapping_sub),
            Expr::Mul(a, b) => int_op(a.eval(row), b.eval(row), i64::wrapping_mul),
            Expr::Concat(a, b) => match (a.eval(row), b.eval(row)) {
                (Value::Str(x), Value::Str(y)) => Value::str(format!("{x}{y}")),
                _ => Value::Null,
            },
            Expr::Upper(a) => match a.eval(row) {
                Value::Str(s) => Value::str(s.to_uppercase()),
                _ => Value::Null,
            },
            Expr::Substr(a, start, len) => match a.eval(row) {
                Value::Str(s) => {
                    let start = (*start).min(s.len());
                    let end = (start + *len).min(s.len());
                    Value::str(&s[start..end])
                }
                _ => Value::Null,
            },
            Expr::Coalesce(a, b) => match a.eval(row) {
                Value::Null => b.eval(row),
                v => v,
            },
        }
    }

    /// The expression's result type under `schema` (used to pick the
    /// virtual column's encoding).
    pub fn result_type(&self, schema: &Schema) -> Result<ColumnType> {
        match self {
            Expr::Column(ord) => {
                let def = schema
                    .all_columns()
                    .get(*ord)
                    .ok_or_else(|| Error::UnknownColumn(format!("ordinal {ord}")))?;
                Ok(def.ctype)
            }
            Expr::IntLit(_) => Ok(ColumnType::Int),
            Expr::StrLit(_) => Ok(ColumnType::Varchar),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                expect(schema, a, ColumnType::Int)?;
                expect(schema, b, ColumnType::Int)?;
                Ok(ColumnType::Int)
            }
            Expr::Concat(a, b) => {
                expect(schema, a, ColumnType::Varchar)?;
                expect(schema, b, ColumnType::Varchar)?;
                Ok(ColumnType::Varchar)
            }
            Expr::Upper(a) | Expr::Substr(a, _, _) => {
                expect(schema, a, ColumnType::Varchar)?;
                Ok(ColumnType::Varchar)
            }
            Expr::Coalesce(a, b) => {
                let ta = a.result_type(schema)?;
                expect(schema, b, ta)?;
                Ok(ta)
            }
        }
    }
}

fn expect(schema: &Schema, e: &Expr, want: ColumnType) -> Result<()> {
    let got = e.result_type(schema)?;
    if got != want {
        return Err(Error::TypeMismatch { column: format!("{e}") });
    }
    Ok(())
}

fn int_op(a: Value, b: Value, f: fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(f(x, y)),
        _ => Value::Null,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(o) => write!(f, "col#{o}"),
            Expr::IntLit(v) => write!(f, "{v}"),
            Expr::StrLit(s) => write!(f, "'{s}'"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Concat(a, b) => write!(f, "({a} || {b})"),
            Expr::Upper(a) => write!(f, "UPPER({a})"),
            Expr::Substr(a, s, l) => write!(f, "SUBSTR({a}, {s}, {l})"),
            Expr::Coalesce(a, b) => write!(f, "COALESCE({a}, {b})"),
        }
    }
}

/// A named in-memory expression registered for an object.
#[derive(Debug, Clone)]
pub struct ImExpression {
    /// Virtual-column name (unique per object).
    pub name: String,
    /// The expression.
    pub expr: Arc<Expr>,
}

impl ImExpression {
    /// Build a named expression.
    pub fn new(name: impl Into<String>, expr: Expr) -> ImExpression {
        ImExpression { name: name.into(), expr: Arc::new(expr) }
    }
}

/// A predicate over a registered in-memory expression (paper §V):
/// `<expr> <op> <literal>`, filtered through the precomputed virtual
/// column when a unit materialized it, or by evaluating the expression
/// over row images otherwise — correctness never depends on the virtual
/// column being present.
#[derive(Debug, Clone)]
pub struct ExprPredicate {
    /// The registered expression's name.
    pub name: String,
    /// The expression (for row-image fallback evaluation).
    pub expr: Arc<Expr>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl ExprPredicate {
    /// Evaluate against a row image.
    pub fn eval_row(&self, row: &Row) -> bool {
        self.op.eval(&self.expr.eval(row), &self.value)
    }

    /// The same comparison on the materialized virtual column `ordinal`.
    fn on_column(&self, ordinal: usize) -> Predicate {
        Predicate { ordinal, op: self.op, value: self.value.clone() }
    }

    /// Evaluate over every materialized row of a unit that predates the
    /// expression's registration (correct, just not accelerated).
    fn eval_rows(&self, imcu: &Imcu) -> SelBitmap {
        let mut sel = SelBitmap::zeroes(imcu.rows());
        for rn in imcu.all_rows() {
            if self.eval_row(&imcu.materialize(rn)) {
                sel.set(rn as usize);
            }
        }
        sel
    }
}

impl RowPredicate for ExprPredicate {
    fn matches_row(&self, row: &Row) -> bool {
        self.eval_row(row)
    }

    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap> {
        match imcu.virtual_ordinal(&self.name) {
            // Materialized at population: filter the encoded virtual column
            // like any base column, storage-index pruning included.
            Some(vord) => {
                let vpred = self.on_column(vord);
                imcu.storage_index.may_match(&vpred).then(|| imcu.pred_bitmap(&vpred))
            }
            None => Some(self.eval_rows(imcu)),
        }
    }

    fn cold_prunes(&self, meta: &ColdMeta) -> bool {
        // Without a materialized virtual column the footer min/max says
        // nothing about the expression's value range.
        meta.virtual_ordinal(&self.name)
            .is_some_and(|v| !meta.summaries.may_match(&self.on_column(v)))
    }

    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap> {
        match file.meta.virtual_ordinal(&self.name) {
            // Decode only the virtual column and filter it.
            Some(vord) => {
                let col = file.decode_column(vord)?;
                let mut sel = SelBitmap::zeroes(file.meta.rows);
                col.scan_bitmap(&self.on_column(vord), &mut sel);
                Some(sel)
            }
            // File predates the registration: decode every base column.
            None => Some(self.eval_rows(&file.into_imcu()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[("n", ColumnType::Int), ("m", ColumnType::Int), ("c", ColumnType::Varchar)])
    }

    fn row(n: i64, m: i64, c: &str) -> Row {
        Row::new(vec![Value::Int(n), Value::Int(m), Value::str(c)])
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let e = Expr::Add(
            Box::new(Expr::Mul(Box::new(Expr::col(&s, "n").unwrap()), Box::new(Expr::IntLit(10)))),
            Box::new(Expr::col(&s, "m").unwrap()),
        );
        assert_eq!(e.eval(&row(3, 4, "x")), Value::Int(34));
        assert_eq!(e.result_type(&s).unwrap(), ColumnType::Int);
    }

    #[test]
    fn null_propagates() {
        let s = schema();
        let e = Expr::Add(Box::new(Expr::col(&s, "n").unwrap()), Box::new(Expr::IntLit(1)));
        let r = Row::new(vec![Value::Null, Value::Int(1), Value::str("x")]);
        assert_eq!(e.eval(&r), Value::Null);
        let c = Expr::Coalesce(Box::new(Expr::col(&s, "n").unwrap()), Box::new(Expr::IntLit(-1)));
        assert_eq!(c.eval(&r), Value::Int(-1));
        assert_eq!(c.eval(&row(5, 0, "x")), Value::Int(5));
    }

    #[test]
    fn string_ops() {
        let s = schema();
        let e = Expr::Upper(Box::new(Expr::Concat(
            Box::new(Expr::col(&s, "c").unwrap()),
            Box::new(Expr::StrLit("!".into())),
        )));
        assert_eq!(e.eval(&row(0, 0, "ab")), Value::str("AB!"));
        assert_eq!(e.result_type(&s).unwrap(), ColumnType::Varchar);
        let sub = Expr::Substr(Box::new(Expr::col(&s, "c").unwrap()), 1, 2);
        assert_eq!(sub.eval(&row(0, 0, "hello")), Value::str("el"));
        assert_eq!(sub.eval(&row(0, 0, "h")), Value::str(""));
    }

    #[test]
    fn type_checking_rejects_mismatches() {
        let s = schema();
        let bad = Expr::Add(Box::new(Expr::col(&s, "c").unwrap()), Box::new(Expr::IntLit(1)));
        assert!(bad.result_type(&s).is_err());
        let bad = Expr::Upper(Box::new(Expr::col(&s, "n").unwrap()));
        assert!(bad.result_type(&s).is_err());
    }

    #[test]
    fn display_is_readable() {
        let s = schema();
        let e = Expr::Mul(Box::new(Expr::col(&s, "n").unwrap()), Box::new(Expr::IntLit(2)));
        assert_eq!(format!("{e}"), "(col#0 * 2)");
    }
}
