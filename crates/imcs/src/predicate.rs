//! Scan predicates.
//!
//! The paper's analytic queries are selective single-column filters over
//! the wide OLTAP table (Table 1: `WHERE n1 = :1`, `WHERE c1 = :2`). The
//! scan engine evaluates predicates directly against encoded column units
//! and falls back to row-image evaluation for invalid rows.

use imadg_common::{Error, Result};
use imadg_storage::{Row, Schema, Value};

use crate::bitmap::SelBitmap;
use crate::coldstore::{ColdMeta, ColdUnitFile};
use crate::imcu::Imcu;

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply to a comparison ordering result.
    #[inline]
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Compare `v` against `literal`. SQL semantics: NULL (or a type
    /// mismatch) never matches.
    #[inline]
    pub fn eval(self, v: &Value, literal: &Value) -> bool {
        match (v, literal) {
            (Value::Int(a), Value::Int(b)) => self.matches(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => self.matches(a.as_ref().cmp(b.as_ref())),
            _ => false,
        }
    }
}

/// One column comparison: `column <op> literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Ordinal of the column in the stored row layout.
    pub ordinal: usize,
    /// Operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl Predicate {
    /// Build a predicate by column name against `schema`.
    pub fn new(schema: &Schema, column: &str, op: CmpOp, value: Value) -> Result<Predicate> {
        let ordinal = schema.ordinal(column)?;
        let def = schema.column(column)?;
        if !value.matches_type(def.ctype) {
            return Err(Error::TypeMismatch { column: column.to_string() });
        }
        Ok(Predicate { ordinal, op, value })
    }

    /// Equality shorthand.
    pub fn eq(schema: &Schema, column: &str, value: Value) -> Result<Predicate> {
        Predicate::new(schema, column, CmpOp::Eq, value)
    }

    /// Evaluate against one value. SQL semantics: NULL never matches.
    #[inline]
    pub fn eval_value(&self, v: &Value) -> bool {
        self.op.eval(v, &self.value)
    }

    /// Evaluate against a row image.
    #[inline]
    pub fn eval_row(&self, row: &Row) -> bool {
        self.eval_value(row.get(self.ordinal))
    }
}

/// A conjunction of predicates (empty = match everything).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    /// AND-ed terms.
    pub terms: Vec<Predicate>,
}

impl Filter {
    /// Filter that matches every row.
    pub fn all() -> Filter {
        Filter::default()
    }

    /// Single-term filter.
    pub fn of(p: Predicate) -> Filter {
        Filter { terms: vec![p] }
    }

    /// Does the row image satisfy every term?
    #[inline]
    pub fn eval_row(&self, row: &Row) -> bool {
        self.terms.iter().all(|p| p.eval_row(row))
    }

    /// The leading term (driven through the encoded column scan); the rest
    /// are verified on reconstructed values.
    pub fn split_first(&self) -> Option<(&Predicate, &[Predicate])> {
        self.terms.split_first()
    }
}

impl From<Predicate> for Filter {
    fn from(p: Predicate) -> Filter {
        Filter::of(p)
    }
}

/// A predicate the query executor can evaluate both in column space
/// (selection bitmap per hot unit or cold file) and against row images
/// (SMU reconciliation, bypassed units, uncovered blocks). [`Filter`] and
/// [`crate::ExprPredicate`] are the two shapes.
pub trait RowPredicate: Sync {
    /// Row-image evaluation.
    fn matches_row(&self, row: &Row) -> bool;

    /// Does the predicate match every row? Only then may an aggregate be
    /// answered from unit metadata alone.
    fn matches_all(&self) -> bool {
        false
    }

    /// Column-space evaluation over one unit. `None` means the unit's
    /// min/max storage index excludes it entirely (prune).
    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap>;

    /// Does the cold footer's min/max exclude every serialized row? A
    /// `true` answer costs zero file I/O — the whole decision runs off
    /// metadata held in memory since eviction.
    fn cold_prunes(&self, meta: &ColdMeta) -> bool;

    /// Column-space evaluation over an opened cold file, decoding only the
    /// columns the predicate touches. Unlike [`RowPredicate::unit_bitmap`],
    /// `None` here means *corruption* (a column entry failed its CRC) —
    /// pruning was already decided by [`RowPredicate::cold_prunes`].
    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap>;
}

impl RowPredicate for Filter {
    fn matches_row(&self, row: &Row) -> bool {
        self.eval_row(row)
    }

    fn matches_all(&self) -> bool {
        self.terms.is_empty()
    }

    fn unit_bitmap(&self, imcu: &Imcu) -> Option<SelBitmap> {
        imcu.filter_bitmap(self)
    }

    fn cold_prunes(&self, meta: &ColdMeta) -> bool {
        meta.prunes(self)
    }

    fn cold_bitmap(&self, file: &ColdUnitFile) -> Option<SelBitmap> {
        file.filter_bitmap(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_storage::ColumnType;

    fn schema() -> Schema {
        Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int), ("c1", ColumnType::Varchar)])
    }

    #[test]
    fn construction_checks_types() {
        let s = schema();
        assert!(Predicate::eq(&s, "n1", Value::Int(5)).is_ok());
        assert!(matches!(
            Predicate::eq(&s, "n1", Value::str("x")),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(Predicate::eq(&s, "nope", Value::Int(1)).is_err());
    }

    #[test]
    fn int_comparisons() {
        let s = schema();
        let p = Predicate::new(&s, "n1", CmpOp::Lt, Value::Int(10)).unwrap();
        assert!(p.eval_value(&Value::Int(9)));
        assert!(!p.eval_value(&Value::Int(10)));
        let p = Predicate::new(&s, "n1", CmpOp::Ge, Value::Int(10)).unwrap();
        assert!(p.eval_value(&Value::Int(10)));
        assert!(!p.eval_value(&Value::Int(9)));
        let p = Predicate::new(&s, "n1", CmpOp::Ne, Value::Int(10)).unwrap();
        assert!(p.eval_value(&Value::Int(9)));
        assert!(!p.eval_value(&Value::Int(10)));
    }

    #[test]
    fn null_never_matches() {
        let s = schema();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let p = Predicate::new(&s, "n1", op, Value::Int(10)).unwrap();
            assert!(!p.eval_value(&Value::Null), "{op:?} on NULL");
        }
    }

    #[test]
    fn string_comparisons() {
        let s = schema();
        let p = Predicate::eq(&s, "c1", Value::str("abc")).unwrap();
        assert!(p.eval_value(&Value::str("abc")));
        assert!(!p.eval_value(&Value::str("abd")));
        let p = Predicate::new(&s, "c1", CmpOp::Lt, Value::str("b")).unwrap();
        assert!(p.eval_value(&Value::str("a")));
        assert!(!p.eval_value(&Value::str("c")));
    }

    #[test]
    fn filter_conjunction() {
        let s = schema();
        let f = Filter {
            terms: vec![
                Predicate::new(&s, "n1", CmpOp::Ge, Value::Int(5)).unwrap(),
                Predicate::eq(&s, "c1", Value::str("x")).unwrap(),
            ],
        };
        let hit = Row::new(vec![Value::Int(1), Value::Int(7), Value::str("x")]);
        let miss = Row::new(vec![Value::Int(1), Value::Int(7), Value::str("y")]);
        assert!(f.eval_row(&hit));
        assert!(!f.eval_row(&miss));
        assert!(Filter::all().eval_row(&miss));
        assert_eq!(f.split_first().unwrap().1.len(), 1);
    }
}
