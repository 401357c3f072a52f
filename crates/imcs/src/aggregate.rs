//! Aggregation push-down (paper §V: "novel formats and techniques used by
//! DBIM like in-memory storage indexes, aggregation push-down are extended
//! seamlessly to ADG").
//!
//! COUNT / SUM / MIN / MAX of one column over the rows matching a
//! predicate, computed by the query executor ([`crate::execute`] with
//! [`crate::Output::Aggregate`]) without materializing row images:
//!
//! * a fully-valid unit with no predicate is answered **O(1)** from the
//!   unit's pre-computed column aggregates and its storage index (hot
//!   units) or from the cold file's footer (cold units);
//! * filtered units read only the aggregated column for matching row ids;
//! * stale rows and uncovered blocks aggregate over row images fetched via
//!   Consistent Read — the same reconciliation discipline as row scans.

use imadg_storage::Value;

use crate::column::MinMax;
use crate::imcu::ColAgg;
use crate::scan::ScanStats;

/// Running aggregates over one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregates {
    /// Rows matching the filter (COUNT(*)).
    pub count: u64,
    /// Non-null values of the aggregated column among matching rows.
    pub non_null: u64,
    /// SUM over non-null integer values.
    pub sum: i128,
    /// MIN over non-null values.
    pub min: Option<Value>,
    /// MAX over non-null values.
    pub max: Option<Value>,
}

impl Aggregates {
    /// Fold one column value from a matching row.
    pub fn add(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Null => return,
            Value::Int(x) => self.sum += i128::from(*x),
            Value::Str(_) => {}
        }
        self.non_null += 1;
        self.merge_min(v);
        self.merge_max(v);
    }

    /// Lower `min` to `v` if smaller (masked-kernel and merge entry point).
    pub fn merge_min(&mut self, v: &Value) {
        if self.min.as_ref().is_none_or(|m| value_lt(v, m)) {
            self.min = Some(v.clone());
        }
    }

    /// Raise `max` to `v` if larger (masked-kernel and merge entry point).
    pub fn merge_max(&mut self, v: &Value) {
        if self.max.as_ref().is_none_or(|m| value_lt(m, v)) {
            self.max = Some(v.clone());
        }
    }

    /// Fold another partial aggregate in (parallel per-unit reduce).
    pub fn merge(&mut self, other: &Aggregates) {
        self.count += other.count;
        self.non_null += other.non_null;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            self.merge_min(m);
        }
        if let Some(m) = &other.max {
            self.merge_max(m);
        }
    }

    /// Fold a whole unit answered from metadata: `rows` rows whose column
    /// has the pre-computed `agg` and the min/max `bounds`.
    pub fn add_unit(&mut self, rows: usize, agg: ColAgg, bounds: Option<&MinMax>) {
        self.count += rows as u64;
        self.non_null += agg.non_null;
        self.sum += agg.sum;
        if agg.non_null > 0 {
            match bounds {
                Some(MinMax::Int(lo, hi)) => {
                    self.merge_min(&Value::Int(*lo));
                    self.merge_max(&Value::Int(*hi));
                }
                Some(MinMax::Str(lo, hi)) => {
                    self.merge_min(&Value::Str(lo.clone()));
                    self.merge_max(&Value::Str(hi.clone()));
                }
                _ => {}
            }
        }
    }

    /// AVG over non-null values.
    pub fn average(&self) -> Option<f64> {
        if self.non_null == 0 {
            None
        } else {
            Some(self.sum as f64 / self.non_null as f64)
        }
    }
}

fn value_lt(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x < y,
        (Value::Str(x), Value::Str(y)) => x.as_ref() < y.as_ref(),
        _ => false,
    }
}

/// A completed aggregate query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateResult {
    /// The aggregates.
    pub aggs: Aggregates,
    /// Provenance counters.
    pub stats: ScanStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_semantics() {
        let mut a = Aggregates::default();
        a.add(&Value::Int(5));
        a.add(&Value::Null);
        a.add(&Value::Int(-2));
        assert_eq!(a.count, 3, "COUNT(*) counts null rows");
        assert_eq!(a.non_null, 2);
        assert_eq!(a.sum, 3);
        assert_eq!(a.min, Some(Value::Int(-2)));
        assert_eq!(a.max, Some(Value::Int(5)));
        assert_eq!(a.average(), Some(1.5));
    }

    #[test]
    fn string_min_max() {
        let mut a = Aggregates::default();
        a.add(&Value::str("m"));
        a.add(&Value::str("a"));
        a.add(&Value::str("z"));
        assert_eq!(a.min, Some(Value::str("a")));
        assert_eq!(a.max, Some(Value::str("z")));
        assert_eq!(a.sum, 0);
    }

    #[test]
    fn empty_average_is_none() {
        let a = Aggregates::default();
        assert_eq!(a.average(), None);
    }
}
