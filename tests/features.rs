//! Tests of the DBIM ecosystem features the paper's §V extends to the
//! standby: In-Memory Expressions and aggregation push-down.

use std::sync::Arc;

use imadg::imcs::{Expr, ExprPredicate, ImExpression};
use imadg::prelude::*;

const OBJ: ObjectId = ObjectId(1);

fn cluster() -> Arc<AdgCluster> {
    let c = AdgCluster::single().unwrap();
    c.create_table(TableSpec {
        id: OBJ,
        name: "orders".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("qty", ColumnType::Int),
            ("price", ColumnType::Int),
            ("code", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 16,
    })
    .unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

fn seed(c: &AdgCluster, n: i64) {
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in 0..n {
        p.txm
            .insert(
                &mut tx,
                OBJ,
                vec![
                    Value::Int(k),
                    Value::Int(k % 7),
                    Value::Int(10 + k % 5),
                    Value::str(format!("c{}", k % 3)),
                ],
            )
            .unwrap();
    }
    p.txm.commit(tx);
}

fn revenue_expr(c: &AdgCluster) -> Expr {
    let schema = c.primary().store.table(OBJ).unwrap().schema.read().clone();
    Expr::Mul(
        Box::new(Expr::col(&schema, "qty").unwrap()),
        Box::new(Expr::col(&schema, "price").unwrap()),
    )
}

#[test]
fn expression_scan_uses_materialized_virtual_column() {
    let c = cluster();
    seed(&c, 140);
    let expr = revenue_expr(&c);
    c.register_expression(OBJ, ImExpression::new("revenue", expr.clone()));
    c.sync().unwrap();

    let pred = ExprPredicate {
        name: "revenue".into(),
        expr: Arc::new(expr),
        op: CmpOp::Ge,
        value: Value::Int(60),
    };
    let standby = c.standby();
    let out = standby.query(&QueryRequest::scan(OBJ).expression(pred.clone())).unwrap();
    assert!(out.used_imcs);
    // Verify against naive evaluation over a full row scan.
    let mut expected = 0usize;
    let p = c.primary();
    p.store
        .scan_object(OBJ, standby.current_query_scn().unwrap(), None, |_, row| {
            if pred.eval_row(row) {
                expected += 1;
            }
        })
        .unwrap();
    assert_eq!(out.count(), expected);
    assert!(expected > 0);
    // The virtual column served the candidates (no full-row eval per unit):
    let stats = out.stats.unwrap();
    assert!(stats.scanned_units > 0);
}

#[test]
fn expression_predicate_consistent_under_updates() {
    let c = cluster();
    seed(&c, 60);
    let expr = revenue_expr(&c);
    c.register_expression(OBJ, ImExpression::new("revenue", expr.clone()));
    c.sync().unwrap();

    // Change qty of key 3 so its revenue crosses the predicate boundary.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 3, "qty", Value::Int(1000)).unwrap();
    p.txm.commit(tx);
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();

    let pred = ExprPredicate {
        name: "revenue".into(),
        expr: Arc::new(expr),
        op: CmpOp::Ge,
        value: Value::Int(10_000),
    };
    let out = c.standby().query(&QueryRequest::scan(OBJ).expression(pred.clone())).unwrap();
    assert_eq!(out.count(), 1, "updated row matches via expression fallback");
    assert_eq!(out.rows[0][0], Value::Int(3));
    assert!(out.stats.unwrap().fallback_rows >= 1, "served from the row store");
}

#[test]
fn expression_works_without_materialization() {
    // Registering after population: units lack the virtual column; the
    // scan must evaluate the expression over materialized rows.
    let c = cluster();
    seed(&c, 50);
    c.sync().unwrap();
    let expr = revenue_expr(&c);
    // Register only on the standby store *without* dropping units, by
    // scanning with a predicate whose name no unit knows.
    let pred = ExprPredicate {
        name: "unmaterialized".into(),
        expr: Arc::new(expr),
        op: CmpOp::Ge,
        value: Value::Int(60),
    };
    let out = c.standby().query(&QueryRequest::scan(OBJ).expression(pred.clone())).unwrap();
    assert!(out.used_imcs);
    let mut expected = 0usize;
    c.primary()
        .store
        .scan_object(OBJ, c.standby().current_query_scn().unwrap(), None, |_, row| {
            if pred.eval_row(row) {
                expected += 1;
            }
        })
        .unwrap();
    assert_eq!(out.count(), expected);
}

#[test]
fn string_expression_scan() {
    let c = cluster();
    seed(&c, 30);
    let schema = c.primary().store.table(OBJ).unwrap().schema.read().clone();
    let expr = Expr::Upper(Box::new(Expr::col(&schema, "code").unwrap()));
    c.register_expression(OBJ, ImExpression::new("ucode", expr.clone()));
    c.sync().unwrap();
    let pred = ExprPredicate {
        name: "ucode".into(),
        expr: Arc::new(expr),
        op: CmpOp::Eq,
        value: Value::str("C1"),
    };
    let out = c.standby().query(&QueryRequest::scan(OBJ).expression(pred.clone())).unwrap();
    assert_eq!(out.count(), 10);
}

#[test]
fn aggregate_pushdown_matches_naive() {
    let c = cluster();
    seed(&c, 200);
    c.sync().unwrap();
    let standby = c.standby();
    let r = standby
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()).aggregate("qty"))
        .unwrap()
        .aggregate
        .unwrap();
    // k % 7 over 200 rows.
    let expected_sum: i128 = (0..200i128).map(|k| k % 7).sum();
    assert_eq!(r.aggs.count, 200);
    assert_eq!(r.aggs.non_null, 200);
    assert_eq!(r.aggs.sum, expected_sum);
    assert_eq!(r.aggs.min, Some(Value::Int(0)));
    assert_eq!(r.aggs.max, Some(Value::Int(6)));
    assert!(r.stats.pushdown_units > 0, "clean unfiltered units answered O(1)");
    assert_eq!(r.stats.fallback_rows, 0);
}

#[test]
fn filtered_aggregate_reads_only_needed_columns() {
    let c = cluster();
    seed(&c, 100);
    c.sync().unwrap();
    let schema = c.primary().store.table(OBJ).unwrap().schema.read().clone();
    let filter = Filter::of(Predicate::eq(&schema, "code", Value::str("c0")).unwrap());
    let r = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(filter.clone()).aggregate("price"))
        .unwrap()
        .aggregate
        .unwrap();
    let naive: (u64, i128) = {
        let mut count = 0;
        let mut sum = 0i128;
        c.primary()
            .store
            .scan_object(OBJ, c.standby().current_query_scn().unwrap(), None, |_, row| {
                if filter.eval_row(row) {
                    count += 1;
                    sum += i128::from(row[2].as_int().unwrap());
                }
            })
            .unwrap();
        (count, sum)
    };
    assert_eq!(r.aggs.count, naive.0);
    assert_eq!(r.aggs.sum, naive.1);
    assert!(r.stats.scanned_units > 0);
}

#[test]
fn aggregate_stays_exact_under_dml() {
    let c = cluster();
    seed(&c, 80);
    c.sync().unwrap();
    // Updates + a delete invalidate rows; the aggregate must follow.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 5, "qty", Value::Int(1000)).unwrap();
    p.txm.delete_by_key(&mut tx, OBJ, 6).unwrap();
    p.txm.commit(tx);
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();

    let r = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()).aggregate("qty"))
        .unwrap()
        .aggregate
        .unwrap();
    let expected_sum: i128 =
        (0..80i128).filter(|&k| k != 6).map(|k| if k == 5 { 1000 } else { k % 7 }).sum();
    assert_eq!(r.aggs.count, 79);
    assert_eq!(r.aggs.sum, expected_sum);
    assert_eq!(r.aggs.max, Some(Value::Int(1000)));
    assert!(r.stats.fallback_rows >= 1);
}

#[test]
fn aggregate_without_placement_uses_row_store() {
    let c = AdgCluster::single().unwrap();
    c.create_table(TableSpec {
        id: OBJ,
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 8,
    })
    .unwrap();
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in 0..10 {
        p.txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k)]).unwrap();
    }
    p.txm.commit(tx);
    c.sync().unwrap();
    let r = c
        .standby()
        .query(&QueryRequest::scan(OBJ).filter(Filter::all()).aggregate("qty"))
        .unwrap()
        .aggregate
        .unwrap();
    assert_eq!(r.aggs.count, 10);
    assert_eq!(r.aggs.sum, 45);
    assert_eq!(r.stats.pushdown_units, 0);
}

/// An expression predicate with an aggregate folds exactly the rows the
/// expression selects (checked against the row store at the answer's
/// snapshot); a column filter on top of an expression is rejected rather
/// than silently dropped.
#[test]
fn expression_aggregate_is_exact_and_filter_conflict_is_rejected() {
    let c = cluster();
    seed(&c, 140);
    let expr = revenue_expr(&c);
    c.register_expression(OBJ, ImExpression::new("revenue", expr.clone()));
    c.sync().unwrap();
    // A change after population: the aggregate must reconcile it too.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 3, "qty", Value::Int(1000)).unwrap();
    p.txm.commit(tx);
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();

    let pred = ExprPredicate {
        name: "revenue".into(),
        expr: Arc::new(expr),
        op: CmpOp::Ge,
        value: Value::Int(60),
    };
    let standby = c.standby();
    let req = QueryRequest::scan(OBJ).expression(pred.clone()).aggregate("price");
    let out = standby.query(&req).unwrap();
    assert!(out.used_imcs);
    let agg = out.aggregate.unwrap();
    let (mut count, mut sum) = (0u64, 0i128);
    p.store
        .scan_object(OBJ, out.snapshot, None, |_, row| {
            if pred.eval_row(row) {
                count += 1;
                sum += i128::from(row[2].as_int().unwrap());
            }
        })
        .unwrap();
    assert!(count > 0 && count < 140, "the expression selects a strict subset");
    assert_eq!(agg.aggs.count, count);
    assert_eq!(agg.aggs.sum, sum);

    let schema = p.store.table(OBJ).unwrap().schema.read().clone();
    let filter = Filter::of(Predicate::eq(&schema, "code", Value::str("c0")).unwrap());
    let both = QueryRequest::scan(OBJ).filter(filter).expression(pred);
    let err = standby.query(&both).unwrap_err();
    assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
}
