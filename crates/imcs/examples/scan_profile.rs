//! Phase decomposition of one vectorized scan — run with
//! `cargo run --release -p imadg-imcs --example scan_profile` to see
//! where a scan's time goes (kernel, validity, materialize, driver).

use std::sync::Arc;
use std::time::Instant;

use imadg_common::{ImcsConfig, ObjectId, ScnService, TenantId};
use imadg_imcs::{
    execute, Filter, ImcsStore, Output, PopulationEngine, Predicate, ScanPlan, SnapshotSource,
};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OBJ: ObjectId = ObjectId(1);

fn main() {
    let rows: usize =
        std::env::var("IMADG_BENCH_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(400_000);
    let store = Arc::new(Store::new());
    let scns = Arc::new(ScnService::new());
    let txm = TxnManager::new(
        store.clone(),
        scns.clone(),
        Arc::new(LogBuffer::new(imadg_common::RedoThreadId(1))),
        Arc::new(TxnIdService::new()),
        Arc::new(LockTable::new()),
        Arc::new(InMemoryRegistry::new()),
        Arc::new(DbaAllocator::default()),
    );
    let schema = Schema::of(&[
        ("id", ColumnType::Int),
        ("n1", ColumnType::Int),
        ("c1", ColumnType::Varchar),
    ]);
    txm.create_table(TableSpec {
        id: OBJ,
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: schema.clone(),
        key_ordinal: 0,
        rows_per_block: 256,
    })
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut k = 0i64;
    while (k as usize) < rows {
        let mut tx = txm.begin(TenantId::DEFAULT);
        for _ in 0..1024.min(rows - k as usize) {
            txm.insert(
                &mut tx,
                OBJ,
                vec![
                    Value::Int(k),
                    Value::Int(rng.gen_range(0..1000)),
                    Value::str(format!("val_{:06}", rng.gen_range(0..1000))),
                ],
            )
            .unwrap();
            k += 1;
        }
        txm.commit(tx);
    }
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig { imcu_max_rows: 64 * 1024, build_pause_micros: 0, ..Default::default() },
    )
    .unwrap();
    engine.enable(OBJ);
    engine.run_until_idle().unwrap();
    let imcs = engine.imcs().clone();
    let snapshot = scns.current();
    let q = Filter::of(Predicate::eq(&schema, "n1", Value::Int(7)).unwrap());
    let handles = imcs.object(OBJ).unwrap().handles();
    println!("{} units", handles.len());

    let iters = 50;
    let time = |label: &str, f: &mut dyn FnMut() -> usize| {
        let mut n = 0;
        for _ in 0..3 {
            n = f();
        }
        let t = Instant::now();
        for _ in 0..iters {
            n = f();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;
        println!("{label:<28} {us:>10.1} us  ({n})");
    };

    time("filter_bitmap", &mut || {
        let mut total = 0usize;
        for h in &handles {
            let (imcu, _smu) = h.pair();
            if let Some(sel) = imcu.filter_bitmap(&q) {
                total += sel.count();
            }
        }
        total
    });
    time("filter_bitmap+materialize", &mut || {
        let mut rows_out = Vec::new();
        for h in &handles {
            let (imcu, _smu) = h.pair();
            if let Some(sel) = imcu.filter_bitmap(&q) {
                imcu.materialize_matches(&sel, &mut rows_out);
            }
        }
        rows_out.len()
    });
    // Decompose the materialize phase against precomputed bitmaps.
    let pre: Vec<_> = handles
        .iter()
        .filter_map(|h| {
            let (imcu, _smu) = h.pair();
            imcu.filter_bitmap(&q).map(|sel| (imcu, sel))
        })
        .collect();
    time("iter_ones only", &mut || pre.iter().map(|(_, sel)| sel.iter_ones().count()).sum());
    time("materialize only", &mut || {
        let mut rows_out = Vec::new();
        for (imcu, sel) in &pre {
            imcu.materialize_matches(sel, &mut rows_out);
        }
        rows_out.len()
    });
    time("smu pair+validity", &mut || {
        let mut total = 0usize;
        for h in &handles {
            let (imcu, smu) = h.pair();
            let view = smu.read();
            if view.validity_mask(imcu.rows(), |l| imcu.rownum(l)).is_some() {
                total += 1;
            }
        }
        total
    });
    time("block_dbas", &mut || store.block_dbas(OBJ).unwrap().len());
    let stores = [imcs.clone()];
    time("full execute d1", &mut || {
        execute(&stores, &store, OBJ, &ScanPlan::new(&q, snapshot)).unwrap().unwrap().rows.len()
    });
    time("full aggregate d1", &mut || {
        let plan = ScanPlan { output: Output::Aggregate(1), ..ScanPlan::new(&q, snapshot) };
        execute(&stores, &store, OBJ, &plan).unwrap().unwrap().aggs.count as usize
    });
    // Does a buffer-cache scan (the bench's first measured config) degrade
    // subsequent columnar scans in the same process?
    time("row_store once", &mut || {
        let mut n = 0usize;
        store
            .scan_object(OBJ, snapshot, None, |_, row| {
                if q.eval_row(row) {
                    n += 1;
                }
            })
            .unwrap();
        n
    });
    time("full execute d1 again", &mut || {
        execute(&stores, &store, OBJ, &ScanPlan::new(&q, snapshot)).unwrap().unwrap().rows.len()
    });
}
