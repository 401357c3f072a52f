//! Seeded inputs and the exact oracle the benchmark checks answers against.
//!
//! The benchmark generates every row and every DML statement itself, so it
//! knows the committed contents of the table at any SCN without asking the
//! program. [`Model`] keeps the three columns the queries read (`n1`, `n2`,
//! `c1`) plus per-bind aggregates, and applies the writer's history in
//! commit order; an answer is correct only if it equals the model's answer
//! at the answer's own snapshot SCN.

use std::sync::Arc;

use imadg_db::{ColumnDef, ColumnType, ObjectId, QueryOutput, Schema, TableSpec, TenantId, Value};

/// The benchmark's table.
pub const TABLE: ObjectId = ObjectId(1);
/// Number columns `n1..n50` and varchar columns `c1..c50` (the paper's
/// `C101` shape: identity + 50 numbers + 50 varchars).
pub const NUM_COLS: usize = 50;
/// Varchar columns `c1..c50`.
pub const STR_COLS: usize = 50;
/// Distinct values per column; binds are drawn uniformly from this domain.
pub const DOMAIN: u64 = 1000;
/// Ordinals of the columns the queries read.
pub const ID: usize = 0;
pub const N1: usize = 1;
pub const N2: usize = 2;
pub const C1: usize = 1 + NUM_COLS;

/// SplitMix64: a tiny, fast generator whose output is fixed by its seed on
/// every platform (the inputs must not change when a dependency does).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of a seed (rows, binds, DML, ...), so
    /// streams stay independent of how many draws the others make.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; bias is < 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer; also the per-id hash of the id checksum.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The table's schema: `id`, `n1..n50` (Int), `c1..c50` (Varchar).
pub fn table_spec() -> TableSpec {
    let mut cols = vec![ColumnDef::new("id", ColumnType::Int)];
    cols.extend((1..=NUM_COLS).map(|i| ColumnDef::new(format!("n{i}"), ColumnType::Int)));
    cols.extend((1..=STR_COLS).map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Varchar)));
    TableSpec {
        id: TABLE,
        name: "C101".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::new(cols).expect("static schema"),
        key_ordinal: ID,
        rows_per_block: 64,
    }
}

/// The varchar domain value for code `v`.
pub fn str_value(v: u64) -> String {
    format!("val_{v:06}")
}

/// Generates row images from value codes; the 1000 varchar values are
/// built once and shared (strings are reference-counted).
pub struct RowMaker {
    strs: Vec<Value>,
}

impl Default for RowMaker {
    fn default() -> Self {
        RowMaker { strs: (0..DOMAIN).map(|v| Value::Str(Arc::from(str_value(v)))).collect() }
    }
}

impl RowMaker {
    pub fn row(&self, id: i64, codes: &RowCodes) -> Vec<Value> {
        let mut row = Vec::with_capacity(1 + NUM_COLS + STR_COLS);
        row.push(Value::Int(id));
        row.extend(codes.nums.iter().map(|&v| Value::Int(v as i64)));
        row.extend(codes.strs.iter().map(|&v| self.strs[v as usize].clone()));
        row
    }
}

/// The value codes of one generated row.
pub struct RowCodes {
    pub nums: [u16; NUM_COLS],
    pub strs: [u16; STR_COLS],
}

/// Row `id` of the table generated from `seed`: a pure function of both,
/// so the loader and the model never need to share state.
pub fn row_codes(seed: u64, id: u64) -> RowCodes {
    let mut rng = Rng::stream(seed, 1 << 32 | id);
    let mut nums = [0u16; NUM_COLS];
    let mut strs = [0u16; STR_COLS];
    for v in nums.iter_mut().chain(strs.iter_mut()) {
        *v = rng.below(DOMAIN) as u16;
    }
    RowCodes { nums, strs }
}

/// One auto-commit statement of the benchmark's writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dml {
    /// `UPDATE .. SET n1 = value WHERE id = key` (`column` is [`N1`]) or
    /// the same on `n2` ([`N2`]).
    Update { key: u64, column: usize, value: u16 },
    /// Insert row `key` (its other values come from [`row_codes`]).
    Insert { key: u64 },
}

impl Dml {
    pub fn column_name(column: usize) -> &'static str {
        if column == N1 {
            "n1"
        } else {
            "n2"
        }
    }
}

/// The writer's statement stream: 90% single-row updates of `n1` or `n2`
/// on uniform existing keys, 10% inserts of new keys (`insert_pct` = 0
/// gives pure updates).
pub struct DmlGen {
    rng: Rng,
    next_key: u64,
    insert_pct: u64,
}

impl DmlGen {
    pub fn new(seed: u64, stream: u64, rows: u64, insert_pct: u64) -> DmlGen {
        DmlGen { rng: Rng::stream(seed, stream), next_key: rows, insert_pct }
    }

    pub fn next_op(&mut self) -> Dml {
        if self.rng.below(100) < self.insert_pct {
            let key = self.next_key;
            self.next_key += 1;
            return Dml::Insert { key };
        }
        let key = self.rng.below(self.next_key);
        let column = if self.rng.below(2) == 0 { N1 } else { N2 };
        Dml::Update { key, column, value: self.rng.below(DOMAIN) as u16 }
    }
}

/// The three query shapes: `SELECT * .. WHERE n1 = :v`, `SELECT * ..
/// WHERE c1 = :s`, and `SUM/COUNT(n2) .. WHERE n1 = :v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Q1,
    Q2,
    Agg,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Q1, Kind::Q2, Kind::Agg];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q2 => "q2",
            Kind::Agg => "agg",
        }
    }
}

/// What the benchmark compares: row count, an order-independent id
/// checksum, and the sum of `n2` over the matching rows. Aggregates carry
/// COUNT and SUM; their checksum is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub idsum: u64,
    pub n2sum: i64,
}

impl Answer {
    fn add(&mut self, id: u64, n2: u16) {
        self.count += 1;
        self.idsum = self.idsum.wrapping_add(mix(id));
        self.n2sum += n2 as i64;
    }

    fn remove(&mut self, id: u64, n2: u16) {
        self.count -= 1;
        self.idsum = self.idsum.wrapping_sub(mix(id));
        self.n2sum -= n2 as i64;
    }
}

/// Reduce a query's output to an [`Answer`], rejecting any returned row
/// that does not satisfy the query's predicate and any key returned twice.
pub fn answer_of(kind: Kind, bind: u64, out: &QueryOutput) -> Result<Answer, String> {
    if kind == Kind::Agg {
        let agg = out.aggregate.as_ref().ok_or("aggregate request returned no aggregate")?;
        let sum = i64::try_from(agg.aggs.sum).map_err(|_| "aggregate sum overflows i64")?;
        return Ok(Answer { count: agg.aggs.count, idsum: 0, n2sum: sum });
    }
    let mut a = Answer::default();
    let mut seen = std::collections::HashSet::with_capacity(out.rows.len());
    for row in &out.rows {
        let int = |ord: usize| row.values().get(ord).and_then(Value::as_int);
        let (Some(id), Some(n2)) = (int(ID), int(N2)) else {
            return Err(format!("row without integer id/n2: {:?}", row.values().first()));
        };
        let matches = match kind {
            Kind::Q1 => int(N1) == Some(bind as i64),
            _ => row.values().get(C1).and_then(Value::as_str) == Some(str_value(bind).as_str()),
        };
        if !matches {
            return Err(format!("{} bind {bind}: row id {id} does not match", kind.name()));
        }
        if !seen.insert(id) {
            return Err(format!("{} bind {bind}: {DUPLICATE}{id}", kind.name()));
        }
        a.add(id as u64, n2 as u16);
    }
    Ok(a)
}

/// Marks the error of a key returned twice; the key follows it.
pub const DUPLICATE: &str = "returned twice: row id ";

/// The exact contents the queries can observe, maintained incrementally.
#[derive(Debug, Clone)]
pub struct Model {
    n1: Vec<u16>,
    n2: Vec<u16>,
    c1: Vec<u16>,
    by_n1: Vec<Answer>,
    by_c1: Vec<Answer>,
    seed: u64,
}

impl Model {
    /// The table as loaded: rows `0..rows` of `seed`.
    pub fn new(seed: u64, rows: u64) -> Model {
        let mut m = Model {
            n1: Vec::with_capacity(rows as usize),
            n2: Vec::with_capacity(rows as usize),
            c1: Vec::with_capacity(rows as usize),
            by_n1: vec![Answer::default(); DOMAIN as usize],
            by_c1: vec![Answer::default(); DOMAIN as usize],
            seed,
        };
        for id in 0..rows {
            m.insert(id);
        }
        m
    }

    pub fn rows(&self) -> u64 {
        self.n1.len() as u64
    }

    fn insert(&mut self, id: u64) {
        assert_eq!(id, self.rows(), "inserts extend the key range in order");
        let codes = row_codes(self.seed, id);
        let (n1, n2, c1) = (codes.nums[0], codes.nums[1], codes.strs[0]);
        self.n1.push(n1);
        self.n2.push(n2);
        self.c1.push(c1);
        self.by_n1[n1 as usize].add(id, n2);
        self.by_c1[c1 as usize].add(id, n2);
    }

    /// Apply one committed statement.
    pub fn apply(&mut self, op: &Dml) {
        match *op {
            Dml::Insert { key } => self.insert(key),
            Dml::Update { key, column, value } => {
                let k = key as usize;
                let (n1, n2, c1) = (self.n1[k], self.n2[k], self.c1[k]);
                self.by_n1[n1 as usize].remove(key, n2);
                self.by_c1[c1 as usize].remove(key, n2);
                if column == N1 {
                    self.n1[k] = value;
                } else {
                    self.n2[k] = value;
                }
                self.by_n1[self.n1[k] as usize].add(key, self.n2[k]);
                self.by_c1[c1 as usize].add(key, self.n2[k]);
            }
        }
    }

    /// The exact answer to `kind` with `bind`.
    pub fn expect(&self, kind: Kind, bind: u64) -> Answer {
        match kind {
            Kind::Q1 => self.by_n1[bind as usize],
            Kind::Q2 => self.by_c1[bind as usize],
            Kind::Agg => Answer { idsum: 0, ..self.by_n1[bind as usize] },
        }
    }

    /// Full-table `(COUNT(*), SUM(n1), SUM(n2))`.
    pub fn totals(&self) -> (u64, i64, i64) {
        let s = |v: &[u16]| v.iter().map(|&x| x as i64).sum();
        (self.rows(), s(&self.n1), s(&self.n2))
    }
}

/// The exact answer to each `(snapshot, kind, bind)` observation, where
/// `history` is the writer's statements with their commit SCNs in commit
/// order and `model` is the table before the first of them. A statement is
/// visible at snapshot `s` iff its commit SCN is at most `s`. Leaves
/// `model` at the end of the history.
pub fn expected_at(
    model: &mut Model,
    history: &[(u64, Dml)],
    observed: &[(u64, Kind, u64)],
) -> Vec<Answer> {
    let mut order: Vec<usize> = (0..observed.len()).collect();
    order.sort_by_key(|&i| observed[i].0);
    let mut out = vec![Answer::default(); observed.len()];
    let mut next = 0;
    for i in order {
        let (snapshot, kind, bind) = observed[i];
        while next < history.len() && history[next].0 <= snapshot {
            model.apply(&history[next].1);
            next += 1;
        }
        out[i] = model.expect(kind, bind);
    }
    for (_, op) in &history[next..] {
        model.apply(op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_db::{AggregateResult, Row, Scn};
    use std::time::Duration;

    fn output(rows: Vec<Row>, aggregate: Option<AggregateResult>) -> QueryOutput {
        QueryOutput {
            rows,
            used_imcs: true,
            stats: None,
            aggregate,
            elapsed: Duration::ZERO,
            snapshot: Scn(1),
            parallel_degree: 1,
            profile: None,
        }
    }

    /// The rows a correct engine returns for `kind`/`bind`, rebuilt from
    /// the generator (the model only keeps three columns).
    fn correct_rows(m: &Model, kind: Kind, bind: u64) -> Vec<Row> {
        let maker = RowMaker::default();
        (0..m.rows())
            .filter(|&id| match kind {
                Kind::Q2 => m.c1[id as usize] as u64 == bind,
                _ => m.n1[id as usize] as u64 == bind,
            })
            .map(|id| {
                let mut row = maker.row(id as i64, &row_codes(m.seed, id));
                row[N1] = Value::Int(m.n1[id as usize] as i64);
                row[N2] = Value::Int(m.n2[id as usize] as i64);
                Row::new(row)
            })
            .collect()
    }

    fn agg_output(count: u64, sum: i128) -> QueryOutput {
        let mut r = AggregateResult::default();
        r.aggs.count = count;
        r.aggs.non_null = count;
        r.aggs.sum = sum;
        output(Vec::new(), Some(r))
    }

    fn busy_model() -> (Model, u64) {
        let mut m = Model::new(7, 3000);
        let mut gen = DmlGen::new(7, 9, 3000, 10);
        for _ in 0..2000 {
            m.apply(&gen.next_op());
        }
        // A bind with at least two matching rows under every query kind.
        let bind = (0..DOMAIN)
            .find(|&b| m.expect(Kind::Q1, b).count >= 2 && m.expect(Kind::Q2, b).count >= 2)
            .expect("some populated bind");
        (m, bind)
    }

    #[test]
    fn correct_answers_are_accepted() {
        let (m, bind) = busy_model();
        for kind in [Kind::Q1, Kind::Q2] {
            let got = answer_of(kind, bind, &output(correct_rows(&m, kind, bind), None)).unwrap();
            assert_eq!(got, m.expect(kind, bind), "{kind:?}");
        }
        let e = m.expect(Kind::Agg, bind);
        assert_eq!(answer_of(Kind::Agg, bind, &agg_output(e.count, e.n2sum as i128)).unwrap(), e);
    }

    #[test]
    fn a_dropped_row_is_rejected() {
        let (m, bind) = busy_model();
        for kind in [Kind::Q1, Kind::Q2] {
            let mut rows = correct_rows(&m, kind, bind);
            rows.pop();
            let got = answer_of(kind, bind, &output(rows, None)).unwrap();
            assert_ne!(got, m.expect(kind, bind), "{kind:?}");
        }
    }

    #[test]
    fn a_swapped_row_is_rejected() {
        // Same count, one row replaced by another that also matches the
        // predicate but is not in the answer: only the checksum sees it.
        let (m, bind) = busy_model();
        let mut rows = correct_rows(&m, Kind::Q1, bind);
        let mut fake = rows[0].values().to_vec();
        fake[ID] = Value::Int(m.rows() as i64 + 5);
        rows[0] = Row::new(fake);
        let got = answer_of(Kind::Q1, bind, &output(rows, None)).unwrap();
        assert_eq!(got.count, m.expect(Kind::Q1, bind).count);
        assert_ne!(got, m.expect(Kind::Q1, bind));
    }

    #[test]
    fn a_duplicated_row_is_rejected() {
        let (m, bind) = busy_model();
        let mut rows = correct_rows(&m, Kind::Q2, bind);
        rows.push(rows[0].clone());
        let err = answer_of(Kind::Q2, bind, &output(rows, None)).unwrap_err();
        assert!(err.contains(DUPLICATE), "{err}");
    }

    #[test]
    fn a_row_outside_the_predicate_is_rejected() {
        let (m, bind) = busy_model();
        let mut rows = correct_rows(&m, Kind::Q1, bind);
        let mut bad = rows[0].values().to_vec();
        bad[N1] = Value::Int(((bind + 1) % DOMAIN) as i64);
        rows[0] = Row::new(bad);
        assert!(answer_of(Kind::Q1, bind, &output(rows, None)).is_err());
    }

    #[test]
    fn an_aggregate_off_by_one_is_rejected() {
        let (m, bind) = busy_model();
        let e = m.expect(Kind::Agg, bind);
        for (count, sum) in [(e.count + 1, e.n2sum), (e.count, e.n2sum - 1)] {
            let got = answer_of(Kind::Agg, bind, &agg_output(count, sum as i128)).unwrap();
            assert_ne!(got, e);
        }
    }

    #[test]
    fn a_snapshot_shifted_by_one_scn_is_rejected() {
        // Commits at SCNs 100, 102, 104, ... Each observation is answered
        // exactly at SCN s but labelled s + 1 or s - 1: whenever a commit
        // falls between the two, the oracle must reject the answer.
        let start = Model::new(3, 2000);
        let mut gen = DmlGen::new(3, 4, 2000, 10);
        let history: Vec<(u64, Dml)> = (0..200).map(|i| (100 + 2 * i, gen.next_op())).collect();
        let mut truth = start.clone();
        let mut shifted = Vec::new();
        let mut answers = Vec::new();
        for &(scn, op) in &history {
            let touched = match op {
                Dml::Update { key, .. } | Dml::Insert { key } => key as usize,
            };
            let before = if touched < truth.n1.len() { truth.n1[touched] as u64 } else { 0 };
            // Answer at scn - 1 (before the commit), claim scn.
            answers.push(truth.expect(Kind::Q1, before));
            shifted.push((scn, Kind::Q1, before));
            truth.apply(&op);
            let after = truth.n1[touched] as u64;
            // Answer at scn (after the commit), claim scn - 1.
            answers.push(truth.expect(Kind::Agg, after));
            shifted.push((scn - 1, Kind::Agg, after));
        }
        let want = expected_at(&mut start.clone(), &history, &shifted);
        let rejected = want.iter().zip(&answers).filter(|(w, a)| w != a).count();
        // Every update that changes n1 or n2 and every insert moves the
        // aggregates of the bind it touched.
        let effective = history
            .iter()
            .scan(start.clone(), |m, &(_, op)| {
                let before = m.clone();
                m.apply(&op);
                Some(before.by_n1 != m.by_n1)
            })
            .filter(|&changed| changed)
            .count();
        assert!(effective > 150, "{effective}");
        assert!(rejected >= effective, "{rejected} of {effective} shifted answers rejected");
        // Labelled with their true snapshots, the same answers pass.
        let honest: Vec<_> = shifted
            .iter()
            .map(|&(s, k, b)| if k == Kind::Q1 { (s - 1, k, b) } else { (s + 1, k, b) })
            .collect();
        assert_eq!(expected_at(&mut start.clone(), &history, &honest), answers);
    }

    #[test]
    fn incremental_model_matches_a_rebuild() {
        let (m, _) = busy_model();
        for kind in Kind::ALL {
            for bind in 0..DOMAIN {
                let rows = correct_rows(&m, kind, bind);
                let rebuilt = if kind == Kind::Agg {
                    let e = m.expect(kind, bind);
                    answer_of(kind, bind, &agg_output(rows.len() as u64, e.n2sum as i128))
                } else {
                    answer_of(kind, bind, &output(rows, None))
                };
                assert_eq!(rebuilt.unwrap(), m.expect(kind, bind), "{kind:?} {bind}");
            }
        }
        let (rows, s1, s2) = m.totals();
        assert_eq!(rows, m.rows());
        let all: Vec<u64> = (0..DOMAIN).map(|b| m.expect(Kind::Q1, b).count).collect();
        assert_eq!(all.iter().sum::<u64>(), rows);
        let sum2: i64 = (0..DOMAIN).map(|b| m.expect(Kind::Agg, b).n2sum).sum();
        assert_eq!(sum2, s2);
        assert!(s1 > 0);
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let codes = |seed| row_codes(seed, 42).nums;
        assert_eq!(codes(1), codes(1));
        assert_ne!(codes(1), codes(2));
        let ops = |seed| {
            let mut g = DmlGen::new(seed, 3, 1000, 10);
            (0..100).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
        let binds = |seed| {
            let mut r = Rng::stream(seed, 2);
            (0..100).map(|_| r.below(DOMAIN)).collect::<Vec<_>>()
        };
        assert_eq!(binds(9), binds(9));
        assert_ne!(binds(9), binds(10));
    }
}
