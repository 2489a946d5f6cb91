//! Seeded input generation: the benchmark's own splitmix64 generator, the
//! paper's three score distributions (Section 6) and the two datasets.
//!
//! Nothing here depends on `ranksql-workload` or the vendored `rand`, so a
//! change to either cannot change the benchmark's inputs.

use ranksql::storage::{HashIndex, ScoreIndex};
use ranksql::{parse_topk_query, DataType, Database, Field, Result, Schema, Value};

/// The paper's query Q (Section 6): a 3-way join with two Boolean filters
/// and five ranking predicates.
pub const PAPER_Q: &str = "SELECT * FROM A, B, C \
     WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b \
     ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) LIMIT 10";

/// The single-table point query of `point-wire`: a rank-scan of `f1` that
/// stops about `k / selectivity` tuples deep.
pub const POINT_Q: &str = "SELECT * FROM A WHERE A.jc1 < ? ORDER BY f1(A.p1) LIMIT 10";

/// The read query of `ingest-paged`.
pub const INGEST_Q: &str = "SELECT * FROM E WHERE E.x < ? ORDER BY s(E.score) LIMIT 10";

/// Bytes of user data in one row of `E`: four 8-byte columns.
pub const E_ROW_BYTES: u64 = 32;

/// splitmix64 (Steele, Lea, Flood 2014): one `u64` of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A stream of its own for a named part of the input, so adding a
    /// table never shifts the values of another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut parent = SplitMix64(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bbc9));
        SplitMix64(parent.next_u64())
    }
}

/// Score distribution of one ranking predicate.
#[derive(Debug, Clone, Copy)]
pub enum Dist {
    /// Uniform on `[0, 1)`.
    Uniform,
    /// Normal with mean 0.5 and variance 0.16, clamped to `[0, 1]`.
    Normal,
    /// `(1 + cos(πu)) / 2` for uniform `u`: mass near 0 and 1.
    Cosine,
}

impl Dist {
    pub fn sample(self, rng: &mut SplitMix64) -> f64 {
        match self {
            Dist::Uniform => rng.unit(),
            Dist::Normal => {
                // Box–Muller; `1 - u` keeps the logarithm's argument above 0.
                let (u1, u2) = (1.0 - rng.unit(), rng.unit());
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (0.5 + 0.4 * z).clamp(0.0, 1.0)
            }
            Dist::Cosine => (1.0 + (std::f64::consts::PI * rng.unit()).cos()) / 2.0,
        }
    }
}

/// Shape of the `paperq` dataset.
#[derive(Debug, Clone, Copy)]
pub struct PaperqShape {
    /// `s`: rows in each of A, B and C.
    pub rows: usize,
    /// `1 / j`: distinct values of each join column.
    pub join_domain: u64,
}

/// Creates and fills tables A, B and C and builds the access paths the
/// paper's plans assume: a score index per ranking predicate and a hash
/// index per join column.
pub fn load_paperq(db: &Database, seed: u64, shape: PaperqShape) -> Result<()> {
    let tables: [(&str, bool, &[Dist]); 3] = [
        ("A", true, &[Dist::Uniform, Dist::Normal]),
        ("B", true, &[Dist::Cosine, Dist::Normal]),
        ("C", false, &[Dist::Uniform]),
    ];
    for (stream, (name, with_bool, dists)) in tables.into_iter().enumerate() {
        let mut fields = vec![
            Field::new("jc1", DataType::Int64),
            Field::new("jc2", DataType::Int64),
        ];
        if with_bool {
            fields.push(Field::new("b", DataType::Bool));
        }
        for i in 0..dists.len() {
            fields.push(Field::new(format!("p{}", i + 1), DataType::Float64));
        }
        db.create_table(name, Schema::new(fields))?;
        let mut rng = SplitMix64::fork(seed, stream as u64);
        db.insert_batch(
            name,
            (0..shape.rows).map(|_| {
                let mut row = vec![
                    Value::from(rng.below(shape.join_domain) as i64),
                    Value::from(rng.below(shape.join_domain) as i64),
                ];
                if with_bool {
                    row.push(Value::from(rng.unit() < 0.4));
                }
                row.extend(dists.iter().map(|d| Value::from(d.sample(&mut rng))));
                row
            }),
        )?;
    }

    let query = parse_topk_query(PAPER_Q)?;
    for pred in query.ranking.predicates() {
        let table = db.catalog().table(&pred.relations()[0])?;
        let index = ScoreIndex::build(pred, table.schema(), &table.scan())?;
        table.add_score_index(index);
    }
    for name in ["A", "B", "C"] {
        let table = db.catalog().table(name)?;
        let rows = table.scan();
        for col in ["jc1", "jc2"] {
            let index = HashIndex::build(&format!("{name}.{col}"), table.schema(), &rows)?;
            table.add_hash_index(index);
        }
    }
    Ok(())
}

/// Creates the empty ingest table `E(id, g, x, score)`.
pub fn create_e(db: &Database) -> Result<()> {
    db.create_table(
        "E",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("g", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("score", DataType::Float64),
        ]),
    )?;
    Ok(())
}

/// The next `n` rows of `E`, ids counting on from `first_id`.
pub fn e_rows(rng: &mut SplitMix64, first_id: u64, n: usize) -> Vec<Vec<Value>> {
    (0..n as u64)
        .map(|i| {
            vec![
                Value::from((first_id + i) as i64),
                Value::from(rng.below(1000) as i64),
                Value::from(rng.unit()),
                Value::from(Dist::Normal.sample(rng)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_samples_stay_in_range() {
        let (mut a, mut b) = (SplitMix64::fork(7, 1), SplitMix64::fork(7, 1));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            SplitMix64::fork(7, 1).next_u64(),
            SplitMix64::fork(7, 2).next_u64()
        );
        for d in [Dist::Uniform, Dist::Normal, Dist::Cosine] {
            for _ in 0..1000 {
                assert!((0.0..=1.0).contains(&d.sample(&mut a)));
            }
        }
        assert!((0..1000).all(|_| a.below(250) < 250));
    }
}
