//! Seeded input generation: a small deterministic RNG, Zipf popularity,
//! and the row writes of the write-heavy workload. The same `--seed`
//! always yields the same inputs.

use sqlengine::{Database, Row, Value};

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf popularity over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One row write: a copy of an existing row of a seeded table with every
/// integer primary-key column moved past the table's maximum, appended
/// through the engine's own insert path. Returns the table and the row as
/// stored.
pub fn write_row(db: &mut Database, rng: &mut Rng) -> Result<(String, Row), String> {
    let candidates: Vec<usize> = (0..db.tables.len())
        .filter(|&i| !db.tables[i].rows.is_empty())
        .collect();
    if candidates.is_empty() {
        return Err(format!("database {} has no rows to copy", db.name));
    }
    let t = candidates[rng.below(candidates.len())];
    let name = db.tables[t].schema.name.clone();
    let table = db
        .table_mut(&name)
        .ok_or_else(|| format!("table {name} vanished"))?;
    let mut row = table.rows[rng.below(table.rows.len())].clone();
    for (i, col) in table.schema.columns.iter().enumerate() {
        if col.primary_key {
            let max = table
                .rows
                .iter()
                .filter_map(|r| match r[i] {
                    Value::Integer(v) => Some(v),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            row[i] = Value::Integer(max + 1);
        }
    }
    table
        .insert(row)
        .map_err(|e| format!("insert into {name}: {e}"))?;
    let stored = table.rows.last().cloned().ok_or("insert stored no row")?;
    Ok((name, stored))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tenth = draws.iter().filter(|&&r| r == 9).count();
        assert!(draws.iter().all(|&r| r < 1000));
        assert!(top > 5 * tenth, "top={top} tenth={tenth}");
    }

    #[test]
    fn write_row_appends_and_bumps_revision() {
        let mut db = sqlengine::database_from_script(
            "d",
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT); INSERT INTO t VALUES (3, 'x');",
        )
        .expect("fixture parses");
        let before = db.revision();
        write_row(&mut db, &mut Rng::new(0)).expect("write succeeds");
        assert_ne!(db.revision(), before);
        let rows = &db.table("t").expect("table exists").rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], Value::Integer(4));
    }
}
