//! Seeded inputs: a lineitem-shaped table whose values derive from the run
//! seed, the per-chunk facts the correctness checks compare against, the
//! segment file written from it, and the run's private scratch directory.

use cscan_exec::{DataChunk, MemTable};
use cscan_storage::segment::{SegmentSummary, SegmentWriter};
use cscan_storage::{ChunkId, ColumnId};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Columns of the generated table (the lineitem demo's six).
pub const WIDTH: usize = 6;
/// `l_quantity`: the filter column and a checked sum.
pub const QTY: usize = 1;
/// `l_extendedprice`: a checked sum.
pub const PRICE: usize = 2;
/// `l_returnflag` (0..3): the local pipelines' group key.
pub const FLAG: usize = 5;
/// Distinct `l_returnflag` values.
pub const FLAGS: usize = 3;
/// The local pipelines keep rows with `l_quantity <= QTY_LIMIT`.
pub const QTY_LIMIT: i64 = 45;

/// The columns the scan workloads read and check: quantity and price.
pub fn checked_columns() -> [ColumnId; 2] {
    [ColumnId::new(QTY as u16), ColumnId::new(PRICE as u16)]
}

/// SplitMix64 finaliser: cheap, deterministic pseudo-random values.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A lineitem-shaped table of `chunks` chunks whose values derive from
/// `seed`.  The value domains match [`MemTable::lineitem_demo`], so its
/// Figure 9 codec mix ([`MemTable::lineitem_demo_schemes`]) fits them.
pub fn lineitem(seed: u64, chunks: u32, rows_per_chunk: u64) -> MemTable {
    let salt = mix(seed);
    let col = move |k: u64| move |row: u64| mix(row ^ salt.wrapping_add(k << 56));
    let gens: Vec<(&str, cscan_exec::table::ColumnGen)> = vec![
        ("l_orderkey", Arc::new(|row| (row / 4) as i64)),
        ("l_quantity", Arc::new(move |r| (col(1)(r) % 50 + 1) as i64)),
        (
            "l_extendedprice",
            Arc::new(move |r| (col(2)(r) % 100_000 + 1_000) as i64),
        ),
        ("l_discount", Arc::new(move |r| (col(3)(r) % 11) as i64)),
        (
            "l_shipdate",
            Arc::new(move |r| ((r / 4) % 2500 + col(4)(r) % 60) as i64),
        ),
        ("l_returnflag", Arc::new(move |r| (col(5)(r) % 3) as i64)),
    ];
    let gens = gens.into_iter().map(|(n, g)| (n.to_string(), g)).collect();
    MemTable::new(gens, chunks as u64 * rows_per_chunk, rows_per_chunk)
}

/// What a correct scan must see in one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFacts {
    /// Sum of every column.
    pub col_sums: [i64; WIDTH],
    /// Per `l_returnflag` group, over rows with `l_quantity <= QTY_LIMIT`:
    /// row count, sum of quantity, sum of price.
    pub groups: [[i64; 3]; FLAGS],
}

impl ChunkFacts {
    /// Computes the facts of one generated chunk.
    pub fn of(data: &DataChunk) -> ChunkFacts {
        let mut col_sums = [0i64; WIDTH];
        for (c, sum) in col_sums.iter_mut().enumerate() {
            *sum = data.column(c).iter().sum();
        }
        let mut groups = [[0i64; 3]; FLAGS];
        let (qty, price, flag) = (data.column(QTY), data.column(PRICE), data.column(FLAG));
        for r in 0..data.len() {
            if qty[r] <= QTY_LIMIT {
                let g = &mut groups[flag[r] as usize];
                g[0] += 1;
                g[1] += qty[r];
                g[2] += price[r];
            }
        }
        ChunkFacts { col_sums, groups }
    }

    /// The checked (quantity, price) sums.
    pub fn checked_sums(&self) -> [i64; 2] {
        [self.col_sums[QTY], self.col_sums[PRICE]]
    }
}

/// Facts of every chunk of `table`, generating each chunk once.
pub fn table_facts(table: &MemTable) -> Vec<ChunkFacts> {
    (0..table.num_chunks())
        .map(|c| ChunkFacts::of(&table.read_chunk_all(ChunkId::new(c))))
        .collect()
}

/// Writes `table` as a segment under the Figure 9 codec mix (fsynced by
/// [`SegmentWriter::finish`]) and returns its summary and chunk facts.
pub fn write_segment(
    table: &MemTable,
    path: &Path,
) -> io::Result<(SegmentSummary, Vec<ChunkFacts>)> {
    let mut writer = SegmentWriter::create(path, MemTable::lineitem_demo_schemes())?;
    let mut facts = Vec::with_capacity(table.num_chunks() as usize);
    for c in 0..table.num_chunks() {
        let data = table.read_chunk_all(ChunkId::new(c));
        facts.push(ChunkFacts::of(&data));
        let cols: Vec<&[i64]> = (0..WIDTH).map(|i| data.column(i)).collect();
        writer.append_chunk(&cols)?;
    }
    Ok((writer.finish()?, facts))
}

/// A directory private to one run, removed (with everything in it) when
/// dropped — on success, on error returns and on panics alike.  Its name
/// joins the pid, the clock and a counter, and `create_dir` refuses an
/// existing name, so concurrent runs never share one.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory under `root` (created if missing).
    pub fn new(root: &Path, tag: &str) -> io::Result<ScratchDir> {
        std::fs::create_dir_all(root)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        for attempt in 0u32.. {
            let name = format!("{tag}-{}-{nanos}-{attempt}", std::process::id());
            let path = root.join(name);
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(ScratchDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("u32 attempts exhausted")
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty root behind; fails harmlessly while another run
        // still has its directory there.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_data_but_not_its_shape() {
        let a = table_facts(&lineitem(1, 2, 256));
        let b = table_facts(&lineitem(2, 2, 256));
        assert_ne!(a, b);
        assert_eq!(a, table_facts(&lineitem(1, 2, 256)));
        // Same orderkeys, different quantities.
        assert_eq!(a[0].col_sums[0], b[0].col_sums[0]);
        assert_ne!(a[0].col_sums[QTY], b[0].col_sums[QTY]);
    }
}
