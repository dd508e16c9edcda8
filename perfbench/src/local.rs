//! `local_blocking_pipelines`: per-chunk CPU cost.  Two in-process
//! `SessionSource` → `Filter` → `HashAggregate` pipelines, one per driver
//! thread, run full scans back to back over a compressed segment four
//! times the buffer, so every pass re-reads, re-checksums and re-decodes its
//! chunks: segment reads, codec decode and the exec operators do the work.
//!
//! A modelled disk paces the pipelines: their CPU work per scan is about
//! half the modelled read time.  On the 2-vCPU virtual machine the
//! benchmark was tuned on, CPU speed drifted by ±20 % over minutes, and
//! fully CPU-bound pipelines moved 15–35 % from run to run, more than any
//! bound can hold.  Paced, the end-to-end figures hold within a few per
//! cent, and the CPU cost is read from the per-layer metrics
//! (`storage.decode_ms_per_scan`, `exec.self_ms_per_scan`).  A change that
//! more than doubles it still shows end to end.
//!
//! Each pipeline scans its own table — the same segment file served twice,
//! each with its own buffer — so the two never share a load.  With one
//! shared table, how far apart the two scans drift decides how many loads
//! they share, which moved throughput by ±15 % from run to run and is not
//! what this workload measures.

use crate::data::{self, ChunkFacts, FLAG, FLAGS, PRICE, QTY, QTY_LIMIT};
use crate::phases::{self, Driver, Measured, Sink, Tally};
use crate::{stats, RunConfig, ThreadWindow, DRIVER_THREADS};
use cscan_core::{CScanPlan, ColSet, ScanError};
use cscan_exec::{AggFunc, DataChunk, Expr, Filter, HashAggregate, Operator, SessionSource};
use cscan_obs::Registry;
use cscan_server::{AdmissionConfig, Catalog, TableConfig, TableEntry};
use cscan_storage::ColumnId;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE: &str = "lineitem";

/// The pipelines' source columns, in output order: group key, filter and
/// summed column, summed column.
const SOURCE_COLUMNS: [usize; 3] = [FLAG, QTY, PRICE];

/// Sizes of one local run.
struct Params {
    chunks: u32,
    rows_per_chunk: u64,
    buffer_chunks: u64,
    io_cost_per_page: Duration,
    warm_up_scans: u64,
}

fn params(tiny: bool) -> Params {
    if tiny {
        return Params {
            chunks: 8,
            rows_per_chunk: 512,
            buffer_chunks: 2,
            io_cost_per_page: Duration::from_micros(100),
            warm_up_scans: 1,
        };
    }
    Params {
        chunks: 32,
        rows_per_chunk: 8192,
        buffer_chunks: 8,
        io_cost_per_page: Duration::from_micros(3500),
        warm_up_scans: 2,
    }
}

pub(crate) fn run(cfg: &RunConfig, dir: &Path, setups: usize) -> Result<Measured, String> {
    let p = params(cfg.tiny);
    let windows = cfg.windows();
    let mut m = Measured::new(
        TableConfig::default().io_threads * DRIVER_THREADS,
        DRIVER_THREADS,
        0,
        DRIVER_THREADS,
    );
    for i in 0..setups {
        let started = Instant::now();
        let table = data::lineitem(cfg.seed, p.chunks, p.rows_per_chunk);
        let path = dir.join(format!("{TABLE}-{i}.seg"));
        let t = Instant::now();
        let (summary, facts) =
            data::write_segment(&table, &path).map_err(|e| format!("write segment: {e}"))?;
        m.segment_write_s.push(t.elapsed().as_secs_f64());
        let mut catalog = Catalog::new();
        let t = Instant::now();
        for d in 0..DRIVER_THREADS {
            catalog
                .add_segment(
                    format!("{TABLE}_{d}"),
                    &path,
                    TableConfig {
                        buffer_chunks: p.buffer_chunks,
                        io_cost_per_page: p.io_cost_per_page,
                        admission: AdmissionConfig {
                            max_attached: 2,
                            ..AdmissionConfig::default()
                        },
                        ..TableConfig::default()
                    },
                )
                .map_err(|e| format!("open segment: {e}"))?;
        }
        m.segment_open_ms
            .push(t.elapsed().as_secs_f64() * 1e3 / DRIVER_THREADS as f64);
        m.sizes = vec![
            ("table_chunks", p.chunks.to_string()),
            ("rows_per_chunk", p.rows_per_chunk.to_string()),
            ("buffer_chunks", p.buffer_chunks.to_string()),
            ("segment_bytes", summary.file_bytes.to_string()),
        ];
        let expected = Arc::new(expected_groups(&facts));
        let obs = catalog.observability();
        let drivers = catalog
            .tables()
            .iter()
            .map(|entry| PipelineDriver {
                entry: Arc::clone(entry),
                obs: Arc::clone(&obs),
                expected: Arc::clone(&expected),
                chunks: p.chunks,
                warm_up: p.warm_up_scans,
                opened: 0,
            })
            .collect();
        let measured = i == 0;
        let driven = phases::drive(
            drivers,
            &obs,
            if measured { windows } else { 0 },
            cfg.seconds,
        )?;
        m.setup_s
            .push(driven.warmed.duration_since(started).as_secs_f64());
        m.quiesce(&catalog, &driven);
        drop(catalog);
        let _ = std::fs::remove_file(&path);
        if measured {
            m.keep(driven);
        }
    }
    Ok(m)
}

/// The aggregate a full-table pipeline must produce: one row per flag
/// with qualifying rows — flag, count, sum of quantity, sum of price.
fn expected_groups(facts: &[ChunkFacts]) -> Vec<[i64; 4]> {
    let mut groups = [[0i64; 3]; FLAGS];
    for f in facts {
        for (g, fg) in groups.iter_mut().zip(&f.groups) {
            for (a, b) in g.iter_mut().zip(fg) {
                *a += b;
            }
        }
    }
    (0..FLAGS)
        .filter(|&flag| groups[flag][0] > 0)
        .map(|flag| {
            let [count, qty, price] = groups[flag];
            [flag as i64, count, qty, price]
        })
        .collect()
}

struct PipelineDriver {
    entry: Arc<TableEntry>,
    obs: Arc<Registry>,
    expected: Arc<Vec<[i64; 4]>>,
    chunks: u32,
    warm_up: u64,
    opened: u64,
}

/// What the probe above the `SessionSource` saw of one pipeline's scan.
struct ProbeState {
    traced: bool,
    seen: Vec<bool>,
    got: u32,
    first: Option<Instant>,
    /// Chunk deliveries and their column bytes, stamped for attribution
    /// to a window once the pipeline is done.
    deliveries: Vec<(Instant, u64)>,
    source_ns: u64,
    error: Option<String>,
}

/// The benchmark-side wrapper around the pipeline's leaf: checks every
/// chunk arrives once, and times the leaf so the operators' self time is
/// the pipeline's time minus this.
struct Probe<'a, O> {
    inner: O,
    state: &'a mut ProbeState,
}

impl<O: Operator> Operator for Probe<'_, O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        let t = self.state.traced.then(Instant::now);
        let out = self.inner.next();
        let now = Instant::now();
        let st = &mut *self.state;
        if let Some(t) = t {
            st.source_ns += (now - t).as_nanos() as u64;
        }
        if let Ok(Some(chunk)) = &out {
            let c = chunk.chunk.index() as usize;
            if st.seen.get(c) != Some(&false) {
                st.error
                    .get_or_insert(format!("pipeline got chunk {c} twice or out of range"));
            } else {
                st.seen[c] = true;
            }
            st.got += 1;
            st.first.get_or_insert(now);
            st.deliveries
                .push((now, (chunk.len() * chunk.width() * 8) as u64));
        }
        out
    }
}

impl PipelineDriver {
    /// Runs one full-table pipeline and checks its aggregate.
    fn pipeline(&mut self, sink: &mut Sink) -> Result<(), String> {
        self.opened += 1;
        let cols: Vec<ColumnId> = SOURCE_COLUMNS
            .iter()
            .map(|&c| ColumnId::new(c as u16))
            .collect();
        let plan = CScanPlan::full_table(
            format!("pipeline-{}", self.opened),
            ColSet::from_columns(cols.iter().copied()),
        );
        let started = Instant::now();
        let traced = sink.traced(started);
        let (permit, handle) = match self.entry.open_scan(&plan) {
            Ok(opened) => opened,
            Err(_) => {
                if let Some(tw) = sink.at(Instant::now()) {
                    tw.failed += 1;
                }
                return Ok(());
            }
        };
        let mut state = ProbeState {
            traced,
            seen: vec![false; self.chunks as usize],
            got: 0,
            first: None,
            deliveries: Vec::with_capacity(self.chunks as usize),
            source_ns: 0,
            error: None,
        };
        let source = SessionSource::new(handle, cols).with_observability(Arc::clone(&self.obs));
        let probe = Probe {
            inner: source,
            state: &mut state,
        };
        let filter = Filter::new(probe, Expr::col(1).le(Expr::lit(QTY_LIMIT)));
        let mut agg = HashAggregate::new(
            filter,
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Sum(2)],
        );
        let t = Instant::now();
        let out = agg.next();
        let pipeline_ns = t.elapsed().as_nanos() as u64;
        drop(agg);
        drop(permit);
        let now = Instant::now();
        let out = match out {
            Ok(Some(out)) => out,
            Ok(None) => return Err("aggregate produced no output".into()),
            Err(_) => {
                if let Some(tw) = sink.at(now) {
                    tw.failed += 1;
                }
                return Ok(());
            }
        };
        if let Some(e) = state.error {
            return Err(e);
        }
        if state.got != self.chunks {
            return Err(format!(
                "pipeline saw {} of {} chunks",
                state.got, self.chunks
            ));
        }
        let rows: Vec<[i64; 4]> = (0..out.len())
            .map(|r| std::array::from_fn(|c| out.column(c)[r]))
            .collect();
        if rows != *self.expected {
            return Err(format!(
                "aggregate {rows:?} differs from the generator's {:?}",
                self.expected
            ));
        }
        for &(at, bytes) in &state.deliveries {
            if let Some(tw) = sink.at(at) {
                tw.chunks += 1;
                tw.delivered_bytes += bytes;
            }
        }
        if let Some(tw) = sink.at(now) {
            if traced {
                tw.trace.pipeline_ns += pipeline_ns;
                tw.trace.source_ns += state.source_ns;
            }
            tw.completed += 1;
            tw.latency_ms.push(stats::ms(now - started));
            tw.ttfb_ms
                .push(stats::ms(state.first.unwrap_or(now) - started));
        }
        Ok(())
    }
}

impl Driver for PipelineDriver {
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tw = ThreadWindow::default();
        let mut sink = Sink::WarmUp(&mut tw);
        while !sink.done(self.warm_up) {
            self.pipeline(&mut sink)?;
        }
        match tw.failed {
            0 => Ok(()),
            n => Err(format!("{n} warm-up pipelines failed")),
        }
    }

    fn run(&mut self, tally: &mut Tally) -> Result<(), String> {
        let mut sink = Sink::Run(tally);
        while !sink.done(0) {
            self.pipeline(&mut sink)?;
        }
        Ok(())
    }
}
