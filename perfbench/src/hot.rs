//! `hot_short_scans`: the serving path alone.  Two persistent loopback
//! connections (one per driver thread, opened during set-up so the
//! accept loop's poll interval is never on the measured path) run short
//! range and LIMIT scans back to back over an in-memory table that fits
//! the buffer pool.  After the warm-up every chunk is resident, so there
//! are no loads and no decodes: the work is the wire protocol, the
//! network loop, the service layer, the client and the pin/grant path.

use crate::data::{self, checked_columns, ChunkFacts};
use crate::phases::{self, Driver, Measured, Sink, Tally};
use crate::{stats, RunConfig, ThreadWindow, Trace, DRIVER_THREADS};
use cscan_client::ScanClient;
use cscan_core::{CScanPlan, ColSet};
use cscan_server::{serve, AdmissionConfig, Catalog, ServerConfig, TableConfig};
use cscan_storage::ScanRanges;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const TABLE: &str = "lineitem";

/// Sizes of one hot run.
struct Params {
    chunks: u32,
    rows_per_chunk: u64,
    /// Longest range (and largest LIMIT) of a short scan, in chunks.
    max_scan_chunks: u32,
    warm_up_scans: u64,
}

fn params(tiny: bool) -> Params {
    if tiny {
        return Params {
            chunks: 8,
            rows_per_chunk: 256,
            max_scan_chunks: 2,
            warm_up_scans: 2,
        };
    }
    Params {
        chunks: 64,
        rows_per_chunk: 1024,
        max_scan_chunks: 4,
        warm_up_scans: 50,
    }
}

pub(crate) fn run(cfg: &RunConfig, setups: usize) -> Result<Measured, String> {
    let p = params(cfg.tiny);
    let windows = cfg.windows();
    // The table fits twice over: nothing is ever evicted.
    let buffer_chunks = 2 * p.chunks as u64;
    let mut m = Measured::new(
        TableConfig::default().io_threads,
        DRIVER_THREADS,
        DRIVER_THREADS,
        DRIVER_THREADS,
    );
    m.sizes = vec![
        ("table_chunks", p.chunks.to_string()),
        ("rows_per_chunk", p.rows_per_chunk.to_string()),
        ("buffer_chunks", buffer_chunks.to_string()),
    ];
    for i in 0..setups {
        let started = Instant::now();
        let table = data::lineitem(cfg.seed, p.chunks, p.rows_per_chunk);
        let facts = Arc::new(data::table_facts(&table));
        let mut catalog = Catalog::new();
        catalog.add_mem_table(
            TABLE,
            table,
            TableConfig {
                buffer_chunks,
                admission: AdmissionConfig {
                    max_attached: 2 * DRIVER_THREADS,
                    ..AdmissionConfig::default()
                },
                ..TableConfig::default()
            },
        );
        let catalog = Arc::new(catalog);
        let server = serve(
            Arc::clone(&catalog),
            "127.0.0.1:0",
            ServerConfig {
                exit_on_shutdown: false,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let drivers: Result<Vec<_>, String> = (0..DRIVER_THREADS)
            .map(|t| {
                Ok(HotDriver {
                    client: ScanClient::connect(server.addr())
                        .map_err(|e| format!("connect: {e}"))?,
                    facts: Arc::clone(&facts),
                    rng: StdRng::seed_from_u64(cfg.seed ^ (0x407 << 8 | t as u64)),
                    chunks: p.chunks,
                    max_scan_chunks: p.max_scan_chunks,
                    warm_up: p.warm_up_scans,
                    opened: 0,
                })
            })
            .collect();
        let measured = i == 0;
        let obs = catalog.observability();
        let driven = drivers
            .and_then(|d| phases::drive(d, &obs, if measured { windows } else { 0 }, cfg.seconds));
        // The clients are closed; stopping joins every connection thread,
        // so all server-side scans are gone before the leak checks.
        server.stop();
        server.join();
        let driven = driven?;
        m.setup_s
            .push(driven.warmed.duration_since(started).as_secs_f64());
        m.quiesce(&catalog, &driven);
        drop(catalog);
        if measured {
            m.keep(driven);
        }
    }
    Ok(m)
}

struct HotDriver {
    client: ScanClient,
    facts: Arc<Vec<ChunkFacts>>,
    rng: StdRng,
    chunks: u32,
    max_scan_chunks: u32,
    warm_up: u64,
    opened: u64,
}

impl HotDriver {
    /// The next scan of the seeded sequence: half short ranges, half
    /// LIMIT scans over the whole table.  Returns the plan, the chunks it
    /// may deliver, and how many it must deliver.
    fn next_plan(&mut self) -> (CScanPlan, std::ops::Range<u32>, u32) {
        self.opened += 1;
        let label = format!("hot-{}", self.opened);
        let cols = ColSet::from_columns(checked_columns());
        let len = self.rng.gen_range(1..=self.max_scan_chunks);
        if self.rng.gen_range(0..2) == 0 {
            let start = self.rng.gen_range(0..=self.chunks - len);
            let plan = CScanPlan::new(label, ScanRanges::single(start, start + len), cols);
            (plan, start..start + len, len)
        } else {
            let plan = CScanPlan::full_table(label, cols).with_chunk_limit(len);
            (plan, 0..self.chunks, len)
        }
    }

    /// Runs one scan to its end and checks what it delivered.
    fn scan(
        &mut self,
        (plan, range, want): (CScanPlan, std::ops::Range<u32>, u32),
        sink: &mut Sink,
    ) -> Result<(), String> {
        let started = Instant::now();
        let traced = sink.traced(started);
        let mut scan = match self.client.open_scan(TABLE, plan) {
            Ok(scan) => scan,
            Err(_) => {
                if let Some(tw) = sink.at(Instant::now()) {
                    tw.failed += 1;
                }
                return Ok(());
            }
        };
        let opened = Instant::now();
        let mut timers = Trace::default();
        if traced {
            timers.client_open.record(opened - started);
        }
        let mut seen = vec![false; self.chunks as usize];
        let mut got = 0u32;
        let mut first = None;
        loop {
            let t = traced.then(Instant::now);
            let batch = scan.next_batch();
            let now = Instant::now();
            if let Some(t) = t {
                timers.client_next_batch.record(now - t);
            }
            let batch = match batch {
                Ok(Some(batch)) => batch,
                Ok(None) => break,
                Err(_) => {
                    if let Some(tw) = sink.at(now) {
                        tw.failed += 1;
                    }
                    return Ok(());
                }
            };
            let c = batch.chunk;
            if !range.contains(&c) || std::mem::replace(&mut seen[c as usize], true) {
                return Err(format!(
                    "scan of {range:?} got chunk {c} twice or out of range"
                ));
            }
            let mut sums = [0i64; 2];
            for (sum, col) in sums.iter_mut().zip(checked_columns()) {
                *sum = batch
                    .column(col.index())
                    .ok_or_else(|| format!("batch of chunk {c} lacks column {col:?}"))?
                    .iter()
                    .sum();
            }
            if sums != self.facts[c as usize].checked_sums() {
                return Err(format!(
                    "chunk {c}: column sums {sums:?} differ from the generator's"
                ));
            }
            got += 1;
            if first.is_none() {
                first = Some(now);
                if traced {
                    timers.client_first_batch.record(now - opened);
                }
            }
            if let Some(tw) = sink.at(now) {
                tw.chunks += 1;
                tw.delivered_bytes += batch
                    .columns
                    .iter()
                    .map(|(_, v)| v.len() as u64 * 8)
                    .sum::<u64>();
            }
        }
        let now = Instant::now();
        if got != want {
            return Err(format!(
                "scan of {range:?} delivered {got} of {want} chunks"
            ));
        }
        if let Some(tw) = sink.at(now) {
            tw.completed += 1;
            tw.latency_ms.push(stats::ms(now - started));
            tw.ttfb_ms.push(stats::ms(first.unwrap_or(now) - started));
            tw.trace.merge(&timers);
        }
        Ok(())
    }
}

impl Driver for HotDriver {
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tw = ThreadWindow::default();
        let mut sink = Sink::WarmUp(&mut tw);
        // One full scan makes every chunk resident.
        let full = CScanPlan::full_table("hot-warm", ColSet::from_columns(checked_columns()));
        self.scan((full, 0..self.chunks, self.chunks), &mut sink)?;
        for _ in 0..self.warm_up {
            let plan = self.next_plan();
            self.scan(plan, &mut sink)?;
        }
        match tw.failed {
            0 => Ok(()),
            n => Err(format!("{n} warm-up scans failed")),
        }
    }

    fn run(&mut self, tally: &mut Tally) -> Result<(), String> {
        let mut sink = Sink::Run(tally);
        while !sink.done(0) {
            let plan = self.next_plan();
            self.scan(plan, &mut sink)?;
        }
        Ok(())
    }
}
