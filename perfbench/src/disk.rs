//! `disk_shared_scans`: the paper's experiment.  Sixteen range scans drawn
//! from the Table 2 classes (1/10/50/100 % of the table) stay in flight
//! against a compressed segment served by relevance scheduling over a
//! modelled disk, so ABM plan/commit, the buffer pool and loads do the
//! work.  Two driver threads each multiplex eight scans in-process: a pass
//! round-robins `try_next_chunk` over them, and only when a whole pass
//! finds nothing ready does the thread block in `next_chunk`, on the scan
//! with the fewest chunks left.

use crate::data::{self, checked_columns, ChunkFacts};
use crate::phases::{self, Driver, Measured, Sink, Tally};
use crate::{stats, RunConfig, ThreadWindow, DRIVER_THREADS};
use cscan_core::threaded::CScanHandle;
use cscan_core::{CScanPlan, ColSet, PinnedChunk};
use cscan_server::{AdmissionConfig, Catalog, Permit, TableConfig, TableEntry};
use cscan_workload::queries::{table2_classes, QueryClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

const TABLE: &str = "lineitem";

/// Sizes of one disk run.
struct Params {
    chunks: u32,
    rows_per_chunk: u64,
    buffer_chunks: u64,
    io_threads: usize,
    io_cost_per_page: Duration,
    in_flight: usize,
    warm_up_scans: u64,
}

fn params(tiny: bool) -> Params {
    if tiny {
        return Params {
            chunks: 32,
            rows_per_chunk: 256,
            buffer_chunks: 20,
            io_threads: 2,
            io_cost_per_page: Duration::from_micros(200),
            in_flight: 16,
            warm_up_scans: 16,
        };
    }
    Params {
        chunks: 96,
        rows_per_chunk: 8192,
        buffer_chunks: 24,
        io_threads: 2,
        io_cost_per_page: Duration::from_micros(1000),
        in_flight: 16,
        warm_up_scans: 64,
    }
}

pub(crate) fn run(cfg: &RunConfig, dir: &Path, setups: usize) -> Result<Measured, String> {
    let p = params(cfg.tiny);
    // A driver blocked on one scan leaves a granted chunk pinned in each of
    // its other scans' mailboxes, so grants alone can pin `in_flight - 1`
    // frames and loads in flight reserve `io_threads` more.  A smaller pool
    // has no frame left to load the blocked scan's chunk into: deadlock.
    assert!(
        p.buffer_chunks as usize > p.in_flight + p.io_threads,
        "buffer too small for the scans in flight"
    );
    let windows = cfg.windows();
    let mut m = Measured::new(p.io_threads, DRIVER_THREADS, 0, p.in_flight);
    let per_thread = p.in_flight / DRIVER_THREADS;
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
        catalog
            .add_segment(
                TABLE,
                &path,
                TableConfig {
                    buffer_chunks: p.buffer_chunks,
                    io_threads: p.io_threads,
                    io_cost_per_page: p.io_cost_per_page,
                    // Twice the scans in flight: nothing ever queues or sheds.
                    admission: AdmissionConfig {
                        max_attached: 2 * p.in_flight,
                        ..AdmissionConfig::default()
                    },
                    ..TableConfig::default()
                },
            )
            .map_err(|e| format!("open segment: {e}"))?;
        m.segment_open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let entry = Arc::clone(catalog.get(TABLE).expect("table just added"));
        m.sizes = vec![
            ("table_chunks", p.chunks.to_string()),
            ("rows_per_chunk", p.rows_per_chunk.to_string()),
            ("buffer_chunks", p.buffer_chunks.to_string()),
            ("segment_bytes", summary.file_bytes.to_string()),
            (
                "pages_per_chunk",
                entry.model().avg_chunk_pages().to_string(),
            ),
        ];
        let facts = Arc::new(facts);
        let drivers = (0..DRIVER_THREADS)
            .map(|t| ScanDriver {
                entry: Arc::clone(&entry),
                facts: Arc::clone(&facts),
                rng: StdRng::seed_from_u64(cfg.seed ^ (0xD15C << 8 | t as u64)),
                deck: Vec::new(),
                slots: (0..per_thread).map(|_| None).collect(),
                warm_up: p.warm_up_scans,
                opened: 0,
            })
            .collect();
        let measured = i == 0;
        let obs = catalog.observability();
        let driven = phases::drive(
            drivers,
            &obs,
            if measured { windows } else { 0 },
            cfg.seconds,
        )?;
        m.setup_s
            .push(driven.warmed.duration_since(started).as_secs_f64());
        drop(entry);
        m.quiesce(&catalog, &driven);
        drop(catalog);
        let _ = std::fs::remove_file(&path);
        if measured {
            m.keep(driven);
        }
    }
    Ok(m)
}

/// One open scan.  Field order is drop order: the handle detaches before
/// the admission permit frees its slot.
struct Active {
    handle: CScanHandle,
    _permit: Permit,
    start: u32,
    seen: Vec<bool>,
    got: u32,
    opened: Instant,
    first: Option<Instant>,
    /// Since the last delivery (or the open): breaks ties when choosing
    /// the scan to block on.
    waiting_since: Instant,
}

struct ScanDriver {
    entry: Arc<TableEntry>,
    facts: Arc<Vec<ChunkFacts>>,
    rng: StdRng,
    deck: Vec<QueryClass>,
    slots: Vec<Option<Active>>,
    warm_up: u64,
    opened: u64,
}

/// What one poll of a scan produced.
enum Step {
    Chunk(PinnedChunk),
    Done,
    Failed,
    Pending,
}

impl ScanDriver {
    /// Opens the next scan of this thread's seeded class sequence: the
    /// Table 2 classes dealt from a reshuffled deck, so every run sees the
    /// same class mix and only the order and start positions vary.
    fn open(&mut self, sink: &mut Sink) -> Option<Active> {
        if self.deck.is_empty() {
            self.deck = table2_classes();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let class = self.deck.pop().expect("deck refilled");
        let ranges = class.ranges(self.entry.model(), &mut self.rng);
        let range = ranges.ranges()[0];
        self.opened += 1;
        let plan = CScanPlan::new(
            format!("{}-{}", class.label(), self.opened),
            ranges,
            ColSet::from_columns(checked_columns()),
        );
        let opened = Instant::now();
        let traced = sink.traced(opened);
        let result = self.entry.open_scan(&plan);
        let now = Instant::now();
        if traced {
            if let Some(tw) = sink.at(now) {
                tw.trace.admission_open.record(now - opened);
            }
        }
        match result {
            Ok((permit, handle)) => Some(Active {
                handle,
                _permit: permit,
                start: range.start,
                seen: vec![false; (range.end - range.start) as usize],
                got: 0,
                opened,
                first: None,
                waiting_since: opened,
            }),
            Err(_) => {
                if let Some(tw) = sink.at(now) {
                    tw.failed += 1;
                }
                None
            }
        }
    }

    /// Applies one poll result of slot `i`; returns whether it progressed.
    fn apply(&mut self, i: usize, step: Step, sink: &mut Sink) -> Result<bool, String> {
        let now = Instant::now();
        let a = self.slots[i].as_mut().expect("polled slot is open");
        match step {
            Step::Pending => return Ok(false),
            Step::Chunk(pin) => {
                let c = pin.chunk().index();
                let idx = c.wrapping_sub(a.start) as usize;
                if a.seen.get(idx) != Some(&false) {
                    return Err(format!(
                        "scan from chunk {} got chunk {c} twice or out of range",
                        a.start
                    ));
                }
                let mut sums = [0i64; 2];
                for (sum, col) in sums.iter_mut().zip(checked_columns()) {
                    *sum = pin
                        .column(col)
                        .ok_or_else(|| format!("chunk {c} lacks column {col:?}"))?
                        .iter()
                        .sum();
                }
                if sums != self.facts[c as usize].checked_sums() {
                    return Err(format!(
                        "chunk {c}: column sums {sums:?} differ from the generator's"
                    ));
                }
                let rows = pin.rows() as u64;
                pin.complete();
                a.seen[idx] = true;
                a.got += 1;
                a.first.get_or_insert(now);
                a.waiting_since = now;
                if let Some(tw) = sink.at(now) {
                    tw.chunks += 1;
                    tw.delivered_bytes += rows * 8 * checked_columns().len() as u64;
                }
            }
            Step::Done => {
                if a.got as usize != a.seen.len() {
                    return Err(format!(
                        "scan from chunk {} ended after {} of {} chunks",
                        a.start,
                        a.got,
                        a.seen.len()
                    ));
                }
                let (opened, first) = (a.opened, a.first.unwrap_or(now));
                if let Some(tw) = sink.at(now) {
                    tw.completed += 1;
                    tw.latency_ms.push(stats::ms(now - opened));
                    tw.ttfb_ms.push(stats::ms(first - opened));
                }
                self.slots[i] = None;
            }
            Step::Failed => {
                if let Some(tw) = sink.at(now) {
                    tw.failed += 1;
                }
                self.slots[i] = None;
            }
        }
        Ok(true)
    }

    /// The closed loop: keep every slot busy and consume whatever is
    /// ready until the sink says stop.
    fn pump(&mut self, sink: &mut Sink) -> Result<(), String> {
        while !sink.done(self.warm_up) {
            let mut progressed = false;
            for i in 0..self.slots.len() {
                if self.slots[i].is_none() {
                    self.slots[i] = self.open(sink);
                    continue;
                }
                let handle = &self.slots[i].as_ref().expect("open slot").handle;
                let t = Instant::now();
                let traced = sink.traced(t);
                let step = match handle.try_next_chunk() {
                    Ok(Poll::Ready(Some(pin))) => Step::Chunk(pin),
                    Ok(Poll::Ready(None)) => Step::Done,
                    Ok(Poll::Pending) => Step::Pending,
                    Err(_) => Step::Failed,
                };
                if traced {
                    if let Some(tw) = sink.at(t) {
                        tw.trace.try_next.record_since(t);
                        tw.trace.pending += matches!(step, Step::Pending) as u64;
                    }
                }
                progressed |= self.apply(i, step, sink)?;
            }
            if progressed {
                continue;
            }
            // Nothing ready anywhere: block on the scan with the fewest
            // chunks left (the longest waiter among those).  Relevance
            // loads for the starved scan with the fewest chunks needed
            // first, and while no load is in flight it loads for that scan
            // only; blocking on any other scan can wait forever behind a
            // grant this thread is not there to take (see `phases`).
            let Some(i) = (0..self.slots.len())
                .filter(|&i| self.slots[i].is_some())
                .min_by_key(|&i| {
                    let a = self.slots[i].as_ref().expect("open slot");
                    (a.seen.len() as u32 - a.got, a.waiting_since)
                })
            else {
                continue;
            };
            let handle = &self.slots[i].as_ref().expect("open slot").handle;
            let t = Instant::now();
            let traced = sink.traced(t);
            let step = match handle.next_chunk() {
                Ok(Some(pin)) => Step::Chunk(pin),
                Ok(None) => Step::Done,
                Err(_) => Step::Failed,
            };
            if traced && t.elapsed() >= Duration::from_millis(50) {
                if let Some(tw) = sink.at(t) {
                    tw.trace.stalls_50ms += 1;
                }
            }
            self.apply(i, step, sink)?;
        }
        Ok(())
    }
}

impl Driver for ScanDriver {
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tw = ThreadWindow::default();
        self.pump(&mut Sink::WarmUp(&mut tw))
    }

    fn run(&mut self, tally: &mut Tally) -> Result<(), String> {
        self.pump(&mut Sink::Run(tally))
    }
}
