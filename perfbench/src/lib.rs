//! The repository benchmark: three closed-loop workloads over the
//! cooperative-scan system, each driven from one process by at most
//! `nproc` generator threads, reporting end-to-end metrics (untraced) or
//! per-layer metrics (traced).  See `README.md` beside this crate for why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod data;
mod disk;
mod hot;
mod local;
mod phases;
pub mod stats;

use cscan_obs::MetricsSnapshot;
use data::ScratchDir;
use phases::Measured;
use stats::{median, quantile, Hist};
use std::path::Path;

/// Generator threads every workload uses (and connections, where it has
/// them).  Fixed rather than derived from the host so figures compare
/// across machines; a host with fewer cores refuses to run.
pub const DRIVER_THREADS: usize = 2;

/// Where runs create their private scratch directories, relative to the
/// working directory (the checkout root).
pub const SCRATCH_ROOT: &str = ".bench_scratch";

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 multiplexed range scans sharing a modelled disk (the paper's
    /// experiment).
    DiskSharedScans,
    /// Short scans over loopback against a buffer-resident table.
    HotShortScans,
    /// In-process scan → filter → aggregate pipelines over a compressed
    /// segment larger than the buffer.
    LocalBlockingPipelines,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DiskSharedScans,
        Workload::HotShortScans,
        Workload::LocalBlockingPipelines,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiskSharedScans => "disk_shared_scans",
            Workload::HotShortScans => "hot_short_scans",
            Workload::LocalBlockingPipelines => "local_blocking_pipelines",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated data and scan sequence.
    pub seed: u64,
    /// Length of each measured window.
    pub seconds: f64,
    /// Report per-layer metrics (an untraced and a traced window) instead
    /// of end-to-end ones.
    pub trace: bool,
    /// Tiny tables and one set-up: the smoke-test scale.
    pub tiny: bool,
}

impl RunConfig {
    /// Measured windows: the untraced one, plus the traced one in a
    /// traced run.
    pub fn windows(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run whose correctness checks passed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scans attempted in the reported window.
    pub attempted: u64,
    /// Scans that failed or were refused in the reported window.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Run facts: seed, host, generator threads and connections, sample
    /// counts behind each percentile.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run facts as one JSON object.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "_")))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

/// Benchmark-side timers around public calls into each layer.  Recorded
/// only in the traced window; each field is named after the per-layer
/// metric it feeds.
#[derive(Clone, Default)]
pub(crate) struct Trace {
    /// `CScanHandle::try_next_chunk` call durations.
    pub try_next: Hist,
    /// `try_next_chunk` calls that returned `Pending`.
    pub pending: u64,
    /// Blocking `CScanHandle::next_chunk` calls that took 50 ms or more.
    pub stalls_50ms: u64,
    /// In-process `TableEntry::open_scan` durations.
    pub admission_open: Hist,
    /// `ScanClient::open_scan` durations.
    pub client_open: Hist,
    /// From `open_scan` returning to the first batch.
    pub client_first_batch: Hist,
    /// `RemoteScan::next_batch` durations.
    pub client_next_batch: Hist,
    /// Time inside the pipelines' root `Operator::next`.
    pub pipeline_ns: u64,
    /// Of that, time inside the `SessionSource` leaf.
    pub source_ns: u64,
}

impl Trace {
    fn merge(&mut self, o: &Trace) {
        self.try_next.merge(&o.try_next);
        self.pending += o.pending;
        self.stalls_50ms += o.stalls_50ms;
        self.admission_open.merge(&o.admission_open);
        self.client_open.merge(&o.client_open);
        self.client_first_batch.merge(&o.client_first_batch);
        self.client_next_batch.merge(&o.client_next_batch);
        self.pipeline_ns += o.pipeline_ns;
        self.source_ns += o.source_ns;
    }
}

/// What one driver thread saw in one measured window.
#[derive(Clone, Default)]
pub(crate) struct ThreadWindow {
    /// Scans that completed (and passed their checks) in the window.
    pub completed: u64,
    /// Scans that failed or were refused in the window.
    pub failed: u64,
    /// Open-to-last-chunk time of each completed scan, ms.
    pub latency_ms: Vec<f64>,
    /// Open-to-first-chunk time of each completed scan, ms.
    pub ttfb_ms: Vec<f64>,
    /// Chunks handed to the consumer in the window.
    pub chunks: u64,
    /// Column bytes handed to the consumer in the window.
    pub delivered_bytes: u64,
    /// CPU time the driver thread itself used.
    pub cpu_ns: u64,
    /// Benchmark-side timers (traced window only).
    pub trace: Trace,
}

impl ThreadWindow {
    pub(crate) fn merge(&mut self, o: &ThreadWindow) {
        self.completed += o.completed;
        self.failed += o.failed;
        self.latency_ms.extend_from_slice(&o.latency_ms);
        self.ttfb_ms.extend_from_slice(&o.ttfb_ms);
        self.chunks += o.chunks;
        self.delivered_bytes += o.delivered_bytes;
        self.cpu_ns += o.cpu_ns;
        self.trace.merge(&o.trace);
    }
}

/// One measured window, merged over the driver threads.
pub(crate) struct Window {
    /// Nominal length; each event counts in the window its timestamp
    /// falls in.
    pub secs: f64,
    /// Time between the registry reset and the closing snapshot.
    pub snap_secs: f64,
    /// Driver-side counts and timers.
    pub seen: ThreadWindow,
    /// The program's own registry over the window.
    pub snap: MetricsSnapshot,
}

impl Window {
    fn scans_per_s(&self) -> f64 {
        self.seen.completed as f64 / self.secs
    }

    /// Quantile of a latency sample where every failed scan counts as
    /// missing any limit (an infinite sample).
    fn latency_quantile(&self, samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
        let mut all = samples.to_vec();
        all.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.seen.failed as usize,
        ));
        match quantile(&mut all, q) {
            Some(v) if v.is_finite() => Ok(v),
            _ => Err(format!(
                "{what}: no finite q{q} over {} completed and {} failed scans",
                samples.len(),
                self.seen.failed
            )),
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.snap.counter(name) as f64
    }

    fn span_us(&self, name: &str, q: f64) -> f64 {
        self.snap.span(name).quantile_upper(q) as f64 / 1e3
    }
}

/// Runs `cfg` and returns its metrics, or why a check failed.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if DRIVER_THREADS > nproc {
        return Err(format!(
            "{DRIVER_THREADS} generator threads/connections exceed nproc = {nproc}"
        ));
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let scratch = ScratchDir::new(Path::new(SCRATCH_ROOT), cfg.workload.name())
        .map_err(|e| format!("create scratch directory: {e}"))?;
    let setups = if cfg.trace || cfg.tiny { 1 } else { SETUPS };
    let m = match cfg.workload {
        Workload::DiskSharedScans => disk::run(cfg, scratch.path(), setups),
        Workload::HotShortScans => hot::run(cfg, setups),
        Workload::LocalBlockingPipelines => local::run(cfg, scratch.path(), setups),
    }?;
    drop(scratch);
    check_quiesced(&m)?;
    let mut info = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("kernel", stats::kernel()),
        ("generator_threads", m.driver_threads.to_string()),
        ("connections", m.connections.to_string()),
        ("scans_in_flight", m.in_flight.to_string()),
        ("setups", m.setup_s.len().to_string()),
    ];
    for (k, v) in &m.sizes {
        info.push((k, v.clone()));
    }
    let w = &m.windows[0];
    if w.seen.completed + w.seen.failed == 0 {
        return Err("no scan finished in the measured window".into());
    }
    info.push(("latency_samples", w.seen.latency_ms.len().to_string()));
    info.push(("ttfb_samples", w.seen.ttfb_ms.len().to_string()));
    if m.rss_peak_mib <= 0.0 {
        return Err("VmHWM unavailable".into());
    }
    let metrics = if cfg.trace {
        layer_metrics(&m)?
    } else {
        end_to_end_metrics(&m)?
    };
    for metric in &metrics {
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not finite", metric.name));
        }
    }
    Ok(Outcome {
        attempted: w.seen.completed + w.seen.failed,
        failed: w.seen.failed,
        metrics,
        info,
    })
}

/// The leak checks every run must pass after its scans are gone.
fn check_quiesced(m: &Measured) -> Result<(), String> {
    if m.pinned_after != 0 {
        return Err(format!(
            "{} frames still pinned after quiesce",
            m.pinned_after
        ));
    }
    if m.unconsumed_drops != 0 {
        return Err(format!("{} pins dropped unconsumed", m.unconsumed_drops));
    }
    if m.admission_shed != 0 {
        return Err(format!("admission shed {} scans", m.admission_shed));
    }
    Ok(())
}

fn end_to_end_metrics(m: &Measured) -> Result<Vec<Metric>, String> {
    let w = &m.windows[0];
    let s = &w.seen;
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric("scans_per_s", w.scans_per_s(), "1/s"),
        metric(
            "delivered_mib_s",
            s.delivered_bytes as f64 / (1024.0 * 1024.0) / w.secs,
            "MiB/s",
        ),
        metric(
            "scan_latency_p50_ms",
            w.latency_quantile(&s.latency_ms, 0.5, "scan latency")?,
            "ms",
        ),
        metric(
            "scan_latency_p90_ms",
            w.latency_quantile(&s.latency_ms, 0.9, "scan latency")?,
            "ms",
        ),
        metric(
            "ttfb_p50_ms",
            w.latency_quantile(&s.ttfb_ms, 0.5, "ttfb")?,
            "ms",
        ),
        metric(
            "ttfb_p90_ms",
            w.latency_quantile(&s.ttfb_ms, 0.9, "ttfb")?,
            "ms",
        ),
        metric("setup_s", median(&m.setup_s), "s"),
        metric("rss_peak_mib", m.rss_peak_mib, "MiB"),
    ])
}

fn layer_metrics(m: &Measured) -> Result<Vec<Metric>, String> {
    let untraced = &m.windows[0];
    let w = m.windows.get(1).ok_or("traced run has no traced window")?;
    let t = &w.seen.trace;
    let scans = (w.seen.completed as f64).max(1.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let chunks_delivered = w.snap.query_total("chunks_delivered") as f64;
    let installs = w.counter("frame_misses");
    let grant_pins = w.counter("frame_pins") - w.counter("frame_hits") - installs;
    let decode_ns = w.counter("decode_nanos");
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric(
            "core.loads_per_chunk_delivered",
            ratio(w.counter("loads_completed"), chunks_delivered),
            "ratio",
        ),
        metric(
            "core.loads_cancelled",
            w.counter("loads_cancelled"),
            "count",
        ),
        metric(
            "core.io_busy_frac",
            ratio(
                w.snap.span("materialize").sum() as f64 / 1e9,
                m.io_threads as f64 * w.snap_secs,
            ),
            "ratio",
        ),
        metric(
            "core.pin_wait_ms_per_scan",
            w.snap.query_total("pin_wait_nanos") as f64 / 1e6 / scans,
            "ms",
        ),
        metric("core.plan_us_p50", w.span_us("plan", 0.5), "us"),
        metric("core.commit_us_p50", w.span_us("commit", 0.5), "us"),
        metric(
            "core.sched_lock_hold_us_p99",
            w.span_us("lock_hold", 0.99),
            "us",
        ),
        metric(
            "core.try_next_chunk_us_p50",
            t.try_next.quantile_ns(0.5) / 1e3,
            "us",
        ),
        metric(
            "core.pending_per_chunk",
            ratio(t.pending as f64, w.seen.chunks as f64),
            "ratio",
        ),
        metric("core.stalls_50ms", t.stalls_50ms as f64, "count"),
        metric(
            "bufman.hit_rate",
            1.0 - ratio(installs, grant_pins),
            "ratio",
        ),
        metric("bufman.evictions", w.counter("frame_evictions"), "count"),
        metric(
            "bufman.shard_lock_hold_us_p99",
            w.span_us("shard_lock_hold", 0.99),
            "us",
        ),
        metric("bufman.pinned_frames_after", m.pinned_after as f64, "count"),
        metric("storage.segment_write_s", median(&m.segment_write_s), "s"),
        metric("storage.segment_open_ms", median(&m.segment_open_ms), "ms"),
        metric(
            "storage.file_read_us_p50",
            w.span_us("file_read", 0.5),
            "us",
        ),
        metric(
            "storage.read_amplification",
            ratio(w.counter("file_bytes_read"), w.seen.delivered_bytes as f64),
            "ratio",
        ),
        metric("storage.decode_ms_per_scan", decode_ns / 1e6 / scans, "ms"),
        metric(
            "storage.decode_gib_s",
            ratio(
                w.counter("values_decoded") * 8.0 / (1u64 << 30) as f64,
                decode_ns / 1e9,
            ),
            "GiB/s",
        ),
        metric(
            "exec.self_ms_per_scan",
            t.pipeline_ns.saturating_sub(t.source_ns) as f64 / 1e6 / scans,
            "ms",
        ),
        metric(
            "exec.rows_per_s",
            ratio(w.counter("exec_rows"), w.snap_secs),
            "1/s",
        ),
        metric(
            "server.admission_open_ms_p50",
            t.admission_open.quantile_ns(0.5) / 1e6,
            "ms",
        ),
        metric(
            "server.admission_queued",
            w.counter("admission_queued"),
            "count",
        ),
        metric("server.admission_shed", m.admission_shed as f64, "count"),
        metric(
            "server.bytes_per_batch",
            ratio(w.counter("bytes_served"), w.counter("batches_served")),
            "B",
        ),
        metric(
            "client.open_scan_ms_p50",
            t.client_open.quantile_ns(0.5) / 1e6,
            "ms",
        ),
        metric(
            "client.first_batch_ms_p50",
            t.client_first_batch.quantile_ns(0.5) / 1e6,
            "ms",
        ),
        metric(
            "client.next_batch_us_p50",
            t.client_next_batch.quantile_ns(0.5) / 1e3,
            "us",
        ),
        metric(
            "bench.driver_busy_frac",
            ratio(w.seen.cpu_ns as f64 / 1e9, m.driver_threads as f64 * w.secs),
            "ratio",
        ),
        metric(
            "bench.trace_overhead_frac",
            1.0 - ratio(w.scans_per_s(), untraced.scans_per_s()),
            "ratio",
        ),
    ])
}
