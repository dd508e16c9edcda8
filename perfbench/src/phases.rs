//! The run protocol shared by every workload.  Driver threads warm up with
//! fixed work and then run their closed loop without pause until told to
//! stop; the main thread opens the measured windows once every driver is
//! warm, and resets and snapshots the program's registry at each window
//! boundary.  Drivers attribute each event to a window by its timestamp.
//!
//! Drivers never wait for each other.  A driver that stops consuming while
//! its scans hold grants can stall every scan of the table: under the
//! relevance policy, with no load in flight only the top-priority starved
//! scan may trigger a load, and a scan whose last needed chunk sits granted
//! but unconsumed is exactly such a scan with nothing left to load.  A
//! barrier between drivers therefore deadlocks the disk workload.

use crate::{ThreadWindow, Window};
use cscan_obs::{MetricsSnapshot, Registry};
use cscan_server::Catalog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything a workload measured, before it becomes metrics.
pub(crate) struct Measured {
    /// Wall time of each full set-up (data, files, open, server, warm-up).
    pub setup_s: Vec<f64>,
    /// Segment write time (fsync included) of each set-up; empty when the
    /// workload has no segment.
    pub segment_write_s: Vec<f64>,
    /// Segment open (`Catalog::add_segment`) time of each set-up, ms.
    pub segment_open_ms: Vec<f64>,
    /// The untraced window, then (traced runs) the traced one.
    pub windows: Vec<Window>,
    /// Frames still pinned once every scan is gone.
    pub pinned_after: usize,
    /// Pins dropped without `complete()` over the whole run.
    pub unconsumed_drops: u64,
    /// Scans admission shed over the whole run.
    pub admission_shed: u64,
    /// I/O worker threads across the workload's tables.
    pub io_threads: usize,
    /// Generator threads that drove the load.
    pub driver_threads: usize,
    /// Client connections the load used (0 for in-process workloads).
    pub connections: usize,
    /// Scans kept open at once.
    pub in_flight: usize,
    /// Table and buffer sizes, for the record.
    pub sizes: Vec<(&'static str, String)>,
    /// The process's peak RSS once the measured set-up was torn down,
    /// before any further set-ups.
    pub rss_peak_mib: f64,
}

impl Measured {
    pub(crate) fn new(
        io_threads: usize,
        driver_threads: usize,
        connections: usize,
        in_flight: usize,
    ) -> Measured {
        Measured {
            setup_s: Vec::new(),
            segment_write_s: Vec::new(),
            segment_open_ms: Vec::new(),
            windows: Vec::new(),
            pinned_after: 0,
            unconsumed_drops: 0,
            admission_shed: 0,
            io_threads,
            driver_threads,
            connections,
            in_flight,
            sizes: Vec::new(),
            rss_peak_mib: 0.0,
        }
    }

    /// Keeps the measured set-up's windows and the peak RSS it reached.
    /// The measured set-up runs first, so `setup_s`'s extra set-ups never
    /// raise the reported peak.
    pub(crate) fn keep(&mut self, driven: Driven) {
        self.windows = driven.windows;
        self.rss_peak_mib = crate::stats::rss_peak_mib().unwrap_or(0.0);
    }

    /// Adds one torn-down set-up's leak counts: frames still pinned, and
    /// the pins dropped unconsumed and scans shed over its whole life
    /// (the registry was reset at every window boundary).
    pub(crate) fn quiesce(&mut self, catalog: &Catalog, driven: &Driven) {
        let after = catalog.observability().snapshot();
        let total = |name: &str| {
            driven.warm_up.counter(name)
                + driven
                    .windows
                    .iter()
                    .map(|w| w.snap.counter(name))
                    .sum::<u64>()
                + after.counter(name)
        };
        self.pinned_after += catalog.pinned_frames();
        self.unconsumed_drops += total("unconsumed_drops");
        self.admission_shed += total("admission_shed");
    }
}

/// One driver thread's load.  Dropping it tears its scans (and
/// connection) down.
pub(crate) trait Driver: Send {
    /// Fixed warm-up work.
    fn warm_up(&mut self) -> Result<(), String>;
    /// Runs the closed loop until `tally` reports the run stopped,
    /// recording each event into the window its timestamp falls in.
    fn run(&mut self, tally: &mut Tally) -> Result<(), String>;
}

/// The run's shared clock: when the windows start, and when to stop.
pub(crate) struct Clock {
    windows: usize,
    length: Duration,
    start: OnceLock<Instant>,
    stop: AtomicBool,
    arrived: Mutex<usize>,
    all_arrived: Condvar,
}

impl Clock {
    /// The measured window `now` falls in, if any.
    fn window(&self, now: Instant) -> Option<usize> {
        let start = *self.start.get()?;
        let i = now.checked_duration_since(start)?.as_nanos() / self.length.as_nanos().max(1);
        (i < self.windows as u128).then_some(i as usize)
    }

    /// Counts a driver as warm (or gone).  Also runs from `Drop` while a
    /// driver unwinds, so it must not panic: the count stays valid even if
    /// a holder panicked.
    fn arrive(&self) {
        *self.arrived.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.all_arrived.notify_all();
    }
}

/// Counts a driver as arrived when it leaves without warming up (error
/// or panic), so the main thread never waits for it.
struct ArriveOnExit<'a> {
    clock: &'a Clock,
    armed: bool,
}

impl Drop for ArriveOnExit<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.clock.arrive();
        }
    }
}

/// One driver's view of the clock and its per-window records.
pub(crate) struct Tally<'a> {
    clock: &'a Clock,
    /// What the driver saw in each window.
    pub windows: Vec<ThreadWindow>,
    current: Option<usize>,
    cpu_mark: u64,
}

impl Tally<'_> {
    /// The window an event at `now` counts in; also charges the driver's
    /// CPU time to the window it ran in.
    pub fn window(&mut self, now: Instant) -> Option<usize> {
        let w = self.clock.window(now);
        if w != self.current {
            let cpu = crate::stats::thread_cpu_ns();
            if let Some(c) = self.current {
                self.windows[c].cpu_ns += cpu.saturating_sub(self.cpu_mark);
            }
            self.cpu_mark = cpu;
            self.current = w;
        }
        w
    }

    /// The record of window `w`.
    pub fn at(&mut self, w: Option<usize>) -> Option<&mut ThreadWindow> {
        w.map(|w| &mut self.windows[w])
    }

    /// Whether an event at `now` falls in the traced (second) window.
    pub fn traced(&mut self, now: Instant) -> bool {
        self.window(now) == Some(1)
    }

    /// Whether the run is over.
    pub fn stopped(&self) -> bool {
        self.clock.stop.load(Ordering::Acquire)
    }
}

/// Where a driver's events go: a warm-up's own count, or the run's
/// windows.
pub(crate) enum Sink<'a, 'c> {
    /// Warm-up: every event counts, nothing is traced.
    WarmUp(&'a mut ThreadWindow),
    /// The run: events count in the window their timestamp falls in.
    Run(&'a mut Tally<'c>),
}

impl Sink<'_, '_> {
    /// The record an event at `now` counts in, if any.
    pub fn at(&mut self, now: Instant) -> Option<&mut ThreadWindow> {
        match self {
            Sink::WarmUp(tw) => Some(tw),
            Sink::Run(t) => {
                let w = t.window(now);
                t.at(w)
            }
        }
    }

    /// Whether an operation starting at `now` is timed.
    pub fn traced(&mut self, now: Instant) -> bool {
        match self {
            Sink::WarmUp(_) => false,
            Sink::Run(t) => t.traced(now),
        }
    }

    /// Whether the loop should end: the warm-up completed `warm_up`
    /// scans, or the run stopped.
    pub fn done(&self, warm_up: u64) -> bool {
        match self {
            Sink::WarmUp(tw) => tw.completed + tw.failed >= warm_up,
            Sink::Run(t) => t.stopped(),
        }
    }
}

/// What [`drive`] measured.
pub(crate) struct Driven {
    /// When every driver had finished its warm-up.
    pub warmed: Instant,
    /// The measured windows.
    pub windows: Vec<Window>,
    /// Registry counts from before the first window (set-up and warm-up).
    pub warm_up: MetricsSnapshot,
}

/// Runs `drivers` on one thread each: warm-up, then `windows` windows of
/// `secs` (the second one traced), then teardown.  `obs` is the program's
/// registry, reset at the start of each window.
pub(crate) fn drive<D: Driver>(
    drivers: Vec<D>,
    obs: &Registry,
    windows: usize,
    secs: f64,
) -> Result<Driven, String> {
    let n = drivers.len();
    let clock = Clock {
        windows,
        length: Duration::from_secs_f64(secs),
        start: OnceLock::new(),
        stop: AtomicBool::new(false),
        arrived: Mutex::new(0),
        all_arrived: Condvar::new(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .into_iter()
            .map(|mut d| {
                let clock = &clock;
                s.spawn(move || -> Result<Vec<ThreadWindow>, String> {
                    let mut exit = ArriveOnExit { clock, armed: true };
                    d.warm_up()?;
                    exit.armed = false;
                    clock.arrive();
                    let mut tally = Tally {
                        clock,
                        windows: vec![ThreadWindow::default(); windows],
                        current: None,
                        cpu_mark: 0,
                    };
                    d.run(&mut tally)?;
                    drop(d);
                    // Closes the CPU charge of a window still open.
                    tally.window(Instant::now() + clock.length * (windows as u32 + 1));
                    Ok(tally.windows)
                })
            })
            .collect();
        // The main thread only schedules: it waits for the drivers to warm
        // up, then sleeps through the windows, snapshotting at each edge.
        let arrived = clock.arrived.lock().expect("clock mutex poisoned");
        drop(
            clock
                .all_arrived
                .wait_while(arrived, |a| *a < n)
                .expect("clock mutex poisoned"),
        );
        let warmed = Instant::now();
        let warm_up = obs.snapshot_and_reset();
        let start = Instant::now();
        clock.start.set(start).expect("started once");
        let mut snaps = Vec::with_capacity(windows);
        let mut opened = start;
        for i in 1..=windows {
            let edge = start + clock.length * i as u32;
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            let closed = Instant::now();
            snaps.push((
                closed.duration_since(opened).as_secs_f64(),
                obs.snapshot_and_reset(),
            ));
            opened = Instant::now();
        }
        clock.stop.store(true, Ordering::Release);
        let mut per_thread = Vec::with_capacity(n);
        for h in handles {
            per_thread.push(
                h.join()
                    .map_err(|_| "driver thread panicked".to_string())??,
            );
        }
        let windows = snaps
            .into_iter()
            .enumerate()
            .map(|(i, (snap_secs, snap))| {
                let mut seen = ThreadWindow::default();
                for t in &per_thread {
                    seen.merge(&t[i]);
                }
                Window {
                    secs,
                    snap_secs,
                    seen,
                    snap,
                }
            })
            .collect();
        Ok(Driven {
            warmed,
            windows,
            warm_up,
        })
    })
}
