//! Sample statistics, the benchmark-side timer histogram, and the few
//! process facts the report records (thread CPU time, peak RSS, kernel).

use std::time::{Duration, Instant};

/// The `q`-quantile of `samples` (sorted in place), interpolating linearly
/// between order statistics; `None` when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64))
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5).unwrap_or(0.0)
}

/// Sub-buckets per power of two: quantiles read back within ~3 %.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations for the benchmark-side
/// timers: millions of `try_next_chunk` calls fit in a fixed 8 KiB, unlike
/// a sample vector, and its quantiles are far finer than the program's
/// power-of-two histograms.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; 64 * SUBS],
            count: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUBS as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) as usize & (SUBS - 1);
        (exp - SUB_BITS + 1) as usize * SUBS + sub
    }

    /// The midpoint of bucket `b`, in nanoseconds.
    fn value(b: usize) -> f64 {
        if b < SUBS {
            return b as f64;
        }
        let exp = (b / SUBS) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + (b % SUBS) as u64 * width;
        lo as f64 + width as f64 / 2.0
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    /// Records the time since `started`.
    pub fn record_since(&mut self, started: Instant) {
        self.record(started.elapsed());
    }

    /// Adds `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value(b);
            }
        }
        Self::value(self.buckets.len() - 1)
    }
}

/// CPU time the calling thread has run so far, from the scheduler's own
/// accounting (`/proc/thread-self/schedstat`, nanoseconds); 0 where the
/// kernel does not expose it.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn hist_quantiles_land_within_a_sub_bucket() {
        let mut h = Hist::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ns(0.5) / 1000.0;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        let p99 = h.quantile_ns(0.99) / 1000.0;
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 {p99}");
        for ns in 0..5000u64 {
            let b = Hist::bucket(ns);
            assert!(b < 64 * SUBS);
            let mid = Hist::value(b);
            assert!((mid - ns as f64).abs() <= ns as f64 / SUBS as f64 + 1.0);
        }
    }
}
