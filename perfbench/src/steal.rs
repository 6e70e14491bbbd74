//! CPU time the hypervisor steals from this host. On a shared host a burst
//! of steal slows whatever is in flight, so a run samples `/proc/stat`
//! throughout, and each timed interval (a window, a set-up, a group of
//! ingests) can be told apart as clean or stolen. Metrics are taken over
//! the clean intervals only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the counters are read.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// An interval that lost more than this share of CPU time to steal is
/// stolen. Quiet periods on a shared 2-vCPU host run at 1% to 3%.
pub const MAX_STEAL: f64 = 0.05;

/// Cumulative CPU time counters from `/proc/stat`: (steal, total).
#[derive(Debug, Clone, Copy)]
struct CpuTimes(u64, u64);

fn read() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTimes(fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A thread sampling the counters until `finish` (or drop).
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<StealLog>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![(Instant::now(), read())];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                samples.push((Instant::now(), read()));
            }
            StealLog { samples }
        });
        Sampler { stop, thread: Some(thread) }
    }

    pub fn finish(mut self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("sampler running");
        thread.join().expect("steal sampler panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The counters, sampled through a run.
pub struct StealLog {
    samples: Vec<(Instant, CpuTimes)>,
}

impl StealLog {
    /// Share of CPU time stolen from `a` to `b`, widened outwards to the
    /// nearest samples.
    pub fn frac(&self, a: Instant, b: Instant) -> f64 {
        let first = self.samples.partition_point(|s| s.0 <= a).saturating_sub(1);
        let last = self.samples.partition_point(|s| s.0 < b).min(self.samples.len() - 1);
        let (CpuTimes(s0, t0), CpuTimes(s1, t1)) = (self.samples[first].1, self.samples[last].1);
        (s1 - s0) as f64 / (t1 - t0).max(1) as f64
    }

    /// Share of CPU time stolen over the whole log.
    pub fn total(&self) -> f64 {
        self.frac(self.samples[0].0, self.samples[self.samples.len() - 1].0)
    }
}

/// Indices of the clean intervals, those whose steal is at most
/// `MAX_STEAL`; when fewer than `keep` are clean, the `keep` least stolen.
pub fn clean(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= MAX_STEAL).count();
    order.truncate(clean.max(keep));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_keeps_unstolen_intervals_or_the_least_stolen() {
        assert_eq!(clean(&[0.01, 0.2, 0.0, 0.06, 0.03], 2), vec![0, 2, 4]);
        assert_eq!(clean(&[0.3, 0.2, 0.1, 0.4], 2), vec![1, 2]);
        assert_eq!(clean(&[0.01, 0.02], 3), vec![0, 1]);
    }

    #[test]
    fn frac_widens_to_samples() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let log = StealLog {
            samples: vec![(at(0), CpuTimes(0, 0)), (at(50), CpuTimes(5, 10)), (at(100), CpuTimes(5, 20))],
        };
        assert_eq!(log.frac(at(60), at(90)), 0.0);
        assert_eq!(log.frac(at(10), at(90)), 0.25);
        assert_eq!(log.total(), 0.25);
    }
}
