//! The phases every workload runs through — set-up, warm-up, the
//! measured phase — the host-speed calibration that scales their
//! times, and the end-to-end metrics computed from them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::report::Report;
use crate::stats::{median, percentile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The measured phase runs at least this many units, however short
/// `--seconds` is, so the medians rest on more than a handful of samples.
const MIN_UNITS: usize = 5;

/// Calibration round time, in ms, of the reference host: the one whose
/// speed every reported host time is scaled to.
const REFERENCE_ROUND_MS: f64 = 4.0;

/// Calibration chunks each thread of a round accounts for.
const CHUNKS_PER_THREAD: usize = 4;

/// Host-speed calibration.
///
/// The shared hosts this benchmark runs on change speed by tens of
/// percent within minutes (a slow phase stretched a healthy press from
/// 6.7 µs to 10.5 µs for several seconds), far beyond any regression
/// bound worth having. So every timed unit is preceded by a fixed
/// calibration round — integer-map and string-map work owned by the
/// benchmark — and its time is reported multiplied by
/// `REFERENCE_ROUND_MS / round time`: the time the unit would take on
/// the reference host. A change to the program never touches the round,
/// so the scale cancels the host's drift and keeps the change's effect.
///
/// A round shares its work among its threads the way the workload
/// shares its own, so that one slow thread weighs on both alike.
#[derive(Debug, Clone, Copy)]
pub enum Calibration {
    /// Each of the threads runs its own chunks and the round ends when
    /// the slowest finishes, as a press's diagnosis re-rank waits for
    /// every scoring shard. One thread for the single-threaded loop.
    Fixed(usize),
    /// The threads take chunks from a shared counter until none is left,
    /// as the grid and fleet executors take items.
    Stealing(usize),
}

impl Calibration {
    /// Runs one calibration round and returns the factor that scales a
    /// time measured right now to the reference host.
    pub fn scale(self) -> f64 {
        let (threads, stealing) = match self {
            Calibration::Fixed(n) => (n.max(1), false),
            Calibration::Stealing(n) => (n.max(1), true),
        };
        let chunks = threads * CHUNKS_PER_THREAD;
        let next = AtomicUsize::new(0);
        let run = || {
            if stealing {
                while next.fetch_add(1, Ordering::Relaxed) < chunks {
                    black_box(calibration_chunk());
                }
            } else {
                for _ in 0..CHUNKS_PER_THREAD {
                    black_box(calibration_chunk());
                }
            }
        };
        let start = Instant::now();
        thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(run);
            }
            run();
        });
        REFERENCE_ROUND_MS / (start.elapsed().as_secs_f64() * 1e3)
    }

    /// The median factor of five rounds, for a one-off measurement that
    /// has no run of units to calibrate one by one.
    pub fn median_scale(self) -> f64 {
        let scales: Vec<f64> = (0..5).map(|_| self.scale()).collect();
        median(&scales)
    }
}

/// One chunk of calibration work (a quarter of a one-thread round, about
/// 1 ms on the reference host): inserts and lookups in an integer map,
/// and in a map keyed by formatted strings — the allocation and
/// pointer-chasing mix of the loop itself.
fn calibration_chunk() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    let mut numbers = BTreeMap::new();
    for i in 0..2_500u64 {
        numbers.insert(next() % 12_500, i);
    }
    for _ in 0..2_500 {
        acc = acc.wrapping_add(numbers.get(&(next() % 12_500)).copied().unwrap_or(0));
    }
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..1_500u64 {
        let r = next();
        let key = format!("unit.{}.value", r % 512);
        match names.get_mut(key.as_str()) {
            Some(v) => *v += i,
            None => {
                names.insert(key, i);
            }
        }
        let parts: Vec<String> = (0..4).map(|j| format!("obs{}", (r >> j) % 97)).collect();
        acc = acc.wrapping_add(parts.iter().map(|s| s.len() as u64).sum::<u64>());
    }
    acc
}

/// One measured unit of work (a round of sessions, a session, a grid or
/// a fleet).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall: Duration,
    /// Simulated key presses the unit processed.
    pub presses: u64,
    /// Allocation calls made during the unit, on every thread.
    pub allocs: u64,
    /// Calibration scale taken just before the unit.
    pub scale: f64,
}

impl Sample {
    pub fn new(wall: Duration, presses: u64, allocs: u64) -> Self {
        Sample {
            wall,
            presses,
            allocs,
            scale: 1.0,
        }
    }

    /// Wall time scaled to the reference host, in seconds.
    pub fn seconds(&self) -> f64 {
        self.wall.as_secs_f64() * self.scale
    }

    /// Reference-host microseconds per press.
    pub fn press_us(&self) -> f64 {
        self.seconds() * 1e6 / self.presses.max(1) as f64
    }
}

/// Runs `f` once and returns its value, wall time and allocation calls.
/// A panic inside `f` is returned as `None`.
pub fn measure<R>(f: impl FnOnce() -> R) -> (Option<R>, Duration, u64) {
    let allocs = alloc::total();
    let start = Instant::now();
    let value = catch_unwind(AssertUnwindSafe(|| black_box(f()))).ok();
    let wall = start.elapsed();
    (value, wall, alloc::total() - allocs)
}

/// Runs `set_up` (input generation plus the first, cold unit)
/// [`SETUP_REPS`] times and records the median reference-host time as
/// `setup_s`.
pub fn setup(report: &mut Report, calibration: Calibration, mut set_up: impl FnMut()) {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let scale = calibration.scale();
            let start = Instant::now();
            set_up();
            start.elapsed().as_secs_f64() * scale
        })
        .collect();
    report.set("setup_s", "s", median(&times), times.len());
}

/// Calls `unit(i)` for i = 0, 1, … until `seconds` have passed and at
/// least [`MIN_UNITS`] units ran, calibrating before each unit.
pub fn measured(
    seconds: f64,
    calibration: Calibration,
    mut unit: impl FnMut(usize) -> Sample,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        let scale = calibration.scale();
        let sample = unit(samples.len());
        samples.push(Sample { scale, ..sample });
    }
    samples
}

/// Records the end-to-end cost metrics of a measured phase.
pub fn record_costs(report: &mut Report, samples: &[Sample]) {
    let n = samples.len();
    let press_us: Vec<f64> = samples.iter().map(Sample::press_us).collect();
    report.set("press_us_p50", "us", median(&press_us), n);
    report.set("press_us_p95", "us", percentile(&press_us, 0.95), n);
    let wall_us: Vec<f64> = samples
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e6 / s.presses.max(1) as f64)
        .collect();
    report.set("press_us_p50_wall", "us", median(&wall_us), n);
    let scales: Vec<f64> = samples.iter().map(|s| s.scale).collect();
    report.set("host_speed", "ratio", median(&scales), n);
    let allocs: u64 = samples.iter().map(|s| s.allocs).sum();
    let presses: u64 = samples.iter().map(|s| s.presses).sum();
    report.set(
        "allocs_per_press",
        "count",
        allocs as f64 / presses.max(1) as f64,
        n,
    );
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Records `peak_rss_mib`; a host without `/proc` fails the run.
pub fn record_peak_rss(report: &mut Report) {
    match peak_rss_mib() {
        Some(mib) => report.set("peak_rss_mib", "MiB", mib, 1),
        None => report.violation("peak RSS unavailable (no /proc/self/status)".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_to_the_reference_host() {
        let sample = Sample {
            scale: 0.5,
            ..Sample::new(Duration::from_millis(20), 1_000, 7)
        };
        assert!((sample.seconds() - 0.010).abs() < 1e-12);
        assert!((sample.press_us() - 10.0).abs() < 1e-9);
        let scale = Calibration::Stealing(2).scale();
        assert!(scale.is_finite() && scale > 0.0);
        let scale = Calibration::Fixed(2).scale();
        assert!(scale.is_finite() && scale > 0.0);
    }
}
