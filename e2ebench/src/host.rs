//! Host speed: a fixed reference kernel, timed between the requests of a
//! single-threaded loop, by which that loop's times are scaled to a
//! nominal host speed.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants
//! slow a CPU-bound loop by 15-40% for seconds to minutes at a time, so
//! plain wall-clock times of the same code differ more between runs than
//! any bound a later change could be judged by. The kernel is
//! benchmark-local code that no change to llmdm can speed up or slow
//! down: brute-force dot-product top-10 scans, the kind of work a vector
//! search does, once over vectors stored in one block and once over
//! vectors scattered across the heap, visited in random order with a
//! string compare each, as a lake's items and their attributes are.
//! Timed every [`PERIOD_S`] beside the loop, it slows with the host. A time
//! `d` measured while the latest passes took `p` (their median) is
//! reported as `d · NOMINAL_PASS_S / p`: what it would have been on the
//! host at its nominal speed. A change that makes the program faster
//! moves the scaled times as much as the raw ones.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::median;

/// Vectors the kernel scans per pass.
pub const REF_ROWS: usize = 2000;
/// Their dimension: that of `Embedder::standard`.
pub const REF_DIM: usize = 64;
/// Scans of all [`REF_ROWS`] contiguous vectors per pass.
pub const REF_SCANS: usize = 4;
/// Scans of all [`REF_ROWS`] scattered vectors per pass.
pub const SCATTERED_SCANS: usize = 2;
/// A pass's time on the reference host (2 cores of an Intel Xeon, at
/// its usual speed): the time scaled figures are expressed at.
pub const NOMINAL_PASS_S: f64 = 0.0011;
/// Seconds of loop between two passes: a pass costs about 2% of the
/// loop's wall time, and a 1-second window holds about 20 of them.
pub const PERIOD_S: f64 = 0.05;
/// Latest passes pooled into the current host speed: about the last
/// second of the loop.
pub const RECENT: usize = 20;
/// Passes timed right before and right after a timed set-up.
pub const SETUP_PASSES: usize = 8;

/// One heap-allocated row of the kernel's scattered scans.
struct Scattered {
    vector: Vec<f32>,
    region: String,
}

/// The reference kernel and the latest passes.
pub struct HostMeter {
    vectors: Vec<f32>,
    query: Vec<f32>,
    scattered: Vec<Scattered>,
    /// Visiting order of `scattered`: a fixed shuffle.
    order: Vec<usize>,
    /// Allocations made between the scattered rows so that they lie
    /// apart on the heap; kept alive for that.
    _ballast: Vec<String>,
    last: Option<Instant>,
    /// The latest [`RECENT`] pass times, oldest first.
    recent: VecDeque<f64>,
    speed: f64,
    sink: f32,
}

impl Default for HostMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMeter {
    /// A meter with [`RECENT`] passes timed. The kernel's vectors are
    /// the same on every run, whatever the workload seed.
    pub fn new() -> Self {
        let mut state = 0x686f_7374_u64;
        let mut next = move || {
            // SplitMix64, mapped to [-1, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f32 / (1u64 << 52) as f32 - 1.0
        };
        let vectors = (0..REF_ROWS * REF_DIM).map(|_| next()).collect();
        let query = (0..REF_DIM).map(|_| next()).collect();
        let mut scattered = Vec::with_capacity(REF_ROWS);
        let mut ballast = Vec::new();
        for i in 0..REF_ROWS {
            let vector = (0..REF_DIM).map(|_| next()).collect();
            for j in 0..((next() + 1.0) * 8.0) as usize {
                ballast.push("x".repeat(16 + (j * 37 + i * 11) % 300));
            }
            let region = format!("r{}", i % 20);
            scattered.push(Scattered { vector, region });
        }
        let mut order: Vec<usize> = (0..REF_ROWS).collect();
        for i in (1..REF_ROWS).rev() {
            let j = ((next() + 1.0) * 0.5 * (i + 1) as f32) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut meter = HostMeter {
            vectors,
            query,
            scattered,
            order,
            _ballast: ballast,
            last: None,
            recent: VecDeque::with_capacity(RECENT + 1),
            speed: 1.0,
            sink: 0.0,
        };
        for _ in 0..RECENT {
            meter.pass();
        }
        meter
    }

    /// Run and time one pass of the kernel; returns its seconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let dot = |row: &[f32]| -> f32 { row.iter().zip(&self.query).map(|(a, b)| a * b).sum() };
        for _ in 0..REF_SCANS {
            let best = top10(self.vectors.chunks_exact(REF_DIM).map(dot));
            self.sink += std::hint::black_box(best);
        }
        for scan in 0..SCATTERED_SCANS {
            let wanted = format!("r{}", 3 + 8 * scan);
            let scores = self.order.iter().map(|&i| {
                let row = &self.scattered[i];
                dot(&row.vector) + if row.region == wanted { 1.0 } else { 0.0 }
            });
            self.sink += std::hint::black_box(top10(scores));
        }
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.last = Some(end);
        self.speed = push_recent(&mut self.recent, secs);
        secs
    }

    /// Between two requests: run a pass if [`PERIOD_S`] has gone by
    /// since the last one.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|l| l.elapsed().as_secs_f64() >= PERIOD_S)
        {
            self.pass();
        }
    }

    /// Current host speed: [`NOMINAL_PASS_S`] over the median of the
    /// latest [`RECENT`] passes; below 1 when the host runs slower than
    /// nominal.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Time `work` with [`SETUP_PASSES`] passes right before and right
    /// after it; returns its result and its seconds scaled to nominal
    /// speed by the median of those passes.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let mut around: Vec<f64> = (0..SETUP_PASSES).map(|_| self.pass()).collect();
        let start = Instant::now();
        let out = work();
        let secs = start.elapsed().as_secs_f64();
        around.extend((0..SETUP_PASSES).map(|_| self.pass()));
        (out, secs * NOMINAL_PASS_S / median(&around))
    }
}

/// The best of `scores` after keeping a running top 10, as a vector
/// search does.
fn top10(scores: impl Iterator<Item = f32>) -> f32 {
    let mut top = [f32::MIN; 10];
    for s in scores {
        if s > top[9] {
            top[9] = s;
            top.sort_unstable_by(|a, b| b.total_cmp(a));
        }
    }
    top[0]
}

/// Append a pass time to `recent`, keeping the latest [`RECENT`]; returns
/// the host speed they give.
fn push_recent(recent: &mut VecDeque<f64>, secs: f64) -> f64 {
    if recent.len() == RECENT {
        recent.pop_front();
    }
    recent.push_back(secs);
    NOMINAL_PASS_S / median(recent.make_contiguous())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_median_of_the_latest_passes() {
        let n = NOMINAL_PASS_S;
        let mut recent = VecDeque::new();
        // Three nominal passes: nominal speed.
        for _ in 0..3 {
            assert!((push_recent(&mut recent, n) - 1.0).abs() < 1e-12);
        }
        // Fill the ring with passes twice as slow, one outlier among
        // them; the median ignores it, and the nominal passes age out.
        for i in 0..RECENT {
            let p = if i == 5 { 9.0 * n } else { 2.0 * n };
            push_recent(&mut recent, p);
        }
        assert_eq!(recent.len(), RECENT);
        assert!((NOMINAL_PASS_S / median(recent.make_contiguous()) - 0.5).abs() < 1e-12);
        assert!((push_recent(&mut recent, 2.0 * n) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_meter_primes_itself_and_ticks_once_per_period() {
        let mut m = HostMeter::new();
        assert_eq!(m.recent.len(), RECENT);
        assert!(m.speed() > 0.0);
        let last = m.last;
        m.tick();
        assert_eq!(m.last, last, "no second pass within the period");
        let (x, scaled) = m.timed(|| 7);
        assert_eq!(x, 7);
        assert!(scaled >= 0.0);
    }
}
