//! Measurement shims the benchmark places between itself and the layers
//! it measures: `LanguageModel` decorators at each level of the model
//! stack, a counting `Vfs` over `MemVfs`, and a lock-wait timer. They
//! only count, time and delegate; none changes a result.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use llmdm_model::{Completion, CompletionRequest, LanguageModel, ModelError};
use llmdm_store::{MemVfs, SharedVfs, StoreError, Vfs};

use crate::trace::tracer;

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

thread_local! {
    /// Nanoseconds this thread has spent inside outermost [`Probe`]s —
    /// the model stack as the SQL engine sees it.
    static STACK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds the calling thread has spent in the model stack so far
/// (read before and after a query to split its time).
pub fn thread_stack_ns() -> u64 {
    STACK_NS.with(Cell::get)
}

/// Counts and times the calls that enter the layer below it, and opens
/// a span named after that layer.
pub struct Probe {
    inner: Arc<dyn LanguageModel>,
    span: &'static str,
    outermost: bool,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Probe {
    /// Wrap `inner`; `span` names the layer being entered. Mark the
    /// probe at the top of the stack `outermost` so its time also counts
    /// toward [`thread_stack_ns`].
    pub fn new(inner: Arc<dyn LanguageModel>, span: &'static str, outermost: bool) -> Self {
        Probe {
            inner,
            span,
            outermost,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// Calls made through this probe.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent below this probe, over all calls.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

impl LanguageModel for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        let t0 = Instant::now();
        let out = {
            let _span = tracer().span(self.span);
            self.inner.complete(req)
        };
        let ns = elapsed_ns(t0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        if self.outermost {
            STACK_NS.with(|c| c.set(c.get() + ns));
        }
        out
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

/// The latency-enacting tier: after the simulated model answers, sleep
/// for its simulated latency divided by `scale`.
///
/// The sleep occupies wall time but no CPU, so what it measures is
/// overlap (how much model wait the system hides), not CPU cost. It is
/// the bottom of the benchmark's model stack, so it also sums the cost
/// of every completion it returns, for reconciliation with the meter.
pub struct LatencyTier {
    inner: Arc<dyn LanguageModel>,
    scale: f64,
    calls: AtomicU64,
    sim_ns: AtomicU64,
    sleep_ns: AtomicU64,
    cost: Mutex<f64>,
}

impl LatencyTier {
    /// Wrap `inner`, sleeping `latency / scale` per completion.
    pub fn new(inner: Arc<dyn LanguageModel>, scale: f64) -> Self {
        LatencyTier {
            inner,
            scale,
            calls: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            sleep_ns: AtomicU64::new(0),
            cost: Mutex::new(0.0),
        }
    }

    /// Calls that reached the simulated model.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds of simulated-model compute.
    pub fn sim_ns(&self) -> u64 {
        self.sim_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds slept.
    pub fn sleep_ns(&self) -> u64 {
        self.sleep_ns.load(Ordering::Relaxed)
    }

    /// Sum of the costs of the completions returned.
    pub fn cost(&self) -> f64 {
        *self.cost.lock().expect("cost lock poisoned")
    }
}

impl LanguageModel for LatencyTier {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        let t0 = Instant::now();
        let out = {
            let _span = tracer().span("model.sim");
            self.inner.complete(req)
        };
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.sim_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        if let Ok(c) = &out {
            *self.cost.lock().expect("cost lock poisoned") += c.cost;
            let t1 = Instant::now();
            {
                let _span = tracer().span("model.enacted_wait");
                std::thread::sleep(c.latency.div_f64(self.scale));
            }
            self.sleep_ns.fetch_add(elapsed_ns(t1), Ordering::Relaxed);
        }
        out
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

/// Counters of a [`CountingVfs`].
#[derive(Debug, Default)]
pub struct VfsCounters {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    syncs: AtomicU64,
}

/// A point-in-time copy of [`VfsCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VfsCounts {
    /// Bytes passed to `write_at`.
    pub bytes_written: u64,
    /// Bytes requested through `read_at`.
    pub bytes_read: u64,
    /// `sync` calls.
    pub syncs: u64,
}

impl VfsCounters {
    /// Read the counters.
    pub fn snapshot(&self) -> VfsCounts {
        VfsCounts {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl VfsCounts {
    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

/// `MemVfs` with byte and sync counters. `MemVfs` keeps files in memory
/// and `sync` copies the written bytes to its durable image, so the
/// store's flush policy costs memory copies here, not disk I/O.
#[derive(Debug)]
pub struct CountingVfs {
    inner: MemVfs,
    counters: Arc<VfsCounters>,
}

impl CountingVfs {
    /// An empty in-memory disk, shareable with a store, and its
    /// counters.
    pub fn shared() -> (SharedVfs, Arc<VfsCounters>) {
        let counters = Arc::new(VfsCounters::default());
        let vfs = CountingVfs {
            inner: MemVfs::new(),
            counters: counters.clone(),
        };
        (Arc::new(Mutex::new(vfs)), counters)
    }
}

impl Vfs for CountingVfs {
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
        self.counters
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.inner.read_at(file, offset, len)
    }

    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_at(file, offset, data)
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(file, len)
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(file)
    }

    fn len(&self, file: &str) -> u64 {
        self.inner.len(file)
    }
}

/// Lock `m`, returning the guard and how long the lock took to get.
pub fn lock_timed<T>(m: &Mutex<T>) -> (MutexGuard<'_, T>, Duration) {
    let t0 = Instant::now();
    let guard = m
        .lock()
        .expect("benchmark lock poisoned: a request handler panicked");
    (guard, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_model::{ModelStack, ModelZoo, PromptEnvelope};
    use llmdm_store::{Store, StoreConfig};

    fn oracle(nonce: u64) -> CompletionRequest {
        CompletionRequest::new(
            PromptEnvelope::builder("oracle")
                .header("gold", "ok")
                .header("difficulty", 0.0)
                .header("nonce", nonce)
                .body("q")
                .build(),
        )
    }

    #[test]
    fn probes_count_time_and_pass_results_through() {
        let zoo = ModelZoo::standard(3);
        let probe = Arc::new(Probe::new(zoo.large(), "model.test", true));
        let before = thread_stack_ns();
        for n in 0..5 {
            let via = probe.complete(&oracle(n)).unwrap();
            let direct = zoo.large().complete(&oracle(n)).unwrap();
            assert_eq!(via, direct);
        }
        assert_eq!(probe.name(), "sim-large");
        assert_eq!(probe.calls(), 5);
        assert!(probe.ns() > 0);
        // The outermost probe's time is charged to this thread.
        assert_eq!(thread_stack_ns() - before, probe.ns());
        let inner = Probe::new(zoo.large(), "model.test", false);
        let before = thread_stack_ns();
        inner.complete(&oracle(9)).unwrap();
        assert_eq!(thread_stack_ns(), before);
    }

    #[test]
    fn probes_compose_into_a_stack_without_changing_it() {
        let zoo = ModelZoo::standard(5);
        let below = Arc::new(Probe::new(zoo.large(), "model.faults", false));
        let b = below.clone();
        let stacked = ModelStack::over(zoo.large())
            .with_layer(move |_, _| b as Arc<dyn LanguageModel>)
            .with_default_retry()
            .build_arc();
        let plain = ModelStack::over(zoo.large())
            .with_default_retry()
            .build_arc();
        for n in 0..4 {
            assert_eq!(
                stacked.complete(&oracle(n)).unwrap(),
                plain.complete(&oracle(n)).unwrap()
            );
        }
        assert_eq!(below.calls(), 4);
    }

    #[test]
    fn latency_tier_sleeps_the_scaled_latency_and_sums_cost() {
        let zoo = ModelZoo::standard(11);
        let tier = LatencyTier::new(zoo.large(), 100.0);
        let mut expected_sleep = Duration::ZERO;
        let t0 = Instant::now();
        for n in 0..3 {
            let c = tier.complete(&oracle(n)).unwrap();
            expected_sleep += c.latency.div_f64(100.0);
        }
        let wall = t0.elapsed();
        assert!(wall >= expected_sleep, "{wall:?} < {expected_sleep:?}");
        assert!(tier.sleep_ns() >= expected_sleep.as_nanos() as u64);
        assert_eq!(tier.calls(), 3);
        let billed = zoo.meter().snapshot().total_dollars();
        assert!(billed > 0.0);
        assert!((tier.cost() - billed).abs() < 1e-12);
        // Errors are passed through, billed nothing and not slept on.
        let err = tier.complete(&CompletionRequest::new("   ")).unwrap_err();
        assert_eq!(err, ModelError::EmptyInput);
        assert_eq!(tier.calls(), 4);
        assert!((tier.cost() - billed).abs() < 1e-12);
    }

    #[test]
    fn counting_vfs_counts_bytes_and_syncs() {
        let (vfs, counters) = CountingVfs::shared();
        {
            let mut disk = vfs.lock().unwrap();
            disk.write_at("f", 0, &[1, 2, 3]).unwrap();
            disk.write_at("f", 10, &[4; 5]).unwrap();
            disk.sync("f").unwrap();
            assert_eq!(disk.read_at("f", 0, 4), vec![1, 2, 3, 0]);
            assert_eq!(disk.len("f"), 15);
        }
        assert_eq!(
            counters.snapshot(),
            VfsCounts {
                bytes_written: 8,
                bytes_read: 4,
                syncs: 1
            }
        );
        // Behind a store: a committed transaction writes and syncs.
        let before = counters.snapshot();
        let mut store = Store::open(vfs, StoreConfig::default()).unwrap();
        store
            .with_txn(|s| {
                s.create_space("t")?;
                s.append("t", b"row")
            })
            .unwrap();
        let d = counters.snapshot().since(&before);
        assert!(d.bytes_written > 0 && d.syncs >= 2, "{d:?}");
    }

    #[test]
    fn lock_timer_measures_time_spent_waiting_for_a_holder() {
        let m = Mutex::new(0u32);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let m = &m;
            s.spawn(move || {
                let _g = m.lock().unwrap();
                held_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(30));
            });
            // The holder has the lock before this thread asks for it.
            held_rx.recv().unwrap();
            let (mut g, waited) = lock_timed(m);
            *g += 1;
            assert!(
                waited >= Duration::from_millis(20),
                "waited only {waited:?}"
            );
        });
        let (g, waited) = lock_timed(&m);
        assert_eq!(*g, 1);
        assert!(waited < Duration::from_millis(20));
    }
}
