//! What every workload shares: its result type, the stop rule of a
//! closed loop, repeated set-up, the untraced-then-traced phase pair of
//! a traced run, and process memory.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::host::HostMeter;
use crate::stats::median;
use crate::trace::{profile, tracer, Profile};

/// Largest tolerated `|Σ self − Σ root wall| / Σ root wall` of a traced
/// run's profile.
pub const RECONCILE_LIMIT: f64 = 0.02;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cfg {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
}

/// A correctness check; any failure fails the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed when it failed.
    pub detail: String,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the measured loop.
    pub attempted: u64,
    /// Requests that failed with an error.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metric name → value (units come from `BENCHMARK.json`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Folded-stack profile text of a traced run.
    pub folded: Option<String>,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// When a closed loop stops: at a deadline (untraced runs and the first
/// phase of a traced run), or after as many requests as the first phase
/// completed (the traced phase, so both phases do the same work).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Stop issuing new work once this instant has passed.
    At(Instant),
    /// Stop once this many requests were issued.
    After(usize),
}

impl Stop {
    /// Whether a loop that has issued `issued` requests should stop.
    pub fn reached(&self, issued: usize) -> bool {
        match *self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => issued >= n,
        }
    }
}

/// Run `setup` `repeats` times; return the last state, the median
/// set-up time in seconds (`setup_s`), and whether every state had the
/// same `fingerprint` (a determinism check). With a `meter`, each set-up
/// time is scaled to nominal host speed by passes timed around it.
pub fn repeated_setup<S, F: PartialEq>(
    repeats: usize,
    mut setup: impl FnMut() -> S,
    fingerprint: impl Fn(&S) -> F,
    mut meter: Option<&mut HostMeter>,
) -> (S, f64, bool) {
    let mut times = Vec::with_capacity(repeats);
    let mut prints = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (s, secs) = match meter.as_deref_mut() {
            Some(m) => m.timed(&mut setup),
            None => {
                let t0 = Instant::now();
                let s = setup();
                (s, t0.elapsed().as_secs_f64())
            }
        };
        times.push(secs);
        prints.push(fingerprint(&s));
        last = Some(s);
    }
    let same = prints.windows(2).all(|w| w[0] == w[1]);
    (last.expect("at least one set-up"), median(&times), same)
}

/// What a traced run measured besides its loop result.
pub struct TraceReport {
    /// Traced wall time / untraced wall time for the same requests.
    pub overhead_ratio: f64,
    /// Self-time profile of the traced phase.
    pub profile: Profile,
    /// Spans the program's own recorder took during the traced phase:
    /// what its unbounded buffer would hold at the end.
    pub obs_spans: u64,
    /// `model.calls` and `model.tokens`: the recorder's mirror of every
    /// `UsageMeter` record during the traced phase.
    pub model_calls: f64,
    /// See `model_calls`.
    pub model_tokens: f64,
}

/// What [`drain_obs`] has taken out of the recorder so far:
/// `(spans, model.calls, model.tokens)`.
static OBS_DRAINED: Mutex<(u64, f64, f64)> = Mutex::new((0, 0.0, 0.0));

/// Move what the llmdm-obs recorder holds into running totals and clear
/// it. The recorder keeps every span in one unbounded buffer (over a
/// million in a 15-second traced `paper_tables` phase), so the loops call
/// this between requests to keep the benchmark's memory small. Call it
/// only when no other thread is recording. No-op while the recorder is
/// off.
pub fn drain_obs() {
    if !llmdm_obs::is_enabled() {
        return;
    }
    let spans = llmdm_obs::global().span_count() as u64;
    let calls = llmdm_obs::counter_value("model.calls");
    let tokens = llmdm_obs::counter_value("model.tokens");
    llmdm_obs::reset();
    let mut totals = OBS_DRAINED.lock().expect("obs totals lock poisoned");
    totals.0 += spans;
    totals.1 += calls;
    totals.2 += tokens;
}

/// A traced run: drive a fresh state untraced for half the run, then a
/// second fresh state with both the benchmark's tracer and the
/// llmdm-obs recorder on, for the same number of requests. `drive`
/// returns its loop result, requests issued and loop wall time. Returns
/// the traced phase's state and loop result.
pub fn traced_phases<S, R>(
    seconds: u64,
    mut setup: impl FnMut() -> S,
    mut drive: impl FnMut(&mut S, Stop) -> (R, usize, Duration),
) -> (S, R, TraceReport) {
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let mut plain = setup();
    let (_, issued, plain_wall) = drive(&mut plain, Stop::At(Instant::now() + half));
    drop(plain);
    let mut state = setup();
    llmdm_obs::reset();
    *OBS_DRAINED.lock().expect("obs totals lock poisoned") = (0, 0.0, 0.0);
    tracer().take();
    llmdm_obs::enable();
    tracer().set_enabled(true);
    let (run, _, traced_wall) = drive(&mut state, Stop::After(issued));
    tracer().set_enabled(false);
    drain_obs();
    llmdm_obs::disable();
    let (obs_spans, model_calls, model_tokens) =
        *OBS_DRAINED.lock().expect("obs totals lock poisoned");
    let profile = profile(&tracer().take());
    let report = TraceReport {
        overhead_ratio: traced_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9),
        profile,
        obs_spans,
        model_calls,
        model_tokens,
    };
    (state, run, report)
}

/// Record the profile-derived per-layer metrics and the reconciliation
/// gate of a traced run.
pub fn report_profile(out: &mut Outcome, traced: &TraceReport) {
    let p = &traced.profile;
    out.metric("obs.overhead_ratio", traced.overhead_ratio);
    out.metric(
        "obs.unattributed_share",
        p.share(crate::trace::UNATTRIBUTED),
    );
    out.metric("obs.spans_recorded", traced.obs_spans as f64);
    out.metric("obs.reconcile_error", p.reconcile_error());
    for (metric, layer) in PROFILE_LAYERS {
        out.metric(metric, p.share(layer));
    }
    out.check(
        "profile_reconciles",
        p.roots > 0 && p.reconcile_error() <= RECONCILE_LIMIT,
        format!(
            "{} roots; self {} ns vs root wall {} ns (error {:.4}, limit {RECONCILE_LIMIT})",
            p.roots,
            p.self_total_ns(),
            p.root_wall_ns,
            p.reconcile_error()
        ),
    );
    out.folded = Some(p.folded());
}

/// `profile.self_share.<layer>` metric per layer span prefix.
pub const PROFILE_LAYERS: [(&str, &str); 10] = [
    ("profile.self_share.serve", "serve"),
    ("profile.self_share.sqlengine", "sqlengine"),
    ("profile.self_share.store", "store"),
    ("profile.self_share.model", "model"),
    ("profile.self_share.resil", "resil"),
    ("profile.self_share.semcache", "semcache"),
    ("profile.self_share.explore", "explore"),
    ("profile.self_share.cascade", "cascade"),
    ("profile.self_share.nlq", "nlq"),
    ("profile.self_share.core", "core"),
];

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_rules() {
        assert!(Stop::After(3).reached(3));
        assert!(!Stop::After(3).reached(2));
        assert!(Stop::At(Instant::now()).reached(0));
        assert!(!Stop::At(Instant::now() + Duration::from_secs(60)).reached(1_000));
    }

    #[test]
    fn repeated_setup_reports_median_and_determinism() {
        let mut n = 0u32;
        let (last, secs, same) = repeated_setup(
            3,
            || {
                n += 1;
                n
            },
            |_| 1,
            None,
        );
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
        assert!(same);
        let mut m = 0u32;
        let (_, _, same) = repeated_setup(
            3,
            || {
                m += 1;
                m
            },
            |s| *s,
            Some(&mut HostMeter::new()),
        );
        assert!(!same);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
