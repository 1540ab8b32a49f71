//! `semsql_served`: bursts of typed semantic-SQL requests from several
//! tenants through `serve_requests`, against one `PersistentDb`.
//!
//! A closed loop submits one burst, waits for all of it, and submits the
//! next. A burst holds [`BURST`] requests in a seeded order:
//!
//! * `frontend`, interactive: `LLM_FILTER` SELECTs guarded by a cheap
//!   `stars >= 4` predicate. Its quota admits [`FRONTEND_QUOTA`] of its
//!   [`FILTERS`] per burst, so a fixed share is throttled;
//! * `analytics`, standard: `LLM_MAP` enrichment SELECTs and plain
//!   aggregate SELECTs;
//! * `ingest`, batch: auto-commit INSERT+DELETE pairs that keep the
//!   second PERSIST table at [`WINDOW`] rows.
//!
//! `query`/`execute` take `&mut self`, so every request runs under a
//! benchmark-owned lock on the one session. The model stack is composed
//! here: latency-enacting large tier → `with_faults(FaultPlan::none())`
//! → default retry → exact-reuse semantic cache (the thresholds of
//! `ModelHandle::sim`), with a probe between each pair of layers.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use llmdm_model::{ModelStack, ModelZoo, UsageMeter, UsageSnapshot};
use llmdm_resil::FaultPlan;
use llmdm_rt::rand::seq::SliceRandom;
use llmdm_rt::{Rng, SeedableRng, SmallRng};
use llmdm_semcache::{shared_cache, CacheConfig, CacheStackExt, CacheStats, SharedCache};
use llmdm_serve::{
    serve_requests, Disposition, Job, Priority, ServeConfig, ServeError, ServeRequest, ServeStats,
    TenantPolicy,
};
use llmdm_sqlengine::semantic::SemSqlSolver;
use llmdm_sqlengine::{ModelHandle, PersistentDb, ResultSet};
use llmdm_store::{MemVfs, PoolStats, SharedVfs, StoreConfig};

use crate::harness::{
    drain_obs, ms, peak_rss_mb, ratio, repeated_setup, report_profile, traced_phases, Cfg, Outcome,
    Stop,
};
use crate::shims::{
    lock_timed, thread_stack_ns, CountingVfs, LatencyTier, Probe, VfsCounters, VfsCounts,
};
use crate::stats::{median, quantile, tail_supported};
use crate::trace::{attach, tracer, ROOT};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// The percentile `latency_tail_ms` reports on this workload.
pub const TAIL_PCT: f64 = 95.0;
/// Serving workers (the machine has 2 cores).
pub const WORKERS: usize = 2;
/// The latency tier sleeps simulated latency / this.
pub const SLEEP_SCALE: f64 = 100.0;
/// Rows of the table the SELECTs read.
pub const READ_ROWS: i64 = 480;
/// Share of those rows whose review text is one of [`SHARED_PHRASES`]
/// common phrases, so repeated prompt values within one SELECT; the rest
/// are unique.
pub const REPEAT_SHARE: f64 = 0.5;
/// Distinct common phrases.
pub const SHARED_PHRASES: usize = 16;
/// Ids one semantic SELECT covers (aggregates cover twice as many).
pub const RANGE: i64 = 32;
/// Rows the write table is kept at.
pub const WINDOW: i64 = 500;
/// Per burst: interactive filters, of which the quota admits
/// [`FRONTEND_QUOTA`] and [`REPEAT_FILTERS`] re-run a saved query;
/// map SELECTs, of which [`REPEAT_MAPS`] re-run a saved query;
/// aggregate SELECTs; writes.
pub const FILTERS: usize = 8;
/// See [`FILTERS`].
pub const REPEAT_FILTERS: usize = 3;
/// See [`FILTERS`].
pub const REPEAT_MAPS: usize = 2;
/// Saved queries per semantic kind; their prompts stay cached.
pub const HOT_QUERIES: usize = 4;
/// See [`FILTERS`].
pub const FRONTEND_QUOTA: u64 = 6;
/// See [`FILTERS`].
pub const MAPS: usize = 6;
/// See [`FILTERS`].
pub const AGGREGATES: usize = 4;
/// See [`FILTERS`].
pub const WRITES: usize = 6;
/// Requests per burst.
pub const BURST: usize = FILTERS + MAPS + AGGREGATES + WRITES;
/// Bursts run during set-up so the cache has filled before timing.
pub const WARM_BURSTS: usize = 2;

const FILTER_PROMPT: &str = "is the review positive?";
const MAP_PROMPT: &str = "what is the sentiment?";
const ADJECTIVES: [&str; 16] = [
    "great",
    "good",
    "love",
    "excellent",
    "happy",
    "wonderful",
    "bad",
    "terrible",
    "awful",
    "broken",
    "sad",
    "hate",
    "okay",
    "fine",
    "average",
    "plain",
];
const ASPECTS: [&str; 8] = [
    "battery", "screen", "price", "delivery", "sound", "camera", "fit", "support",
];
const PRODUCTS: [&str; 6] = ["phone", "laptop", "headset", "watch", "tablet", "speaker"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Filter,
    Map,
    Aggregate,
    Write,
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    /// The SELECT text; writes build theirs under the lock, where their
    /// row id is assigned.
    sql: String,
}

/// One completed request.
#[derive(Debug)]
struct Done {
    kind: Kind,
    interactive: bool,
    queue_wait: Duration,
    lock_wait: Duration,
    exec: Duration,
    stack: Duration,
    stack_calls: u64,
    latency: Duration,
    io: VfsCounts,
    result: Option<ResultSet>,
}

struct Session {
    db: PersistentDb,
    next_event: i64,
}

/// The composed model stack and the probes inside it.
struct Stack {
    meter: UsageMeter,
    cache: SharedCache,
    tier: Arc<LatencyTier>,
    faults: Arc<Probe>,
    retry: Arc<Probe>,
    top: Arc<Probe>,
}

struct State {
    session: Mutex<Session>,
    vfs: SharedVfs,
    io: Arc<VfsCounters>,
    stack: Stack,
    config: ServeConfig,
    rng: SmallRng,
    hot: Vec<Req>,
    questions: u64,
    bursts: u64,
}

fn probe(stack: ModelStack, span: &'static str, outermost: bool) -> (ModelStack, Arc<Probe>) {
    let mut slot = None;
    let stack = stack.with_layer(|inner, _| {
        let p = Arc::new(Probe::new(inner, span, outermost));
        slot = Some(p.clone());
        p
    });
    (stack, slot.expect("with_layer calls its closure"))
}

fn build_stack(seed: u64) -> (ModelHandle, Stack) {
    let zoo = ModelZoo::standard(seed);
    zoo.register_solver(Arc::new(SemSqlSolver));
    let tier = Arc::new(LatencyTier::new(zoo.large(), SLEEP_SCALE));
    let cache = shared_cache(CacheConfig {
        reuse_threshold: 0.9999,
        augment_threshold: 0.9999,
        ..CacheConfig::default()
    });
    let base = ModelStack::over(tier.clone()).with_faults(Arc::new(FaultPlan::none()));
    let (s, faults) = probe(base, "model.faults", false);
    let (s, retry) = probe(s.with_default_retry(), "resil.retry", false);
    let (s, top) = probe(s.with_cache(cache.clone()), "semcache.probe", true);
    let meter = zoo.meter().clone();
    let handle = ModelHandle::new(s.build_arc(), meter.clone()).with_cache(cache.clone());
    (
        handle,
        Stack {
            meter,
            cache,
            tier,
            faults,
            retry,
            top,
        },
    )
}

fn review(rng: &mut SmallRng, id: i64, shared: bool) -> String {
    if shared {
        let k = rng.gen_index(SHARED_PHRASES as u64) as usize;
        format!("{} {}", ADJECTIVES[k], ASPECTS[k % ASPECTS.len()])
    } else {
        let a = ADJECTIVES[rng.gen_index(16) as usize];
        let b = ADJECTIVES[rng.gen_index(16) as usize];
        let x = ASPECTS[rng.gen_index(8) as usize];
        let y = ASPECTS[rng.gen_index(8) as usize];
        format!("{a} {x} but {b} {y} on order {id}")
    }
}

/// Create and fill both PERSIST tables. The seed places the rows; the
/// table's make-up (exactly [`REPEAT_SHARE`] shared phrases, each star
/// rating on a fifth of the rows) is the same for every seed.
fn populate(db: &mut PersistentDb, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_7669_6577);
    db.execute("CREATE TABLE reviews (id INT, product TEXT, stars INT, review TEXT) PERSIST")
        .expect("create reviews");
    let n = READ_ROWS as usize;
    let mut shared: Vec<bool> = (0..n)
        .map(|i| (i as f64) < REPEAT_SHARE * n as f64)
        .collect();
    shared.shuffle(&mut rng);
    let mut stars: Vec<i64> = (0..n).map(|i| 1 + (i % 5) as i64).collect();
    stars.shuffle(&mut rng);
    let rows: Vec<String> = (0..READ_ROWS)
        .map(|id| {
            let i = id as usize;
            let product = PRODUCTS[rng.gen_index(PRODUCTS.len() as u64) as usize];
            let text = review(&mut rng, id, shared[i]);
            format!("({id}, '{product}', {}, '{text}')", stars[i])
        })
        .collect();
    for chunk in rows.chunks(120) {
        db.execute(&format!("INSERT INTO reviews VALUES {}", chunk.join(", ")))
            .expect("insert reviews");
    }
    db.execute("CREATE TABLE events (id INT, tenant TEXT, note TEXT) PERSIST")
        .expect("create events");
    let rows: Vec<String> = (0..WINDOW)
        .map(|id| format!("({id}, 'ingest', 'event {id}')"))
        .collect();
    for chunk in rows.chunks(250) {
        db.execute(&format!("INSERT INTO events VALUES {}", chunk.join(", ")))
            .expect("insert events");
    }
}

fn write_sql(id: i64) -> String {
    format!(
        "INSERT INTO events VALUES ({id}, 'ingest', 'event {id}'); DELETE FROM events WHERE id = {}",
        id - WINDOW
    )
}

fn filter_sql(lo: i64, tag: &str) -> String {
    format!(
        "SELECT id, product FROM reviews WHERE stars >= 4 AND id BETWEEN {lo} AND {} \
         AND LLM_FILTER(review, '{FILTER_PROMPT} ({tag})') ORDER BY id",
        lo + RANGE - 1
    )
}

fn map_sql(lo: i64, tag: &str) -> String {
    format!(
        "SELECT id, LLM_MAP(review, '{MAP_PROMPT} ({tag})') AS mood FROM reviews \
         WHERE id BETWEEN {lo} AND {} ORDER BY id",
        lo + RANGE - 1
    )
}

/// The saved queries repeat requests re-run: [`HOT_QUERIES`] filters
/// and as many maps, each over a seeded range.
fn saved_queries(rng: &mut SmallRng) -> Vec<Req> {
    let mut hot = Vec::with_capacity(2 * HOT_QUERIES);
    for k in 0..HOT_QUERIES {
        let tag = format!("saved {k}");
        let lo = rng.gen_range(0..READ_ROWS - RANGE + 1);
        hot.push(Req {
            kind: Kind::Filter,
            sql: filter_sql(lo, &tag),
        });
        let lo = rng.gen_range(0..READ_ROWS - RANGE + 1);
        hot.push(Req {
            kind: Kind::Map,
            sql: map_sql(lo, &tag),
        });
    }
    hot
}

impl State {
    /// A semantic SELECT of `kind`: a re-run of a saved query, or a new
    /// question whose tag makes every prompt new to the cache.
    fn semantic(&mut self, kind: Kind, repeat: bool) -> String {
        let rng = &mut self.rng;
        if repeat {
            let saved: Vec<&Req> = self.hot.iter().filter(|r| r.kind == kind).collect();
            return saved[rng.gen_index(saved.len() as u64) as usize]
                .sql
                .clone();
        }
        self.questions += 1;
        let tag = format!("question {}", self.questions);
        let lo = rng.gen_range(0..READ_ROWS - RANGE + 1);
        match kind {
            Kind::Filter => filter_sql(lo, &tag),
            _ => map_sql(lo, &tag),
        }
    }

    fn next_burst(&mut self) -> Vec<ServeRequest<Req>> {
        let mut specs: Vec<(&str, Priority, Kind, String)> = Vec::with_capacity(BURST);
        for i in 0..FILTERS {
            let sql = self.semantic(Kind::Filter, i < REPEAT_FILTERS);
            specs.push(("frontend", Priority::Interactive, Kind::Filter, sql));
        }
        for i in 0..MAPS {
            let sql = self.semantic(Kind::Map, i < REPEAT_MAPS);
            specs.push(("analytics", Priority::Standard, Kind::Map, sql));
        }
        for _ in 0..AGGREGATES {
            let lo = self.rng.gen_range(0..READ_ROWS - 2 * RANGE + 1);
            let sql = format!(
                "SELECT product, COUNT(*) AS n, AVG(stars) AS avg_stars FROM reviews \
                 WHERE id BETWEEN {lo} AND {} GROUP BY product ORDER BY product",
                lo + 2 * RANGE - 1
            );
            specs.push(("analytics", Priority::Standard, Kind::Aggregate, sql));
        }
        for _ in 0..WRITES {
            specs.push(("ingest", Priority::Batch, Kind::Write, String::new()));
        }
        specs.shuffle(&mut self.rng);
        specs
            .into_iter()
            .map(|(tenant, class, kind, sql)| {
                ServeRequest::builder(tenant, Req { kind, sql })
                    .class(class)
                    .batch_key(format!("{kind:?}"))
                    .build()
                    .expect("tenant and batch key are non-empty")
            })
            .collect()
    }
}

fn setup(seed: u64) -> State {
    let (vfs, io) = CountingVfs::shared();
    let mut db = PersistentDb::open(vfs.clone(), StoreConfig::default()).expect("open store");
    populate(&mut db, seed);
    let (handle, stack) = build_stack(seed);
    db.set_model(handle);
    let config = ServeConfig::builder()
        .workers(WORKERS)
        .queue_capacity(4 * BURST)
        .max_batch(4)
        .seed(seed)
        .tenant_policy("frontend", TenantPolicy::per_sec(FRONTEND_QUOTA, 1))
        .build()
        .expect("valid serve config");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6275_7273_7473);
    let hot = saved_queries(&mut rng);
    // Run each saved query twice so its prompts are cached with the
    // weight of a reuse hit, which the cache's eviction policy keeps
    // over never-reused entries.
    for _ in 0..2 {
        for q in &hot {
            db.query(&q.sql).expect("saved query runs");
        }
    }
    let mut state = State {
        session: Mutex::new(Session {
            db,
            next_event: WINDOW,
        }),
        vfs,
        io,
        stack,
        config,
        rng,
        hot,
        questions: 0,
        bursts: 0,
    };
    drive(&mut state, Stop::After(WARM_BURSTS * BURST));
    state
}

fn handle(state: &State, job: &Job<Req>, submit: Instant, trace: u64) -> Result<Done, String> {
    let entry = Instant::now();
    let root = tracer().new_id();
    tracer().record(
        trace,
        tracer().new_id(),
        root,
        "serve.queue_wait",
        submit,
        entry,
    );
    let _ctx = attach(trace, root);
    let t_lock = Instant::now();
    let (mut session, lock_wait) = lock_timed(&state.session);
    tracer().record(
        trace,
        tracer().new_id(),
        root,
        "sqlengine.lock_wait",
        t_lock,
        t_lock + lock_wait,
    );
    let io0 = state.io.snapshot();
    let (calls0, stack0) = (state.stack.top.calls(), thread_stack_ns());
    let t0 = Instant::now();
    let result = match job.payload.kind {
        Kind::Write => {
            let _span = tracer().span("store.insert");
            let id = session.next_event;
            session.next_event += 1;
            session.db.execute_script(&write_sql(id)).map(|_| None)
        }
        _ => {
            let _span = tracer().span("sqlengine.query");
            session.db.query(&job.payload.sql).map(Some)
        }
    };
    let exec = t0.elapsed();
    let io = state.io.snapshot().since(&io0);
    let stack_calls = state.stack.top.calls() - calls0;
    let stack = Duration::from_nanos(thread_stack_ns() - stack0);
    drop(session);
    let done = Instant::now();
    tracer().record(trace, root, 0, ROOT, submit, done);
    let result = result.map_err(|e| format!("{}: {e}", job.payload.sql))?;
    Ok(Done {
        kind: job.payload.kind,
        interactive: job.priority == Priority::Interactive,
        queue_wait: entry - submit,
        lock_wait,
        exec,
        stack,
        stack_calls,
        latency: done - submit,
        io,
        result,
    })
}

/// Counter readings at one instant, for deltas over a loop.
struct Snapshot {
    meter: UsageSnapshot,
    cache: CacheStats,
    pool: PoolStats,
    tier: (u64, u64, u64),
    probes: [(u64, u64); 3],
}

fn snapshot(state: &State) -> Snapshot {
    let s = &state.stack;
    let pool = state
        .session
        .lock()
        .expect("session lock")
        .db
        .store()
        .pool_stats();
    Snapshot {
        meter: s.meter.snapshot(),
        cache: llmdm_rt::lock_recover(&s.cache).stats(),
        pool,
        tier: (s.tier.calls(), s.tier.sim_ns(), s.tier.sleep_ns()),
        probes: [&s.faults, &s.retry, &s.top].map(|p| (p.calls(), p.ns())),
    }
}

#[derive(Default)]
struct Run {
    done: Vec<Done>,
    selects: Vec<(String, ResultSet)>,
    errors: Vec<String>,
    refused: Vec<ServeError>,
    stats: Vec<ServeStats>,
    /// Completed requests per second of each burst.
    burst_rates: Vec<f64>,
    attempted: usize,
    wall: Duration,
    before: Option<Snapshot>,
    after: Option<Snapshot>,
}

fn drive(state: &mut State, stop: Stop) -> Run {
    let mut run = Run {
        before: Some(snapshot(state)),
        ..Run::default()
    };
    let t0 = Instant::now();
    while !stop.reached(run.attempted) {
        // Between bursts no worker is recording.
        drain_obs();
        let reqs = state.next_burst();
        let sqls: Vec<(Kind, String)> = reqs
            .iter()
            .map(|r| (r.payload.kind, r.payload.sql.clone()))
            .collect();
        run.attempted += reqs.len();
        let base = state.bursts * BURST as u64 + 1;
        state.bursts += 1;
        let shared: &State = state;
        let submit = Instant::now();
        let served = serve_requests(&shared.config, reqs, |_, jobs: &[Job<Req>]| {
            jobs.iter()
                .map(|job| handle(shared, job, submit, base + job.id))
                .collect()
        });
        run.stats.push(served.stats);
        let completed = served
            .results
            .iter()
            .filter(|d| matches!(d, Disposition::Done(Ok(_))))
            .count();
        run.burst_rates
            .push(completed as f64 / submit.elapsed().as_secs_f64());
        for (disposition, (kind, sql)) in served.results.into_iter().zip(sqls) {
            match disposition {
                Disposition::Done(Ok(mut d)) => {
                    if let Some(rs) = d.result.take() {
                        run.selects.push((sql, rs));
                    }
                    debug_assert_eq!(d.kind, kind);
                    run.done.push(d);
                }
                Disposition::Done(Err(e)) => run.errors.push(e),
                Disposition::Rejected(e) => run.refused.push(e),
            }
        }
    }
    run.wall = t0.elapsed();
    run.after = Some(snapshot(state));
    run
}

/// Check every SELECT against a sequential, unserved reference session
/// with a non-sleeping model stack (`ModelHandle::sim`) on the same
/// seed. Returns (matched, compared, first mismatch).
fn compare_with_reference(
    seed: u64,
    selects: &[(String, ResultSet)],
) -> (usize, usize, Option<String>) {
    let mut reference =
        PersistentDb::open(MemVfs::shared(), StoreConfig::default()).expect("open reference store");
    populate(&mut reference, seed);
    reference.set_model(ModelHandle::sim(seed));
    let mut expected: std::collections::BTreeMap<&str, ResultSet> = Default::default();
    let mut matched = 0;
    let mut mismatch = None;
    for (sql, got) in selects {
        let want = expected.entry(sql.as_str()).or_insert_with(|| {
            reference
                .query(sql)
                .unwrap_or_else(|e| panic!("reference {sql}: {e}"))
        });
        if got.bit_eq(want) {
            matched += 1;
        } else if mismatch.is_none() {
            mismatch = Some(sql.clone());
        }
    }
    (matched, selects.len(), mismatch)
}

/// The workload's correctness checks; returns how many SELECTs matched
/// the reference.
fn check(out: &mut Outcome, cfg: &Cfg, state: State, run: &Run) -> usize {
    let (matched, compared, mismatch) = compare_with_reference(cfg.seed, &run.selects);
    out.check(
        "selects_match_reference",
        matched == compared && compared > 0,
        format!(
            "{matched}/{compared} SELECTs bit-equal the reference; first mismatch: {mismatch:?}"
        ),
    );
    out.check(
        "no_request_errors",
        run.errors.is_empty(),
        format!("{:?}", run.errors.first()),
    );
    let bursts = run.stats.len();
    let throttled = run
        .refused
        .iter()
        .filter(|e| matches!(e, ServeError::Throttled { .. }))
        .count();
    out.check(
        "only_the_quota_refuses",
        throttled == run.refused.len() && throttled == bursts * (FILTERS - FRONTEND_QUOTA as usize),
        format!(
            "{} refused ({throttled} throttled) over {bursts} bursts",
            run.refused.len()
        ),
    );
    out.check(
        "serve_stats_reconcile",
        run.stats.iter().all(ServeStats::reconciles),
        "admitted + rejected + shed != submitted",
    );
    let stack = &state.stack;
    let cache = llmdm_rt::lock_recover(&stack.cache).stats();
    out.check(
        "cache_stats_reconcile",
        cache.reconciles(),
        format!("{cache:?}"),
    );
    let metered = stack.meter.snapshot().total_dollars();
    out.check(
        "meter_matches_completions",
        (metered - stack.tier.cost()).abs() <= 1e-9,
        format!("meter ${metered} vs completions ${}", stack.tier.cost()),
    );
    let tail_n = run.done.len();
    out.check(
        "tail_has_ten_beyond",
        tail_supported(tail_n, TAIL_PCT),
        format!("{tail_n} samples cannot support p{TAIL_PCT}"),
    );
    // Reopen the store: the write table must hold exactly the committed
    // window of event ids.
    let session = state.session.into_inner().expect("session lock poisoned");
    let next = session.next_event;
    drop(session);
    let mut reopened = PersistentDb::open(state.vfs, StoreConfig::default()).expect("reopen store");
    let ids: Vec<String> = reopened
        .query("SELECT id FROM events ORDER BY id")
        .map(|rs| rs.rows.iter().map(|r| r[0].to_string()).collect())
        .unwrap_or_default();
    let want: Vec<String> = (next - WINDOW..next).map(|i| i.to_string()).collect();
    out.check(
        "reopened_store_holds_committed_window",
        ids == want,
        format!(
            "{} rows after reopen, expected ids {}..{next}",
            ids.len(),
            next - WINDOW
        ),
    );
    matched
}

fn p50_of(done: &[&Done], f: impl Fn(&Done) -> Duration) -> f64 {
    median(&done.iter().map(|d| ms(f(d))).collect::<Vec<_>>())
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (state, run, traced, setup_s) = if cfg.trace {
        let (state, run, report) = traced_phases(
            cfg.seconds,
            || setup(cfg.seed),
            |state, stop| {
                let run = drive(state, stop);
                let (n, wall) = (run.attempted, run.wall);
                (run, n, wall)
            },
        );
        (state, run, Some(report), 0.0)
    } else {
        let (mut state, setup_s, _) =
            repeated_setup(SETUP_REPEATS, || setup(cfg.seed), |_| (), None);
        let run = drive(
            &mut state,
            Stop::At(Instant::now() + Duration::from_secs(cfg.seconds)),
        );
        (state, run, None, setup_s)
    };
    out.attempted = run.attempted as u64;
    out.failed = run.errors.len() as u64;
    let cache_entries = llmdm_rt::lock_recover(&state.stack.cache).len();
    let matched = check(&mut out, cfg, state, &run);

    let done: Vec<&Done> = run.done.iter().collect();
    let of = |k: Kind| -> Vec<&Done> { done.iter().copied().filter(|d| d.kind == k).collect() };
    let selects: Vec<&Done> = done
        .iter()
        .copied()
        .filter(|d| d.kind != Kind::Write)
        .collect();
    let writes = of(Kind::Write);
    let n_done = done.len() as f64;
    let (before, after) = (
        run.before.as_ref().expect("set"),
        run.after.as_ref().expect("set"),
    );
    let dollars = after.meter.dollars_since(&before.meter);

    if let Some(traced) = &traced {
        out.metric("failed_share", 1.0 - n_done / run.attempted as f64);
        let interactive: Vec<&Done> = done.iter().copied().filter(|d| d.interactive).collect();
        out.metric("serve.queue_wait_ms.p50", p50_of(&done, |d| d.queue_wait));
        out.metric(
            "serve.queue_wait_ms.interactive.p50",
            p50_of(&interactive, |d| d.queue_wait),
        );
        let admitted: u64 = run.stats.iter().map(|s| s.admitted).sum();
        let batches: u64 = run.stats.iter().map(|s| s.batches).sum();
        out.metric(
            "serve.jobs_per_batch",
            ratio(admitted as f64, batches as f64),
        );
        out.metric("serve.refused", run.refused.len() as f64);
        out.metric(
            "sqlengine.session_lock_wait_ms.p50",
            p50_of(&done, |d| d.lock_wait),
        );
        out.metric(
            "sqlengine.select_self_ms.p50",
            p50_of(&selects, |d| d.exec.saturating_sub(d.stack)),
        );
        out.metric(
            "sqlengine.plain_select_ms.p50",
            p50_of(&of(Kind::Aggregate), |d| d.exec),
        );
        let stack_calls: u64 = selects.iter().map(|d| d.stack_calls).sum();
        out.metric(
            "sqlengine.llm_calls_per_select",
            ratio(stack_calls as f64, selects.len() as f64),
        );
        out.metric("store.insert_ms.p50", p50_of(&writes, |d| d.exec));
        let per_write = |f: fn(&VfsCounts) -> u64| {
            ratio(
                writes.iter().map(|d| f(&d.io)).sum::<u64>() as f64,
                writes.len() as f64,
            )
        };
        out.metric(
            "store.bytes_written_per_insert",
            per_write(|c| c.bytes_written),
        );
        out.metric("store.syncs_per_insert", per_write(|c| c.syncs));
        let read: u64 = selects.iter().map(|d| d.io.bytes_read).sum();
        out.metric(
            "store.bytes_read_per_select",
            ratio(read as f64, selects.len() as f64),
        );
        let hits = after.pool.hits - before.pool.hits;
        let misses = after.pool.misses - before.pool.misses;
        out.metric(
            "store.pool_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        let calls = after.meter.total_calls() - before.meter.total_calls();
        let tokens = after.meter.total_tokens() - before.meter.total_tokens();
        out.metric("model.calls_per_request", ratio(calls as f64, n_done));
        out.metric("model.tokens_per_request", ratio(tokens as f64, n_done));
        out.metric("model.dollars_per_request", ratio(dollars, n_done));
        let (tc, tsim, tsleep) = (
            after.tier.0 - before.tier.0,
            after.tier.1 - before.tier.1,
            after.tier.2 - before.tier.2,
        );
        out.metric(
            "model.enacted_wait_ms_per_request",
            ratio(tsleep as f64 / 1e6, n_done),
        );
        out.metric("model.sim_us_per_call", ratio(tsim as f64 / 1e3, tc as f64));
        let d = |i: usize| {
            (
                after.probes[i].0 - before.probes[i].0,
                after.probes[i].1 - before.probes[i].1,
            )
        };
        let ((fc, fns), (rc, rns), (cc, cns)) = (d(0), d(1), d(2));
        out.metric(
            "resil.self_us_per_call",
            ratio(rns.saturating_sub(fns) as f64 / 1e3, rc as f64),
        );
        out.metric("resil.attempts_per_call", ratio(fc as f64, rc as f64));
        let lookups = after.cache.lookups - before.cache.lookups;
        let reuse = after.cache.reuse_hits - before.cache.reuse_hits;
        out.metric("semcache.hit_ratio", ratio(reuse as f64, lookups as f64));
        out.metric(
            "semcache.self_us_per_lookup",
            ratio(cns.saturating_sub(rns) as f64 / 1e3, cc as f64),
        );
        out.metric("semcache.entries", cache_entries as f64);
        report_profile(&mut out, traced);
    } else {
        let lat: Vec<f64> = done.iter().map(|d| ms(d.latency)).collect();
        out.metric("throughput_rps", median(&run.burst_rates));
        out.metric("latency_p50_ms", median(&lat));
        out.metric(
            "latency_tail_ms",
            quantile(&lat, TAIL_PCT / 100.0).unwrap_or(0.0),
        );
        out.metric("served_share", n_done / run.attempted as f64);
        out.metric("quality", ratio(matched as f64, run.selects.len() as f64));
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    out
}
