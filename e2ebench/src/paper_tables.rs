//! `paper_tables`: the paper's own experiments, one after another.
//!
//! One thread rotates through Table I (`run_table1`, the cascade),
//! Table II (`run_table2`, NL2SQL decomposition), Table III
//! (`run_table3`, the semantic cache over decomposition) and the
//! Figure-1 `DataManager` pipeline. Rotation `r` runs all four at seed
//! `seed + r`; one request is one experiment. Model simulation,
//! `cascade`, `nlq`, `sqlengine` and `semcache` do nearly all the work;
//! `serve`, `store` and HNSW do none.

use std::time::{Duration, Instant};

use llmdm::DataManager;
use llmdm_cascade::eval::{run_table1, Table1Report};
use llmdm_nlq::pipeline::{run_table2, Table2Report};
use llmdm_nlq::workload::WorkloadConfig;

use crate::harness::{
    drain_obs, peak_rss_mb, ratio, repeated_setup, report_profile, traced_phases, Cfg, Outcome,
    Stop,
};
use crate::host::HostMeter;
use crate::stats::{median, quantile, tail_supported};
use crate::trace::{attach, tracer, ROOT};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// The percentile `latency_tail_ms` reports on this workload.
pub const TAIL_PCT: f64 = 95.0;

/// What the Figure-1 pipeline produced, for determinism checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Report {
    tables: Vec<String>,
    program: String,
    error_rate: f64,
    generated_sql: Vec<String>,
    lake_items: usize,
    top_hit: String,
    dollars: f64,
}

/// The four experiments of one rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Rotation {
    t1: Table1Report,
    t2: Table2Report,
    t3: llmdm::Table3Report,
    f1: Fig1Report,
}

/// The Figure-1 pipeline over a small retail scenario: JSON and
/// spreadsheet ingestion, cleaning, SQL generation, lake build and
/// semantic search.
pub fn run_fig1(seed: u64) -> Fig1Report {
    let mut dm = DataManager::new(seed);
    let tables = dm
        .ingest_json(
            "orders",
            r#"[{"id": 1, "customer": "alice", "city": "springfield", "total": 120},
                {"id": 2, "customer": "bob", "city": "rivertown", "total": 80},
                {"id": 3, "customer": "alice", "city": "springfield", "total": 95},
                {"id": 4, "customer": "chen", "city": "rivertown", "total": 200}]"#,
        )
        .expect("the orders feed is valid JSON");
    let grid: llmdm_transform::Grid = [
        ["Inventory Export", "", ""],
        ["", "", ""],
        ["sku", "category", "stock"],
        ["101", "tools", "14"],
        ["102", "garden", "3"],
        ["103", "tools", "27"],
    ]
    .iter()
    .map(|row| row.iter().map(|c| c.to_string()).collect())
    .collect();
    let (program, _) = dm
        .ingest_spreadsheet("inventory", &grid)
        .expect("the grid is reshapable");
    let clean = dm
        .clean_table("orders", &[("city", "city")])
        .expect("orders exists");
    let generated_sql = dm.generate_sql(8).into_iter().map(|g| g.sql).collect();
    let lake_items = dm
        .build_lake(&[
            (
                "returns policy",
                "customers in springfield return tools most often",
            ),
            (
                "ops log",
                "restock request for garden category at rivertown",
            ),
        ])
        .expect("the lake builds");
    let hits = dm
        .lake()
        .search("which customers are in springfield", 2)
        .expect("search runs");
    Fig1Report {
        tables,
        program: format!("{program:?}"),
        error_rate: clean.error_rate,
        generated_sql,
        lake_items,
        top_hit: hits
            .first()
            .map(|h| h.item.title.clone())
            .unwrap_or_default(),
        dollars: dm.zoo().meter().snapshot().total_dollars(),
    }
}

fn rotation(seed: u64) -> Rotation {
    Rotation {
        t1: run_table1(seed),
        t2: run_table2(seed),
        t3: llmdm::run_table3(seed),
        f1: run_fig1(seed),
    }
}

/// One timed experiment.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: usize,
    /// Seconds, scaled to nominal host speed when [`drive`] had a meter.
    latency: f64,
}

const KINDS: [&str; 4] = ["cascade.table1", "nlq.table2", "core.table3", "core.fig1"];

#[derive(Debug, Default)]
struct Run {
    samples: Vec<Sample>,
    rotations: Vec<Rotation>,
    wall: Duration,
}

/// Closed loop: rotation after rotation until `stop`, checked between
/// experiments. With a `meter`, latencies are scaled to nominal host
/// speed by the passes it times between experiments.
fn drive(seed: u64, stop: Stop, mut meter: Option<&mut HostMeter>) -> Run {
    let mut run = Run::default();
    let t0 = Instant::now();
    let mut issued = 0usize;
    'outer: for r in 0u64.. {
        let s = seed.wrapping_add(r);
        let mut parts = (None, None, None, None);
        for (kind, span) in KINDS.iter().enumerate() {
            if stop.reached(issued) {
                break 'outer;
            }
            issued += 1;
            let speed = meter.as_deref_mut().map_or(1.0, |m| {
                m.tick();
                m.speed()
            });
            let trace = issued as u64;
            let root = tracer().new_id();
            let start = Instant::now();
            {
                let _ctx = attach(trace, root);
                let _span = tracer().span(span);
                match kind {
                    0 => parts.0 = Some(run_table1(s)),
                    1 => parts.1 = Some(run_table2(s)),
                    2 => parts.2 = Some(llmdm::run_table3(s)),
                    _ => parts.3 = Some(run_fig1(s)),
                }
            }
            let end = Instant::now();
            tracer().record(trace, root, 0, ROOT, start, end);
            drain_obs();
            run.samples.push(Sample {
                kind,
                latency: (end - start).as_secs_f64() * speed,
            });
        }
        if let (Some(t1), Some(t2), Some(t3), Some(f1)) = parts {
            run.rotations.push(Rotation { t1, t2, t3, f1 });
        }
    }
    run.wall = t0.elapsed();
    run
}

fn dollars(r: &Rotation) -> f64 {
    r.t1.tiers.iter().map(|t| t.cost).sum::<f64>()
        + r.t1.cascade.cost
        + r.t2.origin.cost
        + r.t2.decomposition.cost
        + r.t2.combination.cost
        + r.t3.without.cost
        + r.t3.cache_o.cost
        + r.t3.cache_a.cost
        + r.f1.dollars
}

/// The headline systems' accuracies: the cascade, decomposition with
/// combination, and Cache(A).
fn headline_accuracies(r: &Rotation) -> [f64; 3] {
    [
        r.t1.cascade.accuracy,
        r.t2.combination.accuracy,
        r.t3.cache_a.accuracy,
    ]
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: warm the code paths with the run's first rotation,
    // repeated; the repeats double as the determinism check.
    let mut meter = (!cfg.trace).then(HostMeter::new);
    let (first, setup_s, same) = repeated_setup(
        SETUP_REPEATS,
        || rotation(cfg.seed),
        Clone::clone,
        meter.as_mut(),
    );
    out.check(
        "setup_rotations_identical",
        same,
        "the seed's rotation differed between repeats",
    );

    let (run, traced) = if cfg.trace {
        let ((), run, report) = traced_phases(
            cfg.seconds,
            || (),
            |_, stop| {
                let run = drive(cfg.seed, stop, None);
                let (n, wall) = (run.samples.len(), run.wall);
                (run, n, wall)
            },
        );
        (run, Some(report))
    } else {
        let stop = Stop::At(Instant::now() + Duration::from_secs(cfg.seconds));
        (drive(cfg.seed, stop, meter.as_mut()), None)
    };

    out.check(
        "loop_repeats_setup_rotation",
        run.rotations.first().is_some_and(|r| *r == first),
        "rotation 0 of the loop differs from the set-up run of the same seed",
    );
    let n = run.samples.len();
    out.attempted = n as u64;
    out.check(
        "tail_has_ten_beyond",
        tail_supported(n, TAIL_PCT),
        format!("{n} samples cannot support p{TAIL_PCT}"),
    );
    let all_ms: Vec<f64> = run.samples.iter().map(|s| s.latency * 1e3).collect();
    let rot = &run.rotations;
    let requests = (rot.len() * KINDS.len()) as f64;

    if let Some(traced) = &traced {
        let by_kind = |k: usize| -> Vec<f64> {
            run.samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.latency * 1e3)
                .collect()
        };
        out.metric("cascade.table1_ms", median(&by_kind(0)));
        out.metric("nlq.table2_ms", median(&by_kind(1)));
        out.metric("core.table3_ms", median(&by_kind(2)));
        out.metric("core.fig1_ms", median(&by_kind(3)));
        out.metric(
            "cascade.mean_tier_used",
            mean(rot.iter().map(|r| r.t1.mean_tier_used)),
        );
        let queries = WorkloadConfig::default().n as f64;
        out.metric(
            "nlq.calls_per_query",
            mean(rot.iter().map(|r| r.t2.combination.calls as f64 / queries)),
        );
        out.metric(
            "semcache.table3_reuse_hits",
            mean(rot.iter().map(|r| r.t3.cache_a.reuse_hits as f64)),
        );
        out.metric(
            "model.calls_per_request",
            ratio(traced.model_calls, n as f64),
        );
        out.metric(
            "model.tokens_per_request",
            ratio(traced.model_tokens, n as f64),
        );
        out.metric(
            "model.dollars_per_request",
            ratio(rot.iter().map(dollars).sum(), requests),
        );
        out.metric("accuracy", mean(rot.iter().flat_map(headline_accuracies)));
        report_profile(&mut out, traced);
    } else {
        out.metric(
            "throughput_rps",
            ratio(n as f64, all_ms.iter().sum::<f64>() / 1e3),
        );
        out.metric("latency_p50_ms", median(&all_ms));
        out.metric(
            "latency_tail_ms",
            quantile(&all_ms, TAIL_PCT / 100.0).unwrap_or(0.0),
        );
        out.metric("served_share", 1.0);
        out.metric("quality", mean(rot.iter().flat_map(headline_accuracies)));
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    out
}
