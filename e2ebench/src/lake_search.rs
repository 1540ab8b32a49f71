//! `lake_search`: one thread searching and growing a multi-modal
//! `DataLake` of text documents, table rows and logs.
//!
//! Each request is, by a seeded draw: an unfiltered `search`; a
//! `search_filtered` with a narrow filter (one of [`REGIONS`] regions,
//! ~5% of items, below the adaptive strategy's 15% threshold, so it
//! pre-filters and scans exactly) or a broad one (`public`, ~50%, so it
//! post-filters HNSW candidates); or an `add_*` insert, at most
//! [`MAX_ADDS`] a run. Every search
//! asks for the top [`K`]. The benchmark keeps its own copy of every
//! item's text and embedding to compute a brute-force cosine top-`K`
//! with the same `Embedder`, from which recall is measured.

use std::time::{Duration, Instant};

use llmdm_explore::DataLake;
use llmdm_model::embed::cosine;
use llmdm_model::Embedder;
use llmdm_rt::{Rng, SeedableRng, SmallRng};
use llmdm_sqlengine::{Column, DataType, Schema, Table, Value};
use llmdm_vecdb::{AttrValue, Filter};

use crate::harness::{
    drain_obs, peak_rss_mb, ratio, repeated_setup, report_profile, traced_phases, us, Cfg, Outcome,
    Stop,
};
use crate::host::HostMeter;
use crate::stats::{median, quantile, tail_supported};
use crate::trace::{attach, tracer, ROOT};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// The percentile `latency_tail_ms` reports on this workload.
pub const TAIL_PCT: f64 = 99.0;
/// Items in the lake before the loop starts.
pub const INITIAL_ITEMS: usize = 2000;
/// Results per search.
pub const K: usize = 10;
/// Distinct `region` values: a narrow filter matches one of them.
pub const REGIONS: u64 = 20;
/// Share of items with `public = true`: the broad filter.
pub const PUBLIC_SHARE: f64 = 0.5;
/// Request mix: shares of inserts, unfiltered searches and narrow
/// filtered searches; the rest are broad filtered searches. Unfiltered
/// searches are the cheapest and more than half of the mix, so the
/// median latency lies inside their mode rather than in the gap between
/// them and the filtered ones.
pub const ADD_SHARE: f64 = 0.005;
/// See [`ADD_SHARE`].
pub const SEARCH_SHARE: f64 = 0.595;
/// See [`ADD_SHARE`].
pub const NARROW_SHARE: f64 = 0.20;
/// Inserts per run. Once the lake has taken this many, an insert draw
/// runs an unfiltered search instead, so every run ends with a lake of
/// the same size whatever the host's speed: neither its memory
/// (`peak_rss_mb`) nor the cost of later searches depends on how many
/// requests the run completed. At [`ADD_SHARE`] the cap is reached after
/// about 19,000 requests, a few seconds into a run.
pub const MAX_ADDS: usize = 96;
/// Every this many searches, one is checked against brute force.
pub const RECALL_EVERY: usize = 16;
/// Searches kept for the recall check, bounded like [`MAX_ADDS`] so that
/// the benchmark's own memory does not grow with the host's speed.
pub const MAX_PROBES: usize = 2048;
/// Inserted items probed for being their own top-1 after the loop.
pub const SELF_PROBES: usize = 32;
/// Latency samples reserved up front. The reservation is not touched
/// until written, and it spares the loop the reallocations whose
/// doubled buffers would lift `peak_rss_mb` in steps that depend on how
/// many requests the host let the loop finish.
pub const LATENCY_RESERVE: usize = 1 << 19;

const WORDS: [&str; 48] = [
    "revenue",
    "shipment",
    "invoice",
    "customer",
    "warehouse",
    "latency",
    "outage",
    "cluster",
    "replica",
    "backup",
    "schema",
    "index",
    "migration",
    "payment",
    "refund",
    "ticket",
    "sensor",
    "reading",
    "battery",
    "firmware",
    "patient",
    "dosage",
    "trial",
    "clinic",
    "flight",
    "delay",
    "gate",
    "crew",
    "harvest",
    "rainfall",
    "soil",
    "yield",
    "league",
    "match",
    "striker",
    "transfer",
    "album",
    "concert",
    "venue",
    "tour",
    "reactor",
    "turbine",
    "grid",
    "voltage",
    "contract",
    "clause",
    "audit",
    "tax",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Search,
    Narrow,
    Broad,
    Add,
}

/// The benchmark's copy of one item.
struct Mirror {
    surface: String,
    vector: Vec<f32>,
    region: u64,
    public: bool,
}

struct State {
    lake: DataLake,
    embedder: Embedder,
    items: Vec<Mirror>,
    rng: SmallRng,
    serial: u64,
}

fn words(rng: &mut SmallRng, n: usize) -> String {
    (0..n)
        .map(|_| WORDS[rng.gen_index(WORDS.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

fn attrs(region: u64, public: bool) -> Vec<(String, AttrValue)> {
    vec![
        ("region".to_string(), AttrValue::from(format!("r{region}"))),
        ("public".to_string(), AttrValue::from(public)),
    ]
}

impl State {
    /// Add one generated item (text, log or a one-row table, by a seeded
    /// draw) to the lake and the mirror; returns the time spent in the
    /// lake's `add_*` call and when it returned.
    fn add_item(&mut self, trace: u64, root: u64) -> (Duration, Instant) {
        let serial = self.serial;
        self.serial += 1;
        let rng = &mut self.rng;
        let region = rng.gen_index(REGIONS);
        let public = rng.gen_bool(PUBLIC_SHARE);
        let draw = rng.gen_f64();
        let _ctx = attach(trace, root);
        let (id, surface, t0) = if draw < 0.5 {
            let title = format!("note {serial} on {}", words(rng, 2));
            let body = words(rng, 8);
            let t0 = Instant::now();
            let id = {
                let _span = tracer().span("explore.add");
                self.lake.add_text(&title, &body, attrs(region, public))
            };
            (id, format!("{title}. {body}"), t0)
        } else if draw < 0.8 {
            let title = format!("log {serial}");
            let excerpt = format!(
                "level=warn component={} msg={} latency={}ms",
                words(rng, 1),
                words(rng, 3),
                rng.gen_index(900)
            );
            let t0 = Instant::now();
            let id = {
                let _span = tracer().span("explore.add");
                self.lake.add_log(&title, &excerpt, attrs(region, public))
            };
            (id, format!("{title}. {excerpt}"), t0)
        } else {
            let schema = Schema::new(vec![
                Column::new("sku", DataType::Int),
                Column::new("category", DataType::Text),
                Column::new("note", DataType::Text),
            ]);
            let mut table = Table::new(&format!("t{serial}"), schema);
            let row = vec![
                Value::Int(serial as i64),
                Value::Str(words(rng, 1)),
                Value::Str(words(rng, 3)),
            ];
            let cells: Vec<String> = table
                .schema
                .columns()
                .iter()
                .zip(&row)
                .map(|(c, v)| format!("{} {v}", c.name))
                .collect();
            let surface = format!("row of table {}: {}", table.name, cells.join(", "));
            table.push_row(row).expect("row matches schema");
            let t0 = Instant::now();
            let ids = {
                let _span = tracer().span("explore.add");
                self.lake.add_table_rows(&table, attrs(region, public))
            };
            (ids.map(|v| v[0]), surface, t0)
        };
        let end = Instant::now();
        let id = id.expect("generated items are non-empty");
        assert_eq!(
            id as usize,
            self.items.len(),
            "lake ids are dense and in insertion order"
        );
        let vector = self.embedder.embed(&surface).expect("non-empty surface");
        self.items.push(Mirror {
            surface,
            vector,
            region,
            public,
        });
        (end - t0, end)
    }

    fn query(&mut self) -> String {
        if self.rng.gen_bool(0.5) {
            let i = self.rng.gen_index(self.items.len() as u64) as usize;
            let ws: Vec<&str> = self.items[i].surface.split_whitespace().collect();
            let start = self.rng.gen_index(ws.len().saturating_sub(3).max(1) as u64) as usize;
            ws[start..(start + 4).min(ws.len())].join(" ")
        } else {
            words(&mut self.rng, 3)
        }
    }
}

fn setup(seed: u64) -> State {
    let mut state = State {
        lake: DataLake::new(seed),
        embedder: Embedder::standard(seed),
        items: Vec::with_capacity(INITIAL_ITEMS * 2),
        rng: SmallRng::seed_from_u64(seed ^ 0x6c61_6b65),
        serial: 0,
    };
    for _ in 0..INITIAL_ITEMS {
        state.add_item(0, 0);
    }
    state
}

/// One search whose recall is checked after the loop.
struct RecallProbe {
    kind: Kind,
    query: String,
    region: u64,
    /// Items in the lake when the search ran (the lake only grows, so
    /// the brute force runs over this prefix of the mirror).
    items: usize,
    hits: Vec<u64>,
}

#[derive(Default)]
struct Run {
    /// Kind and latency in seconds of each request, scaled to nominal
    /// host speed when [`drive`] had a meter; 8 bytes a request, so the
    /// loop's own bookkeeping barely moves `peak_rss_mb`.
    latency: Vec<(Kind, f32)>,
    probes: Vec<RecallProbe>,
    filter_violations: Vec<String>,
    surface_mismatches: usize,
    errors: Vec<String>,
    added: Vec<u64>,
    wall: Duration,
}

/// Closed loop until `stop`. With a `meter`, latencies are scaled to
/// nominal host speed by the passes it times between requests.
fn drive(state: &mut State, stop: Stop, mut meter: Option<&mut HostMeter>) -> Run {
    let mut run = Run::default();
    run.latency.reserve(LATENCY_RESERVE);
    let t0 = Instant::now();
    let mut searches = 0usize;
    while !stop.reached(run.latency.len()) {
        let speed = meter.as_deref_mut().map_or(1.0, |m| {
            m.tick();
            m.speed()
        });
        drain_obs();
        let trace = run.latency.len() as u64 + 1;
        let root = tracer().new_id();
        let start = Instant::now();
        let draw = state.rng.gen_f64();
        let kind = if draw < ADD_SHARE && run.added.len() < MAX_ADDS {
            Kind::Add
        } else if draw < ADD_SHARE + SEARCH_SHARE {
            Kind::Search
        } else if draw < ADD_SHARE + SEARCH_SHARE + NARROW_SHARE {
            Kind::Narrow
        } else {
            Kind::Broad
        };
        if kind == Kind::Add {
            let (took, end) = state.add_item(trace, root);
            run.added.push(state.items.len() as u64 - 1);
            tracer().record(trace, root, 0, ROOT, start, end);
            run.latency
                .push((kind, (took.as_secs_f64() * speed) as f32));
            continue;
        }
        let query = state.query();
        let region = state.rng.gen_index(REGIONS);
        let filter = match kind {
            Kind::Narrow => Filter::eq("region", format!("r{region}")),
            _ => Filter::eq("public", true),
        };
        let t = Instant::now();
        let result = {
            let _ctx = attach(trace, root);
            if kind == Kind::Search {
                let _span = tracer().span("explore.search");
                state.lake.search(&query, K)
            } else {
                let _span = tracer().span("explore.search_filtered");
                state.lake.search_filtered(&query, K, &filter)
            }
        };
        let end = Instant::now();
        tracer().record(trace, root, 0, ROOT, start, end);
        run.latency
            .push((kind, ((end - t).as_secs_f64() * speed) as f32));
        let hits = match result {
            Ok(hits) => hits,
            Err(e) => {
                run.errors.push(format!("{query}: {e}"));
                continue;
            }
        };
        for h in &hits {
            let Some(m) = state.items.get(h.item.id as usize) else {
                run.surface_mismatches += 1;
                continue;
            };
            if m.surface != h.item.surface {
                run.surface_mismatches += 1;
            }
            let ok = match kind {
                Kind::Narrow => m.region == region,
                Kind::Broad => m.public,
                _ => true,
            };
            if !ok {
                run.filter_violations
                    .push(format!("{kind:?} query {query:?} hit {}", h.item.id));
            }
        }
        searches += 1;
        if searches.is_multiple_of(RECALL_EVERY) && run.probes.len() < MAX_PROBES {
            run.probes.push(RecallProbe {
                kind,
                query,
                region,
                items: state.items.len(),
                hits: hits.iter().map(|h| h.item.id).collect(),
            });
        }
    }
    run.wall = t0.elapsed();
    run
}

/// Recall of one search against a brute-force cosine top-`K` over the
/// items that existed and passed its filter when it ran.
fn recall(state: &State, p: &RecallProbe) -> f64 {
    let q = state.embedder.embed(&p.query).expect("non-empty query");
    let mut scored: Vec<(f32, u64)> = state.items[..p.items]
        .iter()
        .enumerate()
        .filter(|(_, m)| match p.kind {
            Kind::Narrow => m.region == p.region,
            Kind::Broad => m.public,
            _ => true,
        })
        .map(|(id, m)| (cosine(&q, &m.vector), id as u64))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let truth: Vec<u64> = scored.iter().take(K).map(|s| s.1).collect();
    let found = p.hits.iter().filter(|id| truth.contains(id)).count();
    ratio(found as f64, truth.len() as f64)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (state, run, traced, setup_s) = if cfg.trace {
        let (state, run, report) = traced_phases(
            cfg.seconds,
            || setup(cfg.seed),
            |state, stop| {
                let run = drive(state, stop, None);
                let (n, wall) = (run.latency.len(), run.wall);
                (run, n, wall)
            },
        );
        (state, run, Some(report), 0.0)
    } else {
        let mut meter = HostMeter::new();
        let (mut state, setup_s, _) =
            repeated_setup(SETUP_REPEATS, || setup(cfg.seed), |_| (), Some(&mut meter));
        let run = drive(
            &mut state,
            Stop::At(Instant::now() + Duration::from_secs(cfg.seconds)),
            Some(&mut meter),
        );
        (state, run, None, setup_s)
    };

    let n = run.latency.len();
    out.attempted = n as u64;
    out.failed = run.errors.len() as u64;
    out.check(
        "no_search_errors",
        run.errors.is_empty(),
        format!("{:?}", run.errors.first()),
    );
    out.check(
        "filtered_hits_satisfy_filter",
        run.filter_violations.is_empty(),
        format!(
            "{} violations, first {:?}",
            run.filter_violations.len(),
            run.filter_violations.first()
        ),
    );
    out.check(
        "hits_match_benchmark_copy",
        run.surface_mismatches == 0,
        format!(
            "{} hits whose text differs from the item added",
            run.surface_mismatches
        ),
    );
    let step = (run.added.len() / SELF_PROBES).max(1);
    let misses: Vec<u64> = run
        .added
        .iter()
        .step_by(step)
        .copied()
        .filter(|&id| {
            let top = state.lake.search(&state.items[id as usize].surface, 1);
            !top.is_ok_and(|h| h.first().is_some_and(|h| h.item.id == id))
        })
        .collect();
    out.check(
        "inserted_items_are_their_own_top1",
        !run.added.is_empty() && misses.is_empty(),
        format!(
            "{} inserted; not top-1 for their own text: {misses:?}",
            run.added.len()
        ),
    );
    out.check(
        "tail_has_ten_beyond",
        tail_supported(n, TAIL_PCT),
        format!("{n} samples cannot support p{TAIL_PCT}"),
    );

    let recalls: Vec<(Kind, f64)> = run
        .probes
        .iter()
        .map(|p| (p.kind, recall(&state, p)))
        .collect();
    let mean_recall = |keep: &dyn Fn(Kind) -> bool| {
        let v: Vec<f64> = recalls
            .iter()
            .filter(|(k, _)| keep(*k))
            .map(|(_, r)| *r)
            .collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    if let Some(traced) = &traced {
        let p50 = |kind: Kind| {
            median(
                &run.latency
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|(_, s)| f64::from(*s) * 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        out.metric("explore.search_us.p50", p50(Kind::Search));
        out.metric("explore.search_filtered_us.narrow.p50", p50(Kind::Narrow));
        out.metric("explore.search_filtered_us.broad.p50", p50(Kind::Broad));
        out.metric("explore.add_us.p50", p50(Kind::Add));
        let embed_us: Vec<f64> = run
            .probes
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(state.embedder.embed(std::hint::black_box(&p.query)).ok());
                us(t.elapsed())
            })
            .collect();
        out.metric("model.embed_us.p50", median(&embed_us));
        out.metric(
            "vecdb.recall_at_10.filtered",
            mean_recall(&|k| k != Kind::Search),
        );
        out.metric(
            "vecdb.recall_at_10.unfiltered",
            mean_recall(&|k| k == Kind::Search),
        );
        out.metric("failed_share", ratio(run.errors.len() as f64, n as f64));
        report_profile(&mut out, traced);
    } else {
        let all: Vec<f64> = run
            .latency
            .iter()
            .map(|(_, s)| f64::from(*s) * 1e3)
            .collect();
        out.metric(
            "throughput_rps",
            ratio(n as f64, all.iter().sum::<f64>() / 1e3),
        );
        out.metric("latency_p50_ms", median(&all));
        out.metric(
            "latency_tail_ms",
            quantile(&all, TAIL_PCT / 100.0).unwrap_or(0.0),
        );
        out.metric(
            "served_share",
            1.0 - ratio(run.errors.len() as f64, n as f64),
        );
        out.metric("quality", mean_recall(&|_| true));
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    out
}
