//! End-to-end and per-layer benchmark of llmdm.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper_tables|semsql_served|lake_search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports every end-to-end metric declared in
//! `BENCHMARK.json`; with `--trace 1` a separate traced run reports every
//! per-layer metric and writes a folded-stack profile to
//! `e2ebench/out/TRACE_<workload>.folded`. Each metric is printed as a
//! `name = value unit` line, and the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed correctness check makes the exit code non-zero.

mod harness;
mod host;
mod lake_search;
mod paper_tables;
mod semsql_served;
mod shims;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{Cfg, Outcome};
use llmdm_rt::json::Json;

/// The benchmark's declaration: metric names and units come from here.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the declaration's `list`.
fn declared(list: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let items = doc
        .get(list)
        .and_then(|v| v.as_arr().ok())
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str().ok())
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{list}` entry lacks `{k}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<(String, Cfg), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let cfg = Cfg {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn run(workload: &str, cfg: &Cfg) -> Result<Outcome, String> {
    match workload {
        "paper_tables" => Ok(paper_tables::run(cfg)),
        "semsql_served" => Ok(semsql_served::run(cfg)),
        "lake_search" => Ok(lake_search::run(cfg)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Check the outcome's metrics against the declaration and render the
/// result line. A per-layer metric the workload does not exercise reads
/// 0; an end-to-end metric must always be measured.
fn result_json(out: &Outcome, trace: bool) -> Result<(Json, bool), String> {
    let list = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared(list)?;
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared in `{list}`"));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = match out.metrics.get(name.as_str()) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        println!("{name} = {value} {unit}");
        metrics.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    let correct = out.checks.iter().all(|c| c.ok);
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Ok((line, correct))
}

fn write_folded(workload: &str, folded: &str) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("TRACE_{workload}.folded"));
    std::fs::write(&path, folded).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("folded-stack profile: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(workload, cfg)| {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "workload {workload} seed {} seconds {} trace {}",
            cfg.seed, cfg.seconds, cfg.trace
        );
        println!("machine: {cores} cores available");
        let out = run(&workload, &cfg)?;
        for c in &out.checks {
            let status = if c.ok { "ok" } else { "FAILED" };
            println!("check {} {status}", c.name);
            if !c.ok {
                eprintln!("check {} failed: {}", c.name, c.detail);
            }
        }
        if let Some(folded) = &out.folded {
            write_folded(&workload, folded)?;
        }
        result_json(&out, cfg.trace)
    });
    match result {
        Ok((line, correct)) => {
            println!("{}", line.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_lists_parse_and_names_are_unique() {
        let e2e = declared("end_to_end").unwrap();
        let layer = declared("per_layer").unwrap();
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut names: Vec<&String> = e2e.iter().chain(&layer).map(|(n, _)| n).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn profile_metrics_are_declared() {
        let layer = declared("per_layer").unwrap();
        for (metric, _) in harness::PROFILE_LAYERS {
            assert!(layer.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn args_parse_strictly() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, cfg) =
            parse_args(&a("--workload lake_search --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "lake_search");
        assert_eq!(
            cfg,
            Cfg {
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&a("--workload x --seed 7 --seconds 3 --trace 2")).is_err());
        assert!(parse_args(&a("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload x --seed -1 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&a("--workload x --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&a("--workload x --seed 1 --seconds 3 --trace 0 --bogus 1")).is_err());
        assert!(parse_args(&a("--workload")).is_err());
    }

    #[test]
    fn undeclared_or_missing_metrics_are_errors() {
        let mut out = Outcome::default();
        out.metric("no_such_metric", 1.0);
        assert!(result_json(&out, true).is_err());
        let out = Outcome::default();
        assert!(
            result_json(&out, false).is_err(),
            "end-to-end metrics are required"
        );
        assert!(result_json(&out, true).is_ok(), "unexercised layers read 0");
    }
}
