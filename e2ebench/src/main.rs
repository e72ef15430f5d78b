//! End-to-end SQL benchmark of the fused-scan engine.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload scan_count|dashboard|adhoc --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! Generates the tables and statements from `--seed`, drives the SQL
//! through the repo's two front doors (`fts-server`'s wire protocol and
//! `Engine::query`), checks every answer against a row-loop oracle, and
//! prints one JSON result as the last line: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. See DESIGN.md.

mod check;
mod data;
mod oracle;
mod query;
mod report;
mod rng;
mod stats;
mod trace;
mod wire;
mod workload;

use report::{host_line, per_layer_names, Outcome, END_TO_END};
use workload::{note, Config, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload scan_count|dashboard|adhoc --seed N --seconds S --trace 0|1\n       e2ebench --smoke"
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Config> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return None;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Some(Config {
            workload,
            seed,
            seconds,
            trace,
            smoke: false,
        }),
        _ => usage(),
    }
}

fn run(cfg: &Config) -> Outcome {
    note(format!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    ));
    let out = match cfg.workload {
        Workload::Adhoc => workload::run_adhoc(cfg),
        _ => workload::run_wire(cfg),
    };
    println!("{}", host_line());
    out
}

/// The metric names a run must emit, with units.
fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Problems with a run's result: missing, extra, non-finite or unit-less
/// metrics, wrong answers.
fn validate(out: &Outcome, trace: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let want = expected(trace);
    for (name, unit) in &want {
        match out.metrics.iter().find(|m| &m.name == name) {
            None => bad.push(format!("missing metric {name}")),
            Some(m) if !m.value.is_finite() => bad.push(format!("{name} is not finite")),
            Some(m) if m.unit.is_empty() || m.unit != *unit => {
                bad.push(format!("{name} has unit {:?}, expected {unit:?}", m.unit))
            }
            Some(_) => {}
        }
    }
    for m in &out.metrics {
        if !want.iter().any(|(n, _)| n == &m.name) {
            bad.push(format!("unexpected metric {}", m.name));
        }
    }
    if !out.correct() {
        bad.push(format!(
            "incorrect: {} of {} failed, {} other failures",
            out.failed, out.attempted, out.other_failures
        ));
    }
    if !trace {
        let ok = out.metrics.iter().find(|m| m.name == "ok_ratio");
        if ok.is_none_or(|m| m.value != 1.0) {
            bad.push("ok_ratio is not 1".to_string());
        }
    }
    bad
}

/// Every workload at tiny scale, untraced and traced; exits non-zero if
/// any run misses a metric, reports a non-finite one or gets an answer
/// wrong.
fn smoke() -> ! {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.5,
                trace,
                smoke: true,
            };
            let out = run(&cfg);
            println!("{}", out.json());
            for p in validate(&out, trace) {
                problems.push(format!(
                    "{} trace={}: {p}",
                    workload.name(),
                    u8::from(trace)
                ));
            }
        }
    }
    for p in &problems {
        println!("# SMOKE FAILURE {p}");
    }
    println!("# smoke: {} problem(s)", problems.len());
    std::process::exit(i32::from(!problems.is_empty()));
}

fn main() {
    let Some(cfg) = parse_args() else { smoke() };
    let out = run(&cfg);
    println!("{}", out.json());
}
