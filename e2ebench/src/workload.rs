//! The three workloads: set-up, the timed closed loops, answer checks and
//! the traced run's per-layer split.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fts_jit::CacheStats;
use fts_query::{executor, lqp, optimizer, parser, Engine, QueryError};
use fts_query::{Lqp, QueryResult};
use fts_server::{render_result, Response};

use crate::check::{check_body, check_result};
use crate::data::{self, fold, Dataset, Tables};
use crate::oracle::{answer, Answer};
use crate::query::{self, Query};
use crate::report::{
    kernel_facts, metric, peak_rss_mb, winner_metrics, KernelFacts, Metric, Outcome,
};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::wire::{self, Wire};

pub const PLAIN: &str = "lineitem";
pub const ENCODED: &str = "lineitem_enc";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCount,
    Dashboard,
    Adhoc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ScanCount, Workload::Dashboard, Workload::Adhoc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCount => "scan_count",
            Workload::Dashboard => "dashboard",
            Workload::Adhoc => "adhoc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny tables, for the benchmark's own test.
    pub smoke: bool,
}

struct Scale {
    rows: usize,
    chunk_rows: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    setups: usize,
}

fn scale(cfg: &Config) -> Scale {
    let mut s = match (cfg.workload, cfg.smoke) {
        (Workload::Adhoc, false) => Scale {
            rows: 256 << 10,
            chunk_rows: 16 << 10,
            setups: 5,
        },
        (Workload::Adhoc, true) => Scale {
            rows: 32 << 10,
            chunk_rows: 2 << 10,
            setups: 2,
        },
        (_, false) => Scale {
            rows: 8 << 20,
            chunk_rows: 1 << 20,
            setups: 3,
        },
        (_, true) => Scale {
            rows: 64 << 10,
            chunk_rows: 16 << 10,
            setups: 2,
        },
    };
    if cfg.trace {
        s.setups = 1;
    }
    s
}

/// Print a comment line next to the result (the result is the last
/// line of standard output).
pub fn note(text: impl AsRef<str>) {
    println!("# {}", text.as_ref());
}

/// Failure bookkeeping: every failure counts; the first few are printed
/// with their SQL.
#[derive(Default)]
struct Failures {
    printed: usize,
}

impl Failures {
    fn report(&mut self, sql: &str, why: &str) {
        if self.printed < 10 {
            note(format!("FAILED {sql}: {why}"));
        }
        self.printed += 1;
    }
}

/// One timed statement.
struct Sample {
    stmt: usize,
    client: usize,
    lat_ns: u64,
}

/// A closed-loop phase: its samples (each client's in issue order) and
/// wall time.
struct Phase {
    samples: Vec<Sample>,
    elapsed_s: f64,
    clients: usize,
    /// Statements per latency window. Every window holds the same work:
    /// one pool cycle on `scan_count`, and on `dashboard` half a cycle (one
    /// instance of every shape, on both tables).
    window: usize,
}

impl Phase {
    /// Statements completed per second of the phase.
    fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }

    /// Latencies in ms, ascending, of each client's samples in complete
    /// windows (on the warm workloads a window is one whole pool cycle, so
    /// every run weighs each statement alike). All samples if no window is
    /// complete.
    fn sorted_ms(&self) -> Vec<f64> {
        let mut kept: Vec<&Sample> = Vec::new();
        for c in 0..self.clients {
            let mine: Vec<&Sample> = self.samples.iter().filter(|s| s.client == c).collect();
            kept.extend(&mine[..mine.len() / self.window * self.window]);
        }
        if kept.is_empty() {
            kept = self.samples.iter().collect();
        }
        let mut v: Vec<f64> = kept.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.sorted_ms(), 50.0)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    encode_s: f64,
    register_s: f64,
    warm_s: f64,
}

/// Engine-wide counters the traced run takes deltas of.
#[derive(Debug, Clone, Copy)]
struct Counters {
    jit: CacheStats,
    kernels: usize,
    chains: usize,
}

fn counters(engine: &Engine) -> Counters {
    let ctx = engine.context();
    Counters {
        jit: ctx.kernels.stats(),
        kernels: ctx.kernels.len() + ctx.packed_kernels.len(),
        chains: ctx.calibration.len(),
    }
}

fn jit_metrics(before: Counters, after: Counters, statements: usize) -> Vec<Metric> {
    let hits = after.jit.hits - before.jit.hits;
    let misses = after.jit.misses - before.jit.misses;
    let compile = after
        .jit
        .compile_time
        .saturating_sub(before.jit.compile_time);
    vec![
        metric(
            "jit.compile_us",
            compile.as_secs_f64() * 1e6 / statements.max(1) as f64,
            "us",
        ),
        metric(
            "jit.hit_rate",
            if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            "ratio",
        ),
        metric(
            "jit.evictions",
            (after.jit.evictions - before.jit.evictions) as f64,
            "count",
        ),
        metric("jit.kernels", after.kernels as f64, "count"),
        metric("adaptive.chains", after.chains as f64, "count"),
    ]
}

/// Register both tables on a fresh engine. Returns the engine, the
/// register time in s, the `storage.bytes.<layout>` metrics and the
/// stored-bytes ratio.
fn register(tables: Tables) -> (Arc<Engine>, f64, Vec<Metric>, f64) {
    let bytes = data::heap_bytes_by_layout(&[&tables.plain, &tables.encoded]);
    let logical = data::logical_bytes(&tables.plain) + data::logical_bytes(&tables.encoded);
    let layers: Vec<Metric> = fts_storage::Layout::ALL
        .iter()
        .zip(bytes)
        .map(|(l, b)| metric(format!("storage.bytes.{l}"), b as f64, "B"))
        .collect();
    let stored_ratio = bytes.iter().sum::<u64>() as f64 / logical as f64;
    let started = Instant::now();
    let engine = Engine::new();
    engine.register(PLAIN, tables.plain);
    engine.register(ENCODED, tables.encoded);
    let register_s = started.elapsed().as_secs_f64();
    (Arc::new(engine), register_s, layers, stored_ratio)
}

fn digest_sql<'a>(mut h: u64, sqls: impl Iterator<Item = &'a str>) -> u64 {
    for s in sqls {
        for b in s.bytes() {
            h = fold(h, b as u64);
        }
        h = fold(h, 0xFF);
    }
    h
}

/// The end-to-end metrics shared by every workload.
fn e2e_metrics(phase: &Phase, ok: usize, setups: &[SetupTimes], stored_ratio: f64) -> Vec<Metric> {
    let sorted = phase.sorted_ms();
    let (tail_p, tail_ms) = tail(&sorted);
    note(format!(
        "latency_tail_ms = p{tail_p} of {} samples (complete windows of {} of {} issued)",
        sorted.len(),
        phase.window,
        phase.samples.len()
    ));
    for s in setups {
        note(format!(
            "setup_s run: {:.3} = build {:.3} + encode {:.3} + register {:.3} + serve/warm-up {:.3}",
            s.total_s, s.build_s, s.encode_s, s.register_s, s.warm_s
        ));
    }
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("stmts_per_s", phase.rate(), "1/s"),
        metric("latency_p50_ms", percentile(&sorted, 50.0), "ms"),
        metric("latency_tail_ms", tail_ms, "ms"),
        metric(
            "ok_ratio",
            ok as f64 / phase.samples.len().max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("stored_bytes_ratio", stored_ratio, "ratio"),
    ]
}

/// Print the per-kernel calibration winners of the analyzed statements.
fn note_winners(facts: &[KernelFacts]) {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for w in facts.iter().flat_map(|f| f.winners.iter()) {
        match counts.iter_mut().find(|(k, _)| k == w) {
            Some((_, n)) => *n += 1,
            None => counts.push((w, 1)),
        }
    }
    counts.sort();
    let uncalibrated: u64 = facts.iter().map(|f| f.uncalibrated).sum();
    let list: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
    note(format!(
        "calibration winners: {} (uncalibrated chains: {uncalibrated})",
        list.join(", ")
    ));
}

/// Statement-level layer facts of one `Engine::query_analyzed` run.
struct Analyzed {
    facts: KernelFacts,
    scan_ms: f64,
    scan_bytes: u64,
    phase2_rows: u64,
}

/// Run `sql` through `Engine::query_analyzed` and check its answer.
fn analyze(
    engine: &Engine,
    sql: &str,
    want: &Answer,
    fails: &mut Failures,
    out: &mut Outcome,
) -> Option<Analyzed> {
    let verdict = engine
        .query_analyzed(sql)
        .map_err(|e| e.to_string())
        .and_then(|(result, report)| check_result(&result, want).map(|()| report));
    match verdict {
        Ok(r) => Some(Analyzed {
            facts: kernel_facts(&r),
            scan_ms: r.scan.wall.as_secs_f64() * 1e3,
            scan_bytes: r.scan.bytes_touched,
            phase2_rows: r.phase2_rows_in,
        }),
        Err(e) => {
            fails.report(sql, &e);
            out.other_failures += 1;
            None
        }
    }
}

fn scan_metrics(an: &[Analyzed]) -> Vec<Metric> {
    let wall_s: f64 = an.iter().map(|a| a.scan_ms / 1e3).sum();
    let bytes: u64 = an.iter().map(|a| a.scan_bytes).sum();
    let phase2: u64 = an.iter().map(|a| a.phase2_rows).sum();
    vec![
        metric(
            "fused.scan_ms",
            median(&an.iter().map(|a| a.scan_ms).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "fused.gbps",
            if wall_s > 0.0 {
                bytes as f64 / wall_s / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        metric(
            "executor.phase2_rows",
            phase2 as f64 / an.len().max(1) as f64,
            "count",
        ),
    ]
}

/// Parse, then plan + optimize, each inside its own span.
fn plan_traced(
    engine: &Engine,
    sql: &str,
    tr: &mut Tracer,
    root: usize,
    stmt: u32,
) -> Result<Lqp, QueryError> {
    let ast = tr.span("parser.parse", Some(root), stmt, || parser::parse(sql))?;
    let catalog = engine.catalog();
    let plan = tr.span("optimizer.plan", Some(root), stmt, || {
        lqp::plan(&ast, &catalog).map(optimizer::optimize)
    })?;
    Ok(plan)
}

/// Per-(span name, statement) durations in ms, from span index `from`.
fn span_ms(tr: &Tracer, from: usize) -> HashMap<(&'static str, u32), Vec<f64>> {
    let own = tr.self_ns();
    let mut m: HashMap<(&'static str, u32), Vec<f64>> = HashMap::new();
    for (i, s) in tr.spans.iter().enumerate().skip(from) {
        m.entry((s.name, s.stmt))
            .or_default()
            .push(own[i] as f64 / 1e6);
    }
    m
}

fn write_spans(cfg: &Config, tr: &Tracer) {
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    match tr.write_tsv(&path) {
        Ok(()) => note(format!(
            "{} spans written to {}",
            tr.spans.len(),
            path.display()
        )),
        Err(e) => note(format!("spans not written: {e}")),
    }
}

// ---------------------------------------------------------------------
// Wire workloads: scan_count (1 client) and dashboard (2 clients).
// ---------------------------------------------------------------------

struct Stmt {
    sql: String,
    answer: usize,
}

struct Live {
    engine: Arc<Engine>,
    wire: Wire,
    times: SetupTimes,
    storage: Vec<Metric>,
    stored_ratio: f64,
}

fn setup_wire(
    cfg: &Config,
    sc: &Scale,
    clients: usize,
    stmts: &[Stmt],
    answers: &[Answer],
    fails: &mut Failures,
    out: &mut Outcome,
) -> Live {
    // Value generation is the benchmark's own work: not timed.
    let data = data::generate(cfg.seed, sc.rows);
    let tables = data::build_tables(data, sc.chunk_rows);
    let (build_s, encode_s) = (tables.build_s, tables.encode_s);
    let (engine, register_s, storage, stored_ratio) = register(tables);
    let started = Instant::now();
    let mut wire = wire::start(Arc::clone(&engine), clients).expect("loopback server starts");
    // Warm-up: whole pool passes until one adds no kernel, no JIT miss
    // and no calibration chain (every chain then has its winner, since a
    // chain calibrates within its first statement).
    let mut passes = 0;
    loop {
        let before = counters(&engine);
        for s in stmts {
            let verdict = match wire.clients[0].call(&s.sql) {
                Ok(r) if r.is_ok() => check_body(r.body(), &answers[s.answer]),
                Ok(r) => Err(format!("E frame: {}", r.body())),
                Err(e) => Err(format!("connection: {e}")),
            };
            if let Err(e) = verdict {
                fails.report(&s.sql, &e);
                out.other_failures += 1;
            }
        }
        passes += 1;
        let after = counters(&engine);
        let settled = after.jit.misses == before.jit.misses
            && after.kernels == before.kernels
            && after.chains == before.chains;
        if passes >= 2 && settled {
            break;
        }
        if passes >= 8 {
            note("warm-up did not settle after 8 passes");
            break;
        }
    }
    let serve_warm_s = started.elapsed().as_secs_f64();
    let times = SetupTimes {
        total_s: build_s + encode_s + register_s + serve_warm_s,
        build_s,
        encode_s,
        register_s,
        warm_s: serve_warm_s,
    };
    Live {
        engine,
        wire,
        times,
        storage,
        stored_ratio,
    }
}

fn teardown(live: Live, out: &mut Outcome) {
    let Live { engine, wire, .. } = live;
    if let Err(e) = wire.stop() {
        note(e);
        out.other_failures += 1;
    }
    drop(engine);
}

/// Closed loops, one client thread per connection, each starting at its
/// own offset into the pool. With two clients, they meet at a barrier
/// before every request, so each pair of statements is issued at the
/// same time: a same-table pair shares a pass, and a pair on different
/// tables runs on both cores. Without the meeting point, one solo
/// statement that ends earlier on one client puts the pair out of step
/// for good, and the workload flips between two regimes. The loops stop
/// at the first meeting after `seconds`. Responses are kept and checked
/// after the loop.
fn wire_loop(
    wire: &mut Wire,
    stmts: &[Stmt],
    offsets: &[usize],
    seconds: f64,
    tracer: Option<Instant>,
) -> (Phase, Vec<Option<Response>>, Option<Tracer>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let meet = Barrier::new(offsets.len());
    let (stop, failed) = (AtomicBool::new(false), AtomicBool::new(false));
    type ClientRun = (Vec<Sample>, Vec<Option<Response>>, Option<Tracer>);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = wire
            .clients
            .iter_mut()
            .zip(offsets)
            .enumerate()
            .map(|(c, (client, &offset))| {
                let (meet, stop, failed) = (&meet, &stop, &failed);
                s.spawn(move || {
                    let mut tr = tracer.map(Tracer::new);
                    let mut samples = Vec::with_capacity(4096);
                    let mut responses = Vec::with_capacity(4096);
                    let mut broken = false;
                    for n in 0.. {
                        if meet.wait().is_leader() {
                            let over = Instant::now() >= deadline;
                            stop.store(over || failed.load(Ordering::SeqCst), Ordering::SeqCst);
                        }
                        meet.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if broken {
                            continue;
                        }
                        let k = (offset + n) % stmts.len();
                        let span = tr.as_mut().map(|t| t.begin("wire.request", None, k as u32));
                        let t0 = Instant::now();
                        let r = client.call(&stmts[k].sql);
                        let lat_ns = t0.elapsed().as_nanos() as u64;
                        if let (Some(t), Some(id)) = (tr.as_mut(), span) {
                            t.end(id);
                        }
                        samples.push(Sample {
                            stmt: k,
                            client: c,
                            lat_ns,
                        });
                        if r.is_err() {
                            // The connection is gone: stop issuing; the
                            // next meeting stops both clients.
                            broken = true;
                            failed.store(true, Ordering::SeqCst);
                        }
                        responses.push(r.ok());
                    }
                    (samples, responses, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut responses = Vec::new();
    let mut merged: Option<Tracer> = None;
    for (s, r, t) in runs {
        samples.extend(s);
        responses.extend(r);
        if let Some(t) = t {
            match merged.as_mut() {
                Some(m) => m.absorb(t),
                None => merged = Some(t),
            }
        }
    }
    let phase = Phase {
        samples,
        elapsed_s,
        clients: offsets.len(),
        window: stmts.len() / offsets.len(),
    };
    (phase, responses, merged)
}

fn check_wire(
    phase: &Phase,
    responses: &[Option<Response>],
    stmts: &[Stmt],
    answers: &[Answer],
    fails: &mut Failures,
) -> usize {
    let mut ok = 0;
    for (s, r) in phase.samples.iter().zip(responses) {
        let stmt = &stmts[s.stmt];
        let verdict = match r {
            Some(r) if r.is_ok() => check_body(r.body(), &answers[stmt.answer]),
            Some(r) => Err(format!("E frame: {}", r.body())),
            None => Err("connection failed".to_string()),
        };
        match verdict {
            Ok(()) => ok += 1,
            Err(e) => fails.report(&stmt.sql, &e),
        }
    }
    ok
}

pub fn run_wire(cfg: &Config) -> Outcome {
    let sc = scale(cfg);
    let queries: Vec<Query> = match cfg.workload {
        Workload::ScanCount => query::scan_count_queries(cfg.seed),
        _ => query::dashboard_queries(cfg.seed),
    };
    // Each query runs on both copies, in adjacent slots. On the
    // dashboard, slot i and slot i + half hold the same shape for the two
    // clients. Even shapes keep the copies in the same order there, so
    // the pair scans one table and shares a pass; odd shapes swap the
    // order, so the pair scans different tables and runs on both cores.
    let half = queries.len() / 2;
    let stmts: Vec<Stmt> = (0..2 * queries.len())
        .map(|i| {
            let q = i / 2;
            let swap = cfg.workload == Workload::Dashboard && q >= half && (q - half) % 2 == 1;
            Stmt {
                sql: queries[q].sql([PLAIN, ENCODED][(i + usize::from(swap)) % 2]),
                answer: q,
            }
        })
        .collect();
    let data = data::generate(cfg.seed, sc.rows);
    let answers: Vec<Answer> = queries.iter().map(|q| answer(q, &data)).collect();
    let digest = digest_sql(data.digest(cfg.seed), stmts.iter().map(|s| s.sql.as_str()));
    drop(data);
    note(format!(
        "inputs: rows={} chunk_rows={} tables=2 statements={} digest={digest:016x}",
        sc.rows,
        sc.chunk_rows,
        stmts.len()
    ));
    // Two clients walk the pool half a pool apart.
    let offsets: Vec<usize> = match cfg.workload {
        Workload::Dashboard => vec![0, stmts.len() / 2],
        _ => vec![0],
    };

    let mut out = Outcome::default();
    let mut fails = Failures::default();
    let mut times = Vec::with_capacity(sc.setups);
    let mut live: Option<Live> = None;
    for _ in 0..sc.setups {
        if let Some(l) = live.take() {
            teardown(l, &mut out);
        }
        let l = setup_wire(
            cfg,
            &sc,
            offsets.len(),
            &stmts,
            &answers,
            &mut fails,
            &mut out,
        );
        times.push(l.times);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let engine = Arc::clone(&live.engine);

    if !cfg.trace {
        let (phase, responses, _) = wire_loop(&mut live.wire, &stmts, &offsets, cfg.seconds, None);
        let ok = check_wire(&phase, &responses, &stmts, &answers, &mut fails);
        out.attempted = phase.samples.len() as u64;
        out.failed = out.attempted - ok as u64;
        out.metrics = e2e_metrics(&phase, ok, &times, live.stored_ratio);
        let facts: Vec<KernelFacts> = stmts
            .iter()
            .filter_map(|s| analyze(&engine, &s.sql, &answers[s.answer], &mut fails, &mut out))
            .map(|a| a.facts)
            .collect();
        note_winners(&facts);
        teardown(live, &mut out);
        return out;
    }

    // Traced run. Probe chunks before the timed phase, per statement.
    let before: Vec<Analyzed> = stmts
        .iter()
        .filter_map(|s| analyze(&engine, &s.sql, &answers[s.answer], &mut fails, &mut out))
        .collect();
    let c0 = counters(&engine);
    let s0 = live.wire.server.counters().snapshot();
    let half = cfg.seconds / 2.0;
    let (plain, plain_resp, _) = wire_loop(&mut live.wire, &stmts, &offsets, half, None);
    let origin = Instant::now();
    let (traced, traced_resp, tracer) =
        wire_loop(&mut live.wire, &stmts, &offsets, half, Some(origin));
    let c1 = counters(&engine);
    let s1 = live.wire.server.counters().snapshot();
    let timed = plain.samples.len() + traced.samples.len();
    let mut ok = check_wire(&plain, &plain_resp, &stmts, &answers, &mut fails);
    ok += check_wire(&traced, &traced_resp, &stmts, &answers, &mut fails);
    out.attempted = timed as u64;
    out.failed = (timed - ok) as u64;

    // In-process pass: the same statements, layer by layer.
    let mut tr = tracer.unwrap_or_else(|| Tracer::new(origin));
    let from = tr.spans.len();
    const REPS: usize = 3;
    let mut response_bytes = vec![0usize; stmts.len()];
    for rep in 0..REPS {
        for (k, s) in stmts.iter().enumerate() {
            let id = k as u32;
            let root = tr.begin("inproc.statement", None, id);
            let result = plan_traced(&engine, &s.sql, &mut tr, root, id).and_then(|plan| {
                tr.span("executor.execute", Some(root), id, || {
                    executor::execute(&plan, engine.context())
                })
                .map_err(QueryError::from)
            });
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    tr.end(root);
                    fails.report(&s.sql, &e.to_string());
                    out.other_failures += 1;
                    continue;
                }
            };
            if rep == 0 {
                if let Err(e) = check_result(&result, &answers[s.answer]) {
                    fails.report(&s.sql, &e);
                    out.other_failures += 1;
                }
            }
            let text = tr.span("server.render", Some(root), id, || render_result(&result));
            let mut frame = Vec::new();
            let written = tr.span("protocol.write", Some(root), id, || {
                Response::Ok(text).write(&mut frame)
            });
            if written.is_err() {
                fails.report(&s.sql, "response frame not written");
                out.other_failures += 1;
            }
            response_bytes[k] = frame.len();
            tr.end(root);
        }
    }
    let after: Vec<Analyzed> = stmts
        .iter()
        .filter_map(|s| analyze(&engine, &s.sql, &answers[s.answer], &mut fails, &mut out))
        .collect();
    write_spans(cfg, &tr);

    // Per-statement medians of each layer.
    let spans = span_ms(&tr, from);
    let wire_ms = span_ms(&tr, 0);
    let layer = |name: &'static str, k: usize| -> f64 {
        spans.get(&(name, k as u32)).map_or(0.0, |v| median(v))
    };
    let n = stmts.len();
    let per = |name: &'static str| -> Vec<f64> { (0..n).map(|k| layer(name, k)).collect() };
    let (parse, plan, exec, render, write) = (
        per("parser.parse"),
        per("optimizer.plan"),
        per("executor.execute"),
        per("server.render"),
        per("protocol.write"),
    );
    let scan: Vec<f64> = after.iter().map(|a| a.scan_ms).collect();
    let postscan: Vec<f64> = exec.iter().zip(&scan).map(|(e, s)| e - s).collect();
    let waits: Vec<f64> = (0..n)
        .filter_map(|k| {
            let lat = wire_ms.get(&("wire.request", k as u32))?;
            let inproc = parse[k] + plan[k] + exec[k] + render[k] + write[k];
            Some(median(lat) - inproc)
        })
        .collect();
    let probes_before: u64 = before.iter().map(|a| a.facts.probe_chunks).sum();
    let probes_after: u64 = after.iter().map(|a| a.facts.probe_chunks).sum();
    let winners: Vec<&str> = after.iter().flat_map(|a| a.facts.winners.clone()).collect();
    note_winners(&after.iter().map(|a| a.facts.clone()).collect::<Vec<_>>());

    let done = (s1.completed + s1.errors) - (s0.completed + s0.errors);
    let shared = s1.shared_queries - s0.shared_queries;
    let us = |v: &[f64]| median(v) * 1e3;
    let mut m = vec![
        metric("parser.parse_us", us(&parse), "us"),
        metric("optimizer.plan_us", us(&plan), "us"),
        metric("executor.execute_ms", median(&exec), "ms"),
        metric("executor.postscan_ms", median(&postscan), "ms"),
        metric(
            "executor.postscan_share",
            postscan.iter().sum::<f64>() / exec.iter().sum::<f64>(),
            "ratio",
        ),
    ];
    m.extend(scan_metrics(&after));
    m.extend(jit_metrics(c0, c1, timed));
    m.push(metric(
        "adaptive.probe_chunks",
        probes_after.saturating_sub(probes_before) as f64 / timed.max(1) as f64,
        "count",
    ));
    m.extend(winner_metrics(&winners));
    m.push(metric("server.wait_ms", median(&waits), "ms"));
    m.push(metric(
        "batch.shared_hit_rate",
        if done == 0 {
            0.0
        } else {
            shared as f64 / done as f64
        },
        "ratio",
    ));
    m.push(metric("server.render_us", us(&render), "us"));
    m.push(metric(
        "protocol.response_bytes",
        response_bytes.iter().sum::<usize>() as f64 / n as f64,
        "B",
    ));
    m.extend(setup_layers(&times, &live.storage));
    m.push(metric(
        "tracing.overhead_p50_ms",
        traced.p50_ms() - plain.p50_ms(),
        "ms",
    ));
    m.push(metric(
        "tracing.overhead_stmts_per_s",
        traced.rate() - plain.rate(),
        "1/s",
    ));
    out.metrics = m;
    teardown(live, &mut out);
    out
}

/// Set-up layer metrics: encoder and register times, storage bytes and
/// the bandwidth probe that ranks the calibrator's candidates.
fn setup_layers(times: &[SetupTimes], storage: &[Metric]) -> Vec<Metric> {
    let encode: Vec<f64> = times.iter().map(|t| t.encode_s).collect();
    let register: Vec<f64> = times.iter().map(|t| t.register_s * 1e3).collect();
    let mut m = storage.to_vec();
    m.push(metric("storage.encode_s", median(&encode), "s"));
    m.push(metric("catalog.register_ms", median(&register), "ms"));
    m.push(metric(
        "stride.peak_bw_gbps",
        fts_core::stride::peak_bandwidth_gbps(),
        "GB/s",
    ));
    m
}

// ---------------------------------------------------------------------
// adhoc: one client calling Engine::query with ever-new statements.
// ---------------------------------------------------------------------

/// Statements generated ahead of the timed loop per second of it (the
/// loop extends the list if a fast host outruns it).
const ADHOC_PER_SECOND: usize = 2_000;

/// Statements per latency window on the ad-hoc workload.
const ADHOC_WINDOW: usize = 500;

struct AdhocStmt {
    query: Query,
    sql: String,
}

fn adhoc_stmt(seed: u64, i: u64) -> AdhocStmt {
    let (query, encoded) = query::adhoc_query(seed, i);
    let sql = query.sql(if encoded { ENCODED } else { PLAIN });
    AdhocStmt { query, sql }
}

/// Check results against the oracle, on two threads, after the loop.
fn check_adhoc(
    stmts: &[AdhocStmt],
    results: &[Result<QueryResult, QueryError>],
    data: &Dataset,
    fails: &mut Failures,
) -> usize {
    let half = results.len().div_ceil(2).max(1);
    let verdicts: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = results
            .chunks(half)
            .enumerate()
            .map(|(part, chunk)| {
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (j, r) in chunk.iter().enumerate() {
                        let i = part * half + j;
                        let verdict = match r {
                            Ok(r) => check_result(r, &answer(&stmts[i].query, data)),
                            Err(e) => Err(e.to_string()),
                        };
                        if let Err(e) = verdict {
                            bad.push((i, e));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut failed = 0;
    for (i, e) in verdicts.into_iter().flatten() {
        fails.report(&stmts[i].sql, &e);
        failed += 1;
    }
    results.len() - failed
}

pub fn run_adhoc(cfg: &Config) -> Outcome {
    let sc = scale(cfg);
    let data = data::generate(cfg.seed, sc.rows);
    let mut stmts: Vec<AdhocStmt> = Vec::new();
    let pregen = (cfg.seconds * ADHOC_PER_SECOND as f64) as usize + 1024;
    stmts.extend((0..pregen as u64).map(|i| adhoc_stmt(cfg.seed, i)));
    let digest = digest_sql(
        data.digest(cfg.seed),
        stmts.iter().take(1000).map(|s| s.sql.as_str()),
    );
    note(format!(
        "inputs: rows={} chunk_rows={} tables=2 digest={digest:016x} (data + first 1000 statements)",
        sc.rows, sc.chunk_rows
    ));

    let mut out = Outcome::default();
    let mut fails = Failures::default();
    let mut times = Vec::with_capacity(sc.setups);
    let mut current: Option<(Arc<Engine>, Vec<Metric>, f64)> = None;
    for _ in 0..sc.setups {
        drop(current.take());
        let tables = data::build_tables(data::generate(cfg.seed, sc.rows), sc.chunk_rows);
        let (build_s, encode_s) = (tables.build_s, tables.encode_s);
        let (engine, register_s, storage, stored_ratio) = register(tables);
        // Warm-up: a few throwaway statements absorb process-wide lazy
        // set-up (the peak-bandwidth probe); they are answered and checked.
        let started = Instant::now();
        let warm: Vec<AdhocStmt> = (0..8).map(|i| adhoc_stmt(!cfg.seed, i)).collect();
        let results: Vec<_> = warm.iter().map(|s| engine.query(&s.sql)).collect();
        let warm_s = started.elapsed().as_secs_f64();
        let ok = check_adhoc(&warm, &results, &data, &mut fails);
        out.other_failures += (warm.len() - ok) as u64;
        times.push(SetupTimes {
            total_s: build_s + encode_s + register_s + warm_s,
            build_s,
            encode_s,
            register_s,
            warm_s,
        });
        current = Some((engine, storage, stored_ratio));
    }
    let (engine, storage, stored_ratio) = current.expect("at least one set-up");

    let mut next = 0usize;
    let mut results: Vec<Result<QueryResult, QueryError>> = Vec::with_capacity(pregen);
    let mut run = |seconds: f64, tr: Option<&mut Tracer>, stmts: &mut Vec<AdhocStmt>| -> Phase {
        let mut tr = tr;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut samples = Vec::with_capacity(pregen);
        while Instant::now() < deadline {
            if next == stmts.len() {
                let n = stmts.len() as u64;
                stmts.extend((n..n + 1024).map(|i| adhoc_stmt(cfg.seed, i)));
            }
            let sql = &stmts[next].sql;
            let t0 = Instant::now();
            let r = match tr.as_deref_mut() {
                None => engine.query(sql),
                Some(tr) => {
                    let id = next as u32;
                    let root = tr.begin("statement", None, id);
                    let r = plan_traced(&engine, sql, tr, root, id).and_then(|plan| {
                        tr.span("executor.execute", Some(root), id, || {
                            executor::execute(&plan, engine.context())
                        })
                        .map_err(QueryError::from)
                    });
                    tr.end(root);
                    r
                }
            };
            samples.push(Sample {
                stmt: next,
                client: 0,
                lat_ns: t0.elapsed().as_nanos() as u64,
            });
            results.push(r);
            next += 1;
        }
        Phase {
            samples,
            elapsed_s: start.elapsed().as_secs_f64(),
            clients: 1,
            window: ADHOC_WINDOW,
        }
    };

    if !cfg.trace {
        let phase = run(cfg.seconds, None, &mut stmts);
        let ok = check_adhoc(&stmts[..results.len()], &results, &data, &mut fails);
        out.attempted = phase.samples.len() as u64;
        out.failed = out.attempted - ok as u64;
        out.metrics = e2e_metrics(&phase, ok, &times, stored_ratio);
        note(format!("issued statements: {}", phase.samples.len()));
        let facts: Vec<KernelFacts> = (0..32)
            .filter_map(|j| {
                let s = adhoc_stmt(cfg.seed, (next + j) as u64);
                analyze(
                    &engine,
                    &s.sql,
                    &answer(&s.query, &data),
                    &mut fails,
                    &mut out,
                )
            })
            .map(|a| a.facts)
            .collect();
        note_winners(&facts);
        return out;
    }

    let c0 = counters(&engine);
    let half = cfg.seconds / 2.0;
    let plain = run(half, None, &mut stmts);
    let mut tr = Tracer::new(Instant::now());
    let traced = run(half, Some(&mut tr), &mut stmts);
    let c1 = counters(&engine);
    let timed = plain.samples.len() + traced.samples.len();
    let ok = check_adhoc(&stmts[..results.len()], &results, &data, &mut fails);
    out.attempted = timed as u64;
    out.failed = (timed - ok) as u64;
    // A sample of further fresh statements, analyzed: kernel walls,
    // calibration probes and winners of statements that pay them.
    let sample: Vec<Analyzed> = (0..64)
        .filter_map(|j| {
            let s = adhoc_stmt(cfg.seed, (next + j) as u64);
            analyze(
                &engine,
                &s.sql,
                &answer(&s.query, &data),
                &mut fails,
                &mut out,
            )
        })
        .collect();
    write_spans(cfg, &tr);
    note_winners(&sample.iter().map(|a| a.facts.clone()).collect::<Vec<_>>());

    let all = |name: &'static str| -> Vec<f64> {
        let own = tr.self_ns();
        tr.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    };
    let exec_ms = median(&all("executor.execute"));
    let scan_ms = median(&sample.iter().map(|a| a.scan_ms).collect::<Vec<_>>());
    let winners: Vec<&str> = sample
        .iter()
        .flat_map(|a| a.facts.winners.clone())
        .collect();
    let probes: u64 = sample.iter().map(|a| a.facts.probe_chunks).sum();
    let mut m = vec![
        metric("parser.parse_us", median(&all("parser.parse")) * 1e3, "us"),
        metric(
            "optimizer.plan_us",
            median(&all("optimizer.plan")) * 1e3,
            "us",
        ),
        metric("executor.execute_ms", exec_ms, "ms"),
        metric("executor.postscan_ms", exec_ms - scan_ms, "ms"),
        metric(
            "executor.postscan_share",
            (exec_ms - scan_ms) / exec_ms,
            "ratio",
        ),
    ];
    m.extend(scan_metrics(&sample));
    m.extend(jit_metrics(c0, c1, timed));
    m.push(metric(
        "adaptive.probe_chunks",
        probes as f64 / sample.len().max(1) as f64,
        "count",
    ));
    m.extend(winner_metrics(&winners));
    // No server on this workload.
    m.push(metric("server.wait_ms", 0.0, "ms"));
    m.push(metric("batch.shared_hit_rate", 0.0, "ratio"));
    m.push(metric("server.render_us", 0.0, "us"));
    m.push(metric("protocol.response_bytes", 0.0, "B"));
    m.extend(setup_layers(&times, &storage));
    m.push(metric(
        "tracing.overhead_p50_ms",
        traced.p50_ms() - plain.p50_ms(),
        "ms",
    ));
    m.push(metric(
        "tracing.overhead_stmts_per_s",
        traced.rate() - plain.rate(),
        "1/s",
    ));
    out.metrics = m;
    out
}
