//! The server proper: plan → admission and scan sharing ([`Batcher`]) →
//! render → telemetry.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use fts_core::{AdmissionConfig, AdmissionController, EngineError};
use fts_metrics::{AdvisorCounters, SchedCounters, SchedSnapshot};
use fts_query::{Engine, QueryError, QueryResult};
use fts_storage::Layout;

use crate::advisor::{run_advisor_once, spawn_advisor, AdvisorConfig, AdvisorHandle, PassReport};
use crate::batch::Batcher;
use crate::protocol::{Request, Response, MAX_FRAME_BYTES};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission budget (concurrency, queue depth, byte budget).
    pub admission: AdmissionConfig,
    /// Whether statements waiting for admission share table passes
    /// (`false` executes every statement solo — the bench's baseline
    /// mode).
    pub batching: bool,
    /// Background layout-advisor knobs (off by default).
    pub advisor: AdvisorConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            admission: AdmissionConfig::default(),
            batching: true,
            advisor: AdvisorConfig::default(),
        }
    }
}

/// A concurrent SQL server over a shared [`Engine`].
///
/// [`QueryServer::handle`] is the whole request path and is plain
/// synchronous code safe to call from any number of threads — the TCP
/// front end ([`QueryServer::serve`]) is just frames around it, which is
/// also what keeps the in-process benches and tests honest: they measure
/// the same path the wire speaks.
pub struct QueryServer {
    engine: Arc<Engine>,
    admission: Arc<AdmissionController>,
    counters: SchedCounters,
    advisor_counters: Arc<AdvisorCounters>,
    advisor: Mutex<Option<AdvisorHandle>>,
    batcher: Batcher,
    config: ServerConfig,
}

impl QueryServer {
    /// A server over `engine` with the given config. When
    /// `config.advisor.enabled` is set, the background layout advisor
    /// starts immediately (and stops when the server is dropped).
    pub fn new(engine: Arc<Engine>, config: ServerConfig) -> QueryServer {
        let admission = Arc::new(AdmissionController::new(config.admission));
        let advisor_counters = Arc::new(AdvisorCounters::new());
        let advisor = if config.advisor.enabled {
            Some(spawn_advisor(
                Arc::clone(&engine),
                Arc::clone(&admission),
                Arc::clone(&advisor_counters),
                config.advisor,
            ))
        } else {
            None
        };
        QueryServer {
            engine,
            admission,
            counters: SchedCounters::new(),
            advisor_counters,
            advisor: Mutex::new(advisor),
            batcher: Batcher::new(config.batching),
            config,
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The scheduler telemetry counters.
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// The layout-advisor telemetry counters.
    pub fn advisor_counters(&self) -> &AdvisorCounters {
        &self.advisor_counters
    }

    /// Run one synchronous advisor pass over the catalog, sharing the
    /// server's admission budget. Works whether or not the background
    /// thread is running — useful for tests and manual maintenance.
    pub fn run_advisor_once(&self) -> PassReport {
        run_advisor_once(
            &self.engine,
            &self.admission,
            &self.advisor_counters,
            &self.config.advisor,
        )
    }

    /// Stop the background advisor thread, if one is running. Idempotent.
    pub fn stop_advisor(&self) {
        let handle = self
            .advisor
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(handle) = handle {
            handle.stop();
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Handle one statement end to end: server commands short-circuit,
    /// SQL goes through plan → admit and execute, alone or in a shared
    /// pass → render.
    pub fn handle(&self, statement: &str) -> Response {
        let stmt = statement.trim();
        match stmt.to_ascii_uppercase().as_str() {
            "" => return Response::Err("empty statement".into()),
            "PING" => return Response::Ok("pong".into()),
            "STATS" => return Response::Ok(self.stats_text()),
            _ => {}
        }

        // Planning is cheap and needs no admission; it also yields the
        // statement's cost estimate, which admission is based on.
        let prepared = match self.engine.prepare(stmt) {
            Ok(p) => p,
            Err(e) => {
                self.counters.record_finished(false);
                return Response::Err(e.to_string());
            }
        };
        let analyze = prepared.is_analyze();

        // Every SQL statement takes one path: the batcher admits it and
        // runs it alone, or shares a pass if it has to wait (see `batch`).
        let result = self.batcher.submit(
            &self.engine,
            &self.admission,
            &self.counters,
            stmt,
            prepared,
        );

        match result {
            Ok(r) => {
                let mut text = render_result(&r);
                if analyze {
                    // EXPLAIN ANALYZE through the server also reports the
                    // scheduler's view of the world.
                    text.push_str(&self.analyze_lines());
                }
                // A body that cannot fit one frame (after the status byte)
                // is answered with an error the client can act on, instead
                // of a failed write that drops the connection.
                let fits = text.len() < MAX_FRAME_BYTES;
                self.counters.record_finished(fits);
                if !fits {
                    return Response::Err(format!(
                        "result too large: {} B rendered exceeds the {} MiB frame limit; \
                         add a LIMIT or project fewer columns",
                        text.len(),
                        MAX_FRAME_BYTES >> 20
                    ));
                }
                Response::Ok(text)
            }
            Err(e) => {
                // Overloaded rejections were already counted where they
                // happened (the solo routine, or the batch leader for a
                // shared pass); everything else is a finished-with-error.
                if !matches!(e, QueryError::Engine(EngineError::Overloaded { .. })) {
                    self.counters.record_finished(false);
                }
                Response::Err(e.to_string())
            }
        }
    }

    /// The scheduler lines appended to `EXPLAIN ANALYZE` responses.
    fn analyze_lines(&self) -> String {
        let s = self.counters.snapshot();
        let a = self.advisor_counters.snapshot();
        let (running, queued) = self.admission.load();
        format!(
            "server: admitted={} queued={} rejected={} running={running} waiting={queued}\n\
             server: shared_passes={} shared_queries={} hit_rate={:.1}%\n\
             server: advisor_passes={} chunks_reencoded={} bytes_saved={}\n",
            s.admitted,
            s.queued,
            s.rejected,
            s.shared_batches,
            s.shared_queries,
            s.shared_hit_rate() * 100.0,
            a.passes,
            a.chunks_reencoded,
            a.bytes_saved(),
        )
    }

    /// The `STATS` command body: admission, batching, engine and
    /// layout-advisor counters.
    pub fn stats_text(&self) -> String {
        let s: SchedSnapshot = self.counters.snapshot();
        let a = self.advisor_counters.snapshot();
        let (running, queued) = self.admission.load();
        let cfg = self.admission.config();
        let ctx = self.engine.context();
        let jit = ctx.jit_stats();
        // Per-layout decode throughput, only for layouts actually timed.
        let decode: Vec<String> = Layout::ALL
            .iter()
            .filter_map(|&l| a.decode_gbps(l).map(|g| format!("{l}={g:.2}")))
            .collect();
        let decode = if decode.is_empty() {
            "none".to_string()
        } else {
            decode.join(" ")
        };
        format!(
            "admission: running={running} waiting={queued} peak_running={} \
             (max_concurrent={} max_queued={} max_bytes={})\n\
             queries: admitted={} queued={} rejected={} completed={} errors={}\n\
             batching: shared_passes={} shared_queries={} hit_rate={:.1}%\n\
             jit: kernels={} hits={} misses={} evictions={}\n\
             scan: chunks_scanned={} chunks_pruned={} chunks_helped={} calibrated_chains={}\n\
             advisor: passes={} scored={} reencoded={} deferred={} bytes_saved={}\n\
             advisor decode GB/s: {decode}",
            s.peak_running,
            cfg.max_concurrent,
            cfg.max_queued,
            cfg.max_bytes,
            s.admitted,
            s.queued,
            s.rejected,
            s.completed,
            s.errors,
            s.shared_batches,
            s.shared_queries,
            s.shared_hit_rate() * 100.0,
            ctx.kernels.len() + ctx.packed_kernels.len(),
            jit.hits,
            jit.misses,
            jit.evictions,
            ctx.chunks_scanned.load(Ordering::Relaxed),
            ctx.chunks_pruned.load(Ordering::Relaxed),
            ctx.chunks_helped.load(Ordering::Relaxed),
            ctx.calibration.len(),
            a.passes,
            a.chunks_scored,
            a.chunks_reencoded,
            a.reencodes_deferred,
            a.bytes_saved(),
        )
    }

    /// Accept loop: one thread per connection, each speaking the frame
    /// protocol over [`QueryServer::handle`]. Runs until the listener
    /// errors (for a bounded run, drop the listener from another thread).
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(self);
            std::thread::spawn(move || server.serve_connection(stream));
        }
        Ok(())
    }

    fn serve_connection(&self, stream: TcpStream) {
        let mut reader = io::BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = io::BufWriter::new(stream);
        loop {
            let request = match Request::read(&mut reader) {
                Ok(Some(r)) => r,
                Ok(None) => return, // clean disconnect
                Err(_) => return,
            };
            let response = self.handle(&request.statement);
            if response.write(&mut writer).is_err() {
                return;
            }
        }
    }
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("config", &self.config)
            .field("load", &self.admission.load())
            .finish()
    }
}

/// Render a [`QueryResult`] as the response body text.
pub fn render_result(result: &QueryResult) -> String {
    match result {
        QueryResult::Count(n) => format!("COUNT(*) = {n}"),
        QueryResult::Explain(plan) => plan.clone(),
        QueryResult::Rows { columns, rows } => {
            use std::fmt::Write;
            let mut out = String::new();
            let _ = writeln!(out, "{}", columns.join(" | "));
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "{}", cells.join(" | "));
            }
            let _ = write!(out, "({} row(s))", rows.len());
            out
        }
    }
}
