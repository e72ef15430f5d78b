//! The server proper: admission → batching → execution → telemetry.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    /// How long a batch leader waits for compatible statements to join
    /// its shared pass. Zero still batches statements that are already
    /// waiting, but in practice disables coalescing.
    pub batch_window: Duration,
    /// Whether scan-sharing is enabled at all (`false` executes every
    /// statement solo — the bench's baseline mode).
    pub batching: bool,
    /// Background layout-advisor knobs (off by default).
    pub advisor: AdvisorConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            admission: AdmissionConfig::default(),
            batch_window: Duration::from_millis(2),
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
            batcher: Batcher::new(config.batch_window),
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
    /// SQL goes through plan → admit → (batch|solo) execute → render.
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

        // A statement whose cost alone exceeds the byte budget can never
        // be admitted — reject it before it joins a batch, where its cost
        // would poison the whole pass (pass cost is the max of its
        // statements).
        let budget = self.admission.config().max_bytes;
        if prepared.cost_bytes() > budget {
            self.counters.record_rejected();
            return Response::Err(
                EngineError::Overloaded {
                    running: self.admission.load().0,
                    queued: self.admission.load().1,
                    oversized: Some((prepared.cost_bytes(), budget)),
                }
                .to_string(),
            );
        }

        // Shareable statements are admitted by their batch *leader* (one
        // permit per shared pass — see `batch`); everything else admits
        // itself here.
        let result = if self.config.batching && prepared.is_shareable() {
            let table = prepared
                .scan_table()
                .expect("shareable statements scan a stored table")
                .to_string();
            self.batcher.submit(
                &self.engine,
                &self.admission,
                &self.counters,
                table,
                stmt.to_string(),
                Arc::new(prepared),
            )
        } else {
            match self.admission.admit_tracked(prepared.cost_bytes()) {
                Ok((permit, waited)) => {
                    self.counters.record_admitted(waited);
                    let (running, _) = self.admission.load();
                    self.counters.observe_running(running as u64);
                    let result = self.engine.execute(&prepared);
                    drop(permit);
                    result
                }
                Err(e) => {
                    self.counters.record_rejected();
                    Err(QueryError::Engine(e))
                }
            }
        };

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
                // happened (solo path above, batch leader for shared
                // passes); everything else is a finished-with-error.
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
        let jit = self.engine.context().kernels.stats();
        let ctx = self.engine.context();
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
             scan: chunks_scanned={} chunks_pruned={} calibrated_chains={}\n\
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
            ctx.kernels.len(),
            jit.hits,
            jit.misses,
            jit.evictions,
            ctx.chunks_scanned.load(Ordering::Relaxed),
            ctx.chunks_pruned.load(Ordering::Relaxed),
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
