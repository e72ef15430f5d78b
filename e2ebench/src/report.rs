//! The result line, the metric catalogue and host facts printed next to
//! the numbers.

use fts_query::AnalyzeReport;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that were wrong or missing outside the counted statements
    /// (warm-up, analysis passes); any makes the run incorrect.
    pub other_failures: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.other_failures == 0 && self.attempted > 0
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip text of a finite number (JSON has no NaN/inf;
/// those print as null and fail the smoke check).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The end-to-end metrics, as listed in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("stmts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_ratio", "ratio"),
];

/// The kernels the SQL path's calibrator picks among on an AVX-512 host;
/// any other winner (AVX2, SISD) counts as `other`.
pub const KERNELS: [&str; 4] = [
    "jit-avx512(w512)",
    "AVX-512 Fused (512)",
    "AVX-512 Fused (256)",
    "AVX-512 Fused (128)",
];

/// A kernel name as a metric-name suffix: lower case, runs of anything
/// but letters and digits folded to one `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::new();
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// The per-layer metrics, as listed in BENCHMARK.json.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("parser.parse_us", "us"),
        ("optimizer.plan_us", "us"),
        ("executor.execute_ms", "ms"),
        ("executor.postscan_ms", "ms"),
        ("executor.postscan_share", "ratio"),
        ("executor.phase2_rows", "count"),
        ("fused.scan_ms", "ms"),
        ("fused.gbps", "GB/s"),
        ("jit.compile_us", "us"),
        ("jit.hit_rate", "ratio"),
        ("jit.evictions", "count"),
        ("jit.kernels", "count"),
        ("adaptive.probe_chunks", "count"),
        ("adaptive.chains", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        v.push((format!("adaptive.winner.{}", sanitize(k)), "count"));
    }
    v.push(("adaptive.winner.other".to_string(), "count"));
    for (n, u) in [
        ("server.wait_ms", "ms"),
        ("batch.shared_hit_rate", "ratio"),
        ("server.render_us", "us"),
        ("protocol.response_bytes", "B"),
        ("storage.encode_s", "s"),
        ("catalog.register_ms", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    for l in fts_storage::Layout::ALL {
        v.push((format!("storage.bytes.{l}"), "B"));
    }
    for (n, u) in [
        ("stride.peak_bw_gbps", "GB/s"),
        ("tracing.overhead_p50_ms", "ms"),
        ("tracing.overhead_stmts_per_s", "1/s"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What one analyzed execution says about kernels: calibration probe
/// chunks and winners of every (sub-)chain the selector covered.
#[derive(Debug, Default, Clone)]
pub struct KernelFacts {
    pub probe_chunks: u64,
    pub winners: Vec<&'static str>,
    pub uncalibrated: u64,
}

pub fn kernel_facts(r: &AnalyzeReport) -> KernelFacts {
    let mut facts = KernelFacts::default();
    let mut decisions = Vec::new();
    decisions.extend(r.adaptive.iter());
    if let Some(b) = &r.bool_scan {
        decisions.extend(b.prefix.iter().filter_map(|p| p.adaptive.as_ref()));
        decisions.extend(b.disjuncts.iter().filter_map(|d| d.adaptive.as_ref()));
    }
    for d in decisions {
        facts.probe_chunks += d.probed.iter().map(|p| p.1).sum::<u64>();
        match d.winner {
            Some(w) => facts.winners.push(w),
            None => facts.uncalibrated += 1,
        }
    }
    facts
}

/// Winner counts per kernel, as per-layer metrics.
pub fn winner_metrics(winners: &[&str]) -> Vec<Metric> {
    let mut out: Vec<Metric> = KERNELS
        .iter()
        .map(|k| {
            let n = winners.iter().filter(|w| *w == k).count();
            metric(
                format!("adaptive.winner.{}", sanitize(k)),
                n as f64,
                "count",
            )
        })
        .collect();
    let other = winners.iter().filter(|w| !KERNELS.contains(w)).count();
    out.push(metric("adaptive.winner.other", other as f64, "count"));
    out
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host facts printed next to the numbers.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "# host: simd={} nproc={nproc} l3={l3} stride.peak_bw_gbps={:.2}",
        fts_simd::detect(),
        fts_core::stride::peak_bandwidth_gbps()
    )
}
