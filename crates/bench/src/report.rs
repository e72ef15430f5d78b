//! Benchmark result records: JSON persistence (for EXPERIMENTS.md) plus
//! aligned text tables on stdout.
//!
//! Serialization is a small hand-rolled JSON writer/parser (`json`
//! module) — the build environment is offline, so no serde. The schema is
//! stable and documented in `README.md`; [`FigureResult`] round-trips
//! through [`FigureResult::to_json`] / [`FigureResult::from_json`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use fts_core::ScanTelemetry;

use crate::json::Json;

/// One measured point of a series.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// X coordinate (table size, selectivity, predicate count, …).
    pub x: f64,
    /// Named metrics at this point (median_ms, speedup, mispredictions, …).
    pub metrics: BTreeMap<String, f64>,
}

/// One line/bar series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legend where applicable).
    pub label: String,
    /// The measured points, in x order.
    pub points: Vec<Point>,
}

/// A scan's telemetry as it appears in a figure's JSON: the flattened
/// [`ScanTelemetry`] plus the bandwidth-bound-vs-compute-bound verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Which measurement this scan belongs to (series label, workload…).
    pub label: String,
    /// [`fts_core::ScanImpl`] name that ran.
    pub impl_name: String,
    /// Rows scanned.
    pub rows: u64,
    /// Predicates in the chain.
    pub predicates: u64,
    /// Vector lanes per block.
    pub lanes: u64,
    /// Driver blocks processed.
    pub blocks: u64,
    /// Morsels aggregated (1 unless parallel).
    pub morsels: u64,
    /// Worker threads.
    pub threads: u64,
    /// Wall-clock nanoseconds of the kernel / parallel region.
    pub wall_ns: u64,
    /// Column bytes touched.
    pub bytes: u64,
    /// Derived throughput, values per microsecond.
    pub values_per_us: f64,
    /// Derived bandwidth, GB/s.
    pub gb_per_sec: f64,
    /// Machine peak sequential read bandwidth used for the verdict, GB/s.
    pub peak_gb_per_sec: f64,
    /// `"bandwidth-bound"` or `"compute-bound"`.
    pub verdict: String,
    /// Rows surviving predicates `0..=k`.
    pub survivors: Vec<u64>,
    /// Observed per-predicate selectivities, each in `[0, 1]`.
    pub selectivities: Vec<f64>,
    /// Per-stage flush counts (fused implementations).
    pub stage_flushes: Vec<u64>,
    /// Per-stage gathered-lane counts (fused implementations).
    pub stage_gathered: Vec<u64>,
}

impl TelemetryRecord {
    /// Flatten a collected [`ScanTelemetry`], judging it against
    /// `peak_gb_per_sec` (the machine's peak sequential read bandwidth).
    pub fn from_scan(label: &str, t: &ScanTelemetry, peak_gb_per_sec: f64) -> TelemetryRecord {
        TelemetryRecord {
            label: label.into(),
            impl_name: t.impl_name().into(),
            rows: t.rows,
            predicates: t.predicates as u64,
            lanes: t.lanes as u64,
            blocks: t.blocks,
            morsels: t.morsels,
            threads: t.threads as u64,
            wall_ns: t.wall.as_nanos() as u64,
            bytes: t.bytes_touched,
            values_per_us: t.values_per_us(),
            gb_per_sec: t.gb_per_sec(),
            peak_gb_per_sec,
            verdict: t.verdict(peak_gb_per_sec).to_string(),
            survivors: t.pred_survivors.clone(),
            selectivities: t.selectivities(),
            stage_flushes: t.stages.iter().map(|s| s.flushes).collect(),
            stage_gathered: t.stages.iter().map(|s| s.gathered).collect(),
        }
    }
}

/// A reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. "fig4".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Axis/meaning of `x`.
    pub x_label: String,
    /// Workload scale the run used.
    pub config: BTreeMap<String, String>,
    /// The series.
    pub series: Vec<Series>,
    /// Scan telemetry captured during the run (may be empty).
    pub telemetry: Vec<TelemetryRecord>,
}

impl FigureResult {
    /// New empty figure.
    pub fn new(id: &str, title: &str, x_label: &str) -> FigureResult {
        FigureResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            config: BTreeMap::new(),
            series: Vec::new(),
            telemetry: Vec::new(),
        }
    }

    /// Record a configuration key.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.insert(key.into(), value.to_string());
    }

    /// Append a point to the series with `label`, creating it on demand.
    pub fn push(&mut self, label: &str, x: f64, metrics: &[(&str, f64)]) {
        let series = match self.series.iter_mut().find(|s| s.label == label) {
            Some(s) => s,
            None => {
                self.series.push(Series {
                    label: label.into(),
                    points: Vec::new(),
                });
                self.series.last_mut().expect("just pushed")
            }
        };
        series.points.push(Point {
            x,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Attach one scan's telemetry to the figure.
    pub fn push_telemetry(&mut self, label: &str, t: &ScanTelemetry, peak_gb_per_sec: f64) {
        self.telemetry
            .push(TelemetryRecord::from_scan(label, t, peak_gb_per_sec));
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut fig = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("x_label".to_string(), Json::Str(self.x_label.clone())),
            (
                "config".to_string(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "series".to_string(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("label".to_string(), Json::Str(s.label.clone())),
                                (
                                    "points".to_string(),
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|p| {
                                                Json::Obj(vec![
                                                    ("x".to_string(), Json::Num(p.x)),
                                                    (
                                                        "metrics".to_string(),
                                                        Json::Obj(
                                                            p.metrics
                                                                .iter()
                                                                .map(|(k, v)| {
                                                                    (k.clone(), Json::Num(*v))
                                                                })
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        fig.push((
            "telemetry".to_string(),
            Json::Arr(self.telemetry.iter().map(telemetry_to_json).collect()),
        ));
        Json::Obj(fig).pretty()
    }

    /// Parse what [`FigureResult::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<FigureResult, String> {
        let v = Json::parse(text)?;
        let mut fig = FigureResult::new(
            v.str_field("id")?,
            v.str_field("title")?,
            v.str_field("x_label")?,
        );
        for (k, val) in v.obj_field("config")? {
            fig.config.insert(
                k.clone(),
                val.as_str()
                    .ok_or("config values must be strings")?
                    .to_string(),
            );
        }
        for s in v.arr_field("series")? {
            let mut series = Series {
                label: s.str_field("label")?.to_string(),
                points: Vec::new(),
            };
            for p in s.arr_field("points")? {
                let mut metrics = BTreeMap::new();
                for (k, val) in p.obj_field("metrics")? {
                    metrics.insert(
                        k.clone(),
                        val.as_f64().ok_or("metric values must be numbers")?,
                    );
                }
                series.points.push(Point {
                    x: p.num_field("x")?,
                    metrics,
                });
            }
            fig.series.push(series);
        }
        if let Ok(records) = v.arr_field("telemetry") {
            for r in records {
                fig.telemetry.push(telemetry_from_json(r)?);
            }
        }
        Ok(fig)
    }

    /// Write `<id>.json` into `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Render an aligned text table: one row per x, one column per
    /// (series, metric).
    pub fn table(&self, metric: &str) -> String {
        use std::fmt::Write;
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();

        let mut out = String::new();
        let _ = writeln!(out, "{} — {} [{}]", self.id, self.title, metric);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>22}", s.label);
        }
        let _ = writeln!(out);
        for x in xs {
            let _ = write!(out, "{:>14}", format_x(x));
            for s in &self.series {
                let v = s
                    .points
                    .iter()
                    .find(|p| p.x == x)
                    .and_then(|p| p.metrics.get(metric));
                match v {
                    Some(v) => {
                        let _ = write!(out, " {:>22}", format_metric(*v));
                    }
                    None => {
                        let _ = write!(out, " {:>22}", "—");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
}

fn f64s(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn telemetry_to_json(t: &TelemetryRecord) -> Json {
    Json::Obj(vec![
        ("label".to_string(), Json::Str(t.label.clone())),
        ("impl".to_string(), Json::Str(t.impl_name.clone())),
        ("rows".to_string(), Json::Num(t.rows as f64)),
        ("predicates".to_string(), Json::Num(t.predicates as f64)),
        ("lanes".to_string(), Json::Num(t.lanes as f64)),
        ("blocks".to_string(), Json::Num(t.blocks as f64)),
        ("morsels".to_string(), Json::Num(t.morsels as f64)),
        ("threads".to_string(), Json::Num(t.threads as f64)),
        ("wall_ns".to_string(), Json::Num(t.wall_ns as f64)),
        ("bytes".to_string(), Json::Num(t.bytes as f64)),
        ("values_per_us".to_string(), Json::Num(t.values_per_us)),
        ("gb_per_sec".to_string(), Json::Num(t.gb_per_sec)),
        ("peak_gb_per_sec".to_string(), Json::Num(t.peak_gb_per_sec)),
        ("verdict".to_string(), Json::Str(t.verdict.clone())),
        ("survivors".to_string(), u64s(&t.survivors)),
        ("selectivities".to_string(), f64s(&t.selectivities)),
        ("stage_flushes".to_string(), u64s(&t.stage_flushes)),
        ("stage_gathered".to_string(), u64s(&t.stage_gathered)),
    ])
}

fn telemetry_from_json(v: &Json) -> Result<TelemetryRecord, String> {
    let ints = |name: &str| -> Result<Vec<u64>, String> {
        v.arr_field(name)?
            .iter()
            .map(|x| {
                x.as_f64()
                    .map(|f| f as u64)
                    .ok_or_else(|| format!("{name}: not a number"))
            })
            .collect()
    };
    Ok(TelemetryRecord {
        label: v.str_field("label")?.to_string(),
        impl_name: v.str_field("impl")?.to_string(),
        rows: v.num_field("rows")? as u64,
        predicates: v.num_field("predicates")? as u64,
        lanes: v.num_field("lanes")? as u64,
        blocks: v.num_field("blocks")? as u64,
        morsels: v.num_field("morsels")? as u64,
        threads: v.num_field("threads")? as u64,
        wall_ns: v.num_field("wall_ns")? as u64,
        bytes: v.num_field("bytes")? as u64,
        values_per_us: v.num_field("values_per_us")?,
        gb_per_sec: v.num_field("gb_per_sec")?,
        peak_gb_per_sec: v.num_field("peak_gb_per_sec")?,
        verdict: v.str_field("verdict")?.to_string(),
        survivors: ints("survivors")?,
        selectivities: v
            .arr_field("selectivities")?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| "selectivities: not a number".to_string())
            })
            .collect::<Result<_, _>>()?,
        stage_flushes: ints("stage_flushes")?,
        stage_gathered: ints("stage_gathered")?,
    })
}

fn format_x(x: f64) -> String {
    if x >= 1000.0 && x.fract() == 0.0 {
        let mut v = x as u64;
        let mut suffix = "";
        for (div, s) in [(1_000_000_000, "G"), (1_000_000, "M"), (1_000, "K")] {
            if v.is_multiple_of(div) && v >= div {
                v /= div;
                suffix = s;
                break;
            }
        }
        if suffix.is_empty() {
            format!("{}", x as u64)
        } else {
            format!("{v}{suffix}")
        }
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.7}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

fn format_metric(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 {
        format!("{}", v as i64)
    } else if v.abs() < 0.01 {
        format!("{v:.5}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_core::{run_scan_telemetered, OutputMode, RegWidth, ScanImpl, TypedPred};

    #[test]
    fn build_and_render() {
        let mut fig = FigureResult::new("figX", "demo", "rows");
        fig.config("rows", 100);
        fig.push("A", 1000.0, &[("median_ms", 1.5), ("speedup", 2.0)]);
        fig.push("A", 2000.0, &[("median_ms", 3.0)]);
        fig.push("B", 1000.0, &[("median_ms", 0.5)]);
        let t = fig.table("median_ms");
        assert!(t.contains("1K"), "{t}");
        assert!(t.contains("2K"));
        assert!(t.contains("1.50"));
        assert!(t.contains('—'), "missing point renders as dash: {t}");
        assert_eq!(fig.series.len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let mut fig = FigureResult::new("figY", "demo", "sel");
        fig.push("S", 0.5, &[("m", 1.0)]);
        fig.push("S", 0.25, &[("m", 1.5e-7), ("n", -3.0)]);
        fig.config("note", "quotes \" and \\ backslashes\nnewlines");
        let text = fig.to_json();
        let back = FigureResult::from_json(&text).unwrap();
        assert_eq!(back, fig);
    }

    #[test]
    fn telemetry_round_trips_with_verdict() {
        let a: Vec<u32> = (0..4096).map(|i| i % 4).collect();
        let preds = [TypedPred::eq(&a[..], 1u32)];
        let (_, t) = run_scan_telemetered(
            ScanImpl::FusedScalar(RegWidth::W512),
            &preds,
            OutputMode::Count,
        )
        .unwrap();
        let mut fig = FigureResult::new("figT", "demo", "rows");
        // Against a near-zero peak any real scan rate is bandwidth-bound
        // (a huge peak would flip the verdict to compute-bound).
        fig.push_telemetry("workload", &t, 1e-9);
        assert_eq!(fig.telemetry[0].verdict, "bandwidth-bound");
        assert_eq!(fig.telemetry[0].rows, 4096);
        assert!(fig.telemetry[0]
            .selectivities
            .iter()
            .all(|s| (0.0..=1.0).contains(s)));
        let back = FigureResult::from_json(&fig.to_json()).unwrap();
        assert_eq!(back, fig);
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join(format!("fts-bench-test-{}", std::process::id()));
        let fig = FigureResult::new("figZ", "demo", "x");
        fig.save(&dir).unwrap();
        assert!(dir.join("figZ.json").exists());
        let text = std::fs::read_to_string(dir.join("figZ.json")).unwrap();
        assert!(FigureResult::from_json(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn x_formatting() {
        assert_eq!(format_x(16_000_000.0), "16M");
        assert_eq!(format_x(1_000.0), "1K");
        assert_eq!(format_x(0.0001), "0.0001");
        assert_eq!(format_x(5.0), "5");
    }
}
