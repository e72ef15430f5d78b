//! Run the adaptive-selector sweep — the SQL executor's calibration loop
//! against every kernel it can pick — and persist `BENCH_adaptive.json`.
//! Exits 1 when a point's scan ended before calibration picked a winner.
//!
//! ```text
//! adaptive [--scale quick|default|paper] [--out DIR]
//! ```

use fts_bench::adaptive_bench;
use fts_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_scale();
    let mut out_dir = std::path::PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = match args.get(i + 1).map(String::as_str) {
                    Some("quick") => Scale::quick(),
                    Some("default") => Scale::default_scale(),
                    Some("paper") => Scale::paper(),
                    _ => usage(),
                };
                i += 2;
            }
            "--out" => {
                out_dir = args.get(i + 1).cloned().unwrap_or_else(|| usage()).into();
                i += 2;
            }
            _ => usage(),
        }
    }

    println!(
        "host: {} | rows={} reps={}\n",
        fts_simd::detect(),
        scale.rows,
        scale.reps
    );

    let t = std::time::Instant::now();
    let fig = adaptive_bench::bench_adaptive(&scale);
    println!("{}", fig.table("median_ms"));
    if let Some((vs_best, vs_worst)) = adaptive_bench::acceptance(&fig) {
        println!(
            "acceptance: worst adaptive/best kernel = {vs_best:.3} (bar: <= 1.05), \
             worst adaptive/worst kernel = {vs_worst:.3} (bar: < 1.0)"
        );
    }
    if let Err(e) = fig.save(&out_dir) {
        eprintln!("warning: could not save {}: {e}", fig.id);
    }
    println!(
        "[{} finished in {:.1}s, saved to {}]",
        fig.id,
        t.elapsed().as_secs_f64(),
        out_dir.display()
    );
    let unconverged = adaptive_bench::unconverged(&fig);
    if !unconverged.is_empty() {
        eprintln!("error: calibration never converged at {unconverged:?}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: adaptive [--scale quick|default|paper] [--out DIR]");
    std::process::exit(2);
}
