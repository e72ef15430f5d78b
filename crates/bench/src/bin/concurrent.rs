//! Run the concurrent-load sweep and persist `BENCH_concurrent.json`.
//!
//! ```text
//! concurrent [--scale quick|default|paper] [--out DIR]
//! ```

use fts_bench::concurrent_bench;
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
    let fig = concurrent_bench::bench_concurrent(&scale);
    println!("{}", fig.table("total_ms"));
    println!("{}", fig.table("p99_ms"));
    println!("{}", fig.table("shared_hit_rate"));
    let accepted = concurrent_bench::acceptance(&fig);
    if let Some((worst_ratio, mismatches)) = accepted {
        println!(
            "acceptance: worst batched/naive total-time ratio at >= {} clients = {worst_ratio:.3} \
             (bar: < 1.0), differential mismatches = {mismatches} (bar: 0)",
            concurrent_bench::ACCEPTANCE_CLIENTS
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
    // A wrong answer fails the run; the timing ratio is only reported.
    if !matches!(accepted, Some((_, 0))) {
        eprintln!("FAIL: differential mismatches, or no acceptance numbers");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: concurrent [--scale quick|default|paper] [--out DIR]");
    std::process::exit(2);
}
