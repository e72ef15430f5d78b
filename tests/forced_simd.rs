//! `FTS_FORCE_SIMD` caps the SIMD level for every path, the bit-packed
//! kernels and the JIT included: a run forced to AVX2 on an AVX-512 host
//! must make the choices a host without AVX-512 makes, where packed
//! predicates only filter survivors and no chain runs a machine-code
//! kernel, and must still return the same answer.

use std::io::Write;
use std::process::{Command, Stdio};

const PACKED: &str = "SELECT COUNT(*) FROM orders_packed WHERE quantity = 24 AND discount = 3";

/// An `i64` range: a plain chain the JIT runs at 8 lanes when it may.
const TYPED: &str = "SELECT COUNT(*) FROM orders WHERE price >= 20000 AND price < 70000";

/// Run `fts-sql` over a small demo table with `EXPLAIN ANALYZE` of
/// `statement`, then the statement itself; returns the banner (stderr)
/// followed by the results (stdout).
fn run_sql(statement: &str, force: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fts-sql"));
    cmd.arg("100000")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    match force {
        Some(level) => cmd.env("FTS_FORCE_SIMD", level),
        None => cmd.env_remove("FTS_FORCE_SIMD"),
    };
    let mut child = cmd.spawn().expect("spawn fts-sql");
    let script = format!("EXPLAIN ANALYZE {statement};\n{statement};\n");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write statements");
    let out = child.wait_with_output().expect("fts-sql runs");
    assert!(out.status.success(), "fts-sql failed: {out:?}");
    String::from_utf8([out.stderr, out.stdout].concat()).expect("utf-8 output")
}

/// The `Scan [...]` telemetry lines of an `EXPLAIN ANALYZE`.
fn scan_lines(out: &str) -> Vec<&str> {
    out.lines()
        .map(|l| l.trim_start_matches("fts> ").trim())
        .filter(|l| l.starts_with("Scan ["))
        .collect()
}

/// The `COUNT(*) = n` result.
fn count(out: &str) -> u64 {
    out.lines()
        .find_map(|l| l.split("COUNT(*) = ").nth(1))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no COUNT(*) result in:\n{out}"))
}

/// Run `statement` unforced and forced to AVX2: the unforced run scans
/// with a kernel whose name contains `kernel`, the forced run with none,
/// and both return the same count.
fn forced_avx2_avoids(statement: &str, kernel: &str) {
    let unforced = run_sql(statement, None);
    assert!(
        scan_lines(&unforced).iter().any(|l| l.contains(kernel)),
        "an unforced run scans with a {kernel} kernel:\n{unforced}"
    );
    let forced = run_sql(statement, Some("avx2"));
    assert!(forced.contains("SIMD: avx2"), "{forced}");
    let scans = scan_lines(&forced);
    assert!(
        !scans.is_empty(),
        "EXPLAIN ANALYZE prints a scan line:\n{forced}"
    );
    assert!(
        scans.iter().all(|l| !l.contains(kernel)),
        "a run forced to AVX2 must not scan with a {kernel} kernel: {scans:?}"
    );
    assert_eq!(count(&forced), count(&unforced));
}

#[test]
fn forced_avx2_runs_no_packed_kernel() {
    if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
        eprintln!("skipping: no AVX-512 VBMI2 on this host");
        return;
    }
    forced_avx2_avoids(PACKED, "packed");
}

#[test]
fn forced_avx2_runs_no_jit_kernel_on_a_typed_chain() {
    if !fts_simd::has_avx512() {
        eprintln!("skipping: no AVX-512 on this host");
        return;
    }
    forced_avx2_avoids(TYPED, "jit-");
}
