//! The benchmark's own test: `--smoke` runs every workload at tiny scale,
//! untraced and traced. The binary itself asserts that every metric is
//! emitted, finite and has its unit, and that every answer is right; this
//! test also holds the emitted names to the list in BENCHMARK.json.

use std::process::Command;

/// The `"name": "..."` values of one section of BENCHMARK.json.
fn section_names(spec: &str, section: &str, next: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = spec[start..]
        .find(&format!("\"{next}\""))
        .map_or(spec.len(), |e| start + e);
    spec[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Metric names in one result line, in order: the quoted key before each
/// `: {"value"`.
fn emitted_names(line: &str) -> Vec<String> {
    let heads: Vec<&str> = line.split(": {\"value\"").collect();
    heads[..heads.len() - 1]
        .iter()
        .map(|head| {
            let end = head.rfind('"').expect("quoted key");
            let start = head[..end].rfind('"').expect("quoted key");
            head[start + 1..end].to_string()
        })
        .collect()
}

#[test]
fn smoke_runs_emit_the_benchmark_json_metrics_with_correct_answers() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run e2ebench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");

    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let mut end_to_end = section_names(&spec, "end_to_end", "per_layer");
    let mut per_layer = section_names(&spec, "per_layer", "\u{0}");
    end_to_end.sort();
    per_layer.sort();

    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    // Three workloads, each untraced then traced.
    assert_eq!(results.len(), 6, "{stdout}");
    for (i, line) in results.iter().enumerate() {
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        let mut names = emitted_names(line);
        names.sort();
        let want = if i % 2 == 0 { &end_to_end } else { &per_layer };
        assert_eq!(&names, want, "run {i}: {line}");
    }
}
