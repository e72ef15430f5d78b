//! Scan sharing over the wire, in a test binary of its own.
//!
//! A statement shares a pass only if it waits for admission, so the
//! statements must overlap at the server. Run in parallel with the
//! CPU-heavy tests of `server_concurrency.rs` on a 2-vCPU host, each
//! statement ran start to finish before the next one arrived, and the
//! test failed 8 times in 50 runs; alone it passed 50 of 50.

use fts_core::AdmissionConfig;
use fts_server::ServerConfig;

mod common;
use common::{roundtrip, start_server, ROWS};

/// Identical concurrent statements coalesce into shared passes and the
/// hit rate shows up in STATS.
#[test]
fn identical_statements_share_a_pass() {
    let (server, addr) = start_server(ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    });

    const CLIENTS: usize = 8;
    let sql = "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = 3";
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| std::thread::spawn(move || roundtrip(addr, sql)))
        .collect();
    let expect = format!(
        "COUNT(*) = {}",
        (0..ROWS).filter(|i| i % 50 < 25 && i % 11 == 3).count()
    );
    for h in handles {
        let resp = h.join().expect("join");
        assert!(resp.is_ok(), "{}", resp.body());
        assert_eq!(resp.body(), expect);
    }

    let snap = server.counters().snapshot();
    assert!(
        snap.shared_batches >= 1,
        "no shared pass despite {CLIENTS} identical concurrent statements"
    );
    assert!(snap.shared_queries >= 2);
    let stats = roundtrip(addr, "STATS");
    assert!(stats.body().contains("shared_passes="), "{}", stats.body());
}
