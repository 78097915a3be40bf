//! E12 — network serving layer: concurrent client sessions over TCP.
//!
//! The paper's workload is many designers at workstations reading a shared
//! design while a few update transmitters. E12 measures that shape through
//! the real wire: an in-process `ccdb-server` over a fan-out store, swept
//! over client-connection counts. Each client is a closed loop of resolved
//! reads (90%) and transmitter writes (10%) through its own TCP session.
//!
//! The acceptance bar is correctness under concurrency, not just
//! throughput: the `errors` column counts lost or corrupted responses
//! (id mismatches, non-value payloads, transport failures) and must be 0
//! at every client count — including 64 in full mode. `Overloaded`
//! rejections are *not* errors; they are the admission-control contract
//! and are reported separately.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_server::{Client, Server, ServerConfig};

use crate::table::Table;
use crate::workload::fanout_store;

/// One client session's closed loop. Returns (completed requests, errors,
/// overloaded retries).
fn client_loop(
    addr: std::net::SocketAddr,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    requests: u64,
    seed: u64,
) -> (u64, u64, u64) {
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut overloaded = 0u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return (0, requests, 0),
    };
    if c.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return (0, requests, 0);
    }
    let mut n = 0u64;
    while n < requests {
        let write = n % 10 == 9;
        let outcome = if write {
            c.set_attr(interface, "A0", Value::Int((seed + n) as i64))
                .map(|()| true)
        } else {
            let imp = imps[(seed + n) as usize % imps.len()];
            // Any successfully delivered read must carry an integer — a
            // non-integer payload is a corrupted response.
            c.attr(imp, "A0").map(|v| matches!(v, Value::Int(_)))
        };
        match outcome {
            Ok(true) => {
                completed += 1;
                n += 1;
            }
            Ok(false) => {
                errors += 1;
                n += 1;
            }
            Err(e) if e.is_overloaded() => {
                overloaded += 1;
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                errors += 1;
                n += 1;
            }
        }
    }
    (completed, errors, overloaded)
}

/// Run E12: wire throughput and correctness vs concurrent client sessions.
pub fn run(quick: bool) -> Table {
    let client_counts: &[usize] = if quick { &[1, 4, 8] } else { &[1, 4, 16, 64] };
    let requests_per_client: u64 = if quick { 200 } else { 2_000 };
    let n_imps = if quick { 64 } else { 256 };

    let (st, interface, imps) = fanout_store(n_imps, 4, 4);
    let shared = SharedStore::from_store(st);

    let mut t = Table::new(
        "E12: wire throughput and correctness vs concurrent client sessions",
        &[
            "clients",
            "requests",
            "errors",
            "overloaded",
            "elapsed",
            "req/s",
        ],
    );
    for &clients in client_counts {
        let server = Server::start(
            ServerConfig {
                workers: 4,
                queue_depth: 128,
                ..ServerConfig::default()
            },
            shared.clone(),
        )
        .expect("server binds");
        let addr = server.local_addr();

        let total_completed = Arc::new(AtomicU64::new(0));
        let total_errors = Arc::new(AtomicU64::new(0));
        let total_overloaded = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        thread::scope(|scope| {
            for w in 0..clients {
                let imps = &imps;
                let (tc, te, to) = (
                    Arc::clone(&total_completed),
                    Arc::clone(&total_errors),
                    Arc::clone(&total_overloaded),
                );
                scope.spawn(move || {
                    let (c, e, o) =
                        client_loop(addr, interface, imps, requests_per_client, w as u64 * 7919);
                    tc.fetch_add(c, Ordering::Relaxed);
                    te.fetch_add(e, Ordering::Relaxed);
                    to.fetch_add(o, Ordering::Relaxed);
                });
            }
        });
        let elapsed = start.elapsed();
        server.shutdown();

        let completed = total_completed.load(Ordering::Relaxed);
        let errors = total_errors.load(Ordering::Relaxed);
        let per_sec = completed as f64 / elapsed.as_secs_f64().max(1e-9);
        t.row(vec![
            clients.to_string(),
            completed.to_string(),
            errors.to_string(),
            total_overloaded.load(Ordering::Relaxed).to_string(),
            format!("{:.3} s", elapsed.as_secs_f64()),
            format!("{per_sec:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::server_test_lock;

    #[test]
    fn every_client_count_completes_with_zero_errors() {
        let _servers = server_test_lock();
        let t = run(true);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let clients: u64 = row[0].parse().unwrap();
            let completed: u64 = row[1].parse().unwrap();
            let errors: u64 = row[2].parse().unwrap();
            assert_eq!(completed, clients * 200, "lost responses: {row:?}");
            assert_eq!(errors, 0, "corrupted responses: {row:?}");
        }
    }
}
