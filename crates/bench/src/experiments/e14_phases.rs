//! E14 — latency decomposition: where does a wire request's time go?
//!
//! The serving layer stamps every request's eight phases (recv → parse →
//! queue → snapshot → lock → handle → serialize → write) into the
//! `ccdb_server_phase_*` histograms. E14 runs the E12 workload shape (an
//! in-process server, closed-loop clients at 90% resolved reads / 10%
//! transmitter writes) and renders the *attribution table*: how much of
//! total server-side time each phase accounts for — the "X% of the p95 is
//! store-lock wait" answer — next to the client-measured RTT.
//!
//! Two invariants are asserted by the test:
//!
//! - zero server errors (the decomposition must not perturb correctness);
//! - **coverage**: the eight phase sums add up to ≥95% of the measured
//!   first-byte-to-response-written total — the timeline has no
//!   unaccounted gap.
//!
//! Phase histograms are process-global, so deltas are taken around the
//! workload instead of resetting the registry (other concurrent users of
//! the registry only add consistently to both numerator and denominator).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_obs::flight::PHASE_NAMES;
use ccdb_obs::metrics::LATENCY_BUCKETS_NS;
use ccdb_obs::{Histogram, HistogramSnapshot};
use ccdb_server::{Client, Server, ServerConfig};

use crate::table::Table;
use crate::workload::fanout_store;

/// One closed-loop client; returns (rtt sum ns, completed, errors,
/// overloaded retries).
fn client_loop(
    addr: std::net::SocketAddr,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    requests: u64,
    seed: u64,
) -> (u64, u64, u64, u64) {
    let mut rtt_sum = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut overloaded = 0u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return (0, 0, requests, 0),
    };
    if c.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return (0, 0, requests, 0);
    }
    let mut n = 0u64;
    while n < requests {
        let start = Instant::now();
        let outcome = if n % 10 == 9 {
            c.set_attr(interface, "A0", Value::Int((seed + n) as i64))
        } else {
            let imp = imps[(seed + n) as usize % imps.len()];
            c.attr(imp, "A0").map(|_| ())
        };
        match outcome {
            Ok(()) => {
                rtt_sum += start.elapsed().as_nanos() as u64;
                completed += 1;
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
    (rtt_sum, completed, errors, overloaded)
}

fn delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> (f64, u64) {
    (
        (after.sum.saturating_sub(before.sum)) as f64,
        after.count.saturating_sub(before.count),
    )
}

/// Run E14: per-phase attribution of server-side request time.
pub fn run(quick: bool) -> Table {
    let clients = if quick { 4 } else { 8 };
    let requests_per_client: u64 = if quick { 200 } else { 2_000 };
    let n_imps = if quick { 64 } else { 256 };

    let (st, interface, imps) = fanout_store(n_imps, 4, 4);
    let shared = SharedStore::from_store(st);
    let server = Server::start(
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            ..ServerConfig::default()
        },
        shared,
    )
    .expect("server binds");
    let addr = server.local_addr();

    // The same get-or-create registry entries the server observes into.
    let r = ccdb_obs::global();
    let phase_hists: Vec<Arc<Histogram>> = PHASE_NAMES
        .iter()
        .map(|p| r.histogram(&format!("ccdb_server_phase_all_{p}_ns"), LATENCY_BUCKETS_NS))
        .collect();
    let total_hist = r.histogram("ccdb_server_phase_all_total_ns", LATENCY_BUCKETS_NS);
    let phases_before: Vec<HistogramSnapshot> = phase_hists.iter().map(|h| h.snapshot()).collect();
    let total_before = total_hist.snapshot();

    let rtt_sum = Arc::new(AtomicU64::new(0));
    let total_completed = Arc::new(AtomicU64::new(0));
    let total_errors = Arc::new(AtomicU64::new(0));
    thread::scope(|scope| {
        for w in 0..clients {
            let imps = &imps;
            let (tr, tc, te) = (
                Arc::clone(&rtt_sum),
                Arc::clone(&total_completed),
                Arc::clone(&total_errors),
            );
            scope.spawn(move || {
                let (rtt, c, e, _o) =
                    client_loop(addr, interface, imps, requests_per_client, w as u64 * 7919);
                tr.fetch_add(rtt, Ordering::Relaxed);
                tc.fetch_add(c, Ordering::Relaxed);
                te.fetch_add(e, Ordering::Relaxed);
            });
        }
    });
    server.shutdown();

    let (total_sum, total_count) = delta(&total_before, &total_hist.snapshot());
    let completed = total_completed.load(Ordering::Relaxed).max(1);
    let rtt_mean = rtt_sum.load(Ordering::Relaxed) as f64 / completed as f64;

    let mut t = Table::new(
        "E14: per-phase attribution of server-side request time (90/10 wire workload)",
        &["metric", "total", "share", "mean/req"],
    );
    let mut phases_sum = 0.0f64;
    for (p, (h, before)) in PHASE_NAMES
        .iter()
        .zip(phase_hists.iter().zip(&phases_before))
    {
        let (sum, count) = delta(before, &h.snapshot());
        phases_sum += sum;
        let share = if total_sum > 0.0 {
            100.0 * sum / total_sum
        } else {
            0.0
        };
        let mean = sum / count.max(1) as f64;
        t.row(vec![
            p.to_string(),
            format!("{:.2} ms", sum / 1e6),
            format!("{share:.1}%"),
            format!("{:.1} us", mean / 1e3),
        ]);
    }
    t.row(vec![
        "server total".into(),
        format!("{:.2} ms", total_sum / 1e6),
        "100%".into(),
        format!("{:.1} us", total_sum / total_count.max(1) as f64 / 1e3),
    ]);
    let coverage = if total_sum > 0.0 {
        100.0 * phases_sum / total_sum
    } else {
        0.0
    };
    t.row(vec![
        "phase coverage".into(),
        "-".into(),
        format!("{coverage:.1}%"),
        "-".into(),
    ]);
    t.row(vec![
        "client rtt".into(),
        "-".into(),
        "-".into(),
        format!("{:.1} us", rtt_mean / 1e3),
    ]);
    t.row(vec![
        "requests".into(),
        completed.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "errors".into(),
        total_errors.load(Ordering::Relaxed).to_string(),
        "-".into(),
        "-".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::server_test_lock;

    #[test]
    fn phases_cover_the_server_total_with_zero_errors() {
        let _servers = server_test_lock();
        let t = run(true);
        let get = |name: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("no `{name}` row in {:?}", t.rows))
        };
        assert_eq!(get("errors")[1], "0", "{:?}", t.rows);
        let coverage: f64 = get("phase coverage")[2]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(
            coverage >= 95.0,
            "phase timeline leaves {:.1}% unaccounted: {:?}",
            100.0 - coverage,
            t.rows
        );
        // Every phase row rendered.
        for p in PHASE_NAMES {
            assert!(t.rows.iter().any(|r| r[0] == p), "missing phase {p}");
        }
    }
}
