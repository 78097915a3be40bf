//! E18 — what do the dispatch tiers buy?
//!
//! The serving layer gained three coordinated mechanisms: an epoll
//! readiness set (the kernel holds the interest set instead of the event
//! loop rescanning every registered fd), an inline fast path
//! (read-only snapshot verbs execute on the event-loop thread when the
//! admission queue is shallow — no enqueue, no worker wakeup), and
//! sharded work-stealing worker queues (targeted wakeups instead of a
//! single contended lock). Two tables quantify them against the E14/E15
//! baselines:
//!
//! - [`run`] repeats the E14 phase decomposition on the E12 90/10
//!   workload with the inline path off vs on. With it off, E14 showed the
//!   queue phase dominating (~55% of server-side time for the read-heavy
//!   mix); with it on, inline-eligible reads never enter the queue, so
//!   both the queue-phase share and the enqueue→dequeue wakeup p50 (E16's
//!   ~59 µs baseline) must fall.
//! - [`run_idle`] repeats the E15 idle-crowd scenario (quick: 512; full:
//!   6 000 parked sessions) on the platform's readiness backend and
//!   measures the *live* RTT a working client sees through the crowd.
//!   Under epoll (Linux) the kernel reports only ready fds and the crowd
//!   is nearly free; a `poll(2)` set rescans every registration on every
//!   wakeup, so there the crowd taxes every request (E15 measured
//!   ~1.6 ms).
//!
//! Histogram/counter registry entries are process-global, so all figures
//! are deltas taken around each workload leg.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_obs::flight::PHASE_NAMES;
use ccdb_obs::metrics::LATENCY_BUCKETS_NS;
use ccdb_obs::HistogramSnapshot;
use ccdb_server::{Client, Server, ServerConfig, HELLO_V2};

use crate::table::Table;
use crate::workload::fanout_store;

/// One closed-loop client over the 90/10 mix; returns (rtt sum ns,
/// completed, errors).
fn client_loop(
    addr: std::net::SocketAddr,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    requests: u64,
    seed: u64,
) -> (u64, u64, u64) {
    let mut rtt_sum = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return (0, 0, requests),
    };
    if c.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return (0, 0, requests);
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
            Err(e) if e.is_overloaded() => thread::sleep(Duration::from_millis(1)),
            Err(_) => {
                errors += 1;
                n += 1;
            }
        }
    }
    (rtt_sum, completed, errors)
}

/// Bucket-wise histogram delta (the registry entries are process-global).
fn snap_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
        count: after.count.saturating_sub(before.count),
    }
}

/// Aggregate figures for one inline-path leg of the A/B comparison.
struct Leg {
    queue_share_pct: f64,
    wakeup_p50_us: f64,
    wakeup_count: u64,
    inline_share_pct: f64,
    rtt_mean_us: f64,
    completed: u64,
    errors: u64,
}

/// Runs the E12/E14 workload against a fresh server with the inline fast
/// path toggled, and attributes where server-side time went.
fn dispatch_leg(quick: bool, inline_reads: bool) -> Leg {
    let clients = if quick { 4 } else { 8 };
    let requests_per_client: u64 = if quick { 200 } else { 2_000 };
    let n_imps = if quick { 64 } else { 256 };

    let (st, interface, imps) = fanout_store(n_imps, 4, 4);
    let server = Server::start(
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            inline_reads,
            ..ServerConfig::default()
        },
        SharedStore::from_store(st),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let r = ccdb_obs::global();
    let phase_hists: Vec<_> = PHASE_NAMES
        .iter()
        .map(|p| r.histogram(&format!("ccdb_server_phase_all_{p}_ns"), LATENCY_BUCKETS_NS))
        .collect();
    let wakeup_hist = r.histogram("ccdb_server_wakeup_latency_ns", LATENCY_BUCKETS_NS);
    let inline_ctr = r.counter("ccdb_server_inline_requests_total");
    let requests_ctr = r.counter("ccdb_server_requests_total");

    let phases_before: Vec<HistogramSnapshot> = phase_hists.iter().map(|h| h.snapshot()).collect();
    let wakeup_before = wakeup_hist.snapshot();
    let inline_before = inline_ctr.get();
    let requests_before = requests_ctr.get();

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
                let (rtt, c, e) =
                    client_loop(addr, interface, imps, requests_per_client, w as u64 * 7919);
                tr.fetch_add(rtt, Ordering::Relaxed);
                tc.fetch_add(c, Ordering::Relaxed);
                te.fetch_add(e, Ordering::Relaxed);
            });
        }
    });
    server.shutdown();

    let mut queue_sum = 0.0f64;
    let mut phases_sum = 0.0f64;
    for (p, (h, before)) in PHASE_NAMES
        .iter()
        .zip(phase_hists.iter().zip(&phases_before))
    {
        let sum = (h.snapshot().sum.saturating_sub(before.sum)) as f64;
        phases_sum += sum;
        if *p == "queue" {
            queue_sum = sum;
        }
    }
    let wakeup = snap_delta(&wakeup_before, &wakeup_hist.snapshot());
    let inline_delta = inline_ctr.get().saturating_sub(inline_before);
    let requests_delta = requests_ctr.get().saturating_sub(requests_before).max(1);
    let completed = total_completed.load(Ordering::Relaxed);

    Leg {
        queue_share_pct: if phases_sum > 0.0 {
            100.0 * queue_sum / phases_sum
        } else {
            0.0
        },
        wakeup_p50_us: wakeup.quantile(0.50).unwrap_or(0.0) / 1e3,
        wakeup_count: wakeup.count,
        inline_share_pct: 100.0 * inline_delta as f64 / requests_delta as f64,
        rtt_mean_us: rtt_sum.load(Ordering::Relaxed) as f64 / completed.max(1) as f64 / 1e3,
        completed,
        errors: total_errors.load(Ordering::Relaxed),
    }
}

/// Run E18 (inline fast path): E14's attribution question, asked with
/// the fast path off vs on.
pub fn run(quick: bool) -> Table {
    let off = dispatch_leg(quick, false);
    let on = dispatch_leg(quick, true);

    let mut t = Table::new(
        "E18: inline fast path — E14 workload with inline reads off vs on",
        &["metric", "inline off", "inline on", "note"],
    );
    t.row(vec![
        "queue phase share".into(),
        format!("{:.1}%", off.queue_share_pct),
        format!("{:.1}%", on.queue_share_pct),
        "of summed server-side phase time".into(),
    ]);
    t.row(vec![
        "wakeup p50".into(),
        format!("{:.1} us", off.wakeup_p50_us),
        format!("{:.1} us", on.wakeup_p50_us),
        "enqueue→dequeue, E16 baseline ~59 us".into(),
    ]);
    t.row(vec![
        "queued dequeues".into(),
        off.wakeup_count.to_string(),
        on.wakeup_count.to_string(),
        "requests that took the worker hop".into(),
    ]);
    t.row(vec![
        "inline share".into(),
        format!("{:.1}%", off.inline_share_pct),
        format!("{:.1}%", on.inline_share_pct),
        "of all requests, served on the event loop".into(),
    ]);
    t.row(vec![
        "client rtt mean".into(),
        format!("{:.1} us", off.rtt_mean_us),
        format!("{:.1} us", on.rtt_mean_us),
        "closed loop, 90/10 mix".into(),
    ]);
    t.row(vec![
        "requests".into(),
        off.completed.to_string(),
        on.completed.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "errors".into(),
        off.errors.to_string(),
        on.errors.to_string(),
        "-".into(),
    ]);
    t
}

fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Figures for the idle-crowd leg.
struct CrowdLeg {
    backend: &'static str,
    parked: usize,
    connect_failures: u64,
    rtt_p50_us: f64,
    rtt_p95_us: f64,
    errors: u64,
}

/// Parks an idle crowd on a server and measures the live RTT a working
/// client sees through it.
fn crowd_leg(sessions: usize, live_requests: u64) -> CrowdLeg {
    let (st, _interface, imps) = fanout_store(16, 2, 2);
    let server = Server::start(
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            // Idle sessions must survive the whole measurement.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        SharedStore::from_store(st),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let mut parked: Vec<TcpStream> = Vec::with_capacity(sessions);
    let mut connect_failures = 0u64;
    for _ in 0..sessions {
        let ok = (|| -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(&HELLO_V2)?;
            let mut ack = [0u8; 4];
            s.read_exact(&mut ack)?;
            s.set_read_timeout(None)?;
            Ok(s)
        })();
        match ok {
            Ok(s) => parked.push(s),
            Err(_) => {
                connect_failures = (sessions - parked.len()) as u64;
                break;
            }
        }
    }

    // The live client: plain resolved reads, every one of them competing
    // with the crowd for the event loop's attention.
    let mut lat: Vec<u64> = Vec::with_capacity(live_requests as usize);
    let mut errors = 0u64;
    match Client::connect_proto(addr, 2) {
        Ok(mut c) => {
            if c.set_read_timeout(Some(Duration::from_secs(30))).is_ok() {
                for n in 0..live_requests {
                    let start = Instant::now();
                    match c.attr(imps[n as usize % imps.len()], "A0") {
                        Ok(_) => lat.push(start.elapsed().as_nanos() as u64),
                        Err(_) => errors += 1,
                    }
                }
            } else {
                errors = live_requests;
            }
        }
        Err(_) => errors = live_requests,
    }
    lat.sort_unstable();

    let leg = CrowdLeg {
        backend: server.backend(),
        parked: parked.len(),
        connect_failures,
        rtt_p50_us: quantile_ns(&lat, 0.50) as f64 / 1e3,
        rtt_p95_us: quantile_ns(&lat, 0.95) as f64 / 1e3,
        errors,
    };
    drop(parked);
    server.shutdown();
    leg
}

/// Run E18 (idle crowd): E15's crowd scenario on the platform backend.
pub fn run_idle(quick: bool) -> Table {
    let requested: usize = if quick { 512 } else { 6_000 };
    let live_requests: u64 = if quick { 200 } else { 2_000 };
    // Scale the crowd to the fd budget the OS actually grants (three fds
    // per session: client end + server stream and its writer dup).
    let granted = polling::raise_nofile_limit((requested as u64) * 3 + 2_000)
        .or_else(|_| polling::nofile_limit().map(|(soft, _)| soft))
        .unwrap_or(4_096);
    let sessions = requested.min((granted.saturating_sub(2_000) / 3) as usize);

    let leg = crowd_leg(sessions, live_requests);

    let mut t = Table::new(
        "E18: live RTT under an idle connection crowd",
        &[
            "backend",
            "idle sessions",
            "live rtt p50",
            "live rtt p95",
            "errors",
        ],
    );
    t.row(vec![
        leg.backend.into(),
        format!("{} ({} failures)", leg.parked, leg.connect_failures),
        format!("{:.1} us", leg.rtt_p50_us),
        format!("{:.1} us", leg.rtt_p95_us),
        leg.errors.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::server_test_lock;

    #[test]
    fn inline_path_moves_reads_out_of_the_queue() {
        let _servers = server_test_lock();
        let t = run(true);
        let get = |name: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("no `{name}` row in {:?}", t.rows))
        };
        assert_eq!(get("errors")[1], "0", "{:?}", t.rows);
        assert_eq!(get("errors")[2], "0", "{:?}", t.rows);
        let share_off: f64 = get("inline share")[1]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        let share_on: f64 = get("inline share")[2]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(
            share_off < 1.0,
            "inline-off leg must not inline anything: {share_off}%"
        );
        // 90% of the mix is inline-eligible reads; with four closed-loop
        // clients against four workers the queue occasionally deepens
        // past the inline gate, so demand well over half rather than the
        // full 90%.
        assert!(
            share_on > 50.0,
            "inline-on leg served too little inline: {share_on}% ({:?})",
            t.rows
        );
        // Fewer requests take the worker hop, so fewer dequeues.
        let dq_off: u64 = get("queued dequeues")[1].parse().unwrap();
        let dq_on: u64 = get("queued dequeues")[2].parse().unwrap();
        assert!(
            dq_on < dq_off,
            "inline path must shrink the queued population: off={dq_off} on={dq_on}"
        );
    }

    /// Full-scale run for EXPERIMENTS.md numbers:
    /// `cargo test --release -p ccdb-bench --lib e18 -- --ignored --nocapture`
    #[test]
    #[ignore = "full-scale measurement; run in release mode on a quiet machine"]
    fn print_full_tables() {
        println!("{}", run(false).render());
        println!("{}", run_idle(false).render());
    }

    #[test]
    fn platform_backend_answers_through_the_crowd() {
        let _servers = server_test_lock();
        let t = run_idle(true);
        assert_eq!(t.rows.len(), 1, "{:?}", t.rows);
        let row = &t.rows[0];
        assert_eq!(row[0], polling::Poller::NAME, "{row:?}");
        assert_eq!(row[4], "0", "live client saw errors: {row:?}");
        assert!(row[2].ends_with("us"), "{row:?}");
    }
}
