//! E15 — wire protocol v2: what do binary framing and a poll-based
//! reader buy?
//!
//! Two tables:
//!
//! - [`run`] compares the v1 JSON dialect against the v2 binary framing
//!   on the same single-client closed loop (the RTT that a CAD tool's
//!   interactive resolution path actually feels), plus the
//!   bytes-per-request each dialect puts on the wire. The encoded sizes
//!   are computed from the framing itself, so they are deterministic;
//!   the RTTs are measured.
//! - [`run_idle`] parks a crowd of *idle* sessions (quick: 512; full:
//!   10 000) on one server and reports what they cost: OS threads
//!   (must not grow — the poll loop multiplexes every connection),
//!   resident memory, and file descriptors. This is the paper's CAD
//!   working-session shape: designers hold sessions open for hours and
//!   touch them rarely.
//!
//! Thread/RSS/fd figures come from `/proc/self`; on platforms without
//! procfs those rows render as `n/a` and the assertions are skipped.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_server::{Client, Request, Server, ServerConfig, HELLO_V2};
use serde_json::Value as Json;

use crate::table::Table;
use crate::workload::fanout_store;

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One single-client closed loop over the 90/10 mix; returns (sorted
/// per-op RTTs ns, errors).
fn rtt_loop(
    addr: std::net::SocketAddr,
    proto: u8,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    requests: u64,
) -> (Vec<u64>, u64) {
    let mut c = match Client::connect_proto(addr, proto) {
        Ok(c) => c,
        Err(_) => return (Vec::new(), requests),
    };
    if c.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return (Vec::new(), requests);
    }
    let mut lat = Vec::with_capacity(requests as usize);
    let mut errors = 0u64;
    for n in 0..requests {
        let start = Instant::now();
        let outcome = if n % 10 == 9 {
            c.set_attr(interface, "A0", Value::Int(n as i64))
        } else {
            c.attr(imps[n as usize % imps.len()], "A0").map(|_| ())
        };
        match outcome {
            Ok(()) => lat.push(start.elapsed().as_nanos() as u64),
            Err(_) => errors += 1,
        }
    }
    lat.sort_unstable();
    (lat, errors)
}

/// The encoded on-wire size of `req` under each dialect, framing
/// included: (v1 bytes, v2 bytes). Deterministic — no sockets involved.
fn wire_sizes(req: &Request) -> (u64, u64) {
    let v1 = 4 + req.to_json().to_json_string().len() as u64;
    let v2 = req
        .encode_v2()
        .map(|b| 4 + b.len() as u64)
        .unwrap_or_default();
    (v1, v2)
}

/// Run E15 (dialect comparison): single-client RTT and bytes/request,
/// v1 JSON vs v2 binary.
pub fn run(quick: bool) -> Table {
    let requests: u64 = if quick { 400 } else { 4_000 };
    let n_imps = if quick { 64 } else { 256 };

    let (st, interface, imps) = fanout_store(n_imps, 4, 4);
    let server = Server::start(
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            ..ServerConfig::default()
        },
        SharedStore::from_store(st),
    )
    .expect("server binds");
    let addr = server.local_addr();

    // Warm the resolution path once so neither dialect pays first-touch
    // compilation/caching costs.
    let (_, warm_errors) = rtt_loop(addr, 1, interface, &imps, 20);

    let (v1_lat, v1_errors) = rtt_loop(addr, 1, interface, &imps, requests);
    let (v2_lat, v2_errors) = rtt_loop(addr, 2, interface, &imps, requests);
    server.shutdown();

    // The read that dominates the mix, encoded under both dialects.
    let read_req = Request {
        id: 1,
        verb: "attr".into(),
        params: Json::Object(vec![
            ("obj".into(), Json::UInt(imps[0].0)),
            ("name".into(), Json::String("A0".into())),
        ]),
        trace: None,
    };
    let (v1_bytes, v2_bytes) = wire_sizes(&read_req);

    let mut t = Table::new(
        "E15: wire dialects — v1 JSON vs v2 binary (single client, 90/10 mix)",
        &["metric", "v1 json", "v2 binary", "v2/v1"],
    );
    let mean = |l: &[u64]| l.iter().sum::<u64>() as f64 / l.len().max(1) as f64;
    let (m1, m2) = (mean(&v1_lat), mean(&v2_lat));
    t.row(vec![
        "rtt mean".into(),
        format!("{:.1} us", m1 / 1e3),
        format!("{:.1} us", m2 / 1e3),
        format!("{:.2}x", m2 / m1.max(1.0)),
    ]);
    for (name, q) in [("rtt p50", 0.50), ("rtt p95", 0.95)] {
        let (q1, q2) = (quantile(&v1_lat, q), quantile(&v2_lat, q));
        t.row(vec![
            name.into(),
            format!("{:.1} us", q1 as f64 / 1e3),
            format!("{:.1} us", q2 as f64 / 1e3),
            format!("{:.2}x", q2 as f64 / (q1 as f64).max(1.0)),
        ]);
    }
    t.row(vec![
        "attr request bytes".into(),
        v1_bytes.to_string(),
        v2_bytes.to_string(),
        format!("{:.2}x", v2_bytes as f64 / v1_bytes as f64),
    ]);
    t.row(vec![
        "requests".into(),
        v1_lat.len().to_string(),
        v2_lat.len().to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "errors".into(),
        (v1_errors + warm_errors).to_string(),
        v2_errors.to_string(),
        "-".into(),
    ]);
    t
}

/// A field from `/proc/self/status` (`Threads`, `VmRSS` in kB), when
/// procfs is available.
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

/// Open file descriptors of this process, when procfs is available.
fn proc_fds() -> Option<u64> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count() as u64)
}

fn fmt_opt(v: Option<u64>, unit: &str) -> String {
    v.map(|v| format!("{v}{unit}"))
        .unwrap_or_else(|| "n/a".into())
}

/// Run E15 (idle-session cost): park many idle v2 sessions on one
/// server and report threads / RSS / fds. The poll-based reader means
/// the thread count must stay flat no matter how many sessions exist.
pub fn run_idle(quick: bool) -> Table {
    let requested: usize = if quick { 512 } else { 10_000 };
    // Each session costs three fds here: the client end plus, server-side,
    // the stream and its writer dup (both ends live in this process).
    // Ask for headroom first and scale down to what the OS actually
    // grants — oversubscribing would wedge `accept()` on EMFILE.
    let granted = polling::raise_nofile_limit((requested as u64) * 3 + 2_000)
        .or_else(|_| polling::nofile_limit().map(|(soft, _)| soft))
        .unwrap_or(4_096);
    let sessions = requested.min((granted.saturating_sub(2_000) / 3) as usize);

    let (st, interface, imps) = fanout_store(16, 2, 2);
    let server = Server::start(
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            // The whole point is sessions that sit idle; never reap them
            // mid-measurement.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        SharedStore::from_store(st),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let threads_before = proc_status("Threads");
    let rss_before = proc_status("VmRSS");

    // Park the crowd: connect, speak the v2 hello (its ack round-trips
    // through the event loop, so the session is fully registered), then
    // go silent.
    let mut parked: Vec<TcpStream> = Vec::with_capacity(sessions);
    let mut connect_failures = 0u64;
    for _ in 0..sessions {
        let ok = (|| -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect(addr)?;
            // Bounded wait: if the server cannot accept (e.g. out of
            // fds), count a failure instead of blocking forever.
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
                // One failure means the fd budget is gone; retrying the
                // rest would only time out one by one.
                connect_failures = (sessions - parked.len()) as u64;
                break;
            }
        }
    }

    let threads_after = proc_status("Threads");
    let rss_after = proc_status("VmRSS");
    let fds = proc_fds();

    // The server must still answer promptly with the crowd parked.
    let live_rtt = (|| -> Result<u64, String> {
        let mut c = Client::connect_proto(addr, 2).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        c.attr(imps[0], "A0").map_err(|e| e.to_string())?;
        let _ = interface;
        Ok(start.elapsed().as_nanos() as u64)
    })();

    drop(parked);
    server.shutdown();

    let mut t = Table::new(
        "E15: idle-session cost (poll-based reader, v2 sessions parked silent)",
        &["metric", "value"],
    );
    t.row(vec!["sessions requested".into(), requested.to_string()]);
    t.row(vec![
        "idle sessions".into(),
        parked_count(sessions, connect_failures),
    ]);
    t.row(vec![
        "connect failures".into(),
        connect_failures.to_string(),
    ]);
    t.row(vec!["threads before".into(), fmt_opt(threads_before, "")]);
    t.row(vec!["threads after".into(), fmt_opt(threads_after, "")]);
    let thread_delta = match (threads_before, threads_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    t.row(vec!["thread delta".into(), fmt_opt(thread_delta, "")]);
    t.row(vec!["rss before".into(), fmt_opt(rss_before, " kB")]);
    t.row(vec!["rss after".into(), fmt_opt(rss_after, " kB")]);
    let per_session = match (rss_before, rss_after) {
        (Some(b), Some(a)) if sessions > 0 => Some(a.saturating_sub(b) * 1024 / sessions as u64),
        _ => None,
    };
    t.row(vec!["rss per session".into(), fmt_opt(per_session, " B")]);
    t.row(vec!["process fds".into(), fmt_opt(fds, "")]);
    t.row(vec![
        "live rtt under crowd".into(),
        match live_rtt {
            Ok(ns) => format!("{:.1} us", ns as f64 / 1e3),
            Err(e) => format!("failed: {e}"),
        },
    ]);
    t
}

fn parked_count(requested: usize, failures: u64) -> String {
    (requested as u64 - failures.min(requested as u64)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::server_test_lock;

    #[test]
    fn v2_framing_is_smaller_and_no_errors() {
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
        let v1: u64 = get("attr request bytes")[1].parse().unwrap();
        let v2: u64 = get("attr request bytes")[2].parse().unwrap();
        assert!(
            v2 < v1,
            "binary framing must be smaller than JSON: v1={v1} v2={v2}"
        );
        // Both dialects completed the full loop.
        assert_eq!(get("requests")[1], "400");
        assert_eq!(get("requests")[2], "400");
    }

    #[test]
    fn idle_sessions_do_not_cost_threads() {
        let _servers = server_test_lock();
        let t = run_idle(true);
        let get = |name: &str| -> &str {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].as_str())
                .unwrap_or_else(|| panic!("no `{name}` row in {:?}", t.rows))
        };
        assert_eq!(get("connect failures"), "0", "{:?}", t.rows);
        assert!(get("live rtt under crowd").ends_with("us"), "{:?}", t.rows);
        // Thread-per-connection would add ~512 here; the poll loop adds
        // none. Tolerate a few threads from concurrently running tests
        // in this process.
        if get("thread delta") != "n/a" {
            let delta: u64 = get("thread delta").parse().unwrap();
            assert!(
                delta < 64,
                "idle sessions must not spawn reader threads (delta {delta}): {:?}",
                t.rows
            );
        }
    }
}
