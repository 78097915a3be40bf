//! The TCP server: one event loop + worker pool, with an inline fast path
//! for read-only snapshot verbs.
//!
//! ```text
//!            accept / readiness              sharded queues (1/worker)
//!  clients ──────────────▶ event loop (1 thread) ─────▶ workers (N)
//!                │  Poller over listener + conns         │ steal-on-empty
//!                │  framing, negotiation, admission      ▼
//!                │  + inline reads on a pinned   SharedStore (MVCC:
//!                ▼    MVCC snapshot               readers pin snapshots,
//!          per-conn session state                 writers publish)
//!          + outbound buffer (workers and
//!            the loop append frames; flushed
//!            nonblockingly, drained on POLLOUT)
//! ```
//!
//! Connections used to get a pinned reader thread each; thousands of
//! mostly-idle CAD sessions (the paper's designers parked at
//! workstations) made that the dominant cost — a thread's stack and a
//! context switch per frame for connections that talk once a minute. The
//! event loop registers every connection in one [`polling::Poller`]
//! instead (epoll on Linux, `poll(2)` elsewhere — the platform picks): an
//! idle session costs one fd and ~a hundred bytes of buffer, a wakeup
//! costs O(ready fds), and the thread count is `1 + workers` no matter how
//! many clients are parked.
//!
//! Production-shaping behaviors, in one place:
//!
//! - **Protocol negotiation**: a v2 client leads with the raw
//!   [`HELLO_V2`] magic and gets it echoed back; anything else is a v1
//!   length prefix and the connection stays JSON. A server pinned to v1
//!   (`max_proto = 1`) refuses the hello with a clean v1 `protocol`
//!   error.
//! - **Admission control**: parsed requests go into a [`ShardedQueue`]
//!   (one bounded FIFO per worker, global cap, work stealing); at
//!   capacity the request is answered `Overloaded` immediately — offered
//!   load beyond capacity costs one response, never unbounded memory.
//! - **Inline fast path**: read-only snapshot verbs (`ping`, `attr`,
//!   `select`, `effective`, `check_all`, `stats`, `metrics`,
//!   `telemetry`; the inline column of the verb table) execute directly
//!   on the event-loop thread against a pinned MVCC snapshot when the
//!   queue is shallow — no enqueue, no worker wakeup. Write verbs, txn
//!   verbs, batches, `flight` (it waits for pending flight records), and
//!   in-transaction sessions always go to workers, and a per-iteration
//!   time budget falls back to the queue under load so the loop cannot
//!   starve its readiness duties.
//! - **Idle timeouts**: the event loop sweeps connection deadlines every
//!   100 ms; a connection that sends nothing for the window is
//!   closed (counted in `ccdb_server_idle_closed_total`). `WouldBlock`
//!   on these nonblocking sockets means "no data yet", never "idle" —
//!   see [`FrameError::is_would_block`].
//! - **Stalled writers**: no thread ever blocks writing to a client.
//!   Responses are appended to a per-session [`OutBuf`] and flushed as
//!   far as the kernel allows; residual bytes drain on `POLLOUT`
//!   readiness. A peer that stops reading its socket is killed once its
//!   backlog outlives the stall window or exceeds the backlog cap
//!   (counted in `ccdb_server_write_stalled_closed_total`) — it can never
//!   stall the event loop, a worker, or any other connection.
//! - **Malformed-frame hardening**: oversized length prefixes are refused
//!   before any allocation, truncated frames and bad JSON/bval/versions
//!   are counted and answered (or the connection dropped) without
//!   panicking.
//! - **Panic isolation**: a handler panic is caught in the worker,
//!   answered as an `internal` error, and the worker keeps serving.
//! - **Graceful shutdown**: draining stops the event loop (no new reads),
//!   lets queued requests finish and their responses flush through the
//!   sessions' write halves, then unblocks and joins every thread.
//!
//! [`HELLO_V2`]: crate::proto::HELLO_V2
//! [`FrameError::is_would_block`]: crate::proto::FrameError::is_would_block

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ccdb_core::lockprobe;
use ccdb_core::schema::Catalog;
use ccdb_core::shared::SharedStore;
use ccdb_obs::flight::FlightRecord;
use ccdb_obs::timeseries::{self, SeriesDelta, TelemetryFrame};
use ccdb_obs::TraceId;
use ccdb_txn::TxnRegistry;
use serde_json::Value as Json;

use crate::handler::{handle_verb, series_patterns, sleeps, ServerContext};
use crate::metrics::server_metrics;
use crate::proto::{
    encode_response_v2, err_response, ok_response, ErrorKind, Request, Verb, HELLO_V2,
    MAX_FRAME_BYTES, PROTOCOL_V2,
};
use crate::queue::{PushError, QueueObservers, ShardedQueue};

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the CLI exposes the production-relevant ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests against the store.
    pub workers: usize,
    /// Bounded request-queue capacity (admission control).
    pub queue_depth: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame_bytes: usize,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Kill connections whose peer has not drained buffered response
    /// bytes for this long (a client that stopped reading its socket).
    pub write_stall_timeout: Duration,
    /// Enable test-only verbs (`boom`); never set in production.
    pub debug_verbs: bool,
    /// Highest wire protocol the server will negotiate: `2` (default)
    /// accepts both dialects, `1` pins the server to v1 JSON and refuses
    /// the v2 hello with a `protocol` error.
    pub max_proto: u8,
    /// Telemetry sampler interval in ms (`0` disables the sampler and the
    /// `watch` verb). The sampler is process-global; the first server to
    /// start it fixes the cadence for the process lifetime.
    pub sample_interval_ms: u64,
    /// Telemetry ring retention, in samples per series.
    pub sample_retention: usize,
    /// How long a wire transaction waits for a contended §6 item lock
    /// before its acquire fails with `conflict` (and the transaction is
    /// aborted).
    pub txn_lock_timeout: Duration,
    /// Kernel send-buffer size (`SO_SNDBUF`) requested for accepted
    /// sockets; `None` leaves the OS auto-tuned default. Auto-tuned
    /// loopback buffers run to megabytes, so a peer that stops reading
    /// can absorb minutes of output before the write-stall machinery
    /// even sees queued bytes — tests (and memory-tight deployments)
    /// clamp this to make backpressure visible quickly.
    pub send_buffer_bytes: Option<usize>,
    /// Whether the event loop may execute read-only snapshot verbs
    /// inline (see module docs). On by default; the dispatch experiment
    /// turns it off to measure the queue hop it removes.
    pub inline_reads: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(30),
            write_stall_timeout: WRITE_STALL_TIMEOUT,
            debug_verbs: false,
            max_proto: PROTOCOL_V2,
            sample_interval_ms: timeseries::DEFAULT_INTERVAL_MS,
            sample_retention: timeseries::DEFAULT_RETENTION,
            txn_lock_timeout: Duration::from_secs(5),
            send_buffer_bytes: None,
            inline_reads: true,
        }
    }
}

/// Per-connection session state (the paper's "designer at a workstation").
struct Session {
    id: u64,
    peer: String,
    /// Negotiated wire protocol (1 until a v2 hello upgrades it).
    proto: AtomicU8,
    /// Outbound write half. Workers and the event loop append whole
    /// frames under the lock and flush them without ever blocking; see
    /// [`OutBuf`] for the stall/desync story.
    out: Mutex<OutBuf>,
    /// Lock-free mirror of "`out.pending` is non-empty": the event loop
    /// reads it each iteration to decide `POLLOUT` interest without
    /// touching every connection's mutex.
    has_pending: AtomicBool,
    /// Write end of the event loop's wake channel; a byte is nudged in
    /// when a flush first leaves residual bytes so the loop registers
    /// `POLLOUT` now instead of at its next wait timeout.
    wake: Arc<TcpStream>,
    /// Cap on buffered-but-unsent response bytes; a backlog beyond it
    /// means the peer stopped draining and the connection is killed.
    out_cap: usize,
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Responses already sent on this session whose flight records are
    /// not yet in the recorder (a request is recorded just after its
    /// response goes out, so its write phase is measured).
    unrecorded: AtomicU64,
    started: Instant,
}

/// The outbound half of a connection.
///
/// Every write — worker responses and the event loop's inline errors and
/// acks alike — appends whole frames here and then flushes as far as the
/// kernel will take without blocking. Residual bytes stay queued (a frame
/// is never abandoned mid-write, so the length-prefixed stream cannot
/// desync) and are pushed out by the event loop on `POLLOUT` readiness.
/// Nothing ever parks on this socket: a peer that stops draining is
/// caught by the stall deadline or the backlog cap and the socket is shut
/// down, which the event loop observes as readiness and reaps.
struct OutBuf {
    stream: TcpStream,
    /// Bytes accepted but not yet written to the kernel.
    pending: Vec<u8>,
    /// When `pending` last became non-empty — origin of the stall
    /// deadline. `None` whenever the buffer is drained.
    stalled_since: Option<Instant>,
    /// A write failed or the stall budget ran out: the socket has been
    /// shut down and every later send is dropped.
    dead: bool,
}

impl OutBuf {
    /// Writes as much of `pending` as the kernel will take right now.
    /// Never blocks; `WouldBlock` leaves the rest queued.
    fn flush(&mut self) {
        while !self.pending.is_empty() && !self.dead {
            match self.stream.write(&self.pending) {
                Ok(0) => return self.kill(),
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.kill(),
            }
        }
        if self.pending.is_empty() && !self.dead {
            self.stalled_since = None;
            if self.pending.capacity() > BUF_RETAIN_CAP {
                self.pending = Vec::new();
            }
            let _ = self.stream.flush();
        }
    }

    /// Declares the write half unusable and forces the socket closed, so
    /// the event loop reaps the connection via readiness (EOF/`POLLERR`)
    /// instead of anyone ever writing onto a desynced stream.
    fn kill(&mut self) {
        self.dead = true;
        self.pending = Vec::new();
        self.stalled_since = None;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Session {
    fn proto(&self) -> u8 {
        self.proto.load(Ordering::Relaxed)
    }

    /// Waits until every response already sent on this session has its
    /// flight record in the recorder, so a client that reads a reply and
    /// then asks for `flight` finds that request. The wait covers a
    /// worker's few steps between its send and its record; the deadline
    /// only keeps a stuck worker from holding the caller.
    fn await_flight_records(&self) {
        let deadline = Instant::now() + Duration::from_millis(100);
        while self.unrecorded.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    fn info_json(&self) -> Json {
        Json::Object(vec![
            ("session".into(), Json::UInt(self.id)),
            ("peer".into(), Json::String(self.peer.clone())),
            ("proto".into(), Json::UInt(self.proto() as u64)),
            (
                "requests".into(),
                Json::UInt(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "bytes_in".into(),
                Json::UInt(self.bytes_in.load(Ordering::Relaxed)),
            ),
            (
                "bytes_out".into(),
                Json::UInt(self.bytes_out.load(Ordering::Relaxed)),
            ),
            (
                "uptime_ms".into(),
                Json::UInt(self.started.elapsed().as_millis() as u64),
            ),
        ])
    }

    /// Serializes a response envelope in this session's negotiated
    /// dialect: v1 compact JSON or a v2 binary frame payload.
    fn encode(&self, response: &Json) -> Vec<u8> {
        if self.proto() == PROTOCOL_V2 {
            encode_response_v2(response)
        } else {
            response.to_json_string().into_bytes()
        }
    }

    /// Writes one response frame (serialized, byte-counted). Write errors
    /// are swallowed: the peer may have gone away, which is its problem.
    fn send(&self, response: &Json) {
        self.send_bytes(&self.encode(response));
    }

    /// Writes one already-serialized response frame. Split from [`send`]
    /// so the worker can time serialization and the socket write as
    /// separate phases.
    fn send_bytes(&self, payload: &[u8]) {
        let mut frame = Vec::with_capacity(4 + payload.len());
        if crate::proto::append_frame(&mut frame, payload).is_err() {
            return;
        }
        if self.enqueue_raw(&frame) {
            self.bytes_out
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            server_metrics().bytes_out.add(payload.len() as u64);
        }
    }

    /// Queues `bytes` on the write half and flushes what the kernel will
    /// take, never blocking. Returns `false` when the write half is (or
    /// just became) dead — the bytes were dropped.
    fn enqueue_raw(&self, bytes: &[u8]) -> bool {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if o.dead {
            return false;
        }
        if o.pending.len() > self.out_cap {
            // The peer stopped draining and the backlog hit the cap:
            // buffering more is unbounded memory, not kindness. This is
            // the same failure the timed stall sweep hunts — count it
            // there (the sweep can't: `kill` clears `pending`, so by the
            // time it looks this connection is indistinguishable from an
            // idle one).
            o.kill();
            self.has_pending.store(false, Ordering::Release);
            server_metrics().write_stalled_closed.inc();
            return false;
        }
        o.pending.extend_from_slice(bytes);
        o.flush();
        self.note_flush_state(&mut o)
    }

    /// Flushes any buffered output (event loop, on `POLLOUT` readiness or
    /// a wake). Returns `false` when the write half is dead.
    fn flush_pending(&self) -> bool {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.flush();
        self.note_flush_state(&mut o)
    }

    /// Post-flush bookkeeping shared by every flush site: keeps the
    /// lock-free `has_pending` mirror in sync (all updates happen under
    /// the `out` lock), arms the stall deadline, and nudges the event
    /// loop's wake channel on the empty→non-empty transition.
    fn note_flush_state(&self, o: &mut OutBuf) -> bool {
        if o.dead {
            self.has_pending.store(false, Ordering::Release);
            return false;
        }
        if o.pending.is_empty() {
            self.has_pending.store(false, Ordering::Release);
        } else {
            if o.stalled_since.is_none() {
                o.stalled_since = Some(Instant::now());
            }
            if !self.has_pending.swap(true, Ordering::AcqRel) {
                let _ = (&*self.wake).write(&[1]);
            }
        }
        true
    }

    /// How long the oldest buffered response byte has waited on a peer
    /// that is not draining its socket, if any wait is in progress.
    fn stalled_for(&self) -> Option<Duration> {
        let o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.stalled_since.map(|t| t.elapsed())
    }

    /// Whether the write half has been killed (stall/backlog/error). The
    /// streamer uses this to drop subscriptions to reaped connections.
    fn is_dead(&self) -> bool {
        self.out.lock().unwrap_or_else(|p| p.into_inner()).dead
    }

    /// Drain-path flush: parks on `POLLOUT` (bounded by `budget`) so
    /// in-flight responses reach slow-but-live clients. Only called from
    /// shutdown, after the event loop has exited — nothing else may block
    /// on a client.
    fn flush_blocking(&self, budget: Duration) {
        let deadline = Instant::now() + budget;
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            o.flush();
            if o.dead || o.pending.is_empty() {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            match polling::wait_writable(o.stream.as_raw_fd(), left.as_millis() as i32 + 1) {
                Ok(true) => {}
                Ok(false) | Err(_) => return,
            }
        }
    }

    /// Shuts the socket down (both halves), dropping anything still
    /// buffered. Late writes from workers holding the `Arc` just die.
    fn close(&self) {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.kill();
        self.has_pending.store(false, Ordering::Release);
    }
}

/// How long buffered response bytes may sit undrained (the peer is not
/// reading its socket) before the connection is declared stalled and
/// killed. Also the total budget shutdown spends flushing stragglers.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Outbound backlog cap, as a multiple of the frame-size cap.
const OUT_CAP_FRAMES: usize = 4;

/// Retained-capacity ceiling for drained per-connection buffers: an
/// allocation that outgrew this during a burst is freed once empty, so an
/// idle session goes back to costing ~nothing instead of pinning the
/// largest frame it ever saw.
const BUF_RETAIN_CAP: usize = 8 * 1024;

/// Default `watch` frame interval when the subscriber names none.
const WATCH_DEFAULT_INTERVAL_MS: u64 = 500;

/// Fastest frame interval a subscriber may request.
const WATCH_MIN_INTERVAL_MS: u64 = 20;

/// Slowest frame interval a subscriber may request.
const WATCH_MAX_INTERVAL_MS: u64 = 60_000;

/// Streamer scheduling granularity: how often due subscriptions are
/// checked. Bounds how late a frame can be, and how long shutdown waits
/// for the streamer to notice the drain flag.
const WATCH_TICK: Duration = Duration::from_millis(25);

/// One live `watch` subscription. Owned by the streamer thread's map;
/// frames ride the session's ordinary outbound buffer, so backpressure
/// (backlog cap, stall kill) is exactly the request-path machinery.
struct WatchSub {
    session: Arc<Session>,
    /// The `watch` request's id — every streamed frame echoes it, so a
    /// pipelining client can tell frames from its own request/response
    /// traffic.
    request_id: u64,
    interval: Duration,
    patterns: Vec<String>,
    /// Ring tick already reported; the next frame covers `(last_tick, now]`.
    last_tick: u64,
    seq: u64,
    next_due: Instant,
}

/// A unit of admitted work: request + the session to answer, plus the
/// phase timings the event loop already banked for it.
struct Job {
    request: Request,
    /// The request's verb, resolved once per frame; `None` when unknown.
    verb: Option<Verb>,
    session: Arc<Session>,
    admitted: Instant,
    /// When the frame's first byte arrived — origin of the phase timeline.
    first_byte: Instant,
    /// First byte to complete frame, ns.
    recv_ns: u64,
    /// JSON/bval parse + envelope validation, ns.
    parse_ns: u64,
}

struct Inner {
    cfg: ServerConfig,
    store: SharedStore,
    catalog: Catalog,
    ctx: ServerContext,
    queue: ShardedQueue<Job>,
    /// Nanoseconds of inline handler execution this event-loop iteration
    /// (reset by the loop each wakeup); the fast path's starvation guard.
    inline_spent_ns: AtomicU64,
    draining: AtomicBool,
    drain_cv: (Mutex<bool>, Condvar),
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Live `watch` subscriptions, keyed by session id (one per session;
    /// a re-`watch` replaces the previous subscription).
    watchers: Mutex<HashMap<u64, WatchSub>>,
    /// Per-session wire transactions (`begin`/`commit`/`abort`), keyed by
    /// session id. Sessions that disconnect mid-transaction are aborted in
    /// `close_conn` so their §6 inherited locks never outlive the socket.
    txns: TxnRegistry,
    next_session: AtomicU64,
    local_addr: SocketAddr,
}

impl Inner {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the server into draining mode and wakes the event loop.
    fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        let (lock, cv) = &self.drain_cv;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        // Make the listener readable so the event loop's wait returns.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A handle that can trigger shutdown from any thread (used by the CLI's
/// signalless smoke flow: a client sends the `shutdown` verb).
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Starts draining; returns immediately.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// threads until process exit; call `shutdown` (or `run_until_shutdown`)
/// for a clean stop.
pub struct Server {
    inner: Arc<Inner>,
    event_loop: Option<JoinHandle<()>>,
    streamer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the event loop and worker pool, and returns
    /// immediately.
    pub fn start(cfg: ServerConfig, store: SharedStore) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = wake_pair()?;
        let poller = polling::Poller::new()?;
        poller.add(listener.as_raw_fd(), polling::POLLIN, TOKEN_LISTENER)?;
        poller.add(wake_rx.as_raw_fd(), polling::POLLIN, TOKEN_WAKE)?;
        let catalog = store.read(|st| st.catalog().clone());
        let workers_n = cfg.workers.max(1);
        let ctx = ServerContext {
            started: Instant::now(),
            workers: workers_n,
            queue_depth: cfg.queue_depth,
            rescache_shards: store.read(|st| st.resolution_cache_shards()),
            max_proto: cfg.max_proto,
            inline_reads: cfg.inline_reads,
            debug_verbs: cfg.debug_verbs,
        };
        let txns = TxnRegistry::with_timeout(cfg.txn_lock_timeout);
        let registry = ccdb_obs::global();
        let m = server_metrics();
        let inner = Arc::new(Inner {
            queue: ShardedQueue::with_observers(
                workers_n,
                cfg.queue_depth,
                QueueObservers {
                    wakeup: Some(Arc::clone(&m.wakeup_latency)),
                    wakeup_per_shard: (0..workers_n)
                        .map(|i| {
                            registry.histogram(
                                &format!("ccdb_server_shard{i}_wakeup_latency_ns"),
                                ccdb_obs::metrics::LATENCY_BUCKETS_NS,
                            )
                        })
                        .collect(),
                    steals: Some(Arc::clone(&m.steals)),
                    steals_per_worker: (0..workers_n)
                        .map(|i| registry.counter(&format!("ccdb_server_worker{i}_steals_total")))
                        .collect(),
                },
            ),
            inline_spent_ns: AtomicU64::new(0),
            cfg,
            store,
            catalog,
            ctx,
            draining: AtomicBool::new(false),
            drain_cv: (Mutex::new(false), Condvar::new()),
            sessions: Mutex::new(HashMap::new()),
            watchers: Mutex::new(HashMap::new()),
            txns,
            next_session: AtomicU64::new(1),
            local_addr,
        });

        if inner.cfg.sample_interval_ms > 0 {
            timeseries::start_global_sampler(
                inner.cfg.sample_interval_ms,
                inner.cfg.sample_retention,
            );
        }
        let workers = (0..inner.cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();
        let streamer = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || streamer_loop(&inner))
        };
        let event_loop = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || EventLoop::new(listener, inner, wake_tx, wake_rx, poller).run())
        };
        Ok(Server {
            inner,
            event_loop: Some(event_loop),
            streamer: Some(streamer),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The readiness syscall the event loop runs on (`"epoll"` on Linux,
    /// `"poll"` elsewhere).
    pub fn backend(&self) -> &'static str {
        polling::Poller::NAME
    }

    /// A cloneable shutdown trigger.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Blocks until some client/handle triggers shutdown, then drains and
    /// joins everything. This is what `ccdb serve` sits in.
    pub fn run_until_shutdown(mut self) {
        {
            let (lock, cv) = &self.inner.drain_cv;
            let mut fired = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*fired {
                fired = cv.wait(fired).unwrap_or_else(|p| p.into_inner());
            }
        }
        self.drain_and_join();
    }

    /// Triggers shutdown and performs the full drain (see module docs).
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        // 1. Event loop exits (woken by begin_shutdown's self-connect):
        //    no more reads are admitted, but sessions and their write
        //    halves stay alive for in-flight responses.
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // The streamer polls the drain flag every tick; join it and drop
        // its subscriptions so no telemetry frame races the final flush.
        if let Some(h) = self.streamer.take() {
            let _ = h.join();
        }
        {
            let mut w = self
                .inner
                .watchers
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            server_metrics().watch_subscribers.add(-(w.len() as i64));
            w.clear();
        }
        // 2. Stop admission; queued jobs still drain. Workers run each
        //    remaining job, write its response, then exit.
        self.inner.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 3. Every response is written or buffered; flush stragglers to
        //    slow-but-live clients (one shared budget — healthy sockets
        //    cost nothing), then shut the sockets so clients see EOF
        //    instead of a hang.
        let sessions: Vec<Arc<Session>> = {
            let mut map = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            map.drain().map(|(_, s)| s).collect()
        };
        let m = server_metrics();
        let deadline = Instant::now() + WRITE_STALL_TIMEOUT;
        for s in sessions {
            // Uncommitted wire transactions die with the server: abort so
            // their locks are accounted for (mirrors close_conn).
            self.inner.txns.abort_if_any(s.id);
            release_session_gauges(m, s.proto());
            s.flush_blocking(deadline.saturating_duration_since(Instant::now()));
            s.close();
        }
    }
}

/// A connected loopback socket pair used as the event loop's wake channel
/// (a std-only stand-in for a self-pipe): sessions write a byte to the
/// `tx` end when a flush leaves residual output, the loop polls `rx`.
fn wake_pair() -> io::Result<(Arc<TcpStream>, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, peer) = listener.accept()?;
    if peer != tx.local_addr()? {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "wake pair hijacked by a foreign connection",
        ));
    }
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((Arc::new(tx), rx))
}

fn release_session_gauges(m: &crate::metrics::ServerMetrics, proto: u8) {
    m.sessions_active.add(-1);
    match proto {
        p if p == PROTOCOL_V2 => m.sessions_v2.add(-1),
        _ => m.sessions_v1.add(-1),
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// What dialect a connection's bytes are in right now.
enum ConnMode {
    /// No bytes seen yet: the first byte decides (0xCC ⇒ v2 hello,
    /// anything else ⇒ a v1 length prefix).
    Negotiating,
    /// v1 JSON frames.
    V1,
    /// v2 binary frames (hello exchanged).
    V2,
}

/// Per-connection event-loop state. Cheap on purpose: an idle session is
/// this struct + an empty `Vec` + one poller registration.
struct Conn {
    stream: TcpStream,
    session: Arc<Session>,
    mode: ConnMode,
    /// Received-but-unconsumed bytes (partial frames across reads).
    buf: Vec<u8>,
    /// When the first byte of the frame currently being accumulated
    /// arrived; `None` while the buffer is empty (idle between frames).
    frame_start: Option<Instant>,
    last_activity: Instant,
    /// Lame-duck: no more reads; close as soon as buffered output (a
    /// final error response, typically) is flushed or the stall deadline
    /// passes.
    closing: bool,
    /// Event mask currently registered with the poller.
    interest: i16,
}

/// Result of servicing one connection's readiness.
enum ConnAfter {
    Keep,
    Close,
    /// Close, but only after any buffered output (the error response just
    /// queued) has reached the kernel — never block to get it there.
    CloseAfterFlush,
}

struct EventLoop {
    listener: TcpListener,
    inner: Arc<Inner>,
    conns: HashMap<u64, Conn>,
    scratch: Box<[u8; 64 * 1024]>,
    /// Read end of the wake channel; see [`wake_pair`].
    wake_rx: TcpStream,
    /// Write end, cloned into every session.
    wake_tx: Arc<TcpStream>,
    /// Readiness set holding the listener, the wake channel and every
    /// connection.
    poller: polling::Poller,
}

/// Poller token for the listener socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token for the wake channel's read end.
const TOKEN_WAKE: u64 = 1;
/// Connection tokens are `session id + TOKEN_CONN_BASE`.
const TOKEN_CONN_BASE: u64 = 2;

/// How often the event loop runs its idle/stall deadline sweep (and the
/// upper bound on its wait timeout). An O(connections) sweep per request
/// would give back the O(ready) wakeup, so deadlines are checked on this
/// cadence instead (timeouts are seconds-scale; 100 ms of slack is noise).
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

impl EventLoop {
    fn new(
        listener: TcpListener,
        inner: Arc<Inner>,
        wake_tx: Arc<TcpStream>,
        wake_rx: TcpStream,
        poller: polling::Poller,
    ) -> EventLoop {
        EventLoop {
            listener,
            inner,
            conns: HashMap::new(),
            scratch: Box::new([0u8; 64 * 1024]),
            wake_rx,
            wake_tx,
            poller,
        }
    }

    /// Serves until drain. Only ready registrations come back from a
    /// wait, so a wakeup costs O(ready fds) however many idle sessions
    /// are parked; deadline sweeps (the only per-connection work left)
    /// run on [`SWEEP_INTERVAL`].
    fn run(mut self) {
        let m = server_metrics();
        let mut events: Vec<polling::Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.inner.draining() {
                // Leave sessions registered: workers may still be
                // flushing responses; drain_and_join tears them down.
                return;
            }
            m.eventloop_iterations.inc();
            self.inner.inline_spent_ns.store(0, Ordering::Relaxed);
            let timeout_ms = SWEEP_INTERVAL
                .saturating_sub(last_sweep.elapsed())
                .as_millis() as i32
                + 1;
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                // The wait itself failing is not a per-conn condition;
                // back off briefly rather than spin.
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            if self.inner.draining() {
                return;
            }
            let mut wake_fired = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => wake_fired = true,
                    token => {
                        let id = token - TOKEN_CONN_BASE;
                        if ev.ready(polling::POLLIN) || ev.failed() {
                            let after = match self.conns.get_mut(&id) {
                                Some(conn) if !conn.closing => {
                                    service_conn(&self.inner, conn, &mut self.scratch[..])
                                }
                                _ => continue,
                            };
                            match after {
                                ConnAfter::Keep => {}
                                ConnAfter::Close => {
                                    self.close_conn(id);
                                    continue;
                                }
                                ConnAfter::CloseAfterFlush => {
                                    self.begin_close(id);
                                    continue;
                                }
                            }
                        }
                        self.flush_and_sync(id);
                    }
                }
            }
            if wake_fired {
                // A session's outbound buffer went empty→non-empty (a
                // worker response didn't fully flush): find the owing
                // sessions and register POLLOUT for them. Wakes only
                // happen on that transition, so this scan is off the
                // per-request path.
                self.drain_wake();
                let pending_ids: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.closing || c.session.has_pending.load(Ordering::Acquire))
                    .map(|(id, _)| *id)
                    .collect();
                for id in pending_ids {
                    self.flush_and_sync(id);
                }
            }
            if last_sweep.elapsed() >= SWEEP_INTERVAL {
                last_sweep = Instant::now();
                self.sweep_deadlines();
            }
        }
    }

    /// Flushes a connection that may owe bytes, closes it if its write
    /// half died (or a lame-duck drain finished), and re-syncs its
    /// interest mask.
    fn flush_and_sync(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if conn.closing || conn.session.has_pending.load(Ordering::Acquire) {
            let alive = conn.session.flush_pending();
            let drained = !conn.session.has_pending.load(Ordering::Acquire);
            if !alive || (conn.closing && drained) {
                self.close_conn(id);
                return;
            }
        }
        self.sync_interest(id);
    }

    /// Reconciles a connection's registered event mask with what it needs
    /// now (`POLLIN` unless lame-duck, `POLLOUT` while output is
    /// buffered). One `modify` only when the mask actually changed.
    fn sync_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut want = if conn.closing { 0 } else { polling::POLLIN };
        if conn.session.has_pending.load(Ordering::Acquire) {
            want |= polling::POLLOUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), want, TOKEN_CONN_BASE + id)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Sweeps connection deadlines, driven by the clock alone
    /// (WouldBlock never gets a connection here): silence beyond the
    /// idle window, or buffered output the peer has not drained within
    /// the stall window (it stopped reading its socket).
    fn sweep_deadlines(&mut self) {
        let m = server_metrics();
        let idle = self.inner.cfg.idle_timeout;
        let stall = self.inner.cfg.write_stall_timeout;
        let dead_ids: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(id, c)| {
                let stalled = c.session.has_pending.load(Ordering::Acquire)
                    && matches!(c.session.stalled_for(), Some(d) if d >= stall);
                if stalled {
                    Some((*id, true))
                } else if c.last_activity.elapsed() >= idle {
                    Some((*id, false))
                } else {
                    None
                }
            })
            .collect();
        for (id, stalled) in dead_ids {
            if stalled {
                m.write_stalled_closed.inc();
            } else {
                m.idle_closed.inc();
            }
            self.close_conn(id);
        }
    }

    /// Empties the wake channel; the actual work happens in the flush
    /// pass, keyed off each session's `has_pending` flag.
    fn drain_wake(&mut self) {
        loop {
            match self.wake_rx.read(&mut self.scratch[..]) {
                Ok(0) => return, // tx end closed: server is tearing down
                Ok(n) if n < self.scratch.len() => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Starts a lame-duck close: flush what is already writable now, keep
    /// the connection (write side only) while output remains, close as
    /// soon as it drains. The stall sweep bounds how long that lasts.
    fn begin_close(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let alive = conn.session.flush_pending();
        if !alive || !conn.session.has_pending.load(Ordering::Acquire) {
            self.close_conn(id);
        } else {
            conn.closing = true;
        }
    }

    fn accept_ready(&mut self) {
        // Drain the accept backlog; nonblocking accept ends with WouldBlock.
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.inner.draining() {
                        return;
                    }
                    self.register_conn(stream, peer.to_string());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept error (e.g. EMFILE): yield briefly,
                    // keep serving existing connections.
                    thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, peer: String) {
        let m = server_metrics();
        m.connections.inc();
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.inner.cfg.send_buffer_bytes {
            let _ = polling::set_send_buffer(stream.as_raw_fd(), bytes);
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return, // dead on arrival
        };
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id,
            peer,
            proto: AtomicU8::new(1),
            out: Mutex::new(OutBuf {
                stream: writer,
                pending: Vec::new(),
                stalled_since: None,
                dead: false,
            }),
            has_pending: AtomicBool::new(false),
            wake: Arc::clone(&self.wake_tx),
            out_cap: self
                .inner
                .cfg
                .max_frame_bytes
                .saturating_mul(OUT_CAP_FRAMES),
            requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            unrecorded: AtomicU64::new(0),
            started: Instant::now(),
        });
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, Arc::clone(&session));
        m.sessions_active.add(1);
        // Counted as v1 until a hello upgrades it (v1 needs no handshake).
        m.sessions_v1.add(1);
        let fd = stream.as_raw_fd();
        self.conns.insert(
            id,
            Conn {
                stream,
                session,
                mode: ConnMode::Negotiating,
                buf: Vec::new(),
                frame_start: None,
                last_activity: Instant::now(),
                closing: false,
                interest: polling::POLLIN,
            },
        );
        if self
            .poller
            .add(fd, polling::POLLIN, TOKEN_CONN_BASE + id)
            .is_err()
        {
            // Unregisterable connection is unservable; drop it.
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        // Explicit deregistration is required: the session's OutBuf holds
        // a dup of this socket, and epoll tracks the open file
        // *description* — dropping `conn.stream` alone would leave the
        // registration (and its token) alive.
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // A transaction must not outlive its connection: its inherited
        // locks would block every other session until the lock timeout.
        self.inner.txns.abort_if_any(id);
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
        if self
            .inner
            .watchers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id)
            .is_some()
        {
            // A subscription that dies with its connection (stall-killed
            // or peer disconnect) is a drop, not a cancel.
            server_metrics().watch_subscribers.add(-1);
            server_metrics().watch_dropped.inc();
        }
        release_session_gauges(server_metrics(), conn.session.proto());
        // Force the FIN out even if a queued job still holds the session
        // (its late write will just fail, which is already tolerated).
        conn.session.close();
    }
}

/// Reads whatever the kernel has buffered for `conn` and processes every
/// complete frame in it.
fn service_conn(inner: &Arc<Inner>, conn: &mut Conn, scratch: &mut [u8]) -> ConnAfter {
    let after = service_conn_io(inner, conn, scratch);
    // A connection retains only a small receive buffer between frames; a
    // one-off large frame must not pin its allocation for the session's
    // lifetime.
    if conn.buf.is_empty() && conn.buf.capacity() > BUF_RETAIN_CAP {
        conn.buf = Vec::new();
    }
    after
}

fn service_conn_io(inner: &Arc<Inner>, conn: &mut Conn, scratch: &mut [u8]) -> ConnAfter {
    let m = server_metrics();
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // EOF. Mid-frame it is a truncation worth counting.
                if !conn.buf.is_empty() {
                    m.malformed.inc();
                    return ConnAfter::Close;
                }
                // A clean half-close may still be waiting on buffered
                // pipelined responses; let those drain first.
                return if conn.session.has_pending.load(Ordering::Acquire) {
                    ConnAfter::CloseAfterFlush
                } else {
                    ConnAfter::Close
                };
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                if conn.frame_start.is_none() {
                    conn.frame_start = Some(conn.last_activity);
                }
                conn.buf.extend_from_slice(&scratch[..n]);
                match process_buffer(inner, conn) {
                    ConnAfter::Keep => {}
                    close => return close,
                }
                if n < scratch.len() {
                    // Short read: the kernel buffer is drained.
                    return ConnAfter::Keep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnAfter::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnAfter::Close,
        }
    }
}

/// Consumes every complete unit (hello or frame) in `conn.buf`.
fn process_buffer(inner: &Arc<Inner>, conn: &mut Conn) -> ConnAfter {
    let m = server_metrics();
    loop {
        if let ConnMode::Negotiating = conn.mode {
            let Some(&first) = conn.buf.first() else {
                return ConnAfter::Keep;
            };
            if first != HELLO_V2[0] {
                // A v1 length prefix (its first byte is always 0x00 under
                // the 1 MiB cap; anything non-0xCC gets v1's strict
                // framing checks below).
                conn.mode = ConnMode::V1;
            } else {
                if conn.buf.len() < HELLO_V2.len() {
                    return ConnAfter::Keep; // partial hello
                }
                if conn.buf[..HELLO_V2.len()] != HELLO_V2 {
                    m.malformed.inc();
                    conn.session.send(&err_response(
                        0,
                        ErrorKind::Protocol,
                        &format!("bad hello magic (expected {:02x?})", &HELLO_V2[..]),
                    ));
                    return ConnAfter::CloseAfterFlush;
                }
                if inner.cfg.max_proto < PROTOCOL_V2 {
                    m.malformed.inc();
                    conn.session.send(&err_response(
                        0,
                        ErrorKind::Protocol,
                        "protocol v2 not supported (server pinned to v1)",
                    ));
                    return ConnAfter::CloseAfterFlush;
                }
                // Accept: echo the magic raw (unframed) and switch modes.
                conn.buf.drain(..HELLO_V2.len());
                conn.frame_start = if conn.buf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                conn.session.proto.store(PROTOCOL_V2, Ordering::Relaxed);
                m.sessions_v1.add(-1);
                m.sessions_v2.add(1);
                // The ack is queued ahead of any response to pipelined v2
                // frames already in `buf`, preserving stream order.
                if !conn.session.enqueue_raw(&HELLO_V2) {
                    return ConnAfter::Close;
                }
                conn.mode = ConnMode::V2;
                continue;
            }
        }

        // Framed modes: extract one length-prefixed frame.
        if conn.buf.len() < 4 {
            return ConnAfter::Keep;
        }
        let len = u32::from_be_bytes(conn.buf[..4].try_into().unwrap()) as usize;
        if len > inner.cfg.max_frame_bytes {
            // Refused before the body is ever buffered past what already
            // arrived; framing is unrecoverable after this.
            m.malformed.inc();
            conn.session.send(&err_response(
                0,
                ErrorKind::Protocol,
                &format!(
                    "frame of {len} bytes exceeds cap of {}",
                    inner.cfg.max_frame_bytes
                ),
            ));
            return ConnAfter::CloseAfterFlush;
        }
        if conn.buf.len() < 4 + len {
            return ConnAfter::Keep; // partial frame
        }
        let payload: Vec<u8> = conn.buf[4..4 + len].to_vec();
        conn.buf.drain(..4 + len);
        let first_byte = conn.frame_start.take().unwrap_or_else(Instant::now);
        conn.frame_start = if conn.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        let recv_ns = first_byte.elapsed().as_nanos() as u64;
        if let close @ ConnAfter::Close = handle_frame(inner, conn, payload, first_byte, recv_ns) {
            return close;
        }
    }
}

/// One complete frame: parse in the connection's dialect, answer
/// session-local verbs inline, admit the rest to the worker queue.
fn handle_frame(
    inner: &Arc<Inner>,
    conn: &mut Conn,
    payload: Vec<u8>,
    first_byte: Instant,
    recv_ns: u64,
) -> ConnAfter {
    let m = server_metrics();
    let session = &conn.session;
    session
        .bytes_in
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    m.bytes_in.add(payload.len() as u64);

    let parse_start = Instant::now();
    let parsed = match conn.mode {
        ConnMode::V2 => Request::parse_v2(&payload),
        _ => Request::parse(&payload),
    };
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            // Framing is intact; answer and keep the connection.
            m.malformed.inc();
            session.send(&err_response(0, ErrorKind::Protocol, &msg));
            return ConnAfter::Keep;
        }
    };
    let parse_ns = parse_start.elapsed().as_nanos() as u64;
    let verb = Verb::from_name(&request.verb);
    m.requests.inc();
    if let Some(c) = verb.and_then(|v| m.verb_counter(v)) {
        c.inc();
    }
    session.requests.fetch_add(1, Ordering::Relaxed);

    // Session introspection never touches the store or the queue.
    if verb == Some(Verb::Session) {
        session.send(&ok_response(request.id, session.info_json()));
        return ConnAfter::Keep;
    }
    // `watch` is connection-level (it binds a stream to this session), so
    // it is answered inline like `session`; frames are pushed later by the
    // streamer thread through the session's ordinary outbound buffer.
    if verb == Some(Verb::Watch) {
        session.send(&register_watch(inner, session, &request));
        return ConnAfter::Keep;
    }
    if inner.draining() {
        session.send(&err_response(
            request.id,
            ErrorKind::Shutdown,
            "server is draining",
        ));
        return ConnAfter::Keep;
    }
    // Inline fast path: a read-only snapshot verb from a session that is
    // not in a transaction can run right here against a pinned MVCC
    // snapshot — no enqueue, no worker wakeup, response through the same
    // never-blocking OutBuf. Gated on a shallow queue (when workers are
    // behind, queue-jumping reads would starve admitted writes of CPU)
    // and a per-iteration time budget (the loop's readiness duties come
    // first).
    let inline = verb.is_some_and(|v| v.inline() && !sleeps(v, &request.params));
    if inner.cfg.inline_reads && inline && !inner.txns.in_txn(session.id) {
        if inner.queue.len() <= inner.ctx.workers
            && inner.inline_spent_ns.load(Ordering::Relaxed) < INLINE_BUDGET_NS
        {
            let started = Instant::now();
            run_request(
                inner,
                Job {
                    request,
                    verb,
                    session: Arc::clone(session),
                    admitted: started,
                    first_byte,
                    recv_ns,
                    parse_ns,
                },
                0,
            );
            m.inline_requests.inc();
            inner
                .inline_spent_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return ConnAfter::Keep;
        }
        m.inline_fallback.inc();
    }
    let id = request.id;
    let job = Job {
        request,
        verb,
        session: Arc::clone(session),
        admitted: Instant::now(),
        first_byte,
        recv_ns,
        parse_ns,
    };
    match inner.queue.push(job) {
        Ok(()) => m.queue_depth.set(inner.queue.len() as i64),
        Err(PushError::Full(job)) => {
            m.overloaded.inc();
            job.session.send(&err_response(
                id,
                ErrorKind::Overloaded,
                &format!(
                    "request queue full (depth {}); back off and retry",
                    inner.cfg.queue_depth
                ),
            ));
        }
        Err(PushError::Closed(job)) => {
            job.session
                .send(&err_response(id, ErrorKind::Shutdown, "server is draining"));
        }
    }
    ConnAfter::Keep
}

/// Inline-execution budget per event-loop iteration: once inline
/// handlers have consumed this much of an iteration, further eligible
/// requests are enqueued instead, so a read burst cannot starve the
/// loop's accept/read/flush duties.
const INLINE_BUDGET_NS: u64 = 1_000_000;

/// Handles a `watch` request: registers (or replaces, or with
/// `stop: true` cancels) this session's telemetry subscription and
/// returns the ack envelope. Streaming itself happens on the streamer
/// thread.
fn register_watch(inner: &Arc<Inner>, session: &Arc<Session>, request: &Request) -> Json {
    let m = server_metrics();
    let p = &request.params;
    if p.get("stop").and_then(Json::as_bool) == Some(true) {
        let removed = inner
            .watchers
            .lock()
            .unwrap_or_else(|q| q.into_inner())
            .remove(&session.id)
            .is_some();
        if removed {
            m.watch_subscribers.add(-1);
        }
        return ok_response(
            request.id,
            Json::Object(vec![("watching".into(), Json::Bool(false))]),
        );
    }
    if inner.cfg.sample_interval_ms == 0 {
        return err_response(
            request.id,
            ErrorKind::BadRequest,
            "telemetry sampler disabled on this server (sample_interval_ms = 0)",
        );
    }
    let interval_ms = p
        .get("interval_ms")
        .and_then(Json::as_u64)
        .unwrap_or(WATCH_DEFAULT_INTERVAL_MS)
        .clamp(WATCH_MIN_INTERVAL_MS, WATCH_MAX_INTERVAL_MS);
    let patterns = series_patterns(p);
    let tick = timeseries::global_series().tick();
    let sub = WatchSub {
        session: Arc::clone(session),
        request_id: request.id,
        interval: Duration::from_millis(interval_ms),
        patterns: patterns.clone(),
        last_tick: tick,
        seq: 0,
        next_due: Instant::now() + Duration::from_millis(interval_ms),
    };
    let replaced = inner
        .watchers
        .lock()
        .unwrap_or_else(|q| q.into_inner())
        .insert(session.id, sub)
        .is_some();
    if !replaced {
        m.watch_subscribers.add(1);
    }
    ok_response(
        request.id,
        Json::Object(vec![
            ("watching".into(), Json::Bool(true)),
            ("interval_ms".into(), Json::UInt(interval_ms)),
            ("tick".into(), Json::UInt(tick)),
            (
                "sampler_interval_ms".into(),
                Json::UInt(timeseries::global_series().interval_ms()),
            ),
            (
                "series".into(),
                Json::Array(patterns.into_iter().map(Json::String).collect()),
            ),
        ]),
    )
}

/// Renders one series delta as the wire object shared by `watch` frames
/// and the `telemetry` verb. `window_secs` converts counter deltas to
/// rates.
fn series_delta_json(name: &str, delta: &SeriesDelta, window_secs: f64) -> Json {
    let mut fields = vec![("name".into(), Json::String(name.to_string()))];
    match delta {
        SeriesDelta::Counter { delta } => {
            fields.push(("kind".into(), Json::String("counter".into())));
            fields.push(("delta".into(), Json::UInt(*delta)));
            fields.push((
                "rate".into(),
                Json::Float(*delta as f64 / window_secs.max(1e-9)),
            ));
        }
        SeriesDelta::Gauge { value } => {
            fields.push(("kind".into(), Json::String("gauge".into())));
            fields.push(("value".into(), Json::Int(*value)));
        }
        SeriesDelta::Histogram { delta } => {
            fields.push(("kind".into(), Json::String("histogram".into())));
            fields.push(("count".into(), Json::UInt(delta.count)));
            fields.push(("sum".into(), Json::UInt(delta.sum)));
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                fields.push((
                    label.into(),
                    delta.quantile(q).map(Json::Float).unwrap_or(Json::Null),
                ));
            }
        }
    }
    Json::Object(fields)
}

/// Renders one incremental telemetry frame for the wire.
fn watch_frame_json(frame: &TelemetryFrame, seq: u64) -> Json {
    let window_ms = frame.tick.saturating_sub(frame.from_tick) * frame.interval_ms;
    let window_secs = (window_ms as f64 / 1_000.0).max(frame.interval_ms as f64 / 1_000.0);
    Json::Object(vec![
        ("watch".into(), Json::Bool(true)),
        ("seq".into(), Json::UInt(seq)),
        ("from_tick".into(), Json::UInt(frame.from_tick)),
        ("tick".into(), Json::UInt(frame.tick)),
        ("interval_ms".into(), Json::UInt(frame.interval_ms)),
        ("window_ms".into(), Json::UInt(window_ms)),
        ("unix_ms".into(), Json::UInt(frame.unix_ms)),
        (
            "series".into(),
            Json::Array(
                frame
                    .series
                    .iter()
                    .map(|(name, d)| series_delta_json(name, d, window_secs))
                    .collect(),
            ),
        ),
    ])
}

/// The streamer thread: every [`WATCH_TICK`] it sends each due
/// subscription an incremental frame built from the telemetry ring.
/// Frames go through [`Session::send`] — the same never-blocking
/// outbound buffer as responses — so a subscriber that stops reading is
/// killed by the stall sweep or backlog cap exactly like any other slow
/// peer, without the streamer (or anyone else) ever blocking on it.
fn streamer_loop(inner: &Arc<Inner>) {
    let m = server_metrics();
    loop {
        thread::sleep(WATCH_TICK);
        if inner.draining() {
            return;
        }
        let now = Instant::now();
        let mut watchers = inner.watchers.lock().unwrap_or_else(|p| p.into_inner());
        let mut dead: Vec<u64> = Vec::new();
        for (id, sub) in watchers.iter_mut() {
            if sub.session.is_dead() {
                dead.push(*id);
                continue;
            }
            if now < sub.next_due {
                continue;
            }
            let frame = timeseries::global_series().frame_since(sub.last_tick, &sub.patterns);
            sub.seq += 1;
            sub.last_tick = frame.tick;
            sub.next_due = now + sub.interval;
            sub.session.send(&ok_response(
                sub.request_id,
                watch_frame_json(&frame, sub.seq),
            ));
            m.watch_frames.inc();
            if sub.session.is_dead() {
                dead.push(*id);
            }
        }
        for id in dead {
            watchers.remove(&id);
            m.watch_subscribers.add(-1);
            m.watch_dropped.inc();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, worker_idx: usize) {
    let m = server_metrics();
    // Per-worker utilization counters, plus the pool-wide aggregates:
    // Δbusy / (Δbusy + Δidle) over a ring window is the utilization the
    // dashboards show.
    let r = ccdb_obs::global();
    let w_busy = r.counter(&format!("ccdb_server_worker{worker_idx}_busy_ns_total"));
    let w_idle = r.counter(&format!("ccdb_server_worker{worker_idx}_idle_ns_total"));
    let mut idle_since = Instant::now();
    while let Some(job) = inner.queue.pop(worker_idx) {
        let idle_ns = idle_since.elapsed().as_nanos() as u64;
        w_idle.add(idle_ns);
        m.workers_idle_ns.add(idle_ns);
        m.workers_busy.inc();
        let busy_start = Instant::now();
        m.queue_depth.set(inner.queue.len() as i64);
        let queue_ns = Instant::now().duration_since(job.admitted).as_nanos() as u64;
        run_request(inner, job, queue_ns);
        let busy_ns = busy_start.elapsed().as_nanos() as u64;
        w_busy.add(busy_ns);
        m.workers_busy_ns.add(busy_ns);
        m.workers_busy.dec();
        idle_since = Instant::now();
    }
}

/// Executes one admitted request end to end — handler dispatch, phase
/// attribution, flight record, response — on whichever thread calls it:
/// a worker (passing the measured queue wait) or the event loop's inline
/// fast path (`queue_ns == 0`; the request never saw the queue, and its
/// timeline says so).
fn run_request(inner: &Arc<Inner>, job: Job, queue_ns: u64) {
    let m = server_metrics();
    let Job {
        request,
        verb,
        session,
        admitted,
        first_byte,
        recv_ns,
        parse_ns,
    } = job;

    // A client-stamped trace id continues the client's trace tree into
    // the server span, bypassing the sampler; otherwise the span is
    // subject to normal sampling.
    let mut span = match request.trace {
        Some(t) => ccdb_obs::trace::span_in_trace("server.request", TraceId(t)),
        None => ccdb_obs::trace::span("server.request"),
    };
    if let Some(s) = span.as_mut() {
        if let Some(v) = verb {
            s.str("verb", v.name());
        }
        s.u64("session", session.id);
    }

    if verb == Some(Verb::Flight) {
        session.await_flight_records();
    }
    let handle_start = Instant::now();
    let wait0_lock = lockprobe::thread_lock_wait_ns();
    let wait0_snap = lockprobe::thread_snapshot_wait_ns();
    let (response, outcome) = if verb == Some(Verb::Shutdown) {
        inner.begin_shutdown();
        (
            ok_response(request.id, Json::String("draining".into())),
            "ok",
        )
    } else {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_verb(
                &inner.store,
                &inner.catalog,
                &inner.ctx,
                &inner.txns,
                session.id,
                verb,
                &request.verb,
                &request.params,
            )
        }));
        match outcome {
            Ok(Ok(result)) => (ok_response(request.id, result), "ok"),
            Ok(Err((kind, msg))) => (err_response(request.id, kind, &msg), kind.as_str()),
            Err(_) => {
                m.internal_errors.inc();
                (
                    err_response(
                        request.id,
                        ErrorKind::Internal,
                        "request handler panicked; see server logs",
                    ),
                    ErrorKind::Internal.as_str(),
                )
            }
        }
    };
    let handled = Instant::now();
    let handler_ns = handled.duration_since(handle_start).as_nanos() as u64;
    // Store-lock wait is charged to this thread by the lock probe,
    // split by mode: exclusive master-lock + txn-lock wait becomes the
    // `lock` phase, shared snapshot-pin wait the `snapshot` phase. The
    // deltas across the handler are this request's numbers (clamped:
    // sampled hold clocks can't overrun the handler time).
    let lock_ns = lockprobe::thread_lock_wait_ns()
        .saturating_sub(wait0_lock)
        .min(handler_ns);
    let snapshot_ns = lockprobe::thread_snapshot_wait_ns()
        .saturating_sub(wait0_snap)
        .min(handler_ns - lock_ns);
    let handle_ns = handler_ns - lock_ns - snapshot_ns;

    let payload = session.encode(&response);
    let serialized = Instant::now();
    let serialize_ns = serialized.duration_since(handled).as_nanos() as u64;
    session.unrecorded.fetch_add(1, Ordering::SeqCst);
    session.send_bytes(&payload);
    let write_ns = serialized.elapsed().as_nanos() as u64;

    let total_ns = first_byte.elapsed().as_nanos() as u64;
    let phases = [
        recv_ns,
        parse_ns,
        queue_ns,
        snapshot_ns,
        lock_ns,
        handle_ns,
        serialize_ns,
        write_ns,
    ];
    for (h, ns) in m.phase_all.iter().zip(phases) {
        h.observe(ns);
    }
    m.phase_all_total.observe(total_ns);
    if let Some(vp) = verb.and_then(|v| m.verb_phases(v)) {
        for (h, ns) in vp.phases.iter().zip(phases) {
            h.observe(ns);
        }
        vp.total.observe(total_ns);
    }
    ccdb_obs::flight::record(FlightRecord {
        verb: request.verb,
        outcome: outcome.into(),
        end_unix_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        total_ns,
        phases,
        trace: request.trace,
        session: session.id,
        proto: session.proto(),
    });
    session.unrecorded.fetch_sub(1, Ordering::SeqCst);
    m.request_latency
        .observe(admitted.elapsed().as_nanos() as u64);
    drop(span);
}
