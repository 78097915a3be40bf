//! Per-layer probes: each layer timed alone through its public functions.
//!
//! All probes run after the measured phases and the final sweep, on the
//! same store (and the same server) the workload used, so each layer is
//! measured at the workload's store size.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use ccdb_server::proto::{decode_response_v2, encode_response_v2};
use ccdb_server::queue::ShardedQueue;
use ccdb_server::{Client, Request};
use ccdb_txn::{TxnId, TxnRegistry};
use serde_json::Value as Json;

use crate::corpus::{self, INHERITED, LEVELS, LOCAL, PARTS_PER_ASSEMBLY};
use crate::rng::Rng;
use crate::stats::{median, ratio};
use crate::workload::{Ctx, Op, SERVER_WORKERS, TXN_READS_PER_PART, TXN_WRITES};

/// Repetitions of a batched timing loop; the median repetition counts.
const REPS: usize = 7;

/// Median over [`REPS`] repetitions of `f` (which runs `n` operations),
/// in ns per operation.
fn per_op_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
        })
        .collect();
    median(&reps)
}

/// Wall time of `f` in µs.
fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Codec timings on the run's actual frames, ns per frame.
#[derive(Debug, Default)]
pub struct Codec {
    /// `Request::encode_v2`.
    pub req_encode_ns: f64,
    /// `Request::parse_v2`.
    pub req_decode_ns: f64,
    /// `encode_response_v2`.
    pub resp_encode_ns: f64,
    /// `decode_response_v2`.
    pub resp_decode_ns: f64,
}

impl Codec {
    /// All four codec steps of one request/response pair, µs.
    pub fn pair_us(&self) -> f64 {
        (self.req_encode_ns + self.req_decode_ns + self.resp_encode_ns + self.resp_decode_ns) / 1e3
    }
}

/// Replay the codec functions on sampled request/response payloads.
pub fn codec(reqs: &[Vec<u8>], resps: &[Vec<u8>]) -> Codec {
    let parsed: Vec<Request> = reqs
        .iter()
        .filter_map(|f| Request::parse_v2(f).ok())
        .collect();
    let envelopes: Vec<Json> = resps
        .iter()
        .filter_map(|f| decode_response_v2(f).ok())
        .collect();
    Codec {
        req_encode_ns: per_op_ns(parsed.len(), || {
            for r in &parsed {
                black_box(r.encode_v2().ok());
            }
        }),
        req_decode_ns: per_op_ns(reqs.len(), || {
            for f in reqs {
                black_box(Request::parse_v2(f).ok());
            }
        }),
        resp_encode_ns: per_op_ns(envelopes.len(), || {
            for e in &envelopes {
                black_box(encode_response_v2(e));
            }
        }),
        resp_decode_ns: per_op_ns(resps.len(), || {
            for f in resps {
                black_box(decode_response_v2(f).ok());
            }
        }),
    }
}

/// `SharedStore::snapshot`, ns per pin.
pub fn snapshot_pin_ns(store: &SharedStore) -> f64 {
    const N: usize = 20_000;
    per_op_ns(N, || {
        for _ in 0..N {
            black_box(store.snapshot());
        }
    })
}

/// `ObjectStore::attr` on a pinned snapshot whose resolution cache is
/// private and empty: the first read of each key misses and walks the
/// chain (cold), the second hits (warm). Returns `(warm_ns, cold_ns,
/// hops per cold read)`, the last from the store's own `StoreStats`.
pub fn attr_warm_cold_ns(store: &SharedStore, ctx: &Ctx, rng: &mut Rng) -> (f64, f64, f64) {
    const KEYS: usize = 2_000;
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    let (mut hops, mut walks) = (0, 0);
    for _ in 0..REPS {
        let mut snap = (*store.snapshot()).clone();
        snap.detach_resolution_cache();
        let keys: Vec<_> = (0..KEYS)
            .map(|_| {
                let i = ctx.parts.sample(rng);
                (
                    ctx.model.parts[i].obj,
                    INHERITED[rng.below(INHERITED.len())],
                )
            })
            .collect();
        // Distinct keys only: a repeated key would be a hit in the cold pass.
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<_> = keys.into_iter().filter(|k| seen.insert(*k)).collect();
        let before = snap.stats();
        let t = Instant::now();
        for (o, a) in &keys {
            black_box(snap.attr(*o, a).ok());
        }
        cold.push(t.elapsed().as_secs_f64() * 1e9 / keys.len() as f64);
        let after = snap.stats();
        hops += after.hops - before.hops;
        walks += after.inherited_reads - before.inherited_reads;
        let t = Instant::now();
        for (o, a) in &keys {
            black_box(snap.attr(*o, a).ok());
        }
        warm.push(t.elapsed().as_secs_f64() * 1e9 / keys.len() as f64);
    }
    (
        median(&warm),
        median(&cold),
        ratio(hops as f64, walks as f64),
    )
}

/// `SharedStore::write` per write kind at the store's size, µs (medians).
#[derive(Debug, Default)]
pub struct Writes {
    /// `write(|_| ())`: the publish floor.
    pub empty_us: f64,
    /// Part-local `set_attr`.
    pub local_us: f64,
    /// `B2`/`B3` transmitter `set_attr`: the mean of the two medians
    /// below (the two kinds differ several-fold, so a pooled median would
    /// be a tail sample of the cheaper one).
    pub transmitter_us: f64,
    /// `B2` on an `L2` interface (two levels of inheritors below it).
    pub b2_us: f64,
    /// `B3` on an `L3` interface (parts directly below it).
    pub b3_us: f64,
    /// `create` + `bind` of a new part (two write cycles).
    pub create_bind_us: f64,
    /// Median inheritor closure (inheritors at every level below) of the
    /// `L2` transmitters the `B2` writes hit.
    pub b2_inheritors: f64,
    /// The same for the `L3` transmitters of the `B3` writes.
    pub b3_inheritors: f64,
    /// Resolution-cache entries dropped per local, transmitter or
    /// create+bind write (`StoreStats.rescache_invalidations`).
    pub invalidations_per_write: f64,
}

/// Inheritors of `transmitter`, direct and transitive: the objects a
/// write of one of its attributes reaches.
fn inheritor_closure(store: &ObjectStore, transmitter: Surrogate) -> usize {
    let mut stack = vec![transmitter];
    let mut n = 0;
    while let Some(t) = stack.pop() {
        for rel in store.inheritance_rels_of(t) {
            if let Some(i) = store.object(*rel).ok().and_then(|o| o.inheritor()) {
                n += 1;
                stack.push(i);
            }
        }
    }
    n
}

/// Time each write kind `n` times on Zipf-chosen parts.
pub fn writes(store: &SharedStore, ctx: &Ctx, rng: &mut Rng, n: usize) -> Writes {
    let model = &ctx.model;
    let mut empty = Vec::new();
    let mut local = Vec::new();
    let mut b2 = Vec::new();
    let mut b3 = Vec::new();
    let mut create_bind = Vec::new();
    let (mut b2_inh, mut b3_inh) = (Vec::new(), Vec::new());
    let before = store.read(|s| s.stats()).rescache_invalidations;
    for k in 0..n {
        empty.push(time_us(|| store.write(|_| ())).1);
        let i = ctx.parts.sample(rng);
        let part = model.parts[i].obj;
        local.push(
            time_us(|| {
                store
                    .set_attr(part, LOCAL, Value::Int(k as i64))
                    .expect("local write")
            })
            .1,
        );
        let a = 6 + k % 2;
        let level = corpus::provider_level(a);
        let t = model.ifaces[level][model.ancestor(i, level)];
        let inheritors = store.read(|s| inheritor_closure(s, t)) as f64;
        let us = time_us(|| {
            store
                .set_attr(t, INHERITED[a], Value::Int(-(k as i64)))
                .expect("transmitter write")
        })
        .1;
        let (bucket, inh) = if level == 2 {
            (&mut b2, &mut b2_inh)
        } else {
            (&mut b3, &mut b3_inh)
        };
        bucket.push(us);
        inh.push(inheritors);
        let l3 = model.ifaces[LEVELS - 1][model.parts[i].l3 as usize];
        create_bind.push(
            time_us(|| {
                let obj = store
                    .write(|s| s.create_object("Part", vec![(LOCAL, Value::Int(0))]))
                    .expect("create part");
                store
                    .write(|s| s.bind(corpus::rel_of_level(LEVELS - 1), l3, obj, vec![]))
                    .expect("bind part");
            })
            .1,
        );
    }
    Writes {
        empty_us: median(&empty),
        local_us: median(&local),
        transmitter_us: (median(&b2) + median(&b3)) / 2.0,
        b2_us: median(&b2),
        b3_us: median(&b3),
        create_bind_us: median(&create_bind),
        b2_inheritors: median(&b2_inh),
        b3_inheritors: median(&b3_inh),
        invalidations_per_write: ratio(
            (store.read(|s| s.stats()).rescache_invalidations - before) as f64,
            (3 * n) as f64,
        ),
    }
}

/// Replay a logged operation stream in process against the store, in
/// order. Returns `(read_us, write_us)` medians: a read is a snapshot pin
/// plus `attr`; a write is its `SharedStore::write` cycle(s).
pub fn replay(store: &SharedStore, ops: &[Op]) -> (f64, f64) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for op in ops {
        match *op {
            Op::Read(obj, a) => {
                reads.push(time_us(|| store.snapshot().attr(obj, INHERITED[a as usize]).ok()).1)
            }
            Op::SetLocal(obj, v) => {
                let set = || {
                    store
                        .set_attr(obj, LOCAL, Value::Int(v))
                        .expect("replayed write")
                };
                writes.push(time_us(set).1)
            }
            Op::SetTransmitter(obj, a, v) => {
                let name = INHERITED[a as usize];
                let set = || {
                    store
                        .set_attr(obj, name, Value::Int(v))
                        .expect("replayed write")
                };
                writes.push(time_us(set).1)
            }
            Op::CreateBind(l3) => {
                let (obj, us) = time_us(|| store.write(|s| s.create_object("Part", vec![])));
                writes.push(us);
                if let Ok(obj) = obj {
                    let rel = corpus::rel_of_level(LEVELS - 1);
                    writes.push(time_us(|| store.write(|s| s.bind(rel, l3, obj, vec![]))).1);
                }
            }
        }
    }
    (median(&reads), median(&writes))
}

/// `TxnRegistry` timings of design transactions, µs (medians).
#[derive(Debug, Default)]
pub struct Txn {
    /// `begin`.
    pub begin_us: f64,
    /// One in-transaction `read_attr`.
    pub read_attr_us: f64,
    /// One in-transaction `set_attr`.
    pub set_attr_us: f64,
    /// `commit` (validation + replay + publish).
    pub commit_us: f64,
    /// Locks held before commit (§6 inherited S-locks included).
    pub locks_per_txn: f64,
}

/// Run `n` design transactions of the `checkout` shape through a fresh
/// registry on the store, one session at a time.
pub fn txn(store: &SharedStore, ctx: &Ctx, rng: &mut Rng, n: usize) -> Txn {
    let model = &ctx.model;
    let reg = TxnRegistry::new();
    let (mut begin, mut read, mut set, mut commit, mut locks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..n {
        let session = k as u64 + 1;
        let first = ctx.assemblies.sample(rng) * PARTS_PER_ASSEMBLY;
        let (id, us) = time_us(|| reg.begin(session, store).expect("begin"));
        begin.push(us);
        for p in first..first + PARTS_PER_ASSEMBLY {
            for _ in 0..TXN_READS_PER_PART {
                let a = INHERITED[rng.below(INHERITED.len())];
                let obj = model.parts[p].obj;
                read.push(time_us(|| reg.read_attr(session, obj, a).expect("read")).1);
            }
        }
        for w in 0..TXN_WRITES {
            let obj = model.parts[first + w].obj;
            let v = Value::Int(k as i64);
            set.push(time_us(|| reg.set_attr(session, obj, LOCAL, v).expect("set")).1);
        }
        locks.push(reg.locks().held_count(TxnId(id.0)) as f64);
        commit.push(time_us(|| reg.commit(session, store).expect("commit")).1);
    }
    Txn {
        begin_us: median(&begin),
        read_attr_us: median(&read),
        set_attr_us: median(&set),
        commit_us: median(&commit),
        locks_per_txn: median(&locks),
    }
}

/// Round trips of `ping` (answered inline on the event loop) and of
/// `ping` with `delay_ms: 0` (always a worker hop), µs medians. Each
/// series runs on its own after a short warm-up.
pub fn ping_rtts(client: &mut Client, n: usize) -> (f64, f64) {
    let mut series = |queued: bool| {
        let mut rtts = Vec::with_capacity(n);
        for k in 0..n + n / 10 {
            let (r, us) = time_us(|| {
                if queued {
                    client.ping_delay_ms(0)
                } else {
                    client.ping()
                }
            });
            if r.is_ok() && k >= n / 10 {
                rtts.push(us);
            }
        }
        median(&rtts)
    };
    (series(false), series(true))
}

/// `ShardedQueue::push` on this thread to `pop` on a parked worker
/// thread, ns (median of `n` one-at-a-time handoffs).
pub fn queue_handoff_ns(n: usize) -> f64 {
    let queue: Arc<ShardedQueue<Instant>> = Arc::new(ShardedQueue::new(SERVER_WORKERS, 64));
    let done = Arc::new(AtomicUsize::new(0));
    let samples = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let workers: Vec<_> = (0..SERVER_WORKERS)
        .map(|w| {
            let (queue, done, samples) =
                (Arc::clone(&queue), Arc::clone(&done), Arc::clone(&samples));
            thread::spawn(move || {
                while let Some(pushed) = queue.pop(w) {
                    let ns = pushed.elapsed().as_secs_f64() * 1e9;
                    samples.lock().expect("samples").push(ns);
                    done.fetch_add(1, Ordering::Release);
                }
            })
        })
        .collect();
    for k in 0..n {
        // Let the workers park before the next push.
        thread::sleep(std::time::Duration::from_micros(200));
        if queue.push(Instant::now()).is_err() {
            break;
        }
        while done.load(Ordering::Acquire) <= k {
            thread::yield_now();
        }
    }
    queue.close();
    for w in workers {
        w.join().expect("queue worker");
    }
    let v = samples.lock().expect("samples").clone();
    median(&v)
}
