//! The three design workloads, their set-up, and the final sweep.
//!
//! Every workload is a closed loop — a designer waits for each reply —
//! with at most two client connections to one in-process server with two
//! workers, over v2 framing on loopback.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::{Surrogate, Value};
use ccdb_server::{ClientResult, Server, ServerConfig};

use crate::check::Checker;
use crate::corpus::{self, Model, INHERITED, LEVELS, LOCAL, PARTS_PER_ASSEMBLY};
use crate::rng::{Rng, Zipf};
use crate::wire::Conn;

/// Zipf exponent of the designers' choice of part or assembly: the same
/// rank⁻¹ weights as transmitter reuse ([`corpus::REUSE_ZIPF`]).
const ACCESS_ZIPF: f64 = corpus::REUSE_ZIPF;
/// Replayable operations kept per client and traced phase.
const OP_LOG_CAP: usize = 4096;
/// Server worker threads (the machine this was tuned on has 2 cores).
pub(crate) const SERVER_WORKERS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The interactive designer: inherited reads, rare part-local writes.
    Browse,
    /// A release at CAD scale: transmitter updates, new parts, reads.
    Release,
    /// Design transactions under §6 lock inheritance.
    Checkout,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::Release, Workload::Checkout];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Release => "release",
            Workload::Checkout => "checkout",
        }
    }

    /// Store size in objects.
    pub fn objects(self) -> usize {
        match self {
            Workload::Release => 1_000_000,
            Workload::Browse | Workload::Checkout => 100_000,
        }
    }

    /// Client connections.
    pub fn clients(self) -> usize {
        match self {
            Workload::Browse => 1,
            Workload::Release | Workload::Checkout => 2,
        }
    }

    /// Whether set-up warms the resolution cache with every part's
    /// inherited attributes. `release` does not: at 10⁶ objects the
    /// warm-up would outlast the run. `checkout` does not: in-transaction
    /// reads resolve on a private workspace with its own cache.
    pub fn warms_cache(self) -> bool {
        self == Workload::Browse
    }
}

/// A part created during the run.
#[derive(Clone, Copy, Debug)]
pub struct NewPart {
    /// The part.
    pub obj: Surrogate,
    /// Index of its `L3` transmitter.
    pub l3: u32,
    /// Its local `P`.
    pub p: i64,
}

/// A replayable operation of the run.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `attr(obj, INHERITED[a])`.
    Read(Surrogate, u8),
    /// `set_attr(obj, P, v)`.
    SetLocal(Surrogate, i64),
    /// `set_attr(obj, INHERITED[a], v)` on a transmitter.
    SetTransmitter(Surrogate, u8, i64),
    /// `create(Part)` then `bind(AllOf_L3, l3, part)`.
    CreateBind(Surrogate),
}

/// What the clients share: the model, samplers and partitions.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Expected values.
    pub model: Model,
    /// Zipf over all corpus parts.
    pub parts: Zipf,
    /// Per client: the parts it may write and a Zipf over them.
    pub own: Vec<(Vec<u32>, Zipf)>,
    /// Zipf over assemblies.
    pub assemblies: Zipf,
    /// `checkout`: part index → (commit version, value) of the latest
    /// committed `P` write.
    pub committed_p: Mutex<HashMap<usize, (u64, i64)>>,
}

impl Ctx {
    fn new(workload: Workload, model: Model, rng: &mut Rng) -> Ctx {
        let clients = workload.clients();
        let parts = Zipf::new(model.parts.len(), ACCESS_ZIPF, rng);
        let assemblies = Zipf::new(model.assemblies.len(), ACCESS_ZIPF, rng);
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); clients];
        for i in 0..model.parts.len() {
            owned[partition(&model, i, clients)].push(i as u32);
        }
        let own = owned
            .into_iter()
            .map(|v| {
                let z = Zipf::new(v.len().max(1), ACCESS_ZIPF, rng);
                (v, z)
            })
            .collect();
        Ctx {
            workload,
            model,
            parts,
            own,
            assemblies,
            committed_p: Mutex::new(HashMap::new()),
        }
    }

    /// A Zipf-chosen part client `c` may write.
    fn own_part(&self, c: usize, rng: &mut Rng) -> usize {
        let (list, zipf) = &self.own[c];
        list[zipf.sample(rng)] as usize
    }
}

/// The write partition of part `i`: the subtree of its `L2` ancestor.
pub fn partition(model: &Model, i: usize, clients: usize) -> usize {
    model.ancestor(i, 2) % clients
}

/// One client's state, moved into its thread for each phase.
pub struct ClientState {
    /// Client number.
    pub id: usize,
    /// Its connection.
    pub conn: Conn,
    rng: Rng,
    /// Bad answers it saw.
    pub checker: Checker,
    /// Parts it created.
    pub new_parts: Vec<NewPart>,
    /// Operations logged for the replay (traced phases only).
    pub ops: Vec<Op>,
    /// Completed design transactions: first `begin` to successful
    /// `commit`, retries included, µs.
    pub txn_us: Vec<f64>,
    /// Transaction attempts (`begin`s).
    pub txn_attempts: u64,
    /// Successful commits.
    pub txn_commits: u64,
    next_value: i64,
    log_ops: bool,
}

impl ClientState {
    fn log(&mut self, op: Op) {
        if self.log_ops && self.ops.len() < OP_LOG_CAP {
            self.ops.push(op);
        }
    }
}

/// A running benchmark instance: server, store handle, clients.
pub struct Bench {
    /// Shared model and samplers.
    pub ctx: Arc<Ctx>,
    /// A handle on the store the server serves.
    pub store: SharedStore,
    /// The server.
    pub server: Server,
    /// Client states.
    pub clients: Vec<ClientState>,
    /// Wall time of this set-up, s.
    pub setup_s: f64,
    /// `compile_str` time, ms.
    pub compile_ms: f64,
    /// Population time per object, µs.
    pub populate_us_per_obj: f64,
}

/// Generate the corpus, share it, warm the cache if the workload does,
/// start the server and connect the clients.
pub fn setup(workload: Workload, objects: usize, seed: u64) -> ClientResult<Bench> {
    let t0 = Instant::now();
    let mut rng = Rng::new(seed);
    let corpus = corpus::generate(objects, rng.next_u64());
    let store = SharedStore::from_store(corpus.store);
    let ctx = Arc::new(Ctx::new(workload, corpus.model, &mut rng));
    if workload.warms_cache() {
        let snap = store.snapshot();
        for part in &ctx.model.parts {
            for name in INHERITED {
                snap.attr(part.obj, name).expect("warm-up read");
            }
        }
    }
    let cfg = ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, store.clone())?;
    let mut clients = Vec::new();
    for id in 0..workload.clients() {
        clients.push(ClientState {
            id,
            conn: Conn::connect(server.local_addr())?,
            rng: rng.fork(id as u64),
            checker: Checker::new(),
            new_parts: Vec::new(),
            ops: Vec::new(),
            txn_us: Vec::new(),
            txn_attempts: 0,
            txn_commits: 0,
            next_value: (id as i64 + 1) << 40,
            log_ops: false,
        });
    }
    Ok(Bench {
        ctx,
        store,
        server,
        clients,
        setup_s: t0.elapsed().as_secs_f64(),
        compile_ms: corpus.compile_ms,
        populate_us_per_obj: corpus.populate_us_per_obj,
    })
}

impl Bench {
    /// Run every client for `secs` seconds, traced or not. Returns the
    /// phase's wall time in seconds.
    pub fn run_phase(&mut self, secs: f64, traced: bool) -> f64 {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let ctx = &self.ctx;
        let t0 = Instant::now();
        thread::scope(|s| {
            for st in self.clients.iter_mut() {
                st.conn.set_traced(traced);
                st.log_ops = traced;
                s.spawn(move || {
                    while Instant::now() < deadline {
                        match ctx.workload {
                            Workload::Browse => browse_step(ctx, st),
                            Workload::Release => release_step(ctx, st),
                            Workload::Checkout => checkout_txn(ctx, st, deadline),
                        }
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64()
    }

    /// Check every part's inherited attributes and `P` against the model,
    /// in process against the published snapshot the server serves.
    /// Returns the number of wrong values.
    pub fn final_sweep(&self) -> u64 {
        let model = &self.ctx.model;
        let committed = self
            .ctx
            .committed_p
            .lock()
            .expect("a client thread panicked");
        for (&i, &(_, v)) in committed.iter() {
            model.set_part_p(i, v);
        }
        drop(committed);
        let snap = self.store.snapshot();
        let new_parts: Vec<NewPart> = self
            .clients
            .iter()
            .flat_map(|c| c.new_parts.clone())
            .collect();
        let n = model.parts.len();
        let wrong_in = |lo: usize, hi: usize| -> u64 {
            let mut wrong = 0;
            for i in lo..hi {
                let (obj, l3, p) = if i < n {
                    let part = &model.parts[i];
                    (part.obj, part.l3 as usize, model.part_p(i))
                } else {
                    let np = &new_parts[i - n];
                    (np.obj, np.l3 as usize, np.p)
                };
                for (a, name) in INHERITED.iter().enumerate() {
                    let want = Value::Int(model.expected_via(l3, a));
                    if snap.attr(obj, name).ok() != Some(want) {
                        wrong += 1;
                    }
                }
                if snap.attr(obj, LOCAL).ok() != Some(Value::Int(p)) {
                    wrong += 1;
                }
            }
            wrong
        };
        let total = n + new_parts.len();
        let mid = total / 2;
        thread::scope(|s| {
            let h = s.spawn(|| wrong_in(0, mid));
            wrong_in(mid, total) + h.join().expect("sweep thread")
        })
    }

    /// Stop the server and wait for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

fn browse_step(ctx: &Ctx, st: &mut ClientState) {
    let model = &ctx.model;
    let i = ctx.parts.sample(&mut st.rng);
    let obj = model.parts[i].obj;
    if st.rng.below(100) < 2 {
        let v = model.part_p(i) + 1;
        st.log(Op::SetLocal(obj, v));
        if st.conn.set_int(obj, LOCAL, v).is_ok() {
            model.set_part_p(i, v);
        }
        return;
    }
    let a = st.rng.below(INHERITED.len());
    st.log(Op::Read(obj, a as u8));
    if let Ok(got) = st.conn.attr(obj, INHERITED[a]) {
        let want = model.expected(i, a);
        st.checker.exact(&got, want);
    }
}

/// Mix units per `release` step: 20 transmitter writes (each followed by
/// a read through an inheritor), 15 part-local writes, 15 create+bind,
/// 30 further reads — 50% writes, 50% reads.
const RELEASE_UNITS: usize = 80;

fn release_step(ctx: &Ctx, st: &mut ClientState) {
    let model = &ctx.model;
    let u = st.rng.below(RELEASE_UNITS);
    if u < 20 {
        // Transmitter write on B2 or B3 of an own part's ancestor, then a
        // read of that attribute through the part.
        let i = ctx.own_part(st.id, &mut st.rng);
        let a = 6 + st.rng.below(2);
        let level = corpus::provider_level(a);
        let idx = model.ancestor(i, level);
        let t = model.ifaces[level][idx];
        let v = model.value(level, idx, a) + 1;
        st.log(Op::SetTransmitter(t, a as u8, v));
        if st.conn.set_int(t, INHERITED[a], v).is_ok() {
            model.set_value(level, idx, a, v);
        }
        read_part(ctx, st, i, a);
    } else if u < 35 {
        let i = ctx.own_part(st.id, &mut st.rng);
        let obj = model.parts[i].obj;
        let v = model.part_p(i) + 1;
        st.log(Op::SetLocal(obj, v));
        if st.conn.set_int(obj, LOCAL, v).is_ok() {
            model.set_part_p(i, v);
        }
    } else if u < 50 {
        let i = ctx.own_part(st.id, &mut st.rng);
        let l3 = model.parts[i].l3;
        let t = model.ifaces[LEVELS - 1][l3 as usize];
        let p = st.rng.below(1_000_000) as i64;
        st.log(Op::CreateBind(t));
        if let Ok(obj) = st.conn.create("Part", LOCAL, p) {
            if st
                .conn
                .bind(corpus::rel_of_level(LEVELS - 1), t, obj)
                .is_ok()
            {
                st.new_parts.push(NewPart { obj, l3, p });
            }
        }
    } else {
        let i = ctx.parts.sample(&mut st.rng);
        let a = st.rng.below(INHERITED.len());
        read_part(ctx, st, i, a);
    }
}

/// Read inherited attribute `a` of part `i` and check it: exactly when no
/// other client can change it, else within the written-value bounds.
fn read_part(ctx: &Ctx, st: &mut ClientState, i: usize, a: usize) {
    let model = &ctx.model;
    let obj = model.parts[i].obj;
    let (level, idx) = model.transmitter(model.parts[i].l3 as usize, a);
    let foreign = level >= 2 && partition(model, i, ctx.own.len()) != st.id;
    let before = model.value(level, idx, a);
    st.log(Op::Read(obj, a as u8));
    let Ok(got) = st.conn.attr(obj, INHERITED[a]) else {
        return;
    };
    if foreign {
        let after = model.value(level, idx, a);
        st.checker.bounded((level, idx, a), &got, before, after);
    } else {
        st.checker.exact(&got, before);
    }
}

/// Inherited attributes read per part in a design transaction.
pub const TXN_READS_PER_PART: usize = 4;
/// Part-local writes per design transaction.
pub const TXN_WRITES: usize = 2;

/// One design transaction, retried from `begin` on conflict until it
/// commits or the run ends.
fn checkout_txn(ctx: &Ctx, st: &mut ClientState, deadline: Instant) {
    let model = &ctx.model;
    let asm = ctx.assemblies.sample(&mut st.rng);
    let first = asm * PARTS_PER_ASSEMBLY;
    let mut reads = Vec::with_capacity(PARTS_PER_ASSEMBLY * TXN_READS_PER_PART);
    for k in 0..PARTS_PER_ASSEMBLY {
        let mut attrs: Vec<usize> = (0..INHERITED.len()).collect();
        st.rng.shuffle(&mut attrs);
        reads.extend(attrs[..TXN_READS_PER_PART].iter().map(|&a| (first + k, a)));
    }
    let w0 = st.rng.below(PARTS_PER_ASSEMBLY);
    let w1 = (w0 + 1 + st.rng.below(PARTS_PER_ASSEMBLY - 1)) % PARTS_PER_ASSEMBLY;
    let writes: Vec<(usize, i64)> = [w0, w1]
        .iter()
        .map(|&k| {
            st.next_value += 1;
            (first + k, st.next_value)
        })
        .collect();

    let t0 = Instant::now();
    while Instant::now() < deadline {
        st.txn_attempts += 1;
        match txn_attempt(ctx, st, &reads, &writes) {
            Ok(version) => {
                st.txn_commits += 1;
                st.txn_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let mut committed = ctx.committed_p.lock().expect("a client thread panicked");
                for &(i, v) in &writes {
                    let e = committed.entry(i).or_insert((0, model.part_p(i)));
                    if version > e.0 {
                        *e = (version, v);
                    }
                }
                return;
            }
            // The server aborted the transaction; retry from `begin`.
            Err(e) if e.is_conflict() => continue,
            Err(_) => {
                st.conn.abort_quietly();
                return;
            }
        }
    }
}

fn txn_attempt(
    ctx: &Ctx,
    st: &mut ClientState,
    reads: &[(usize, usize)],
    writes: &[(usize, i64)],
) -> ClientResult<u64> {
    let model = &ctx.model;
    st.conn.begin()?;
    for &(i, a) in reads {
        let got = st.conn.attr(model.parts[i].obj, INHERITED[a])?;
        st.checker.exact(&got, model.expected(i, a));
    }
    for &(i, v) in writes {
        st.conn.set_int(model.parts[i].obj, LOCAL, v)?;
    }
    st.conn.commit()
}
