//! CAD-scale serving benchmark for ccdb.
//!
//! One invocation generates a seeded CAD corpus ([`corpus`]), starts an
//! in-process `ccdb_server::Server` over a `SharedStore` built from it,
//! drives one named [`workload`] through `ccdb_server::Client` over v2
//! framing on loopback, checks every answer against the generator's model
//! ([`check`]), and reports metrics ([`stats`]).
//!
//! Untraced (`--trace 0`) it reports the end-to-end metrics. Traced
//! (`--trace 1`) it alternates untraced and traced phases, then times each
//! layer alone through its public functions ([`layers`]) and reports the
//! per-layer rows, the coverage sums and the cost of tracing. Every number
//! comes from the benchmark's own clocks and from the per-instance
//! `ObjectStore::stats()` of the store it serves, never from process-global
//! metrics.

pub mod check;
pub mod corpus;
pub mod layers;
pub mod rng;
pub mod stats;
pub mod wire;
pub mod workload;

use ccdb_core::store::StoreStats;

use crate::check::Checker;
use crate::rng::Rng;
use crate::stats::{median, quantile, ratio, Metrics};
use crate::wire::{ConnLog, Spans};
use crate::workload::{setup, Bench, Workload, TXN_READS_PER_PART, TXN_WRITES};

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run with per-layer replay.
    pub trace: bool,
    /// Store size override for tests; `None` = the workload's.
    pub objects: Option<usize>,
    /// Set-ups per invocation; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Set-ups per invocation of the command.
pub const SETUP_REPS: usize = 5;

/// The result of one invocation.
pub struct Outcome {
    /// No failed operation and no wrong or stale answer.
    pub correct: bool,
    /// Operations attempted (wire requests plus final-sweep checks).
    pub attempted: u64,
    /// Failed operations, wrong answers and stale answers.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Further figures printed for people, not in the result line.
    pub extra: Metrics,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Measurements of one kind of phase (untraced or traced), summed.
#[derive(Default)]
struct Agg {
    secs: f64,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    txn_us: Vec<f64>,
    attempted: u64,
    completed: u64,
    failed: u64,
    overloaded: u64,
    txn_attempts: u64,
    txn_commits: u64,
    spans: Spans,
    /// Resolution-cache hits and misses of the store during the phases.
    hits: u64,
    misses: u64,
}

impl Agg {
    fn add_log(&mut self, log: ConnLog) {
        self.read_us.extend(log.read_us);
        self.write_us.extend(log.write_us);
        self.attempted += log.attempted;
        self.completed += log.completed;
        self.failed += log.failed;
        self.overloaded += log.overloaded_retries;
        let s = &mut self.spans;
        s.encode_ns.extend(log.spans.encode_ns);
        s.rtt_us.extend(log.spans.rtt_us);
        s.decode_ns.extend(log.spans.decode_ns);
        s.req_frames.extend(log.spans.req_frames);
        s.resp_frames.extend(log.spans.resp_frames);
        s.bytes += log.spans.bytes;
    }

    fn add_stats(&mut self, before: StoreStats, after: StoreStats) {
        self.hits += after.rescache_hits - before.rescache_hits;
        self.misses += after.rescache_misses - before.rescache_misses;
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.completed as f64, self.secs)
    }
}

/// Untraced measurement windows of a `--trace 0` run.
const WINDOWS: usize = 10;

/// Run one phase and fold its measurements into `agg`.
fn phase(bench: &mut Bench, secs: f64, traced: bool, agg: &mut Agg) {
    let before = bench.store.read(|s| s.stats());
    agg.secs += bench.run_phase(secs, traced);
    let after = bench.store.read(|s| s.stats());
    agg.add_stats(before, after);
    for c in bench.clients.iter_mut() {
        agg.add_log(c.conn.take_log());
        agg.txn_us.append(&mut c.txn_us);
        agg.txn_attempts += std::mem::take(&mut c.txn_attempts);
        agg.txn_commits += std::mem::take(&mut c.txn_commits);
    }
}

/// Resident set size of this process, MB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one invocation.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let objects = args.objects.unwrap_or(args.workload.objects());
    let reps = args.setup_reps.max(1);
    let mut setup_s = Vec::new();
    let mut compile_ms = Vec::new();
    let mut populate = Vec::new();
    // Untraced windows: medians and throughput are the median over them,
    // so a burst of interference moves one window, not the result.
    let mut plain: Vec<Agg> = Vec::new();
    let mut traced = Agg::default();
    let mut checker = Checker::new();
    let (mut sweep_wrong, mut swept) = (0, 0);
    let (mut rss, mut store_objects) = (None, 0);
    let mut kept = None;
    for rep in 0..reps {
        // Each set-up draws its own corpus and operation stream from the
        // seed. An untraced run spreads its windows over all of them, so
        // the few Zipf-popular transmitters of one corpus do not decide
        // the result. A traced run measures the last set-up only.
        let seed = args.seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut bench = setup(args.workload, objects, seed).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(bench.setup_s);
        compile_ms.push(bench.compile_ms);
        populate.push(bench.populate_us_per_obj);
        if args.trace && rep + 1 < reps {
            bench.shutdown();
            continue;
        }
        if args.trace {
            // Alternate untraced and traced quarters so drift hits both alike.
            for k in 0..4 {
                if k % 2 == 0 {
                    plain.push(Agg::default());
                    phase(
                        &mut bench,
                        args.seconds / 4.0,
                        false,
                        plain.last_mut().expect("window"),
                    );
                } else {
                    phase(&mut bench, args.seconds / 4.0, true, &mut traced);
                }
            }
        } else {
            let windows = (rep + 1) * WINDOWS / reps - rep * WINDOWS / reps;
            for _ in 0..windows {
                plain.push(Agg::default());
                phase(
                    &mut bench,
                    args.seconds / WINDOWS as f64,
                    false,
                    plain.last_mut().expect("window"),
                );
            }
        }
        // After the first measured set-up: later ones also hold what the
        // allocator kept of the set-ups torn down before them.
        rss.get_or_insert_with(rss_mb);
        for c in &bench.clients {
            checker.merge(&c.checker);
        }
        sweep_wrong += bench.final_sweep();
        let parts = bench.ctx.model.parts.len()
            + bench
                .clients
                .iter()
                .map(|c| c.new_parts.len())
                .sum::<usize>();
        swept += parts * (corpus::INHERITED.len() + 1);
        store_objects = bench.store.read(|s| s.object_count());
        if args.trace {
            kept = Some(bench);
        } else {
            bench.shutdown();
        }
    }
    // Per-window figures go to stderr for people; the result line holds
    // only their medians.
    for (k, a) in plain.iter().enumerate() {
        eprintln!(
            "window {k}: ops_per_s {:.0} read_p50_us {:.1} read_p99_us {:.1} write_p50_us {:.1} write_p99_us {:.1}",
            a.ops_per_s(),
            quantile(&a.read_us, 0.5),
            quantile(&a.read_us, 0.99),
            quantile(&a.write_us, 0.5),
            quantile(&a.write_us, 0.99)
        );
    }
    let over = |f: &dyn Fn(&Agg) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Agg) -> u64| plain.iter().map(f).sum::<u64>();
    let attempted = total(&|a| a.attempted) + traced.attempted + swept as u64;
    let failed = total(&|a| a.failed) + traced.failed + checker.bad() + sweep_wrong;
    let failed_ratio = ratio(failed as f64, attempted as f64);
    let checkout = args.workload == Workload::Checkout;

    // Gated end-to-end metrics: those that hold still when the host
    // steals CPU from a small VM. Throughput and p99 move several-fold
    // with host scheduling, so they are reported beside them, ungated.
    let mut e2e = Metrics::default();
    e2e.add("setup_s", median(&setup_s), "s");
    e2e.add("read_p50_us", over(&|a| quantile(&a.read_us, 0.5)), "us");
    let write_p50 = over(&|a| quantile(&a.write_us, 0.5));
    e2e.add("write_p50_us", write_p50, "us");
    e2e.add("rss_mb", rss.unwrap_or(0.0), "MB");
    let mut serving = Metrics::default();
    serving.add("ops_per_s", over(&|a| a.ops_per_s()), "1/s");
    // p99 pools every window: a window alone has too few writes for it.
    let pooled =
        |f: &dyn Fn(&Agg) -> &Vec<f64>| plain.iter().flat_map(f).copied().collect::<Vec<_>>();
    serving.add(
        "read_p99_us",
        quantile(&pooled(&|a| &a.read_us), 0.99),
        "us",
    );
    serving.add(
        "write_p99_us",
        quantile(&pooled(&|a| &a.write_us), 0.99),
        "us",
    );
    let txn_us = pooled(&|a| &a.txn_us);

    let mut extra = Metrics::default();
    extra.add("failed_ratio", failed_ratio, "ratio");
    extra.add(
        "check.wrong_values",
        (checker.wrong_values + sweep_wrong) as f64,
        "count",
    );
    extra.add("check.stale_reads", checker.stale_reads as f64, "count");
    extra.add("check.bounded_reads", checker.bounded_reads as f64, "count");
    let txn_p50 = quantile(&txn_us, 0.5);
    let txn_p99 = quantile(&txn_us, 0.99);
    extra.add("txn_p50_us", txn_p50, "us");
    extra.add("txn_p99_us", txn_p99, "us");
    extra.add("windows", plain.len() as f64, "count");
    extra.add(
        "samples.read",
        total(&|a| a.read_us.len() as u64) as f64,
        "count",
    );
    extra.add(
        "samples.write",
        total(&|a| a.write_us.len() as u64) as f64,
        "count",
    );
    extra.add(
        "samples.txn",
        total(&|a| a.txn_us.len() as u64) as f64,
        "count",
    );
    extra.add("store.objects", store_objects as f64, "count");

    let Some(mut bench) = kept else {
        extra.0.extend(serving.0);
        return Ok(Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: e2e,
            extra,
        });
    };

    // Per-layer probes, after the sweep, on the same store and server.
    let mut rng = Rng::new(args.seed ^ 0x7AB1E);
    let store = bench.store.clone();
    let ctx = std::sync::Arc::clone(&bench.ctx);
    let codec = layers::codec(&traced.spans.req_frames, &traced.spans.resp_frames);
    let pin_ns = layers::snapshot_pin_ns(&store);
    let (warm_ns, cold_ns, hops_per_cold) = layers::attr_warm_cold_ns(&store, &ctx, &mut rng);
    let ops: Vec<_> = bench.clients.iter().flat_map(|c| c.ops.clone()).collect();
    let (replay_read_us, replay_write_us) = layers::replay(&store, &ops);
    let write_samples = if objects >= 1_000_000 { 40 } else { 200 };
    let writes = layers::writes(&store, &ctx, &mut rng, write_samples);
    let txn = layers::txn(&store, &ctx, &mut rng, 100);
    let (inline_us, queued_us) = layers::ping_rtts(bench.clients[0].conn.client(), 2_000);
    let handoff_ns = layers::queue_handoff_ns(1_000);
    bench.shutdown();

    let traced_ops = traced.completed as f64;
    let read_p50 = e2e.get("read_p50_us").unwrap_or(0.0);
    let codec_us = codec.pair_us();
    // Read path: codec + core read + inline dispatch. In-transaction reads
    // (checkout) and every write take the worker hop instead.
    let (core_read, read_rtt) = if checkout {
        (txn.read_attr_us, queued_us)
    } else {
        (replay_read_us, inline_us)
    };
    let core_write = if checkout {
        txn.set_attr_us
    } else {
        replay_write_us
    };
    let txn_verbs = (2 + corpus::PARTS_PER_ASSEMBLY * TXN_READS_PER_PART + TXN_WRITES) as f64;
    let txn_path = txn_verbs * (codec_us + queued_us)
        + txn.begin_us
        + (corpus::PARTS_PER_ASSEMBLY * TXN_READS_PER_PART) as f64 * txn.read_attr_us
        + TXN_WRITES as f64 * txn.set_attr_us
        + txn.commit_us;

    let mut m = serving;
    // What the transmitter write rows depend on: a property of the
    // corpus, with no better direction, so printed but not a result row.
    extra.add(
        "core.inheritors_per_b2_write",
        writes.b2_inheritors,
        "count",
    );
    extra.add(
        "core.inheritors_per_b3_write",
        writes.b3_inheritors,
        "count",
    );
    m.add("lang.compile_ms", median(&compile_ms), "ms");
    m.add("core.populate_us_per_obj", median(&populate), "us");
    m.add("core.snapshot_pin_ns", pin_ns, "ns");
    m.add("core.attr_warm_ns", warm_ns, "ns");
    m.add("core.attr_cold_ns", cold_ns, "ns");
    m.add("core.hops_per_cold_read", hops_per_cold, "count");
    m.add(
        "core.rescache_hit_ratio",
        ratio(traced.hits as f64, (traced.hits + traced.misses) as f64),
        "ratio",
    );
    m.add(
        "core.invalidations_per_write",
        writes.invalidations_per_write,
        "count",
    );
    m.add("core.write_empty_us", writes.empty_us, "us");
    m.add("core.write_local_us", writes.local_us, "us");
    m.add("core.write_transmitter_us", writes.transmitter_us, "us");
    m.add("core.write_b2_us", writes.b2_us, "us");
    m.add("core.write_b3_us", writes.b3_us, "us");
    m.add("core.write_create_bind_us", writes.create_bind_us, "us");
    m.add("core.replay_read_us", replay_read_us, "us");
    m.add("core.replay_write_us", replay_write_us, "us");
    m.add("proto.req_encode_ns", codec.req_encode_ns, "ns");
    m.add("proto.req_decode_ns", codec.req_decode_ns, "ns");
    m.add("proto.resp_encode_ns", codec.resp_encode_ns, "ns");
    m.add("proto.resp_decode_ns", codec.resp_decode_ns, "ns");
    m.add(
        "proto.bytes_per_op",
        ratio(traced.spans.bytes as f64, traced_ops),
        "count",
    );
    m.add("server.inline_rtt_us", inline_us, "us");
    m.add("server.queued_rtt_us", queued_us, "us");
    m.add("queue.handoff_ns", handoff_ns, "ns");
    m.add(
        "server.overloaded_retries",
        (total(&|a| a.overloaded) + traced.overloaded) as f64,
        "count",
    );
    m.add("span.encode_ns", median(&traced.spans.encode_ns), "ns");
    m.add("span.rtt_us", median(&traced.spans.rtt_us), "us");
    m.add("span.decode_ns", median(&traced.spans.decode_ns), "ns");
    m.add("txn.begin_us", txn.begin_us, "us");
    m.add("txn.read_attr_us", txn.read_attr_us, "us");
    m.add("txn.commit_us", txn.commit_us, "us");
    m.add("txn.locks_per_txn", txn.locks_per_txn, "count");
    m.add(
        "txn.commit_ratio",
        ratio(traced.txn_commits as f64, traced.txn_attempts as f64),
        "ratio",
    );
    m.add("txn_p50_us", txn_p50, "us");
    m.add("txn_p99_us", txn_p99, "us");
    m.add("failed_ratio", failed_ratio, "ratio");
    m.add(
        "check.wrong_values",
        (checker.wrong_values + sweep_wrong) as f64,
        "count",
    );
    m.add("check.stale_reads", checker.stale_reads as f64, "count");
    // Coverage is ideally 1: below, time no probe holds; above, work
    // counted twice. The result line carries the distance from 1, which
    // has a direction (lower is better); the coverage itself is printed.
    let coverage = [
        (
            "trace.coverage_read",
            "trace.coverage_read_gap",
            Some(ratio(codec_us + core_read + read_rtt, read_p50)),
        ),
        (
            "trace.coverage_write",
            "trace.coverage_write_gap",
            Some(ratio(codec_us + core_write + queued_us, write_p50)),
        ),
        (
            "trace.coverage_txn",
            "trace.coverage_txn_gap",
            checkout.then(|| ratio(txn_path, txn_p50)),
        ),
    ];
    // Where no transactions run, both read 0, like the other txn rows.
    for (name, gap_name, c) in coverage {
        extra.add(name, c.unwrap_or(0.0), "ratio");
        m.add(gap_name, c.map_or(0.0, |c| (1.0 - c).abs()), "ratio");
    }
    m.add(
        "trace.overhead_ratio",
        ratio(traced.ops_per_s(), m.get("ops_per_s").unwrap_or(0.0)),
        "ratio",
    );
    extra.0.extend(e2e.0);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        extra,
    })
}
