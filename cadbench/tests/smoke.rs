//! Tiny-size runs of every workload, and the checker against fabricated
//! bad answers.

use cadbench::corpus::{self, INHERITED};
use cadbench::workload::{setup, Workload};
use cadbench::{run, Args};
use ccdb_core::Value;

/// Objects in the tiny corpus.
const TINY: usize = 3_000;

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        objects: Some(TINY),
        setup_reps: 2,
    }
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for w in Workload::ALL {
        let out = run(&tiny(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            out.correct,
            "{}: {} of {} failed",
            w.name(),
            out.failed,
            out.attempted
        );
        assert_eq!(out.failed, 0);
        assert_eq!(out.extra.get("failed_ratio"), Some(0.0));
        assert!(out.extra.get("ops_per_s").unwrap() > 0.0, "{}", w.name());
        assert!(
            out.metrics.get("read_p50_us").unwrap() > 0.0,
            "{}",
            w.name()
        );
        assert!(
            out.metrics.get("write_p50_us").unwrap() > 0.0,
            "{}",
            w.name()
        );
        assert!(out.json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn release_reads_are_checked_for_staleness() {
    // Reads through a transmitter the other client writes go through the
    // bounded check, the only one that can see a stale value.
    let out = run(&tiny(Workload::Release, false)).expect("release");
    assert_eq!(out.extra.get("check.stale_reads"), Some(0.0));
    let bounded = out.extra.get("check.bounded_reads").unwrap();
    assert!(bounded > 0.0, "{bounded}");
}

#[test]
fn traced_run_reports_layers_and_coverage() {
    let out = run(&tiny(Workload::Checkout, true)).expect("traced checkout");
    assert_eq!(out.failed, 0);
    for name in [
        "trace.coverage_read",
        "trace.coverage_write",
        "trace.coverage_txn",
    ] {
        let c = out
            .extra
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let gap = out.metrics.get(&format!("{name}_gap")).expect("gap row");
        assert!(c > 0.0, "{name} = {c}");
        assert!((gap - (1.0 - c).abs()).abs() < 1e-9, "{name}: {gap} vs {c}");
    }
    for name in [
        "trace.overhead_ratio",
        "core.attr_cold_ns",
        "txn.locks_per_txn",
        "proto.bytes_per_op",
    ] {
        let v = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(v > 0.0, "{name} = {v}");
    }
    // §6 lock inheritance: every read S-locks its whole resolution chain,
    // so a design transaction holds far more locks than it reads values.
    let locks = out.metrics.get("txn.locks_per_txn").unwrap();
    assert!(locks > (corpus::PARTS_PER_ASSEMBLY * 4) as f64, "{locks}");
}

#[test]
fn final_sweep_flags_a_value_changed_behind_the_model() {
    let bench = setup(Workload::Browse, TINY, 3).expect("set-up");
    assert_eq!(bench.final_sweep(), 0);
    // Change one transmitter's B3 without telling the model: every part
    // inheriting through it now reads a value the model calls wrong.
    let model = &bench.ctx.model;
    let l3 = model.parts[0].l3 as usize;
    let inheritors = model.parts.iter().filter(|p| p.l3 as usize == l3).count() as u64;
    let b3 = INHERITED.len() - 1;
    let fabricated = model.value(corpus::LEVELS - 1, l3, b3) + 5;
    bench
        .store
        .set_attr(
            model.ifaces[corpus::LEVELS - 1][l3],
            INHERITED[b3],
            Value::Int(fabricated),
        )
        .expect("set B3");
    assert_eq!(bench.final_sweep(), inheritors);
    bench.shutdown();
}
