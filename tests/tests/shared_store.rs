//! Integration tests for the concurrent shared-store read path: parallel
//! scans must agree with their sequential counterparts, and readers racing
//! a writer must never observe a stale cached value (§4.1 view semantics
//! under concurrency).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use ccdb_core::domain::Domain;
use ccdb_core::expr::{BinOp, Expr, PathExpr};
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: vec![
            AttrDef::new("A", Domain::Int),
            AttrDef::new("B", Domain::Int),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: vec!["A".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Impl".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("Local", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c
}

fn setup(n: usize) -> (SharedStore, Surrogate, Vec<Surrogate>) {
    let mut st = ObjectStore::new(catalog()).unwrap();
    let interface = st
        .create_object("If", vec![("A", Value::Int(0)), ("B", Value::Int(0))])
        .unwrap();
    let imps: Vec<Surrogate> = (0..n)
        .map(|k| {
            let i = st
                .create_object("Impl", vec![("Local", Value::Int(k as i64))])
                .unwrap();
            st.bind("AllOf_If", interface, i, vec![]).unwrap();
            i
        })
        .collect();
    (SharedStore::from_store(st), interface, imps)
}

#[test]
fn par_select_agrees_with_sequential_select() {
    let (shared, _, _) = setup(200);
    // Predicate over the *inherited* attribute: every evaluation walks (or
    // hits the memo of) the binding chain under a shared guard.
    let pred = Expr::bin(
        BinOp::Le,
        Expr::Path(PathExpr::self_path(&["A"])),
        Expr::int(0),
    );
    let seq = shared.read(|st| st.select("Impl", &pred)).unwrap();
    assert_eq!(seq.len(), 200);
    for threads in [1, 2, 4, 8, 13] {
        assert_eq!(shared.par_select("Impl", &pred, threads).unwrap(), seq);
    }
}

#[test]
fn par_check_all_agrees_with_sequential() {
    let (shared, _, _) = setup(64);
    let seq = shared.read(|st| st.check_all()).unwrap();
    for threads in [1, 2, 4, 8] {
        assert_eq!(shared.par_check_all(threads).unwrap(), seq);
    }
}

/// Readers race a writer for several thousand iterations. Every read must
/// return a value the writer actually wrote (monotonically increasing), and
/// once the writer is done every reader must see the final value — a stale
/// cache would fail both.
#[test]
fn racing_readers_never_observe_stale_values() {
    let (shared, interface, imps) = setup(8);
    const ROUNDS: i64 = 2_000;
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let writer = {
            let shared = shared.clone();
            let stop = &stop;
            scope.spawn(move || {
                for v in 1..=ROUNDS {
                    shared.set_attr(interface, "A", Value::Int(v)).unwrap();
                }
                stop.store(true, Ordering::Release);
            })
        };
        let mut readers = Vec::new();
        for (r, &imp) in imps.iter().enumerate() {
            let shared = shared.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || {
                let mut last = 0i64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) || reads == 0 {
                    let Value::Int(v) = shared.attr(imp, "A").unwrap() else {
                        panic!("reader {r}: non-int read");
                    };
                    assert!(
                        (0..=ROUNDS).contains(&v),
                        "reader {r} saw unwritten value {v}"
                    );
                    assert!(v >= last, "reader {r} went back in time: {last} then {v}");
                    last = v;
                    reads += 1;
                }
                reads
            }));
        }
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });
    // Quiescent state: everyone resolves the final write.
    for &imp in &imps {
        assert_eq!(shared.attr(imp, "A").unwrap(), Value::Int(ROUNDS));
    }
}

/// The race above, made deterministic: a reader pinned to an old snapshot
/// resolves after a newer write has published and memoizes the old value.
/// Every write must raise the cache watermark — even when the cache is
/// empty — so that stale fill is rejected instead of served to newer
/// readers.
#[test]
fn old_snapshot_fill_is_never_served_to_newer_readers() {
    let (shared, interface, imps) = setup(1);
    let imp = imps[0];
    shared.set_attr(interface, "A", Value::Int(1)).unwrap();
    let old = shared.snapshot();
    shared.set_attr(interface, "A", Value::Int(2)).unwrap();
    assert_eq!(old.attr(imp, "A").unwrap(), Value::Int(1));
    assert_eq!(shared.attr(imp, "A").unwrap(), Value::Int(2));
}

/// Structural writes race reads: bind/unbind toggling must flip the read
/// between Missing and the live value, never anything else.
#[test]
fn bind_unbind_race_yields_only_live_or_missing() {
    let (shared, interface, imps) = setup(4);
    shared.set_attr(interface, "A", Value::Int(42)).unwrap();
    let victim = imps[0];
    thread::scope(|scope| {
        let toggler = {
            let shared = shared.clone();
            scope.spawn(move || {
                for _ in 0..500 {
                    let rel = shared.read(|st| st.binding_of(victim, "AllOf_If")).unwrap();
                    shared.unbind(rel).unwrap();
                    shared.bind("AllOf_If", interface, victim, vec![]).unwrap();
                }
            })
        };
        for _ in 0..2 {
            let shared = shared.clone();
            scope.spawn(move || {
                for _ in 0..2_000 {
                    match shared.attr(victim, "A").unwrap() {
                        Value::Int(42) | Value::Missing => {}
                        other => panic!("stale or corrupt read: {other:?}"),
                    }
                }
            });
        }
        toggler.join().unwrap();
    });
    assert_eq!(shared.attr(victim, "A").unwrap(), Value::Int(42));
}
