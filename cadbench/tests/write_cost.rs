//! Write cost against store size: `SharedStore::write` per write kind on
//! the corpus at 10⁵ and at 10⁶ objects, through the same probe as the
//! `core.write_*` rows of a traced run. It builds a million-object store,
//! so it is ignored by default; run it with
//!
//! ```text
//! cargo test --release --offline --manifest-path cadbench/Cargo.toml \
//!     --test write_cost -- --ignored --nocapture
//! ```

use cadbench::layers;
use cadbench::rng::Rng;
use cadbench::workload::{setup, Workload};

#[test]
#[ignore = "builds a 10^6-object store; prints the write-cost table"]
fn write_cost_grows_with_store_size() {
    println!("| objects | empty | local | B3 | B2 | create+bind | B3 inheritors | B2 inheritors |");
    for (objects, samples) in [(100_000, 200), (1_000_000, 40)] {
        let bench = setup(Workload::Release, objects, 1).expect("set-up");
        let mut rng = Rng::new(objects as u64);
        let w = layers::writes(&bench.store, &bench.ctx, &mut rng, samples);
        println!(
            "| {objects} | {:.0} µs | {:.0} µs | {:.0} µs | {:.0} µs | {:.0} µs | {} | {} |",
            w.empty_us,
            w.local_us,
            w.b3_us,
            w.b2_us,
            w.create_bind_us,
            w.b3_inheritors,
            w.b2_inheritors
        );
        // Every written transmitter feeds at least one part.
        assert!(w.b2_inheritors >= 1.0 && w.b3_inheritors >= 1.0, "{w:?}");
        bench.shutdown();
    }
}
