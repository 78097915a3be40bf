//! The seeded CAD corpus and its expected-value model.
//!
//! A depth-4 abstraction hierarchy `L0 → L1 → L2 → L3 → Part`:
//!
//! - each interface level `Li` has a local attribute `Bi`; `L0` also holds
//!   `A0..A3`;
//! - `AllOf_Li` passes `A0..A3` and `B0..Bi` through, so a part's
//!   `A*`/`B0` read walks 4 hops and its `B3` read walks 1;
//! - every interface binds a transmitter one level up, and every part an
//!   `L3`, chosen with Zipf popularity (design reuse);
//! - parts are subobjects of `Assembly` complex objects, 8 per assembly —
//!   the paper's composite ↔ component.
//!
//! The generator records every object's parent, so the expected value of
//! every inherited attribute of every part is known exactly. Model values
//! are atomics: a client updates the model after the server acknowledged
//! its write, and the checker compares against it.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use ccdb_core::schema::Catalog;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};

use crate::rng::{Rng, Zipf};

/// Inherited attributes of a part, in model order.
pub const INHERITED: [&str; 8] = ["A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3"];
/// The part-local attribute.
pub const LOCAL: &str = "P";
/// Subobject class of an assembly holding its parts.
pub const PARTS_CLASS: &str = "Parts";
/// Parts per assembly.
pub const PARTS_PER_ASSEMBLY: usize = 8;
/// Interface levels.
pub const LEVELS: usize = 4;
/// Zipf exponent of transmitter reuse: rank⁻¹ weights, as in the
/// reuse-DAG generator of the E9 storage experiment
/// (`crates/bench/src/workload.rs`, `zipf_sample`). No measured CAD
/// traffic fixes it; it is the repository's one precedent.
pub const REUSE_ZIPF: f64 = 1.0;
/// Interfaces of level `Li` per interface of level `Li-1`, and parts per
/// `L3` interface. An assumption with no measured source: the same fan-out
/// as the parts of an assembly. It sets the size of a transmitter's
/// inheritor closure, which `core.inheritors_per_b2_write` and
/// `core.inheritors_per_b3_write` report.
pub const LEVEL_FANOUT: usize = 8;

/// Attribute slots held by `L0` objects (`A0..A3`, `B0`).
const L0_SLOTS: usize = 5;

/// The inheritance-relationship type binding an inheritor to level `l`.
pub fn rel_of_level(l: usize) -> &'static str {
    ["AllOf_L0", "AllOf_L1", "AllOf_L2", "AllOf_L3"][l]
}

/// Interface type name of level `l`.
pub fn type_of_level(l: usize) -> &'static str {
    ["L0", "L1", "L2", "L3"][l]
}

/// The level whose objects hold inherited attribute `a` (an index into
/// [`INHERITED`]) as a local attribute.
pub fn provider_level(a: usize) -> usize {
    match a {
        0..=4 => 0,
        5 => 1,
        6 => 2,
        _ => 3,
    }
}

/// The corpus schema in the paper's DDL.
pub fn schema_source() -> String {
    let mut src = String::from(
        "obj-type L0 =\n    attributes:\n        A0, A1, A2, A3, B0: integer;\nend L0;\n",
    );
    for l in 0..LEVELS {
        let passed: Vec<&str> = INHERITED
            .iter()
            .enumerate()
            .filter(|(a, _)| provider_level(*a) <= l)
            .map(|(_, n)| *n)
            .collect();
        src.push_str(&format!(
            "inher-rel-type AllOf_L{l} =\n    transmitter: object-of-type L{l};\n    \
             inheritor: object;\n    inheriting: {};\nend AllOf_L{l};\n",
            passed.join(", ")
        ));
        if l + 1 < LEVELS {
            let n = l + 1;
            src.push_str(&format!(
                "obj-type L{n} =\n    inheritor-in: AllOf_L{l};\n    attributes:\n        \
                 B{n}: integer;\nend L{n};\n"
            ));
        }
    }
    src.push_str(
        "obj-type Part =\n    inheritor-in: AllOf_L3;\n    attributes:\n        P: integer;\n\
         end Part;\n\
         obj-type Assembly =\n    attributes:\n        Tag: integer;\n    \
         types-of-subclasses:\n        Parts: Part;\nend Assembly;\n",
    );
    src
}

/// Object counts per kind for a target store size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Interface objects per level.
    pub levels: [usize; LEVELS],
    /// Parts (a multiple of [`PARTS_PER_ASSEMBLY`]).
    pub parts: usize,
}

impl Sizes {
    /// Sizes whose total object count (interfaces, assemblies, parts and
    /// one inheritance-relationship object per binding) is close to and
    /// at most `objects`. Each level has [`LEVEL_FANOUT`] times fewer
    /// objects than the level below.
    pub fn for_objects(objects: usize) -> Sizes {
        let mut parts = (objects as f64 / 2.42) as usize / PARTS_PER_ASSEMBLY * PARTS_PER_ASSEMBLY;
        loop {
            let s = Sizes::with_parts(parts.max(PARTS_PER_ASSEMBLY));
            if s.objects() <= objects || parts <= PARTS_PER_ASSEMBLY {
                return s;
            }
            parts -= PARTS_PER_ASSEMBLY;
        }
    }

    fn with_parts(parts: usize) -> Sizes {
        let l3 = (parts / LEVEL_FANOUT).max(1);
        let l2 = (l3 / LEVEL_FANOUT).max(1);
        let l1 = (l2 / LEVEL_FANOUT).max(1);
        let l0 = (l1 / LEVEL_FANOUT).max(1);
        Sizes {
            levels: [l0, l1, l2, l3],
            parts,
        }
    }

    /// Assemblies.
    pub fn assemblies(&self) -> usize {
        self.parts / PARTS_PER_ASSEMBLY
    }

    /// Total objects the generator creates.
    pub fn objects(&self) -> usize {
        let bound_ifaces: usize = self.levels[1..].iter().sum();
        self.levels[0] + 2 * bound_ifaces + self.assemblies() + 2 * self.parts
    }
}

/// One part of the corpus.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    /// The part object (a subobject of its assembly).
    pub obj: Surrogate,
    /// Index of its `L3` transmitter.
    pub l3: u32,
}

/// The expected-value model of a generated corpus.
pub struct Model {
    /// Interface surrogates per level.
    pub ifaces: [Vec<Surrogate>; LEVELS],
    /// Parent (transmitter) index one level up; empty for `L0`.
    pub parent: [Vec<u32>; LEVELS],
    /// Local attribute values per level: `L0` holds 5 slots per object
    /// (`A0..A3`, `B0`), the other levels one (`Bi`).
    values: [Vec<AtomicI64>; LEVELS],
    /// Parts in assembly order: assembly `k` owns `parts[8k..8k+8]`.
    pub parts: Vec<Part>,
    /// Part-local `P` values, indexed like `parts`.
    part_p: Vec<AtomicI64>,
    /// Assembly surrogates.
    pub assemblies: Vec<Surrogate>,
}

impl Model {
    /// Index of part `i`'s ancestor at `level`.
    pub fn ancestor(&self, i: usize, level: usize) -> usize {
        self.ancestor_of_l3(self.parts[i].l3 as usize, level)
    }

    /// Index of the `level` ancestor of the `L3` interface `l3`.
    pub fn ancestor_of_l3(&self, l3: usize, level: usize) -> usize {
        let mut idx = l3;
        for l in (level + 1..LEVELS).rev() {
            idx = self.parent[l][idx] as usize;
        }
        idx
    }

    fn slot(&self, level: usize, idx: usize, a: usize) -> &AtomicI64 {
        if level == 0 {
            &self.values[0][idx * L0_SLOTS + a]
        } else {
            &self.values[level][idx]
        }
    }

    /// The transmitter `(level, index)` whose local value a read of
    /// inherited attribute `a` through an `L3` child `l3` returns.
    pub fn transmitter(&self, l3: usize, a: usize) -> (usize, usize) {
        let level = provider_level(a);
        (level, self.ancestor_of_l3(l3, level))
    }

    /// Current model value of inherited attribute `a` read through `l3`.
    pub fn expected_via(&self, l3: usize, a: usize) -> i64 {
        let (level, idx) = self.transmitter(l3, a);
        self.slot(level, idx, a).load(Ordering::Acquire)
    }

    /// Current model value of inherited attribute `a` of part `i`.
    pub fn expected(&self, i: usize, a: usize) -> i64 {
        self.expected_via(self.parts[i].l3 as usize, a)
    }

    /// Current model value of a transmitter's local attribute `a`.
    pub fn value(&self, level: usize, idx: usize, a: usize) -> i64 {
        self.slot(level, idx, a).load(Ordering::Acquire)
    }

    /// Record an acknowledged transmitter write.
    pub fn set_value(&self, level: usize, idx: usize, a: usize, v: i64) {
        self.slot(level, idx, a).store(v, Ordering::Release);
    }

    /// Current model value of part `i`'s local `P`.
    pub fn part_p(&self, i: usize) -> i64 {
        self.part_p[i].load(Ordering::Acquire)
    }

    /// Record an acknowledged write of part `i`'s local `P`.
    pub fn set_part_p(&self, i: usize, v: i64) {
        self.part_p[i].store(v, Ordering::Release);
    }
}

/// A generated corpus: the populated store, its model, and set-up timings.
pub struct Corpus {
    /// The populated store (not yet shared).
    pub store: ObjectStore,
    /// Expected values.
    pub model: Model,
    /// Wall time of `ccdb_lang::compile_str` on the schema, in ms.
    pub compile_ms: f64,
    /// Wall time of object creation and binding, in µs per object.
    pub populate_us_per_obj: f64,
}

/// Initial attribute values are drawn below this; written values only
/// grow from there.
const INITIAL_VALUE_RANGE: usize = 1_000_000;

/// Generate the corpus for a target store size and seed.
pub fn generate(objects: usize, seed: u64) -> Corpus {
    let t0 = Instant::now();
    let mut catalog = Catalog::new();
    ccdb_lang::compile_str(&schema_source(), &mut catalog).expect("corpus schema compiles");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    catalog.validate().expect("corpus schema validates");

    let sizes = Sizes::for_objects(objects);
    let mut rng = Rng::new(seed);
    let mut store = ObjectStore::new(catalog).expect("catalog is valid");
    let t1 = Instant::now();

    let mut ifaces: [Vec<Surrogate>; LEVELS] = Default::default();
    let mut parent: [Vec<u32>; LEVELS] = Default::default();
    let mut values: [Vec<AtomicI64>; LEVELS] = Default::default();
    for l in 0..LEVELS {
        let n = sizes.levels[l];
        let zipf = (l > 0).then(|| Zipf::new(sizes.levels[l - 1], REUSE_ZIPF, &mut rng));
        for _ in 0..n {
            let obj = if l == 0 {
                let vals: Vec<i64> = (0..L0_SLOTS)
                    .map(|_| rng.below(INITIAL_VALUE_RANGE) as i64)
                    .collect();
                let attrs = INHERITED[..L0_SLOTS]
                    .iter()
                    .zip(&vals)
                    .map(|(name, v)| (*name, Value::Int(*v)))
                    .collect();
                values[0].extend(vals.into_iter().map(AtomicI64::new));
                store.create_object("L0", attrs).expect("create L0")
            } else {
                let v = rng.below(INITIAL_VALUE_RANGE) as i64;
                values[l].push(AtomicI64::new(v));
                let name = INHERITED[4 + l];
                let obj = store
                    .create_object(type_of_level(l), vec![(name, Value::Int(v))])
                    .expect("create interface");
                let p = zipf.as_ref().unwrap().sample(&mut rng);
                store
                    .bind(rel_of_level(l - 1), ifaces[l - 1][p], obj, vec![])
                    .expect("bind interface");
                parent[l].push(p as u32);
                obj
            };
            ifaces[l].push(obj);
        }
    }

    let l3_zipf = Zipf::new(sizes.levels[LEVELS - 1], REUSE_ZIPF, &mut rng);
    let mut parts = Vec::with_capacity(sizes.parts);
    let mut part_p = Vec::with_capacity(sizes.parts);
    let mut assemblies = Vec::with_capacity(sizes.assemblies());
    for k in 0..sizes.assemblies() {
        let asm = store
            .create_object("Assembly", vec![("Tag", Value::Int(k as i64))])
            .expect("create assembly");
        assemblies.push(asm);
        for _ in 0..PARTS_PER_ASSEMBLY {
            let p = rng.below(INITIAL_VALUE_RANGE) as i64;
            let obj = store
                .create_subobject(asm, PARTS_CLASS, vec![(LOCAL, Value::Int(p))])
                .expect("create part");
            let l3 = l3_zipf.sample(&mut rng);
            store
                .bind(
                    rel_of_level(LEVELS - 1),
                    ifaces[LEVELS - 1][l3],
                    obj,
                    vec![],
                )
                .expect("bind part");
            parts.push(Part { obj, l3: l3 as u32 });
            part_p.push(AtomicI64::new(p));
        }
    }
    let populate_us_per_obj = t1.elapsed().as_secs_f64() * 1e6 / store.object_count().max(1) as f64;

    Corpus {
        store,
        model: Model {
            ifaces,
            parent,
            values,
            parts,
            part_p,
            assemblies,
        },
        compile_ms,
        populate_us_per_obj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_fit_the_target() {
        for n in [2_000, 100_000, 1_000_000] {
            let s = Sizes::for_objects(n);
            assert!(
                s.objects() <= n && s.objects() > n * 9 / 10,
                "{s:?} for {n}"
            );
        }
    }

    #[test]
    fn generated_store_matches_model() {
        let c = generate(3_000, 5);
        assert_eq!(c.store.object_count(), Sizes::for_objects(3_000).objects());
        for (i, part) in c.model.parts.iter().enumerate() {
            for (a, name) in INHERITED.iter().enumerate() {
                assert_eq!(
                    c.store.attr(part.obj, name).unwrap(),
                    Value::Int(c.model.expected(i, a))
                );
            }
            assert_eq!(
                c.store.attr(part.obj, LOCAL).unwrap(),
                Value::Int(c.model.part_p(i))
            );
        }
    }

    #[test]
    fn a_reads_walk_four_hops_and_b3_one() {
        let c = generate(3_000, 9);
        let p = c.model.parts[0].obj;
        let hops = |a: &str| c.store.resolution_chain(p, a).unwrap().len() - 1;
        assert_eq!((hops("A0"), hops("B0"), hops("B3")), (4, 4, 1));
    }
}
