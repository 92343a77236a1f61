//! Seeded property tests of the DAH hash tables against map models:
//! Robin Hood insert/find/traverse/remove and open-addressing
//! insert/contains must match `BTreeMap` semantics through arbitrary
//! operation sequences.

use saga_graph::hash_tables::{OpenEdgeTable, RobinHoodEdgeTable};
use saga_utils::rng::for_each_seed;
use std::collections::{BTreeMap, BTreeSet};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..64;

#[derive(Debug, Clone)]
enum RhOp {
    Insert(u32, u32),
    RemoveVertex(u32),
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn robin_hood_matches_btree_model() {
    for_each_seed(SEEDS, |rng| {
        // Four inserts to every vertex removal.
        let ops = rng.vec(0, 399, |rng| {
            if rng.range(0, 4) < 4 {
                RhOp::Insert(rng.range(0, 19) as u32, rng.range(0, 199) as u32)
            } else {
                RhOp::RemoveVertex(rng.range(0, 19) as u32)
            }
        });
        let mut table = RobinHoodEdgeTable::new();
        let mut model: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        let cluster = |model: &BTreeMap<(u32, u32), f32>, src: u32| -> Vec<(u32, f32)> {
            model.range((src, 0)..=(src, u32::MAX)).map(|(&(_, d), &w)| (d, w)).collect()
        };
        for op in &ops {
            match *op {
                RhOp::Insert(src, dst) => {
                    let w = (src * 31 + dst) as f32;
                    let inserted = table.insert(src, dst, w);
                    let expected = !model.contains_key(&(src, dst));
                    assert_eq!(inserted, expected, "insert ({src}, {dst})");
                    model.entry((src, dst)).or_insert(w);
                }
                RhOp::RemoveVertex(src) => {
                    let mut removed = table.remove_vertex(src);
                    removed.sort_by_key(|&(d, _)| d);
                    assert_eq!(removed, cluster(&model, src), "remove_vertex {src}");
                    model.retain(|&(s, _), _| s != src);
                }
            }
            assert_eq!(table.len(), model.len());
        }
        // Final state: every vertex's cluster matches the model.
        for src in 0..20u32 {
            let mut got = table.neighbors_of(src);
            got.sort_by_key(|&(d, _)| d);
            assert_eq!(got, cluster(&model, src), "final cluster of {src}");
        }
        // Find agrees with the model everywhere.
        for (&(s, d), &w) in &model {
            assert_eq!(table.find(s, d), Some(w));
        }
        assert_eq!(table.find(21, 0), None);
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn open_table_matches_set_model() {
    for_each_seed(SEEDS, |rng| {
        let dsts = rng.vec(0, 599, |rng| rng.range(0, 499) as u32);
        let mut table = OpenEdgeTable::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for &d in &dsts {
            let inserted = table.insert(d, d as f32);
            assert_eq!(inserted, model.insert(d));
        }
        assert_eq!(table.len(), model.len());
        for d in 0..500u32 {
            assert_eq!(table.contains(d), model.contains(&d));
        }
        let mut collected: Vec<u32> = Vec::new();
        table.for_each(&mut |d, _| collected.push(d));
        collected.sort_unstable();
        let expected: Vec<u32> = model.into_iter().collect();
        assert_eq!(collected, expected);
    });
}
