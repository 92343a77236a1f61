//! Integration tests for the architecture-simulation path: driver +
//! probe + cache replay + bandwidth model working together.

use saga_bench_suite::algorithms::{AlgorithmKind, ComputeModelKind};
use saga_bench_suite::core::driver::StreamDriver;
use saga_bench_suite::graph::DataStructureKind;
use saga_bench_suite::stream::profiles::DatasetProfile;

#[test]
fn arch_records_are_internally_consistent() {
    let stream = DatasetProfile::livejournal().scaled(800, 6_000).generate(7);
    let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, stream.num_nodes)
        .algorithm(AlgorithmKind::PageRank)
        .compute_model(ComputeModelKind::Incremental)
        .batch_size(2_000)
        .threads(2)
        .arch_sim()
        .build();
    let outcome = driver.run(&stream);
    assert_eq!(outcome.batches.len(), 3);
    for b in &outcome.batches {
        let arch = b.arch.as_ref().expect("arch sim enabled");
        for (phase, report) in [("update", &arch.update), ("compute", &arch.compute)] {
            // Hit/miss bookkeeping must balance level by level.
            assert_eq!(
                report.accesses,
                report.l1_hits + report.l2_lookups,
                "{phase}: L1 accounting"
            );
            assert_eq!(
                report.l2_lookups,
                report.l2_hits + report.llc_lookups,
                "{phase}: L2 accounting"
            );
            assert_eq!(
                report.llc_lookups,
                report.llc_hits + report.dram_lines,
                "{phase}: LLC accounting"
            );
            assert!(report.remote_lines <= report.dram_lines);
            let per_thread: u64 = report.threads.iter().map(|t| t.accesses).sum();
            assert_eq!(per_thread, report.accesses, "{phase}: thread accounting");
            assert!(report.l2_hit_ratio() >= 0.0 && report.l2_hit_ratio() <= 1.0);
            assert!(report.llc_hit_ratio() >= 0.0 && report.llc_hit_ratio() <= 1.0);
        }
        assert!(arch.update_bw.imbalance >= 1.0 - 1e-9);
        assert!(arch.compute_bw.imbalance >= 1.0 - 1e-9);
    }
}

#[test]
fn compute_phase_reuses_update_phase_lines() {
    // §VI-C: "the compute phase can reuse the edge data freshly brought
    // into LLC by the update phase". With the shared persistent hierarchy,
    // the compute phase's overall hit fraction should comfortably beat a
    // cold-cache replay's, because the update phase just touched the same
    // adjacency data.
    let stream = DatasetProfile::livejournal().scaled(1_000, 8_000).generate(3);
    let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, stream.num_nodes)
        .algorithm(AlgorithmKind::PageRank)
        .compute_model(ComputeModelKind::Incremental)
        .batch_size(4_000)
        .threads(2)
        .arch_sim()
        .build();
    let outcome = driver.run(&stream);
    let later = &outcome.batches[1]; // warmed hierarchy
    let arch = later.arch.as_ref().unwrap();
    let compute_hits =
        arch.compute.l1_hits + arch.compute.l2_hits + arch.compute.llc_hits;
    let hit_fraction = compute_hits as f64 / arch.compute.accesses as f64;
    assert!(
        hit_fraction > 0.5,
        "compute phase should mostly hit a warmed hierarchy, got {hit_fraction:.2}"
    );
}

#[test]
fn hub_only_update_is_more_imbalanced_than_uniform() {
    // §VI-B: the update of heavy-tailed graphs on DAH suffers workload
    // imbalance — the chunk owning the hub does most of the work. Use
    // synthetic extremes so the property is deterministic: a batch whose
    // edges all leave one vertex vs a uniformly spread batch.
    use saga_bench_suite::stream::EdgeStream;
    let imbalance_of = |edges: Vec<saga_bench_suite::graph::Edge>| {
        let stream = EdgeStream {
            name: "synthetic".into(),
            num_nodes: 4_000,
            directed: true,
            edges,
            ops: Vec::new(),
            boundaries: Vec::new(),
            suggested_batch_size: 8_000,
        };
        let mut driver = StreamDriver::builder(DataStructureKind::Dah, stream.num_nodes)
            .algorithm(AlgorithmKind::Bfs)
            .compute_model(ComputeModelKind::Incremental)
            .batch_size(8_000)
            .threads(4)
            .arch_sim()
            .build();
        let outcome = driver.run(&stream);
        outcome.batches[0].arch.as_ref().unwrap().update_bw.imbalance
    };
    let hub_only: Vec<_> = (0..8_000u32)
        .map(|i| saga_bench_suite::graph::Edge::new(0, 1 + i % 3_999, 1.0))
        .collect();
    let uniform: Vec<_> = (0..8_000u32)
        .map(|i| saga_bench_suite::graph::Edge::new(i % 4_000, (i * 7 + 1) % 4_000, 1.0))
        .collect();
    let heavy = imbalance_of(hub_only);
    let balanced = imbalance_of(uniform);
    assert!(
        heavy > balanced + 0.3 && heavy > 1.5,
        "hub-only update imbalance ({heavy:.2}) should clearly exceed uniform ({balanced:.2})"
    );
}
