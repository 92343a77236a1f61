//! Integration tests for the extension features working together: the
//! SNAP loader feeding the driver, pipelining agreeing with interleaving,
//! and deletions composing with analytics.

use saga_bench_suite::algorithms::{AlgorithmKind, ComputeModelKind, VertexValues};
use saga_bench_suite::core::driver::StreamDriver;
use saga_bench_suite::core::pipelined::run_pipelined;
use saga_bench_suite::graph::{build_deletable_graph, DataStructureKind};
use saga_bench_suite::stream::loader::load_snap_text;
use saga_bench_suite::stream::profiles::DatasetProfile;
use saga_bench_suite::utils::parallel::ThreadPool;

#[test]
fn loader_to_driver_end_to_end() {
    // Write a small SNAP-format file, load it, stream it.
    let dir = std::env::temp_dir().join("saga-ext-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.txt");
    let mut body = String::from("# test graph\n");
    for i in 0..200u32 {
        body.push_str(&format!("{}\t{}\n", i * 7 % 100 + 1000, i * 13 % 100 + 1000));
    }
    std::fs::write(&path, &body).unwrap();

    let stream = load_snap_text(&path, true, 9).unwrap();
    assert!(stream.num_nodes <= 100);
    assert_eq!(stream.edges.len(), 200);

    let mut driver = StreamDriver::builder(DataStructureKind::Dah, stream.num_nodes)
        .algorithm(AlgorithmKind::Cc)
        .compute_model(ComputeModelKind::Incremental)
        .batch_size(50)
        .threads(2)
        .build();
    let outcome = driver.run(&stream);
    assert_eq!(outcome.batches.len(), 4);
    assert!(outcome.total_edges > 0);
}

#[test]
fn pipelined_and_interleaved_agree_on_every_algorithm() {
    let stream = DatasetProfile::wiki().scaled(300, 2_400).generate(13);
    for alg in [AlgorithmKind::Bfs, AlgorithmKind::Cc, AlgorithmKind::Sswp] {
        let pipelined = run_pipelined(
            &stream,
            DataStructureKind::AdjacencyChunked,
            alg,
            800,
            2,
            2,
        );
        let mut driver =
            StreamDriver::builder(DataStructureKind::AdjacencyChunked, stream.num_nodes)
                .algorithm(alg)
                .compute_model(ComputeModelKind::Incremental)
                .batch_size(800)
                .threads(4)
                .build();
        let interleaved = driver.run(&stream);
        assert_eq!(
            pipelined.final_values, interleaved.final_values,
            "{alg} differs between execution models"
        );
    }
}

#[test]
fn deletion_then_fs_compute_reflects_the_smaller_graph() {
    let pool = ThreadPool::new(2);
    let stream = DatasetProfile::talk().scaled(400, 3_000).generate(3);
    let g = build_deletable_graph(
        DataStructureKind::Stinger,
        stream.num_nodes,
        stream.directed,
        pool.threads(),
    );
    g.update_batch(&stream.edges, &pool);
    let before = g.num_edges();

    // Delete half the stream; FS connected components must still run and
    // see the reduced graph.
    let half = &stream.edges[..stream.edges.len() / 2];
    let stats = g.delete_batch(half, &pool);
    assert!(stats.removed > 0);
    assert_eq!(g.num_edges(), before - stats.removed);

    let mut cc = saga_bench_suite::algorithms::AlgorithmState::new(
        AlgorithmKind::Cc,
        ComputeModelKind::FromScratch,
        stream.num_nodes,
        saga_bench_suite::algorithms::AlgorithmParams::default(),
    );
    cc.perform_alg(g.as_ref(), &[], &[], &pool);
    let VertexValues::U32(labels) = cc.values() else {
        panic!("CC labels are u32")
    };
    // Sanity: labels are valid component representatives.
    assert!(labels.iter().enumerate().all(|(v, &l)| l as usize <= v || l == labels[l as usize]));
}
