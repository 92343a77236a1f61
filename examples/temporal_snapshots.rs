//! Temporal analytics over historical graph versions — the multi-snapshot
//! model the paper lists as future work (footnote 1, citing Chronos and
//! LLAMA).
//!
//! A stream of citation-like edges is ingested into a live structure, and
//! after every batch the live graph is frozen into an immutable [`Csr`];
//! afterwards, *any* historical version can be queried. Here we ask a
//! temporal question no single-snapshot system can answer: how did the
//! reachable set and the shortest-path distance from a seed vertex evolve
//! batch by batch?
//!
//! [`Csr`]: saga_bench_suite::graph::csr::Csr
//!
//! ```text
//! cargo run --release --example temporal_snapshots
//! ```

use saga_bench_suite::graph::csr::Csr;
use saga_bench_suite::graph::{build_graph, GraphTopology};
use saga_bench_suite::prelude::*;
use saga_bench_suite::utils::parallel::ThreadPool;

fn reachable_and_eccentricity(view: &dyn GraphTopology, root: u32) -> (usize, u32) {
    let n = view.capacity();
    let mut depth = vec![u32::MAX; n];
    depth[root as usize] = 0;
    let mut frontier = vec![root];
    while let Some(v) = frontier.pop() {
        let d = depth[v as usize];
        view.for_each_out_neighbor(v, &mut |nb, _| {
            if depth[nb as usize] > d + 1 {
                depth[nb as usize] = d + 1;
                frontier.push(nb);
            }
        });
    }
    let reached = depth.iter().filter(|&&d| d != u32::MAX).count();
    let ecc = depth.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap_or(0);
    (reached, ecc)
}

fn main() {
    let profile = DatasetProfile::rmat().scaled(5_000, 60_000);
    let stream = profile.generate(17);
    let root = stream.edges[0].src;

    let pool = ThreadPool::new(2);
    let live = build_graph(DataStructureKind::AdjacencyShared, stream.num_nodes, stream.directed, 2);
    let versions: Vec<Csr> = stream
        .batches(6_000)
        .map(|batch| {
            live.update_batch(batch, &pool);
            Csr::from_graph(live.as_ref())
        })
        .collect();
    println!(
        "ingested {} batches, one CSR version each ({} vertices)\n",
        versions.len(),
        live.capacity()
    );
    println!("version  edges    reachable from {root}  eccentricity");
    println!("----------------------------------------------------");
    for (version, view) in versions.iter().enumerate() {
        let (reached, ecc) = reachable_and_eccentricity(view, root);
        println!(
            "{version:>7}  {:>7}  {reached:>19}  {ecc:>12}",
            view.num_edges()
        );
    }
    println!("\nEvery row queries an immutable historical version; the");
    println!("single-snapshot benchmark can only answer the last one.");
}
