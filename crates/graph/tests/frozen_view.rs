//! The phase-scoped read view of the chunked structures
//! (`saga_graph::GraphTopology::frozen`): its visits hold no lock and may
//! re-enter the view, and a batch started while it is alive waits for it.
//!
//! Both properties are checked with a writer parked on the view's guards:
//! `std`'s reader-writer lock turns new readers away while a writer waits,
//! so a view that re-locked a chunk per visit (or was simply the live graph)
//! would hang here instead of finishing — the watchdog is the assertion.
//!
//! Parking inside `update_batch` cannot be observed from outside, so after
//! the writer reports that it is about to call it the reader sleeps for
//! [`WRITER_HEAD_START`]. A sleep that is too short only weakens the test
//! (reads that ought to hang would pass); it can never fail a correct view.

use saga_graph::oracle::GraphOracle;
use saga_graph::{build_deletable_graph, DataStructureKind, Edge, Node};
use saga_utils::parallel::ThreadPool;
use std::sync::mpsc;
use std::time::Duration;

const NODES: usize = 64;
const SELF_LOOPS: &[Node] = &[0, 9, 63];
/// Long enough for a running writer to reach the lock it parks on.
const WRITER_HEAD_START: Duration = Duration::from_millis(100);
const WATCHDOG: Duration = Duration::from_secs(20);

/// Runs `test` on a thread of its own and fails if it does not finish.
fn under_watchdog(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let thread = saga_utils::sync::thread::spawn_named("frozen-view".into(), move || {
        test();
        let _ = done.send(());
    });
    if finished.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("a read through the frozen view blocked: it took a lock per visit");
    }
    thread.join().expect("the test body panicked");
}

fn edges(count: u32, stride: u32) -> Vec<Edge> {
    let n = NODES as u32;
    (0..count).map(|i| Edge::new(i % n, (i * stride + 1) % n, 1.0 + (i % 7) as f32)).collect()
}

fn check(kind: DataStructureKind, directed: bool) {
    let pool = ThreadPool::new(2);
    let g = build_deletable_graph(kind, NODES, directed, pool.threads());
    let mut oracle = GraphOracle::new(NODES, directed);
    // Enough to compact DeltaCSR's chunks, then a few edges on top, so its
    // view reads base and overlay; the writer's batch forces more merges.
    // Self-loops, so a visit can re-enter the vertex it is visiting.
    let loops: Vec<Edge> = SELF_LOOPS.iter().map(|&v| Edge::new(v, v, 0.5)).collect();
    for batch in [edges(400, 5), edges(40, 11), loops] {
        g.update_batch(&batch, &pool);
        oracle.insert_batch(&batch);
    }
    let late = edges(900, 13);
    let at = format!("{kind:?}, directed = {directed}");

    let late_stats = std::thread::scope(|scope| {
        let mut writer = None;
        g.frozen(&mut |view| {
            let (starting, started) = mpsc::channel();
            let (g, late, pool) = (&g, &late, &pool);
            let writer = writer.insert(scope.spawn(move || {
                starting.send(()).expect("the reader waits for this");
                g.update_batch(late, pool)
            }));
            started.recv().expect("the writer reports before its batch");
            std::thread::sleep(WRITER_HEAD_START);
            assert!(!writer.is_finished(), "{at}: the batch did not wait for the view");

            // Reentrancy: query the view from inside its own callbacks.
            let (mut degrees, mut visits) = (0, 0);
            for v in 0..NODES as Node {
                view.for_each_in_neighbor(v, &mut |u, _| {
                    degrees += view.out_degree(u);
                    view.for_each_out_neighbor(u, &mut |_, _| visits += 1);
                });
            }
            assert_eq!(degrees, visits, "{at}");
            assert!(visits > 0, "{at}");

            // A self-loop's callback re-enters the very vertex being walked.
            for &v in SELF_LOOPS {
                let (mut loops, mut inner) = (0, 0);
                view.for_each_out_neighbor(v, &mut |u, _| {
                    if u == v {
                        loops += 1;
                        view.for_each_out_neighbor(v, &mut |_, _| inner += 1);
                        view.for_each_in_neighbor(v, &mut |_, _| inner += 1);
                    }
                });
                assert_eq!(loops, 1, "{at}: vertex {v}");
                assert_eq!(inner, view.out_degree(v) + view.in_degree(v), "{at}: vertex {v}");
            }

            // One topology for the whole phase — nothing of the parked batch
            // — and a view's own view is itself.
            view.frozen(&mut |inner| {
                if let Some(diff) = oracle.diff_topology(kind, inner, true) {
                    panic!("{at}: the view moved under its reader: {diff}");
                }
            });
            assert!(!writer.is_finished(), "{at}: the batch did not wait for the view");
        });
        writer.expect("frozen calls its closure").join().expect("the writer panicked")
    });
    assert_eq!(late_stats, oracle.insert_batch_stats(&late), "{at}");
    oracle.assert_matches(g.as_ref(), true);
}

#[test]
fn a_view_reads_without_locks_and_a_batch_waits_for_it() {
    under_watchdog(|| {
        use DataStructureKind::{AdjacencyChunked, Dah, DeltaCsr};
        for kind in [AdjacencyChunked, Dah, DeltaCsr] {
            for directed in [true, false] {
                check(kind, directed);
            }
        }
    });
}
