//! Clean counterpart of `frozen_view_live_read.rs`: the read phase reads
//! through its view — as the receiver and handed on to a kernel — and
//! touches the live graph only after the phase is over. `view.out_degree`
//! resolves by name to the live `out_degree` as well; the calls a
//! `frozen` / `read_phase` closure makes on its view parameter are exempt.
//! Must analyze clean.
//~ CLEAN

use std::sync::{RwLock, RwLockReadGuard};

type Lists = Vec<Vec<u32>>;

/// Chunk-locked adjacency lists: vertex `v` lives in chunk `v % chunks`.
pub struct ChunkedLists {
    chunks: Vec<RwLock<Lists>>,
}

/// The same lists for the length of a read phase: plain references into
/// read guards `frozen` holds, so a visit takes no lock.
pub struct View<'a>(Vec<&'a Lists>);

impl View<'_> {
    /// Out-degree of `v`: an index, not a lock.
    pub fn out_degree(&self, v: u32) -> usize {
        self.0[v as usize % self.0.len()][v as usize / self.0.len()].len()
    }
}

impl ChunkedLists {
    /// One chunk's read guard.
    fn read_chunk(&self, chunk: usize) -> RwLockReadGuard<'_, Lists> {
        self.chunks[chunk].read().unwrap()
    }

    /// Every chunk's read guard, in index order — a helper of a helper.
    fn read_chunks(&self) -> Vec<RwLockReadGuard<'_, Lists>> {
        (0..self.chunks.len()).map(|chunk| self.read_chunk(chunk)).collect()
    }

    /// Out-degree of `v` on the live graph: locks the owning chunk. Behind
    /// a parked writer a second shared guard never arrives.
    pub fn out_degree(&self, v: u32) -> usize {
        self.read_chunk(v as usize % self.chunks.len())[v as usize / self.chunks.len()].len()
    }

    /// Holds every chunk's read guard across `f` — by design.
    pub fn frozen(&self, f: &mut dyn FnMut(&View<'_>)) {
        let guards = self.read_chunks();
        f(&View(guards.iter().map(|guard| &**guard).collect()));
    }
}

/// `frozen` that returns the closure's value.
pub fn read_phase<R>(graph: &ChunkedLists, f: impl FnOnce(&View<'_>) -> R) -> R {
    let mut f = Some(f);
    let mut out = None;
    graph.frozen(&mut |view| out = f.take().map(|f| f(view)));
    out.unwrap()
}

/// A kernel: reads whatever topology it is handed.
fn sum_degrees(view: &View<'_>, n: u32) -> usize {
    (0..n).map(|v| view.out_degree(v)).sum()
}

/// Reads through the view inside the phase, the live graph after it.
pub fn total_degree(graph: &ChunkedLists, n: u32) -> usize {
    let inside = read_phase(graph, |view| view.out_degree(0) + sum_degrees(view, n));
    inside + graph.out_degree(0)
}
