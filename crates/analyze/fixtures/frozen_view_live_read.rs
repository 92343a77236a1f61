//! Seeded violation: a per-visit read of the *live* graph inside a read
//! phase. `frozen` holds every chunk's read guard across the closure and
//! hands it a lock-free view; the closure below ignores the view and reads
//! `graph` instead, which re-locks a chunk the phase already holds — with a
//! writer parked in between (`std`'s `RwLock` turns new readers away) that
//! never returns. The entry is `read_phase`, the value-returning wrapper,
//! so this also pins that the wrapper does not hide the closure, and
//! `read_chunks` pins that a helper of a guard helper still acquires.
//! `frozen_view_clean.rs` is the intended shape.
//!
//! This file is analyzed in isolation and must produce exactly:
//~ EXPECT: callback:frozen_view_live_read.total_degree:frozen_view_live_read.chunks

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

/// The bug: `graph.out_degree`, not `view.out_degree`.
pub fn total_degree(graph: &ChunkedLists, n: u32) -> usize {
    read_phase(graph, |_view| (0..n).map(|v| graph.out_degree(v)).sum())
}
