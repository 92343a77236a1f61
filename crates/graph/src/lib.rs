//! Dynamic graph data structures for streaming graph analytics.
//!
//! This crate implements the four vertex-centric, multithreaded-update data
//! structures of SAGA-Bench (§III-A of the paper), all behind the common
//! [`DynamicGraph`] trait (the paper's `update()` / `out_neigh()` /
//! `in_neigh()` API, §III-D):
//!
//! | Kind | Module | Update mechanism | Multithreading | Intra-node parallelism |
//! |------|--------|------------------|----------------|------------------------|
//! | [`AdjacencyShared`] (AS) | [`adjacency_shared`] | search+insert in contiguous vectors | shared-memory, one lock per source vertex | no |
//! | [`AdjacencyChunked`] (AC) | [`adjacency_chunked`] | search+insert in contiguous vectors | chunked, lock-free within a chunk | no |
//! | [`Stinger`] | [`stinger`] | two scans over linked 16-edge blocks | shared-memory, fine-grained per-block locks | yes |
//! | [`Dah`] (degree-aware hashing) | [`dah`] | hash-based, Robin Hood low-degree + open-addressing high-degree tables | chunked, lock-free within a chunk | no |
//!
//! A fifth structure extends the matrix beyond the paper:
//! [`DeltaCsr`] (module [`delta_csr`]) — chunked like AC and DAH, each
//! chunk a compacted CSR base plus a small delta overlay that the chunk's
//! owner merges on threshold, trading a bounded amortized compaction cost
//! for static-layout neighbor scans. It is not part of
//! [`DataStructureKind::ALL`] (the paper's four); iterate
//! [`DataStructureKind::ALL_WITH_DELTA`] to include it.
//!
//! The table's two independent axes are also the code's: each structure
//! module holds only its *store* (one direction of adjacency), and the
//! [`shell`] module holds everything else once — the `out` + `in` pair of
//! footnote 3, the undirected mirror, which stored pass counts a logical
//! edge, the edge counter, the three trait impls, and the two
//! multithreading styles (shared: [`shell::SharedSide`]; chunked:
//! [`shell::Chunk`] in [`shell::Chunks`]). The five public types are
//! [`shell::TwoSided`] over their store (a DeltaCSR chunk's base has the
//! layout of a [`csr::Csr`] direction and is built by the same builder).
//!
//! Every insert is preceded by a search so that edges are ingested uniquely
//! (§III-A). Vertex property values live outside the topology in
//! [`properties`] arrays (footnote 4); [`properties::Property`] states each
//! value type's bit layout once, for the shared atomic array, the BSP
//! checkpoint word and the [`properties::VertexValues`] snapshot.
//!
//! [`AdjacencyShared`]: adjacency_shared::AdjacencyShared
//! [`AdjacencyChunked`]: adjacency_chunked::AdjacencyChunked
//! [`Stinger`]: stinger::Stinger
//! [`Dah`]: dah::Dah
//! [`DeltaCsr`]: delta_csr::DeltaCsr
//!
//! # Examples
//!
//! ```
//! use saga_graph::{build_graph, DataStructureKind, Edge};
//! use saga_utils::parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(2);
//! let graph = build_graph(DataStructureKind::Stinger, 10, true, pool.threads());
//! let batch = vec![Edge::new(0, 1, 1.0), Edge::new(0, 2, 2.0), Edge::new(0, 1, 9.0)];
//! let stats = graph.update_batch(&batch, &pool);
//! assert_eq!(stats.inserted, 2); // the duplicate (0, 1) is ingested once
//! assert_eq!(graph.out_degree(0), 2);
//! assert_eq!(graph.in_degree(1), 1);
//! ```

#![warn(missing_docs)]

pub mod adjacency_chunked;
pub mod adjacency_shared;
pub mod csr;
pub mod dah;
pub mod delta_csr;
pub mod hash_tables;
pub mod oracle;
pub mod properties;
pub mod shell;
pub mod stinger;

use saga_utils::parallel::ThreadPool;

/// Vertex identifier. The paper's datasets fit comfortably in 32 bits.
pub type Node = u32;

/// Edge weight (used by SSSP and SSWP; ignored by the other algorithms).
pub type Weight = f32;

/// A directed, weighted edge in the input stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: Node,
    /// Destination vertex.
    pub dst: Node,
    /// Weight carried by the edge.
    pub weight: Weight,
}

impl Edge {
    /// Creates an edge.
    pub fn new(src: Node, dst: Node, weight: Weight) -> Self {
        Self { src, dst, weight }
    }
}

/// Outcome of ingesting one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges newly inserted by this batch.
    pub inserted: usize,
    /// Edges that were already present (searched, found, skipped).
    pub duplicates: usize,
}

impl UpdateStats {
    /// Merges two per-thread tallies.
    pub fn merge(self, other: UpdateStats) -> UpdateStats {
        UpdateStats {
            inserted: self.inserted + other.inserted,
            duplicates: self.duplicates + other.duplicates,
        }
    }
}

/// Which data structure to use: the paper's four (§III-A) plus the
/// delta-CSR hybrid extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataStructureKind {
    /// Adjacency list with shared-style multithreading (AS).
    AdjacencyShared,
    /// Adjacency list with chunked-style multithreading (AC).
    AdjacencyChunked,
    /// Stinger: linked edge blocks with fine-grained locks.
    Stinger,
    /// Degree-aware hashing (DAH).
    Dah,
    /// Delta-CSR hybrid: per-chunk CSR base + compacting delta overlay
    /// (extension beyond the paper's four).
    DeltaCsr,
}

impl DataStructureKind {
    /// The paper's four kinds, in its presentation order. Experiments that
    /// reproduce the paper's tables iterate this; the delta-CSR extension
    /// is deliberately excluded so those figures keep the paper's shape.
    pub const ALL: [DataStructureKind; 4] = [
        DataStructureKind::AdjacencyShared,
        DataStructureKind::AdjacencyChunked,
        DataStructureKind::Stinger,
        DataStructureKind::Dah,
    ];

    /// Every kind including the delta-CSR extension — the differential
    /// harness and the compute-phase benchmarks iterate this.
    pub const ALL_WITH_DELTA: [DataStructureKind; 5] = [
        DataStructureKind::AdjacencyShared,
        DataStructureKind::AdjacencyChunked,
        DataStructureKind::Stinger,
        DataStructureKind::Dah,
        DataStructureKind::DeltaCsr,
    ];

    /// The structure's abbreviation (the paper's AS, AC, Stinger, DAH,
    /// plus DeltaCSR for the extension).
    pub fn abbrev(&self) -> &'static str {
        match self {
            DataStructureKind::AdjacencyShared => "AS",
            DataStructureKind::AdjacencyChunked => "AC",
            DataStructureKind::Stinger => "Stinger",
            DataStructureKind::Dah => "DAH",
            DataStructureKind::DeltaCsr => "DeltaCSR",
        }
    }

    /// The canonical lowercase spelling (config files, the wire format):
    /// the first of the spellings [`FromStr`](std::str::FromStr) accepts.
    pub fn key(&self) -> &'static str {
        self.spellings()[0]
    }

    fn spellings(&self) -> &'static [&'static str] {
        match self {
            DataStructureKind::AdjacencyShared => &["as", "adjacency-shared", "adjacencyshared"],
            DataStructureKind::AdjacencyChunked => &["ac", "adjacency-chunked", "adjacencychunked"],
            DataStructureKind::Stinger => &["stinger"],
            DataStructureKind::Dah => &["dah"],
            DataStructureKind::DeltaCsr => &["delta-csr", "delta", "deltacsr"],
        }
    }
}

impl std::str::FromStr for DataStructureKind {
    type Err = String;

    /// Case-insensitive; the error names the canonical keys.
    fn from_str(s: &str) -> Result<Self, String> {
        saga_utils::parse_kind("structure", &Self::ALL_WITH_DELTA, Self::spellings, s)
    }
}

impl std::fmt::Display for DataStructureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Read-only view of a graph's topology — the traversal half of the
/// paper's API (`out_neigh()` / `in_neigh()`, §III-D).
///
/// The compute engines only need this trait, so they run equally on a live
/// [`DynamicGraph`] and on an immutable snapshot ([`csr::Csr`]), which is
/// what enables the pipelined update-parallel-with-compute execution model
/// the paper lists as future work (footnote 1).
///
/// # Reentrancy
///
/// The per-visit methods of a *live* structure may hold a fine-grained
/// internal lock while invoking a `for_each_*` callback: AS a vertex's
/// vector mutex, Stinger a vertex's shared op-lock, AC / DAH / DeltaCSR one
/// chunk's read guard. A callback must therefore not call back into the
/// same live graph — with AS that self-deadlocks, and a second shared guard
/// can park behind a waiting batch forever. Collect what you need first,
/// then query (the superstep engine's `scatter_shard` is the pattern);
/// reading separate property arrays from a callback is always fine.
///
/// Code that reads for a whole phase should not pay those locks per visit
/// at all: [`frozen`](Self::frozen) hands it a view for the length of a
/// closure. A view of a chunked structure holds every chunk's read guard
/// once and reads through plain references, so its visits take no lock,
/// are reentrant, and see one topology — a batch started once the view
/// exists blocks until the view drops and no part of it is ever visible.
/// That is all the guarantee covers: the guards are taken
/// chunk by chunk and there is no batch-wide lock, so a view opened while a
/// batch is *already running* may see some chunks before and some after it
/// (and an edge count from before its tally). No caller overlaps the two
/// phases; one that wants to must order them itself. `Csr`, AS and Stinger
/// are their own view: AS keeps its per-vertex mutex and stays
/// non-reentrant; Stinger walks its block chains without a lock under the
/// vertex's shared op-lock (never shared between two vertices' readers).
pub trait GraphTopology: Send + Sync + AsTopology {
    /// Maximum number of vertices (fixed at construction; the stream's
    /// vertex-id universe is known per dataset, Table II).
    fn capacity(&self) -> usize;

    /// Unique directed edges currently stored (an undirected input edge
    /// counts once).
    fn num_edges(&self) -> usize;

    /// Whether the graph is directed. Undirected graphs (Orkut) ingest each
    /// edge in both directions and serve `in_*` from the out-structure.
    fn is_directed(&self) -> bool;

    /// Current out-degree of `v`.
    fn out_degree(&self, v: Node) -> usize;

    /// Current in-degree of `v`.
    fn in_degree(&self, v: Node) -> usize;

    /// Visits every out-neighbor of `v` — the paper's `out_neigh()`.
    fn for_each_out_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight));

    /// Visits every in-neighbor of `v` — the paper's `in_neigh()`.
    fn for_each_in_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight));

    /// Collects the out-neighbors of `v` (convenience; allocates).
    fn out_neighbors(&self, v: Node) -> Vec<(Node, Weight)> {
        let mut out = Vec::with_capacity(self.out_degree(v));
        self.for_each_out_neighbor(v, &mut |n, w| out.push((n, w)));
        out
    }

    /// Collects the in-neighbors of `v` (convenience; allocates).
    fn in_neighbors(&self, v: Node) -> Vec<(Node, Weight)> {
        let mut out = Vec::with_capacity(self.in_degree(v));
        self.for_each_in_neighbor(v, &mut |n, w| out.push((n, w)));
        out
    }

    /// Calls `f` once with a view of this topology that is cheapest to read
    /// for a whole phase (see *Reentrancy* above); the view is only valid
    /// inside `f`. A structure whose reads need no per-phase setup is its
    /// own view, which is the default — so a view's `frozen` nests for free.
    /// [`read_phase`] is the form that returns a value.
    fn frozen(&self, f: &mut dyn FnMut(&dyn GraphTopology)) {
        f(self.as_topology());
    }
}

/// `&T → &dyn GraphTopology` for the default [`GraphTopology::frozen`],
/// which must also work when `Self` is already a trait object.
pub trait AsTopology {
    /// `self` as a topology trait object.
    fn as_topology(&self) -> &dyn GraphTopology;
}

impl<T: GraphTopology> AsTopology for T {
    fn as_topology(&self) -> &dyn GraphTopology {
        self
    }
}

/// Runs the read phase `f` on `graph`'s [frozen](GraphTopology::frozen) view
/// and returns its result. Every compute path starts here, so kernels never
/// pay a structure's per-visit synchronisation.
pub fn read_phase<R>(graph: &dyn GraphTopology, f: impl FnOnce(&dyn GraphTopology) -> R) -> R {
    let mut f = Some(f);
    let mut out = None;
    graph.frozen(&mut |view| out = f.take().map(|f| f(view)));
    out.expect("frozen calls its closure")
}

/// Common interface of the streaming graph data structures — the paper's
/// `update()` API on top of [`GraphTopology`] (§III-D).
///
/// Implementations ingest batches concurrently through interior mutability
/// (`update_batch` takes `&self`). In the interleaved execution model
/// (Fig. 2b) the update and compute phases never overlap, so traversal
/// during compute sees a stable topology. For the chunked structures one
/// direction of that is enforced rather than assumed — `update_batch` /
/// `delete_batch` called while a [frozen](GraphTopology::frozen) view is
/// alive block until it drops (called from inside the view's closure on the
/// same thread they deadlock); a view opened in the middle of a running
/// batch is not held back (see *Reentrancy* on [`GraphTopology`]).
pub trait DynamicGraph: GraphTopology {
    /// Ingests a batch of edges using the given pool — the *update phase*.
    /// Duplicate edges (already present or repeated within the batch) are
    /// ingested once, per the search-before-insert rule of §III-A.
    fn update_batch(&self, batch: &[Edge], pool: &ThreadPool) -> UpdateStats;

    /// Which data structure this is.
    fn kind(&self) -> DataStructureKind;
}

/// Outcome of deleting one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteStats {
    /// Edges found and removed.
    pub removed: usize,
    /// Edges that were not present (including batch-internal repeats).
    pub missing: usize,
}

impl DeleteStats {
    /// Merges two per-thread tallies.
    pub fn merge(self, other: DeleteStats) -> DeleteStats {
        DeleteStats {
            removed: self.removed + other.removed,
            missing: self.missing + other.missing,
        }
    }
}

/// Edge deletion — an **extension** beyond the paper's v1 benchmark, which
/// streams insertions only. All four structures support it (STINGER's
/// linked blocks were designed for it), with the same batch-parallel
/// discipline as `update_batch`. Edge weights are ignored when matching.
///
/// Deletions break the incremental compute model's monotone invariant (a
/// stored value may depend on an edge that no longer exists), so the INC
/// path repairs after each deletion batch, KickStarter-style: vertices
/// whose value may derive from a deleted edge are found by a tag-closure
/// over derivation edges, reset to the program's initial value, and
/// reseeded from surviving in-neighbors before the normal trigger rounds
/// (`saga_algorithms::inc::incremental_compute`). When the
/// cascade would exceed a size threshold, the driver falls back to a
/// from-scratch recomputation of that batch instead.
pub trait DeletableGraph: DynamicGraph {
    /// Deletes a batch of edges. Undirected graphs remove both stored
    /// directions of each logical edge; an edge appearing twice in the
    /// batch is removed once and counted missing once.
    fn delete_batch(&self, batch: &[Edge], pool: &ThreadPool) -> DeleteStats;
}

/// Builds a graph of the requested kind.
///
/// `chunks` controls the number of single-threaded chunks for the chunked
/// structures (AC, DAH, DeltaCSR); the paper pairs one chunk with one update
/// thread, so pass the pool's thread count. It is ignored by AS and Stinger.
pub fn build_graph(
    kind: DataStructureKind,
    capacity: usize,
    directed: bool,
    chunks: usize,
) -> Box<dyn DynamicGraph> {
    build_deletable_graph_with(kind, capacity, directed, chunks, false)
}

/// Builds a graph of the requested kind behind the deletion-capable
/// interface (all structures support it).
pub fn build_deletable_graph(
    kind: DataStructureKind,
    capacity: usize,
    directed: bool,
    chunks: usize,
) -> Box<dyn DeletableGraph> {
    build_deletable_graph_with(kind, capacity, directed, chunks, false)
}

/// [`build_deletable_graph`] with an explicit partitioned-ingest choice.
///
/// `partitioned_ingest` routes AS and Stinger batches through the
/// counting-sort partitioner so each vertex is updated by exactly one
/// worker (no lock contention); it departs from the paper's shared-style
/// multithreading and is off in [`build_graph`]. The chunked structures
/// always partition — for them routing is an implementation detail of
/// finding each chunk's edges, not a change to the paper's chunked
/// ownership — so the flag is a no-op there.
pub fn build_deletable_graph_with(
    kind: DataStructureKind,
    capacity: usize,
    directed: bool,
    chunks: usize,
    partitioned_ingest: bool,
) -> Box<dyn DeletableGraph> {
    match kind {
        DataStructureKind::AdjacencyShared => Box::new(
            adjacency_shared::AdjacencyShared::new(capacity, directed)
                .with_partitioned_ingest(partitioned_ingest),
        ),
        DataStructureKind::AdjacencyChunked => Box::new(
            adjacency_chunked::AdjacencyChunked::new(capacity, directed, chunks),
        ),
        DataStructureKind::Stinger => Box::new(
            stinger::Stinger::new(capacity, directed).with_partitioned_ingest(partitioned_ingest),
        ),
        DataStructureKind::Dah => Box::new(dah::Dah::new(capacity, directed, chunks)),
        DataStructureKind::DeltaCsr => {
            Box::new(delta_csr::DeltaCsr::new(capacity, directed, chunks))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_keys_round_trip_and_aliases_parse() {
        for kind in DataStructureKind::ALL_WITH_DELTA {
            assert_eq!(kind.key().parse(), Ok(kind));
            assert_eq!(kind.abbrev().parse(), Ok(kind), "the paper's abbreviation parses");
        }
        assert_eq!("Delta".parse(), Ok(DataStructureKind::DeltaCsr));
        assert_eq!(
            "btree".parse::<DataStructureKind>().unwrap_err(),
            "unknown structure \"btree\" (as|ac|stinger|dah|delta-csr)"
        );
    }

    #[test]
    fn kind_abbreviations_match_the_paper() {
        assert_eq!(DataStructureKind::AdjacencyShared.abbrev(), "AS");
        assert_eq!(DataStructureKind::AdjacencyChunked.abbrev(), "AC");
        assert_eq!(DataStructureKind::Stinger.abbrev(), "Stinger");
        assert_eq!(DataStructureKind::Dah.abbrev(), "DAH");
        assert_eq!(DataStructureKind::ALL.len(), 4);
        assert_eq!(DataStructureKind::DeltaCsr.abbrev(), "DeltaCSR");
        assert_eq!(DataStructureKind::ALL_WITH_DELTA.len(), 5);
        assert_eq!(
            DataStructureKind::ALL_WITH_DELTA[..4],
            DataStructureKind::ALL
        );
    }

    #[test]
    fn update_stats_merge_adds_fields() {
        let a = UpdateStats {
            inserted: 3,
            duplicates: 1,
        };
        let b = UpdateStats {
            inserted: 2,
            duplicates: 4,
        };
        let m = a.merge(b);
        assert_eq!(m.inserted, 5);
        assert_eq!(m.duplicates, 5);
    }

    #[test]
    fn edge_constructor_roundtrips() {
        let e = Edge::new(3, 7, 2.5);
        assert_eq!(e.src, 3);
        assert_eq!(e.dst, 7);
        assert_eq!(e.weight, 2.5);
    }
}
