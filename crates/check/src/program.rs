//! Op programs: the input language of the differential fuzzer.
//!
//! A program is a batched sequence of insert/delete operations over a
//! small vertex universe. Programs are generated from a seed and an
//! adversarial [`ProgramProfile`], converted to an [`EdgeStream`] (weights
//! derived deterministically from endpoints so every structure agrees),
//! and replayed differentially across every structure × driver × compute
//! model combination by [`crate::check_program`].

use saga_graph::Node;
use saga_stream::{edge_weight, Edge, EdgeOp, EdgeStream};
use saga_utils::rng::Xoshiro256PlusPlus;
use std::fmt::Write as _;

/// One operation of a program: the op kind plus the edge endpoints.
/// Weights are never stored — they are a deterministic function of the
/// endpoints ([`edge_weight`]), so a program is purely structural.
pub type ProgramOp = (EdgeOp, Node, Node);

/// Adversarial distribution the program generator draws from. Each profile
/// targets a failure class seen in streaming-graph ingestion engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramProfile {
    /// Uniformly random endpoints, light deletion mix — the baseline.
    Uniform,
    /// Half of all endpoints collapse onto two hub vertices, stressing
    /// per-vertex locking and chunk-overflow paths (Table IV tails).
    HubConcentrated,
    /// Close to half the ops are deletions, preferentially of live edges —
    /// stresses compaction and KickStarter-style repair.
    DeleteHeavy,
    /// Edges cycle insert → delete → re-insert, stressing tombstone reuse
    /// and duplicate-vs-resurrect confusion.
    ReinsertAfterDelete,
    /// A tiny endpoint pool so most inserts are duplicates, including
    /// duplicates within one batch — stresses §III-A dedup semantics.
    DuplicateDense,
    /// Sliding-window shape: each batch inserts fresh edges and evicts the
    /// batch that fell out of the window, exactly like
    /// [`EdgeStream::into_sliding_window`].
    WindowEviction,
}

impl ProgramProfile {
    /// Every profile, for seed-rotation loops.
    pub const ALL: [ProgramProfile; 6] = [
        ProgramProfile::Uniform,
        ProgramProfile::HubConcentrated,
        ProgramProfile::DeleteHeavy,
        ProgramProfile::ReinsertAfterDelete,
        ProgramProfile::DuplicateDense,
        ProgramProfile::WindowEviction,
    ];
}

/// A generated (or shrunk) op program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProgram {
    /// Vertex universe `0..capacity`.
    pub capacity: usize,
    /// Whether the graph under test is directed.
    pub directed: bool,
    /// Batches of ops; every batch is non-empty.
    pub batches: Vec<Vec<ProgramOp>>,
}

impl OpProgram {
    /// Generates a program from a seed and profile. Programs are small by
    /// design (≤ 6 batches × ≤ 40 ops over ≤ 48 vertices): the fuzzer's
    /// power comes from running many seeds, not big inputs.
    pub fn generate(seed: u64, profile: ProgramProfile) -> OpProgram {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let capacity = match profile {
            ProgramProfile::DuplicateDense => rng.range(4, 10),
            _ => rng.range(8, 48),
        };
        let directed = rng.chance(0.5);
        let num_batches = rng.range(1, 5);
        let batches = match profile {
            ProgramProfile::WindowEviction => {
                gen_window_eviction(&mut rng, capacity, num_batches)
            }
            _ => gen_mixed(&mut rng, profile, capacity, num_batches),
        };
        OpProgram {
            capacity,
            directed,
            batches,
        }
    }

    /// Generates a program over a *fixed* vertex universe and
    /// directedness, for callers that need many seeded programs against
    /// one graph — the server load generator drives every stream of a
    /// tenant with programs shaped by the tenant's own capacity. Batch
    /// shapes draw from the same per-profile generators as
    /// [`OpProgram::generate`]; only the universe is pinned. (Seeds are
    /// not interchangeable between the two constructors: `generate`
    /// spends rng draws choosing the universe first.)
    pub fn generate_with(
        seed: u64,
        profile: ProgramProfile,
        capacity: usize,
        directed: bool,
    ) -> OpProgram {
        assert!(capacity >= 4, "programs need at least 4 vertices");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let num_batches = rng.range(1, 5);
        let batches = match profile {
            ProgramProfile::WindowEviction => {
                gen_window_eviction(&mut rng, capacity, num_batches)
            }
            _ => gen_mixed(&mut rng, profile, capacity, num_batches),
        };
        OpProgram {
            capacity,
            directed,
            batches,
        }
    }

    /// Builds a program from explicit batches — the form emitted by
    /// [`OpProgram::to_test_snippet`] for shrunk reproducers.
    ///
    /// # Panics
    ///
    /// Panics if any batch is empty or any endpoint is out of range.
    pub fn from_ops(capacity: usize, directed: bool, batches: &[&[ProgramOp]]) -> OpProgram {
        for batch in batches {
            assert!(!batch.is_empty(), "batches must be non-empty");
            for &(_, s, d) in *batch {
                assert!(
                    (s as usize) < capacity && (d as usize) < capacity,
                    "endpoint out of range"
                );
            }
        }
        OpProgram {
            capacity,
            directed,
            batches: batches.iter().map(|b| b.to_vec()).collect(),
        }
    }

    /// Total op count across all batches.
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Materializes the program as an [`EdgeStream`] with explicit batch
    /// boundaries and endpoint-derived weights.
    pub fn to_stream(&self) -> EdgeStream {
        let mut edges = Vec::with_capacity(self.total_ops());
        let mut ops = Vec::with_capacity(self.total_ops());
        let mut boundaries = Vec::with_capacity(self.batches.len());
        for batch in &self.batches {
            for &(op, s, d) in batch {
                edges.push(Edge::new(s, d, edge_weight(s, d, self.directed)));
                ops.push(op);
            }
            boundaries.push(edges.len());
        }
        let suggested_batch_size = edges.len().max(1);
        EdgeStream {
            name: "op-program".into(),
            num_nodes: self.capacity,
            directed: self.directed,
            edges,
            ops,
            boundaries,
            suggested_batch_size,
        }
    }

    /// Renders the program as a ready-to-paste Rust `#[test]` so a shrunk
    /// counterexample survives as a permanent regression test.
    pub fn to_test_snippet(&self, test_name: &str, config_expr: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "#[test]");
        let _ = writeln!(out, "fn {test_name}() {{");
        let _ = writeln!(out, "    use saga_check::{{check_program, OpProgram}};");
        let _ = writeln!(out, "    use saga_stream::EdgeOp::{{Delete, Insert}};");
        let _ = writeln!(
            out,
            "    let program = OpProgram::from_ops({}, {}, &[",
            self.capacity, self.directed
        );
        for batch in &self.batches {
            let ops: Vec<String> = batch
                .iter()
                .map(|&(op, s, d)| {
                    let kind = match op {
                        EdgeOp::Insert => "Insert",
                        EdgeOp::Delete => "Delete",
                    };
                    format!("({kind}, {s}, {d})")
                })
                .collect();
            let _ = writeln!(out, "        &[{}],", ops.join(", "));
        }
        let _ = writeln!(out, "    ]);");
        let _ = writeln!(out, "    let config = {config_expr};");
        let _ = writeln!(
            out,
            "    assert!(check_program(&program, &config).is_none());"
        );
        let _ = writeln!(out, "}}");
        out
    }
}

/// Draws an endpoint pair (never a self-loop).
fn pair(rng: &mut Xoshiro256PlusPlus, capacity: usize, hubs: &[Node]) -> (Node, Node) {
    let draw = |rng: &mut Xoshiro256PlusPlus| -> Node {
        if !hubs.is_empty() && rng.chance(0.5) {
            hubs[rng.range(0, hubs.len() - 1)]
        } else {
            rng.range(0, capacity - 1) as Node
        }
    };
    loop {
        let s = draw(rng);
        let d = draw(rng);
        if s != d {
            return (s, d);
        }
    }
}

fn gen_mixed(
    rng: &mut Xoshiro256PlusPlus,
    profile: ProgramProfile,
    capacity: usize,
    num_batches: usize,
) -> Vec<Vec<ProgramOp>> {
    let hubs: Vec<Node> = match profile {
        ProgramProfile::HubConcentrated => {
            vec![
                rng.range(0, capacity - 1) as Node,
                rng.range(0, capacity - 1) as Node,
            ]
        }
        _ => Vec::new(),
    };
    let delete_prob = match profile {
        ProgramProfile::DeleteHeavy => 0.45,
        ProgramProfile::ReinsertAfterDelete => 0.35,
        _ => 0.15,
    };
    // Edges inserted so far (may contain already-deleted entries — those
    // model reinsert-after-delete and deletes of absent edges).
    let mut inserted: Vec<(Node, Node)> = Vec::new();
    let mut deleted: Vec<(Node, Node)> = Vec::new();
    let mut batches = Vec::with_capacity(num_batches);
    for _ in 0..num_batches {
        let ops_in_batch = rng.range(1, 40);
        let mut batch = Vec::with_capacity(ops_in_batch);
        for _ in 0..ops_in_batch {
            if rng.chance(delete_prob) && !inserted.is_empty() {
                // Delete: usually a previously inserted edge, sometimes a
                // random (likely absent) one to exercise `missing`.
                let (s, d) = if rng.chance(0.8) {
                    inserted[rng.range(0, inserted.len() - 1)]
                } else {
                    pair(rng, capacity, &hubs)
                };
                deleted.push((s, d));
                batch.push((EdgeOp::Delete, s, d));
            } else {
                let reuse_deleted = profile == ProgramProfile::ReinsertAfterDelete
                    && !deleted.is_empty()
                    && rng.chance(0.6);
                let (s, d) = if reuse_deleted {
                    deleted[rng.range(0, deleted.len() - 1)]
                } else {
                    pair(rng, capacity, &hubs)
                };
                inserted.push((s, d));
                batch.push((EdgeOp::Insert, s, d));
            }
        }
        batches.push(batch);
    }
    batches
}

/// Window-eviction shape: batch `i` inserts fresh edges and deletes batch
/// `i - window`'s inserts, mirroring [`EdgeStream::into_sliding_window`].
fn gen_window_eviction(
    rng: &mut Xoshiro256PlusPlus,
    capacity: usize,
    num_batches: usize,
) -> Vec<Vec<ProgramOp>> {
    let window = rng.range(1, 2.min(num_batches));
    let mut fresh: Vec<Vec<(Node, Node)>> = Vec::with_capacity(num_batches);
    for _ in 0..num_batches {
        let n = rng.range(1, 20);
        fresh.push((0..n).map(|_| pair(rng, capacity, &[])).collect());
    }
    let mut batches = Vec::with_capacity(num_batches);
    for i in 0..num_batches {
        let mut batch: Vec<ProgramOp> = fresh[i]
            .iter()
            .map(|&(s, d)| (EdgeOp::Insert, s, d))
            .collect();
        if i >= window {
            batch.extend(
                fresh[i - window]
                    .iter()
                    .map(|&(s, d)| (EdgeOp::Delete, s, d)),
            );
        }
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for profile in ProgramProfile::ALL {
            let a = OpProgram::generate(42, profile);
            let b = OpProgram::generate(42, profile);
            assert_eq!(a, b, "{profile:?}");
            assert!(a.total_ops() > 0);
            assert!(a.batches.iter().all(|b| !b.is_empty()));
        }
    }

    /// Failing seeds quoted in CHANGES.md / DESIGN.md must stay replayable:
    /// a (seed, profile) pair names the program it named on the `rand` 0.8 /
    /// `rand_xoshiro` 0.6 build, which printed these constants.
    #[test]
    fn seeds_name_the_programs_they_always_named() {
        use saga_utils::hash::mix64;
        let known: [u64; 6] = [
            0x2b57_33db_39a7_15d0,
            0x4d9f_53b0_073d_02e7,
            0xc2fd_1eab_52ea_0d98,
            0x3706_ee94_f21f_9f08,
            0x9a1f_75ea_e016_4df3,
            0x0413_ce4c_add2_cee3,
        ];
        for (profile, known) in ProgramProfile::ALL.into_iter().zip(known) {
            let p = OpProgram::generate(0xC0FFEE, profile);
            let mut h = mix64(p.capacity as u64 ^ ((p.directed as u64) << 32));
            for batch in &p.batches {
                h = mix64(h ^ batch.len() as u64);
                for &(op, s, d) in batch {
                    let delete = ((op == EdgeOp::Delete) as u64) << 63;
                    h = mix64(h ^ delete ^ (s as u64) << 32 ^ d as u64);
                }
            }
            assert_eq!(h, known, "{profile:?}");
        }
    }

    #[test]
    fn streams_carry_boundaries_and_derived_weights() {
        let p = OpProgram::generate(7, ProgramProfile::DeleteHeavy);
        let s = p.to_stream();
        assert_eq!(s.edges.len(), p.total_ops());
        assert_eq!(s.ops.len(), p.total_ops());
        assert_eq!(s.boundaries.len(), p.batches.len());
        assert_eq!(*s.boundaries.last().unwrap(), s.edges.len());
        for e in &s.edges {
            assert_eq!(e.weight, edge_weight(e.src, e.dst, s.directed));
        }
    }

    #[test]
    fn window_eviction_deletes_only_prior_inserts() {
        let p = OpProgram::generate(3, ProgramProfile::WindowEviction);
        let mut seen: Vec<(Node, Node)> = Vec::new();
        for batch in &p.batches {
            for &(op, s, d) in batch {
                match op {
                    EdgeOp::Insert => seen.push((s, d)),
                    EdgeOp::Delete => assert!(seen.contains(&(s, d))),
                }
            }
        }
    }

    #[test]
    fn snippet_round_trips_through_from_ops() {
        let p = OpProgram::from_ops(
            8,
            true,
            &[&[(EdgeOp::Insert, 0, 1), (EdgeOp::Delete, 0, 1)], &[(EdgeOp::Delete, 2, 3)]],
        );
        let snippet = p.to_test_snippet("repro", "CheckConfig::quick()");
        assert!(snippet.contains("OpProgram::from_ops(8, true"));
        assert!(snippet.contains("(Insert, 0, 1), (Delete, 0, 1)"));
        assert!(snippet.contains("(Delete, 2, 3)"));
    }
}
