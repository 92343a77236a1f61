//! Seeded adversarial load generation against a live `saga-server`, and
//! offline differential verification of what the server admitted.
//!
//! The generator replays [`OpProgram`]s — the same six adversarial
//! profiles the differential fuzzer draws from — as N concurrent HTTP
//! client streams per tenant, retrying on `429` (admission-control
//! backpressure) until each batch is accepted. The server journals every
//! admitted batch in application order; [`verify_tenant`] then fetches
//! that journal and replays it offline:
//!
//! - topology through [`GraphOracle`], diffed against the server's
//!   `/edges` dump (exact), and
//! - values through a single-threaded from-scratch [`StreamDriver`]
//!   reference, diffed against `/values` with [`values_diff`]'s
//!   per-type tolerances.
//!
//! Zero diffs means the server processed exactly what it admitted —
//! the soak test's acceptance bar (DESIGN.md §13).

use crate::diff::values_diff;
use crate::program::{OpProgram, ProgramProfile};
use saga_algorithms::{AlgorithmKind, ComputeModelKind};
use saga_core::driver::StreamDriver;
use saga_graph::oracle::GraphOracle;
use saga_graph::DataStructureKind;
use saga_server::journal::{journal_root, parse_journal, JournalBatch};
use saga_server::tenant::{parse_edge_list, parse_values, tenant_params};
use saga_server::Client;
use saga_stream::loader::render_edge_line;
use saga_stream::{edge_weight, Edge, EdgeOp};
use saga_utils::parallel::ThreadPool;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One tenant's place in the structure × algorithm × model matrix, plus
/// its load shape.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (also the HTTP path segment).
    pub name: String,
    /// Graph structure behind the tenant.
    pub structure: DataStructureKind,
    /// Algorithm the tenant runs per batch.
    pub algorithm: AlgorithmKind,
    /// From-scratch or incremental.
    pub model: ComputeModelKind,
    /// Directedness (shared by generator, server, and replay).
    pub directed: bool,
    /// Vertex universe.
    pub capacity: usize,
    /// Admission bound for the tenant's batch queue.
    pub queue_bound: usize,
    /// Adversarial program profile the streams draw from.
    pub profile: ProgramProfile,
    /// Base seed; stream `s`, round `r` derives its program seed from
    /// `(seed, s, r)` deterministically.
    pub seed: u64,
    /// Concurrent client streams.
    pub streams: usize,
}

impl TenantSpec {
    /// The `i`-th point of a rotation through the full matrix: structures
    /// × algorithms × models × profiles × directedness all cycle at
    /// coprime-ish strides so small fleets still cover FS and INC, every
    /// structure, and several algorithms.
    pub fn nth(i: usize, seed: u64) -> TenantSpec {
        let structures = DataStructureKind::ALL_WITH_DELTA;
        let algorithms = AlgorithmKind::ALL;
        let models = ComputeModelKind::ALL;
        let profiles = ProgramProfile::ALL;
        TenantSpec {
            name: format!("soak-{i}"),
            structure: structures[i % structures.len()],
            algorithm: algorithms[i % algorithms.len()],
            model: models[i % models.len()],
            directed: (i / 2).is_multiple_of(2),
            capacity: 32 + 8 * (i % 3),
            queue_bound: 2 + i % 3,
            profile: profiles[i % profiles.len()],
            seed: seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            streams: 4,
        }
    }

    /// The `key=value` body for `POST /tenants`.
    pub fn config_body(&self) -> String {
        format!(
            "name={}\nstructure={}\nalgorithm={}\nmodel={}\ncapacity={}\n\
             directed={}\nqueue_bound={}\nthreads=2\n",
            self.name,
            self.structure.key(),
            self.algorithm.key(),
            self.model.key(),
            self.capacity,
            self.directed,
            self.queue_bound,
        )
    }

    /// The program stream `s` submits in round `r` — a pure function of
    /// the spec, which is what makes a single-stream run's journal
    /// byte-reproducible.
    pub fn program(&self, stream: usize, round: u64) -> OpProgram {
        let seed = self
            .seed
            .wrapping_add((stream as u64).wrapping_mul(0x517C_C1B7_2722_0A95))
            .wrapping_add(round.wrapping_mul(0x2545_F491_4F6C_DD1D));
        OpProgram::generate_with(seed, self.profile, self.capacity, self.directed)
    }
}

/// Renders one program batch as the wire-format lines `POST .../batches`
/// accepts (canonical spelling, explicit weights).
pub fn render_batch(ops: &[(EdgeOp, saga_stream::Node, saga_stream::Node)], directed: bool) -> String {
    let mut body = String::new();
    for &(op, s, d) in ops {
        let edge = Edge::new(s, d, edge_weight(s, d, directed));
        body.push_str(&render_edge_line(&edge, op));
        body.push('\n');
    }
    body
}

/// What a load run against one tenant observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriveReport {
    /// Batches accepted (`202`) across all streams and rounds.
    pub accepted: usize,
    /// `429` responses absorbed by retry — the backpressure observations.
    pub rejected_429: usize,
    /// Largest post-admission queue depth any `202` reported.
    pub max_depth: usize,
}

impl DriveReport {
    /// Merges another report into this one (depth takes the max).
    pub fn merge(&mut self, other: DriveReport) {
        self.accepted += other.accepted;
        self.rejected_429 += other.rejected_429;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Creates the tenant on the server.
///
/// # Errors
///
/// I/O failures and non-`201` responses come back as messages.
pub fn create_tenant(addr: SocketAddr, spec: &TenantSpec) -> Result<(), String> {
    let mut client = Client::new(addr);
    let resp = client
        .post("/tenants", &spec.config_body())
        .map_err(|e| format!("create {}: {e}", spec.name))?;
    if resp.status != 201 {
        return Err(format!("create {}: {} {}", spec.name, resp.status, resp.text()));
    }
    Ok(())
}

/// Drives `spec.streams` concurrent clients against the tenant until
/// `deadline` (always completing at least one full round each), retrying
/// rejected batches until admission.
///
/// # Panics
///
/// Panics if the server answers anything other than `202`/`429` for a
/// batch — in a load test that is a harness bug worth dying loudly for.
pub fn drive_tenant(addr: SocketAddr, spec: &TenantSpec, deadline: Instant) -> DriveReport {
    let accepted = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let max_depth = AtomicUsize::new(0);
    let pool = ThreadPool::new(spec.streams.max(1));
    pool.run_on_all(|stream_idx| {
        let mut client = Client::new(addr);
        let mut round = 0u64;
        loop {
            let program = spec.program(stream_idx, round);
            for batch in &program.batches {
                let body = render_batch(batch, spec.directed);
                loop {
                    let resp = client
                        .post(&format!("/tenants/{}/batches", spec.name), &body)
                        .unwrap_or_else(|e| panic!("{}: submit failed: {e}", spec.name));
                    match resp.status {
                        202 => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            let depth: usize = resp
                                .text()
                                .trim()
                                .strip_prefix("depth ")
                                .and_then(|d| d.parse().ok())
                                .unwrap_or(0);
                            max_depth.fetch_max(depth, Ordering::Relaxed);
                            break;
                        }
                        429 => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(1 + stream_idx as u64));
                        }
                        other => panic!(
                            "{}: unexpected status {other} for batch: {}",
                            spec.name,
                            resp.text()
                        ),
                    }
                }
            }
            round += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    });
    DriveReport {
        accepted: accepted.load(Ordering::Relaxed),
        rejected_429: rejected.load(Ordering::Relaxed),
        max_depth: max_depth.load(Ordering::Relaxed),
    }
}

/// What offline verification established for one tenant.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Batches the journal recorded.
    pub batches: usize,
    /// Total ops across those batches.
    pub ops: usize,
    /// Final logical edge count (oracle == server, asserted).
    pub final_edges: usize,
}

/// Fetches the tenant's journal, `/edges`, and `/values`, replays the
/// journal offline, and diffs both topology and values.
///
/// # Errors
///
/// Any divergence — topology row, value, or edge count — comes back as a
/// message naming the tenant and the first mismatch.
pub fn verify_tenant(addr: SocketAddr, spec: &TenantSpec) -> Result<VerifyReport, String> {
    let mut client = Client::new(addr);
    let fetch = |client: &mut Client, path: &str| -> Result<String, String> {
        let resp = client
            .get(path)
            .map_err(|e| format!("{}: GET {path}: {e}", spec.name))?;
        if resp.status != 200 {
            return Err(format!("{}: GET {path}: {}", spec.name, resp.status));
        }
        Ok(resp.text())
    };

    // The journal endpoint takes a snapshot barrier first, so everything
    // admitted before this request is covered; edges/values dumps taken
    // after see at least that prefix (the drive has finished, so exactly
    // that prefix).
    let journal_text = fetch(&mut client, &format!("/tenants/{}/journal", spec.name))?;
    let edges_text = fetch(&mut client, &format!("/tenants/{}/edges", spec.name))?;
    let values_text = fetch(&mut client, &format!("/tenants/{}/values", spec.name))?;

    let batches = parse_journal(&journal_text, spec.directed)
        .map_err(|e| format!("{}: journal: {e}", spec.name))?;
    if batches.is_empty() {
        return Err(format!("{}: journal is empty after load", spec.name));
    }
    verify_against_dumps(spec, &batches, &edges_text, &values_text)
}

/// The replay core, shared by [`verify_tenant`] and the reproducibility
/// check: replays `batches` through the oracle and a from-scratch driver
/// reference, diffing against the server's dumps.
///
/// # Errors
///
/// Returns the first divergence as a message.
pub fn verify_against_dumps(
    spec: &TenantSpec,
    batches: &[JournalBatch],
    edges_text: &str,
    values_text: &str,
) -> Result<VerifyReport, String> {
    // Topology: oracle replay vs the server's /edges dump, exact.
    let mut oracle = GraphOracle::new(spec.capacity, spec.directed);
    for b in batches {
        let (inserts, deletes) = b.split();
        oracle.apply_batch(&inserts, &deletes);
    }
    let expected = oracle.edge_list();
    let got = parse_edge_list(edges_text).map_err(|e| format!("{}: edges: {e}", spec.name))?;
    if expected != got {
        let at = expected
            .iter()
            .zip(got.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(got.len()));
        return Err(format!(
            "{}: topology diverges (oracle {} rows, server {} rows; first mismatch at row {at}: \
             oracle {:?} vs server {:?})",
            spec.name,
            expected.len(),
            got.len(),
            expected.get(at),
            got.get(at),
        ));
    }

    // Values: from-scratch single-threaded reference on the journal vs
    // the server's /values dump, within the differential tolerances. The
    // reference structure is deliberately NOT the tenant's (AS here) so
    // agreement also crosses structures, like the fuzzer's matrix.
    let root = journal_root(batches);
    let driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, spec.capacity)
        .algorithm(spec.algorithm)
        .compute_model(ComputeModelKind::FromScratch)
        .threads(1)
        .root(root)
        .params(tenant_params(root))
        .build();
    let mut session = driver.session(spec.capacity, spec.directed, root);
    for b in batches {
        let (inserts, deletes) = b.split();
        session.step(&inserts, &deletes);
    }
    let reference = session.values();
    let server_values =
        parse_values(values_text).map_err(|e| format!("{}: values: {e}", spec.name))?;
    if let Some(diff) = values_diff(&reference, &server_values) {
        return Err(format!(
            "{}: values diverge from FS replay ({} {} on {:?}): {diff}",
            spec.name, spec.algorithm, spec.model, spec.structure
        ));
    }

    Ok(VerifyReport {
        batches: batches.len(),
        ops: batches.iter().map(|b| b.ops.len()).sum(),
        final_edges: expected.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_server::{Server, ServerConfig};

    #[test]
    fn single_tenant_load_verify_round_trip() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let spec = TenantSpec {
            name: "lg-unit".to_string(),
            structure: DataStructureKind::Stinger,
            algorithm: AlgorithmKind::Cc,
            model: ComputeModelKind::Incremental,
            directed: false,
            capacity: 32,
            queue_bound: 2,
            profile: ProgramProfile::DeleteHeavy,
            seed: 7,
            streams: 2,
        };
        create_tenant(server.addr(), &spec).unwrap();
        let report = drive_tenant(server.addr(), &spec, Instant::now());
        assert!(report.accepted >= 1);
        let verify = verify_tenant(server.addr(), &spec).unwrap();
        assert_eq!(verify.batches, report.accepted);
        server.shutdown();
    }

    #[test]
    fn seeded_programs_are_reproducible() {
        let spec = TenantSpec::nth(3, 42);
        assert_eq!(spec.program(0, 0), spec.program(0, 0));
        assert_ne!(spec.program(0, 0), spec.program(1, 0));
        assert_ne!(spec.program(0, 0), spec.program(0, 1));
    }
}
