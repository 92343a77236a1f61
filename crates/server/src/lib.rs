//! Multi-tenant streaming graph analytics service.
//!
//! `saga-server` turns the SAGA-Bench streaming engine into a long-running
//! service: a dependency-free HTTP/1.1 server over `std::net` hosting many
//! named graph *tenants* concurrently. Each tenant picks a point in the
//! structure × algorithm × compute-model matrix (the paper's 5 × 6 × 2
//! space), receives edge-op batches in the loader's wire format, and is
//! driven by its own [`DriverSession`] behind an admission-controlled
//! bounded queue — a full queue answers `429`, which is the backpressure
//! contract the soak harness in `saga-check` observes.
//!
//! Every admitted batch is recorded, in application order, into a
//! per-tenant [journal](journal). Replaying that journal offline through
//! `GraphOracle` (and a from-scratch driver run) and diffing against the
//! server's own `/values` and `/edges` dumps is the service's correctness
//! story: the server provably processed exactly what it admitted. See
//! DESIGN.md §13.
//!
//! The service is observable end to end (DESIGN.md §14): every accepted
//! request mints a [`TraceCtx`](saga_trace::TraceCtx) that follows the
//! batch through the tenant queue into driver and BSP spans (stitched
//! back into one tree by `saga_trace::analyze`), the per-thread trace
//! rings run as an always-on [flight recorder](flight) dumped on panic /
//! sustained shedding / slow batches, and `GET /metrics` serves the
//! registry as Prometheus text exposition (CSV via `?format=csv`).
//!
//! Module map:
//!
//! - [`http`] — total HTTP/1.1 parsing (arbitrary byte soup never panics
//!   and never hangs a connection; pinned by `tests/seeded_http.rs`).
//! - [`flight`] — flight-recorder dump triggers and artifacts.
//! - [`journal`] — the batch journal format and its parse/serialize
//!   round-trip.
//! - [`tenant`] — per-tenant config, queue, worker thread, snapshots.
//! - [`api`] — the registry and request routing.
//! - [`server`] — accept loop, connection queue, reused worker pool.
//! - [`client`] — a minimal blocking client for load generators & tests.
//!
//! [`DriverSession`]: saga_core::driver::DriverSession

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod flight;
pub mod http;
pub mod journal;
pub mod server;
pub mod tenant;

pub use api::Registry;
pub use client::{Client, ClientResponse};
pub use server::{Server, ServerConfig};
pub use tenant::{Tenant, TenantConfig};
