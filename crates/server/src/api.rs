//! Request routing: the tenant registry and the HTTP API surface.
//!
//! The API is deliberately plain-text (bodies are `key=value` lines or
//! edge-op lines in the loader's wire format) so every endpoint is
//! scriptable with nothing but a TCP socket:
//!
//! | Method | Path | Body | Success |
//! |---|---|---|---|
//! | `GET` | `/healthz` | — | `200 ok` + build/uptime info |
//! | `GET` | `/metrics` | — | `200` Prometheus text (`?format=csv` for CSV) |
//! | `GET` | `/debug/flight` | — | `200` flight-recorder Chrome trace (`?dump=1` also writes an artifact) |
//! | `GET` | `/tenants` | — | `200` one name per line |
//! | `POST` | `/tenants` | `key=value` config | `201` status doc |
//! | `GET` | `/tenants/{t}/status` | — | `200` status doc |
//! | `POST` | `/tenants/{t}/batches` | edge-op lines | `202 depth N` |
//! | `GET` | `/tenants/{t}/values` | — | `200` values doc |
//! | `GET` | `/tenants/{t}/edges` | — | `200` edge-list doc |
//! | `GET` | `/tenants/{t}/journal` | — | `200` journal doc |
//! | `DELETE` | `/tenants/{t}` | — | `204` |
//!
//! A full queue answers `429` with a `Retry-After` header — that is the
//! admission-control backpressure contract the soak harness exercises.

use crate::http::{Request, Response};
use crate::tenant::{Dumps, SubmitError, Tenant, TenantConfig};
use saga_stream::loader::{read_op_lines, OpLine};
use saga_stream::{Edge, EdgeOp};
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use saga_utils::sync::{Arc, Mutex};
use std::collections::HashMap;

/// The server's tenant table. Shared by every connection worker; the map
/// lock is held only for lookups/insertions, never across graph work.
#[derive(Debug, Default)]
pub struct Registry {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    next_id: AtomicUsize,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Creates and spawns a tenant. `Err` when the name is taken.
    pub fn create(&self, config: TenantConfig) -> Result<Arc<Tenant>, String> {
        // Spawn before taking the map lock: the worker startup path reaches
        // graph and driver locks, and holding the registry lock across it
        // would pin a lock order the request handlers don't need. A name
        // race just costs one short-lived worker (shut down below); its
        // series are the live tenant's (labelled by name), so the clash
        // path evicts nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = config.name.clone();
        let tenant = Tenant::spawn(id, config);
        let clash = {
            let mut tenants = self.tenants.lock();
            if tenants.contains_key(&name) {
                true
            } else {
                tenants.insert(name.clone(), Arc::clone(&tenant));
                false
            }
        };
        if clash {
            tenant.shutdown();
            return Err(format!("tenant {name:?} already exists"));
        }
        Ok(tenant)
    }

    /// Looks up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().get(name).cloned()
    }

    /// Removes a tenant from the table (caller shuts it down outside the
    /// map lock).
    pub fn remove(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().remove(name)
    }

    /// Tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Shuts down and drops every tenant (drains queued work first).
    pub fn shutdown_all(&self) {
        let drained: Vec<Arc<Tenant>> = self.tenants.lock().drain().map(|(_, t)| t).collect();
        for tenant in drained {
            tenant.shutdown();
        }
    }
}

/// Routes one request to a handler and produces the response. Total:
/// every input maps to a response (the parser upstream already rejected
/// malformed HTTP).
pub fn handle(registry: &Registry, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(
            200,
            format!(
                "ok\nserver saga-server {}\nuptime_seconds {:.3}\n",
                env!("CARGO_PKG_VERSION"),
                saga_trace::expose::uptime_seconds(),
            ),
        ),
        ("GET", ["metrics"]) => {
            // Prometheus text exposition by default; the original CSV
            // snapshot stays reachable for the soak harness's artifacts.
            if has_query_flag(req, "format=csv") {
                Response::text(200, saga_trace::metrics::snapshot().to_csv())
            } else {
                Response::text(200, saga_trace::expose::prometheus_text())
            }
        }
        ("GET", ["debug", "flight"]) => {
            // The rings drain non-destructively, so serving the capture
            // does not consume it. `?dump=1` additionally writes the
            // on-disk artifact pair (trace + metrics sidecar).
            if has_query_flag(req, "dump=1") {
                crate::flight::dump("manual");
            }
            Response::text(200, saga_trace::chrome_trace())
        }
        ("GET", ["tenants"]) => {
            let mut body = String::new();
            for name in registry.names() {
                body.push_str(&name);
                body.push('\n');
            }
            Response::text(200, body)
        }
        ("POST", ["tenants"]) => create_tenant(registry, req),
        ("DELETE", ["tenants", name]) => match registry.remove(name) {
            Some(tenant) => {
                tenant.shutdown();
                // Evict the tenant's series so a churn of create/delete
                // cycles over fresh names cannot exhaust the per-family
                // cardinality cap.
                saga_trace::metrics::evict_label("tenant", name);
                Response::text(204, "")
            }
            None => Response::text(404, format!("no tenant {name:?}\n")),
        },
        ("POST", ["tenants", name, "batches"]) => submit_batch(registry, name, req),
        ("GET", ["tenants", name, "status"]) => with_tenant(registry, name, |t| {
            Response::text(200, t.status_text())
        }),
        ("GET", ["tenants", name, "values"]) => {
            with_snapshot(registry, name, Dumps { values: true, edges: false }, |_, s| {
                Response::text(200, s.values_text)
            })
        }
        ("GET", ["tenants", name, "edges"]) => {
            with_snapshot(registry, name, Dumps { values: false, edges: true }, |_, s| {
                Response::text(200, s.edges_text)
            })
        }
        ("GET", ["tenants", name, "journal"]) => {
            // The read barrier first (rendering nothing): the journal then
            // covers every batch admitted before this request arrived.
            let nothing = Dumps { values: false, edges: false };
            with_snapshot(registry, name, nothing, |t, _| Response::text(200, t.journal_text()))
        }
        (_, ["healthz" | "metrics" | "tenants"]) | (_, ["tenants", ..]) | (_, ["debug", ..]) => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "unknown path\n"),
    }
}

/// True when the raw query string contains `flag` as one of its
/// `&`-separated components (exact match — the API's query surface is
/// just boolean flags, no percent-decoding needed).
fn has_query_flag(req: &Request, flag: &str) -> bool {
    req.query.split('&').any(|kv| kv == flag)
}

fn with_tenant<F>(registry: &Registry, name: &str, f: F) -> Response
where
    F: FnOnce(&Tenant) -> Response,
{
    match registry.get(name) {
        Some(tenant) => f(&tenant),
        None => Response::text(404, format!("no tenant {name:?}\n")),
    }
}

fn with_snapshot<F>(registry: &Registry, name: &str, dumps: Dumps, f: F) -> Response
where
    F: FnOnce(&Tenant, crate::tenant::TenantSnapshot) -> Response,
{
    with_tenant(registry, name, |tenant| match tenant.read(dumps) {
        Some(snap) => f(tenant, snap),
        None => Response::text(409, "tenant is shutting down\n"),
    })
}

fn create_tenant(registry: &Registry, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return Response::text(400, "config body must be UTF-8\n"),
    };
    let config = match TenantConfig::parse(body) {
        Ok(c) => c,
        Err(e) => return Response::text(400, format!("bad config: {e}\n")),
    };
    match registry.create(config) {
        Ok(tenant) => Response::text(201, tenant.status_text()),
        Err(e) => Response::text(409, format!("{e}\n")),
    }
}

/// Parses an uploaded batch body — edge-op lines in every spelling the
/// loader accepts, read by [`read_op_lines`] — into driver ops, adding
/// the server's own rules: vertex ids below the tenant's capacity, and
/// explicit weights finite and non-negative (a negative SSSP weight would
/// keep delta-stepping refilling bucket 0 forever). Absent weights are
/// derived deterministically.
///
/// # Errors
///
/// Returns `(status, message)`: 400 naming the line for an unparseable
/// row, an out-of-range id or a bad weight; 400 for an empty batch.
pub fn parse_batch_body(
    body: &str,
    capacity: usize,
    directed: bool,
) -> Result<Vec<(EdgeOp, Edge)>, (u16, String)> {
    let mut ops = Vec::new();
    read_op_lines(body, |line| {
        let OpLine::Op(raw) = line else { return Ok(()) };
        let (src, dst) = raw.nodes()?;
        if src as usize >= capacity || dst as usize >= capacity {
            return Err(format!("vertex id out of range (capacity {capacity})"));
        }
        if let Some(w) = raw.weight.filter(|w| !w.is_finite() || *w < 0.0) {
            return Err(format!("weight {w} must be finite and non-negative"));
        }
        ops.push((raw.op, raw.edge(src, dst, directed)));
        Ok(())
    })
    .map_err(|e| (400, e))?;
    if ops.is_empty() {
        return Err((400, "batch contains no edge ops".to_string()));
    }
    Ok(ops)
}

fn submit_batch(registry: &Registry, name: &str, req: &Request) -> Response {
    with_tenant(registry, name, |tenant| {
        let body = match std::str::from_utf8(&req.body) {
            Ok(b) => b,
            Err(_) => return Response::text(400, "batch body must be UTF-8\n"),
        };
        let ops = match parse_batch_body(body, tenant.config.capacity, tenant.config.directed) {
            Ok(ops) => ops,
            Err((status, msg)) => return Response::text(status, format!("{msg}\n")),
        };
        match tenant.submit(ops, saga_trace::ctx::current()) {
            Ok(depth) => {
                crate::flight::note_admitted();
                Response::text(202, format!("depth {depth}\n"))
            }
            Err(SubmitError::Full) => {
                // Shedding: count it toward the flight recorder's
                // sustained-rejection trigger.
                crate::flight::note_shed();
                let mut resp = Response::text(429, "queue full, retry\n");
                resp.headers.push(("retry-after".to_string(), "1".to_string()));
                resp
            }
            Err(SubmitError::Closed) => Response::text(409, "tenant is shutting down\n"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn lifecycle_create_upload_read_delete() {
        let registry = Registry::new();
        let resp = handle(&registry, &req("POST", "/tenants", "name=t0\nalgorithm=cc\ncapacity=8\n"));
        assert_eq!(resp.status, 201, "{resp:?}");
        let resp = handle(&registry, &req("POST", "/tenants", "name=r\ncapacity=8\nroot=1000\n"));
        assert_eq!(resp.status, 400, "a root past capacity is refused up front: {resp:?}");
        assert!(String::from_utf8_lossy(&resp.body).contains("root"), "{resp:?}");

        let resp = handle(&registry, &req("POST", "/tenants/t0/batches", "0 1\n+ 1 2\nd 9 9\n"));
        assert_eq!(resp.status, 400, "id 9 out of capacity 8: {resp:?}");
        let resp = handle(&registry, &req("POST", "/tenants/t0/batches", "0 1\n+ 1 2\n"));
        assert_eq!(resp.status, 202, "{resp:?}");

        let resp = handle(&registry, &req("GET", "/tenants/t0/values", ""));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).starts_with("u32"), "{resp:?}");

        let resp = handle(&registry, &req("GET", "/tenants/t0/edges", ""));
        assert_eq!(String::from_utf8_lossy(&resp.body).lines().count(), 2);

        let resp = handle(&registry, &req("GET", "/tenants/t0/journal", ""));
        let journal = String::from_utf8_lossy(&resp.body).to_string();
        assert!(journal.contains("#batch 0"), "{journal}");

        let resp = handle(&registry, &req("GET", "/tenants", ""));
        assert_eq!(String::from_utf8_lossy(&resp.body), "t0\n");

        assert_eq!(handle(&registry, &req("DELETE", "/tenants/t0", "")).status, 204);
        assert_eq!(handle(&registry, &req("GET", "/tenants/t0/status", "")).status, 404);
    }

    #[test]
    fn reads_render_only_what_they_return() {
        let registry = Registry::new();
        let body = "name=r\nalgorithm=sssp\ncapacity=8\n";
        assert_eq!(handle(&registry, &req("POST", "/tenants", body)).status, 201);
        for batch in ["0 1 0.5\n1 2 2.5\n", "+ 2 3 1\n- 0 1\n"] {
            assert_eq!(handle(&registry, &req("POST", "/tenants/r/batches", batch)).status, 202);
        }
        let get = |path: &str| handle(&registry, &req("GET", path, "")).body;
        let (values, edges) = (get("/tenants/r/values"), get("/tenants/r/edges"));
        let tenant = registry.get("r").unwrap();
        let snap = tenant.snapshot().unwrap();
        assert_eq!(values, snap.values_text.as_bytes(), "/values is the snapshot's dump");
        assert_eq!(edges, snap.edges_text.as_bytes(), "/edges is the snapshot's dump");
        assert_eq!(snap.edges_text, "1 2 2.5\n2 3 1\n");
        let only_values = tenant.read(Dumps { values: true, edges: false }).unwrap();
        assert_eq!((only_values.values_text, only_values.edges_text), (snap.values_text, String::new()));
        let nothing = tenant.read(Dumps { values: false, edges: false }).unwrap();
        assert_eq!((nothing.batches_processed, nothing.num_edges), (2, 2));
        assert!(nothing.values_text.is_empty() && nothing.edges_text.is_empty());
        registry.shutdown_all();
    }

    #[test]
    fn error_paths() {
        let registry = Registry::new();
        assert_eq!(handle(&registry, &req("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&registry, &req("PUT", "/tenants", "")).status, 405);
        assert_eq!(handle(&registry, &req("POST", "/tenants", "structure=as\n")).status, 400);
        assert_eq!(handle(&registry, &req("POST", "/tenants/ghost/batches", "0 1\n")).status, 404);
        assert_eq!(handle(&registry, &req("DELETE", "/tenants/ghost", "")).status, 404);

        handle(&registry, &req("POST", "/tenants", "name=dup\n"));
        assert_eq!(handle(&registry, &req("POST", "/tenants", "name=dup\n")).status, 409);
        assert_eq!(handle(&registry, &req("POST", "/tenants/dup/batches", "\n#c\n")).status, 400);
        registry.shutdown_all();
    }

    fn req_q(method: &str, path: &str, query: &str) -> Request {
        Request {
            query: query.to_string(),
            ..req(method, path, "")
        }
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let registry = Registry::new();
        let resp = handle(&registry, &req("GET", "/healthz", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert!(body.starts_with("ok\n"), "{body}");
        assert!(body.contains("server saga-server "), "{body}");
        assert!(body.contains("uptime_seconds "), "{body}");

        // Default exposition is Prometheus text (`saga-check`'s `obs.rs`
        // validates a live scrape).
        let resp = handle(&registry, &req("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(text.contains("saga_build_info"), "{text}");

        // The CSV snapshot is still served behind `?format=csv`.
        let resp = handle(&registry, &req_q("GET", "/metrics", "format=csv"));
        let csv = String::from_utf8_lossy(&resp.body).to_string();
        assert!(csv.starts_with("kind,name,count,value"), "{csv}");
    }

    #[test]
    fn debug_flight_serves_the_live_capture() {
        let registry = Registry::new();
        let resp = handle(&registry, &req("GET", "/debug/flight", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        // The capture is drained non-destructively: a second read works.
        let again = handle(&registry, &req("GET", "/debug/flight", ""));
        assert_eq!(again.status, 200);
        assert_eq!(handle(&registry, &req("POST", "/debug/flight", "")).status, 405);
    }

    #[test]
    fn negative_and_non_finite_weights_are_rejected_by_line() {
        for bad in ["-1", "NaN", "inf", "-inf", "-0.5"] {
            let body = format!("0 1 2.5\n1 2 {bad}\n");
            let (status, msg) = parse_batch_body(&body, 4, true).unwrap_err();
            assert_eq!(status, 400, "{bad}");
            assert!(msg.starts_with("line 2: weight "), "{bad}: {msg}");
        }
        let ops = parse_batch_body("0 1 0\n1 0 -0\n2 3\n", 4, true).unwrap();
        assert_eq!(ops.len(), 3, "zero weights and derived weights pass");
    }

    /// `name`'s series of `family` in a fresh registry snapshot.
    fn tenant_series(family: &str, name: &str) -> usize {
        let snap = saga_trace::metrics::snapshot();
        let counters = snap.counters.into_iter().map(|(k, _)| k);
        let gauges = snap.gauges.into_iter().map(|(k, _)| k);
        let histograms = snap.histograms.into_iter().map(|(k, ..)| k);
        counters
            .chain(gauges)
            .chain(histograms)
            .filter(|k| k.family == family && k.label == Some(("tenant", name.to_string())))
            .count()
    }

    #[test]
    fn tenant_delete_evicts_labelled_series() {
        let registry = Registry::new();
        let resp = handle(&registry, &req("POST", "/tenants", "name=evict\ncapacity=4\n"));
        assert_eq!(resp.status, 201, "{resp:?}");
        assert_eq!(tenant_series("server.queue_depth", "evict"), 1);
        assert_eq!(tenant_series("server.tenant_batch_ns", "evict"), 1);
        assert_eq!(handle(&registry, &req("DELETE", "/tenants/evict", "")).status, 204);
        assert_eq!(tenant_series("server.queue_depth", "evict"), 0, "evicted on delete");
        assert_eq!(tenant_series("server.tenant_batch_ns", "evict"), 0, "evicted on delete");
    }

    #[test]
    fn refused_creates_register_no_series() {
        let registry = Registry::new();
        let body = "name=clash\ncapacity=4\n";
        assert_eq!(handle(&registry, &req("POST", "/tenants", body)).status, 201);
        // More refusals than a family holds series: each refused worker
        // must reuse the live tenant's series, not mint its own.
        for _ in 0..300 {
            assert_eq!(handle(&registry, &req("POST", "/tenants", body)).status, 409);
        }
        assert_eq!(tenant_series("server.queue_depth", "clash"), 1);
        let snap = saga_trace::metrics::snapshot();
        let dropped = snap.counters.iter().find(|(k, _)| k.family == "metrics.series_dropped");
        assert_eq!(dropped, None, "no series overflowed the family cap");
        registry.shutdown_all();
    }
}
