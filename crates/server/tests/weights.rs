//! A live server refuses a batch whose weights would wedge its tenant.
//!
//! Delta-stepping SSSP maps every negative distance to bucket 0 and
//! refills it forever, so a `0 1 -1` / `1 0 -1` cycle admitted to an SSSP
//! tenant would never finish its batch, and every later read would park
//! an HTTP worker behind it. The body must get 400 instead, and the tenant
//! must keep answering. Its own binary: tenant metric series are
//! process-global and labelled by name, so it shares no process with the
//! unit tests.

use saga_server::{Client, Server, ServerConfig};

#[test]
fn negative_cycle_body_gets_400_and_the_tenant_keeps_answering() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::new(server.addr());
    let config = "name=sp\nalgorithm=sssp\nroot=0\ncapacity=4\n";
    assert_eq!(client.post("/tenants", config).unwrap().status, 201);

    let resp = client.post("/tenants/sp/batches", "0 1 -1\n1 0 -1\n").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().starts_with("line 1: weight -1 "), "{}", resp.text());

    let resp = client.post("/tenants/sp/batches", "0 1 1\n1 2 2\n").unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let resp = client.get("/tenants/sp/values").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "f32 4\n0 0\n1 1\n2 3\n3 inf\n");
    drop(client); // close the keep-alive connection so shutdown need not wait it out
    server.shutdown();
}
