//! `--quick` (1/100 scale) smoke runs of the whole rig through its command
//! line, child server included, and the child's lifetime.

use saga_check::json::{parse, Json};
use saga_rig::child::{Paths, ServerChild};
use saga_rig::inputs::{Workload, SERVER_WORKERS};
use saga_rig::metrics::{END_TO_END, PER_LAYER};
use std::process::Command;

fn rig(args: &[&str]) -> (bool, Vec<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_saga-rig"))
        .args(args)
        .output()
        .expect("rig runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Result lines are the compact one-line objects; documents are indented.
    let lines = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| parse(l).expect("result line is JSON"));
    let lines: Vec<Json> = lines.collect();
    assert!(
        !lines.is_empty(),
        "no result line\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), lines)
}

fn assert_result(line: &Json, catalogue: &[saga_rig::metrics::MetricDef]) {
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{line:?}");
    assert_eq!(
        line.get("failed").and_then(Json::as_usize),
        Some(0),
        "{line:?}"
    );
    assert!(line.get("attempted").and_then(Json::as_usize).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics in {line:?}")
    };
    let names: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want = names.clone();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
    for def in catalogue {
        let metric = &metrics[def.name];
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{} has no value", def.name));
        assert!(value.is_finite(), "{} = {value}", def.name);
    }
}

#[test]
fn quick_run_of_all_five_workloads_end_to_end() {
    let (ok, lines) = rig(&["--quick", "--seconds", "1", "--seed", "7"]);
    assert!(ok, "a healthy run exits 0");
    assert_eq!(lines.len(), Workload::ALL.len());
    for line in &lines {
        assert_result(line, &END_TO_END);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            unreachable!()
        };
        for def in &END_TO_END {
            assert!(
                metrics[def.name]
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap()
                    > 0.0,
                "{} is never 0",
                def.name
            );
        }
    }
}

#[test]
fn quick_traced_run_of_a_library_and_a_server_workload() {
    for workload in ["lib.exec-modes", "server.closed-small"] {
        let (ok, lines) = rig(&[
            "--quick",
            "--seconds",
            "1",
            "--workload",
            workload,
            "--trace",
            "1",
        ]);
        assert!(ok, "{workload}: a healthy traced run exits 0");
        assert_result(&lines[0], &PER_LAYER);
        let spans = Paths::locate()
            .unwrap()
            .out_dir
            .join(format!("{workload}.spans.json"));
        let doc = parse(&std::fs::read_to_string(&spans).expect("span file written")).unwrap();
        assert!(!doc
            .get("self_time")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        let first = &doc.get("spans").and_then(Json::as_array).unwrap()[0];
        for key in ["name", "start_ns", "end_ns", "parent", "batch"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_saga-rig"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

fn alive(pid: u32) -> bool {
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

#[test]
fn the_child_server_dies_with_its_guard_even_on_panic() {
    let paths = Paths::locate().unwrap();
    let bin = paths.build_server().expect("saga-server builds");
    std::fs::create_dir_all(&paths.out_dir).unwrap();

    let server = ServerChild::spawn(&bin, SERVER_WORKERS, &paths.out_dir).unwrap();
    let pid = server.pid();
    assert!(alive(pid) && server.addr().port() != 0);
    assert!(server.peak_rss_mb().unwrap() > 0.0);
    drop(server);
    assert!(!alive(pid), "drop kills and reaps the child");

    let (send, receive) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let server = ServerChild::spawn(&bin, SERVER_WORKERS, &paths.out_dir).unwrap();
        send.send(server.pid()).unwrap();
        panic!("the rig fails while the server runs");
    });
    let pid = receive.recv().unwrap();
    assert!(worker.join().is_err());
    assert!(!alive(pid), "unwinding kills and reaps the child");
}
