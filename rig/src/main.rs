//! `saga-rig` command line. The only file of the rig that prints.

use saga_rig::aa;
use saga_rig::child::Paths;
use saga_rig::inputs::Workload;
use saga_rig::json::Json;
use saga_rig::run::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;
use std::process::{Command, Stdio};

const USAGE: &str =
    "usage: saga-rig [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa N]";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => parsed.quick = true,
            "--aa" => {
                parsed.aa = Some(match it.peek().and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 2,
                })
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match drive(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("saga-rig: {message}");
            ExitCode::from(1)
        }
    }
}

/// Runs what was asked; `Ok(false)` when a correctness gate failed or the
/// `--aa` sets disagree by more than a bound.
fn drive(args: &Args) -> Result<bool, String> {
    let paths = Paths::locate()?;
    std::fs::create_dir_all(&paths.out_dir)
        .map_err(|e| format!("{}: {e}", paths.out_dir.display()))?;
    if let Some(sets) = args.aa {
        return self_check(args, sets.max(2), &paths);
    }
    if let [workload] = args.workloads[..] {
        let server_bin = if workload.is_server() {
            Some(paths.build_server()?)
        } else {
            None
        };
        let options = Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
        };
        let outcome = run(&options, &paths, server_bin.as_deref())?;
        std::fs::write(
            document_path(&paths, args, workload),
            outcome.document.pretty(),
        )
        .map_err(|e| e.to_string())?;
        println!("{}", outcome.result_line());
        return Ok(outcome.correct);
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        let (correct, line) = run_in_child(args, workload)?;
        let document = document_path(&paths, args, workload);
        print!(
            "{}",
            std::fs::read_to_string(&document)
                .map_err(|e| format!("{}: {e}", document.display()))?
        );
        println!("{line}");
        all_correct &= correct;
    }
    Ok(all_correct)
}

fn document_path(paths: &Paths, args: &Args, workload: Workload) -> PathBuf {
    let suffix = if args.trace { "trace" } else { "e2e" };
    paths
        .out_dir
        .join(format!("{}.{suffix}.json", workload.name()))
}

/// Runs one workload in a process of its own — this program again, with
/// `--workload` — and returns whether it was correct and its result line.
/// Peak memory is per process, and the allocator keeps what a workload
/// freed: in one process every library workload after the first would
/// report its predecessors' heap.
fn run_in_child(args: &Args, workload: Workload) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    child.args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        child.arg("--quick");
    }
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run the rig: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no result line", workload.name()))?;
    Ok((output.status.success(), line.to_string()))
}

/// `--aa N`: N sets of end-to-end runs of the same code and seed, in
/// alternating workload order, compared against each metric's bound.
fn self_check(args: &Args, sets: usize, paths: &Paths) -> Result<bool, String> {
    if args.trace {
        return Err("--aa compares end-to-end metrics; drop --trace".to_string());
    }
    let mut correct = true;
    let mut measured: Vec<Vec<aa::Measured>> = Vec::with_capacity(sets);
    for k in 0..sets {
        let mut set = Vec::with_capacity(args.workloads.len());
        for w in aa::order(args.workloads.len(), k) {
            let workload = args.workloads[w];
            let (ok, line) = run_in_child(args, workload)?;
            eprintln!("set {k} {}: {line}", workload.name());
            correct &= ok;
            set.push((
                w,
                aa::Measured {
                    workload: workload.name(),
                    metrics: parse_metrics(&line)?,
                },
            ));
        }
        // Back into workload order, whatever order the set ran in.
        set.sort_by_key(|&(w, _)| w);
        measured.push(set.into_iter().map(|(_, m)| m).collect());
    }
    let rows = aa::compare(&measured);
    for row in &rows {
        println!(
            "{:<20} {:<14} spread {:>7.3}% bound {:>5.1}% {}",
            row.workload,
            row.metric,
            row.spread * 100.0,
            row.bound * 100.0,
            if row.ok() { "ok" } else { "EXCEEDED" },
        );
    }
    let document = Json::obj([
        ("sets", Json::count(sets)),
        ("seed", Json::Int(args.seed as i64)),
        ("rows", aa::to_json(&rows)),
    ]);
    let file = paths.out_dir.join("aa.json");
    std::fs::write(&file, document.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(correct && rows.iter().all(aa::Row::ok))
}

/// `(name, value)` of every metric in a result line.
fn parse_metrics(line: &str) -> Result<Vec<(String, f64)>, String> {
    let parsed =
        saga_check::json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let Some(saga_check::json::Json::Obj(metrics)) = parsed.get("metrics") else {
        return Err(format!("result line has no metrics: {line}"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}
