//! `saga` — command-line driver for the SAGA-Bench suite.
//!
//! Runs one streaming-analytics configuration end to end and prints the
//! per-batch latency breakdown plus a stage summary:
//!
//! ```text
//! saga run --dataset LJ --structure AS --algorithm PR --model INC
//! saga run --dataset Talk --structure DAH --algorithm BFS --scale 0.5 --threads 4
//! saga run --file soc-LiveJournal1.txt --structure Stinger --algorithm CC
//! saga list
//! ```

use saga_bench_suite::algorithms::{AlgorithmKind, ComputeModelKind};
use saga_bench_suite::core::driver::StreamDriver;
use saga_bench_suite::core::stages::{stage_of, Stage};
use saga_bench_suite::graph::DataStructureKind;
use saga_bench_suite::stream::loader::load_snap_text;
use saga_bench_suite::stream::profiles::DatasetProfile;
use saga_bench_suite::stream::EdgeStream;
use saga_bench_suite::utils::stats::Summary;

fn usage() -> ! {
    eprintln!(
        "usage:
  saga run [options]     stream a dataset through one configuration
  saga list              list datasets, structures, algorithms

run options:
  --dataset <LJ|Orkut|RMAT|Wiki|Talk>   synthetic profile (default: LJ)
  --file <path>                         SNAP edge-list file instead of a profile
  --undirected                          treat --file edges as undirected
  --structure <AS|AC|Stinger|DAH|DeltaCSR>  data structure (default: AS)
  --algorithm <BFS|CC|MC|PR|SSSP|SSWP>  algorithm (default: PR)
  --model <FS|INC>                      compute model (default: INC)
  --scale <f>                           dataset scale multiplier (default: 1.0)
  --batch <n>                           batch size (default: dataset suggestion)
  --threads <n>                         worker threads (default: available)
  --seed <n>                            stream seed (default: 42)"
    );
    std::process::exit(2)
}

fn parse_dataset(s: &str) -> Option<DatasetProfile> {
    DatasetProfile::all()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(s))
}

fn list() {
    println!("datasets (synthetic stand-ins for the paper's Table II):");
    for p in DatasetProfile::all() {
        let stats = p.paper_stats();
        println!(
            "  {:<6} paper: {} vertices / {} edges, scaled default: {} / {} ({})",
            p.name(),
            stats.vertices,
            stats.edges,
            p.num_nodes(),
            p.num_edges(),
            if p.is_directed() { "directed" } else { "undirected" },
        );
    }
    println!("\nstructures: AS, AC, Stinger, DAH, DeltaCSR");
    println!("algorithms: BFS, CC, MC, PR, SSSP, SSWP");
    println!("compute models: FS, INC");
}

struct RunArgs {
    dataset: DatasetProfile,
    file: Option<String>,
    undirected: bool,
    structure: DataStructureKind,
    algorithm: AlgorithmKind,
    model: ComputeModelKind,
    scale: f64,
    batch: Option<usize>,
    threads: usize,
    seed: u64,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            dataset: DatasetProfile::livejournal(),
            file: None,
            undirected: false,
            structure: DataStructureKind::AdjacencyShared,
            algorithm: AlgorithmKind::PageRank,
            model: ComputeModelKind::Incremental,
            scale: 1.0,
            batch: None,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            seed: 42,
        }
    }
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--dataset" => {
                let v = value();
                out.dataset = parse_dataset(v).unwrap_or_else(|| {
                    eprintln!("unknown dataset: {v}");
                    usage()
                });
            }
            "--file" => out.file = Some(value().to_string()),
            "--undirected" => out.undirected = true,
            "--structure" => {
                let v = value();
                out.structure = v.parse().unwrap_or_else(|_| {
                    eprintln!("unknown structure: {v}");
                    usage()
                });
            }
            "--algorithm" => {
                let v = value();
                out.algorithm = v.parse().unwrap_or_else(|_| {
                    eprintln!("unknown algorithm: {v}");
                    usage()
                });
            }
            "--model" => {
                let v = value();
                out.model = v.parse().unwrap_or_else(|_| {
                    eprintln!("unknown compute model: {v}");
                    usage()
                });
            }
            "--scale" => out.scale = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => out.batch = Some(value().parse().unwrap_or_else(|_| usage())),
            "--threads" => out.threads = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            _ => {
                eprintln!("unknown option: {flag}");
                usage()
            }
        }
    }
    out
}

fn load_stream(args: &RunArgs) -> EdgeStream {
    match &args.file {
        Some(path) => load_snap_text(path, !args.undirected, args.seed).unwrap_or_else(|e| {
            eprintln!("could not load {path}: {e}");
            std::process::exit(1)
        }),
        None => args.dataset.clone().scaled_by(args.scale).generate(args.seed),
    }
}

fn run(args: RunArgs) {
    let stream = load_stream(&args);
    let batch_size = args.batch.unwrap_or(stream.suggested_batch_size);
    println!(
        "{} | {} vertices, {} edges, {} batches of {} | {} + {} on {} | {} threads",
        stream.name,
        stream.num_nodes,
        stream.edges.len(),
        stream.edges.len().div_ceil(batch_size),
        batch_size,
        args.algorithm,
        args.model,
        args.structure,
        args.threads,
    );
    let mut builder = StreamDriver::builder(args.structure, stream.num_nodes)
        .algorithm(args.algorithm)
        .compute_model(args.model)
        .threads(args.threads)
        .batch_size(batch_size);
    if args.batch.is_none() {
        builder = builder.batch_size(stream.suggested_batch_size);
    }
    let mut driver = builder.build();
    let outcome = driver.run(&stream);

    println!("\nbatch  update(ms)  compute(ms)  total(ms)  update%");
    println!("---------------------------------------------------");
    for b in &outcome.batches {
        println!(
            "{:>5}  {:>10.2}  {:>11.2}  {:>9.2}  {:>6.1}%",
            b.index,
            b.update_seconds * 1e3,
            b.compute_seconds * 1e3,
            b.batch_seconds() * 1e3,
            b.update_fraction() * 100.0
        );
    }

    // Stage summary (§IV-B of the paper).
    let total = outcome.batches.len();
    println!("\nstage  mean batch latency (ms)  95% CI (±ms)");
    println!("---------------------------------------------");
    for stage in Stage::ALL {
        let samples: Vec<f64> = outcome
            .batches
            .iter()
            .filter(|b| stage_of(b.index, total) == stage)
            .map(|b| b.batch_seconds() * 1e3)
            .collect();
        let s = Summary::from_samples(&samples);
        println!("{stage:>5}  {:>23.3}  {:>12.3}", s.mean, s.ci95);
    }
    println!(
        "\ntotal: {} unique edges, {:.1} ms end to end",
        outcome.total_edges,
        outcome.total_seconds() * 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(parse_run_args(&args[1..])),
        Some("list") => list(),
        _ => usage(),
    }
}
