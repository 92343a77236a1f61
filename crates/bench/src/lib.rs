//! Shared plumbing of the `saga-bench` runner: knobs, selection, output.
//!
//! `cargo run -p saga-bench --release -- <producer>… | all` regenerates
//! every paper artifact (DESIGN.md's experiment index; the producer table
//! is `saga-bench` with no arguments). Each producer carries the
//! configuration its checked `results/` files were recorded at
//! (EXPERIMENTS.md) as a [`Recorded`] constant; every field of it yields to
//! its environment variable when that is set:
//!
//! | Variable | Meaning | Default |
//! |----------|---------|---------|
//! | `SAGA_SCALE` | dataset scale multiplier | recorded per producer |
//! | `SAGA_REPEATS` | repeated runs per configuration | recorded per producer |
//! | `SAGA_THREADS` | worker threads | [`RECORDED_THREADS`] |
//! | `SAGA_SEED` | stream generation seed | `42` |
//! | `SAGA_DATASETS` | comma-separated dataset filter (LJ,Orkut,RMAT,Wiki,Talk) | recorded, else all |
//! | `SAGA_ALGS` | comma-separated algorithm filter (BFS,CC,MC,PR,SSSP,SSWP) | recorded, else all |
//! | `SAGA_RESULTS_DIR` | output directory | `results/` |
//! | `SAGA_TRACE` | `1` exports each producer's span timeline | off |

#![warn(missing_docs)]

pub mod arch;
pub mod experiments;

use saga_algorithms::AlgorithmKind;
use saga_core::experiment::ExperimentConfig;
use saga_stream::profiles::DatasetProfile;

/// One producer's recorded run configuration (EXPERIMENTS.md, "Recorded
/// run configuration").
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Repeated runs per configuration.
    pub repeats: usize,
    /// Dataset filter in `SAGA_DATASETS` syntax (`None`: all five).
    pub datasets: Option<&'static str>,
    /// Algorithm filter in `SAGA_ALGS` syntax (`None`: all six).
    pub algorithms: Option<&'static str>,
}

impl Recorded {
    /// Full profile scale, the paper's three repeats, every dataset and
    /// algorithm.
    pub const FULL: Recorded = Recorded {
        scale: 1.0,
        repeats: 3,
        datasets: None,
        algorithms: None,
    };
}

/// Worker threads of every recorded run.
pub const RECORDED_THREADS: usize = 4;

/// A producer's settings: its [`Recorded`] configuration with the
/// environment's overrides applied.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed, repeats, threads and scale.
    pub cfg: ExperimentConfig,
    /// The selected datasets, in [`DatasetProfile::all`] order.
    pub datasets: Vec<DatasetProfile>,
    /// The selected algorithms, in [`AlgorithmKind::ALL`] order.
    pub algorithms: Vec<AlgorithmKind>,
}

impl Settings {
    /// Reads the `SAGA_*` overrides of `recorded` — the runner's only read
    /// of the environment besides `SAGA_RESULTS_DIR` and `SAGA_TRACE`.
    pub fn from_env(recorded: Recorded) -> Self {
        let var = |name| std::env::var(name).ok();
        Settings {
            cfg: ExperimentConfig {
                seed: parse_or(var("SAGA_SEED"), ExperimentConfig::default().seed),
                repeats: parse_or(var("SAGA_REPEATS"), recorded.repeats),
                threads: parse_or(var("SAGA_THREADS"), RECORDED_THREADS),
                batch_size: None,
                scale: parse_or(var("SAGA_SCALE"), recorded.scale),
            },
            datasets: select(
                var("SAGA_DATASETS").as_deref().or(recorded.datasets),
                DatasetProfile::all(),
                DatasetProfile::name,
            ),
            algorithms: select(
                var("SAGA_ALGS").as_deref().or(recorded.algorithms),
                AlgorithmKind::ALL.to_vec(),
                AlgorithmKind::abbrev,
            ),
        }
    }
}

/// `value` parsed, or `default` when it is absent or does not parse.
fn parse_or<T: std::str::FromStr>(value: Option<String>, default: T) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The members of `all` whose `key` appears in the comma-separated `spec`
/// (case-insensitive, in `all`'s order); every member when `spec` is
/// `None`.
fn select<T>(spec: Option<&str>, all: Vec<T>, key: fn(&T) -> &'static str) -> Vec<T> {
    match spec {
        None => all,
        Some(spec) => all
            .into_iter()
            .filter(|x| spec.split(',').any(|w| w.trim().eq_ignore_ascii_case(key(x))))
            .collect(),
    }
}

/// Standard observability epilogue for a producer: when tracing is
/// enabled (`SAGA_TRACE=1`, see [`saga_trace::init_from_env`]), writes the
/// captured span timeline to `results/<stem>.trace.json` (Chrome
/// trace-event format — open in Perfetto or `chrome://tracing`); whenever
/// the metrics registry is non-empty, writes its snapshot to
/// `results/<stem>.metrics.csv`. Reports how many events overflowed the
/// per-thread rings so a truncated capture is never mistaken for a
/// complete one.
pub fn finish_trace(stem: &str) {
    if saga_trace::enabled() {
        let dropped = saga_trace::dropped_events();
        if dropped > 0 {
            saga_trace::progress!("[{stem}] ring overflow: {dropped} trace events dropped");
        }
        let path = write(&format!("{stem}.trace.json"), &saga_trace::chrome_trace());
        println!("[trace written to {}]", path.display());
    }
    match saga_core::report::write_metrics_snapshot(stem) {
        Ok(Some(path)) => println!("[metrics written to {}]", path.display()),
        Ok(None) => {}
        Err(e) => panic!("could not write the {stem} metrics snapshot: {e}"),
    }
}

/// Writes `results/<file>`; a producer that cannot write its output fails
/// rather than exiting 0 without it.
fn write(file: &str, content: &str) -> std::path::PathBuf {
    saga_core::report::write_results_file(file, content)
        .unwrap_or_else(|e| panic!("could not write results file {file}: {e}"))
}

/// Prints a rendered table to stdout and mirrors it to `results/<file>`.
pub fn emit(title: &str, file: &str, body: &str) {
    println!("== {title} ==\n");
    println!("{body}");
    println!("[written to {}]", write(file, body).display());
}

/// Like [`emit`], but also writes the table's CSV rendering next to the
/// text file (same stem, `.csv` extension).
pub fn emit_table(title: &str, file: &str, table: &saga_core::report::TextTable) {
    emit(title, file, &table.render());
    let stem = file.rsplit_once('.').map_or(file, |(stem, _)| stem);
    write(&format!("{stem}.csv"), &table.to_csv());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_or_falls_back_on_missing_or_garbage() {
        assert_eq!(parse_or(None, 7usize), 7);
        assert_eq!(parse_or(Some("x".into()), 7usize), 7);
        assert_eq!(parse_or(Some("2.5".into()), 1.0f64), 2.5);
    }

    #[test]
    fn dataset_filter_selects_by_name() {
        let ds = select(Some("wiki, talk"), DatasetProfile::all(), DatasetProfile::name);
        let names: Vec<&str> = ds.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Wiki", "Talk"]);
    }

    #[test]
    fn algorithm_filter_selects_by_abbrev() {
        let algs = select(Some("pr,bfs"), AlgorithmKind::ALL.to_vec(), AlgorithmKind::abbrev);
        assert_eq!(algs, vec![AlgorithmKind::Bfs, AlgorithmKind::PageRank]);
    }

    #[test]
    fn no_spec_selects_everything() {
        let algs = select(None, AlgorithmKind::ALL.to_vec(), AlgorithmKind::abbrev);
        assert_eq!(algs, AlgorithmKind::ALL.to_vec());
    }
}
