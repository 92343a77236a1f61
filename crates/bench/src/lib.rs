//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each paper artifact has one producer in `src/bin/` (DESIGN.md's
//! experiment index): `table2`, `table4`, `fig9` (panel a),
//! `software_suite` (Table III, Figs. 6–8) and `arch_suite` (Figs. 9b/9c,
//! 10), beside `tail_sweep`, `pipelined` and the `ablation_*` runs. All of
//! them honor the same environment knobs:
//!
//! | Variable | Meaning | Default |
//! |----------|---------|---------|
//! | `SAGA_SCALE` | dataset scale multiplier | `1.0` |
//! | `SAGA_REPEATS` | repeated runs per configuration | `3` |
//! | `SAGA_THREADS` | worker threads | available parallelism |
//! | `SAGA_SEED` | stream generation seed | `42` |
//! | `SAGA_DATASETS` | comma-separated dataset filter (LJ,Orkut,RMAT,Wiki,Talk) | all |
//! | `SAGA_ALGS` | comma-separated algorithm filter (BFS,CC,MC,PR,SSSP,SSWP) | all |
//! | `SAGA_RESULTS_DIR` | output directory | `results/` |

#![warn(missing_docs)]

pub mod arch;
pub mod experiments;

use saga_algorithms::AlgorithmKind;
use saga_core::experiment::ExperimentConfig;
use saga_stream::profiles::DatasetProfile;

/// Reads an environment variable, parsed, with a default.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the experiment configuration from the environment.
pub fn config_from_env() -> ExperimentConfig {
    let default = ExperimentConfig::default();
    ExperimentConfig {
        seed: env_or("SAGA_SEED", default.seed),
        repeats: env_or("SAGA_REPEATS", default.repeats),
        threads: env_or("SAGA_THREADS", default.threads),
        batch_size: None,
        scale: env_or("SAGA_SCALE", default.scale),
    }
}

/// The datasets selected by `SAGA_DATASETS` (default: all five).
pub fn datasets_from_env() -> Vec<DatasetProfile> {
    let all = DatasetProfile::all();
    match std::env::var("SAGA_DATASETS") {
        Err(_) => all,
        Ok(filter) => {
            let wanted: Vec<String> = filter
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .collect();
            all.into_iter()
                .filter(|p| wanted.iter().any(|w| w == &p.name().to_ascii_lowercase()))
                .collect()
        }
    }
}

/// The algorithms selected by `SAGA_ALGS` (default: all six).
pub fn algorithms_from_env() -> Vec<AlgorithmKind> {
    match std::env::var("SAGA_ALGS") {
        Err(_) => AlgorithmKind::ALL.to_vec(),
        Ok(filter) => {
            let wanted: Vec<String> = filter
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .collect();
            AlgorithmKind::ALL
                .into_iter()
                .filter(|a| wanted.iter().any(|w| w == &a.abbrev().to_ascii_lowercase()))
                .collect()
        }
    }
}

/// Standard observability epilogue for a binary: when tracing is
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
        match saga_core::report::write_results_file(
            &format!("{stem}.trace.json"),
            &saga_trace::chrome_trace(),
        ) {
            Ok(path) => println!("[trace written to {}]", path.display()),
            Err(e) => eprintln!("[could not write trace file: {e}]"),
        }
    }
    match saga_core::report::write_metrics_snapshot(stem) {
        Ok(Some(path)) => println!("[metrics written to {}]", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("[could not write metrics snapshot: {e}]"),
    }
}

/// Prints a rendered table to stdout and mirrors it to `results/<file>`.
pub fn emit(title: &str, file: &str, body: &str) {
    println!("== {title} ==\n");
    println!("{body}");
    match saga_core::report::write_results_file(file, body) {
        Ok(path) => println!("[written to {}]", path.display()),
        Err(e) => eprintln!("[could not write results file: {e}]"),
    }
}

/// Like [`emit`], but also writes the table's CSV rendering next to the
/// text file (same stem, `.csv` extension).
pub fn emit_table(title: &str, file: &str, table: &saga_core::report::TextTable) {
    emit(title, file, &table.render());
    let csv_name = match file.rsplit_once('.') {
        Some((stem, _)) => format!("{stem}.csv"),
        None => format!("{file}.csv"),
    };
    if let Err(e) = saga_core::report::write_results_file(&csv_name, &table.to_csv()) {
        eprintln!("[could not write csv file: {e}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_or_falls_back_on_missing() {
        std::env::remove_var("SAGA_TEST_MISSING");
        assert_eq!(env_or("SAGA_TEST_MISSING", 7usize), 7);
    }

    #[test]
    fn env_or_parses_when_present() {
        std::env::set_var("SAGA_TEST_PRESENT", "2.5");
        assert_eq!(env_or("SAGA_TEST_PRESENT", 1.0f64), 2.5);
        std::env::remove_var("SAGA_TEST_PRESENT");
    }

    #[test]
    fn dataset_filter_selects_by_name() {
        std::env::set_var("SAGA_DATASETS", "wiki, talk");
        let ds = datasets_from_env();
        std::env::remove_var("SAGA_DATASETS");
        let names: Vec<&str> = ds.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Wiki", "Talk"]);
    }

    #[test]
    fn algorithm_filter_selects_by_abbrev() {
        std::env::set_var("SAGA_ALGS", "pr,bfs");
        let algs = algorithms_from_env();
        std::env::remove_var("SAGA_ALGS");
        assert_eq!(algs, vec![AlgorithmKind::Bfs, AlgorithmKind::PageRank]);
    }
}
