//! Regenerates **Fig. 9(a)**: update/compute performance scalability vs
//! core count for STail (LJ/Orkut/RMAT on AS) and HTail (Wiki/Talk on
//! DAH). By default the curve is *modeled*: each thread count is run,
//! traced, and its phase time estimated as `max(slowest thread,
//! most-contended lock)` on the paper's machine model — faithful to the
//! paper's insight that update scaling is limited by thread contention
//! (AS) and workload imbalance (DAH). Set `SAGA_WALLCLOCK=1` on a
//! many-core host to use real wall clocks instead. Panels (b) and (c) come
//! from `arch_suite`.
//!
//! ```text
//! cargo run -p saga-bench --release --bin fig9
//! ```

use saga_algorithms::ComputeModelKind;
use saga_bench::arch::groups;
use saga_bench::{algorithms_from_env, config_from_env, emit, env_or, finish_trace};
use saga_core::driver::{ArchSimConfig, StreamDriver};
use saga_core::report::TextTable;
use saga_perf::scaling::ScalingCurve;

/// Thread counts swept for the scaling panel (the paper sweeps 4..28
/// physical cores; we sweep powers of two up to the paper's 32).
fn sweep_threads() -> Vec<usize> {
    match std::env::var("SAGA_SWEEP") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 2, 4, 8, 16, 32],
    }
}

fn main() {
    saga_trace::init_from_env();
    let cfg = config_from_env();
    let algorithms = algorithms_from_env();
    let wallclock = env_or("SAGA_WALLCLOCK", 0usize) == 1;
    let cache_scale = env_or("SAGA_CACHE_SCALE", 16usize);
    let thread_counts = sweep_threads();
    let mut table = TextTable::new({
        let mut h = vec!["Group".to_string(), "Phase".to_string()];
        h.extend(thread_counts.iter().map(|t| format!("{t}T")));
        h.push("incr. improvements".to_string());
        h
    });
    for group in groups() {
        let mut update_secs = vec![0.0f64; thread_counts.len()];
        let mut compute_secs = vec![0.0f64; thread_counts.len()];
        for (profile, ds) in &group.members {
            let profile = profile.clone().scaled_by(cfg.scale);
            let stream = profile.generate(cfg.seed);
            for &alg in &algorithms {
                for (i, &threads) in thread_counts.iter().enumerate() {
                    eprintln!(
                        "[fig9a] {} / {} / {alg} @ {threads} threads ({})",
                        group.name,
                        profile.name(),
                        if wallclock { "wall clock" } else { "modeled" },
                    );
                    let mut builder = StreamDriver::builder(*ds, stream.num_nodes)
                        .algorithm(alg)
                        .compute_model(ComputeModelKind::Incremental)
                        .threads(threads);
                    if !wallclock {
                        builder = builder.arch_sim(ArchSimConfig {
                            cache_scale,
                            ..ArchSimConfig::default()
                        });
                    }
                    let mut driver = builder.build();
                    let outcome = driver.run(&stream);
                    for b in &outcome.batches {
                        if wallclock {
                            update_secs[i] += b.update_seconds;
                            compute_secs[i] += b.compute_seconds;
                        } else {
                            let arch = b.arch.as_ref().expect("arch sim enabled");
                            update_secs[i] += arch.update_bw.seconds;
                            compute_secs[i] += arch.compute_bw.seconds;
                        }
                    }
                }
            }
        }
        for (phase, secs) in [("update", update_secs), ("compute", compute_secs)] {
            let curve = ScalingCurve {
                threads: thread_counts.clone(),
                seconds: secs,
            };
            let mut row = vec![group.name.to_string(), phase.to_string()];
            row.extend(curve.speedups().iter().map(|s| format!("{s:.2}x")));
            row.push(
                curve
                    .incremental_improvements()
                    .iter()
                    .map(|i| format!("{i:.0}%"))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            table.add_row(row);
        }
    }
    emit(
        "Fig. 9(a): update/compute speedup vs thread count (normalized to smallest)",
        "fig9a.txt",
        &table.render(),
    );
    finish_trace("fig9");
}
