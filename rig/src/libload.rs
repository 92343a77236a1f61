//! The three `lib.*` workloads: the library driver paths, in-process.
//!
//! A window is a whole number of *cycles*; one cycle runs the workload's
//! stream once through a fresh instance of each of its configurations.

use crate::exec::{configs, run_pass, Config, Pass, Reference};
use crate::inputs::{generate, OpBatch, Sizes, Stream};
use crate::json::Json;
use crate::stats::median;
use crate::window::Window;
use std::time::Instant;

/// Set-up of a library workload: generate the stream, then push its first
/// batch through the first configuration once so that the timed window
/// does not pay for first-touch page faults and lazy initialisation.
pub fn setup(sizes: &Sizes, seed: u64) -> Stream {
    let dataset = sizes.workload as u64;
    let stream = generate(
        sizes.num_nodes,
        sizes.batches,
        sizes.batch_ops,
        sizes.delete_per_mille,
        dataset,
        seed,
    );
    let warmup = Stream {
        num_nodes: stream.num_nodes,
        batches: stream
            .batches
            .iter()
            .take(1)
            .cloned()
            .collect::<Vec<OpBatch>>(),
        gen_seconds: 0.0,
    };
    run_pass(&configs(sizes.workload)[0], &warmup);
    stream
}

/// Every configuration's passes, in cycle order.
pub type Passes = Vec<Vec<Pass>>;

/// Runs the timed window. The correctness gate is [`verify`], kept apart
/// so that peak memory is read before the oracle allocates.
///
/// Every (configuration, batch) is measured once per cycle and reported as
/// the median over the cycles, and throughput is one cycle's ops over the
/// sum of the configurations' median pass times: on a shared two-core host
/// single passes now and then take 30 % longer, and a sum over the whole
/// window would carry every such outlier into the result.
pub fn measure(sizes: &Sizes, stream: &Stream) -> (Window, Passes) {
    let configs = configs(sizes.workload);
    let mut window = Window::default();
    let mut passes: Passes = vec![Vec::new(); configs.len()];
    let started = Instant::now();
    for cycle in 0..sizes.cycles {
        if cycle > 0 && started.elapsed() > sizes.guard() {
            window.cut_short = true;
            break;
        }
        for (config, slot) in configs.iter().zip(&mut passes) {
            let pass = run_pass(config, stream);
            window.attempted += pass.batch_ms.len() + 1;
            slot.push(pass);
        }
    }
    for runs in &passes {
        let over_cycles =
            |value: &dyn Fn(&Pass) -> f64| median(&runs.iter().map(value).collect::<Vec<f64>>());
        window.ops += stream.ops();
        window.busy_s += over_cycles(&|p| p.wall_s);
        window.read_ms.push(over_cycles(&|p| p.read_ms));
        window.batch_ms.push(
            (0..stream.batches.len())
                .map(|b| over_cycles(&|p| p.batch_ms[b]))
                .collect(),
        );
    }
    window
        .detail
        .push(("cycles".to_string(), Json::count(passes[0].len())));
    window
        .detail
        .push(("configs".to_string(), per_config(&configs, &passes)));
    (window, passes)
}

/// Every configuration's final values against FS on the oracle's CSR, and
/// every structure's final edge count against the oracle's.
pub fn verify(sizes: &Sizes, stream: &Stream, passes: &Passes, window: &mut Window) {
    let reference = Reference::of(stream);
    for (config, runs) in configs(sizes.workload).iter().zip(passes) {
        let last = runs.last().expect("every configuration ran at least once");
        window.check(reference.check(
            &config.label(),
            config.algorithm,
            &last.values,
            last.num_edges,
        ));
    }
}

fn per_config(configs: &[Config], passes: &[Vec<Pass>]) -> Json {
    let rows = configs.iter().zip(passes).map(|(config, runs)| {
        let walls: Vec<f64> = runs.iter().map(|p| p.wall_s).collect();
        let update: f64 = runs.iter().map(|p| p.update_s).sum();
        let compute: f64 = runs.iter().map(|p| p.compute_s).sum();
        Json::obj([
            ("config", Json::str(config.label())),
            ("passes", Json::count(runs.len())),
            ("pass_s_median", Json::Num(median(&walls))),
            (
                "update_share",
                Json::Num(update / (update + compute).max(f64::MIN_POSITIVE)),
            ),
        ])
    });
    Json::Arr(rows.collect())
}
