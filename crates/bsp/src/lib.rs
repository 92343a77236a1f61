//! Sharded bulk-synchronous-parallel (BSP) execution for SAGA-Bench: the
//! names the benchmark rig imports from this crate. The superstep engine,
//! its checkpoints and [`ShardedState`] live in `saga-algorithms`
//! (`saga_algorithms::engine`), where the serial incremental Fold programs
//! run on the same engine.

pub use saga_algorithms::{CheckpointConfig, ShardedState};
