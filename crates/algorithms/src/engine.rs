//! The superstep engine: the one engine of the incremental Fold programs
//! (BFS, CC, MC, SSSP, SSWP), and of every sharded run.
//!
//! A run executes supersteps until quiescence (fold programs) or
//! convergence (sum programs). Each superstep is two barrier crossings:
//!
//! 1. **Scatter** — every worker walks its shards' active vertices and
//!    posts one message per edge — the program's per-edge
//!    [`term`](VertexProgram::term), computed source-side, with its sender —
//!    into the per-(src, dst) mailbox cells.
//! 2. *barrier* — flips the phase; every cell now has its writer done.
//! 3. **Gather** — every worker drains its shards' inbound cells in
//!    ascending source-shard order and folds (or sums) the messages into
//!    the property array, building the next active frontier
//!    ([`VertexProgram::gather_mode`]).
//! 4. *barrier* — the last arriver runs the sequential epilogue
//!    (termination check, superstep advance, checkpoint publication)
//!    before the crossing releases, so every worker leaves it seeing the
//!    decision.
//!
//! An incremental Fold run — an engine with a witness forest — runs
//! Algorithm 1's rounds as **pull** supersteps instead: in the scatter
//! phase each active vertex pulls its in-edges' terms into a pending value
//! (reading only values the previous superstep left) and, if its value
//! changes, sends one trigger message to each out-neighbour; the gather
//! phase writes the pending values and makes the triggered vertices the
//! next frontier. A pull records the vertex's witness: the smallest source
//! whose term equals its new value, whatever order the in-edges come in.
//!
//! The property array and the witness forest are global; shard `s` owns
//! the contiguous range [`ShardLayout::range`]`(s)` and is the only writer
//! of its slots during a run. Checkpoints are taken only at the gather-end
//! boundary, where all mailboxes are empty by construction, so a snapshot
//! is just per-shard values, parents and active lists. Because each mailbox
//! cell has a single writer and a single reader per superstep, the drain
//! order is fixed, and the sum mode accumulates in that fixed order,
//! replaying from a checkpoint with the same thread count is **bitwise
//! identical** to an uninterrupted run — the property `saga-check`'s
//! kill-and-recover harness asserts.
//!
//! A full run starts from [`BspEngine::reset_all_active`]; an incremental
//! one from [`BspEngine::seed`], whose vertices — those the batch affected
//! — pull in superstep 0, Algorithm 1's affected pass. An incremental
//! batch that deleted edges first resets the witness-forest subtrees that
//! hung off them ([`inc::plan_deletion_repair`]), and those vertices pull
//! in superstep 0 too; a repair over its limit runs the program's
//! from-scratch kernel and rebuilds the forest instead.

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointStore};
use crate::inc::{self, NO_PARENT};
use crate::layout::ShardLayout;
use crate::mailbox::Mailboxes;
use crate::program::{EdgeScope, GatherMode, ValueStore, VertexProgram};
use crate::{fs, ComputeOutcome};
use saga_graph::properties::{AtomicU32Array, Property, VertexValues};
use saga_graph::{Edge, GraphTopology, Node, Weight};
use saga_trace::metrics::{self, Counter, Histogram};
use saga_utils::barrier::Barrier;
use saga_utils::bitvec::GenerationMarks;
use saga_utils::parallel::ThreadPool;
use saga_utils::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use saga_utils::sync::{Arc, Mutex};
use std::io;

/// Which half of a superstep a simulated kill lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPhase {
    /// Die after sending roughly half the shard's outbound messages.
    Scatter,
    /// Die after draining roughly half the shard's inbound cells.
    Gather,
}

/// A one-shot fault injection: the worker owning `shard` abandons its
/// work mid-`phase` of `superstep`. The spec is consumed when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Superstep index the kill fires in.
    pub superstep: usize,
    /// Victim shard.
    pub shard: usize,
    /// Scatter- or gather-side kill.
    pub phase: KillPhase,
}

/// Error returned by [`BspEngine::run`] when an armed [`KillSpec`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed {
    /// The superstep the worker died in.
    pub superstep: usize,
}

/// Where an incremental Fold batch's affected vertices come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seed<'a> {
    /// The batch's inserted edges: both endpoints of each are affected, as
    /// in Algorithm 1.
    Batch(&'a [Edge]),
    /// The batch's inserted edges, of whose endpoints only those the edge's
    /// own term would change are affected (see
    /// [`BspEngine::improvable_heads`]): the sharded state's affected pass.
    Improving(&'a [Edge]),
    /// A tracker's affected set: it marks both endpoints of every inserted
    /// edge, so it covers every new edge. A Sum program's INC re-pulls the
    /// set instead, resetting the new vertices first (Algorithm 1's rounds).
    Affected { affected: &'a [Node], new_vertices: &'a [Node] },
}

/// A message: the term `.2` that sender `.1` sends to head `.0`.
type Message<V> = (Node, Node, V);

/// One shard's owner-private scratch. Behind a `Mutex` for safe hand-off
/// across runs, but never contended: the owning worker is the only user
/// during a phase.
struct ShardState<V> {
    active: Vec<Node>,
    next_active: Vec<Node>,
    /// Vertices improved (fold) or triggered (pull) this gather, one slot
    /// per local vertex (sized on the first gather): dedup for
    /// `next_active`.
    marks: GenerationMarks,
    /// Pull mode: the new values the pull phase computed, applied after
    /// the next barrier: (vertex, witness, value).
    pending: Vec<Message<V>>,
    /// Sum-mode accumulator scratch, one slot per local vertex.
    acc: Vec<V>,
    /// With checkpoints, each vertex a gather changed since the last one,
    /// once per gather, oldest first: (vertex, old value, old parent). A
    /// recovery undoes them, so a checkpoint copies no array unless it is
    /// mirrored to disk.
    undo: Vec<(Node, V, Node)>,
}

/// Per-run shared coordination state.
struct Control {
    barrier: Barrier,
    /// Messages sent, whole run.
    messages: AtomicU64,
    /// Messages sent this superstep (leader swaps to zero).
    step_messages: AtomicU64,
    /// Fold mode: total next-frontier size this superstep.
    active_total: AtomicUsize,
    /// Sum mode: Σ `l1_units` this superstep.
    delta_fixed: AtomicU64,
    done: AtomicBool,
    killed: AtomicBool,
    killed_step: AtomicUsize,
}

/// The superstep executor for one [`VertexProgram`], owning its property
/// array (and, for incremental Fold runs, the witness forest).
pub struct BspEngine<P: VertexProgram> {
    pub(crate) program: P,
    pub(crate) values: P::Store,
    /// The witness forest of an incremental Fold engine: each vertex's
    /// parent, the source of the term that set its value ([`NO_PARENT`]
    /// for none). `None` for every other engine.
    pub(crate) parents: Option<AtomicU32Array>,
    /// Deletion-repair limit in vertices, beyond which a batch falls back
    /// to the from-scratch kernel.
    repair_limit: usize,
    layout: ShardLayout,
    shards: Vec<Mutex<ShardState<P::Value>>>,
    mail: Mailboxes<Message<P::Value>>,
    /// `None`: the engine takes no checkpoints and cannot be killed.
    store: Option<Mutex<CheckpointStore>>,
    /// Snapshot period, copied out of the config to keep the store lock
    /// out of the leader's hot path.
    period: usize,
    superstep: AtomicUsize,
    kill: Mutex<Option<KillSpec>>,
    recoveries: usize,
    /// Metric handles, resolved once per layout: a registry lookup takes a
    /// global mutex, which the superstep path must not.
    shard_messages: Vec<Arc<Counter>>,
    superstep_messages: Arc<Histogram>,
    supersteps: Arc<Counter>,
}

impl<P: VertexProgram> std::fmt::Debug for BspEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (program, shards) = (self.program.name(), self.shards.len());
        f.debug_struct("BspEngine").field("program", &program).field("shards", &shards).finish_non_exhaustive()
    }
}

impl<P: VertexProgram> BspEngine<P> {
    /// A new engine over `capacity` vertices in `shards` shards, every
    /// value at [`VertexProgram::initial`], without checkpoints or a
    /// witness forest. No vertex starts active — call
    /// [`reset_all_active`](Self::reset_all_active) or [`seed`](Self::seed)
    /// before [`begin`](Self::begin).
    pub fn new(program: P, capacity: usize, shards: usize) -> Self {
        let values = P::Store::create(capacity, program.initial(0, capacity));
        for v in 1..capacity {
            values.store(v, program.initial(v as Node, capacity));
        }
        let mut engine = Self {
            program,
            values,
            parents: None,
            repair_limit: 0,
            layout: ShardLayout::new(capacity, 1),
            shards: Vec::new(),
            mail: Mailboxes::new(0),
            store: None,
            period: 1,
            superstep: AtomicUsize::new(0),
            kill: Mutex::new(None),
            recoveries: 0,
            shard_messages: Vec::new(),
            superstep_messages: metrics::histogram("bsp.superstep_messages"),
            supersteps: metrics::counter("bsp.supersteps"),
        };
        engine.reshard(shards);
        engine
    }

    /// Takes a superstep checkpoint per `config`, so a killed run recovers.
    #[must_use]
    pub fn with_checkpoints(mut self, config: CheckpointConfig) -> Self {
        self.period = config.period();
        self.store = Some(Mutex::new(CheckpointStore::new(config)));
        self
    }

    /// Keeps the witness forest incremental Fold batches repair deletions
    /// through, falling back to the from-scratch kernel when a repair would
    /// reset more than `repair_limit` vertices. The engine's runs become
    /// pull supersteps, Algorithm 1's rounds, whose pulls record the forest.
    #[must_use]
    pub fn with_witnesses(mut self, repair_limit: usize) -> Self {
        debug_assert_eq!(self.program.gather_mode(), GatherMode::Fold, "a sum program keeps no forest");
        self.parents = Some(AtomicU32Array::filled(self.layout.capacity(), NO_PARENT));
        self.repair_limit = repair_limit;
        self
    }

    /// Cuts the vertex space into `shards` shards (a no-op at the current
    /// count). Values and forest are global, so only the per-shard scratch
    /// and the mailboxes are rebuilt.
    pub fn reshard(&mut self, shards: usize) {
        let layout = ShardLayout::new(self.layout.capacity(), shards);
        if shards == self.shards.len() {
            return;
        }
        self.layout = layout;
        self.shards = (0..shards)
            .map(|_| {
                Mutex::new(ShardState {
                    active: Vec::new(),
                    next_active: Vec::new(),
                    marks: GenerationMarks::new(0),
                    pending: Vec::new(),
                    acc: Vec::new(),
                    undo: Vec::new(),
                })
            })
            .collect();
        self.mail = Mailboxes::new(shards);
        self.shard_messages = (0..shards)
            .map(|s| metrics::labelled("bsp.shard_messages", "shard", s).counter())
            .collect();
    }

    /// Arms a one-shot fault injection for the next run.
    pub fn arm_kill(&mut self, spec: KillSpec) {
        *self.kill.lock() = Some(spec);
    }

    /// Resets every vertex to its initial value and marks all vertices
    /// active — the full-recompute starting state of an engine without a
    /// witness forest.
    pub fn reset_all_active(&mut self) {
        let capacity = self.layout.capacity();
        for v in 0..capacity {
            self.values.store(v, self.program.initial(v as Node, capacity));
        }
        for (s, shard) in self.shards.iter().enumerate() {
            let mut st = shard.lock();
            st.active.clear();
            st.active.extend(self.layout.range(s).map(|v| v as Node));
            st.next_active.clear();
        }
    }

    /// Seeds an incremental run: `heads` (ascending, without repeats), the
    /// vertices the batch affected, become the superstep-0 frontier, so
    /// that superstep is Algorithm 1's affected pass. Values are left as-is,
    /// so the run resumes from the previous batch's converged state.
    pub fn seed(&mut self, heads: &[Node]) {
        for (s, shard) in self.shards.iter().enumerate() {
            let range = self.layout.range(s);
            let from = heads.partition_point(|&v| (v as usize) < range.start);
            let to = heads.partition_point(|&v| (v as usize) < range.end);
            let mut st = shard.lock();
            st.active.clear();
            st.active.extend_from_slice(&heads[from..to]);
        }
    }

    /// The endpoints of `inserted` whose current value the edge's own term
    /// would change: each edge's head, and its source too when `both`
    /// directions carry terms (a symmetric-scope program or an undirected
    /// graph). The term uses the batch's weight; the pull that follows
    /// reads the weight the structure stored. That is sound because a
    /// pre-existing edge's stored term cannot improve a fixpoint, and a
    /// new edge's stored weight is one of its batch copies' weights, each
    /// of which is checked.
    fn improvable_heads(&self, inserted: &[Edge], both: bool) -> Vec<Node> {
        let improves = |source: Node, head: Node, weight: Weight| {
            let old = self.values.load(head as usize);
            self.program
                .term(self.values.load(source as usize), weight, 0)
                .is_some_and(|t| self.program.significant_change(old, self.program.combine(old, t)))
        };
        let mut heads = Vec::new();
        for e in inserted {
            if improves(e.src, e.dst, e.weight) {
                heads.push(e.dst);
            }
            if both && improves(e.dst, e.src, e.weight) {
                heads.push(e.src);
            }
        }
        heads
    }

    /// Algorithm 1's vertex function with its witness: folds the term of
    /// every in-arc of `head` (and of every out-arc, reversed, when `both`)
    /// into its current value. Returns `(head, witness, value)` when the
    /// value changes, the witness being the smallest source whose term
    /// equals the new value, so it does not depend on the arcs' order.
    fn pull_head(&self, graph: &dyn GraphTopology, head: Node, both: bool) -> Option<Message<P::Value>> {
        let old = self.values.load(head as usize);
        let (mut value, mut witness) = (old, NO_PARENT);
        let mut pull = |source: Node, weight: Weight| {
            let Some(t) = self.program.term(self.values.load(source as usize), weight, 0) else {
                return;
            };
            let new = self.program.combine(value, t);
            if self.program.significant_change(value, new) {
                (value, witness) = (new, source);
            } else if witness != NO_PARENT && t == value && source < witness {
                witness = source;
            }
        };
        graph.for_each_in_neighbor(head, &mut pull);
        if both {
            graph.for_each_out_neighbor(head, &mut pull);
        }
        (witness != NO_PARENT).then_some((head, witness, value))
    }

    /// Rewinds the superstep counter, discards stale messages, and
    /// publishes the superstep-0 baseline checkpoint. Call after seeding
    /// activity and before [`run`](Self::run).
    pub fn begin(&mut self) {
        self.mail.clear();
        self.superstep.store(0, Ordering::Relaxed);
        self.publish_checkpoint(0);
    }

    /// [`begin`](Self::begin)s and [`run`](Self::run)s to completion; a run
    /// interrupted by an armed [`KillSpec`] is recovered from the latest
    /// superstep checkpoint and re-run — the outcome then counts the
    /// replayed supersteps too.
    pub fn run_to_completion(&mut self, graph: &dyn GraphTopology, pool: &ThreadPool) -> ComputeOutcome {
        self.begin();
        match self.run(graph, pool) {
            Ok(outcome) => outcome,
            Err(_killed) => {
                self.recoveries += 1;
                self.recover();
                self.run(graph, pool)
                    .expect("kill specs are one-shot: the recovered run cannot be killed again")
            }
        }
    }

    /// Runs supersteps to completion on `pool`. The outcome counts the
    /// supersteps executed in `iterations` — replayed ones included after a
    /// recovery — and this call's messages in `messages`. Returns
    /// `Err(Killed)` if an armed [`KillSpec`] fired; the caller then
    /// restores the last barrier snapshot with [`recover`](Self::recover)
    /// (or [`recover_from_disk`](Self::recover_from_disk)) and re-runs.
    pub fn run(
        &self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
    ) -> Result<ComputeOutcome, Killed> {
        let threads = pool.threads();
        let nshards = self.layout.shards();
        let mode = self.program.gather_mode();
        let pull = self.parents.is_some();
        let ctl = Control {
            barrier: Barrier::new(threads),
            messages: AtomicU64::new(0),
            step_messages: AtomicU64::new(0),
            active_total: AtomicUsize::new(0),
            delta_fixed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            killed_step: AtomicUsize::new(0),
        };
        // Capture the caller's ambient trace context before fanning out:
        // pool workers are long-lived threads with no context of their
        // own, so each re-installs the request's context for the scope of
        // this run and the per-shard spans join the request's trace tree.
        let trace_ctx = saga_trace::ctx::current();
        // One read phase for the whole run: scatter never pays a structure's
        // per-visit locks (`GraphTopology::frozen`).
        saga_graph::read_phase(graph, |graph| pool.run_on_all(|w| {
            let _trace_scope = saga_trace::ctx::scope(trace_ctx);
            let mut bufs: Vec<Vec<Message<P::Value>>> = (0..nshards).map(|_| Vec::new()).collect();
            let mut neighbors: Vec<(Node, Weight)> = Vec::new();
            loop {
                let step = self.superstep.load(Ordering::Relaxed);
                let _step_span =
                    (w == 0).then(|| saga_trace::span!("bsp-superstep", step = step));
                {
                    let _span = saga_trace::span!("bsp-scatter", worker = w);
                    let mut sent = 0u64;
                    for s in (w..nshards).step_by(threads) {
                        let limit = self.take_kill(step, s, KillPhase::Scatter).map(|_| {
                            ctl.killed.store(true, Ordering::SeqCst);
                            // Half the frontier's messages escape before
                            // the worker "dies".
                            self.shards[s].lock().active.len() / 2
                        });
                        sent += if pull {
                            self.pull_shard(graph, s, limit, &mut bufs)
                        } else {
                            self.scatter_shard(graph, s, limit, &mut bufs, &mut neighbors)
                        };
                    }
                    ctl.step_messages.fetch_add(sent, Ordering::Relaxed);
                }
                ctl.barrier.wait(|| {});
                {
                    let _span = saga_trace::span!("bsp-gather", worker = w);
                    for s in (w..nshards).step_by(threads) {
                        let limit = self.take_kill(step, s, KillPhase::Gather).map(|_| {
                            ctl.killed.store(true, Ordering::SeqCst);
                            nshards / 2
                        });
                        match mode {
                            GatherMode::Fold => {
                                let (processed, activated) = if pull {
                                    self.apply_shard(s, limit)
                                } else {
                                    self.gather_shard_fold(s, limit)
                                };
                                self.shard_messages[s].add(processed);
                                ctl.active_total.fetch_add(activated, Ordering::Relaxed);
                            }
                            GatherMode::Sum => {
                                let (processed, delta) = self.gather_shard_sum(s, limit);
                                self.shard_messages[s].add(processed);
                                ctl.delta_fixed.fetch_add(delta, Ordering::Relaxed);
                            }
                        }
                    }
                }
                ctl.barrier.wait(|| self.superstep_epilogue(step, &ctl, mode));
                if ctl.done.load(Ordering::SeqCst) {
                    break;
                }
            }
        }));
        if ctl.killed.load(Ordering::SeqCst) {
            return Err(Killed {
                superstep: ctl.killed_step.load(Ordering::SeqCst),
            });
        }
        Ok(ComputeOutcome {
            iterations: self.superstep.load(Ordering::Relaxed),
            messages: ctl.messages.load(Ordering::Relaxed) as usize,
            ..ComputeOutcome::default()
        })
    }

    /// Restores the latest in-memory checkpoint: undoes every value and
    /// parent written since, restores the active lists, and discards every
    /// in-flight message. Returns the superstep the next [`run`](Self::run)
    /// resumes from.
    ///
    /// # Panics
    ///
    /// Panics if the engine takes no checkpoints or none was published yet
    /// ([`begin`](Self::begin) always publishes the superstep-0 baseline).
    pub fn recover(&mut self) -> usize {
        let (superstep, active) = self
            .store
            .as_ref()
            .and_then(|s| s.lock().latest().map(|(step, active)| (step, active.to_vec())))
            .expect("no checkpoint to recover from");
        for shard in &self.shards {
            let mut st = shard.lock();
            while let Some((v, value, parent)) = st.undo.pop() {
                self.values.store(v as usize, value);
                if let Some(parents) = &self.parents {
                    parents.set(v as usize, parent);
                }
            }
        }
        self.restore(superstep, &active)
    }

    /// Like [`recover`](Self::recover), but reads the newest checkpoint
    /// file from the configured directory and copies its values and
    /// parents in — the path a fully restarted process takes.
    pub fn recover_from_disk(&mut self) -> io::Result<usize> {
        let dir = self
            .store
            .as_ref()
            .and_then(|s| s.lock().config().dir.clone())
            .expect("disk checkpointing not configured");
        let cp = Checkpoint::<P::Value>::load_latest(&dir)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no checkpoint files on disk")
        })?;
        assert_eq!(cp.values.len(), self.shards.len(), "checkpoint shard count mismatch");
        for (s, values) in cp.values.iter().enumerate() {
            let range = self.layout.range(s);
            assert_eq!(values.len(), range.len(), "checkpoint shape mismatch");
            for (v, &value) in range.clone().zip(values) {
                self.values.store(v, value);
            }
            if let Some(parents) = &self.parents {
                assert_eq!(cp.parents[s].len(), range.len(), "checkpoint holds no forest");
                for (v, &p) in range.zip(&cp.parents[s]) {
                    parents.set(v, p);
                }
            }
        }
        Ok(self.restore(cp.superstep, &cp.active))
    }

    /// All vertex values in global-id order.
    pub fn values_vec(&self) -> Vec<P::Value> {
        (0..self.values.len()).map(|v| self.values.load(v)).collect()
    }

    /// Restores a checkpoint's per-shard `active` lists and `superstep`,
    /// with every undo log and mailbox empty.
    fn restore(&mut self, superstep: usize, active: &[Vec<Node>]) -> usize {
        assert_eq!(active.len(), self.shards.len(), "checkpoint shard count mismatch");
        for (shard, active) in self.shards.iter().zip(active) {
            let mut st = shard.lock();
            st.active.clear();
            st.active.extend_from_slice(active);
            st.next_active.clear();
            st.undo.clear();
        }
        self.mail.clear();
        self.superstep.store(superstep, Ordering::Relaxed);
        superstep
    }

    /// Consumes the armed kill spec iff it names this (step, shard, phase).
    fn take_kill(&self, step: usize, shard: usize, phase: KillPhase) -> Option<KillSpec> {
        let mut kill = self.kill.lock();
        match *kill {
            Some(k) if k.superstep == step && k.shard == shard && k.phase == phase => kill.take(),
            _ => None,
        }
    }

    /// Scatter phase for shard `s`: consume the active list, posting
    /// messages along out-edges (plus in-edges for symmetric-scope
    /// programs on directed graphs). `limit` caps the number of active
    /// vertices processed — the kill simulation's "died mid-phase".
    fn scatter_shard(
        &self,
        graph: &dyn GraphTopology,
        s: usize,
        limit: Option<usize>,
        bufs: &mut [Vec<Message<P::Value>>],
        neighbors: &mut Vec<(Node, Weight)>,
    ) -> u64 {
        let scope_both = self.program.scope() == EdgeScope::Symmetric && graph.is_directed();
        let need_degree = self.program.gather_mode() == GatherMode::Sum;
        let mut st = self.shards[s].lock();
        let take = limit.unwrap_or(st.active.len()).min(st.active.len());
        let mut sent = 0u64;
        for &v in &st.active[..take] {
            let value = self.values.load(v as usize);
            // Collect-then-query: buffer the adjacency before touching the
            // graph again (degree query) or the mailboxes — graph callbacks
            // must not re-enter the structure.
            neighbors.clear();
            graph.for_each_out_neighbor(v, &mut |nb, w| neighbors.push((nb, w)));
            if scope_both {
                graph.for_each_in_neighbor(v, &mut |nb, w| neighbors.push((nb, w)));
            }
            if neighbors.is_empty() {
                continue;
            }
            let out_degree = if need_degree { graph.out_degree(v) } else { 0 };
            for &(nb, w) in neighbors.iter() {
                if let Some(msg) = self.program.term(value, w, out_degree) {
                    bufs[self.layout.shard_of(nb as usize)].push((nb, v, msg));
                    sent += 1;
                }
            }
        }
        st.active.clear();
        for (dst, buf) in bufs.iter_mut().enumerate() {
            self.mail.post(s, dst, buf);
        }
        sent
    }

    /// Fold-mode gather for shard `s`: drain inbound cells in ascending
    /// source-shard order, fold each message with `combine`, and build the
    /// next frontier from significant changes. `limit` caps how many source
    /// cells are drained (kill simulation). Returns `(messages processed,
    /// next frontier size)`.
    fn gather_shard_fold(&self, s: usize, limit: Option<usize>) -> (u64, usize) {
        let nshards = self.layout.shards();
        let range = self.layout.range(s);
        let drain = limit.unwrap_or(nshards).min(nshards);
        let mut st = self.shards[s].lock();
        let st = &mut *st;
        st.marks.resize(range.len());
        st.marks.next_generation();
        st.next_active.clear();
        let mut processed = 0u64;
        for src in 0..drain {
            for (v, _, msg) in self.mail.take(src, s) {
                processed += 1;
                let i = v as usize;
                let old = self.values.load(i);
                let new = self.program.combine(old, msg);
                if self.program.significant_change(old, new) {
                    if st.marks.try_mark(i - range.start) {
                        if self.store.is_some() {
                            st.undo.push((v, old, NO_PARENT));
                        }
                        st.next_active.push(v);
                    }
                    self.values.store(i, new);
                }
            }
        }
        std::mem::swap(&mut st.active, &mut st.next_active);
        (processed, st.active.len())
    }

    /// Pull-mode scatter for shard `s`, Algorithm 1's round: each active
    /// vertex pulls its in-arcs ([`pull_head`](Self::pull_head)) into the
    /// pending values [`apply_shard`](Self::apply_shard) writes after the
    /// barrier, so every pull reads the values the previous superstep
    /// left; each vertex whose value changes triggers its out-neighbours
    /// (and in-neighbours, for a symmetric-scope program on a directed
    /// graph) with one message each. `limit` caps the number of active
    /// vertices processed (kill simulation). Returns the messages sent.
    fn pull_shard(
        &self,
        graph: &dyn GraphTopology,
        s: usize,
        limit: Option<usize>,
        bufs: &mut [Vec<Message<P::Value>>],
    ) -> u64 {
        let both = self.program.scope() == EdgeScope::Symmetric && graph.is_directed();
        let mut st = self.shards[s].lock();
        let st = &mut *st;
        let take = limit.unwrap_or(st.active.len()).min(st.active.len());
        let mut sent = 0u64;
        for &v in &st.active[..take] {
            let Some(pulled) = self.pull_head(graph, v, both) else { continue };
            st.pending.push(pulled);
            let mut trigger = |nb: Node, _| {
                bufs[self.layout.shard_of(nb as usize)].push((nb, v, pulled.2));
                sent += 1;
            };
            graph.for_each_out_neighbor(v, &mut trigger);
            if both {
                graph.for_each_in_neighbor(v, &mut trigger);
            }
        }
        st.active.clear();
        for (dst, buf) in bufs.iter_mut().enumerate() {
            self.mail.post(s, dst, buf);
        }
        sent
    }

    /// Pull-mode gather for shard `s`: writes the shard's pending pulled
    /// values and witnesses, then drains its inbound cells in ascending
    /// source-shard order into the next frontier, each triggered vertex
    /// once. `limit` caps how many source cells are drained (kill
    /// simulation). Returns `(messages processed, next frontier size)`.
    fn apply_shard(&self, s: usize, limit: Option<usize>) -> (u64, usize) {
        let parents = self.parents.as_ref().expect("a pull run keeps a forest");
        let nshards = self.layout.shards();
        let range = self.layout.range(s);
        let drain = limit.unwrap_or(nshards).min(nshards);
        let mut st = self.shards[s].lock();
        let st = &mut *st;
        for (v, witness, value) in st.pending.drain(..) {
            let i = v as usize;
            if self.store.is_some() {
                st.undo.push((v, self.values.load(i), parents.get(i)));
            }
            self.values.store(i, value);
            parents.set(i, witness);
        }
        st.marks.resize(range.len());
        st.marks.next_generation();
        let mut processed = 0u64;
        for src in 0..drain {
            for (v, _, _) in self.mail.take(src, s) {
                processed += 1;
                if st.marks.try_mark(v as usize - range.start) {
                    st.active.push(v);
                }
            }
        }
        (processed, st.active.len())
    }

    /// Sum-mode gather for shard `s`: accumulate all inbound messages into
    /// the per-vertex accumulator (fixed source-shard order — float sums
    /// stay deterministic), then apply `finish` to every local vertex.
    /// Every vertex stays active. Returns `(messages processed, Σ
    /// l1_units)`. A `limit` kill abandons the shard before the finish
    /// sweep, leaving values untouched.
    fn gather_shard_sum(&self, s: usize, limit: Option<usize>) -> (u64, u64) {
        let nshards = self.layout.shards();
        let range = self.layout.range(s);
        let base = range.start;
        let mut st = self.shards[s].lock();
        let st = &mut *st;
        st.acc.clear();
        st.acc.resize(range.len(), P::Value::default());
        let mut processed = 0u64;
        let drain = limit.unwrap_or(nshards).min(nshards);
        for src in 0..drain {
            for (v, _, msg) in self.mail.take(src, s) {
                let i = v as usize - base;
                st.acc[i] = st.acc[i] + msg;
                processed += 1;
            }
        }
        if limit.is_some() {
            return (processed, 0);
        }
        let mut delta = 0u64;
        for i in 0..range.len() {
            let v = base + i;
            let old = self.values.load(v);
            let new = self.program.finish(st.acc[i]);
            if new != old {
                if self.store.is_some() {
                    st.undo.push((v as Node, old, NO_PARENT));
                }
                self.values.store(v, new);
                delta += self.program.l1_units(old, new);
            }
        }
        st.active.clear();
        st.active.extend(range.map(|v| v as Node));
        (processed, delta)
    }

    /// The last arriver's work inside the gather-end crossing, before it
    /// releases: metrics, termination, superstep advance, checkpointing.
    fn superstep_epilogue(&self, step: usize, ctl: &Control, mode: GatherMode) {
        let sent = ctl.step_messages.swap(0, Ordering::Relaxed);
        ctl.messages.fetch_add(sent, Ordering::Relaxed);
        self.superstep_messages.record(sent);
        self.supersteps.incr();
        let active = ctl.active_total.swap(0, Ordering::Relaxed);
        let delta = ctl.delta_fixed.swap(0, Ordering::Relaxed);
        if ctl.killed.load(Ordering::SeqCst) {
            // The superstep's state is poisoned: don't advance, don't
            // checkpoint — the caller recovers from the last barrier.
            ctl.killed_step.store(step, Ordering::SeqCst);
            ctl.done.store(true, Ordering::SeqCst);
            return;
        }
        let next = step + 1;
        self.superstep.store(next, Ordering::Relaxed);
        let done = match mode {
            GatherMode::Fold => active == 0,
            GatherMode::Sum => self.program.sum_converged(next, delta),
        };
        if done {
            ctl.done.store(true, Ordering::SeqCst);
        } else if next.is_multiple_of(self.period) {
            self.publish_checkpoint(next);
        }
    }

    /// Publishes a checkpoint to the store, if the engine keeps one
    /// (sequential walk — callers hold no shard locks here): every shard's
    /// active list, with its undo log emptied, and — only when a directory
    /// is configured — a file of the whole [`Checkpoint`].
    fn publish_checkpoint(&self, step: usize) {
        let Some(store) = &self.store else { return };
        let active: Vec<Vec<Node>> = self
            .shards
            .iter()
            .map(|shard| {
                let mut st = shard.lock();
                st.undo.clear();
                st.active.clone()
            })
            .collect();
        let mut store = store.lock();
        if let Some(dir) = &store.config().dir {
            let shards = 0..self.shards.len();
            let file = Checkpoint {
                superstep: step,
                values: shards.clone().map(|s| self.layout.range(s).map(|v| self.values.load(v)).collect()).collect(),
                parents: shards
                    .map(|s| self.parents.as_ref().map_or_else(Vec::new, |p| self.layout.range(s).map(|v| p.get(v)).collect()))
                    .collect(),
                active: active.clone(),
            };
            if let Err(e) = file.write_to(dir) {
                saga_trace::progress!("bsp: checkpoint {step} not written to disk: {e}");
            }
        }
        store.publish(step, active);
    }
}

/// A [`BspEngine`] with the program type erased — what
/// [`AlgorithmState`](crate::AlgorithmState) and
/// [`ShardedState`](crate::ShardedState) hold: one dynamic call per batch,
/// the kernels behind it monomorphised.
pub(crate) trait BoundProgram: Send + Sync + std::fmt::Debug {
    /// Recomputes every value with the program's from-scratch kernel, the
    /// FS model. An engine with a witness forest rebuilds it from the new
    /// values and reports the batch as INC's
    /// [`fs_fallback`](ComputeOutcome::fs_fallback).
    #[allow(clippy::wrong_self_convention)] // "from scratch" is the paper's name for the model
    fn from_scratch(&mut self, graph: &dyn GraphTopology, pool: &ThreadPool) -> ComputeOutcome;

    /// Every vertex from its initial value, all active, in supersteps.
    fn supersteps(&mut self, graph: &dyn GraphTopology, pool: &ThreadPool) -> ComputeOutcome;

    /// An incremental batch already applied to `graph`. A Fold program's
    /// runs on `shards` shards, seeded by `seed`'s affected vertices
    /// pulling their in-arcs (see [`BspEngine::seed`]). With `deleted`
    /// edges the witness-forest subtrees that hung off them are planned
    /// first ([`inc::plan_deletion_repair`]); within the repair limit they
    /// are reset to their initial values and pull their surviving in-arcs
    /// beside the affected vertices, and `repaired` counts them. Over the limit,
    /// the batch runs [`from_scratch`](Self::from_scratch) instead. A
    /// [`GatherMode::Sum`] program's runs Algorithm 1's rounds over an
    /// affected set ([`inc::incremental_compute`]).
    fn incremental(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        shards: usize,
        seed: Seed<'_>,
        deleted: &[Edge],
    ) -> ComputeOutcome;

    fn arm_kill(&mut self, spec: KillSpec);

    fn checkpoints_published(&self) -> usize;

    /// How many kill-and-recover cycles
    /// [`run_to_completion`](BspEngine::run_to_completion) went through.
    fn recoveries(&self) -> usize;

    fn values(&self) -> VertexValues;

    fn witnesses(&self) -> Option<Vec<Node>>;
}

impl<P: VertexProgram> BoundProgram for BspEngine<P> {
    fn from_scratch(&mut self, graph: &dyn GraphTopology, pool: &ThreadPool) -> ComputeOutcome {
        let (program, values) = (&self.program, &self.values);
        values.begin_phase();
        saga_graph::read_phase(graph, |graph| {
            fs::reset_values(program, values, values.len(), pool);
            let outcome = program.from_scratch(graph, values, pool);
            if let Some(parents) = &self.parents {
                inc::rebuild_witness_forest(program, graph, values, parents, pool);
            }
            ComputeOutcome { fs_fallback: self.parents.is_some(), ..outcome }
        })
    }

    fn supersteps(&mut self, graph: &dyn GraphTopology, pool: &ThreadPool) -> ComputeOutcome {
        self.values.begin_phase();
        self.reset_all_active();
        self.run_to_completion(graph, pool)
    }

    fn incremental(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        shards: usize,
        seed: Seed<'_>,
        deleted: &[Edge],
    ) -> ComputeOutcome {
        self.values.begin_phase();
        let mut heads: Vec<Node> = match seed {
            Seed::Affected { affected, new_vertices } if self.program.gather_mode() == GatherMode::Sum => {
                let (program, values) = (&self.program, &self.values);
                return saga_graph::read_phase(graph, |graph| {
                    inc::incremental_compute(program, graph, values, affected, new_vertices, pool)
                });
            }
            Seed::Batch(edges) => edges.iter().flat_map(|e| [e.src, e.dst]).collect(),
            Seed::Affected { affected, .. } => affected.to_vec(),
            Seed::Improving(_) => Vec::new(), // after the repair's resets, below
        };
        self.reshard(shards);
        let parents = self.parents.as_ref().expect("an incremental Fold engine keeps a forest");
        let tagged = if deleted.is_empty() {
            Vec::new()
        } else {
            let _span = saga_trace::span!("repair", deleted = deleted.len() as u64);
            let (program, limit) = (&self.program, self.repair_limit);
            let planned = saga_graph::read_phase(graph, |graph| {
                inc::plan_deletion_repair(program, graph, parents, deleted, limit)
            });
            match planned {
                Ok(tagged) => tagged,
                Err(count) => {
                    saga_trace::instant!("repair-overflow", tagged = count as u64);
                    return self.from_scratch(graph, pool);
                }
            }
        };
        let capacity = self.layout.capacity();
        for &v in &tagged {
            self.values.store(v as usize, self.program.initial(v, capacity));
            parents.set(v as usize, NO_PARENT);
        }
        heads.extend_from_slice(&tagged);
        if let Seed::Improving(edges) = seed {
            let both = self.program.scope() == EdgeScope::Symmetric || !graph.is_directed();
            heads.extend(self.improvable_heads(edges, both));
        }
        heads.sort_unstable();
        heads.dedup();
        self.seed(&heads);
        let outcome = self.run_to_completion(graph, pool);
        ComputeOutcome { repaired: tagged.len(), ..outcome }
    }

    fn arm_kill(&mut self, spec: KillSpec) {
        BspEngine::arm_kill(self, spec);
    }

    fn checkpoints_published(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.lock().published())
    }

    fn recoveries(&self) -> usize {
        self.recoveries
    }

    fn values(&self) -> VertexValues {
        P::Value::into_values(self.values_vec())
    }

    fn witnesses(&self) -> Option<Vec<Node>> {
        self.parents.as_ref().map(AtomicU32Array::to_vec)
    }
}
