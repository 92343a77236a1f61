//! The sharded BSP superstep engine.
//!
//! A run executes supersteps until quiescence (fold programs) or
//! convergence (sum programs). Each superstep is two barrier crossings:
//!
//! 1. **Scatter** — every worker walks its shards' active vertices and
//!    posts one message per edge — the program's per-edge
//!    [`term`](VertexProgram::term), computed source-side — into the
//!    per-(src, dst) mailbox cells.
//! 2. *barrier* — flips the phase; every cell now has its writer done.
//! 3. **Gather** — every worker drains its shards' inbound cells in
//!    ascending source-shard order and folds (or sums) the messages into
//!    the shard-local property array, building the next active frontier
//!    ([`VertexProgram::gather_mode`]).
//! 4. *barrier* — the last arriver runs the sequential epilogue
//!    (termination check, superstep advance, checkpoint publication)
//!    before the crossing releases, so every worker leaves it seeing the
//!    decision.
//!
//! Checkpoints are taken only at the gather-end boundary, where all
//! mailboxes are empty by construction, so a snapshot is just per-shard
//! values + active lists. Because each mailbox cell has a single writer
//! and a single reader per superstep, the drain order is fixed, and the
//! sum mode accumulates in that fixed order, replaying from a checkpoint
//! with the same thread count is **bitwise identical** to an
//! uninterrupted run — the property `saga-check`'s kill-and-recover
//! harness asserts.
//!
//! A full run starts from [`BspEngine::reset_all_active`]; an incremental
//! one from [`BspEngine::seed`], which folds the batch's seed terms before
//! the superstep-0 checkpoint, so that checkpoint already holds them.

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointStore};
use crate::layout::ShardLayout;
use crate::mailbox::Mailboxes;
use saga_algorithms::program::{EdgeScope, GatherMode, VertexProgram};
use saga_algorithms::ComputeOutcome;
use saga_graph::properties::ShardValues;
use saga_graph::{Edge, GraphTopology, Node, Weight};
use saga_trace::metrics::{self, Counter, Histogram};
use saga_utils::barrier::Barrier;
use saga_utils::bitvec::GenerationMarks;
use saga_utils::parallel::ThreadPool;
use saga_utils::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use saga_utils::sync::{Arc, Mutex, RwLock};
use std::io;
use std::ops::Range;

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

/// One seed of an incremental run: a term sent along `edge`, from its
/// source to its destination or, when `reverse`, the other way (a
/// symmetric-scope program or an undirected graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedArc {
    /// The edge the term crosses, with the weight the term uses.
    pub edge: Edge,
    /// Whether the term runs from `edge.dst` to `edge.src`.
    pub reverse: bool,
}

impl SeedArc {
    /// The vertex whose value the term reads.
    pub fn source(&self) -> Node {
        if self.reverse { self.edge.dst } else { self.edge.src }
    }

    /// The vertex the term is folded into.
    pub fn head(&self) -> Node {
        if self.reverse { self.edge.src } else { self.edge.dst }
    }
}

/// [`BspEngine::seed`]'s source of seed arcs: called with one shard's
/// vertex range and a read phase of the graph, it visits the arcs whose
/// [`source`](SeedArc::source) lies in that range.
pub type SeedArcs<'a> = dyn Fn(Range<usize>, &dyn GraphTopology, &mut dyn FnMut(SeedArc)) + Sync + 'a;

/// One source shard's seed messages bound for one head shard, with their
/// arcs while the arcs' weights still need restoring.
struct Seeds<V> {
    messages: Vec<(Node, V)>,
    arcs: Vec<SeedArc>,
}

impl<V> Default for Seeds<V> {
    fn default() -> Self {
        Self { messages: Vec::new(), arcs: Vec::new() }
    }
}

impl<V: Copy> Seeds<V> {
    /// Keeps the messages (and their arcs) for which `keep(head, term)`.
    fn retain(&mut self, mut keep: impl FnMut(Node, V) -> bool) {
        let mut kept = 0;
        for i in 0..self.messages.len() {
            let (head, t) = self.messages[i];
            if keep(head, t) {
                self.messages[kept] = (head, t);
                if let Some(&a) = self.arcs.get(i) {
                    self.arcs[kept] = a;
                }
                kept += 1;
            }
        }
        self.messages.truncate(kept);
        self.arcs.truncate(kept);
    }
}

/// One shard's owner-private state. Behind an `RwLock` for safe hand-off
/// across runs, but never contended for writing: the owning worker is the
/// only writer during a phase. Seeding reads other shards' values
/// (`seed_terms`), which readers share.
struct ShardState<V> {
    values: ShardValues<V>,
    active: Vec<Node>,
    next_active: Vec<Node>,
    /// Dedup marks for `next_active`, one slot per local vertex.
    marks: GenerationMarks,
    /// Sum-mode accumulator scratch, one slot per local vertex.
    acc: Vec<V>,
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

/// The sharded BSP executor for one [`VertexProgram`].
pub struct BspEngine<P: VertexProgram> {
    program: P,
    layout: ShardLayout,
    shards: Vec<RwLock<ShardState<P::Value>>>,
    mail: Mailboxes<P::Value>,
    store: Mutex<CheckpointStore<P::Value>>,
    /// Snapshot period, copied out of the config to keep the store lock
    /// out of the leader's hot path.
    period: usize,
    superstep: AtomicUsize,
    kill: Mutex<Option<KillSpec>>,
    /// Metric handles, resolved once here: a registry lookup takes a
    /// global mutex, which the superstep path must not.
    shard_messages: Vec<Arc<Counter>>,
    superstep_messages: Arc<Histogram>,
    supersteps: Arc<Counter>,
}

impl<P: VertexProgram> BspEngine<P> {
    /// A new engine over `capacity` vertices in `shards` shards. Initial
    /// values come from [`VertexProgram::initial`];
    /// no vertex starts active — call [`reset_all_active`](Self::reset_all_active)
    /// or [`seed`](Self::seed) before [`begin`](Self::begin).
    pub fn new(program: P, capacity: usize, shards: usize, config: CheckpointConfig) -> Self {
        let layout = ShardLayout::new(capacity, shards);
        let shard_states = (0..shards)
            .map(|s| {
                let range = layout.range(s);
                let data: Vec<P::Value> = range
                    .clone()
                    .map(|v| program.initial(v as Node, capacity))
                    .collect();
                RwLock::new(ShardState {
                    values: ShardValues::from_vec(range.start, data),
                    active: Vec::new(),
                    next_active: Vec::new(),
                    marks: GenerationMarks::new(range.len()),
                    acc: Vec::new(),
                })
            })
            .collect();
        let period = config.period();
        Self {
            program,
            layout,
            shards: shard_states,
            mail: Mailboxes::new(shards),
            store: Mutex::new(CheckpointStore::new(config)),
            period,
            superstep: AtomicUsize::new(0),
            kill: Mutex::new(None),
            shard_messages: (0..shards)
                .map(|s| metrics::labelled("bsp.shard_messages", "shard", s).counter())
                .collect(),
            superstep_messages: metrics::histogram("bsp.superstep_messages"),
            supersteps: metrics::counter("bsp.supersteps"),
        }
    }

    /// The vertex → shard mapping.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The program being executed.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Number of checkpoints published so far.
    pub fn checkpoints_published(&self) -> usize {
        self.store.lock().published()
    }

    /// Arms a one-shot fault injection for the next run.
    pub fn arm_kill(&mut self, spec: KillSpec) {
        *self.kill.lock() = Some(spec);
    }

    /// Resets every vertex to its initial value and marks all vertices
    /// active — the from-scratch / full-recompute starting state.
    pub fn reset_all_active(&mut self) {
        let capacity = self.layout.capacity();
        for (s, shard) in self.shards.iter().enumerate() {
            let range = self.layout.range(s);
            let mut st = shard.write();
            for v in range.clone() {
                st.values.set(v, self.program.initial(v as Node, capacity));
            }
            st.active.clear();
            st.active.extend(range.map(|v| v as Node));
            st.next_active.clear();
        }
    }

    /// Seeds an incremental run: one [`term`](VertexProgram::term) per
    /// [`SeedArc`] — the arc source's current value across its weight —
    /// folded into the arc head's shard. `arcs_of` lists the arcs by
    /// source: called with one shard's vertex range, it visits the arcs
    /// whose source lies in it.
    ///
    /// Each worker computes the terms of its shards' arcs and drops every
    /// term that would not change its head; only after every term is sent
    /// does any shard fold its inbox (the gather phase's fold, in ascending
    /// source-shard order), so every term reads the values the previous
    /// batch left. With `batch_weights` the arcs carry the batch's weights:
    /// a term that survives is recomputed with the weight the structure
    /// stored for its edge, found in the edge source's out-list. That is sound
    /// because a pre-existing edge's stored term cannot improve a fixpoint
    /// and a new edge's stored weight is its first batch weight, whose term
    /// is checked as it stands. The heads whose value changed
    /// ([`significant_change`](VertexProgram::significant_change)) become
    /// the superstep-0 frontier; values are otherwise left as-is, so the
    /// run resumes from the previous batch's converged state. Call before
    /// [`begin`](Self::begin), so its checkpoint holds the folded values
    /// and a recovery never folds them again.
    pub fn seed(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        arcs_of: &SeedArcs<'_>,
        batch_weights: bool,
    ) {
        let (threads, nshards) = (pool.threads(), self.layout.shards());
        let barrier = Barrier::new(threads);
        let this = &*self;
        saga_graph::read_phase(graph, |graph| pool.run_on_all(|w| {
            let mut seeds: Vec<Seeds<P::Value>> = (0..nshards).map(|_| Seeds::default()).collect();
            for s in (w..nshards).step_by(threads) {
                this.seed_terms(s, graph, arcs_of, batch_weights, &mut seeds);
                for (d, seeds) in seeds.iter_mut().enumerate() {
                    if batch_weights {
                        this.restore_stored_weights(s, graph, seeds);
                    }
                    seeds.arcs.clear();
                    this.mail.post(s, d, &mut seeds.messages);
                }
            }
            barrier.wait(|| {});
            for s in (w..nshards).step_by(threads) {
                this.gather_shard_fold(s, None);
            }
        }));
    }

    /// Fills `seeds[d]` with a `(head, term)` message for each of shard
    /// `s`'s seed arcs whose head lies in shard `d` and whose term would
    /// change the head's current value, in arc order — and with the arc
    /// itself when `keep_arcs`. Reads only: shard `s`, then each head
    /// shard, under read locks.
    fn seed_terms(
        &self,
        s: usize,
        graph: &dyn GraphTopology,
        arcs_of: &SeedArcs<'_>,
        keep_arcs: bool,
        seeds: &mut [Seeds<P::Value>],
    ) {
        {
            let st = self.shards[s].read();
            arcs_of(self.layout.range(s), graph, &mut |a| {
                if let Some(t) = self.program.term(st.values.get(a.source() as usize), a.edge.weight, 0) {
                    let d = &mut seeds[self.layout.shard_of(a.head() as usize)];
                    d.messages.push((a.head(), t));
                    if keep_arcs {
                        d.arcs.push(a);
                    }
                }
            });
        }
        for (d, seeds) in seeds.iter_mut().enumerate() {
            let st = self.shards[d].read();
            seeds.retain(|head, t| {
                let old = st.values.get(head as usize);
                self.program.significant_change(old, self.program.combine(old, t))
            });
        }
    }

    /// Recomputes each of `seeds` — shard `s`'s arcs, carrying a batch's
    /// weights — with the weight `graph` stored for its edge, dropping the
    /// terms that come to nothing.
    fn restore_stored_weights(&self, s: usize, graph: &dyn GraphTopology, seeds: &mut Seeds<P::Value>) {
        let edges: Vec<Edge> = seeds.arcs.iter().map(|a| a.edge).collect();
        let mut stored = stored_weights(graph, &edges).into_iter();
        let st = self.shards[s].read();
        let mut arcs = seeds.arcs.iter();
        seeds.messages.retain_mut(|(_, t)| {
            let a = arcs.next().expect("one arc per message");
            let value = st.values.get(a.source() as usize);
            match stored.next().flatten().and_then(|w| self.program.term(value, w, 0)) {
                Some(term) => {
                    *t = term;
                    true
                }
                None => false,
            }
        });
    }

    /// Rewinds the superstep counter, discards stale messages, and
    /// publishes the superstep-0 baseline checkpoint. Call after seeding
    /// activity and before [`run`](Self::run).
    pub fn begin(&mut self) {
        self.mail.clear();
        self.superstep.store(0, Ordering::Relaxed);
        self.publish_checkpoint(0);
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
            let mut bufs: Vec<Vec<(Node, P::Value)>> = (0..nshards).map(|_| Vec::new()).collect();
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
                            self.shards[s].read().active.len() / 2
                        });
                        sent += self.scatter_shard(graph, s, limit, &mut bufs, &mut neighbors);
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
                                let (processed, activated) = self.gather_shard_fold(s, limit);
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

    /// Restores the latest in-memory checkpoint: all shard values and
    /// active lists, with every in-flight message discarded. Returns the
    /// superstep the next [`run`](Self::run) resumes from.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint was ever published ([`begin`](Self::begin)
    /// always publishes the superstep-0 baseline).
    pub fn recover(&mut self) -> usize {
        let cp = self
            .store
            .lock()
            .latest()
            .cloned()
            .expect("no checkpoint to recover from");
        self.restore(&cp)
    }

    /// Like [`recover`](Self::recover), but reads the newest checkpoint
    /// file from the configured directory — the path a fully restarted
    /// process takes.
    pub fn recover_from_disk(&mut self) -> io::Result<usize> {
        let dir = self
            .store
            .lock()
            .config()
            .dir
            .clone()
            .expect("disk checkpointing not configured");
        let cp = CheckpointStore::<P::Value>::load_latest_from_disk(&dir)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no checkpoint files on disk")
        })?;
        Ok(self.restore(&cp))
    }

    /// All vertex values in global-id order (shard ranges tile the
    /// universe, so plain concatenation is the identity permutation).
    pub fn values_vec(&self) -> Vec<P::Value> {
        let mut out = Vec::with_capacity(self.layout.capacity());
        for shard in &self.shards {
            out.extend_from_slice(shard.read().values.as_slice());
        }
        out
    }

    fn restore(&mut self, cp: &Checkpoint<P::Value>) -> usize {
        assert_eq!(
            cp.values.len(),
            self.shards.len(),
            "checkpoint shard count mismatch"
        );
        for (s, shard) in self.shards.iter().enumerate() {
            let mut st = shard.write();
            st.values.restore(&cp.values[s]);
            st.active.clear();
            st.active.extend_from_slice(&cp.active[s]);
            st.next_active.clear();
        }
        self.mail.clear();
        self.superstep.store(cp.superstep, Ordering::Relaxed);
        cp.superstep
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
        bufs: &mut [Vec<(Node, P::Value)>],
        neighbors: &mut Vec<(Node, Weight)>,
    ) -> u64 {
        let scope_both = self.program.scope() == EdgeScope::Symmetric && graph.is_directed();
        let need_degree = self.program.gather_mode() == GatherMode::Sum;
        let mut st = self.shards[s].write();
        let st = &mut *st;
        let take = limit.unwrap_or(st.active.len()).min(st.active.len());
        let mut sent = 0u64;
        for idx in 0..take {
            let v = st.active[idx];
            let value = st.values.get(v as usize);
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
                    bufs[self.layout.shard_of(nb as usize)].push((nb, msg));
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
    /// next frontier from significant changes. `limit` caps how many
    /// source cells are drained (kill simulation). Returns
    /// `(messages processed, next frontier size)`.
    fn gather_shard_fold(&self, s: usize, limit: Option<usize>) -> (u64, usize) {
        let nshards = self.layout.shards();
        let base = self.layout.range(s).start;
        let drain = limit.unwrap_or(nshards).min(nshards);
        let mut st = self.shards[s].write();
        let st = &mut *st;
        st.marks.next_generation();
        st.next_active.clear();
        let mut processed = 0u64;
        for src in 0..drain {
            for (v, msg) in self.mail.take(src, s) {
                processed += 1;
                let old = st.values.get(v as usize);
                let new = self.program.combine(old, msg);
                if self.program.significant_change(old, new) {
                    st.values.set(v as usize, new);
                    if st.marks.try_mark(v as usize - base) {
                        st.next_active.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut st.active, &mut st.next_active);
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
        let mut st = self.shards[s].write();
        let st = &mut *st;
        st.acc.clear();
        st.acc.resize(range.len(), P::Value::default());
        let mut processed = 0u64;
        let drain = limit.unwrap_or(nshards).min(nshards);
        for src in 0..drain {
            for (v, msg) in self.mail.take(src, s) {
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
            let old = st.values.get(v);
            let new = self.program.finish(st.acc[i]);
            if new != old {
                st.values.set(v, new);
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

    /// Snapshots every shard (sequential walk — callers hold no shard
    /// locks here) and publishes to the store.
    fn publish_checkpoint(&self, step: usize) {
        let mut values = Vec::with_capacity(self.shards.len());
        let mut active = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let st = shard.read();
            values.push(st.values.as_slice().to_vec());
            active.push(st.active.clone());
        }
        let cp = Checkpoint {
            superstep: step,
            values,
            active,
        };
        if let Err(e) = self.store.lock().publish(cp) {
            saga_trace::progress!("bsp: checkpoint {step} not mirrored to disk: {e}");
        }
    }
}

/// The weight `graph` stores for each of `edges`, `None` for an edge it
/// does not hold. A structure keeps one entry per (source, destination),
/// with the first weight ingested. Each distinct source's out-list is
/// read once, so a hub that gains many edges in one batch costs its
/// degree, not its degree times its new edges.
fn stored_weights(graph: &dyn GraphTopology, edges: &[Edge]) -> Vec<Option<Weight>> {
    let key = |src: Node, dst: Node| u64::from(src) << 32 | u64::from(dst);
    let mut order: Vec<(u64, u32)> =
        edges.iter().enumerate().map(|(i, e)| (key(e.src, e.dst), i as u32)).collect();
    order.sort_unstable();
    let mut stored = vec![None; edges.len()];
    for run in order.chunk_by(|a, b| a.0 >> 32 == b.0 >> 32) {
        let src = (run[0].0 >> 32) as Node;
        graph.for_each_out_neighbor(src, &mut |nb, w| {
            let k = key(src, nb);
            let from = run.partition_point(|&(rk, _)| rk < k);
            for &(_, i) in run[from..].iter().take_while(|&&(rk, _)| rk == k) {
                stored[i as usize].get_or_insert(w);
            }
        });
    }
    stored
}
