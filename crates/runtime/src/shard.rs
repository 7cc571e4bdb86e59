//! The round loop: deterministic work-stealing execution of LOCAL algorithms.
//!
//! The LOCAL model charges one round of cost for all vertices acting *in parallel*.  Every
//! production execution in the workspace steps that synchronous round through one loop,
//! [`Executor::run`], which simulates the node programs on any number of threads without
//! giving up determinism:
//!
//! * [`WorkPool`] — a hand-rolled fixed-size work pool built from `std::thread` and `mpsc`
//!   channels only (the build environment has no registry access, so no rayon).  A pool is
//!   cheap to construct; [`WorkPool::scope`] spawns the workers, runs a closure that may
//!   submit any number of fork/join batches through [`PoolScope::map`], and joins all
//!   workers before returning.  A one-thread pool spawns nothing: the closure and every
//!   batch run on the calling thread.
//! * [`Executor`] — steps each round's frontier (see [`frontier`](crate::frontier)) in
//!   fixed-size chunks that workers **steal** off a shared atomic cursor, so a round costs
//!   O(|frontier| + messages) regardless of `n` and a skewed frontier spreads across the
//!   workers.  A run uses `min(threads, ⌈n / chunk_size⌉)` workers; when that is one —
//!   always at the default of one thread — the chunks are stepped in order on the caller.
//!   Under an installed [`obs`] collector, a run's exec span also records its wall buckets
//!   and one [`RoundInstant`] per round; without one, nothing is timed or allocated.
//! * [`RunConfig`] — an [`ExecutorKind`] plus a [`CostMode`].  [`run_algorithm`], the entry
//!   point of the drivers across the workspace, runs under the current thread's value;
//!   [`RunConfig::install`] scopes one to a thread and the [`WorkPool`]s it spawns, so one
//!   install reconfigures a whole driver without touching other threads' runs.
//!
//! The only other implementation of the round is the [`ReferenceExecutor`] (pre-fabric
//! mailboxes, linear-scan routing, no frontier), kept as the oracle the equivalence suites
//! compare against.
//!
//! # Determinism guarantee
//!
//! For every graph, algorithm, chunk size, and thread count, [`Executor::run`] produces
//! **bit-identical** outputs, round counts, message and bit counts, and per-round
//! [`RoundInstant`] columns (wall time aside) — the ones the [`ReferenceExecutor`] oracle
//! produces, whose rounds differ only in `frontier`.  The argument:
//!
//! 1. The round's work list is the sorted frontier — a deterministic vertex sequence fixed
//!    *before* any worker runs — split into fixed-size chunks.  The atomic claim cursor
//!    only decides **which worker** steps which chunk, never the chunk contents.
//! 2. Workers write only what they own.  A stepped vertex reads its mail from records that
//!    only the coordinator writes, between steps.  Its worker records its [`Status`] in its
//!    own flag (each vertex is stepped by one worker per round), marks its receivers into
//!    the worker's own frontier — a set union, which does not depend on which worker
//!    stepped which sender — and buffers everything else per chunk (`ChunkOut`): its
//!    broadcast, the chunk's halts and later-round alarms, and its bandwidth.  The
//!    coordinator then commits the chunks **in chunk order**: it stores each broadcast as
//!    its sender's record and folds in halts and alarms, in O(chunks + broadcasts +
//!    alarms), and ORs the workers' marks into the frontier in O(words marked).  Bandwidth
//!    is metered in the workers: a directed edge carries at most its one sender's one
//!    broadcast in a round, and the chunk loads merge in chunk order keeping the first edge
//!    that reached the maximum, exactly as one meter fed message by message in send order
//!    would.
//! 3. The per-round barrier (the fork/join of [`PoolScope::map`]) makes the exchange
//!    synchronous: no message produced in round `r` is observable before round `r + 1`.
//!
//! Scheduling therefore decides *who* computes, never *what* is computed: any thread count
//! (including 1) and any chunk size yield the same execution.  The cross-crate suite
//! `tests/sharded_executor.rs` and the CI cross-executor diff enforce this at thread counts
//! {1, 2, 4} × chunk sizes {1, 7, 64, 4096}.
//!
//! # Example
//!
//! ```
//! use arbcolor_graph::generators;
//! use arbcolor_runtime::{algorithms::FloodMaxId, Executor, ReferenceExecutor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(64)?;
//! let algorithm = FloodMaxId { rounds: 8 };
//! let oracle = ReferenceExecutor::new(&g).run(&algorithm)?;
//! let inline = Executor::new(&g).run(&algorithm)?;
//! let stolen = Executor::new(&g).with_threads(2).with_chunk_size(16).run(&algorithm)?;
//! assert_eq!(inline.outputs, oracle.outputs);
//! assert_eq!(stolen.outputs, oracle.outputs);
//! assert_eq!(stolen.report, oracle.report);
//! # Ok(())
//! # }
//! ```

use crate::cost::{CostMode, EdgeLoad, MessageCost};
use crate::frontier::{Frontier, Statuses};
use crate::metrics::RoundReport;
use crate::network::{node_ctx, ExecutionResult, Fabric, RuntimeError};
use crate::node::{Algorithm, NodeCtx, NodeProgram, Outbox, Status};
use crate::obs::{self, RoundInstant, WallBuckets};
use crate::reference::ReferenceExecutor;
use arbcolor_graph::{Graph, Vertex};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Work pool
// ---------------------------------------------------------------------------

/// A unit of work shipped to a pool worker.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A hand-rolled fixed-size work pool: plain `std::thread` workers fed through `mpsc`
/// channels.
///
/// The pool itself is just a thread count; [`WorkPool::scope`] spawns the workers inside a
/// [`std::thread::scope`], so jobs may borrow data that outlives the scope call, and every
/// worker is joined before `scope` returns.  Use [`PoolScope::map`] for fork/join batches,
/// or the [`WorkPool::map`] convenience wrapper for a one-shot batch.
#[derive(Debug, Clone)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// Creates a pool that will run jobs on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkPool { threads: threads.max(1) }
    }

    /// Number of worker threads this pool spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawns the workers, runs `f` with a [`PoolScope`] handle for submitting fork/join
    /// batches, then shuts the workers down and joins them.  A one-thread pool spawns no
    /// worker: `f` and every batch it submits run on the calling thread.  Workers run under
    /// the caller's [`RunConfig`], so a job's [`run_algorithm`] calls behave as the caller's.
    ///
    /// Jobs submitted through the scope must not themselves submit to the same scope (the
    /// API makes this impossible: jobs never see the [`PoolScope`]).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'env>) -> R) -> R {
        if self.threads == 1 {
            return f(&PoolScope { workers: Vec::new() });
        }
        let config = RunConfig::current();
        std::thread::scope(|s| {
            let mut workers = Vec::with_capacity(self.threads);
            for _ in 0..self.threads {
                let (sender, receiver) = mpsc::channel::<Job<'env>>();
                s.spawn(move || {
                    let _config = config.install();
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                });
                workers.push(sender);
            }
            f(&PoolScope { workers })
            // `PoolScope` (and with it every job sender) drops here, the workers' receive
            // loops end, and `std::thread::scope` joins them all.
        })
    }

    /// One-shot fork/join: spawns the workers, maps `f` over `items`, joins the workers.
    ///
    /// Results are returned in item order; see [`PoolScope::map`].
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Send + Sync,
    {
        self.scope(|scope| scope.map(items, f))
    }
}

/// Handle for submitting fork/join batches to a live [`WorkPool`] scope.
#[derive(Debug)]
pub struct PoolScope<'env> {
    workers: Vec<mpsc::Sender<Job<'env>>>,
}

impl<'env> PoolScope<'env> {
    /// Applies `f` to every item, distributing items round-robin over the workers, and
    /// blocks until all results are in.  Results are returned in item order, so the output
    /// is independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if a job panics on a worker (the worker's panic is also propagated when the
    /// enclosing [`WorkPool::scope`] joins its threads).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(usize, T) -> R + Send + Sync + 'env,
    {
        let count = items.len();
        if count == 0 {
            return Vec::new();
        }
        if self.workers.len() <= 1 || count == 1 {
            // A single worker (or none, in a one-thread pool) executes submissions in item
            // order anyway; skip the channel round-trips and run inline.
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let f = Arc::new(f);
        let (results_in, results_out) = mpsc::channel::<(usize, R)>();
        for (index, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let results_in = results_in.clone();
            let worker = &self.workers[index % self.workers.len()];
            worker
                .send(Box::new(move || {
                    // The coordinator may stop listening only after receiving all results,
                    // so this send can only fail during panic unwinding; ignore it then.
                    let _ = results_in.send((index, f(index, item)));
                }))
                .expect("pool worker exited before the scope ended");
        }
        drop(results_in);
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        for _ in 0..count {
            let (index, result) =
                results_out.recv().expect("a pool worker panicked while running a job");
            slots[index] = Some(result);
        }
        slots.into_iter().map(|slot| slot.expect("every job reports exactly once")).collect()
    }
}

// ---------------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------------

/// Which simulator implementation to run an algorithm on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The work-stealing [`Executor`] with explicit thread count and chunk size.
    Sharded {
        /// Worker threads of the pool.
        threads: usize,
        /// Vertices per stolen frontier chunk (see [`Executor::with_chunk_size`]).
        chunk_size: usize,
    },
    /// The pre-fabric `Vec<Vec<…>>` [`ReferenceExecutor`] with linear-scan routing.  A test
    /// and bench oracle (the equivalence suites and experiment E18 race it against the flat
    /// executor); never faster, so not a production choice.
    Reference,
}

impl ExecutorKind {
    /// A work-stealing configuration with the given thread count (clamped to at least 1)
    /// and [`Executor::DEFAULT_CHUNK_SIZE`].  `sharded(1)` is the default.
    pub const fn sharded(threads: usize) -> Self {
        ExecutorKind::Sharded {
            threads: if threads == 0 { 1 } else { threads },
            chunk_size: Executor::DEFAULT_CHUNK_SIZE,
        }
    }

    /// The worker-thread budget of this configuration (1 for [`ExecutorKind::Reference`]).
    pub fn threads(&self) -> usize {
        match self {
            ExecutorKind::Reference => 1,
            ExecutorKind::Sharded { threads, .. } => (*threads).max(1),
        }
    }
}

/// The configuration a run executes under: which executor steps its rounds and which cost
/// model charges them.
///
/// Each thread has a current value ([`RunConfig::current`], initially one thread under
/// [`CostMode::Local`]) that [`run_algorithm`] runs under.  [`RunConfig::install`] replaces
/// it until the guard drops, and the [`WorkPool`] workers a thread spawns inherit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// The executor every [`run_algorithm`] call dispatches to.
    pub executor: ExecutorKind,
    /// The cost model those runs charge and enforce.
    pub cost_mode: CostMode,
}

thread_local! {
    static CURRENT_CONFIG: Cell<RunConfig> = const { Cell::new(RunConfig::DEFAULT) };
}

impl RunConfig {
    const DEFAULT: RunConfig =
        RunConfig { executor: ExecutorKind::sharded(1), cost_mode: CostMode::Local };

    /// The current thread's configuration.
    pub fn current() -> Self {
        CURRENT_CONFIG.get()
    }

    /// Makes this the current thread's configuration until the returned guard drops, which
    /// restores the previous one (installs nest; unwinding restores too).
    #[must_use = "the configuration is uninstalled when the guard drops"]
    pub fn install(self) -> ConfigGuard {
        ConfigGuard { previous: CURRENT_CONFIG.replace(self), _thread: PhantomData }
    }

    /// Runs `algorithm` on `graph` under this configuration.  Every executor produces
    /// bit-identical results; only wall-clock time differs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate
    /// within the default round limit, or [`RuntimeError::CongestBudgetExceeded`] if a
    /// round overloads an edge under [`CostMode::Congest`].
    pub fn run<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        match self.executor {
            ExecutorKind::Sharded { threads, chunk_size } => Executor::new(graph)
                .with_threads(threads)
                .with_chunk_size(chunk_size)
                .with_cost_mode(self.cost_mode)
                .run(algorithm),
            ExecutorKind::Reference => {
                ReferenceExecutor::new(graph).with_cost_mode(self.cost_mode).run(algorithm)
            }
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::DEFAULT
    }
}

/// Restores the previously current [`RunConfig`] on drop.  Returned by
/// [`RunConfig::install`]; tied to the installing thread.
#[derive(Debug)]
pub struct ConfigGuard {
    previous: RunConfig,
    _thread: PhantomData<*const ()>,
}

impl Drop for ConfigGuard {
    fn drop(&mut self) {
        CURRENT_CONFIG.set(self.previous);
    }
}

/// Replaces the current thread's executor, keeping its cost mode.  Only `scalebench/` still
/// calls this; everything else installs a scoped [`RunConfig`].
pub fn set_default_executor(kind: ExecutorKind) {
    CURRENT_CONFIG.set(RunConfig { executor: kind, ..RunConfig::current() });
}

/// The current thread's executor.  Only `scalebench/` still calls this; everything else
/// reads [`RunConfig::current`].
pub fn default_executor() -> ExecutorKind {
    RunConfig::current().executor
}

/// Runs `algorithm` on `graph` under the current thread's [`RunConfig`].
///
/// This is the entry point the algorithm drivers across the workspace use, so a single
/// [`RunConfig::install`] reconfigures every run a driver makes.
///
/// # Errors
///
/// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate within
/// the default round limit, or [`RuntimeError::CongestBudgetExceeded`] if a round overloads
/// an edge under [`CostMode::Congest`].
pub fn run_algorithm<A>(
    graph: &Graph,
    algorithm: &A,
) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
where
    A: Algorithm + Sync,
    A::Node: Send,
    <A::Node as NodeProgram>::Msg: Send + Sync,
    <A::Node as NodeProgram>::Output: Send,
{
    RunConfig::current().run(graph, algorithm)
}

// ---------------------------------------------------------------------------
// The round loop
// ---------------------------------------------------------------------------

/// Everything one stolen chunk produced, buffered for an in-order commit: the broadcast of
/// every sender, the halts and alarms of its stepped vertices, and the chunk's bandwidth and
/// message count.
///
/// Bandwidth is metered here, on the sender side: in a round a directed edge carries at most
/// the one broadcast of its one sender, so a sender is charged once, in O(1), and no
/// per-arc array exists anywhere.
///
/// A run keeps one per chunk index for all its rounds; the commit drains it and keeps the
/// capacity, so steady-state rounds allocate nothing.
struct ChunkOut<M> {
    /// `(sender, message)` of each broadcast, in vertex order.
    broadcasts: Vec<(Vertex, M)>,
    /// Vertices the chunk stepped (its share of the round frontier), and how many of them
    /// halted.
    stepped: usize,
    halts: usize,
    /// `(round, vertex)` of the later-round alarms its vertices set.
    alarms: Vec<(usize, Vertex)>,
    /// The outbox every vertex of the chunk sends into.
    outbox: Outbox<M>,
    /// The chunk's bandwidth, in send order.
    load: EdgeLoad,
    /// Messages the chunk sent, a broadcast counting once per port.
    messages: usize,
}

impl<M: MessageCost> ChunkOut<M> {
    fn new() -> Self {
        ChunkOut {
            broadcasts: Vec::new(),
            stepped: 0,
            halts: 0,
            alarms: Vec::new(),
            outbox: Outbox::new(0),
            load: EdgeLoad::default(),
            messages: 0,
        }
    }

    /// Files the step of vertex `v` in `round` (0 for `init`): records its status, and takes
    /// the broadcast it left in the outbox, if any, for its record, charging its bandwidth.
    /// Every receiver, and `v` itself when it set an alarm for the next round, is marked
    /// into `marks`, the worker's next frontier.
    fn record(
        &mut self,
        graph: &Graph,
        v: Vertex,
        status: Status,
        round: usize,
        statuses: &Statuses,
        marks: &mut Frontier,
    ) {
        self.stepped += 1;
        self.halts += usize::from(statuses.record(v, status, round, marks, &mut self.alarms));
        let neighbors = graph.neighbors(v);
        let Some(message) = self.outbox.take().filter(|_| !neighbors.is_empty()) else {
            return;
        };
        self.messages += neighbors.len();
        self.load.charge_broadcast(message.encoded_bits(), neighbors.len(), (v, neighbors[0]));
        for &w in neighbors {
            marks.mark(w);
        }
        self.broadcasts.push((v, message));
    }
}

/// Runs `f`, adding its wall-clock nanoseconds to `bucket` when `timed`.
fn lap<R>(timed: bool, bucket: &mut u64, f: impl FnOnce() -> R) -> R {
    if !timed {
        return f();
    }
    let start = Instant::now();
    let result = f();
    *bucket += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    result
}

/// Runs [`Algorithm`]s on a [`Graph`] until every node halts, by splitting each round's
/// frontier into fixed-size chunks that workers claim from a shared atomic cursor and
/// committing their results in chunk order — bit-identical at any thread count and chunk
/// size (see the [module docs](self) for the argument).
///
/// A run uses `min(threads, ⌈n / chunk_size⌉)` workers.  With one worker — the default, and
/// every graph that fits in one chunk — no pool is spawned and the chunks are stepped in
/// order on the calling thread, so the many small subgraph executions of the recursive
/// drivers pay no thread setup.
#[derive(Debug, Clone)]
pub struct Executor<'g> {
    graph: &'g Graph,
    max_rounds: usize,
    threads: usize,
    chunk_size: usize,
    cost_mode: CostMode,
}

impl<'g> Executor<'g> {
    /// Default safety limit on the number of rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 1_000_000;

    /// Default number of frontier vertices per stolen chunk: small enough to balance a
    /// skewed frontier across workers, large enough to amortize the claim.
    pub const DEFAULT_CHUNK_SIZE: usize = 1024;

    /// Creates an executor for `graph` with one thread, the default round limit and chunk
    /// size, and [`CostMode::Local`].
    pub fn new(graph: &'g Graph) -> Self {
        Executor {
            graph,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            threads: 1,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            cost_mode: CostMode::Local,
        }
    }

    /// Overrides the round limit (useful for tests that expect termination within a bound).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the worker-thread budget (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the number of frontier vertices per stolen chunk (clamped to at least 1).
    ///
    /// The chunk size never affects results — only how finely the frontier is dealt out to
    /// the workers, and how many workers a graph of `n` vertices can keep busy.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Overrides the cost mode: under [`CostMode::Congest`] the run fails with
    /// [`RuntimeError::CongestBudgetExceeded`] as soon as a round overloads an edge.
    /// Bandwidth is recorded into the [`RoundReport`] in every mode, bit-identically at any
    /// thread count and chunk size.
    #[must_use]
    pub fn with_cost_mode(mut self, cost_mode: CostMode) -> Self {
        self.cost_mode = cost_mode;
        self
    }

    /// The graph this executor runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Runs `algorithm` until every node halts.
    ///
    /// While a collector is installed ([`obs::install`]), the run's exec span also records
    /// its wall buckets and one [`RoundInstant`] per round; the deterministic columns of
    /// those instants are bit-identical at any thread count and chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if the algorithm does not terminate
    /// within the configured round limit.
    pub fn run<A>(
        &self,
        algorithm: &A,
    ) -> Result<ExecutionResult<<A::Node as NodeProgram>::Output>, RuntimeError>
    where
        A: Algorithm + Sync,
        A::Node: Send,
        <A::Node as NodeProgram>::Msg: Send + Sync,
        <A::Node as NodeProgram>::Output: Send,
    {
        let span = obs::exec_span(algorithm.name());
        let graph = self.graph;
        let n = graph.n();
        let chunk = self.chunk_size.max(1);
        // More workers than chunks would only idle; one worker means no pool at all.
        let pool = WorkPool::new(self.threads.min(n.div_ceil(chunk)));
        let workers = pool.threads();

        // Build contexts and node programs in parallel, one contiguous range per worker
        // (results concatenate in range order, so the build is deterministic; a single
        // range is taken as is, not copied), then wrap each node in an uncontended
        // per-vertex mutex: the runtime forbids unsafe code, and a vertex is stepped by
        // exactly one worker per round, so the locks never block.
        let range_len = n.div_ceil(workers);
        let (mut contexts, mut nodes): (Vec<NodeCtx>, Vec<Mutex<A::Node>>) = Default::default();
        for (ctxs, ns) in pool.map(vec![(); workers], |w, ()| {
            let range = (w * range_len).min(n)..((w + 1) * range_len).min(n);
            let ctxs: Vec<NodeCtx> = range.map(|v| node_ctx(graph, v)).collect();
            let ns: Vec<Mutex<A::Node>> =
                ctxs.iter().map(|ctx| Mutex::new(algorithm.node(ctx))).collect();
            (ctxs, ns)
        }) {
            if contexts.is_empty() {
                (contexts, nodes) = (ctxs, ns);
            } else {
                contexts.extend(ctxs);
                nodes.extend(ns);
            }
        }

        // Each worker's marks into the next frontier, absorbed by the commit.
        let worker_marks: Vec<Mutex<Frontier>> =
            (0..workers).map(|_| Mutex::new(Frontier::new(n))).collect();
        // Shared round state.  Workers only read it during a fork/join batch; the coordinator
        // writes it between batches, so the lock is uncontended.
        let round_lock = RwLock::new(RoundState {
            fabric: Fabric::new(n),
            frontier: Frontier::new(n),
            schedule: Vec::new(),
            statuses: Statuses::new(n),
        });
        let claim = AtomicUsize::new(0);
        let chunk_outs: Vec<Mutex<ChunkOut<<A::Node as NodeProgram>::Msg>>> =
            (0..n.div_ceil(chunk)).map(|_| Mutex::new(ChunkOut::new())).collect();
        // Shadow everything the worker closures capture with references: the closures are
        // `move` (they must not borrow the coordinator's per-round locals), and moving a
        // reference is a copy.
        let round_lock = &round_lock;
        let claim = &claim;
        let chunk_outs = &chunk_outs;
        let worker_marks = &worker_marks;
        let contexts = &contexts;
        let nodes = &nodes;

        // Advisory wall buckets and per-round instants, kept only while a collector records
        // this run.
        let timed = span.is_recording();
        let mut wall = WallBuckets::default();
        let mut rounds: Vec<RoundInstant> = Vec::new();
        let report = pool.scope(|scope| {
            let mut report = RoundReport::zero();

            // Initialization: local computation plus the sends of the first round.  `init`
            // runs for every vertex, in work-stolen chunks of `0..n`; from here on only the
            // frontier is stepped.  Like every step, results are committed in chunk order.
            let init_chunks = chunk_outs.len();
            // Relaxed suffices: handing the batch to the workers orders this reset before
            // their claims.
            claim.store(0, Ordering::Relaxed);
            lap(timed, &mut wall.step_ns, || {
                scope.map(vec![(); workers], move |worker, ()| {
                    let state = round_lock.read().expect("round lock");
                    let marks = &mut *worker_marks[worker].lock().expect("marks lock");
                    loop {
                        let c = claim.fetch_add(1, Ordering::Relaxed);
                        if c >= init_chunks {
                            break;
                        }
                        let out = &mut *chunk_outs[c].lock().expect("chunk lock");
                        for v in c * chunk..((c + 1) * chunk).min(n) {
                            out.outbox.reset(contexts[v].degree);
                            let status = nodes[v]
                                .lock()
                                .expect("node lock")
                                .init(&contexts[v], &mut out.outbox);
                            out.record(graph, v, status, 0, &state.statuses, marks);
                        }
                    }
                })
            });
            // Round `r` records the messages and bits it *delivers* (sent in round `r − 1`;
            // round 1 carries the `init` sends), see [`RoundInstant`].
            let (init_messages, mut total_active, mut carry_bits) =
                lap(timed, &mut wall.commit_ns, || {
                    let mut state = round_lock.write().expect("round lock");
                    let stats = commit_chunks(&chunk_outs[..init_chunks], worker_marks, &mut state);
                    let bits = stats.load.finish(1, self.cost_mode, &mut report)?;
                    Ok::<_, RuntimeError>((stats.messages, state.statuses.count(), bits))
                })?;
            report.messages += init_messages;
            let mut carry_messages = init_messages;
            let mut any_outgoing = init_messages > 0;

            // Main loop: one iteration = one synchronous round.
            while total_active > 0 || any_outgoing {
                if report.rounds >= self.max_rounds {
                    return Err(RuntimeError::RoundLimitExceeded {
                        limit: self.max_rounds,
                        still_active: total_active,
                    });
                }
                report.rounds += 1;
                let active_at_start = total_active;
                let wall_before = wall.deliver_ns + wall.step_ns + wall.commit_ns;

                // Ring the round's alarms (which halts the vertices waiting to halt in it),
                // and publish its sorted frontier.
                let round = report.rounds;
                let (round_chunks, alarm_halts) = lap(timed, &mut wall.deliver_ns, || {
                    let mut state = round_lock.write().expect("round lock");
                    let state = &mut *state;
                    let halts = state.statuses.ring(round, &mut state.frontier);
                    state.frontier.take(&mut state.schedule);
                    (state.schedule.len().div_ceil(chunk), halts)
                });
                claim.store(0, Ordering::Relaxed);

                lap(timed, &mut wall.step_ns, || {
                    scope.map(vec![(); workers], move |worker, ()| {
                        let state = round_lock.read().expect("round lock");
                        let RoundState { fabric, schedule, statuses, .. } = &*state;
                        let marks = &mut *worker_marks[worker].lock().expect("marks lock");
                        loop {
                            let c = claim.fetch_add(1, Ordering::Relaxed);
                            if c >= round_chunks {
                                break;
                            }
                            let out = &mut *chunk_outs[c].lock().expect("chunk lock");
                            let vertices =
                                &schedule[c * chunk..((c + 1) * chunk).min(schedule.len())];
                            for &v in vertices {
                                // Mail to a vertex that halted, sleeps or waits to halt
                                // is dropped unread (it was counted at send time).
                                if !statuses.is_awake(v) {
                                    continue;
                                }
                                let inbox = fabric.read(graph, v, round);
                                out.outbox.reset(contexts[v].degree);
                                let status = nodes[v].lock().expect("node lock").round(
                                    &contexts[v],
                                    &inbox,
                                    &mut out.outbox,
                                );
                                out.record(graph, v, status, round, statuses, marks);
                            }
                        }
                    })
                });

                let (stats, round_bits) = lap(timed, &mut wall.commit_ns, || {
                    let mut state = round_lock.write().expect("round lock");
                    let stats =
                        commit_chunks(&chunk_outs[..round_chunks], worker_marks, &mut state);
                    total_active = state.statuses.count();
                    let bits = stats.load.finish(report.rounds + 1, self.cost_mode, &mut report)?;
                    Ok::<_, RuntimeError>((stats, bits))
                })?;
                report.messages += stats.messages;
                if timed {
                    rounds.push(RoundInstant {
                        round: report.rounds,
                        active: active_at_start,
                        frontier: stats.stepped,
                        messages: carry_messages,
                        total_bits: carry_bits.total,
                        max_edge_bits: carry_bits.max,
                        halts: stats.halts + alarm_halts,
                        // The round's three bucket laps.
                        wall_ns: wall.deliver_ns + wall.step_ns + wall.commit_ns - wall_before,
                    });
                }
                carry_messages = stats.messages;
                carry_bits = round_bits;
                any_outgoing = stats.messages > 0;
                if total_active == 0 {
                    break;
                }
            }
            Ok(report)
        })?;

        let outputs = nodes
            .iter()
            .zip(contexts.iter())
            .map(|(node, ctx)| node.lock().expect("node lock").output(ctx))
            .collect();
        span.charge(report);
        span.record_rounds(wall, rounds);
        obs::record_run(&report);
        Ok(ExecutionResult { outputs, report })
    }
}

/// The round state: the fabric and the round's sorted schedule, which the workers read, the
/// halt flags, and the next round's frontier.  The coordinator writes it only between
/// fork/join batches.
struct RoundState<M> {
    fabric: Fabric<M>,
    frontier: Frontier,
    schedule: Vec<Vertex>,
    statuses: Statuses,
}

/// What [`commit_chunks`] applied, summed over the committed chunks.
#[derive(Debug, Default, Clone, Copy)]
struct CommitStats {
    /// Messages the chunks sent.
    messages: usize,
    /// Vertices the workers actually stepped (the round's frontier).
    stepped: usize,
    /// Vertices that halted.
    halts: usize,
    /// The chunks' bandwidth, merged in chunk order.
    load: EdgeLoad,
}

/// Commits the chunks produced by one fork/join step **in chunk order**, draining each:
/// merges its bandwidth, halts and alarms, and stores its broadcasts as their senders'
/// records (retiring the round's).  Then absorbs the workers' `marks` into the frontier.
/// O(chunks + broadcasts + alarms + words marked): a broadcast costs O(1) here, and a
/// stepped vertex that sent nothing and set no later alarm costs nothing.
fn commit_chunks<M>(
    chunk_outs: &[Mutex<ChunkOut<M>>],
    marks: &[Mutex<Frontier>],
    state: &mut RoundState<M>,
) -> CommitStats {
    let mut stats = CommitStats::default();
    state.fabric.retire();
    for slot in chunk_outs {
        let out = &mut *slot.lock().expect("chunk lock");
        stats.messages += std::mem::take(&mut out.messages);
        stats.stepped += std::mem::take(&mut out.stepped);
        let halts = std::mem::take(&mut out.halts);
        stats.halts += halts;
        stats.load.merge(std::mem::take(&mut out.load));
        state.statuses.merge(halts, &mut out.alarms);
        for (v, message) in out.broadcasts.drain(..) {
            state.fabric.store(v, message);
        }
    }
    for worker in marks {
        state.frontier.absorb(&mut worker.lock().expect("marks lock"));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FloodMaxId, ProposeMaxId};
    use crate::node::Inbox;
    use arbcolor_graph::generators;

    /// Replays one script of `(status, broadcast?)` answers per vertex — entry 0 answers
    /// `init`, entry `i` the `i`-th `round` — and outputs the rounds each vertex was
    /// stepped in.  A vertex stepped more often than scripted panics on the index.
    struct Scripted(Vec<Vec<(Status, bool)>>);

    struct ScriptedNode {
        script: Vec<(Status, bool)>,
        stepped: Vec<usize>,
    }

    impl ScriptedNode {
        fn answer(&mut self, outbox: &mut Outbox<()>) -> Status {
            let (status, send) = self.script[self.stepped.len()];
            if send {
                outbox.broadcast(());
            }
            status
        }
    }

    impl NodeProgram for ScriptedNode {
        type Msg = ();
        type Output = Vec<usize>;

        fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<()>) -> Status {
            self.answer(outbox)
        }

        fn round(
            &mut self,
            _ctx: &NodeCtx,
            inbox: &Inbox<'_, ()>,
            outbox: &mut Outbox<()>,
        ) -> Status {
            self.stepped.push(inbox.round());
            self.answer(outbox)
        }

        fn output(&self, _ctx: &NodeCtx) -> Vec<usize> {
            self.stepped.clone()
        }
    }

    impl Algorithm for Scripted {
        type Node = ScriptedNode;

        fn node(&self, ctx: &NodeCtx) -> ScriptedNode {
            ScriptedNode { script: self.0[ctx.vertex].clone(), stepped: Vec::new() }
        }
    }

    #[test]
    fn an_alarm_is_replaced_by_the_next_status_and_rings_only_in_its_round() {
        // Vertex 1 first asks for round 3, is stepped early by mail in round 1 and moves
        // its alarm to round 4, so round 3 steps nobody; in round 4 it waits for mail
        // (`Active`), which vertex 0's round-5 broadcast delivers in round 6.
        let g = generators::path(2).unwrap();
        let script = Scripted(vec![
            vec![(Status::WakeAt(2), true), (Status::WakeAt(5), false), (Status::Halted, true)],
            vec![
                (Status::WakeAt(3), false),
                (Status::WakeAt(4), false),
                (Status::Active, false),
                (Status::Halted, false),
            ],
        ]);
        for (threads, chunk_size) in [(1, 1024), (2, 1)] {
            let executor = Executor::new(&g).with_threads(threads).with_chunk_size(chunk_size);
            let (result, rounds) = obs::recorded(|| executor.run(&script).unwrap());
            assert_eq!(result.outputs, vec![vec![2, 5], vec![1, 4, 6]]);
            assert_eq!(result.report.rounds, 6);
            assert_eq!(frontiers(&rounds), vec![1, 1, 0, 1, 1, 1]);
        }
    }

    #[test]
    fn a_vertex_that_halts_drops_its_pending_alarm() {
        // Vertex 1 halts on mail in round 1 with an alarm pending for round 2; stepping it
        // again would run off its script.
        let g = generators::path(2).unwrap();
        let script = Scripted(vec![
            vec![(Status::WakeAt(3), true), (Status::WakeAt(3), false), (Status::Halted, false)],
            vec![(Status::WakeAt(2), false), (Status::Halted, true)],
        ]);
        let (result, rounds) = obs::recorded(|| Executor::new(&g).run(&script).unwrap());
        assert_eq!(result.outputs, vec![vec![2, 3], vec![1]]);
        assert_eq!(frontiers(&rounds), vec![1, 1, 1]);
    }

    fn frontiers(rounds: &[RoundInstant]) -> Vec<usize> {
        rounds.iter().map(|r| r.frontier).collect()
    }

    /// Vertex 0 asks for round 1 again while in round 1.
    fn alarm_for_the_current_round() -> Scripted {
        Scripted(vec![
            vec![(Status::WakeAt(1), false), (Status::WakeAt(1), false)],
            vec![(Status::Halted, false)],
        ])
    }

    #[test]
    #[should_panic(expected = "an alarm must name a later round")]
    fn the_executor_rejects_an_alarm_for_the_current_round() {
        let g = generators::path(2).unwrap();
        let _ = Executor::new(&g).run(&alarm_for_the_current_round());
    }

    #[test]
    #[should_panic(expected = "an alarm must name a later round")]
    fn the_reference_executor_rejects_an_alarm_for_the_current_round() {
        let g = generators::path(2).unwrap();
        let _ = ReferenceExecutor::new(&g).run(&alarm_for_the_current_round());
    }

    #[test]
    #[should_panic(expected = "an alarm must name a later round")]
    fn init_cannot_set_an_alarm_for_round_zero() {
        let g = generators::path(2).unwrap();
        let script = Scripted(vec![vec![(Status::WakeAt(0), false)]; 2]);
        let _ = Executor::new(&g).run(&script);
    }

    /// Acts on a per-vertex script keyed by round — `(round, status, broadcast?)`, with
    /// round 0 answering `init` — and outputs the mail it read, as `(round, [(port,
    /// message)])`.  A step in an unscripted round (mail, or the reference executor stepping
    /// every awake vertex) is a no-op that repeats the last status, so the outputs do not
    /// depend on which executor steps which vertex when.  Each vertex broadcasts
    /// `100 · vertex + round`.
    struct Timed(Vec<Vec<(usize, Status, bool)>>);

    struct TimedNode {
        script: Vec<(usize, Status, bool)>,
        last: Status,
        read: Vec<(usize, Vec<(usize, u64)>)>,
    }

    impl TimedNode {
        fn act(&mut self, ctx: &NodeCtx, round: usize, outbox: &mut Outbox<u64>) -> Status {
            if let Some(&(_, status, send)) = self.script.iter().find(|(r, ..)| *r == round) {
                if send {
                    outbox.broadcast(100 * ctx.vertex as u64 + round as u64);
                }
                self.last = status;
            }
            self.last
        }
    }

    impl NodeProgram for TimedNode {
        type Msg = u64;
        type Output = Vec<(usize, Vec<(usize, u64)>)>;

        fn init(&mut self, ctx: &NodeCtx, outbox: &mut Outbox<u64>) -> Status {
            self.act(ctx, 0, outbox)
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<u64>,
        ) -> Status {
            if !inbox.is_empty() {
                self.read.push((inbox.round(), inbox.iter().map(|(p, &m)| (p, m)).collect()));
            }
            self.act(ctx, inbox.round(), outbox)
        }

        fn output(&self, _ctx: &NodeCtx) -> Self::Output {
            self.read.clone()
        }
    }

    impl Algorithm for Timed {
        type Node = TimedNode;

        fn node(&self, ctx: &NodeCtx) -> TimedNode {
            TimedNode { script: self.0[ctx.vertex].clone(), last: Status::Active, read: Vec::new() }
        }
    }

    /// A 10-vertex star whose center broadcasts in `init` and rounds 1–6 (so every leaf gets
    /// mail in rounds 1–7) and halts in round 6, while the leaves sleep and wait to halt
    /// with mail arriving before, in and after the rounds they name.
    fn sleepers_and_halters() -> (Graph, Timed) {
        use Status::{Active, HaltAt, Halted, SleepUntil, WakeAt};
        let mut center: Vec<(usize, Status, bool)> =
            (0..6).map(|r| (r, WakeAt(r + 1), true)).collect();
        center.push((6, Halted, true));
        let script = Timed(vec![
            center,
            // Sleeps through rounds 1–2, reads rounds 3–5.
            vec![(0, SleepUntil(3), false), (3, Active, true), (5, Halted, false)],
            // Never stepped: its mail is dropped before, in and after round 4.
            vec![(0, HaltAt(4), false)],
            // Reads round 1, sleeps through 2–4, reads round 5, then waits to halt in 7.
            vec![(0, Active, false), (1, SleepUntil(5), true), (5, HaltAt(7), false)],
            vec![(0, WakeAt(2), false), (2, SleepUntil(6), false), (6, Halted, true)],
            // Halts as round 1 opens, without a step.
            vec![(0, HaltAt(1), false)],
            // Sleeping until the next round is waking in it.
            vec![(0, SleepUntil(1), false), (1, HaltAt(2), true)],
            // Outlives the center: the run lasts until round 9 for it.
            vec![(0, Active, false), (1, SleepUntil(2), false), (2, HaltAt(9), false)],
            vec![(0, Halted, true)],
            vec![(0, SleepUntil(2), true), (2, Halted, true)],
        ]);
        (generators::star(10).unwrap(), script)
    }

    /// The per-round columns both executors share: all but `frontier` and `wall_ns`.
    fn shared(rounds: &[RoundInstant]) -> Vec<RoundInstant> {
        rounds.iter().map(|r| RoundInstant { frontier: 0, wall_ns: 0, ..*r }).collect()
    }

    #[test]
    fn sleeping_and_halting_vertices_match_the_reference_at_every_configuration() {
        let (g, script) = sleepers_and_halters();
        let (oracle, oracle_rounds) =
            obs::recorded(|| ReferenceExecutor::new(&g).run(&script).unwrap());
        assert_eq!(oracle.report.rounds, 9, "the last vertex waits to halt in round 9");
        let column = |rounds: &[RoundInstant], f: fn(&RoundInstant) -> usize| -> Vec<usize> {
            rounds.iter().map(f).collect()
        };
        assert_eq!(column(&oracle_rounds, |r| r.active), vec![9, 8, 6, 6, 5, 4, 2, 1, 1]);
        assert_eq!(column(&oracle_rounds, |r| r.halts), vec![1, 2, 0, 1, 1, 2, 1, 0, 1]);
        let reads = |v: usize| oracle.outputs[v].iter().map(|(r, _)| *r).collect::<Vec<_>>();
        assert_eq!(reads(1), vec![3, 4, 5], "vertex 1 reads from round 3 on");
        assert!(reads(2).is_empty() && reads(5).is_empty(), "halters read nothing");
        assert_eq!(reads(3), vec![1, 5]);
        assert_eq!(reads(4), vec![1, 2, 6]);
        for threads in [1, 2, 4] {
            for chunk in [1, 7, 1024] {
                let executor = Executor::new(&g).with_threads(threads).with_chunk_size(chunk);
                let (result, rounds) = obs::recorded(|| executor.run(&script).unwrap());
                let at = format!("threads {threads}, chunk {chunk}");
                assert_eq!(result.outputs, oracle.outputs, "{at}");
                assert_eq!(result.report, oracle.report, "{at}");
                assert_eq!(shared(&rounds), shared(&oracle_rounds), "{at}");
                // A sleeper or a vertex waiting to halt is never stepped on mail.
                assert_eq!(frontiers(&rounds), vec![5, 4, 2, 2, 3, 2, 0, 0, 0], "{at}");
                for limit in [1, 3, 8] {
                    let stopped = executor.clone().with_max_rounds(limit).run(&script);
                    let oracle = ReferenceExecutor::new(&g).with_max_rounds(limit).run(&script);
                    assert_eq!(stopped.unwrap_err(), oracle.unwrap_err(), "{at}, limit {limit}");
                }
            }
        }
        let stopped = ReferenceExecutor::new(&g).with_max_rounds(8).run(&script).unwrap_err();
        assert_eq!(
            stopped,
            RuntimeError::RoundLimitExceeded { limit: 8, still_active: 1 },
            "a vertex waiting to halt is still active"
        );
    }

    #[test]
    fn both_executors_reject_a_sleep_or_halt_that_names_the_current_round() {
        let g = generators::path(2).unwrap();
        for late in [Status::SleepUntil(1), Status::HaltAt(1), Status::SleepUntil(0)] {
            // Vertex 0 names round 1 from round 1, or round 0 from `init`.
            let script = match late {
                Status::SleepUntil(0) => Scripted(vec![vec![(late, false)]; 2]),
                _ => Scripted(vec![
                    vec![(Status::WakeAt(1), false), (late, false)],
                    vec![(Status::Halted, false)],
                ]),
            };
            for reference in [false, true] {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if reference {
                        let _ = ReferenceExecutor::new(&g).run(&script);
                    } else {
                        let _ = Executor::new(&g).run(&script);
                    }
                }));
                let message = panic_message(run.expect_err("a late alarm must panic"));
                assert!(
                    message.contains("an alarm must name a later round"),
                    "{late:?} (reference: {reference}): {message}"
                );
            }
        }
    }

    /// The message of a caught panic.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Broadcasts twice in `init`.
    struct BroadcastTwice;

    impl NodeProgram for BroadcastTwice {
        type Msg = ();
        type Output = ();

        fn init(&mut self, _ctx: &NodeCtx, outbox: &mut Outbox<()>) -> Status {
            outbox.broadcast(());
            outbox.broadcast(());
            Status::Halted
        }

        fn round(&mut self, _: &NodeCtx, _: &Inbox<'_, ()>, _: &mut Outbox<()>) -> Status {
            Status::Halted
        }

        fn output(&self, _ctx: &NodeCtx) {}
    }

    impl Algorithm for BroadcastTwice {
        type Node = BroadcastTwice;

        fn node(&self, _ctx: &NodeCtx) -> BroadcastTwice {
            BroadcastTwice
        }
    }

    #[test]
    fn both_executors_reject_a_second_broadcast_in_one_step() {
        let g = generators::path(3).unwrap();
        // `None` runs the reference executor, `Some(threads)` the work-stealing one, in
        // chunks of one vertex so that two threads get two workers.
        for threads in [None, Some(1), Some(2)] {
            let run = std::panic::catch_unwind(|| match threads {
                None => ReferenceExecutor::new(&g).run(&BroadcastTwice).is_ok(),
                Some(t) => Executor::new(&g)
                    .with_threads(t)
                    .with_chunk_size(1)
                    .run(&BroadcastTwice)
                    .is_ok(),
            });
            let message = panic_message(run.expect_err("a second broadcast must panic"));
            // Under two workers the panic surfaces as the pool's report of a failed job.
            if threads != Some(2) {
                assert!(message.contains("a step broadcasts at most once"), "{message}");
            }
        }
    }

    #[test]
    fn a_broadcast_on_an_isolated_vertex_counts_no_message() {
        // Vertex 2 has no neighbors and broadcasts; vertices 0 and 1 stay silent.
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let script = Scripted(vec![
            vec![(Status::Halted, false)],
            vec![(Status::Halted, false)],
            vec![(Status::Halted, true)],
        ]);
        for threads in [1, 2] {
            let run = Executor::new(&g).with_threads(threads).with_chunk_size(1).run(&script);
            assert_eq!(run.unwrap().report, RoundReport::zero(), "threads {threads}");
        }
        assert_eq!(ReferenceExecutor::new(&g).run(&script).unwrap().report, RoundReport::zero());
    }

    #[test]
    fn a_recorded_run_splits_its_wall_time_into_deliver_step_and_commit() {
        let g = generators::cycle(64).unwrap().with_shuffled_ids(5);
        let collector = obs::SpanCollector::new();
        let guard = obs::install(&collector);
        let result = Executor::new(&g).run(&FloodMaxId { rounds: 8 }).unwrap();
        drop(guard);
        assert_eq!(result.report.rounds, 8);
        let spans = collector.snapshot();
        let run = spans.iter().find(|s| s.kind == obs::SpanKind::Exec).expect("an exec span");
        let b = run.buckets;
        assert!(b.deliver_ns > 0 && b.step_ns > 0 && b.commit_ns > 0, "{b:?}");
        assert!(b.deliver_ns + b.step_ns + b.commit_ns <= run.wall_ns, "{b:?} vs {}", run.wall_ns);
        // Each round's wall time is its three laps, so the rounds never sum past the buckets.
        assert_eq!(run.rounds.len(), 8);
        let rounds_ns: u64 = run.rounds.iter().map(|r| r.wall_ns).sum();
        assert!(rounds_ns <= b.deliver_ns + b.step_ns + b.commit_ns, "{rounds_ns} vs {b:?}");
    }

    #[test]
    fn pool_map_returns_results_in_item_order() {
        for threads in [1usize, 2, 4, 7] {
            let pool = WorkPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let squares = pool.map((0..40usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(squares, (0..40usize).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_scope_reuses_workers_across_batches() {
        let pool = WorkPool::new(3);
        let data: Vec<usize> = (0..10).collect();
        let total = pool.scope(|scope| {
            let doubled = scope.map(data.clone(), |_, x| 2 * x);
            let tripled = scope.map(doubled, |_, x| x + data[0]);
            tripled.into_iter().sum::<usize>()
        });
        assert_eq!(total, (0..10).map(|x| 2 * x).sum::<usize>());
    }

    #[test]
    fn pool_map_on_empty_input_is_empty() {
        let pool = WorkPool::new(4);
        let out: Vec<usize> = pool.map(Vec::<usize>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(WorkPool::new(0).threads(), 1);
        assert_eq!(ExecutorKind::sharded(0).threads(), 1);
    }

    #[test]
    fn a_one_thread_pool_runs_jobs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let pool = WorkPool::new(1);
        let ran_on = pool.scope(|scope| {
            assert!(scope.workers.is_empty(), "a one-thread pool spawns no worker");
            scope.map(vec![(); 3], |_, ()| std::thread::current().id())
        });
        assert_eq!(ran_on, vec![caller; 3]);
        assert_eq!(pool.map(vec![(); 2], |_, ()| std::thread::current().id()), vec![caller; 2]);
    }

    #[test]
    fn work_stealing_matches_sequential_on_a_cycle() {
        let g = generators::cycle(30).unwrap().with_shuffled_ids(7);
        let oracle = ReferenceExecutor::new(&g).run(&ProposeMaxId).unwrap();
        for chunk_size in [1usize, 4, 64] {
            for threads in [1usize, 2, 4] {
                let stolen = Executor::new(&g)
                    .with_threads(threads)
                    .with_chunk_size(chunk_size)
                    .run(&ProposeMaxId)
                    .unwrap();
                assert_eq!(stolen.outputs, oracle.outputs);
                assert_eq!(stolen.report, oracle.report);
            }
        }
    }

    #[test]
    fn work_stealing_round_limit_matches_sequential() {
        let g = generators::path(9).unwrap();
        let oracle = ReferenceExecutor::new(&g)
            .with_max_rounds(3)
            .run(&FloodMaxId { rounds: 100 })
            .unwrap_err();
        let stolen = Executor::new(&g)
            .with_threads(2)
            .with_chunk_size(2)
            .with_max_rounds(3)
            .run(&FloodMaxId { rounds: 100 })
            .unwrap_err();
        assert_eq!(stolen, oracle);
    }

    #[test]
    fn work_stealing_handles_isolated_vertices_and_empty_graphs() {
        for n in [0usize, 5] {
            let g = Graph::empty(n);
            let result =
                Executor::new(&g).with_threads(2).with_chunk_size(2).run(&ProposeMaxId).unwrap();
            assert_eq!(result.report, RoundReport::zero());
            assert_eq!(result.outputs.len(), n);
        }
    }

    #[test]
    fn default_executor_round_trips() {
        let kind = ExecutorKind::Sharded { threads: 3, chunk_size: 5 };
        let config = RunConfig { executor: kind, ..RunConfig::default() }.install();
        assert_eq!(default_executor(), kind);
        drop(config);
        assert_eq!(default_executor(), ExecutorKind::sharded(1));
    }

    #[test]
    fn executor_kind_dispatch_agrees_across_kinds() {
        let g = generators::grid(5, 6).unwrap().with_shuffled_ids(3);
        let run = |executor| {
            RunConfig { executor, ..RunConfig::default() }.run(&g, &FloodMaxId { rounds: 4 })
        };
        let oracle = run(ExecutorKind::Reference).unwrap();
        for kind in [ExecutorKind::sharded(1), ExecutorKind::Sharded { threads: 2, chunk_size: 5 }]
        {
            let stolen = run(kind).unwrap();
            assert_eq!(oracle.outputs, stolen.outputs, "{kind:?}");
            assert_eq!(oracle.report, stolen.report, "{kind:?}");
        }
    }
}
