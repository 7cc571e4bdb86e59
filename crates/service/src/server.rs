//! The coloring service: a protocol-agnostic state machine and the TCP daemon around it.
//!
//! [`ColoringService`] owns a [`DynamicColoring`] plus an epoch counter and a bounded
//! history of per-epoch undo lists; [`ColoringService::handle`] maps every
//! [`Request`] to a [`Response`] with no I/O at all, which is what the unit and
//! integration tests drive.  [`ServiceServer`] wraps that state machine in a `std::net`
//! TCP accept loop — one thread per connection, a shared `Mutex` around the state with a
//! per-request acquisition deadline (expired deadlines become typed
//! [`ServiceError::Timeout`] replies instead of stalled sockets), and a cooperative
//! shutdown path that unblocks the accept loop with a self-connection.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use arbcolor::dynamic::{DynamicColoring, RepairStrategy};
use arbcolor::CoreError;
use arbcolor_graph::{Color, Graph, GraphError, Vertex};
use arbcolor_runtime::obs;

use crate::protocol::{read_frame, write_frame, Request, Response, ServiceError, ServiceStats};

/// Tunables of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// How long a request may wait for the service state before it is answered with
    /// [`ServiceError::Timeout`].
    pub request_timeout: Duration,
    /// How long a connection may sit idle between frames before it is closed.
    pub idle_timeout: Duration,
    /// How many epoch snapshots [`Request::Snapshot`] can reach back through.
    pub snapshot_history: usize,
    /// Whether deletion batches trigger automatic palette compaction (see
    /// [`DynamicColoring::with_auto_compact`]).
    pub auto_compact: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            request_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            snapshot_history: 8,
            auto_compact: false,
        }
    }
}

/// The protocol-agnostic service state machine.
///
/// Owns the dynamic coloring, stamps every successful mutation with a fresh epoch, and
/// keeps the last [`ServiceConfig::snapshot_history`] colorings reachable so clients can
/// read consistent snapshots slightly behind the write head.
///
/// Epochs are not copied.  The service keeps the head coloring plus, per retained epoch,
/// an undo list of `(vertex, previous color)` for the vertices that epoch recolored — the
/// repaired vertices of a local repair, or an O(n) diff after a full re-coloring or a
/// compaction, which cost O(n) anyway.  [`Request::Snapshot`] rebuilds an older epoch by
/// undoing the newer lists onto a copy of the head, so a read costs O(n) (the copy it
/// returns) and a write costs only its own changes.  All I/O lives in [`ServiceServer`];
/// this type is driven directly in tests and benchmarks.
#[derive(Debug)]
pub struct ColoringService {
    dynamic: DynamicColoring,
    config: ServiceConfig,
    epoch: u64,
    /// The coloring at `epoch`.
    head: Vec<Color>,
    /// `(e, list)` for each retained epoch `e` after the oldest, ascending: `list` holds
    /// the color at epoch `e - 1` of every vertex epoch `e` changed.
    undo: VecDeque<(u64, Vec<(Vertex, Color)>)>,
    shutdown_requested: bool,
    batches: u64,
    new_edges: u64,
    removed_edges: u64,
    repaired: u64,
    compactions: u64,
    queries: u64,
}

impl ColoringService {
    /// Starts a service over `graph`, computing the initial coloring (epoch 0).
    ///
    /// # Errors
    ///
    /// Propagates any failure of the initial coloring pass.
    pub fn new(graph: Graph, config: ServiceConfig) -> Result<Self, CoreError> {
        let dynamic = DynamicColoring::new(graph)?.with_auto_compact(config.auto_compact);
        Ok(ColoringService {
            head: dynamic.coloring().colors().to_vec(),
            dynamic,
            config,
            epoch: 0,
            undo: VecDeque::new(),
            shutdown_requested: false,
            batches: 0,
            new_edges: 0,
            removed_edges: 0,
            repaired: 0,
            compactions: 0,
            queries: 0,
        })
    }

    /// Starts a service over an edgeless graph on `n` vertices.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction and initial-coloring failures.
    pub fn empty(n: usize, config: ServiceConfig) -> Result<Self, CoreError> {
        let graph = Graph::from_edges(n, Vec::new())?;
        ColoringService::new(graph, config)
    }

    /// The epoch of the most recent successful mutation (0 right after construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a [`Request::Shutdown`] has been absorbed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Read access to the maintained dynamic coloring.
    pub fn dynamic(&self) -> &DynamicColoring {
        &self.dynamic
    }

    /// The oldest epoch [`Request::Snapshot`] can still reach.
    fn oldest_epoch(&self) -> u64 {
        self.epoch - self.undo.len() as u64
    }

    /// Stamps a new epoch after a successful mutation.  `changed` names every vertex the
    /// mutation may have recolored, or is `None` when any vertex may have changed.
    fn advance_epoch(&mut self, changed: Option<&[Vertex]>) {
        let colors = self.dynamic.coloring().colors();
        let mut undo = Vec::new();
        let mut sync = |v: Vertex| {
            if self.head[v] != colors[v] {
                undo.push((v, self.head[v]));
                self.head[v] = colors[v];
            }
        };
        match changed {
            Some(vertices) => vertices.iter().copied().for_each(&mut sync),
            None => (0..colors.len()).for_each(&mut sync),
        }
        self.epoch += 1;
        self.undo.push_back((self.epoch, undo));
        while self.undo.len() >= self.config.snapshot_history.max(1) {
            self.undo.pop_front();
        }
    }

    /// The coloring at a retained `epoch`: the head with every newer undo list applied,
    /// newest first.
    fn coloring_at(&self, epoch: u64) -> Vec<Color> {
        let mut colors = self.head.clone();
        for (_, undo) in self.undo.iter().rev().take_while(|(e, _)| *e > epoch) {
            for &(v, previous) in undo.iter().rev() {
                colors[v] = previous;
            }
        }
        colors
    }

    /// Handles one request, mutating the state as needed.  Never panics on bad input —
    /// every failure mode is a typed [`Response::Error`].
    pub fn handle(&mut self, request: Request) -> Response {
        obs::incr_counter("service.requests", 1);
        let response = self.dispatch(request);
        if matches!(response, Response::Error(_)) {
            obs::incr_counter("service.errors", 1);
        }
        response
    }

    fn dispatch(&mut self, request: Request) -> Response {
        match request {
            Request::Apply(updates) => match self.dynamic.apply(&updates) {
                Ok(outcome) => {
                    self.batches += 1;
                    self.new_edges += outcome.new_edges as u64;
                    self.removed_edges += outcome.removed_edges as u64;
                    self.repaired += outcome.repaired.len() as u64;
                    if outcome.compaction.is_some() {
                        self.compactions += 1;
                    }
                    let local = outcome.strategy != RepairStrategy::FullRecolor
                        && outcome.compaction.is_none();
                    self.advance_epoch(local.then_some(&outcome.repaired[..]));
                    Response::Applied {
                        epoch: self.epoch,
                        submitted_edges: outcome.submitted_edges as u64,
                        new_edges: outcome.new_edges as u64,
                        removed_edges: outcome.removed_edges as u64,
                        frontier: outcome.frontier as u64,
                        repaired: outcome.repaired.len() as u64,
                        strategy: outcome.strategy,
                        compacted: outcome.compaction.map(|delta| {
                            (
                                delta.colors_before as u64,
                                delta.colors_after as u64,
                                delta.recolored as u64,
                            )
                        }),
                    }
                }
                Err(err) => Response::Error(core_error_to_service(&err)),
            },
            Request::QueryColors(vertices) => {
                let n = self.dynamic.adjacency().n();
                let mut colors = Vec::with_capacity(vertices.len());
                for v in vertices {
                    if v >= n {
                        return Response::Error(ServiceError::VertexOutOfRange {
                            vertex: v as u64,
                            n: n as u64,
                        });
                    }
                    colors.push(self.dynamic.coloring().colors()[v]);
                }
                self.queries += colors.len() as u64;
                Response::Colors(colors)
            }
            Request::Snapshot(epoch) => {
                let requested = epoch.unwrap_or(self.epoch);
                let oldest = self.oldest_epoch();
                if (oldest..=self.epoch).contains(&requested) {
                    Response::Snapshot { epoch: requested, colors: self.coloring_at(requested) }
                } else {
                    Response::Error(ServiceError::EpochUnavailable {
                        requested,
                        oldest,
                        newest: self.epoch,
                    })
                }
            }
            Request::Stats => Response::Stats(ServiceStats {
                n: self.dynamic.adjacency().n() as u64,
                m: self.dynamic.adjacency().m() as u64,
                epoch: self.epoch,
                colors: self.dynamic.distinct_colors() as u64,
                max_degree: self.dynamic.adjacency().max_degree() as u64,
                batches: self.batches,
                new_edges: self.new_edges,
                removed_edges: self.removed_edges,
                repaired: self.repaired,
                compactions: self.compactions,
                queries: self.queries,
            }),
            Request::Compact => {
                let delta = self.dynamic.compact();
                self.compactions += 1;
                self.advance_epoch(None);
                Response::Compacted {
                    epoch: self.epoch,
                    colors_before: delta.colors_before as u64,
                    colors_after: delta.colors_after as u64,
                    recolored: delta.recolored as u64,
                }
            }
            Request::Verify => {
                // A full pass over every edge: this is the independent check.
                let colors = self.dynamic.coloring().colors();
                let conflicts = self
                    .dynamic
                    .adjacency()
                    .edges()
                    .filter(|&(u, v)| colors[u] == colors[v])
                    .count() as u64;
                Response::Verified { legal: conflicts == 0, conflicts }
            }
            Request::Shutdown => {
                self.shutdown_requested = true;
                Response::ShuttingDown
            }
        }
    }
}

fn core_error_to_service(err: &CoreError) -> ServiceError {
    match err {
        CoreError::Graph(GraphError::VertexOutOfRange { vertex, n }) => {
            ServiceError::VertexOutOfRange { vertex: *vertex as u64, n: *n as u64 }
        }
        CoreError::Graph(GraphError::SelfLoop { vertex }) => {
            ServiceError::SelfLoop { vertex: *vertex as u64 }
        }
        other => ServiceError::Internal { reason: other.to_string() },
    }
}

/// The TCP daemon: an accept loop serving a shared [`ColoringService`].
///
/// One OS thread per connection; all connections funnel through a single `Mutex` around
/// the state machine, so the update stream the service absorbs is totally ordered (which
/// is what makes replayed workloads bit-identical).  A request that cannot take the lock
/// within [`ServiceConfig::request_timeout`] gets a typed timeout reply instead of
/// blocking its connection forever.
#[derive(Debug)]
pub struct ServiceServer {
    listener: TcpListener,
    state: Arc<Mutex<ColoringService>>,
    config: ServiceConfig,
    shutdown: Arc<AtomicBool>,
}

impl ServiceServer {
    /// Binds a listener (use port 0 for an ephemeral port) around `service`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: ColoringService) -> io::Result<Self> {
        let config = service.config;
        Ok(ServiceServer {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(Mutex::new(service)),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a client sends
    /// [`Request::Shutdown`]; joins every connection thread before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (a shutdown-triggered close is not a failure).
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(err) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(err);
                }
            };
            let state = Arc::clone(&self.state);
            let config = self.config;
            let shutdown = Arc::clone(&self.shutdown);
            workers.push(thread::spawn(move || {
                serve_connection(stream, &state, &config, &shutdown, addr);
            }));
            // Reap finished workers so a long-lived daemon does not accumulate handles.
            let mut live = Vec::with_capacity(workers.len());
            for worker in workers.drain(..) {
                if worker.is_finished() {
                    let _ = worker.join();
                } else {
                    live.push(worker);
                }
            }
            workers = live;
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a handle exposing the bound
    /// address and a join point — the shape in-process tests and examples want.
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Join handle for a server running on a background thread (see [`ServiceServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the background server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (i.e. for a client to send [`Request::Shutdown`]).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O result; a panicked server thread surfaces as
    /// [`io::ErrorKind::Other`].
    pub fn join(self) -> io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Answers one decoded request against the shared state.  [`Request::Shutdown`] is
/// answered without touching the state, so even a daemon whose state is poisoned can be
/// stopped.
fn respond(state: &Mutex<ColoringService>, request: Request, timeout: Duration) -> Response {
    if matches!(request, Request::Shutdown) {
        return Response::ShuttingDown;
    }
    match lock_with_deadline(state, timeout) {
        Ok(mut service) => service.handle(request),
        Err(err) => Response::Error(err),
    }
}

/// Locks `state` with a deadline.  Fails with [`ServiceError::Timeout`] when the deadline
/// expires, and with [`ServiceError::Internal`] when a request panicked while holding the
/// lock: its batch may be half-applied, so that state is never served.
fn lock_with_deadline(
    state: &Mutex<ColoringService>,
    timeout: Duration,
) -> Result<std::sync::MutexGuard<'_, ColoringService>, ServiceError> {
    let deadline = Instant::now() + timeout;
    loop {
        match state.try_lock() {
            Ok(guard) => return Ok(guard),
            Err(std::sync::TryLockError::Poisoned(_)) => {
                return Err(ServiceError::Internal {
                    reason: "a request panicked while holding the service state".to_string(),
                })
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    return Err(ServiceError::Timeout { millis: timeout.as_millis() as u64 });
                }
                thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// A reader that replays one already-consumed byte before the underlying stream — lets
/// the connection loop poll for a frame's first byte in short slices (so it can observe
/// the shutdown flag) and still hand `read_frame` a stream positioned at the frame start.
struct Prefixed<'a> {
    first: Option<u8>,
    inner: &'a mut TcpStream,
}

impl Read for Prefixed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(byte) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(byte);
                return Ok(0);
            }
            buf[0] = byte;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

/// Polls for the first byte of the next frame in `slice`-sized steps, so a parked
/// connection notices `shutdown` within one slice instead of one idle timeout.
/// `Ok(None)` = the connection should close (clean EOF, idle timeout, shutdown, or a
/// transport error); `Ok(Some(b))` = frame started.
fn await_frame_start(
    stream: &mut TcpStream,
    config: &ServiceConfig,
    shutdown: &AtomicBool,
) -> Option<u8> {
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + config.idle_timeout;
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => return Some(byte[0]),
            Err(err)
                if matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                // The socket's read timeout is the poll slice; between slices we only
                // check the shutdown flag and the connection's idle deadline.
                if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    state: &Mutex<ColoringService>,
    config: &ServiceConfig,
    shutdown: &AtomicBool,
    listener_addr: SocketAddr,
) {
    let slice = Duration::from_millis(100).min(config.idle_timeout.max(Duration::from_millis(1)));
    let _ = stream.set_nodelay(true);
    loop {
        // Phase 1: wait for the next frame to start, polling in short slices.
        let _ = stream.set_read_timeout(Some(slice));
        let Some(first) = await_frame_start(&mut stream, config, shutdown) else {
            break;
        };
        // Phase 2: the frame has started — read the rest of it under the idle timeout.
        let _ = stream.set_read_timeout(Some(config.idle_timeout));
        let mut reader = Prefixed { first: Some(first), inner: &mut stream };
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean close at a frame boundary
            Err(err) => {
                // Surface a typed reply when we still can (an oversized length prefix,
                // say), then drop the connection: the stream is no longer frame-aligned.
                if let Some(service_err) =
                    err.get_ref().and_then(|inner| inner.downcast_ref::<ServiceError>())
                {
                    let reply = Response::Error(service_err.clone());
                    let _ = write_frame(&mut stream, &reply.encode());
                }
                break;
            }
        };
        let reply = match Request::decode(&payload) {
            // A malformed payload inside a well-framed message is recoverable: reply
            // with the typed error and keep the connection open.
            Err(err) => Response::Error(err),
            Ok(request) => respond(state, request, config.request_timeout),
        };
        let shutting_down = matches!(reply, Response::ShuttingDown);
        if write_frame(&mut stream, &reply.encode()).is_err() {
            break;
        }
        if shutting_down {
            shutdown.store(true, Ordering::SeqCst);
            // The accept loop is parked in `accept`; poke it awake so it can observe the
            // flag and exit.  The connect target is our own listener, so this cannot
            // escape the process.
            let _ = TcpStream::connect_timeout(&listener_addr, Duration::from_secs(1));
            break;
        }
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbcolor::dynamic::GraphUpdate;

    fn service(n: usize) -> ColoringService {
        ColoringService::empty(n, ServiceConfig::default()).expect("empty service")
    }

    #[test]
    fn mutations_advance_epochs_and_snapshots_reach_back() {
        let mut svc = service(6);
        assert_eq!(svc.epoch(), 0);
        let reply =
            svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 1), (1, 2)])]));
        match reply {
            Response::Applied { epoch, new_edges, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(new_edges, 2);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(2, 3)])]));
        // The epoch-0 snapshot (all zeros on an edgeless graph) is still retained.
        match svc.handle(Request::Snapshot(Some(0))) {
            Response::Snapshot { epoch, colors } => {
                assert_eq!(epoch, 0);
                assert_eq!(colors, vec![0; 6]);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
        match svc.handle(Request::Snapshot(None)) {
            Response::Snapshot { epoch, colors } => {
                assert_eq!(epoch, 2);
                assert_eq!(colors.len(), 6);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn evicted_epochs_report_the_retained_range() {
        let config = ServiceConfig { snapshot_history: 2, ..ServiceConfig::default() };
        let mut svc = ColoringService::empty(4, config).unwrap();
        for edge in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![edge])]));
        }
        match svc.handle(Request::Snapshot(Some(0))) {
            Response::Error(ServiceError::EpochUnavailable { requested, oldest, newest }) => {
                assert_eq!(requested, 0);
                assert_eq!(newest, 4);
                assert!(oldest > 0 && oldest <= newest);
            }
            other => panic!("expected EpochUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn undo_logs_rebuild_every_retained_epoch_exactly() {
        let history = 4;
        let config =
            ServiceConfig { snapshot_history: history, auto_compact: true, ..Default::default() };
        let mut svc = ColoringService::empty(16, config).unwrap();
        // copies[e] is a full copy of the coloring taken at epoch e.
        let mut copies = vec![svc.dynamic().coloring().colors().to_vec()];
        let mut seen = Vec::new();
        let same_colored_pair = |svc: &ColoringService| {
            let colors = svc.dynamic().coloring().colors();
            (0..16)
                .flat_map(|u| (u + 1..16).map(move |v| (u, v)))
                .find(|&(u, v)| colors[u] == colors[v] && !svc.dynamic().adjacency().has_edge(u, v))
                .expect("a same-colored non-adjacent pair")
        };
        let clique: Vec<(Vertex, Vertex)> =
            (10..16).flat_map(|u| (u + 1..16).map(move |v| (u, v))).collect();
        for step in 0..12 {
            let request = match step {
                // Ten frontier vertices on an edgeless graph trip the n/4 threshold.
                0 => Request::Apply(vec![GraphUpdate::InsertEdges(
                    (0..5).map(|i| (2 * i, 2 * i + 1)).collect(),
                )]),
                3 => Request::Apply(vec![GraphUpdate::InsertEdges(clique.clone())]),
                // Deleting the clique leaves its colors above the new maximum degree.
                4 => Request::Apply(vec![GraphUpdate::RemoveEdges(clique.clone())]),
                7 => Request::Compact,
                _ => Request::Apply(vec![GraphUpdate::InsertEdges(vec![same_colored_pair(&svc)])]),
            };
            match svc.handle(request) {
                Response::Applied { strategy, compacted, .. } => {
                    seen.push((Some(strategy), compacted.is_some()))
                }
                Response::Compacted { .. } => seen.push((None, true)),
                other => panic!("step {step}: unexpected reply {other:?}"),
            }
            copies.push(svc.dynamic().coloring().colors().to_vec());
            let newest = svc.epoch();
            assert_eq!(newest as usize + 1, copies.len());
            let oldest = (newest + 1).saturating_sub(history as u64);
            for (epoch, copy) in copies.iter().enumerate() {
                let epoch = epoch as u64;
                match svc.handle(Request::Snapshot(Some(epoch))) {
                    Response::Snapshot { epoch: got, colors } if epoch >= oldest => {
                        assert_eq!((got, &colors), (epoch, copy), "epoch {epoch} at step {step}");
                    }
                    Response::Error(ServiceError::EpochUnavailable {
                        requested,
                        oldest: o,
                        newest: n,
                    }) if epoch < oldest => {
                        assert_eq!((requested, o, n), (epoch, oldest, newest));
                    }
                    other => panic!("epoch {epoch} at step {step}: {other:?}"),
                }
            }
        }
        assert!(seen.contains(&(Some(RepairStrategy::FullRecolor), false)), "{seen:?}");
        assert!(seen.contains(&(Some(RepairStrategy::LocalRepair), false)), "{seen:?}");
        assert!(
            seen.iter().any(|&(strategy, compacted)| strategy.is_some() && compacted),
            "{seen:?}"
        );
        assert!(seen.contains(&(None, true)), "{seen:?}");
    }

    #[test]
    fn bad_edges_and_bad_queries_become_typed_errors() {
        let mut svc = service(4);
        match svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 9)])])) {
            Response::Error(ServiceError::VertexOutOfRange { vertex: 9, n: 4 }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        match svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(2, 2)])])) {
            Response::Error(ServiceError::SelfLoop { vertex: 2 }) => {}
            other => panic!("expected SelfLoop, got {other:?}"),
        }
        match svc.handle(Request::QueryColors(vec![0, 11])) {
            Response::Error(ServiceError::VertexOutOfRange { vertex: 11, n: 4 }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        // A failed batch leaves the epoch (and therefore the coloring) untouched.
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn a_batch_failing_on_its_last_edge_leaves_the_service_untouched() {
        let mut svc = service(6);
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 1), (1, 2)])]));
        let graph = svc.dynamic().graph().clone();
        let colors = svc.dynamic().coloring().clone();
        for bad in [(3, 60), (4, 4)] {
            let reply = svc.handle(Request::Apply(vec![
                GraphUpdate::InsertEdges(vec![(2, 3), (0, 2)]),
                GraphUpdate::RemoveEdges(vec![(0, 1)]),
                GraphUpdate::InsertEdges(vec![(4, 5), bad]),
            ]));
            assert!(matches!(reply, Response::Error(_)), "{reply:?}");
            assert_eq!(svc.epoch(), 1);
            assert_eq!(svc.dynamic().graph(), &graph);
            assert_eq!(svc.dynamic().adjacency().m(), 2);
            assert_eq!(svc.dynamic().coloring(), &colors);
        }
    }

    #[test]
    fn verify_compact_stats_and_shutdown_round_out_the_protocol() {
        let mut svc = service(8);
        let clique: Vec<(Vertex, Vertex)> =
            (0..6).flat_map(|u| (u + 1..6).map(move |v| (u, v))).collect();
        svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(clique.clone())]));
        match svc.handle(Request::Verify) {
            Response::Verified { legal: true, conflicts: 0 } => {}
            other => panic!("expected a legal verification, got {other:?}"),
        }
        // Delete most of the clique, then compact: colors must not increase.
        let doomed: Vec<(Vertex, Vertex)> =
            clique.iter().copied().filter(|&(u, _)| u >= 1).collect();
        svc.handle(Request::Apply(vec![GraphUpdate::RemoveEdges(doomed)]));
        let (before, after) = match svc.handle(Request::Compact) {
            Response::Compacted { colors_before, colors_after, .. } => {
                (colors_before, colors_after)
            }
            other => panic!("expected Compacted, got {other:?}"),
        };
        assert!(after <= before);
        match svc.handle(Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!(stats.n, 8);
                assert_eq!(stats.batches, 2);
                assert_eq!(stats.compactions, 1);
                assert_eq!(stats.colors, after);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        assert!(!svc.shutdown_requested());
        assert!(matches!(svc.handle(Request::Shutdown), Response::ShuttingDown));
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn stats_count_the_colors_of_the_maintained_coloring() {
        let mut svc = service(40);
        let stats_colors = |svc: &mut ColoringService| match svc.handle(Request::Stats) {
            Response::Stats(stats) => stats.colors as usize,
            other => panic!("expected Stats, got {other:?}"),
        };
        // A perfect matching on the one-colored edgeless graph puts all 40 vertices on the
        // frontier, past the threshold of 10, so the batch is repaired by a full recolor.
        let matching: Vec<(Vertex, Vertex)> = (0..20).map(|i| (2 * i, 2 * i + 1)).collect();
        let reply = svc.handle(Request::Apply(vec![GraphUpdate::InsertEdges(matching)]));
        assert!(
            matches!(reply, Response::Applied { strategy: RepairStrategy::FullRecolor, .. }),
            "{reply:?}"
        );
        assert_eq!(stats_colors(&mut svc), svc.dynamic().coloring().distinct_colors());
        // Mixed batches, repaired locally: a triangle, then a removal with an insertion.
        for batch in [
            vec![GraphUpdate::InsertEdges(vec![(1, 2), (0, 2)])],
            vec![
                GraphUpdate::RemoveEdges(vec![(4, 5), (0, 1)]),
                GraphUpdate::InsertEdges(vec![(3, 4), (2, 5), (1, 3)]),
            ],
        ] {
            let reply = svc.handle(Request::Apply(batch));
            assert!(matches!(reply, Response::Applied { .. }), "{reply:?}");
            assert_eq!(stats_colors(&mut svc), svc.dynamic().coloring().distinct_colors());
        }
        let reply = svc.handle(Request::Compact);
        assert!(matches!(reply, Response::Compacted { .. }), "{reply:?}");
        assert_eq!(stats_colors(&mut svc), svc.dynamic().coloring().distinct_colors());
    }

    #[test]
    fn a_poisoned_state_is_never_served_but_the_daemon_still_stops() {
        let state = Mutex::new(service(6));
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = state.lock().unwrap();
                panic!("a request panics while holding the state");
            })
            .join()
        });
        assert!(poisoner.is_err() && state.is_poisoned());
        let timeout = Duration::from_millis(50);
        for request in [Request::Stats, Request::QueryColors(vec![0]), Request::Verify] {
            let reply = respond(&state, request, timeout);
            assert!(matches!(reply, Response::Error(ServiceError::Internal { .. })), "{reply:?}");
        }
        assert!(matches!(respond(&state, Request::Shutdown, timeout), Response::ShuttingDown));
    }
}
