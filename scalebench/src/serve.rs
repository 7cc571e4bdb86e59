//! The serving workloads: a `serviced` daemon over loopback TCP, then an in-process replay
//! of the same request stream through the service's public layers, which both checks the
//! daemon's output and (in a traced run) splits each request's time across the layers.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use arbcolor::dynamic::{GraphUpdate, RepairStrategy};
use arbcolor_graph::{generators, io as graph_io, Graph, Vertex};
use arbcolor_runtime::obs::{self, SpanCollector, SpanKind, SpanRecord};
use arbcolor_service::client::AppliedBatch;
use arbcolor_service::workload::{self, WorkloadConfig, WorkloadOp};
use arbcolor_service::{
    ClientError, ColoringService, Request, Response, ServiceClient, ServiceConfig,
};

use crate::calibrate::{self, Reference};
use crate::report::{fingerprint, Outcome, Samples};
use crate::spans::{children_wall_ns, wall_ms};
use crate::Options;

const N: usize = 200_000;
const M: usize = 800_000;
const BATCH: usize = 8;
const SKEW: f64 = 1.5;
const SETUP_REPEATS: usize = 3;
const READ_RATE: f64 = 200.0;
const WRITE_RATE: f64 = 2.0;
const QUERY_VERTICES: usize = 16;
const SNAPSHOT_SHARE: f64 = 0.01;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Per-request slack allowed when a child layer's time is subtracted from its parent's.
const LAYER_TOLERANCE_MS: f64 = 0.05;

/// Which traffic mix a serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One connection, closed loop, `Apply` batches only.
    Write,
    /// An open-loop reader at 200 req/s and an open-loop writer at 2 batches/s.
    Read,
}

/// A running `serviced` process; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on `dataset` and waits until it listens; returns the set-up time.
    fn spawn(serviced: &Path, dataset: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(serviced)
            .args(["--port", "0", "--dataset"])
            .arg(dataset)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", serviced.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon { child, stdout, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line).map_err(|e| format!("daemon stdout: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("daemon did not start listening (said {line:?})"))?;
        Ok((daemon, setup_s))
    }

    fn connect(&self) -> Result<ServiceClient, String> {
        let mut client = ServiceClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.set_reply_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
        Ok(client)
    }

    /// Sends `Shutdown` and waits for a clean exit that logs "shutdown complete".
    fn shutdown(&mut self) -> Result<(), String> {
        self.connect()?.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("daemon wait: {e}")),
            }
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).map_err(|e| format!("daemon stdout: {e}"))?;
        if !status.success() || !rest.contains("shutdown complete") {
            return Err(format!("daemon exited uncleanly ({status}): {rest:?}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The writer's `Apply` batches: a prefix of one `workload::generate` stream, regenerated
/// at four times the length whenever the measurement outruns it (the generator is
/// sequential, so a longer stream extends the shorter one).
struct WriterStream {
    config: WorkloadConfig,
    batches: Vec<Vec<GraphUpdate>>,
    next: usize,
}

impl WriterStream {
    fn new(seed: u64) -> Self {
        let config = WorkloadConfig {
            n: N,
            ops: 256,
            batch_size: BATCH,
            insert_weight: 3,
            remove_weight: 1,
            query_weight: 0,
            compact_every: 0,
            skew: SKEW,
            seed,
        };
        WriterStream { batches: Self::expand(&config), config, next: 0 }
    }

    fn expand(config: &WorkloadConfig) -> Vec<Vec<GraphUpdate>> {
        workload::generate(config)
            .into_iter()
            .filter_map(|op| match op {
                WorkloadOp::Apply(updates) => Some(updates),
                _ => None,
            })
            .collect()
    }

    fn next_batch(&mut self) -> Vec<GraphUpdate> {
        while self.next >= self.batches.len() {
            self.config.ops *= 4;
            let longer = Self::expand(&self.config);
            assert_eq!(longer[..self.batches.len()], self.batches[..], "stream is not a prefix");
            self.batches = longer;
        }
        self.next += 1;
        self.batches[self.next - 1].clone()
    }
}

/// One request of the stream.
#[derive(Debug, Clone)]
enum Op {
    Write(Vec<GraphUpdate>),
    Query(Vec<Vertex>),
    Snapshot,
}

impl Op {
    fn request(&self) -> Request {
        match self {
            Op::Write(updates) => Request::Apply(updates.clone()),
            Op::Query(vertices) => Request::QueryColors(vertices.clone()),
            Op::Snapshot => Request::Snapshot(None),
        }
    }
}

#[derive(Debug)]
enum Reply {
    Applied(AppliedBatch),
    Colors(usize),
    Snapshot(u64, Vec<u64>),
}

/// One request sent over TCP.
#[derive(Debug)]
struct Sent {
    op: Op,
    /// Seconds from the start of the measurement window to the send and to the reply.
    sent_at: f64,
    done_at: f64,
    /// From the due time (open loop) or the send (closed loop) to the reply.
    latency_ms: f64,
    /// How late the send was against its due time (0 in the closed loop).
    late_ms: f64,
    /// The host-speed reference kernel's time right after the reply (0 when not run).
    kernel_ms: f64,
    reply: Result<Reply, String>,
}

fn call(client: &mut ServiceClient, op: &Op) -> Result<Reply, ClientError> {
    match op {
        Op::Write(updates) => client.apply(updates.clone()).map(Reply::Applied),
        Op::Query(vertices) => {
            client.query_colors(vertices.clone()).map(|colors| Reply::Colors(colors.len()))
        }
        Op::Snapshot => client.snapshot(None).map(|(epoch, colors)| Reply::Snapshot(epoch, colors)),
    }
}

/// Sends requests from `next` on one connection.  With a `rate`, request `i` is due at
/// `i / rate` seconds and is timed from its due time (open loop); without one, each request
/// goes out when the previous reply arrives (closed loop).  With a `reference`, the kernel
/// runs after each reply, outside the request's time.
fn drive(
    client: &mut ServiceClient,
    start: Instant,
    seconds: f64,
    rate: Option<f64>,
    mut reference: Option<&mut Reference>,
    mut next: impl FnMut() -> Op,
) -> Vec<Sent> {
    let mut sent = Vec::new();
    for i in 0.. {
        let due = match rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        if due.duration_since(start).as_secs_f64() >= seconds {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let op = next();
        let send = Instant::now();
        let reply = call(client, &op);
        let done = Instant::now();
        let transport_failed = matches!(reply, Err(ClientError::Io(_)));
        let kernel_ms = reference.as_mut().map_or(0.0, |reference| reference.run());
        sent.push(Sent {
            op,
            sent_at: send.duration_since(start).as_secs_f64(),
            done_at: done.duration_since(start).as_secs_f64(),
            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
            late_ms: send.duration_since(due).as_secs_f64() * 1e3,
            kernel_ms,
            reply: reply.map_err(|e| e.to_string()),
        });
        if transport_failed {
            break;
        }
    }
    sent
}

fn reader_requests(seed: u64) -> impl FnMut() -> Op {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7265_6164);
    move || {
        if rng.gen::<f64>() < SNAPSHOT_SHARE {
            Op::Snapshot
        } else {
            Op::Query(
                (0..QUERY_VERTICES)
                    .map(|_| ((N as f64 * rng.gen::<f64>().powf(SKEW)) as usize).min(N - 1))
                    .collect(),
            )
        }
    }
}

/// What the in-process replay measured for one request, in milliseconds and bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    decode_ms: f64,
    handle_ms: f64,
    encode_ms: f64,
    request_bytes: usize,
    response_bytes: usize,
}

impl Cost {
    fn in_process_ms(&self) -> f64 {
        self.decode_ms + self.handle_ms + self.encode_ms
    }
}

/// The in-process replay of the daemon's request stream.
struct Replay {
    load_s: f64,
    new_s: f64,
    loop_s: f64,
    /// One per replayed request, in replay order.
    costs: Vec<Cost>,
    responses: Vec<Response>,
    /// Coloring fingerprint after each epoch (index = epoch).
    epoch_fingerprints: Vec<u64>,
    final_fingerprint: u64,
    final_colors: usize,
    final_m: usize,
    is_legal_ms: Samples,
    /// Spans of the initial coloring and of the request loop (traced replays only).
    new_spans: Vec<SpanRecord>,
    loop_spans: Vec<SpanRecord>,
}

fn replay(dataset: &Path, requests: &[Request], traced: bool) -> Result<Replay, String> {
    let start = Instant::now();
    let graph = graph_io::read_graph(dataset).map_err(|e| format!("replay load: {e}"))?;
    let load_s = start.elapsed().as_secs_f64();

    let new_collector = SpanCollector::new();
    let start = Instant::now();
    let mut service = {
        let _recording = traced.then(|| obs::install(&new_collector));
        ColoringService::new(graph, ServiceConfig::default())
            .map_err(|e| format!("replay service: {e}"))?
    };
    let new_s = start.elapsed().as_secs_f64();

    let collector = SpanCollector::new();
    let recording = traced.then(|| obs::install(&collector));
    let mut epoch_fingerprints = vec![fingerprint(service.dynamic().coloring().colors())];
    let mut costs = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let mut loop_s = 0.0;
    for request in requests {
        let bytes = request.encode();
        let t0 = Instant::now();
        let decoded = Request::decode(&bytes).map_err(|e| format!("replay decode: {e}"))?;
        let t1 = Instant::now();
        let response = service.handle(decoded);
        let t2 = Instant::now();
        let encoded = response.encode();
        let t3 = Instant::now();
        loop_s += t3.duration_since(t0).as_secs_f64();
        costs.push(Cost {
            decode_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
            handle_ms: t2.duration_since(t1).as_secs_f64() * 1e3,
            encode_ms: t3.duration_since(t2).as_secs_f64() * 1e3,
            request_bytes: bytes.len() + 4,
            response_bytes: encoded.len() + 4,
        });
        if service.epoch() as usize == epoch_fingerprints.len() {
            epoch_fingerprints.push(fingerprint(service.dynamic().coloring().colors()));
        }
        responses.push(response);
    }
    drop(recording);

    let dynamic = service.dynamic();
    let mut is_legal_ms = Samples::default();
    for _ in 0..5 {
        let start = Instant::now();
        let legal = std::hint::black_box(dynamic.coloring().is_legal(dynamic.graph()));
        is_legal_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !legal {
            return Err("replayed coloring is not legal".into());
        }
    }
    Ok(Replay {
        load_s,
        new_s,
        loop_s,
        costs,
        responses,
        epoch_fingerprints,
        final_fingerprint: fingerprint(dynamic.coloring().colors()),
        final_colors: dynamic.coloring().distinct_colors(),
        final_m: dynamic.graph().m(),
        is_legal_ms,
        new_spans: new_collector.snapshot(),
        loop_spans: collector.snapshot(),
    })
}

fn write_dataset(path: &Path, graph: &Graph) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    graph_io::write_edge_list(graph, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one serving workload and fills `outcome`.
pub fn run(mix: Mix, options: &Options, outcome: &mut Outcome) -> Result<(), String> {
    let graph = generators::gnm(N, M, options.seed).map_err(|e| format!("gnm: {e}"))?;
    let dataset = options.out.join(format!("{}-seed{}.edges", options.workload, options.seed));
    write_dataset(&dataset, &graph)?;

    // Set-up: spawn the daemon several times, each between two runs of the reference
    // kernel, and keep the median time to listening at the reference host speed; the last
    // one serves.
    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut calibration = Reference::new();
    let mut setup_kernel_ms = vec![calibration.run()];
    let mut setup = Samples::default();
    let mut daemon = None;
    for round in 0..repeats {
        let (mut spawned, setup_s) = Daemon::spawn(&options.serviced, &dataset)?;
        setup.push(setup_s);
        setup_kernel_ms.push(calibration.run());
        if round + 1 < repeats {
            spawned.shutdown()?;
        } else {
            daemon = Some(spawned);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");

    let stats = daemon.connect()?.stats().map_err(|e| format!("stats: {e}"))?;
    outcome.check(
        "serve.initial_stats_match_graph",
        stats.n == N as u64 && stats.m == graph.m() as u64,
        format!("daemon n={} m={}, generated n={N} m={}", stats.n, stats.m, graph.m()),
    );

    let stream_seed = options.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7772_6974;
    let mut stream = WriterStream::new(stream_seed);
    let first_kernel_ms = calibration.run();
    let start = Instant::now();
    let mut sent: Vec<Sent> = match mix {
        Mix::Write => {
            let mut writer = daemon.connect()?;
            drive(&mut writer, start, options.seconds, None, Some(&mut calibration), || {
                Op::Write(stream.next_batch())
            })
        }
        Mix::Read => {
            let mut writer = daemon.connect()?;
            let mut reader = daemon.connect()?;
            let seconds = options.seconds;
            let seed = options.seed;
            let stream = &mut stream;
            std::thread::scope(|scope| {
                let writes = scope.spawn(move || {
                    drive(&mut writer, start, seconds, Some(WRITE_RATE), None, || {
                        Op::Write(stream.next_batch())
                    })
                });
                let mut reads = drive(
                    &mut reader,
                    start,
                    seconds,
                    Some(READ_RATE),
                    None,
                    reader_requests(seed),
                );
                reads.extend(writes.join().expect("writer thread"));
                reads
            })
        }
    };
    let window_s = sent.iter().map(|s| s.done_at).fold(0.0, f64::max);
    sent.sort_by(|a, b| a.sent_at.total_cmp(&b.sent_at));

    let mut control = daemon.connect()?;
    let (epoch, final_colors) = control.snapshot(None).map_err(|e| format!("snapshot: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    let (legal, conflicts) = control.verify().map_err(|e| format!("verify: {e}"))?;
    drop(control);
    daemon.shutdown()?;
    outcome.attempted += sent.len() as u64 + 4;
    outcome.failed += sent.iter().filter(|s| s.reply.is_err()).count() as u64;
    outcome.check(
        "serve.verify_legal",
        legal && conflicts == 0,
        format!("legal={legal} conflicts={conflicts}"),
    );

    // Replay the requests the daemon answered (in send order; the single writer's order is
    // the daemon's epoch order), then the final snapshot.
    let answered: Vec<&Sent> = sent.iter().filter(|s| s.reply.is_ok()).collect();
    let mut requests: Vec<Request> = answered.iter().map(|s| s.op.request()).collect();
    requests.push(Request::Snapshot(None));
    let untraced = replay(&dataset, &requests, false)?;
    let traced = if options.trace { Some(replay(&dataset, &requests, true)?) } else { None };
    let _ = std::fs::remove_file(&dataset);

    check_against_replay(outcome, &answered, &untraced, epoch, &final_colors);
    let expected_m = answered.iter().fold(graph.m() as i64, |m, s| match &s.reply {
        Ok(Reply::Applied(a)) => m + a.new_edges as i64 - a.removed_edges as i64,
        _ => m,
    });
    outcome.check(
        "serve.final_stats_match_stream",
        stats.n == N as u64
            && stats.m as i64 == expected_m
            && stats.m as usize == untraced.final_m
            && stats.colors as usize == untraced.final_colors,
        format!(
            "daemon n={} m={} colors={}, expected m={expected_m}, replay m={} colors={}",
            stats.n, stats.m, stats.colors, untraced.final_m, untraced.final_colors
        ),
    );

    // End-to-end figures.
    let mut write_ms = Samples::default();
    let mut read_ms = Samples::default();
    for s in &answered {
        match s.op {
            Op::Write(_) => write_ms.push(s.latency_ms),
            _ => read_ms.push(s.latency_ms),
        }
    }
    let mut setup_norm = Samples::default();
    calibrate::normalize(setup.values(), &setup_kernel_ms)
        .into_iter()
        .for_each(|s| setup_norm.push(s));
    let setup_s = setup_norm.median();
    let failed_share = outcome.failed as f64 / outcome.attempted as f64;
    outcome.set("setup_s", setup_s);
    outcome.figure("setup_s", setup_s, "s", &setup_norm);
    outcome.set("setup_raw_s", setup.median());
    outcome.figure("setup_raw_s", setup.median(), "s", &setup);
    outcome.set("failed_share", failed_share);
    outcome.figure("failed_share", failed_share, "share", &Samples::default());
    outcome.set("served_colors", stats.colors as f64);
    outcome.figure("served_colors", stats.colors as f64, "count", &Samples::default());
    let (p50, p90) = (write_ms.median(), write_ms.quantile(0.9));
    outcome.set("write_p50_ms", p50);
    outcome.set("write_p90_ms", p90);
    outcome.figure("write_p50_ms", p50, "ms", &write_ms);
    outcome.figure("write_p90_ms", p90, "ms", &write_ms);
    let mut late_ms = Samples::default();
    match mix {
        Mix::Write => {
            // Over the time spent inside requests: the window also holds the kernel runs.
            let writes_per_s = write_ms.len() as f64 / (write_ms.sum() / 1e3);
            // One writer, so `sent` holds every request in order, each followed by a
            // kernel run.
            let kernel_ms: Vec<f64> =
                std::iter::once(first_kernel_ms).chain(sent.iter().map(|s| s.kernel_ms)).collect();
            let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
            let mut norm_ms = Samples::default();
            for (s, norm) in sent.iter().zip(calibrate::normalize(&latencies, &kernel_ms)) {
                if s.reply.is_ok() {
                    norm_ms.push(norm);
                }
            }
            let mut kernel = Samples::default();
            kernel_ms.iter().for_each(|&ms| kernel.push(ms));
            outcome.describe("loop", "closed, the reference kernel between requests");
            outcome.describe("clients", 1);
            outcome.set("writes_per_s", writes_per_s);
            outcome.figure("writes_per_s", writes_per_s, "1/s", &Samples::default());
            outcome.set("latency_norm_ms", norm_ms.median());
            outcome.figure("latency_norm_ms", norm_ms.median(), "ms", &norm_ms);
            outcome.set("host.reference_ms", kernel.median());
            outcome.figure("host.reference_ms", kernel.median(), "ms", &kernel);
            outcome.set("latency_p50_ms", p50);
        }
        Mix::Read => {
            for s in &sent {
                late_ms.push(s.late_ms);
            }
            let (p50, p99) = (read_ms.median(), read_ms.quantile(0.99));
            // Reads timed from their send: the round trip without the client's own
            // wake-up jitter, which sits right on the due-time median.
            let mut read_rtt_ms = Samples::default();
            for s in answered.iter().filter(|s| !matches!(s.op, Op::Write(_))) {
                read_rtt_ms.push(s.latency_ms - s.late_ms);
            }
            let rtt_p50 = read_rtt_ms.median();
            let ops_per_s = answered.len() as f64 / window_s;
            outcome.describe("loop", "open, timed from each request's due time");
            outcome.describe("read_rate_per_s", READ_RATE);
            outcome.describe("write_rate_per_s", WRITE_RATE);
            outcome.describe("connections", 2);
            outcome.set("read_p50_ms", p50);
            outcome.set("read_p99_ms", p99);
            outcome.figure("read_p50_ms", p50, "ms", &read_ms);
            outcome.figure("read_p99_ms", p99, "ms", &read_ms);
            outcome.figure("generator.late_ms", late_ms.quantile(0.99), "ms", &late_ms);
            outcome.set("read_rtt_p50_ms", rtt_p50);
            outcome.figure("read_rtt_p50_ms", rtt_p50, "ms", &read_rtt_ms);
            outcome.set("latency_p50_ms", rtt_p50);
            outcome.set("ops_per_s", ops_per_s);
            outcome.figure("ops_per_s", ops_per_s, "1/s", &Samples::default());
        }
    }
    outcome.describe("n", N);
    outcome.describe("m", graph.m());
    outcome.describe("batch_edges", BATCH);
    outcome.describe("insert_remove", "3:1");
    outcome.describe("skew", SKEW);
    outcome.describe("window_s", format!("{window_s:.3}"));

    if let Some(traced) = traced {
        outcome.check(
            "trace.replay_identical_to_untraced",
            traced.final_fingerprint == untraced.final_fingerprint,
            "tracing must not change the output",
        );
        outcome.set("generator.late_ms", late_ms.quantile(0.99));
        outcome.set("trace.overhead_share", traced.loop_s / untraced.loop_s - 1.0);
        layers(outcome, &answered, &requests, &traced, graph.m());
    }
    Ok(())
}

/// Compares everything the daemon answered with the in-process replay.
fn check_against_replay(
    outcome: &mut Outcome,
    answered: &[&Sent],
    replay: &Replay,
    final_epoch: u64,
    final_colors: &[u64],
) {
    let mut applied_mismatches = 0;
    let mut snapshot_mismatches = 0;
    let mut short_queries = 0;
    for (sent, response) in answered.iter().zip(&replay.responses) {
        match (&sent.reply, response) {
            (
                Ok(Reply::Applied(tcp)),
                Response::Applied {
                    epoch,
                    new_edges,
                    removed_edges,
                    frontier,
                    repaired,
                    strategy,
                    ..
                },
            ) => {
                if (
                    tcp.epoch,
                    tcp.new_edges,
                    tcp.removed_edges,
                    tcp.frontier,
                    tcp.repaired,
                    tcp.strategy,
                ) != (*epoch, *new_edges, *removed_edges, *frontier, *repaired, *strategy)
                {
                    applied_mismatches += 1;
                }
            }
            (Ok(Reply::Snapshot(epoch, colors)), _) => {
                if replay.epoch_fingerprints.get(*epoch as usize) != Some(&fingerprint(colors)) {
                    snapshot_mismatches += 1;
                }
            }
            (Ok(Reply::Colors(len)), _) => {
                if *len != QUERY_VERTICES {
                    short_queries += 1;
                }
            }
            _ => applied_mismatches += 1,
        }
    }
    outcome.check(
        "serve.applied_replies_match_replay",
        applied_mismatches == 0,
        format!("{applied_mismatches} mismatching Apply replies"),
    );
    outcome.check(
        "serve.read_snapshots_match_replay",
        snapshot_mismatches == 0 && short_queries == 0,
        format!(
            "{snapshot_mismatches} snapshot fingerprints differ, {short_queries} short queries"
        ),
    );
    let epochs = replay.epoch_fingerprints.len() as u64 - 1;
    outcome.check(
        "serve.final_snapshot_matches_replay",
        final_epoch == epochs && fingerprint(final_colors) == replay.final_fingerprint,
        format!("daemon epoch {final_epoch}, replay epoch {epochs}"),
    );
}

/// Splits the traced replay's time across the service's layers.
fn layers(
    outcome: &mut Outcome,
    answered: &[&Sent],
    requests: &[Request],
    traced: &Replay,
    m: usize,
) {
    let mut decode_apply = Samples::default();
    let mut decode_query = Samples::default();
    let mut encode_snapshot = Samples::default();
    let mut frame_apply = Samples::default();
    let mut frame_snapshot = Samples::default();
    let mut handle_apply = Samples::default();
    let mut handle_query = Samples::default();
    let mut handle_snapshot = Samples::default();
    let mut wait_read = Samples::default();
    let mut wait_write = Samples::default();
    for (index, (request, cost)) in requests.iter().zip(&traced.costs).enumerate() {
        // Derived: what the client saw (from the due time in the open loop) minus what
        // the same request costs in process.
        let wait = answered.get(index).map(|s| s.latency_ms - cost.in_process_ms());
        match request {
            Request::Apply(_) => {
                decode_apply.push(cost.decode_ms * 1e3);
                frame_apply.push(cost.request_bytes as f64);
                handle_apply.push(cost.handle_ms);
                if let Some(wait) = wait {
                    wait_write.push(wait);
                }
            }
            Request::QueryColors(_) => {
                decode_query.push(cost.decode_ms * 1e3);
                handle_query.push(cost.handle_ms);
                if let Some(wait) = wait {
                    wait_read.push(wait);
                }
            }
            _ => {
                encode_snapshot.push(cost.encode_ms * 1e3);
                frame_snapshot.push(cost.response_bytes as f64);
                handle_snapshot.push(cost.handle_ms);
                if let Some(wait) = wait {
                    wait_read.push(wait);
                }
            }
        }
    }
    outcome.set("protocol.decode_us.apply", decode_apply.median());
    outcome.set("protocol.decode_us.query", decode_query.median());
    outcome.set("protocol.encode_us.snapshot", encode_snapshot.median());
    outcome.set("protocol.frame_bytes.apply", frame_apply.mean());
    outcome.set("protocol.frame_bytes.snapshot", frame_snapshot.median());
    outcome.set("server.wait_ms.read", wait_read.mean());
    outcome.set("server.wait_ms.read_p99", wait_read.quantile(0.99));
    outcome.set("server.wait_ms.write", wait_write.mean());
    outcome.set("service.load_s", traced.load_s);
    outcome.set("service.new_s", traced.new_s);
    outcome.set("service.handle_ms.apply", handle_apply.median());
    outcome.set("service.handle_ms.query", handle_query.median());
    outcome.set("service.handle_ms.snapshot", handle_snapshot.median());
    outcome.set("graph.is_legal_ms", traced.is_legal_ms.median());
    // Computed, not timed: the CSR arrays `Graph::patched` lays out afresh per patch
    // (offsets and ids per vertex; adjacency, arc_edge and mirror_arc per arc; edges per
    // edge), all of machine-word elements.
    let word = std::mem::size_of::<usize>() as f64;
    outcome
        .set("graph.patch_bytes", word * (2.0 * N as f64 + 1.0 + 6.0 * m as f64 + 2.0 * m as f64));

    // The dynamic-apply spans, one per replayed Apply, in order, and the wall time of
    // their csr-patch, frontier-repair and full-recolor children.
    let spans = &traced.loop_spans;
    let children = children_wall_ns(spans);
    let applies: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == "dynamic-apply")
        .collect();
    let mut child_ms = vec![[0.0f64; 3]; spans.len()];
    for span in spans {
        let kind =
            ["csr-patch", "frontier-repair", "full-recolor"].iter().position(|n| *n == span.name);
        if let (Some(parent), Some(kind)) = (span.parent, kind) {
            child_ms[parent][kind] += wall_ms(span);
        }
    }
    let mut apply_ms = Samples::default();
    let mut self_ms = Samples::default();
    let mut patch_ms = Samples::default();
    let mut copy_ms = Samples::default();
    let (mut local_ms, mut full_ms, mut rounds) = (0.0, 0.0, 0u64);
    let mut worst_overrun: f64 = 0.0;
    for (&index, &handle) in applies.iter().zip(handle_apply.values()) {
        let total = wall_ms(&spans[index]);
        let [patch, local, full] = child_ms[index];
        let own = total - children[index] as f64 / 1e6;
        apply_ms.push(total);
        self_ms.push(own);
        patch_ms.push(patch);
        local_ms += local;
        full_ms += full;
        rounds += spans[index].report.rounds as u64;
        copy_ms.push(handle - total);
        worst_overrun = worst_overrun.max(-own).max(total - handle);
    }
    let batches = applies.len().max(1) as f64;
    outcome.set("dynamic.apply_ms", apply_ms.median());
    outcome.set("dynamic.apply_self_ms", self_ms.median());
    outcome.set("graph.patch_ms", patch_ms.median());
    outcome.set("service.snapshot_copy_ms", copy_ms.median());
    outcome.set("repair.local_ms", local_ms / batches);
    outcome.set("repair.full_ms", full_ms / batches);
    outcome.set("repair.rounds", rounds as f64);
    // Layer sums, per request: patch + repair + self = dynamic-apply by construction, so
    // the check is that no child outlasts its parent and that dynamic-apply fits inside
    // the benchmark's own timer around `ColoringService::handle`.
    outcome.check(
        "layers.apply_and_handle_decompose",
        applies.len() == handle_apply.len() && worst_overrun <= LAYER_TOLERANCE_MS,
        format!(
            "{} dynamic-apply spans for {} Apply requests, worst overrun {worst_overrun:.4} ms (tolerance {LAYER_TOLERANCE_MS} ms)",
            applies.len(),
            handle_apply.len()
        ),
    );
    let sum_of_layers = patch_ms.sum() + local_ms + full_ms + self_ms.sum();
    outcome.check(
        "layers.apply_totals",
        (sum_of_layers - apply_ms.sum()).abs() <= 1e-6 * apply_ms.sum().max(1.0)
            && (apply_ms.sum() + copy_ms.sum() - handle_apply.sum()).abs()
                <= 1e-6 * handle_apply.sum().max(1.0),
        format!(
            "Σ patch+repair+self {sum_of_layers:.3} ms, Σ apply {:.3} ms, Σ handle {:.3} ms",
            apply_ms.sum(),
            handle_apply.sum()
        ),
    );

    let mut new_edges = 0u64;
    let (mut frontier, mut repaired) = (0u64, 0u64);
    let mut strategies = [0u64; 3];
    for response in &traced.responses {
        if let Response::Applied { new_edges: e, frontier: f, repaired: r, strategy, .. } = response
        {
            new_edges += e;
            frontier += f;
            repaired += r;
            strategies[match strategy {
                RepairStrategy::NoConflict => 0,
                RepairStrategy::LocalRepair => 1,
                RepairStrategy::FullRecolor => 2,
            }] += 1;
        }
    }
    outcome.set("dynamic.new_edges_per_batch", new_edges as f64 / batches);
    outcome.set("dynamic.frontier_per_batch", frontier as f64 / batches);
    outcome.set("dynamic.repaired_per_batch", repaired as f64 / batches);
    outcome.set("dynamic.repaired_over_frontier", repaired as f64 / frontier.max(1) as f64);
    outcome.set("dynamic.strategy.none", strategies[0] as f64);
    outcome.set("dynamic.strategy.local", strategies[1] as f64);
    outcome.set("dynamic.strategy.full", strategies[2] as f64);

    // The initial coloring inside `ColoringService::new`: the executor layer of set-up.
    let new_spans = &traced.new_spans;
    let exec: Vec<&SpanRecord> = new_spans.iter().filter(|s| s.kind == SpanKind::Exec).collect();
    let exec_ns: u64 = exec.iter().map(|s| s.wall_ns).sum();
    let messages: u64 = exec.iter().map(|s| s.report.messages as u64).sum();
    outcome.set("executor.gk.runs", exec.len() as f64);
    outcome.set("executor.gk.rounds", exec.iter().map(|s| s.report.rounds as f64).sum());
    outcome.set("executor.gk.messages", messages as f64);
    outcome.set("executor.gk.wall_share", exec_ns as f64 / 1e9 / traced.new_s);
    outcome.set("executor.gk.ns_per_message", exec_ns as f64 / messages.max(1) as f64);
}
