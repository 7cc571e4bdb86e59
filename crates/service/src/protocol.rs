//! The wire protocol of the coloring service.
//!
//! # Frame format
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload (length bytes)    |
//! +----------------+---------------------------+
//! payload = [version: u8 = 1][tag: u8][fields…]
//! ```
//!
//! Integers inside the payload are little-endian (`u64` unless noted); edge and vertex
//! lists are a `u32` count followed by that many entries.  Frames longer than
//! [`MAX_FRAME_LEN`] are rejected with [`ServiceError::FrameTooLarge`] before any payload
//! is read, so a corrupt length prefix cannot make either side allocate unboundedly.
//!
//! The encoding is hand-rolled on purpose: the workspace's vendored `serde_json` stand-in
//! is write-only, and the daemon must not grow external dependencies.  Round-trip
//! (`encode` → `decode`) is pinned by unit tests for every variant; `tests/wire_decoder.rs`
//! property-tests that no input panics the decoders, that they reject every strict prefix,
//! and that they accept only canonical payloads (0/1 flags, zero padding).

use std::fmt;
use std::io::{self, Read, Write};

use arbcolor::dynamic::{GraphUpdate, RepairStrategy};
use arbcolor_graph::Vertex;

/// Protocol version carried as the first payload byte; bumped on breaking changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame payload (16 MiB) — large enough for a snapshot of a
/// million-vertex coloring, small enough to bound a malicious length prefix.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Apply a batch of graph updates and repair the coloring.
    Apply(Vec<GraphUpdate>),
    /// Query the current colors of the given vertices.
    QueryColors(Vec<Vertex>),
    /// Fetch the full coloring at an epoch (`None` = the current epoch).  Only the
    /// most recent epochs are retained — see
    /// [`ServiceConfig::snapshot_history`](crate::server::ServiceConfig).
    Snapshot(Option<u64>),
    /// Fetch service statistics.
    Stats,
    /// Run a palette-compaction sweep.
    Compact,
    /// Re-verify the maintained coloring against the current graph.
    Verify,
    /// Ask the daemon to stop accepting connections and exit cleanly.
    Shutdown,
}

/// Aggregate counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Vertices in the served graph.
    pub n: u64,
    /// Edges in the served graph.
    pub m: u64,
    /// Current epoch (one per successful mutation).
    pub epoch: u64,
    /// Distinct colors currently in use.
    pub colors: u64,
    /// Maximum degree of the current graph.
    pub max_degree: u64,
    /// Apply batches absorbed since startup.
    pub batches: u64,
    /// Edges genuinely added since startup.
    pub new_edges: u64,
    /// Edges genuinely removed since startup.
    pub removed_edges: u64,
    /// Vertices recolored by conflict repair since startup.
    pub repaired: u64,
    /// Compaction sweeps run since startup (explicit and automatic).
    pub compactions: u64,
    /// Color queries served since startup.
    pub queries: u64,
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Outcome of an [`Request::Apply`] batch.
    Applied {
        /// Epoch after the batch (one per successful mutation).
        epoch: u64,
        /// Edges submitted across the batch's updates.
        submitted_edges: u64,
        /// Edges genuinely added.
        new_edges: u64,
        /// Edges genuinely removed.
        removed_edges: u64,
        /// Conflict-frontier size.
        frontier: u64,
        /// Vertices recolored by conflict repair.
        repaired: u64,
        /// Strategy the repair policy chose.
        strategy: RepairStrategy,
        /// `(colors_before, colors_after, recolored)` when auto-compaction ran.
        compacted: Option<(u64, u64, u64)>,
    },
    /// Colors for the vertices of a [`Request::QueryColors`], in request order.
    Colors(Vec<u64>),
    /// A full coloring at the requested epoch.
    Snapshot {
        /// The epoch the snapshot was taken at.
        epoch: u64,
        /// One color per vertex, indexed by vertex.
        colors: Vec<u64>,
    },
    /// Service statistics.
    Stats(ServiceStats),
    /// Outcome of an explicit [`Request::Compact`] sweep.
    Compacted {
        /// Epoch after the sweep.
        epoch: u64,
        /// Distinct colors before.
        colors_before: u64,
        /// Distinct colors after.
        colors_after: u64,
        /// Vertices whose color changed.
        recolored: u64,
    },
    /// Outcome of a [`Request::Verify`] pass.
    Verified {
        /// Whether the maintained coloring is legal on the current graph.
        legal: bool,
        /// Number of monochromatic edges (0 when legal).
        conflicts: u64,
    },
    /// Acknowledgement of a [`Request::Shutdown`]; the daemon exits after sending it.
    ShuttingDown,
    /// A typed error; the connection stays usable.
    Error(ServiceError),
}

/// Typed errors a request can fail with — every variant crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The frame or payload could not be parsed.
    Malformed {
        /// What the decoder choked on.
        reason: String,
    },
    /// A frame announced a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced length.
        len: u64,
        /// The enforced bound.
        max: u64,
    },
    /// An edge endpoint was outside `0..n`.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: u64,
        /// The served graph's vertex count.
        n: u64,
    },
    /// An edge connected a vertex to itself.
    SelfLoop {
        /// The offending vertex.
        vertex: u64,
    },
    /// The requested snapshot epoch is no longer (or not yet) retained.
    EpochUnavailable {
        /// The requested epoch.
        requested: u64,
        /// Oldest retained epoch.
        oldest: u64,
        /// Newest retained epoch.
        newest: u64,
    },
    /// The request could not acquire the service state within its deadline.
    Timeout {
        /// The deadline that expired, in milliseconds.
        millis: u64,
    },
    /// An internal invariant failed while handling the request.
    Internal {
        /// The underlying error, stringified.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            ServiceError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            ServiceError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for a graph on {n} vertices")
            }
            ServiceError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            ServiceError::EpochUnavailable { requested, oldest, newest } => {
                write!(f, "epoch {requested} unavailable (retained: {oldest}..={newest})")
            }
            ServiceError::Timeout { millis } => {
                write!(f, "request timed out after {millis} ms")
            }
            ServiceError::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

// ---------------------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the transport's I/O errors; rejects oversized payloads before writing.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            ServiceError::FrameTooLarge { len: payload.len() as u64, max: MAX_FRAME_LEN as u64 },
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection).
///
/// # Errors
///
/// Propagates the transport's I/O errors (including read timeouts) and rejects frames
/// longer than [`MAX_FRAME_LEN`] without reading their payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < 4 {
                let more = r.read(&mut len_buf[got..])?;
                if more == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-length-prefix",
                    ));
                }
                got += more;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ServiceError::FrameTooLarge { len: len as u64, max: MAX_FRAME_LEN as u64 },
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_edges(buf: &mut Vec<u8>, edges: &[(Vertex, Vertex)]) {
    put_u32(buf, edges.len() as u32);
    for &(u, v) in edges {
        put_u64(buf, u as u64);
        put_u64(buf, v as u64);
    }
}

fn put_colors(buf: &mut Vec<u8>, colors: &[u64]) {
    put_u32(buf, colors.len() as u32);
    for &c in colors {
        put_u64(buf, c);
    }
}

/// Cursor over a received payload with typed, bounds-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServiceError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| ServiceError::Malformed { reason: format!("truncated {what}") })?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServiceError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// A boolean byte: only the encoder's 0 and 1 are accepted.
    fn flag(&mut self, what: &str) -> Result<bool, ServiceError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ServiceError::Malformed { reason: format!("{what} flag {other}") }),
        }
    }

    /// An optional group of `N` `u64`s: a flag, then the values, which must be zero padding
    /// when the flag is 0.
    fn optional<const N: usize>(&mut self, what: &str) -> Result<Option<[u64; N]>, ServiceError> {
        let present = self.flag(what)?;
        let mut values = [0; N];
        for x in &mut values {
            *x = self.u64(what)?;
        }
        if !present && values != [0; N] {
            return Err(ServiceError::Malformed { reason: format!("nonzero absent {what}") });
        }
        Ok(present.then_some(values))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self, what: &str) -> Result<String, ServiceError> {
        let len = self.u32(what)? as usize;
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServiceError::Malformed { reason: format!("non-UTF-8 {what}") })
    }

    /// A `u32` element count, sanity-bounded by the remaining payload so a corrupt count
    /// cannot trigger a huge allocation.
    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, ServiceError> {
        let count = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.at;
        if count.saturating_mul(elem_bytes) > remaining {
            return Err(ServiceError::Malformed {
                reason: format!("{what} count {count} exceeds the remaining payload"),
            });
        }
        Ok(count)
    }

    fn edges(&mut self, what: &str) -> Result<Vec<(Vertex, Vertex)>, ServiceError> {
        let count = self.count(16, what)?;
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            let u = self.u64(what)? as Vertex;
            let v = self.u64(what)? as Vertex;
            edges.push((u, v));
        }
        Ok(edges)
    }

    fn colors(&mut self, what: &str) -> Result<Vec<u64>, ServiceError> {
        let count = self.count(8, what)?;
        let mut colors = Vec::with_capacity(count);
        for _ in 0..count {
            colors.push(self.u64(what)?);
        }
        Ok(colors)
    }

    fn finish(self, what: &str) -> Result<(), ServiceError> {
        if self.at != self.buf.len() {
            return Err(ServiceError::Malformed {
                reason: format!("{} trailing bytes after {what}", self.buf.len() - self.at),
            });
        }
        Ok(())
    }
}

fn header(tag: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, tag]
}

fn strategy_byte(strategy: RepairStrategy) -> u8 {
    match strategy {
        RepairStrategy::NoConflict => 0,
        RepairStrategy::LocalRepair => 1,
        RepairStrategy::FullRecolor => 2,
    }
}

fn strategy_from(byte: u8) -> Result<RepairStrategy, ServiceError> {
    match byte {
        0 => Ok(RepairStrategy::NoConflict),
        1 => Ok(RepairStrategy::LocalRepair),
        2 => Ok(RepairStrategy::FullRecolor),
        other => Err(ServiceError::Malformed { reason: format!("unknown strategy {other}") }),
    }
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Apply(updates) => {
                let mut buf = header(1);
                put_u32(&mut buf, updates.len() as u32);
                for update in updates {
                    buf.push(u8::from(!update.is_insert()));
                    put_edges(&mut buf, update.edges());
                }
                buf
            }
            Request::QueryColors(vertices) => {
                let mut buf = header(2);
                put_u32(&mut buf, vertices.len() as u32);
                for &v in vertices {
                    put_u64(&mut buf, v as u64);
                }
                buf
            }
            Request::Snapshot(epoch) => {
                let mut buf = header(3);
                buf.push(u8::from(epoch.is_some()));
                put_u64(&mut buf, epoch.unwrap_or(0));
                buf
            }
            Request::Stats => header(4),
            Request::Compact => header(5),
            Request::Verify => header(6),
            Request::Shutdown => header(7),
        }
    }

    /// Parses a frame payload into a request.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Malformed`] on version/tag mismatches, truncation,
    /// implausible counts, non-canonical flags or padding, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut r = Reader::new(payload);
        let version = r.u8("version")?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Malformed {
                reason: format!("protocol version {version}, expected {PROTOCOL_VERSION}"),
            });
        }
        let tag = r.u8("request tag")?;
        let request = match tag {
            1 => {
                let count = r.count(5, "updates")?;
                let mut updates = Vec::with_capacity(count);
                for _ in 0..count {
                    let kind = r.u8("update kind")?;
                    let edges = r.edges("update edges")?;
                    updates.push(match kind {
                        0 => GraphUpdate::InsertEdges(edges),
                        1 => GraphUpdate::RemoveEdges(edges),
                        other => {
                            return Err(ServiceError::Malformed {
                                reason: format!("unknown update kind {other}"),
                            })
                        }
                    });
                }
                Request::Apply(updates)
            }
            2 => {
                let count = r.count(8, "vertices")?;
                let mut vertices = Vec::with_capacity(count);
                for _ in 0..count {
                    vertices.push(r.u64("vertex")? as Vertex);
                }
                Request::QueryColors(vertices)
            }
            3 => Request::Snapshot(r.optional("epoch")?.map(|[epoch]| epoch)),
            4 => Request::Stats,
            5 => Request::Compact,
            6 => Request::Verify,
            7 => Request::Shutdown,
            other => {
                return Err(ServiceError::Malformed {
                    reason: format!("unknown request tag {other}"),
                })
            }
        };
        r.finish("request")?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Error(err) => {
                let mut buf = header(0);
                err.encode_into(&mut buf);
                buf
            }
            Response::Applied {
                epoch,
                submitted_edges,
                new_edges,
                removed_edges,
                frontier,
                repaired,
                strategy,
                compacted,
            } => {
                let mut buf = header(1);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *submitted_edges);
                put_u64(&mut buf, *new_edges);
                put_u64(&mut buf, *removed_edges);
                put_u64(&mut buf, *frontier);
                put_u64(&mut buf, *repaired);
                buf.push(strategy_byte(*strategy));
                buf.push(u8::from(compacted.is_some()));
                let (before, after, recolored) = compacted.unwrap_or((0, 0, 0));
                put_u64(&mut buf, before);
                put_u64(&mut buf, after);
                put_u64(&mut buf, recolored);
                buf
            }
            Response::Colors(colors) => {
                let mut buf = header(2);
                put_colors(&mut buf, colors);
                buf
            }
            Response::Snapshot { epoch, colors } => {
                let mut buf = header(3);
                put_u64(&mut buf, *epoch);
                put_colors(&mut buf, colors);
                buf
            }
            Response::Stats(stats) => {
                let mut buf = header(4);
                for x in [
                    stats.n,
                    stats.m,
                    stats.epoch,
                    stats.colors,
                    stats.max_degree,
                    stats.batches,
                    stats.new_edges,
                    stats.removed_edges,
                    stats.repaired,
                    stats.compactions,
                    stats.queries,
                ] {
                    put_u64(&mut buf, x);
                }
                buf
            }
            Response::Compacted { epoch, colors_before, colors_after, recolored } => {
                let mut buf = header(5);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *colors_before);
                put_u64(&mut buf, *colors_after);
                put_u64(&mut buf, *recolored);
                buf
            }
            Response::Verified { legal, conflicts } => {
                let mut buf = header(6);
                buf.push(u8::from(*legal));
                put_u64(&mut buf, *conflicts);
                buf
            }
            Response::ShuttingDown => header(7),
        }
    }

    /// Parses a frame payload into a response.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Malformed`] on version/tag mismatches, truncation,
    /// implausible counts, non-canonical flags or padding, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let mut r = Reader::new(payload);
        let version = r.u8("version")?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Malformed {
                reason: format!("protocol version {version}, expected {PROTOCOL_VERSION}"),
            });
        }
        let tag = r.u8("response tag")?;
        let response = match tag {
            0 => Response::Error(ServiceError::decode_from(&mut r)?),
            1 => {
                let epoch = r.u64("epoch")?;
                let submitted_edges = r.u64("submitted_edges")?;
                let new_edges = r.u64("new_edges")?;
                let removed_edges = r.u64("removed_edges")?;
                let frontier = r.u64("frontier")?;
                let repaired = r.u64("repaired")?;
                let strategy = strategy_from(r.u8("strategy")?)?;
                let compacted = r
                    .optional("compaction")?
                    .map(|[before, after, recolored]| (before, after, recolored));
                Response::Applied {
                    epoch,
                    submitted_edges,
                    new_edges,
                    removed_edges,
                    frontier,
                    repaired,
                    strategy,
                    compacted,
                }
            }
            2 => Response::Colors(r.colors("colors")?),
            3 => {
                let epoch = r.u64("epoch")?;
                let colors = r.colors("snapshot colors")?;
                Response::Snapshot { epoch, colors }
            }
            4 => {
                let mut take = || r.u64("stats field");
                Response::Stats(ServiceStats {
                    n: take()?,
                    m: take()?,
                    epoch: take()?,
                    colors: take()?,
                    max_degree: take()?,
                    batches: take()?,
                    new_edges: take()?,
                    removed_edges: take()?,
                    repaired: take()?,
                    compactions: take()?,
                    queries: take()?,
                })
            }
            5 => Response::Compacted {
                epoch: r.u64("epoch")?,
                colors_before: r.u64("colors_before")?,
                colors_after: r.u64("colors_after")?,
                recolored: r.u64("recolored")?,
            },
            6 => Response::Verified { legal: r.flag("legal")?, conflicts: r.u64("conflicts")? },
            7 => Response::ShuttingDown,
            other => {
                return Err(ServiceError::Malformed {
                    reason: format!("unknown response tag {other}"),
                })
            }
        };
        r.finish("response")?;
        Ok(response)
    }
}

impl ServiceError {
    fn code(&self) -> u8 {
        match self {
            ServiceError::Malformed { .. } => 1,
            ServiceError::FrameTooLarge { .. } => 2,
            ServiceError::VertexOutOfRange { .. } => 3,
            ServiceError::SelfLoop { .. } => 4,
            ServiceError::EpochUnavailable { .. } => 5,
            ServiceError::Timeout { .. } => 6,
            ServiceError::Internal { .. } => 7,
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(self.code());
        match self {
            ServiceError::Malformed { reason } | ServiceError::Internal { reason } => {
                put_str(buf, reason)
            }
            ServiceError::FrameTooLarge { len, max } => {
                put_u64(buf, *len);
                put_u64(buf, *max);
            }
            ServiceError::VertexOutOfRange { vertex, n } => {
                put_u64(buf, *vertex);
                put_u64(buf, *n);
            }
            ServiceError::SelfLoop { vertex } => put_u64(buf, *vertex),
            ServiceError::EpochUnavailable { requested, oldest, newest } => {
                put_u64(buf, *requested);
                put_u64(buf, *oldest);
                put_u64(buf, *newest);
            }
            ServiceError::Timeout { millis } => put_u64(buf, *millis),
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ServiceError> {
        match r.u8("error code")? {
            1 => Ok(ServiceError::Malformed { reason: r.str("error reason")? }),
            2 => Ok(ServiceError::FrameTooLarge { len: r.u64("len")?, max: r.u64("max")? }),
            3 => Ok(ServiceError::VertexOutOfRange { vertex: r.u64("vertex")?, n: r.u64("n")? }),
            4 => Ok(ServiceError::SelfLoop { vertex: r.u64("vertex")? }),
            5 => Ok(ServiceError::EpochUnavailable {
                requested: r.u64("requested")?,
                oldest: r.u64("oldest")?,
                newest: r.u64("newest")?,
            }),
            6 => Ok(ServiceError::Timeout { millis: r.u64("millis")? }),
            7 => Ok(ServiceError::Internal { reason: r.str("error reason")? }),
            other => Err(ServiceError::Malformed { reason: format!("unknown error code {other}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).expect("round trip");
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).expect("round trip");
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_request(Request::Apply(vec![
            GraphUpdate::InsertEdges(vec![(0, 1), (7, 3)]),
            GraphUpdate::RemoveEdges(vec![(2, 9)]),
            GraphUpdate::InsertEdges(vec![]),
        ]));
        round_trip_request(Request::QueryColors(vec![0, 5, 17]));
        round_trip_request(Request::Snapshot(None));
        round_trip_request(Request::Snapshot(Some(42)));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Compact);
        round_trip_request(Request::Verify);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn every_response_variant_round_trips() {
        round_trip_response(Response::Applied {
            epoch: 3,
            submitted_edges: 10,
            new_edges: 7,
            removed_edges: 2,
            frontier: 4,
            repaired: 3,
            strategy: RepairStrategy::LocalRepair,
            compacted: Some((12, 5, 30)),
        });
        round_trip_response(Response::Applied {
            epoch: 1,
            submitted_edges: 1,
            new_edges: 0,
            removed_edges: 0,
            frontier: 0,
            repaired: 0,
            strategy: RepairStrategy::NoConflict,
            compacted: None,
        });
        round_trip_response(Response::Colors(vec![0, 3, 3, 1]));
        round_trip_response(Response::Snapshot { epoch: 9, colors: vec![1, 0, 2] });
        round_trip_response(Response::Stats(ServiceStats {
            n: 100,
            m: 250,
            epoch: 17,
            colors: 5,
            max_degree: 9,
            batches: 40,
            new_edges: 200,
            removed_edges: 50,
            repaired: 31,
            compactions: 2,
            queries: 400,
        }));
        round_trip_response(Response::Compacted {
            epoch: 18,
            colors_before: 9,
            colors_after: 4,
            recolored: 55,
        });
        round_trip_response(Response::Verified { legal: true, conflicts: 0 });
        round_trip_response(Response::ShuttingDown);
        for error in [
            ServiceError::Malformed { reason: "bad tag".into() },
            ServiceError::FrameTooLarge { len: 1 << 30, max: MAX_FRAME_LEN as u64 },
            ServiceError::VertexOutOfRange { vertex: 99, n: 10 },
            ServiceError::SelfLoop { vertex: 4 },
            ServiceError::EpochUnavailable { requested: 1, oldest: 5, newest: 9 },
            ServiceError::Timeout { millis: 250 },
            ServiceError::Internal { reason: "invariant".into() },
        ] {
            round_trip_response(Response::Error(error));
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_malformed() {
        let mut payload = Request::Apply(vec![GraphUpdate::InsertEdges(vec![(0, 1)])]).encode();
        payload.truncate(payload.len() - 3);
        assert!(matches!(Request::decode(&payload), Err(ServiceError::Malformed { .. })));
        let mut payload = Request::Stats.encode();
        payload.push(0xFF);
        assert!(matches!(Request::decode(&payload), Err(ServiceError::Malformed { .. })));
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION + 1, 4]),
            Err(ServiceError::Malformed { .. })
        ));
    }

    #[test]
    fn implausible_counts_do_not_allocate() {
        // A 4-GiB edge count in a 30-byte payload must be rejected up front.
        let mut payload = header(1);
        put_u32(&mut payload, 1);
        payload.push(0);
        put_u32(&mut payload, u32::MAX);
        assert!(matches!(Request::decode(&payload), Err(ServiceError::Malformed { .. })));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::QueryColors(vec![1, 2, 3]).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let got = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(got, payload);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after the frame");
    }

    #[test]
    fn oversized_frames_are_rejected_by_the_length_prefix() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }
}
