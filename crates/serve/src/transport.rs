//! The cross-process replica wire protocol: length-prefixed binary
//! frames over unix domain sockets, plus the client side
//! ([`RemoteReplica`]) the router drives.
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! length    4 B  u32 LE, payload byte count (capped at 16 MiB)
//! crc32     4 B  IEEE CRC32 of the payload (the checksum checkpoint-v2
//!                files use too — `trace::crc32`)
//! payload   variable
//! ```
//!
//! and every payload starts with the same header:
//!
//! ```text
//! version   1 B  wire version (`WIRE_VERSION`); mismatches are rejected
//! kind      1 B  message kind (requests 0x01.., responses 0x81..)
//! id        8 B  u64 LE request id, echoed verbatim in the response
//! body      variable, kind-specific
//! ```
//!
//! A short read, a bad CRC, an unknown kind, or a version mismatch all
//! surface as `io::ErrorKind::InvalidData` — the caller cannot tell
//! silent corruption from truncation, and does not need to: both poison
//! the connection, which is dropped and (once) retried on a fresh one.
//!
//! # Requests and responses
//!
//! | kind | message | body |
//! |---|---|---|
//! | 0x01 | [`Request::Classify`] | deadline budget µs (u64, 0 = none), canonical key (len-prefixed string) |
//! | 0x02 | [`Request::Ping`] | — |
//! | 0x03 | [`Request::Reload`] | checkpoint dir (len-prefixed string) |
//! | 0x04 | [`Request::Shutdown`] | — |
//! | 0x81 | [`Response::Prediction`] | model version u64, top class u32, batch size u32, cache hit u8, probs (u32 count + f64s) |
//! | 0x82 | [`Response::Error`] | error code u8 + per-code fields (a full [`ServeError`] round-trip) |
//! | 0x83 | [`Response::Pong`] | queue depth u64, served-request count u64 |
//! | 0x84 | [`Response::ReloadOk`] | published model version u64 |
//!
//! The canonical key is the request's entity tokens joined with `\x1f`
//! (exactly the batch server's cache key); tokens never contain the
//! separator, so the worker recovers them with a split — one string on
//! the wire instead of a token list.
//!
//! # Metrics
//!
//! `serve.transport.frames` counts every frame appended for writing or
//! split off intact after reading (both directions, both ends),
//! `serve.transport.retries` counts client calls that got a second
//! attempt on a fresh connection, and `serve.transport.errors` counts
//! attempts that failed with an I/O or framing error; see
//! `docs/TRACING.md`.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use trace::Counter;

use crate::error::ServeError;
use crate::router::ReplicaHandle;
use crate::service::Prediction;

static FRAMES: Counter = Counter::new("serve.transport.frames");
static RETRIES: Counter = Counter::new("serve.transport.retries");
static ERRORS: Counter = Counter::new("serve.transport.errors");

/// Current wire version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on payload size: a corrupt length prefix must not convince
/// the reader to allocate gigabytes.
pub const MAX_FRAME: usize = 16 << 20;

const KIND_CLASSIFY: u8 = 0x01;
const KIND_PING: u8 = 0x02;
const KIND_RELOAD: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_PREDICTION: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;
const KIND_PONG: u8 = 0x83;
const KIND_RELOAD_OK: u8 = 0x84;

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A client→worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Classify one canonicalized recipe. `deadline_us` is the remaining
    /// queueing budget in microseconds (0 = unbounded), `key` the entity
    /// tokens joined with `\x1f`.
    Classify {
        /// Request id, echoed in the response.
        id: u64,
        /// Queueing deadline budget in µs; 0 means none.
        deadline_us: u64,
        /// Canonical cache key (tokens joined with `\x1f`).
        key: String,
    },
    /// Health check; answered with [`Response::Pong`].
    Ping {
        /// Request id, echoed in the response.
        id: u64,
    },
    /// Hot-swap the worker's model from a checkpoint directory (runs the
    /// registry's full warmup gate before publishing).
    Reload {
        /// Request id, echoed in the response.
        id: u64,
        /// Checkpoint directory to load.
        dir: String,
    },
    /// Drain the queue and exit cleanly.
    Shutdown {
        /// Request id (no response is guaranteed; the worker exits).
        id: u64,
    },
}

/// A worker→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful classification.
    Prediction {
        /// Echo of the request id.
        id: u64,
        /// The served prediction.
        prediction: Prediction,
    },
    /// A typed serving failure.
    Error {
        /// Echo of the request id.
        id: u64,
        /// The failure, round-tripped losslessly.
        error: ServeError,
    },
    /// Health-check answer.
    Pong {
        /// Echo of the request id.
        id: u64,
        /// Current queued-request depth on the worker.
        depth: u64,
        /// Classify requests answered since the worker started (its
        /// per-replica answer count).
        served: u64,
    },
    /// A successful [`Request::Reload`].
    ReloadOk {
        /// Echo of the request id.
        id: u64,
        /// Version the registry published for the new checkpoint.
        version: u64,
    },
}

// ---------------------------------------------------------------------------
// Little-endian payload primitives (the checkpoint-v2 conventions).

struct Enc(Vec<u8>);

impl Enc {
    fn new(kind: u8, id: u64) -> Self {
        let mut e = Enc(Vec::with_capacity(32));
        e.0.push(WIRE_VERSION);
        e.0.push(kind);
        e.u64(id);
        e
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn need(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| invalid("truncated frame payload"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.need(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.need(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(invalid("string length exceeds frame cap"));
        }
        let bytes = self.need(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("non-UTF-8 string in frame"))
    }
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    fn finish(self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after frame payload"))
        }
    }
}

fn header<'a>(payload: &'a [u8]) -> io::Result<(u8, u64, Dec<'a>)> {
    let mut d = Dec {
        bytes: payload,
        pos: 0,
    };
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(invalid(format!(
            "wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    let kind = d.u8()?;
    let id = d.u64()?;
    Ok((kind, id, d))
}

// ---------------------------------------------------------------------------
// Framing: one appender and one splitter, shared by the blocking
// reader/writer below and the worker's event loop.

/// Bytes of frame header (length + CRC32) ahead of every payload.
const FRAME_HEADER: usize = 8;

/// Appends one frame (length, CRC32, payload) to `buf` and counts it.
/// Callers keep `payload` within [`MAX_FRAME`].
pub(crate) fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&trace::crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    FRAMES.incr();
}

/// The payload length a frame header declares.
///
/// # Errors
///
/// `InvalidData` when it exceeds [`MAX_FRAME`].
fn declared_len(head: &[u8; FRAME_HEADER]) -> io::Result<usize> {
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    Ok(len)
}

/// Splits the first complete frame off the front of `buf`, returning its
/// payload and the bytes it occupies, or `None` while `buf` holds only
/// part of a frame. Counts every frame it returns.
///
/// # Errors
///
/// `InvalidData` for a length over [`MAX_FRAME`] (before the payload has
/// arrived) or a CRC mismatch.
pub(crate) fn split_frame(buf: &[u8]) -> io::Result<Option<(&[u8], usize)>> {
    let Some(head) = buf.first_chunk::<FRAME_HEADER>() else {
        return Ok(None);
    };
    let end = FRAME_HEADER + declared_len(head)?;
    let Some(payload) = buf.get(FRAME_HEADER..end) else {
        return Ok(None);
    };
    if trace::crc32(payload) != u32::from_le_bytes([head[4], head[5], head[6], head[7]]) {
        return Err(invalid("frame CRC mismatch"));
    }
    FRAMES.incr();
    Ok(Some((payload, end)))
}

/// Writes one frame (length, CRC32, payload) to `w`.
///
/// # Errors
///
/// Any underlying I/O error; the payload must be under [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(invalid(format!(
            "frame payload {} too large",
            payload.len()
        )));
    }
    let mut frame = Vec::new();
    append_frame(&mut frame, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from `r`, verifying length sanity and the CRC.
///
/// # Errors
///
/// `InvalidData` for an oversized length prefix, a CRC mismatch, or a
/// short read mid-frame (`UnexpectedEof`); plus any underlying I/O error
/// (including read timeouts set on the stream).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut head = [0u8; FRAME_HEADER];
    r.read_exact(&mut head)?;
    // the length is checked before anything is allocated for it
    let mut frame = vec![0u8; FRAME_HEADER + declared_len(&head)?];
    frame[..FRAME_HEADER].copy_from_slice(&head);
    r.read_exact(&mut frame[FRAME_HEADER..])?;
    if split_frame(&frame)?.is_none() {
        return Err(invalid("short frame")); // unreachable: the whole frame is here
    }
    frame.drain(..FRAME_HEADER);
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Message codec.

/// Serializes a request payload (framing is [`write_frame`]'s job).
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Classify {
            id,
            deadline_us,
            key,
        } => {
            let mut e = Enc::new(KIND_CLASSIFY, *id);
            e.u64(*deadline_us);
            e.str(key);
            e.0
        }
        Request::Ping { id } => Enc::new(KIND_PING, *id).0,
        Request::Reload { id, dir } => {
            let mut e = Enc::new(KIND_RELOAD, *id);
            e.str(dir);
            e.0
        }
        Request::Shutdown { id } => Enc::new(KIND_SHUTDOWN, *id).0,
    }
}

/// Parses a request payload.
///
/// # Errors
///
/// `InvalidData` for version mismatches, unknown kinds, truncation, or
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let (kind, id, mut d) = header(payload)?;
    let request = match kind {
        KIND_CLASSIFY => Request::Classify {
            id,
            deadline_us: d.u64()?,
            key: d.str()?,
        },
        KIND_PING => Request::Ping { id },
        KIND_RELOAD => Request::Reload { id, dir: d.str()? },
        KIND_SHUTDOWN => Request::Shutdown { id },
        other => return Err(invalid(format!("unknown request kind {other:#04x}"))),
    };
    d.finish()?;
    Ok(request)
}

/// Serializes a response payload.
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Prediction { id, prediction } => {
            let mut e = Enc::new(KIND_PREDICTION, *id);
            e.u64(prediction.model_version);
            e.u32(prediction.top_class as u32);
            e.u32(prediction.batch_size as u32);
            e.u8(u8::from(prediction.cache_hit));
            e.u32(prediction.probs.len() as u32);
            for &p in &prediction.probs {
                e.f64(p);
            }
            e.0
        }
        Response::Error { id, error } => {
            let mut e = Enc::new(KIND_ERROR, *id);
            encode_error(&mut e, error);
            e.0
        }
        Response::Pong { id, depth, served } => {
            let mut e = Enc::new(KIND_PONG, *id);
            e.u64(*depth);
            e.u64(*served);
            e.0
        }
        Response::ReloadOk { id, version } => {
            let mut e = Enc::new(KIND_RELOAD_OK, *id);
            e.u64(*version);
            e.0
        }
    }
}

/// Parses a response payload.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let (kind, id, mut d) = header(payload)?;
    let response = match kind {
        KIND_PREDICTION => {
            let model_version = d.u64()?;
            let top_class = d.u32()? as usize;
            let batch_size = d.u32()? as usize;
            let cache_hit = d.u8()? != 0;
            let n = d.u32()? as usize;
            // checked before reserving: a count the payload cannot hold
            // must not size an allocation
            if n > d.remaining() / 8 {
                return Err(invalid("probability row longer than the payload"));
            }
            let mut probs = Vec::with_capacity(n);
            for _ in 0..n {
                probs.push(d.f64()?);
            }
            Response::Prediction {
                id,
                prediction: Prediction {
                    probs,
                    top_class,
                    model_version,
                    batch_size,
                    cache_hit,
                },
            }
        }
        KIND_ERROR => Response::Error {
            id,
            error: decode_error(&mut d)?,
        },
        KIND_PONG => Response::Pong {
            id,
            depth: d.u64()?,
            served: d.u64()?,
        },
        KIND_RELOAD_OK => Response::ReloadOk {
            id,
            version: d.u64()?,
        },
        other => return Err(invalid(format!("unknown response kind {other:#04x}"))),
    };
    d.finish()?;
    Ok(response)
}

fn encode_error(e: &mut Enc, error: &ServeError) {
    match error {
        ServeError::Overloaded { depth, capacity } => {
            e.u8(1);
            e.u64(*depth as u64);
            e.u64(*capacity as u64);
        }
        ServeError::DeadlineExceeded => e.u8(2),
        ServeError::ShuttingDown => e.u8(3),
        ServeError::UnknownModel(name) => {
            e.u8(4);
            e.str(name);
        }
        ServeError::EmptyRecipe => e.u8(5),
        ServeError::Canceled => e.u8(6),
        ServeError::InvalidConfig(what) => {
            e.u8(7);
            e.str(what);
        }
        ServeError::DeployFailed(what) => {
            e.u8(8);
            e.str(what);
        }
        ServeError::Transport(what) => {
            e.u8(9);
            e.str(what);
        }
        ServeError::Internal(what) => {
            e.u8(10);
            e.str(what);
        }
    }
}

fn decode_error(d: &mut Dec<'_>) -> io::Result<ServeError> {
    Ok(match d.u8()? {
        1 => ServeError::Overloaded {
            depth: d.u64()? as usize,
            capacity: d.u64()? as usize,
        },
        2 => ServeError::DeadlineExceeded,
        3 => ServeError::ShuttingDown,
        4 => ServeError::UnknownModel(d.str()?),
        5 => ServeError::EmptyRecipe,
        6 => ServeError::Canceled,
        7 => ServeError::InvalidConfig(d.str()?),
        8 => ServeError::DeployFailed(d.str()?),
        9 => ServeError::Transport(d.str()?),
        10 => ServeError::Internal(d.str()?),
        other => return Err(invalid(format!("unknown error code {other}"))),
    })
}

// ---------------------------------------------------------------------------
// The client side: a socket-backed replica handle.

/// A socket-backed replica, as the router sees it: implements
/// [`ReplicaHandle`] by speaking the wire protocol to one worker process.
///
/// Connections are pooled (one per concurrent caller, lazily opened) and
/// poisoned on any framing or I/O error — the failed connection is
/// dropped and the call retried **once** on a fresh one, which separates
/// "a stale pooled connection died" from "the worker is gone". A second
/// failure surfaces as [`ServeError::Transport`], which the router maps
/// to ejection.
pub struct RemoteReplica {
    socket: PathBuf,
    label: String,
    io_timeout: Duration,
    pool: Mutex<Vec<UnixStream>>,
    inflight: AtomicUsize,
    ids: AtomicU64,
}

impl std::fmt::Debug for RemoteReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteReplica")
            .field("socket", &self.socket)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl RemoteReplica {
    /// Binds a handle to `socket` (lazily — no connection is opened until
    /// the first call). `io_timeout` bounds connect-to-response time for
    /// deadline-less requests and is added as compute margin on top of a
    /// request's own deadline.
    pub fn new(socket: impl Into<PathBuf>, label: impl Into<String>, io_timeout: Duration) -> Self {
        Self {
            socket: socket.into(),
            label: label.into(),
            io_timeout,
            pool: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            ids: AtomicU64::new(1),
        }
    }

    /// The socket path this handle speaks to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    fn checkout(&self) -> io::Result<UnixStream> {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        match pooled {
            Some(conn) => Ok(conn),
            None => UnixStream::connect(&self.socket),
        }
    }

    fn checkin(&self, conn: UnixStream) {
        let mut pool = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // cap the pool at a sane size; extra connections just close
        if pool.len() < 64 {
            pool.push(conn);
        }
    }

    /// One request/response exchange on one connection. Any error
    /// poisons the connection (it is dropped, never pooled again).
    fn exchange(&self, request: &Request, timeout: Duration) -> io::Result<Response> {
        let mut conn = self.checkout()?;
        conn.set_read_timeout(Some(timeout))?;
        conn.set_write_timeout(Some(timeout))?;
        write_frame(&mut conn, &encode_request(request))?;
        let payload = read_frame(&mut conn)?;
        let response = decode_response(&payload)?;
        self.checkin(conn);
        Ok(response)
    }

    /// Sends `request` with one retry on a fresh connection, verifying
    /// the response id matches `id`.
    fn call(&self, id: u64, request: &Request, timeout: Duration) -> Result<Response, ServeError> {
        let mut last = None;
        for attempt in 0..2 {
            if attempt > 0 {
                RETRIES.incr();
            }
            match self.exchange(request, timeout) {
                Ok(response) => {
                    if response_id(&response) == id {
                        return Ok(response);
                    }
                    // a stale answer from an abandoned earlier request on
                    // a pooled connection: that connection is already
                    // dropped (checkin never ran? it did — but the stream
                    // is desynchronized), so retry fresh
                    ERRORS.incr();
                    self.pool
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .clear();
                    last = Some(format!(
                        "response id {} for request {id}",
                        response_id(&response)
                    ));
                }
                Err(e) => {
                    ERRORS.incr();
                    last = Some(format!("{}: {e}", self.socket.display()));
                }
            }
        }
        Err(ServeError::Transport(last.unwrap_or_else(|| {
            format!("{}: exhausted retries", self.socket.display())
        })))
    }

    /// Health check: one Ping/Pong round trip within `timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the worker cannot be reached or
    /// answers garbage.
    pub fn ping(&self, timeout: Duration) -> Result<PongStats, ServeError> {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        match self.call(id, &Request::Ping { id }, timeout)? {
            Response::Pong { depth, served, .. } => Ok(PongStats { depth, served }),
            other => Err(ServeError::Transport(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Hot-swaps the worker's model from `dir` (the worker runs its full
    /// warmup gate before publishing). Returns the published version.
    ///
    /// # Errors
    ///
    /// The worker's load/warmup error (as the typed [`ServeError`]), or
    /// [`ServeError::Transport`] when the exchange itself failed.
    pub fn reload(&self, dir: &Path, timeout: Duration) -> Result<u64, ServeError> {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let request = Request::Reload {
            id,
            dir: dir.display().to_string(),
        };
        match self.call(id, &request, timeout)? {
            Response::ReloadOk { version, .. } => Ok(version),
            Response::Error { error, .. } => Err(error),
            other => Err(ServeError::Transport(format!(
                "expected ReloadOk, got {other:?}"
            ))),
        }
    }

    /// Asks the worker to drain and exit. Best-effort: transport errors
    /// are swallowed (the worker may already be gone).
    pub fn send_shutdown(&self) {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut conn) = self.checkout() {
            let _ = conn.set_write_timeout(Some(self.io_timeout));
            let _ = write_frame(&mut conn, &encode_request(&Request::Shutdown { id }));
        }
    }
}

/// What a worker reports in a Pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PongStats {
    /// Queued (not yet batched) requests on the worker.
    pub depth: u64,
    /// Classify requests the worker has answered since it started.
    pub served: u64,
}

fn response_id(response: &Response) -> u64 {
    match response {
        Response::Prediction { id, .. }
        | Response::Error { id, .. }
        | Response::Pong { id, .. }
        | Response::ReloadOk { id, .. } => *id,
    }
}

impl ReplicaHandle for RemoteReplica {
    fn classify_prepared(
        &self,
        key: String,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        struct InflightGuard<'a>(&'a AtomicUsize);
        impl Drop for InflightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _guard = InflightGuard(&self.inflight);

        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let deadline_us = deadline.map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64);
        // the deadline bounds queueing on the worker; the I/O timeout
        // adds the transport + compute margin on top
        let timeout = deadline.unwrap_or(Duration::ZERO) + self.io_timeout;
        let request = Request::Classify {
            id,
            deadline_us,
            key,
        };
        match self.call(id, &request, timeout)? {
            Response::Prediction { prediction, .. } => Ok(prediction),
            Response::Error { error, .. } => Err(error),
            other => Err(ServeError::Transport(format!(
                "expected Prediction, got {other:?}"
            ))),
        }
    }

    fn queue_depth(&self) -> usize {
        // client-side proxy: calls currently in flight to this worker.
        // The true queue depth lives in another process; what admission
        // control needs is "how much work has this tier already accepted
        // for that process", which this is.
        self.inflight.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        // the supervisor owns the worker's lifecycle; dropping pooled
        // connections is all a router teardown should do
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn frame_round_trips() {
        let payload = b"the payload".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), payload);
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let flip = buf.len() - 1; // last payload byte
        buf[flip] ^= 0x40;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn truncated_frame_is_a_short_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"a longer payload than the cut").unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let payload = encode_request(&request);
            assert_eq!(decode_request(&payload).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in sample_responses() {
            let payload = encode_response(&response);
            assert_eq!(decode_response(&payload).unwrap(), response);
        }
    }

    /// One request of every kind.
    fn sample_requests() -> [Request; 4] {
        [
            Request::Classify {
                id: 7,
                deadline_us: 1500,
                key: "soy\u{1f}ginger".into(),
            },
            Request::Ping { id: 8 },
            Request::Reload {
                id: 9,
                dir: "/tmp/model".into(),
            },
            Request::Shutdown { id: 10 },
        ]
    }

    /// One response of every kind, with every error code.
    fn sample_responses() -> Vec<Response> {
        let errors = [
            ServeError::Overloaded {
                depth: 9,
                capacity: 8,
            },
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::UnknownModel("lstm".into()),
            ServeError::EmptyRecipe,
            ServeError::Canceled,
            ServeError::InvalidConfig("max_batch".into()),
            ServeError::DeployFailed("warmup".into()),
            ServeError::Transport("refused".into()),
            ServeError::Internal("poisoned".into()),
        ];
        let mut responses = vec![
            Response::Prediction {
                id: 1,
                prediction: Prediction {
                    probs: vec![0.25, 0.5, 0.25],
                    top_class: 1,
                    model_version: 42,
                    batch_size: 3,
                    cache_hit: true,
                },
            },
            Response::Pong {
                id: 2,
                depth: 5,
                served: 99,
            },
            Response::ReloadOk { id: 3, version: 7 },
        ];
        responses.extend(
            errors
                .into_iter()
                .enumerate()
                .map(|(i, error)| Response::Error {
                    id: 100 + i as u64,
                    error,
                }),
        );
        responses
    }

    #[test]
    fn version_mismatch_and_unknown_kinds_are_rejected() {
        let mut payload = encode_request(&Request::Ping { id: 1 });
        payload[0] = WIRE_VERSION + 1;
        assert!(decode_request(&payload).is_err());

        let mut payload = encode_request(&Request::Ping { id: 1 });
        payload[1] = 0x7f;
        assert!(decode_request(&payload).is_err());

        // a request kind is not a response kind
        let payload = encode_request(&Request::Ping { id: 1 });
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn probability_count_is_bounded_by_the_payload() {
        let mut payload = encode_response(&Response::Prediction {
            id: 1,
            prediction: Prediction {
                probs: Vec::new(),
                top_class: 0,
                model_version: 1,
                batch_size: 1,
                cache_hit: false,
            },
        });
        // an empty row ends the payload with its u32 count: claim the
        // largest row a frame could carry
        let count_at = payload.len() - 4;
        payload[count_at..].copy_from_slice(&((MAX_FRAME / 8) as u32).to_le_bytes());
        assert_eq!(payload.len(), 31);
        let err = decode_response(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than the payload"), "{err}");
    }

    #[test]
    fn split_frame_takes_frames_off_a_stream_one_at_a_time() {
        let mut stream = Vec::new();
        append_frame(&mut stream, b"first");
        append_frame(&mut stream, b"");
        append_frame(&mut stream, b"third payload");
        let mut written = Vec::new();
        for payload in [&b"first"[..], b"", b"third payload"] {
            write_frame(&mut written, payload).unwrap();
        }
        assert_eq!(
            stream, written,
            "appender and writer put the same bytes on the wire"
        );
        let mut first = vec![5, 0, 0, 0];
        first.extend_from_slice(&trace::crc32(b"first").to_le_bytes());
        first.extend_from_slice(b"first");
        assert_eq!(
            stream[..first.len()],
            first,
            "[len u32][crc32 u32][payload]"
        );

        // every strict prefix of a frame is incomplete, never an error
        let first_len = FRAME_HEADER + 5;
        for cut in 0..first_len {
            assert!(split_frame(&stream[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let mut rest = &stream[..];
        let mut payloads = Vec::new();
        while let Some((payload, used)) = split_frame(rest).unwrap() {
            payloads.push(payload.to_vec());
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
        assert_eq!(payloads, [&b"first"[..], b"", b"third payload"]);

        // the oversized length is refused from the header alone
        let mut huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        let err = split_frame(&huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut bad = stream.clone();
        bad[FRAME_HEADER] ^= 1;
        let err = split_frame(&bad).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    /// `bytes` with one to three edits: a byte overwritten, four bytes
    /// overwritten with an extreme or random u32 (length and count
    /// fields), a cut, or a random tail.
    fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..out.len().max(1));
            match rng.gen_range(0..4) {
                0 => {
                    if let Some(b) = out.get_mut(at) {
                        *b = rng.gen::<u32>() as u8;
                    }
                }
                1 => {
                    let v = [0, 1, u32::MAX, 1 << 31, rng.gen()][rng.gen_range(0..5)];
                    for (i, b) in v.to_le_bytes().into_iter().enumerate() {
                        if let Some(slot) = out.get_mut(at + i) {
                            *slot = b;
                        }
                    }
                }
                2 => out.truncate(at),
                _ => out.extend((0..rng.gen_range(1..9)).map(|_| rng.gen::<u32>() as u8)),
            }
        }
        out
    }

    /// Arbitrary byte strings: a quarter uniformly random, the rest
    /// mutations of `valid`, so the decoders get past their first checks.
    fn arbitrary_inputs(valid: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..2000)
            .map(|case| {
                if case % 4 == 0 {
                    let len = rng.gen_range(0..48);
                    (0..len).map(|_| rng.gen::<u32>() as u8).collect()
                } else {
                    mutate(&valid[case % valid.len()], &mut rng)
                }
            })
            .collect()
    }

    fn assert_ok_or_invalid<T>(result: io::Result<T>, input: &[u8]) {
        if let Err(e) = result {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e} for {input:?}");
        }
    }

    /// Every sample request and response, encoded.
    fn sample_payloads() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        (
            sample_requests().iter().map(encode_request).collect(),
            sample_responses().iter().map(encode_response).collect(),
        )
    }

    #[test]
    fn decoders_answer_arbitrary_bytes_with_invalid_data_never_a_panic() {
        let (requests, responses) = sample_payloads();
        for input in arbitrary_inputs(&requests, 0xDEC0) {
            assert_ok_or_invalid(decode_request(&input), &input);
        }
        for input in arbitrary_inputs(&responses, 0xDEC1) {
            assert_ok_or_invalid(decode_response(&input), &input);
        }
    }

    #[test]
    fn split_frame_answers_arbitrary_bytes_with_invalid_data_never_a_panic() {
        let (requests, responses) = sample_payloads();
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .chain(&responses)
            .map(|payload| {
                let mut frame = Vec::new();
                append_frame(&mut frame, payload);
                frame
            })
            .collect();
        for input in arbitrary_inputs(&frames, 0xF4A3) {
            match split_frame(&input) {
                Ok(Some((payload, used))) => {
                    assert!(used <= input.len(), "{input:?}");
                    assert_eq!(payload, &input[FRAME_HEADER..used]);
                }
                result => assert_ok_or_invalid(result, &input),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Ping { id: 1 });
        payload.push(0);
        let err = decode_request(&payload).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn exchange_over_a_socket_pair() {
        let (mut client, mut server) = UnixStream::pair().unwrap();
        let request = Request::Classify {
            id: 11,
            deadline_us: 0,
            key: "soy\u{1f}rice".into(),
        };
        write_frame(&mut client, &encode_request(&request)).unwrap();
        let got = decode_request(&read_frame(&mut server).unwrap()).unwrap();
        assert_eq!(got, request);

        let response = Response::Pong {
            id: 11,
            depth: 0,
            served: 1,
        };
        write_frame(&mut server, &encode_response(&response)).unwrap();
        let got = decode_response(&read_frame(&mut client).unwrap()).unwrap();
        assert_eq!(got, response);
    }

    #[test]
    fn remote_replica_maps_connection_failure_to_transport() {
        let replica = RemoteReplica::new(
            "/tmp/definitely-not-a-socket-serve-test",
            "ghost",
            Duration::from_millis(50),
        );
        match replica.classify_prepared("soy".into(), None) {
            Err(ServeError::Transport(_)) => {}
            other => panic!("expected Transport, got {other:?}"),
        }
        assert_eq!(replica.queue_depth(), 0, "inflight guard must unwind");
        match replica.ping(Duration::from_millis(50)) {
            Err(ServeError::Transport(_)) => {}
            other => panic!("expected Transport, got {other:?}"),
        }
    }
}
