//! The replica worker's one serving thread: every client socket
//! multiplexed over one non-blocking poll loop, which also cuts and runs
//! the micro-batches itself.
//!
//! # Threading model
//!
//! Exactly one thread serves traffic in a worker process. It owns the
//! listener, every client connection, all read/write buffers, the
//! request queue and the feature cache, and each turn it
//!
//! 1. writes buffered answers out (non-blocking);
//! 2. waits in [`netpoll::poll`](crate::netpoll::poll) — with a zero
//!    timeout while requests are still queued, so requests that arrived
//!    during the last batch join the next cut;
//! 3. accepts, reads and decodes every ready frame, queueing each
//!    `Classify` with its reply route (connection slot, generation, wire
//!    request id) and answering `Ping` and `Reload` in place;
//! 4. runs one batch step — the same work-conserving cut and fused
//!    forward pass that [`BatchServer`](crate::BatchServer)'s thread runs
//!    for in-process callers — and appends each answer to its
//!    connection's write buffer.
//!
//! No request changes threads, so there is no batch-thread wake, no
//! completion queue and no self-pipe between a frame and its answer. A
//! thousand idle connections cost a thousand fds and their buffers, and
//! a thousand queued requests cost a thousand queue slots. The price is
//! that a frame arriving during a batch pass waits it out: a `Ping` or
//! `Reload` is answered at most one pass late — tens of microseconds for
//! the LSTM at batch 1, about 90 ms for a full 32-request BERT
//! graph-eval batch — well inside the supervisor's 500 ms ping timeout.
//! `Reload` itself runs inline (registry load and warmup gate); deploys
//! are rare, per-worker, and routed around by the tier above.
//!
//! # Connection lifecycle
//!
//! Frames are split incrementally off a per-connection read buffer by
//! the same `transport` splitter the blocking client reads with, and
//! answers are appended to a write buffer by its one appender;
//! anything malformed (bad CRC, oversized length, unknown kind) closes
//! the connection, exactly like the thread-per-connection worker did —
//! the client's one-retry-on-a-fresh-connection policy
//! ([`RemoteReplica`](crate::RemoteReplica)) is the recovery path. A
//! client that writes its requests and half-closes (`shutdown(Write)`)
//! still gets every answer: EOF parses the frames already read, stops
//! the loop polling the connection for input, and closes it once none
//! of its requests is queued and its answers are written. A client that
//! closes both directions (the poll reports a hangup) is closed as soon
//! as the frames it wrote are parsed, so a `Shutdown` written just
//! before the close (as `Supervisor::shutdown` does) is still honoured.
//! When a connection closes with requests still queued, they leave at
//! the next cut with no compute (`serve.loop.orphaned` counts them). Reply
//! routes carry the slot's generation number, so a recycled slot can
//! never receive a predecessor's answer. A model panic answers its
//! batch `Canceled` and the loop keeps serving.
//!
//! # Metrics
//!
//! `serve.loop.connections` (gauge), `serve.loop.accepted`,
//! `serve.loop.polls`, and `serve.loop.orphaned`; frames parsed or
//! written here tick the shared `serve.transport.frames` counter, and
//! the batch step keeps the `serve.queue.*`, `serve.batch*` and
//! `serve.cache.*` family. See `docs/TRACING.md`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trace::{Counter, Gauge};

use crate::error::ServeError;
use crate::netpoll::{poll, PollFd, POLLIN, POLLOUT};
use crate::registry::ModelRegistry;
use crate::service::{check_room, enqueue, BatchStep, Pending, Prediction, Replies, ServeConfig};
use crate::transport::{
    append_frame, decode_request, encode_response, split_frame, Request, Response,
};

static CONNECTIONS: Gauge = Gauge::new("serve.loop.connections");
static ACCEPTED: Counter = Counter::new("serve.loop.accepted");
static POLLS: Counter = Counter::new("serve.loop.polls");
static ORPHANED: Counter = Counter::new("serve.loop.orphaned");

/// Tuning knobs for the event loop.
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Connections held open at once; the listener is not polled while
    /// at the cap, so further connects queue in the socket backlog
    /// (backpressure, not failure).
    pub max_connections: usize,
    /// Idle poll tick. Readiness wakes the loop early, and the loop does
    /// not sleep at all while requests are queued; this only bounds how
    /// long a totally idle loop sleeps per turn.
    pub poll_timeout: Duration,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            poll_timeout: Duration::from_millis(250),
        }
    }
}

/// Why [`run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopExit {
    /// A `Shutdown` frame arrived; every queued request was answered
    /// through the model and flushed.
    ShutdownRequested,
    /// An injected fault asked the process to exit with this code
    /// (test-only; see [`FaultAction::Exit`]).
    FaultExit(i32),
}

/// What an injected fault does to the response being written (test-only
/// plumbing for the `replica_worker` binary's `REPLICA_WORKER_FAULT`
/// machinery). Both frame faults tamper with the frame after it was
/// appended whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Flip one payload byte of this response frame, so its CRC no
    /// longer matches (the client sees corruption and retries on a fresh
    /// connection).
    CorruptCrc,
    /// Drop the back half of the response payload (the header still
    /// promises all of it), then close the connection (the client sees a
    /// short read).
    TruncateAndClose,
    /// Exit the loop (and the process) with this code, without writing
    /// the response.
    Exit(i32),
}

/// Where the loop consults an injected fault (test-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A successful classification is about to be written; `served`
    /// counts answers *including* this one.
    Answer {
        /// Classify answers written so far, this one included.
        served: u64,
    },
    /// A `Reload` frame is about to load its checkpoint. A hook may
    /// block here; its action is ignored.
    Reload,
}

/// Hook consulted once per successful classification and once before
/// every `Reload`. Returning a [`FaultAction`] at an
/// [`Answer`](FaultPoint::Answer) applies it to that response.
pub type FaultHook = Box<dyn FnMut(FaultPoint) -> Option<FaultAction> + Send>;

struct Conn {
    stream: UnixStream,
    gen: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    close_after_flush: bool,
    /// The client half-closed: no more frames will come, but the answers
    /// it is owed still go out before the connection closes.
    read_closed: bool,
    /// This connection's requests still in the queue.
    queued: usize,
}

impl Conn {
    /// Appends one response frame to the write buffer, returning where
    /// its payload sits there (injected faults tamper with it).
    fn queue_response(&mut self, response: &Response) -> Range<usize> {
        let payload = encode_response(response);
        append_frame(&mut self.wbuf, &payload);
        self.wbuf.len() - payload.len()..self.wbuf.len()
    }

    /// Writes as much buffered output as the socket takes. `Err` means
    /// the connection is done (dead, or drained after an injected
    /// truncation).
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        if self.close_after_flush {
            return Err(io::ErrorKind::ConnectionAborted.into());
        }
        Ok(())
    }

    fn has_pending_writes(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Half-closed, with every answer it is owed written.
    fn finished(&self) -> bool {
        self.read_closed && self.queued == 0 && !self.has_pending_writes()
    }
}

/// Where a queued request's answer goes: which connection (slot +
/// generation) and which wire request id to echo.
struct Route {
    slot: usize,
    gen: u64,
    request_id: u64,
}

/// The connections and the answer-side state: the batch step's
/// [`Replies`] sink.
struct LoopState {
    conns: Vec<Option<Conn>>,
    served: u64,
    fault: Option<FaultHook>,
    /// Set when an injected exit fault fired while a batch was answered.
    exit: Option<LoopExit>,
}

impl LoopState {
    fn live(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            CONNECTIONS.set(self.live() as u64);
        }
    }
}

/// `route`'s connection, unless it closed (or its slot was reused).
fn conn_for<'a>(conns: &'a mut [Option<Conn>], route: &Route) -> Option<&'a mut Conn> {
    conns
        .get_mut(route.slot)
        .and_then(Option::as_mut)
        .filter(|c| c.gen == route.gen)
}

impl Replies<Route> for LoopState {
    fn gone(&mut self, route: &Route) -> bool {
        let gone = conn_for(&mut self.conns, route).is_none();
        if gone {
            ORPHANED.incr();
        }
        gone
    }

    fn answer(&mut self, route: Route, result: Result<Prediction, ServeError>) {
        if self.exit.is_some() {
            // an injected exit fired: nothing more is written
            return;
        }
        let Some(conn) = conn_for(&mut self.conns, &route) else {
            // answered at the cut (deadline) after its client left
            ORPHANED.incr();
            return;
        };
        conn.queued -= 1;
        let id = route.request_id;
        match result {
            Ok(prediction) => {
                self.served += 1;
                let served = self.served;
                let action = self
                    .fault
                    .as_mut()
                    .and_then(|hook| hook(FaultPoint::Answer { served }));
                if let Some(FaultAction::Exit(code)) = action {
                    self.exit = Some(LoopExit::FaultExit(code));
                    return;
                }
                let payload = conn.queue_response(&Response::Prediction { id, prediction });
                match action {
                    Some(FaultAction::CorruptCrc) => conn.wbuf[payload.end - 1] ^= 0x40,
                    Some(FaultAction::TruncateAndClose) => {
                        conn.wbuf.truncate(payload.start + payload.len() / 2);
                        conn.close_after_flush = true;
                    }
                    _ => {}
                }
            }
            Err(error) => {
                conn.queue_response(&Response::Error { id, error });
            }
        }
    }
}

enum ConnVerdict {
    Keep,
    Close,
    Shutdown,
}

/// Runs the event loop until a `Shutdown` frame or an injected exit
/// fault, serving `model_name` from `registry` with `serve`'s batching
/// and queue bounds. See the module docs for the threading model.
///
/// # Errors
///
/// `InvalidInput` when `serve` is out of range or no model of that name
/// is loaded; otherwise only unrecoverable loop-level failures (the
/// `poll` syscall itself). Per-connection errors close that connection
/// and keep serving.
pub fn run(
    listener: UnixListener,
    serve: &ServeConfig,
    registry: &Arc<ModelRegistry>,
    model_name: &str,
    config: &EventLoopConfig,
    fault: Option<FaultHook>,
) -> io::Result<LoopExit> {
    let mut step = BatchStep::new(Arc::clone(registry), model_name, serve.clone())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    listener.set_nonblocking(true)?;
    let mut queue: VecDeque<Pending<Route>> = VecDeque::new();
    let mut state = LoopState {
        conns: Vec::new(),
        served: 0,
        fault,
        exit: None,
    };
    let mut next_gen: u64 = 0;

    loop {
        // 1. push buffered bytes out; a half-closed connection closes
        // once it is owed nothing more
        for slot in 0..state.conns.len() {
            let done = state.conns[slot]
                .as_mut()
                .is_some_and(|c| (c.has_pending_writes() && c.flush().is_err()) || c.finished());
            if done {
                state.close(slot);
            }
        }

        // 2. sleep until something is ready — not at all while requests
        // wait for the next cut
        let mut fds = Vec::with_capacity(1 + state.conns.len());
        let accepting = state.live() < config.max_connections;
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        // remember which pollfd watches which slot: fds and slots stop
        // being 1:1 once connections have closed
        let mut fd_slots = Vec::with_capacity(state.conns.len());
        for (slot, conn) in state.conns.iter().enumerate() {
            if let Some(c) = conn {
                // EOF stays readable, so a half-closed connection is not
                // polled for input (the loop would spin); a hangup is
                // reported whatever the events
                let mut events = if c.read_closed { 0 } else { POLLIN };
                if c.has_pending_writes() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                fd_slots.push(slot);
            }
        }
        let timeout = if queue.is_empty() {
            config.poll_timeout
        } else {
            Duration::ZERO
        };
        poll(&mut fds, Some(timeout))?;
        POLLS.incr();

        // 3. accept what's waiting (the listener is fds[0] when polled)
        if accepting && fds[0].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        next_gen += 1;
                        let conn = Conn {
                            stream,
                            gen: next_gen,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            close_after_flush: false,
                            read_closed: false,
                            queued: 0,
                        };
                        match state.conns.iter().position(Option::is_none) {
                            Some(slot) => state.conns[slot] = Some(conn),
                            None => state.conns.push(Some(conn)),
                        }
                        ACCEPTED.incr();
                        CONNECTIONS.set(state.live() as u64);
                        if state.live() >= config.max_connections {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // a single failed accept is not a loop failure
                    Err(_) => break,
                }
            }
        }

        // 4. read + parse frames from every readable connection
        let offset = fds.len() - fd_slots.len();
        for (i, &slot) in fd_slots.iter().enumerate() {
            let fd = fds[offset + i];
            if !fd.readable() {
                continue;
            }
            let verdict = match state.conns[slot].as_mut() {
                Some(conn) => pump_connection(
                    conn,
                    slot,
                    fd.hung_up(),
                    &mut queue,
                    &step,
                    &mut state.fault,
                    state.served,
                ),
                None => ConnVerdict::Keep,
            };
            match verdict {
                ConnVerdict::Keep => {}
                ConnVerdict::Close => state.close(slot),
                ConnVerdict::Shutdown => {
                    // drain: every queued request answers through the
                    // model, then the answers are written out
                    while !queue.is_empty() {
                        let batch = step.cut(&mut queue, Instant::now(), &mut state);
                        step.run(batch, &mut state);
                        if let Some(exit) = state.exit {
                            return Ok(exit);
                        }
                    }
                    final_flush(&mut state);
                    return Ok(LoopExit::ShutdownRequested);
                }
            }
        }

        // 5. one batch step: cut what is queued (up to max_batch) and
        // answer it; the answers go out at the top of the next turn
        if !queue.is_empty() {
            let batch = step.cut(&mut queue, Instant::now(), &mut state);
            step.run(batch, &mut state);
            if let Some(exit) = state.exit {
                return Ok(exit);
            }
        }
    }
}

/// Best-effort flush of every connection on the way out of a clean
/// shutdown: bounded retries, so a wedged client cannot hold the process
/// open.
fn final_flush(state: &mut LoopState) {
    for _ in 0..200 {
        let mut pending = false;
        for conn in state.conns.iter_mut().flatten() {
            if conn.has_pending_writes() && conn.flush().is_ok() && conn.has_pending_writes() {
                pending = true;
            }
        }
        if !pending {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reads whatever the socket has, parses complete frames, and handles
/// each decoded request: a `Classify` joins the queue for the next cut,
/// the rest are answered in place. EOF marks the connection read-closed
/// once the frames read before it are parsed; it closes when it is owed
/// nothing more, or at once when the client `hung_up` (closed both
/// directions), whose queued requests then leave uncomputed.
fn pump_connection(
    conn: &mut Conn,
    slot: usize,
    hung_up: bool,
    queue: &mut VecDeque<Pending<Route>>,
    step: &BatchStep,
    fault: &mut Option<FaultHook>,
    served: u64,
) -> ConnVerdict {
    // non-blocking read until WouldBlock or EOF
    let mut chunk = [0u8; 4096];
    while !conn.read_closed {
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.read_closed = true,
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnVerdict::Close,
        }
    }

    // parse every complete frame in the buffer
    let mut consumed = 0;
    loop {
        let (payload, len) = match split_frame(&conn.rbuf[consumed..]) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => return ConnVerdict::Close,
        };
        let Ok(request) = decode_request(payload) else {
            return ConnVerdict::Close;
        };
        consumed += len;

        match request {
            Request::Classify {
                id,
                deadline_us,
                key,
            } => {
                let tokens: Vec<String> = key
                    .split('\x1f')
                    .filter(|t| !t.is_empty())
                    .map(str::to_string)
                    .collect();
                if tokens.is_empty() {
                    conn.queue_response(&Response::Error {
                        id,
                        error: ServeError::EmptyRecipe,
                    });
                    continue;
                }
                if let Err(error) = check_room(queue, step.config().queue_capacity) {
                    conn.queue_response(&Response::Error { id, error });
                    continue;
                }
                let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
                let route = Route {
                    slot,
                    gen: conn.gen,
                    request_id: id,
                };
                enqueue(
                    queue,
                    Pending::new(tokens, key, Instant::now(), deadline, route),
                );
                conn.queued += 1;
            }
            Request::Ping { id } => {
                let depth = queue.len() as u64;
                conn.queue_response(&Response::Pong { id, depth, served });
            }
            Request::Reload { id, dir } => {
                if let Some(hook) = fault.as_mut() {
                    hook(FaultPoint::Reload);
                }
                // blocking by design: the deploy gate (load + warmup)
                // runs inline; see the module docs
                let response = match step.reload(std::path::Path::new(&dir)) {
                    Ok(loaded) => Response::ReloadOk {
                        id,
                        version: loaded.version(),
                    },
                    Err(e) => Response::Error {
                        id,
                        error: ServeError::DeployFailed(format!("reload {dir}: {e}")),
                    },
                };
                conn.queue_response(&response);
            }
            Request::Shutdown { .. } => return ConnVerdict::Shutdown,
        }
    }

    conn.rbuf.drain(..consumed);
    if hung_up || conn.flush().is_err() || conn.finished() {
        return ConnVerdict::Close;
    }
    ConnVerdict::Keep
}
