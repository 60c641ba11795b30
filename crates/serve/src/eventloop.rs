//! The replica worker's single-threaded network event loop: every
//! client socket multiplexed over one non-blocking poll loop, feeding
//! one micro-batching queue through the completion front-end.
//!
//! # Threading model
//!
//! Exactly two threads serve traffic in a worker process:
//!
//! * **the network thread** (this module) — owns the listener, every
//!   client connection, all read/write buffers, and the
//!   [`CompletionQueue`]. It never blocks on a socket: readiness comes
//!   from [`netpoll::poll`](crate::netpoll::poll), reads and writes are
//!   non-blocking, and decoded Classify frames enter the batch server
//!   via [`BatchServer::submit`] — a queue push, not a wait.
//! * **the batch worker** (inside [`BatchServer`]) — cuts and runs fused
//!   forward passes, exactly as in in-process serving. It is untouched
//!   by this module; completions it delivers wake the network thread
//!   through a self-pipe registered as the queue's notifier.
//!
//! A thousand idle connections therefore cost a thousand fds and their
//! buffers — not a thousand threads — and a thousand in-flight requests
//! cost a thousand queue slots. The only operation that stalls the loop
//! is an explicit `Reload` frame (a registry load + warmup gate runs
//! inline); deploys are rare, per-worker, and routed around by the tier
//! above, so the stall buys not having a third thread.
//!
//! # Connection lifecycle
//!
//! Frames are split incrementally off a per-connection read buffer by
//! the same `transport` splitter the blocking client reads with, and
//! answers are appended to a write buffer by its one appender;
//! anything malformed (bad CRC, oversized length, unknown kind) closes
//! the connection, exactly like the thread-per-connection worker did —
//! the client's one-retry-on-a-fresh-connection policy
//! ([`RemoteReplica`](crate::RemoteReplica)) is the recovery path. When
//! a connection closes with requests still in flight, its tickets are
//! canceled so the batch worker skips compute nobody will read; a
//! completion whose connection is already gone is counted
//! (`serve.loop.orphaned`) and dropped. Reply routes carry the slot's
//! generation number, so a recycled slot can never receive a
//! predecessor's answer.
//!
//! # Metrics
//!
//! `serve.loop.connections` (gauge), `serve.loop.accepted`,
//! `serve.loop.polls`, and `serve.loop.orphaned`; frames parsed or
//! written here tick the shared `serve.transport.frames` counter. See
//! `docs/TRACING.md`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

use trace::{Counter, Gauge};

use crate::completion::{CompletionQueue, Ticket};
use crate::error::ServeError;
use crate::netpoll::{poll, PollFd, POLLIN, POLLOUT};
use crate::registry::ModelRegistry;
use crate::service::BatchServer;
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
    /// Idle poll tick. Readiness and completions wake the loop early;
    /// this only bounds how long a totally idle loop sleeps per turn.
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
    /// A `Shutdown` frame arrived; the batch server has drained (every
    /// queued request was answered through the model).
    ShutdownRequested,
    /// An injected fault asked the process to exit with this code
    /// (test-only; see [`FaultAction::Exit`]).
    FaultExit(i32),
}

/// What an injected fault does to the response being written (test-only
/// plumbing so the `replica_worker` binary's `REPLICA_WORKER_FAULT`
/// machinery keeps working across the event-loop rewrite). Both frame
/// faults tamper with the frame after it was appended whole.
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

/// Hook consulted once per successful classification, with the served
/// count *including* the answer about to be written. Returning a
/// [`FaultAction`] applies it to that response.
pub type FaultHook = Box<dyn FnMut(u64) -> Option<FaultAction> + Send>;

struct Conn {
    stream: UnixStream,
    gen: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    tickets: Vec<Ticket>,
    close_after_flush: bool,
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
}

/// Where a completion is delivered: which connection (slot + generation)
/// and which wire request id to echo.
struct ReplyRoute {
    slot: usize,
    gen: u64,
    request_id: u64,
}

struct LoopState {
    conns: Vec<Option<Conn>>,
    routes: HashMap<Ticket, ReplyRoute>,
    served: u64,
}

impl LoopState {
    fn live(&self) -> usize {
        self.conns.iter().flatten().count()
    }
}

enum ConnVerdict {
    Keep,
    Close,
    Shutdown,
}

/// Runs the event loop until a `Shutdown` frame or an injected exit
/// fault. See the module docs for the threading model.
///
/// # Errors
///
/// Only unrecoverable loop-level failures (the `poll` syscall itself, or
/// the self-pipe dying); per-connection errors close that connection and
/// keep serving.
pub fn run(
    listener: UnixListener,
    server: &Arc<BatchServer>,
    registry: &Arc<ModelRegistry>,
    model_name: &str,
    config: &EventLoopConfig,
    mut fault: Option<FaultHook>,
) -> io::Result<LoopExit> {
    listener.set_nonblocking(true)?;
    let cq = CompletionQueue::new();

    // the self-pipe: the batch worker delivers completions from its own
    // thread; a byte here makes poll() return so the loop can write the
    // responses out. A full pipe is fine — the wakeup is already pending.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    cq.set_notifier(Some(Arc::new(move || {
        let _ = (&wake_tx).write(b"w");
    })));

    let mut state = LoopState {
        conns: Vec::new(),
        routes: HashMap::new(),
        served: 0,
    };
    let mut next_gen: u64 = 0;

    loop {
        // 1. deliver finished work into connection write buffers
        if let Some(exit) = deliver_completions(&mut state, &cq, &mut fault) {
            return Ok(exit);
        }

        // 2. push buffered bytes out
        for slot in 0..state.conns.len() {
            let done = state.conns[slot]
                .as_mut()
                .is_some_and(|c| c.has_pending_writes() && c.flush().is_err());
            if done {
                close_conn(&mut state, slot, &cq);
            }
        }

        // 3. sleep until something is ready
        let mut fds = Vec::with_capacity(2 + state.conns.len());
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        let accepting = state.live() < config.max_connections;
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        // remember which pollfd watches which slot: fds and slots stop
        // being 1:1 once connections have closed
        let mut fd_slots = Vec::with_capacity(state.conns.len());
        for (slot, conn) in state.conns.iter().enumerate() {
            if let Some(c) = conn {
                let mut events = POLLIN;
                if c.has_pending_writes() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                fd_slots.push(slot);
            }
        }
        poll(&mut fds, Some(config.poll_timeout))?;
        POLLS.incr();

        // 4. drain wakeup bytes (their only job was to end the poll)
        let mut sink = [0u8; 64];
        while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}

        // 5. accept what's waiting
        if accepting {
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
                            tickets: Vec::new(),
                            close_after_flush: false,
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

        // 6. read + parse frames from every readable connection
        let offset = fds.len() - fd_slots.len();
        for (i, &slot) in fd_slots.iter().enumerate() {
            if !fds[offset + i].readable() {
                continue;
            }
            let verdict = match state.conns[slot].as_mut() {
                Some(conn) => pump_connection(
                    conn,
                    slot,
                    server,
                    registry,
                    model_name,
                    &cq,
                    &mut state.routes,
                    state.served,
                ),
                None => ConnVerdict::Keep,
            };
            match verdict {
                ConnVerdict::Keep => {}
                ConnVerdict::Close => close_conn(&mut state, slot, &cq),
                ConnVerdict::Shutdown => {
                    // drain: every queued request answers through the
                    // model, then the final completions are written out
                    server.shutdown();
                    if let Some(exit) = deliver_completions(&mut state, &cq, &mut fault) {
                        return Ok(exit);
                    }
                    final_flush(&mut state);
                    return Ok(LoopExit::ShutdownRequested);
                }
            }
        }
    }
}

/// Drains the completion queue into connection write buffers. Returns
/// `Some` when an injected exit fault fired.
fn deliver_completions(
    state: &mut LoopState,
    cq: &CompletionQueue,
    fault: &mut Option<FaultHook>,
) -> Option<LoopExit> {
    while let Some(completion) = cq.poll() {
        let Some(route) = state.routes.remove(&completion.ticket) else {
            ORPHANED.incr();
            continue;
        };
        let conn = state
            .conns
            .get_mut(route.slot)
            .and_then(Option::as_mut)
            .filter(|c| c.gen == route.gen);
        let Some(conn) = conn else {
            ORPHANED.incr();
            continue;
        };
        if let Some(at) = conn.tickets.iter().position(|t| *t == completion.ticket) {
            conn.tickets.swap_remove(at);
        }
        match completion.result {
            Ok(prediction) => {
                state.served += 1;
                let action = fault.as_mut().and_then(|hook| hook(state.served));
                if let Some(FaultAction::Exit(code)) = action {
                    return Some(LoopExit::FaultExit(code));
                }
                let payload = conn.queue_response(&Response::Prediction {
                    id: route.request_id,
                    prediction,
                });
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
                conn.queue_response(&Response::Error {
                    id: route.request_id,
                    error,
                });
            }
        }
    }
    None
}

/// Tears down one connection: cancels its in-flight tickets (the batch
/// worker skips compute for them) and frees the slot for reuse.
fn close_conn(state: &mut LoopState, slot: usize, cq: &CompletionQueue) {
    if let Some(conn) = state.conns[slot].take() {
        for ticket in conn.tickets {
            state.routes.remove(&ticket);
            cq.cancel(ticket);
        }
        CONNECTIONS.set(state.live() as u64);
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
/// each decoded request.
#[allow(clippy::too_many_arguments)]
fn pump_connection(
    conn: &mut Conn,
    slot: usize,
    server: &Arc<BatchServer>,
    registry: &Arc<ModelRegistry>,
    model_name: &str,
    cq: &CompletionQueue,
    routes: &mut HashMap<Ticket, ReplyRoute>,
    served: u64,
) -> ConnVerdict {
    // non-blocking read until WouldBlock or EOF
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ConnVerdict::Close,
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
                let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
                // the submit is the whole hand-off: no thread waits for
                // this answer — it comes back through the completion
                // queue and is written in a later loop turn
                match server.submit(tokens, key, deadline, cq) {
                    Ok(ticket) => {
                        conn.tickets.push(ticket);
                        routes.insert(
                            ticket,
                            ReplyRoute {
                                slot,
                                gen: conn.gen,
                                request_id: id,
                            },
                        );
                    }
                    Err(error) => {
                        conn.queue_response(&Response::Error { id, error });
                    }
                }
            }
            Request::Ping { id } => {
                let depth = server.queue_depth() as u64;
                conn.queue_response(&Response::Pong { id, depth, served });
            }
            Request::Reload { id, dir } => {
                // blocking by design: the deploy gate (load + warmup)
                // runs inline; see the module docs
                let response = match registry.load(model_name, std::path::Path::new(&dir)) {
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
    if conn.flush().is_err() {
        return ConnVerdict::Close;
    }
    ConnVerdict::Keep
}
