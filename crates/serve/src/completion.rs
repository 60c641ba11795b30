//! Non-blocking submission/completion front-end for the batch server.
//!
//! [`BatchServer::classify`](crate::BatchServer::classify) pins one
//! caller thread per in-flight request — fine for a handful of clients,
//! wasteful for an in-process caller that wants thousands of requests in
//! flight at once (a load generator replaying a trace, say). This module
//! decouples *submitting* a request from *waiting* for its answer:
//!
//! * [`BatchServer::submit`](crate::BatchServer::submit) enqueues a
//!   request without blocking and returns a [`Ticket`];
//! * a [`CompletionQueue`] collects `(Ticket, Result<Prediction, _>)`
//!   pairs as the batch worker finishes them, consumed with
//!   [`poll`](CompletionQueue::poll) (non-blocking) or
//!   [`wait_with_timeout`](CompletionQueue::wait_with_timeout);
//! * [`cancel`](CompletionQueue::cancel) and
//!   [`close`](CompletionQueue::close) resolve tickets the caller no
//!   longer wants ([`ServeError::Canceled`] / [`ServeError::ShuttingDown`]).
//!
//! # Ticket state machine
//!
//! ```text
//! submit ──▶ Submitted ──▶ terminal: Completed     (Ok or the server's error)
//!                │
//!                ├───────▶ terminal: Canceled      (cancel, or the sender
//!                │                                  dropped)
//!                └───────▶ terminal: ShuttingDown  (close with the ticket
//!                                                   pending)
//! ```
//!
//! Every submitted ticket reaches **exactly one** terminal state, and
//! exactly one completion is delivered for it — this holds across
//! server shutdown (drain answers every queued ticket through the
//! model), worker panics (the unwound batch's tickets complete
//! `Canceled` when their senders drop), [`cancel`](CompletionQueue::cancel)
//! races, and [`close`](CompletionQueue::close). A result that arrives
//! after its ticket is already terminal is dropped and counted in
//! `serve.cq.late` rather than delivered twice.
//!
//! The queue itself never blocks producers: the batch worker appends to
//! an unbounded ready list (bounded in practice by the batch server's
//! `queue_capacity` — a ticket must have been admitted before it can
//! complete) and wakes sleepers on the internal condvar.
//!
//! The `replica_worker` event loop does not use this module: it runs
//! each batch on its own thread and writes the answers straight into its
//! connections' buffers, so only in-process callers count here.
//!
//! # Metrics
//!
//! `serve.cq.depth`/`serve.cq.peak` (outstanding tickets),
//! `serve.cq.ready` (delivered, not yet consumed),
//! `serve.cq.submitted`/`completed`/`canceled`/`drained`/`late`
//! counters, and the `serve.cq.latency_us.le_*` submit→terminal
//! histogram; see `docs/TRACING.md`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use trace::{Counter, Gauge};

use crate::error::ServeError;
use crate::service::Prediction;

static SUBMITTED: Counter = Counter::new("serve.cq.submitted");
static COMPLETED: Counter = Counter::new("serve.cq.completed");
static CANCELED: Counter = Counter::new("serve.cq.canceled");
static DRAINED: Counter = Counter::new("serve.cq.drained");
static LATE: Counter = Counter::new("serve.cq.late");
static DEPTH: Gauge = Gauge::new("serve.cq.depth");
static DEPTH_PEAK: Gauge = Gauge::new("serve.cq.peak");
static READY: Gauge = Gauge::new("serve.cq.ready");

static LATENCY_LE: [Counter; 7] = [
    Counter::new("serve.cq.latency_us.le_100"),
    Counter::new("serve.cq.latency_us.le_330"),
    Counter::new("serve.cq.latency_us.le_1000"),
    Counter::new("serve.cq.latency_us.le_3300"),
    Counter::new("serve.cq.latency_us.le_10000"),
    Counter::new("serve.cq.latency_us.le_33000"),
    Counter::new("serve.cq.latency_us.le_inf"),
];
const LATENCY_BOUNDS_US: [u128; 6] = [100, 330, 1_000, 3_300, 10_000, 33_000];

fn observe_latency(since_submit: Duration) {
    let us = since_submit.as_micros();
    let i = LATENCY_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(6);
    LATENCY_LE[i].incr();
}

/// Handle for one submitted request, returned by
/// [`BatchServer::submit`](crate::BatchServer::submit). Tickets are
/// meaningful only against the [`CompletionQueue`] they were submitted
/// with; ids are unique within that queue for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The queue-unique id (useful as a map key when matching
    /// completions back to their requests).
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One finished request: the ticket and its terminal result.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The ticket [`submit`](crate::BatchServer::submit) returned.
    pub ticket: Ticket,
    /// The terminal result — a prediction, or the same typed errors the
    /// blocking path produces (plus [`ServeError::ShuttingDown`] when
    /// [`CompletionQueue::close`] resolved the ticket).
    pub result: Result<Prediction, ServeError>,
}

#[derive(Default)]
struct CqState {
    /// Submit time of every ticket not yet terminal.
    outstanding: HashMap<u64, Instant>,
    ready: VecDeque<Completion>,
    closed: bool,
}

struct CqInner {
    state: Mutex<CqState>,
    wake: Condvar,
    ids: AtomicU64,
}

impl CqInner {
    fn lock(&self) -> MutexGuard<'_, CqState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Moves `id` to its terminal state, delivering `result` exactly
    /// once. Returns whether this call was the one that resolved the
    /// ticket (a late duplicate is dropped and counted instead).
    fn deliver(
        &self,
        id: u64,
        result: Result<Prediction, ServeError>,
        cause: &'static Counter,
    ) -> bool {
        let mut st = self.lock();
        let Some(submitted) = st.outstanding.remove(&id) else {
            LATE.incr();
            return false;
        };
        cause.incr();
        observe_latency(submitted.elapsed());
        st.ready.push_back(Completion {
            ticket: Ticket(id),
            result,
        });
        DEPTH.set(st.outstanding.len() as u64);
        READY.set(st.ready.len() as u64);
        self.wake.notify_all();
        true
    }
}

/// Completion-side sender for one ticket, carried through the batch
/// server's queue in place of a blocking reply channel. Consuming
/// [`send`](Self::send) delivers the terminal result; dropping it
/// unsent (server teardown) delivers [`ServeError::Canceled`] — either
/// way the ticket terminates exactly once.
pub(crate) struct CompletionSender {
    inner: Arc<CqInner>,
    id: u64,
    sent: bool,
}

impl CompletionSender {
    /// Delivers `result`. A `Canceled` result (the batch step answers a
    /// panicked batch so) counts as a cancellation, like a dropped sender.
    pub(crate) fn send(mut self, result: Result<Prediction, ServeError>) {
        self.sent = true;
        let cause = if matches!(result, Err(ServeError::Canceled)) {
            &CANCELED
        } else {
            &COMPLETED
        };
        self.inner.deliver(self.id, result, cause);
    }

    /// Whether the ticket is already terminal (canceled or closed out) —
    /// the worker uses this to skip compute for answers nobody will see.
    pub(crate) fn is_dead(&self) -> bool {
        !self.inner.lock().outstanding.contains_key(&self.id)
    }
}

impl Drop for CompletionSender {
    fn drop(&mut self) {
        if !self.sent {
            self.inner
                .deliver(self.id, Err(ServeError::Canceled), &CANCELED);
        }
    }
}

/// Delivery side of the non-blocking serving API: collects one
/// [`Completion`] per [`Ticket`] submitted against it.
///
/// Cloning is shallow — clones share the same queue, so one thread can
/// wait on a clone while another polls or cancels.
///
/// ```
/// use serve::CompletionQueue;
///
/// let cq = CompletionQueue::new();
/// // nothing submitted yet: poll is non-blocking and empty
/// assert!(cq.poll().is_none());
/// assert_eq!(cq.outstanding(), 0);
/// ```
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("CompletionQueue")
            .field("outstanding", &st.outstanding.len())
            .field("ready", &st.ready.len())
            .field("closed", &st.closed)
            .finish()
    }
}

impl CompletionQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CqInner {
                state: Mutex::new(CqState::default()),
                wake: Condvar::new(),
                ids: AtomicU64::new(1),
            }),
        }
    }

    /// Registers a new outstanding ticket, handing back the sender the
    /// batch server threads through its queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once [`close`](Self::close) has run.
    pub(crate) fn register(&self, now: Instant) -> Result<(Ticket, CompletionSender), ServeError> {
        let mut st = self.inner.lock();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        let id = self.inner.ids.fetch_add(1, Ordering::Relaxed);
        st.outstanding.insert(id, now);
        SUBMITTED.incr();
        DEPTH.set(st.outstanding.len() as u64);
        DEPTH_PEAK.set_max(st.outstanding.len() as u64);
        Ok((
            Ticket(id),
            CompletionSender {
                inner: Arc::clone(&self.inner),
                id,
                sent: false,
            },
        ))
    }

    /// Takes the oldest ready completion, never blocking.
    ///
    /// ```
    /// use serve::CompletionQueue;
    ///
    /// let cq = CompletionQueue::new();
    /// assert!(cq.poll().is_none());
    /// ```
    pub fn poll(&self) -> Option<Completion> {
        let mut st = self.inner.lock();
        let completion = st.ready.pop_front();
        if completion.is_some() {
            READY.set(st.ready.len() as u64);
        }
        completion
    }

    /// Like [`poll`](Self::poll), but sleeps up to `timeout` for a
    /// completion to arrive. Returns `None` on timeout, or immediately
    /// when nothing is ready *and* nothing is outstanding (sleeping
    /// could never be woken by a delivery).
    pub fn wait_with_timeout(&self, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            if let Some(completion) = st.ready.pop_front() {
                READY.set(st.ready.len() as u64);
                return Some(completion);
            }
            if st.outstanding.is_empty() {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .wake
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    /// Blocks until a completion is ready. Returns `None` only when the
    /// queue is empty *and* no ticket is outstanding — with a ticket in
    /// flight this always returns, because every ticket terminates
    /// (worst case [`ServeError::Canceled`] from a dropped sender).
    pub fn wait(&self) -> Option<Completion> {
        let mut st = self.inner.lock();
        loop {
            if let Some(completion) = st.ready.pop_front() {
                READY.set(st.ready.len() as u64);
                return Some(completion);
            }
            if st.outstanding.is_empty() {
                return None;
            }
            st = self
                .inner
                .wake
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Resolves a still-outstanding ticket with
    /// [`ServeError::Canceled`] *now*. Returns `true` when this call
    /// was what terminated it, `false` when the ticket was already
    /// terminal (its completion is or was already deliverable — there
    /// is no race in which both a cancel and a result are delivered).
    ///
    /// The batch server skips compute for canceled tickets it has not
    /// yet batched; a ticket already mid-batch still runs, and its late
    /// result is dropped.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        self.inner
            .deliver(ticket.0, Err(ServeError::Canceled), &CANCELED)
    }

    /// Drain-aware shutdown of the front-end: marks the queue closed
    /// (further registrations via `BatchServer::submit` fail with
    /// [`ServeError::ShuttingDown`]) and resolves every outstanding
    /// ticket with [`ServeError::ShuttingDown`], each exactly once.
    /// Completions already ready remain consumable; results that arrive
    /// later from the batch server are dropped as late. Idempotent.
    pub fn close(&self) {
        let ids: Vec<u64> = {
            let mut st = self.inner.lock();
            st.closed = true;
            st.outstanding.keys().copied().collect()
        };
        for id in ids {
            // deliver() re-checks under the lock, so a result racing in
            // between the snapshot above and here still wins exactly once
            self.inner
                .deliver(id, Err(ServeError::ShuttingDown), &DRAINED);
        }
    }

    /// Whether [`close`](Self::close) has run.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Tickets submitted but not yet terminal.
    pub fn outstanding(&self) -> usize {
        self.inner.lock().outstanding.len()
    }

    /// Completions delivered but not yet consumed.
    pub fn ready(&self) -> usize {
        self.inner.lock().ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn poll_empty_is_none() {
        let cq = CompletionQueue::new();
        assert!(cq.poll().is_none());
        assert_eq!(cq.outstanding(), 0);
        assert_eq!(cq.ready(), 0);
    }

    #[test]
    fn send_then_poll_round_trips() {
        let cq = CompletionQueue::new();
        let (ticket, sender) = cq.register(now()).unwrap();
        assert_eq!(cq.outstanding(), 1);
        sender.send(Err(ServeError::EmptyRecipe));
        assert_eq!(cq.outstanding(), 0);
        let completion = cq.poll().unwrap();
        assert_eq!(completion.ticket, ticket);
        assert_eq!(completion.result, Err(ServeError::EmptyRecipe));
        assert!(cq.poll().is_none());
    }

    #[test]
    fn dropped_sender_delivers_canceled_exactly_once() {
        let cq = CompletionQueue::new();
        let (ticket, sender) = cq.register(now()).unwrap();
        drop(sender);
        let completion = cq.poll().unwrap();
        assert_eq!(completion.ticket, ticket);
        assert_eq!(completion.result, Err(ServeError::Canceled));
        assert!(cq.poll().is_none());
    }

    #[test]
    fn cancel_beats_late_result() {
        let cq = CompletionQueue::new();
        let (ticket, sender) = cq.register(now()).unwrap();
        assert!(cq.cancel(ticket));
        assert!(!cq.cancel(ticket), "second cancel must be a no-op");
        assert!(sender.is_dead());
        // the "late result" arrives after cancellation: dropped, not queued
        sender.send(Err(ServeError::EmptyRecipe));
        let completion = cq.poll().unwrap();
        assert_eq!(completion.result, Err(ServeError::Canceled));
        assert!(cq.poll().is_none(), "late result must not double-deliver");
    }

    #[test]
    fn close_resolves_every_outstanding_ticket_once() {
        let cq = CompletionQueue::new();
        let mut senders = Vec::new();
        let mut tickets = Vec::new();
        for _ in 0..5 {
            let (t, s) = cq.register(now()).unwrap();
            tickets.push(t);
            senders.push(s);
        }
        cq.close();
        assert!(cq.is_closed());
        assert!(matches!(cq.register(now()), Err(ServeError::ShuttingDown)));
        let mut seen = Vec::new();
        while let Some(c) = cq.poll() {
            assert_eq!(c.result, Err(ServeError::ShuttingDown));
            seen.push(c.ticket);
        }
        seen.sort();
        assert_eq!(seen, tickets);
        // senders dropping afterwards must not re-deliver
        drop(senders);
        assert!(cq.poll().is_none());
        cq.close(); // idempotent
    }

    #[test]
    fn wait_with_timeout_times_out_and_wakes() {
        let cq = CompletionQueue::new();
        let (_ticket, sender) = cq.register(now()).unwrap();
        assert!(cq.wait_with_timeout(Duration::from_millis(20)).is_none());
        let waiter = {
            let cq = cq.clone();
            std::thread::spawn(move || cq.wait_with_timeout(Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        sender.send(Err(ServeError::EmptyRecipe));
        let completion = waiter.join().unwrap().expect("delivery wakes the waiter");
        assert_eq!(completion.result, Err(ServeError::EmptyRecipe));
        // nothing outstanding: both waits return immediately
        assert!(cq.wait_with_timeout(Duration::from_secs(10)).is_none());
        assert!(cq.wait().is_none());
    }
}
