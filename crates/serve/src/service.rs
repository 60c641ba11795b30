//! The batch server: a bounded request queue, a dynamic micro-batching
//! worker, and the feature cache, wired to `trace` metrics.
//!
//! # Batching policy
//!
//! Requests enqueue into a bounded queue (`queue_capacity`; beyond it
//! callers get [`ServeError::Overloaded`] immediately — backpressure, not
//! buffering). A single thread cuts batches work-conservingly: whenever
//! it is free and the queue is non-empty, it takes up to `max_batch`
//! queued requests and runs one fused forward pass for them at once.
//! That cut and pass are one synchronous batch step, generic over where
//! each answer goes; [`BatchServer`]'s worker thread runs it for
//! in-process callers, and the replica worker's event loop
//! (`crate::eventloop`) runs it on the loop's own thread. It never holds
//! a request back waiting for companions, so batches form only from
//! requests that arrived while the previous pass ran — a lone request on
//! an idle server is a batch of one, and batches grow with load. The cut is one in-place pass over the queue
//! that also answers every request already past its `deadline`
//! [`ServeError::DeadlineExceeded`] and drops requests whose ticket is
//! already terminal, so neither costs compute. Batching changes latency,
//! never answers: the fused pass is bit-identical to evaluating each
//! request alone (see `nn::infer` and the integration tests).
//!
//! # Parallel featurization
//!
//! Cache-miss featurization fans out across `tensor::pool` in two
//! passes. Pass 1 walks the batch **in request order**, probing and
//! reserving feature-cache slots so the cache performs exactly the
//! serial sequence of `get`/`insert` operations (same hits, same misses,
//! same LRU recency and eviction order — `cache_hit` flags and the
//! hit/miss counters are bit-identical to the serial path). Pass 2 fills
//! the freshly reserved slots in parallel, one pool tile per miss, each
//! writing its own [`OnceLock`] slot. Because `featurize` is pure
//! per-request work and every slot index is fixed by pass 1, answers and
//! cache state are identical at every `TENSOR_THREADS`.
//!
//! # Lifecycle
//!
//! [`BatchServer::start`] resolves the model name once (failing fast on
//! unknown names) and spawns the worker. The worker re-resolves the name
//! from the [`ModelRegistry`] before every batch, so a hot-swapped model
//! takes effect at the next batch boundary; the feature cache is keyed to
//! the model version and clears itself on swap. [`BatchServer::shutdown`]
//! (also run on drop) stops intake, drains every queued request, then
//! joins the worker.
//!
//! # Metrics
//!
//! With tracing enabled (`trace::enable`), the service maintains
//! `serve.queue.depth`/`serve.queue.peak` gauges, request/batch/reject
//! counters, a batch-size histogram (`serve.batch.le_*`) and a queue
//! latency histogram (`serve.latency_us.le_*`); see `docs/TRACING.md`.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trace::{Counter, Gauge};

use crate::cache::LruCache;
use crate::completion::{CompletionQueue, CompletionSender, Ticket};
use crate::error::ServeError;
use crate::model::Features;
use crate::registry::{LoadedModel, ModelRegistry};

static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");
static QUEUE_PEAK: Gauge = Gauge::new("serve.queue.peak");
static REQUESTS: Counter = Counter::new("serve.requests");
static BATCHES: Counter = Counter::new("serve.batches");
static REJECTED_OVERLOAD: Counter = Counter::new("serve.rejected.overloaded");
static REJECTED_DEADLINE: Counter = Counter::new("serve.rejected.deadline");
static CACHE_HITS: Counter = Counter::new("serve.cache.hits");
static CACHE_MISSES: Counter = Counter::new("serve.cache.misses");
static WORKER_PANICS: Counter = Counter::new("serve.worker.panics");

static BATCH_LE: [Counter; 7] = [
    Counter::new("serve.batch.le_1"),
    Counter::new("serve.batch.le_2"),
    Counter::new("serve.batch.le_4"),
    Counter::new("serve.batch.le_8"),
    Counter::new("serve.batch.le_16"),
    Counter::new("serve.batch.le_32"),
    Counter::new("serve.batch.le_inf"),
];
const BATCH_BOUNDS: [usize; 6] = [1, 2, 4, 8, 16, 32];

static LATENCY_LE: [Counter; 7] = [
    Counter::new("serve.latency_us.le_100"),
    Counter::new("serve.latency_us.le_330"),
    Counter::new("serve.latency_us.le_1000"),
    Counter::new("serve.latency_us.le_3300"),
    Counter::new("serve.latency_us.le_10000"),
    Counter::new("serve.latency_us.le_33000"),
    Counter::new("serve.latency_us.le_inf"),
];
const LATENCY_BOUNDS_US: [u128; 6] = [100, 330, 1_000, 3_300, 10_000, 33_000];

fn observe_batch(size: usize) {
    let i = BATCH_BOUNDS.iter().position(|&b| size <= b).unwrap_or(6);
    BATCH_LE[i].incr();
}

fn observe_latency(queued_for: Duration) {
    let us = queued_for.as_micros();
    let i = LATENCY_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(6);
    LATENCY_LE[i].incr();
}

/// Tuning knobs for the batching queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest fused batch (the worker drains at most this many requests
    /// per forward pass).
    pub max_batch: usize,
    /// Bounded queue size; requests beyond it are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Entries in the featurized-input LRU cache (0 disables it).
    ///
    /// The default comes from the Zipf(s = 1.07, 4096 distinct keys)
    /// capacity sweep in `serve_load` (see `cache@N` entries in
    /// `benchmarks/baselines/BENCH_serve.json`): hit rate climbs 0.82 →
    /// 0.90 going from 1024 to 2048 entries, and a cached feature vector
    /// is small (~100 B), so the larger table is cheap insurance against
    /// heavier-tailed request streams.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            queue_capacity: 256,
            cache_capacity: 2048,
        }
    }
}

impl ServeConfig {
    /// Checks every field is in range, naming the offending one in
    /// [`ServeError::InvalidConfig`] otherwise.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// A served prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Per-class probabilities (sum to 1).
    pub probs: Vec<f64>,
    /// Argmax of `probs` (first index on ties).
    pub top_class: usize,
    /// Version of the model that answered (see
    /// [`LoadedModel::version`](crate::LoadedModel::version)).
    pub model_version: u64,
    /// How many requests shared the fused forward pass.
    pub batch_size: usize,
    /// Whether the featurized input came from the LRU cache.
    pub cache_hit: bool,
}

/// One queued request, generic over where its answer goes: a
/// [`CompletionSender`] for in-process callers, a connection route in the
/// replica event loop.
pub(crate) struct Pending<R> {
    /// Canonical entity tokens (already cleaned and lemmatized).
    tokens: Vec<String>,
    /// Cache key: the canonical tokens joined with `\x1f`.
    key: String,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: R,
}

impl<R> Pending<R> {
    /// A request admitted at `now`; `deadline` bounds its time queued.
    pub(crate) fn new(
        tokens: Vec<String>,
        key: String,
        now: Instant,
        deadline: Option<Duration>,
        reply: R,
    ) -> Self {
        Self {
            tokens,
            key,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            reply,
        }
    }
}

/// Where a [`BatchStep`]'s answers go, one per [`Pending::reply`].
pub(crate) trait Replies<R> {
    /// Whether nobody will read `reply`'s answer; such a request leaves
    /// the next cut unanswered and uncomputed.
    fn gone(&mut self, reply: &R) -> bool;
    /// Delivers one request's terminal answer.
    fn answer(&mut self, reply: R, result: Result<Prediction, ServeError>);
}

/// In-process replies: each request's ticket sender.
struct Tickets;

impl Replies<CompletionSender> for Tickets {
    fn gone(&mut self, reply: &CompletionSender) -> bool {
        reply.is_dead()
    }

    fn answer(&mut self, reply: CompletionSender, result: Result<Prediction, ServeError>) {
        reply.send(result);
    }
}

/// Admission both serving paths share: a full queue answers
/// [`ServeError::Overloaded`] and admits nothing.
pub(crate) fn check_room<R>(
    queue: &VecDeque<Pending<R>>,
    capacity: usize,
) -> Result<(), ServeError> {
    if queue.len() >= capacity {
        REJECTED_OVERLOAD.incr();
        return Err(ServeError::Overloaded {
            depth: queue.len(),
            capacity,
        });
    }
    Ok(())
}

/// Appends an admitted request, keeping the depth gauges.
pub(crate) fn enqueue<R>(queue: &mut VecDeque<Pending<R>>, request: Pending<R>) {
    queue.push_back(request);
    QUEUE_DEPTH.set(queue.len() as u64);
    QUEUE_PEAK.set_max(queue.len() as u64);
    REQUESTS.incr();
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Pending<CompletionSender>>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    wake: Condvar,
    model_name: String,
    config: ServeConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A running batched-inference server for one registry entry.
pub struct BatchServer {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for BatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchServer")
            .field("model_name", &self.shared.model_name)
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl BatchServer {
    /// Spawns the batch worker serving `model_name` from `registry`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when a config field is out of range
    /// (nothing is spawned), and [`ServeError::UnknownModel`] when no
    /// model of that name is loaded. (Later hot-swaps are picked up
    /// automatically; only the initial resolution is checked here.)
    pub fn start(
        registry: Arc<ModelRegistry>,
        model_name: &str,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let step = BatchStep::new(registry, model_name, config.clone())?;
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            model_name: model_name.to_string(),
            config,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("serve-{model_name}"))
            .spawn(move || worker_loop(&worker_shared, step))
            .expect("spawn batch worker");
        Ok(Self {
            shared,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Classifies one recipe, blocking until a batch carries it through
    /// the model. `deadline` bounds the time the request may spend
    /// *queued*: a request still waiting when it expires is answered
    /// [`ServeError::DeadlineExceeded`] instead of riding the next batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRecipe`] when the text canonicalizes to no
    /// entity tokens, [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// has begun, [`ServeError::DeadlineExceeded`] as above, and
    /// [`ServeError::Canceled`] if the worker died.
    pub fn classify(
        &self,
        recipe: &str,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        let tokens = cuisine::featurize::entity_tokens(recipe);
        if tokens.is_empty() {
            return Err(ServeError::EmptyRecipe);
        }
        let key = tokens.join("\x1f");
        self.classify_prepared(tokens, key, deadline)
    }

    /// [`classify`](Self::classify) for callers that already canonicalized
    /// the recipe — `tokens` must be the output of
    /// `cuisine::featurize::entity_tokens` (non-empty) and `key` the
    /// tokens joined with `\x1f` — for callers that canonicalize once and
    /// both route and enqueue from the same tokens.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify), except [`ServeError::EmptyRecipe`]
    /// is never produced here (the caller checked).
    pub fn classify_prepared(
        &self,
        tokens: Vec<String>,
        key: String,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        // the blocking path is the non-blocking path plus a wait: one
        // private queue, one ticket, block until its terminal completion
        let cq = CompletionQueue::new();
        self.submit(tokens, key, deadline, &cq)?;
        cq.wait().map_or(Err(ServeError::Canceled), |c| c.result)
    }

    /// Enqueues one canonicalized request **without blocking** and
    /// returns a [`Ticket`]; the terminal result arrives on `cq` (see
    /// [`CompletionQueue`]). `tokens`/`key`/`deadline` mean exactly what
    /// they do in [`classify_prepared`](Self::classify_prepared), and the
    /// answer is bit-identical to the blocking path — both ride the same
    /// queue, worker, and fused forward pass.
    ///
    /// This is the front-end for in-process callers that keep many
    /// requests in flight from one thread: thousands of them cost a
    /// queue slot each, not a thread each.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use serve::{
    ///     BatchServer, CompletionQueue, Features, ModelRegistry, ServeConfig, ServingModel,
    /// };
    ///
    /// // a stand-in model so the example runs without a checkpoint dir
    /// struct Uniform;
    /// impl ServingModel for Uniform {
    ///     fn kind(&self) -> &'static str {
    ///         "uniform"
    ///     }
    ///     fn num_classes(&self) -> usize {
    ///         2
    ///     }
    ///     fn featurize(&self, tokens: &[String]) -> Features {
    ///         Features::Ids(vec![tokens.len()])
    ///     }
    ///     fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
    ///         batch.iter().map(|_| vec![0.5, 0.5]).collect()
    ///     }
    /// }
    ///
    /// let registry = Arc::new(ModelRegistry::new());
    /// registry.publish("uniform", Box::new(Uniform))?;
    /// let server = BatchServer::start(registry, "uniform", ServeConfig::default())?;
    ///
    /// let cq = CompletionQueue::new();
    /// let ticket = server.submit(vec!["soy".into()], "soy".into(), None, &cq)?;
    /// // ...submit more, handle other sockets, then collect:
    /// let done = cq.wait_with_timeout(std::time::Duration::from_secs(5)).unwrap();
    /// assert_eq!(done.ticket, ticket);
    /// assert_eq!(done.result?.probs, vec![0.5, 0.5]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Admission failures are synchronous — [`ServeError::Overloaded`]
    /// when the queue is full, [`ServeError::ShuttingDown`] when either
    /// the server or `cq` is shut down — and leave nothing outstanding.
    /// Everything that can fail *after* admission (deadline expiry,
    /// worker death, hot-swap races) arrives as the ticket's completion.
    pub fn submit(
        &self,
        tokens: Vec<String>,
        key: String,
        deadline: Option<Duration>,
        cq: &CompletionQueue,
    ) -> Result<Ticket, ServeError> {
        let now = Instant::now();
        let mut st = self.shared.lock();
        if st.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        check_room(&st.queue, self.shared.config.queue_capacity)?;
        let (ticket, reply) = cq.register(now)?;
        enqueue(
            &mut st.queue,
            Pending::new(tokens, key, now, deadline, reply),
        );
        // the worker sleeps only on an empty queue, so only the first
        // arrival can have a sleeper to wake
        if st.queue.len() == 1 {
            self.shared.wake.notify_one();
        }
        Ok(ticket)
    }

    /// Current number of queued (not yet batched) requests.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// The model name this server resolves on every batch.
    pub fn model_name(&self) -> &str {
        &self.shared.model_name
    }

    /// Stops intake, drains every queued request through the model, then
    /// joins the worker. Idempotent; called automatically on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutting_down = true;
            self.shared.wake.notify_all();
        }
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The synchronous batch step both serving paths share: the
/// [`BatchServer`] thread for in-process callers, and the replica event
/// loop, which runs it on its own thread. It owns the feature cache and
/// re-resolves the model from the registry before every batch.
pub(crate) struct BatchStep {
    registry: Arc<ModelRegistry>,
    model_name: String,
    config: ServeConfig,
    cache: LruCache<String, Arc<LazyFeatures>>,
    cache_version: u64,
}

impl BatchStep {
    /// A step serving `model_name` from `registry`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when a config field is out of range,
    /// and [`ServeError::UnknownModel`] when no model of that name is
    /// loaded.
    pub(crate) fn new(
        registry: Arc<ModelRegistry>,
        model_name: &str,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        if registry.get(model_name).is_none() {
            return Err(ServeError::UnknownModel(model_name.to_string()));
        }
        Ok(Self {
            registry,
            model_name: model_name.to_string(),
            cache: LruCache::new(config.cache_capacity),
            config,
            cache_version: 0,
        })
    }

    /// The config this step was built with.
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Loads `dir` into the registry under this step's model name, behind
    /// the registry's warmup gate; the next batch serves it.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::load`]; the serving version stays in place.
    pub(crate) fn reload(&self, dir: &Path) -> io::Result<Arc<LoadedModel>> {
        self.registry.load(&self.model_name, dir)
    }

    /// Cuts the next batch in one in-place pass over the queue: every
    /// request past its deadline is answered
    /// [`ServeError::DeadlineExceeded`], every request whose reply is
    /// [`gone`](Replies::gone) (no one is listening, so no forward pass
    /// is owed) is dropped, and up to `max_batch` of the live rest leave,
    /// oldest first, as the batch. Nothing is allocated besides the batch
    /// itself.
    pub(crate) fn cut<R>(
        &self,
        queue: &mut VecDeque<Pending<R>>,
        now: Instant,
        replies: &mut impl Replies<R>,
    ) -> Vec<Pending<R>> {
        let overdue = |p: &Pending<R>| p.deadline.is_some_and(|d| now >= d);
        // stable compaction: live requests slide to the front in arrival
        // order, the removed ones gather behind them
        let mut live = 0;
        for i in 0..queue.len() {
            let p = &queue[i];
            if !overdue(p) && !replies.gone(&p.reply) {
                queue.swap(live, i);
                live += 1;
            }
        }
        for p in queue.drain(live..) {
            if overdue(&p) {
                REJECTED_DEADLINE.incr();
                replies.answer(p.reply, Err(ServeError::DeadlineExceeded));
            }
            // else nobody is listening: dropping the request answers no one
        }
        let batch = queue.drain(..live.min(self.config.max_batch)).collect();
        QUEUE_DEPTH.set(queue.len() as u64);
        batch
    }

    /// Runs one cut batch through cache, featurize and one fused forward
    /// pass, answering every request; an empty batch runs nothing. A
    /// model panic is contained to the batch that triggered it: its
    /// requests are answered [`ServeError::Canceled`], the cache (which
    /// may have been mid-update) is cleared, and the step keeps serving.
    pub(crate) fn run<R>(&mut self, batch: Vec<Pending<R>>, replies: &mut impl Replies<R>) {
        if batch.is_empty() {
            // the cut found only expired or abandoned requests
            return;
        }
        let _span = trace::span("serve.batch");
        let now = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.forward(&batch)));
        let error = match outcome {
            Ok(Ok(Forward {
                version,
                rows,
                hits,
            })) => {
                let batch_size = batch.len();
                for ((p, row), hit) in batch.into_iter().zip(rows).zip(hits) {
                    observe_latency(now.saturating_duration_since(p.enqueued));
                    let top_class = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                        .map_or(0, |(i, _)| i);
                    replies.answer(
                        p.reply,
                        Ok(Prediction {
                            probs: row,
                            top_class,
                            model_version: version,
                            batch_size,
                            cache_hit: hit,
                        }),
                    );
                }
                return;
            }
            Ok(Err(error)) => error,
            Err(_) => {
                WORKER_PANICS.incr();
                self.cache.clear();
                ServeError::Canceled
            }
        };
        for p in batch {
            replies.answer(p.reply, Err(error.clone()));
        }
    }

    /// Featurizes `batch` through the cache and runs the fused pass.
    fn forward<R>(&mut self, batch: &[Pending<R>]) -> Result<Forward, ServeError> {
        let Some(loaded) = self.registry.get(&self.model_name) else {
            return Err(ServeError::UnknownModel(self.model_name.clone()));
        };
        if loaded.version() != self.cache_version {
            // hot swap: cached features may not match the new model's
            // vocabulary or vectorizer — start cold
            self.cache.clear();
            self.cache_version = loaded.version();
        }

        let model = loaded.model();
        // pass 1 (serial, request order): probe the cache and reserve a
        // slot per miss, replicating the serial path's exact get/insert
        // sequence — a key repeated within the batch hits the slot its
        // first occurrence reserved, and evictions fall in the same order
        // they would serially
        let mut hits = vec![false; batch.len()];
        let mut fresh: Vec<usize> = Vec::new();
        let slots: Vec<Arc<LazyFeatures>> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if let Some(slot) = self.cache.get(&p.key) {
                    CACHE_HITS.incr();
                    hits[i] = true;
                    return Arc::clone(slot);
                }
                CACHE_MISSES.incr();
                let slot = Arc::new(LazyFeatures(OnceLock::new()));
                self.cache.insert(p.key.clone(), Arc::clone(&slot));
                fresh.push(i);
                slot
            })
            .collect();
        // pass 2 (parallel): featurize the misses across the tensor pool,
        // one tile per miss writing its own pre-reserved slot. featurize
        // is pure per-request work, so tile→slot being fixed by pass 1
        // makes the result bit-identical at every TENSOR_THREADS (a
        // single miss, or a busy/absent pool, runs inline on this thread)
        if !fresh.is_empty() {
            let misses: Vec<&[String]> = fresh.iter().map(|&i| &batch[i].tokens[..]).collect();
            tensor::pool::global().run(fresh.len(), &|t| {
                let _ = slots[fresh[t]].0.set(model.featurize(misses[t]));
            });
        }
        let refs: Vec<&Features> = slots.iter().map(|s| s.get()).collect();

        let rows = model.predict(&refs);
        debug_assert_eq!(rows.len(), batch.len());
        BATCHES.incr();
        observe_batch(batch.len());
        Ok(Forward {
            version: loaded.version(),
            rows,
            hits,
        })
    }
}

/// One batch's fused pass: the answering model version, a probability
/// row per request, and whether each request's features came from the
/// cache.
struct Forward {
    version: u64,
    rows: Vec<Vec<f64>>,
    hits: Vec<bool>,
}

/// A feature-cache slot whose value may still be in flight: pass 1 of
/// [`BatchStep::forward`] reserves slots in exact serial LRU order, pass
/// 2 fills the fresh ones in parallel on the tensor pool. Slots cached
/// from earlier batches are always filled.
struct LazyFeatures(OnceLock<Features>);

impl LazyFeatures {
    fn get(&self) -> &Features {
        self.0
            .get()
            .expect("pool.run returns only after every reserved slot is filled")
    }
}

fn worker_loop(shared: &Shared, mut step: BatchStep) {
    loop {
        let batch = {
            let mut st = shared.lock();
            loop {
                // sleep until there is work or a shutdown to finish
                while st.queue.is_empty() {
                    if st.shutting_down {
                        // the queue is drained for good: leave the depth
                        // gauge at 0 rather than whatever the last
                        // enqueue wrote
                        QUEUE_DEPTH.set(0);
                        return;
                    }
                    st = shared
                        .wake
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                // work-conserving cut: the worker is free, so whatever
                // is queued goes now rather than waiting for company
                let batch = step.cut(&mut st.queue, Instant::now(), &mut Tickets);
                if !batch.is_empty() {
                    break batch;
                }
                // everything queued had expired or was canceled
            }
        };
        step.run(batch, &mut Tickets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelManifest, ServingModel};
    use nn::{save_checkpoint, LstmClassifier, LstmConfig, LstmPooling, SequenceModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::Path;
    use textproc::Vocabulary;

    fn vocab() -> Vocabulary {
        Vocabulary::from_tokens(
            ["stir", "onion", "bake", "simmer", "garlic", "rice"].map(String::from),
        )
    }

    fn config() -> LstmConfig {
        LstmConfig {
            vocab: 11,
            emb_dim: 4,
            hidden: 5,
            layers: 1,
            dropout: 0.0,
            classes: 3,
            pooling: LstmPooling::LastHidden,
        }
    }

    fn write_model(dir: &Path, seed: u64) -> LstmClassifier {
        std::fs::create_dir_all(dir).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = LstmClassifier::new(config(), &mut rng);
        ModelManifest::lstm(&config(), &vocab()).save(dir).unwrap();
        save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();
        model
    }

    fn server(dir: &Path, serve_config: ServeConfig) -> (Arc<ModelRegistry>, BatchServer) {
        let registry = Arc::new(ModelRegistry::new());
        registry.load("lstm", dir).unwrap();
        let server = BatchServer::start(Arc::clone(&registry), "lstm", serve_config).unwrap();
        (registry, server)
    }

    #[test]
    fn single_request_roundtrip() {
        let dir = std::env::temp_dir().join("serve_service_single");
        let _ = std::fs::remove_dir_all(&dir);
        let reference = write_model(&dir, 1);
        let (_registry, server) = server(&dir, ServeConfig::default());
        let got = server.classify("stir, onion", None).unwrap();
        let v = vocab();
        let seq = [
            v.id("stir").unwrap() as usize,
            v.id("onion").unwrap() as usize,
        ];
        let expected = nn::predict_proba_graph(&reference, &[&seq]);
        assert_eq!(got.probs, expected[0]);
        assert_eq!(
            got.top_class,
            expected[0]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_recipe_is_rejected_before_enqueue() {
        let dir = std::env::temp_dir().join("serve_service_empty");
        let _ = std::fs::remove_dir_all(&dir);
        write_model(&dir, 2);
        let (_registry, server) = server(&dir, ServeConfig::default());
        assert_eq!(
            server.classify(" ,, ; ", None),
            Err(ServeError::EmptyRecipe)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_model_fails_fast() {
        let registry = Arc::new(ModelRegistry::new());
        let err = BatchServer::start(registry, "ghost", ServeConfig::default()).unwrap_err();
        assert_eq!(err, ServeError::UnknownModel("ghost".into()));
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let registry = Arc::new(ModelRegistry::new());
        let err = BatchServer::start(
            Arc::clone(&registry),
            "any",
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidConfig(ref m) if m.contains("max_batch")),
            "{err:?}"
        );
        let err = BatchServer::start(
            registry,
            "any",
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidConfig(ref m) if m.contains("queue_capacity")),
            "{err:?}"
        );
    }

    /// Records the features of every request that reaches `predict`,
    /// whose forward pass blocks until the test opens the gate — holds
    /// the worker busy inside a batch for as long as a test needs.
    struct GatedModel {
        open: Arc<(Mutex<bool>, Condvar)>,
        predicted: Arc<Mutex<Vec<Features>>>,
    }

    impl ServingModel for GatedModel {
        fn kind(&self) -> &'static str {
            "gated"
        }

        fn num_classes(&self) -> usize {
            2
        }

        fn featurize(&self, tokens: &[String]) -> Features {
            Features::Ids(vec![tokens.len()])
        }

        fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
            let (lock, cvar) = &*self.open;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            let mut predicted = self.predicted.lock().unwrap();
            predicted.extend(batch.iter().map(|f| (*f).clone()));
            batch.iter().map(|_| vec![0.5, 0.5]).collect()
        }
    }

    fn tokens(n: usize) -> (Vec<String>, String) {
        let tokens: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let key = tokens.join("\x1f");
        (tokens, key)
    }

    #[test]
    fn deadline_passing_while_the_worker_is_busy_never_reaches_predict() {
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let predicted = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::new(ModelRegistry::new());
        // warmup would block on the closed gate
        registry.set_warmup(false);
        registry
            .publish(
                "gated",
                Box::new(GatedModel {
                    open: Arc::clone(&open),
                    predicted: Arc::clone(&predicted),
                }),
            )
            .unwrap();
        let server = BatchServer::start(registry, "gated", ServeConfig::default()).unwrap();
        let cq = CompletionQueue::new();

        // one request occupies the worker inside the gated forward pass
        let (t, k) = tokens(1);
        let busy = server.submit(t, k, None, &cq).unwrap();
        let give_up = Instant::now() + Duration::from_secs(10);
        while server.queue_depth() > 0 {
            assert!(Instant::now() < give_up, "worker never cut the batch");
            std::thread::yield_now();
        }
        // behind it: one request whose deadline runs out while it waits,
        // and one its caller cancels
        let deadline = Duration::from_millis(5);
        let (t, k) = tokens(2);
        let doomed = server.submit(t, k, Some(deadline), &cq).unwrap();
        let submitted = Instant::now();
        let (t, k) = tokens(3);
        let canceled = server.submit(t, k, None, &cq).unwrap();
        assert!(cq.cancel(canceled));
        while submitted.elapsed() <= deadline {
            std::thread::sleep(deadline);
        }
        let (lock, cvar) = &*open;
        *lock.lock().unwrap() = true;
        cvar.notify_all();

        let mut results = std::collections::HashMap::new();
        for _ in 0..3 {
            let done = cq.wait_with_timeout(Duration::from_secs(10)).unwrap();
            results.insert(done.ticket, done.result);
        }
        assert_eq!(results[&busy].as_ref().unwrap().batch_size, 1);
        assert_eq!(results[&doomed], Err(ServeError::DeadlineExceeded));
        assert_eq!(results[&canceled], Err(ServeError::Canceled));
        // only the request that was running ever reached the model
        assert_eq!(*predicted.lock().unwrap(), vec![Features::Ids(vec![1])]);
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_reported() {
        let dir = std::env::temp_dir().join("serve_service_deadline");
        let _ = std::fs::remove_dir_all(&dir);
        write_model(&dir, 3);
        let (_registry, server) = server(
            &dir,
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        // a zero deadline is already expired when the worker picks it up
        assert_eq!(
            server.classify("stir", Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded)
        );
        // a generous deadline still gets served
        assert!(server
            .classify("stir", Some(Duration::from_secs(30)))
            .is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_requests_hit_the_feature_cache() {
        let dir = std::env::temp_dir().join("serve_service_cache");
        let _ = std::fs::remove_dir_all(&dir);
        write_model(&dir, 4);
        let (_registry, server) = server(&dir, ServeConfig::default());
        let first = server.classify("Garlic, RICE", None).unwrap();
        assert!(!first.cache_hit);
        // same canonical key despite different punctuation noise
        let second = server.classify("garlic,rice!", None).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.probs, second.probs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn classify_after_shutdown_is_rejected() {
        let dir = std::env::temp_dir().join("serve_service_shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        write_model(&dir, 5);
        let (_registry, server) = server(&dir, ServeConfig::default());
        server.shutdown();
        assert_eq!(server.classify("stir", None), Err(ServeError::ShuttingDown));
        server.shutdown(); // idempotent
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hot_swap_changes_answers_between_batches() {
        let dir = std::env::temp_dir().join("serve_service_hotswap");
        let _ = std::fs::remove_dir_all(&dir);
        write_model(&dir, 6);
        let (registry, server) = server(&dir, ServeConfig::default());
        let before = server.classify("stir, bake", None).unwrap();

        let swapped = write_model(&dir, 7);
        registry.load("lstm", &dir).unwrap();
        let after = server.classify("stir, bake", None).unwrap();
        assert!(after.model_version > before.model_version);
        assert!(!after.cache_hit, "swap must invalidate the feature cache");
        let v = vocab();
        let seq = [
            v.id("stir").unwrap() as usize,
            v.id("bake").unwrap() as usize,
        ];
        assert_eq!(after.probs, nn::predict_proba_graph(&swapped, &[&seq])[0]);
        assert_ne!(before.probs, after.probs);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
