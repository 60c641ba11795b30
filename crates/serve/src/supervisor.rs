//! The worker supervisor: spawns N `replica_worker` processes, health
//! checks them over the wire protocol, and respawns the ones that crash
//! or hang — the process-isolation layer above
//! [`transport`](crate::transport).
//!
//! # Slot state machine
//!
//! Each worker slot cycles through three phases:
//!
//! ```text
//!            spawn                    exit / hang detected
//!   Backoff ───────▶ Up ───────────────────────────────▶ Backoff
//!      │                                                    │
//!      │  breaker: ≥ breaker_limit respawns                 │
//!      └──────────── inside breaker_window ◀────────────────┘
//!                          │
//!                          ▼
//!                       Broken  (terminal; slot gets no more respawns)
//! ```
//!
//! * **Up** — the process is running. The supervise thread `try_wait`s
//!   it every tick (a reaped exit means a crash) and pings it every
//!   [`SupervisorConfig::ping_interval`]; [`SupervisorConfig::ping_strikes`]
//!   consecutive ping failures after the
//!   [`SupervisorConfig::start_grace`] warmup window mean the process is
//!   alive-but-hung, and it is killed like a crash.
//! * **Backoff** — the slot waits out a decorrelated-jitter backoff
//!   (AWS style: `sleep = min(cap, rand(base, 3 × prev))`, seeded and
//!   per-slot) before the next spawn, so a crashing fleet doesn't
//!   respawn in lockstep and a crash loop doesn't busy-spin.
//! * **Broken** — the circuit breaker opened:
//!   [`SupervisorConfig::breaker_limit`] respawns landed inside
//!   [`SupervisorConfig::breaker_window`]. The slot is abandoned (the
//!   router keeps routing around its dead socket); a human or a deploy
//!   of a fixed binary is the only way back.
//!
//! Crashes and respawns are *normal operation* here: the router ejects
//! the dead replica on the first [`ServeError::Transport`] answer,
//! traffic fails over to ring neighbors, and the respawned worker —
//! which re-runs the registry's full warmup gate before binding its
//! socket — is reinstated by the router's next successful probe. Zero
//! answers are lost to a `kill -9` beyond the in-flight requests on the
//! dead process, and those fail over and are answered (identically) by a
//! neighbor.
//!
//! # Rolling deploys
//!
//! [`Supervisor::deploy`] is the fleet's one deploy routine. The
//! checkpoint is gate-loaded once in the supervisor's own process (the
//! pre-promotion gate — a bad checkpoint dies here, no worker sees it),
//! then each Up worker reloads it through a `Reload` frame, which runs
//! the worker-side warmup gate again before publishing. A failure
//! mid-roll reloads the previous checkpoint on every already-promoted
//! worker. Workers that respawn later load whatever directory the last
//! successful deploy promoted. A worker that respawns *during* the roll
//! loads the previous directory and is missing from the roll's snapshot
//! of Up slots, so once respawns point at the new directory, every slot
//! spawned since the snapshot reloads it before `deploy` returns. One
//! deploy runs at a time: a second call waits for the first to finish,
//! so two rolls never interleave their reloads and leave the workers on
//! different checkpoints.
//!
//! # Metrics
//!
//! `serve.supervisor.respawns` / `.crashes` / `.hangs` /
//! `.breaker_opens` / `.deploys` / `.rollbacks` counters and per-slot
//! `serve.supervisor.slot_{i}.state` gauges (2 = Up, 1 = Backoff,
//! 0 = Broken or shut down); see `docs/TRACING.md`.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trace::{Counter, Gauge};

use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::router::{splitmix64, ReplicaHandle, ReplicaRouter, RouterConfig};
use crate::service::ServeConfig;
use crate::transport::RemoteReplica;

static RESPAWNS: Counter = Counter::new("serve.supervisor.respawns");
static CRASHES: Counter = Counter::new("serve.supervisor.crashes");
static HANGS: Counter = Counter::new("serve.supervisor.hangs");
static BREAKER_OPENS: Counter = Counter::new("serve.supervisor.breaker_opens");
static DEPLOYS: Counter = Counter::new("serve.supervisor.deploys");
static ROLLBACKS: Counter = Counter::new("serve.supervisor.rollbacks");

/// Most workers one supervisor will run (bounded by the static per-slot
/// gauge table below — metric names must be static strings).
pub const MAX_WORKERS: usize = 8;

static SLOT_STATE: [Gauge; MAX_WORKERS] = [
    Gauge::new("serve.supervisor.slot_0.state"),
    Gauge::new("serve.supervisor.slot_1.state"),
    Gauge::new("serve.supervisor.slot_2.state"),
    Gauge::new("serve.supervisor.slot_3.state"),
    Gauge::new("serve.supervisor.slot_4.state"),
    Gauge::new("serve.supervisor.slot_5.state"),
    Gauge::new("serve.supervisor.slot_6.state"),
    Gauge::new("serve.supervisor.slot_7.state"),
];

/// Where a worker slot currently is in the supervise state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerPhase {
    /// Process spawned and (as far as the supervisor knows) running.
    Up,
    /// Crashed or hung; waiting out the respawn backoff.
    Backoff,
    /// Circuit breaker open: too many respawns in the window. Terminal.
    Broken,
}

impl WorkerPhase {
    fn gauge_value(self) -> u64 {
        match self {
            WorkerPhase::Up => 2,
            WorkerPhase::Backoff => 1,
            WorkerPhase::Broken => 0,
        }
    }
}

/// Tuning knobs for a supervised worker fleet.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Path to the `replica_worker` binary.
    pub worker_bin: PathBuf,
    /// Worker processes to run (at most [`MAX_WORKERS`]).
    pub workers: usize,
    /// Checkpoint directory workers load on spawn (later deploys move
    /// this forward for respawns).
    pub model_dir: PathBuf,
    /// Registry name workers serve under.
    pub model_name: String,
    /// Directory for the unix sockets (`worker-{i}.sock`); created if
    /// missing. Keep it short — `sockaddr_un` paths are ~100 bytes.
    pub socket_dir: PathBuf,
    /// Per-worker batch server config, forwarded on the command line.
    pub serve: ServeConfig,
    /// Transport margin for client calls (see [`RemoteReplica::new`]).
    pub io_timeout: Duration,
    /// How often the supervise thread pings each Up worker.
    pub ping_interval: Duration,
    /// How long one ping may take before it counts as failed.
    pub ping_timeout: Duration,
    /// Consecutive failed pings (after `start_grace`) before a live
    /// process is declared hung and killed.
    pub ping_strikes: u32,
    /// How long after a spawn ping failures are forgiven — the worker is
    /// loading and warmup-gating its checkpoint and hasn't bound the
    /// socket yet. Also the per-worker budget for deploy reloads.
    pub start_grace: Duration,
    /// Backoff floor for the first respawn after a crash.
    pub backoff_base: Duration,
    /// Backoff ceiling for a persistent crash loop.
    pub backoff_cap: Duration,
    /// Sliding window for the crash-loop circuit breaker.
    pub breaker_window: Duration,
    /// Respawns inside `breaker_window` that open the breaker.
    pub breaker_limit: usize,
    /// Seed for per-slot backoff jitter (deterministic under test).
    pub jitter_seed: u64,
    /// Extra environment for spawned workers (fault injection in tests).
    pub worker_env: Vec<(String, String)>,
}

impl SupervisorConfig {
    /// A config with production defaults; the caller supplies the three
    /// paths that have no sensible default.
    pub fn new(
        worker_bin: impl Into<PathBuf>,
        model_dir: impl Into<PathBuf>,
        socket_dir: impl Into<PathBuf>,
    ) -> Self {
        Self {
            worker_bin: worker_bin.into(),
            workers: 4,
            model_dir: model_dir.into(),
            model_name: "model".into(),
            socket_dir: socket_dir.into(),
            serve: ServeConfig::default(),
            io_timeout: Duration::from_secs(2),
            ping_interval: Duration::from_millis(100),
            ping_timeout: Duration::from_millis(500),
            ping_strikes: 3,
            start_grace: Duration::from_secs(10),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_window: Duration::from_secs(10),
            breaker_limit: 5,
            jitter_seed: 0x50c4_e7f1_ee7b_ac0f,
            worker_env: Vec::new(),
        }
    }

    /// Checks every field is in range, naming the offending one in
    /// [`ServeError::InvalidConfig`] otherwise.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers must be at least 1".into(),
            ));
        }
        if self.workers > MAX_WORKERS {
            return Err(ServeError::InvalidConfig(format!(
                "workers must be at most {MAX_WORKERS}"
            )));
        }
        if self.backoff_base.is_zero() {
            return Err(ServeError::InvalidConfig(
                "backoff_base must be nonzero".into(),
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(ServeError::InvalidConfig(
                "backoff_cap must be at least backoff_base".into(),
            ));
        }
        if self.breaker_limit == 0 {
            return Err(ServeError::InvalidConfig(
                "breaker_limit must be at least 1".into(),
            ));
        }
        if self.ping_strikes == 0 {
            return Err(ServeError::InvalidConfig(
                "ping_strikes must be at least 1".into(),
            ));
        }
        self.serve.validate()
    }
}

/// One decorrelated-jitter backoff draw:
/// `min(cap, rand_between(base, 3 × prev))` (never below `base`).
fn decorrelated_backoff(base: Duration, cap: Duration, prev: Duration, rng: &mut u64) -> Duration {
    let base_ns = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let hi_ns = (prev.as_nanos().min(u128::from(u64::MAX)) as u64)
        .saturating_mul(3)
        .max(base_ns);
    let span = hi_ns - base_ns;
    let draw = if span == 0 {
        base_ns
    } else {
        base_ns + splitmix64(rng) % (span + 1)
    };
    Duration::from_nanos(draw).min(cap)
}

struct Slot {
    replica: Arc<RemoteReplica>,
    socket: PathBuf,
    child: Option<Child>,
    phase: WorkerPhase,
    spawned_at: Instant,
    last_ping: Instant,
    ping_failures: u32,
    respawn_at: Option<Instant>,
    prev_backoff: Duration,
    rng: u64,
    /// Respawn instants inside the breaker window.
    respawns: VecDeque<Instant>,
}

impl Slot {
    fn set_phase(&mut self, index: usize, phase: WorkerPhase) {
        self.phase = phase;
        if index < MAX_WORKERS {
            SLOT_STATE[index].set(phase.gauge_value());
        }
    }
}

struct Inner {
    config: SupervisorConfig,
    slots: Mutex<Vec<Slot>>,
    /// The checkpoint respawned workers load: moved forward by each
    /// successful [`Supervisor::deploy`].
    model_dir: Mutex<PathBuf>,
    stop: AtomicBool,
}

impl Inner {
    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn current_model_dir(&self) -> PathBuf {
        self.model_dir
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn set_model_dir(&self, dir: &Path) {
        *self
            .model_dir
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = dir.to_path_buf();
    }
}

fn spawn_worker(
    config: &SupervisorConfig,
    model_dir: &Path,
    socket: &Path,
) -> std::io::Result<Child> {
    // a stale socket file from a previous (killed) worker would make the
    // fresh worker's bind fail
    let _ = fs::remove_file(socket);
    let mut cmd = Command::new(&config.worker_bin);
    cmd.arg("--socket")
        .arg(socket)
        .arg("--model-dir")
        .arg(model_dir)
        .arg("--model-name")
        .arg(&config.model_name)
        .arg("--max-batch")
        .arg(config.serve.max_batch.to_string())
        .arg("--queue-capacity")
        .arg(config.serve.queue_capacity.to_string())
        .arg("--cache-capacity")
        .arg(config.serve.cache_capacity.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    for (key, value) in &config.worker_env {
        cmd.env(key, value);
    }
    cmd.spawn()
}

/// Sends a crash (or hang-kill) into the backoff/breaker machinery.
fn schedule_respawn(slot: &mut Slot, index: usize, config: &SupervisorConfig, now: Instant) {
    while let Some(&front) = slot.respawns.front() {
        if now.saturating_duration_since(front) > config.breaker_window {
            slot.respawns.pop_front();
        } else {
            break;
        }
    }
    if slot.respawns.len() >= config.breaker_limit {
        BREAKER_OPENS.incr();
        slot.set_phase(index, WorkerPhase::Broken);
        slot.respawn_at = None;
        return;
    }
    let wait = decorrelated_backoff(
        config.backoff_base,
        config.backoff_cap,
        slot.prev_backoff,
        &mut slot.rng,
    );
    slot.prev_backoff = wait;
    slot.respawn_at = Some(now + wait);
    slot.set_phase(index, WorkerPhase::Backoff);
}

fn supervise_tick(inner: &Inner) {
    let mut slots = inner.lock_slots();
    // read the clock under the lock: a spawn is then stamped after any
    // deploy snapshot that came before it (see `Supervisor::deploy`)
    let now = Instant::now();
    for i in 0..slots.len() {
        let slot = &mut slots[i];
        match slot.phase {
            WorkerPhase::Up => {
                let exited = slot
                    .child
                    .as_mut()
                    .and_then(|child| child.try_wait().ok().flatten());
                if exited.is_some() {
                    CRASHES.incr();
                    slot.child = None;
                    schedule_respawn(slot, i, &inner.config, now);
                    continue;
                }
                if now.saturating_duration_since(slot.last_ping) < inner.config.ping_interval {
                    continue;
                }
                slot.last_ping = now;
                match slot.replica.ping(inner.config.ping_timeout) {
                    Ok(_) => {
                        slot.ping_failures = 0;
                        // a worker that answers pings has proven the last
                        // (re)spawn good: backoff restarts from the floor
                        slot.prev_backoff = inner.config.backoff_base;
                    }
                    Err(_) => {
                        if now.saturating_duration_since(slot.spawned_at)
                            <= inner.config.start_grace
                        {
                            continue; // still loading + warmup-gating
                        }
                        slot.ping_failures += 1;
                        if slot.ping_failures >= inner.config.ping_strikes {
                            // alive but unresponsive: treat like a crash
                            HANGS.incr();
                            if let Some(child) = slot.child.as_mut() {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                            slot.child = None;
                            schedule_respawn(slot, i, &inner.config, now);
                        }
                    }
                }
            }
            WorkerPhase::Backoff => {
                if slot.respawn_at.is_some_and(|at| now >= at) {
                    let model_dir = inner.current_model_dir();
                    match spawn_worker(&inner.config, &model_dir, &slot.socket) {
                        Ok(child) => {
                            RESPAWNS.incr();
                            slot.respawns.push_back(now);
                            slot.child = Some(child);
                            slot.spawned_at = now;
                            slot.last_ping = now;
                            slot.ping_failures = 0;
                            slot.respawn_at = None;
                            slot.set_phase(i, WorkerPhase::Up);
                        }
                        Err(_) => {
                            // exec failure is a crash that never got a pid
                            CRASHES.incr();
                            schedule_respawn(slot, i, &inner.config, now);
                        }
                    }
                }
            }
            WorkerPhase::Broken => {}
        }
    }
}

/// Owns N worker processes serving one model over unix sockets: spawn,
/// health-check, respawn-with-backoff, circuit-break, and roll deploys.
/// See the module docs for the state machine.
pub struct Supervisor {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
    /// Held for the whole of [`Supervisor::deploy`]: one roll at a time.
    deploy_lock: Mutex<()>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Spawns the worker fleet and the supervise thread. Returns as soon
    /// as every process is forked — use [`wait_all_up`](Self::wait_all_up)
    /// to block until the workers have loaded, warmup-gated, and bound
    /// their sockets.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for out-of-range config;
    /// [`ServeError::Internal`] when the socket directory cannot be
    /// created or a worker fails to spawn (already-spawned workers are
    /// killed before returning).
    pub fn start(config: SupervisorConfig) -> Result<Self, ServeError> {
        config.validate()?;
        fs::create_dir_all(&config.socket_dir).map_err(|e| {
            ServeError::Internal(format!(
                "create socket dir {}: {e}",
                config.socket_dir.display()
            ))
        })?;
        let now = Instant::now();
        let mut slots: Vec<Slot> = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let socket = config.socket_dir.join(format!("worker-{i}.sock"));
            let child = match spawn_worker(&config, &config.model_dir, &socket) {
                Ok(child) => child,
                Err(e) => {
                    for slot in &mut slots {
                        if let Some(child) = slot.child.as_mut() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return Err(ServeError::Internal(format!("spawn worker {i}: {e}")));
                }
            };
            let replica = Arc::new(RemoteReplica::new(
                socket.clone(),
                format!("worker-{i}"),
                config.io_timeout,
            ));
            let mut rng = config.jitter_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            splitmix64(&mut rng); // decouple the first draw from the raw seed
            let mut slot = Slot {
                replica,
                socket,
                child: Some(child),
                phase: WorkerPhase::Up,
                spawned_at: now,
                last_ping: now,
                ping_failures: 0,
                respawn_at: None,
                prev_backoff: config.backoff_base,
                rng,
                respawns: VecDeque::new(),
            };
            slot.set_phase(i, WorkerPhase::Up);
            slots.push(slot);
        }
        let inner = Arc::new(Inner {
            model_dir: Mutex::new(config.model_dir.clone()),
            config,
            slots: Mutex::new(slots),
            stop: AtomicBool::new(false),
        });
        let tick_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || {
                while !tick_inner.stop.load(Ordering::Relaxed) {
                    supervise_tick(&tick_inner);
                    std::thread::sleep(Duration::from_millis(15));
                }
            })
            .map_err(|e| ServeError::Internal(format!("spawn supervise thread: {e}")))?;
        Ok(Self {
            inner,
            thread: Some(thread),
            deploy_lock: Mutex::new(()),
        })
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// The unix socket path for each slot.
    pub fn socket_paths(&self) -> Vec<PathBuf> {
        self.inner
            .lock_slots()
            .iter()
            .map(|s| s.socket.clone())
            .collect()
    }

    /// One shared [`RemoteReplica`] per slot (the same handles the
    /// supervise thread pings — callers and supervisor share connection
    /// pools).
    pub fn handles(&self) -> Vec<Arc<RemoteReplica>> {
        self.inner
            .lock_slots()
            .iter()
            .map(|s| Arc::clone(&s.replica))
            .collect()
    }

    /// Builds a [`ReplicaRouter`] over this fleet's handles (ring
    /// placement, health, shedding, and failover).
    ///
    /// # Errors
    ///
    /// As [`ReplicaRouter::from_handles`].
    pub fn router(&self, config: RouterConfig) -> Result<ReplicaRouter, ServeError> {
        let handles = self
            .handles()
            .into_iter()
            .map(|h| h as Arc<dyn ReplicaHandle>)
            .collect();
        ReplicaRouter::from_handles(&self.inner.config.model_name, handles, config)
    }

    /// Current phase of each slot.
    pub fn phases(&self) -> Vec<WorkerPhase> {
        self.inner.lock_slots().iter().map(|s| s.phase).collect()
    }

    /// The pid of slot `index`'s process, if one is running.
    pub fn worker_pid(&self, index: usize) -> Option<u32> {
        self.inner.lock_slots()[index].child.as_ref().map(Child::id)
    }

    /// `kill -9`s slot `index`'s process (fault injection / tests). The
    /// supervise thread notices the exit and respawns through the normal
    /// backoff path. Returns the killed pid, or `None` if the slot had
    /// no live process.
    pub fn kill_worker(&self, index: usize) -> Option<u32> {
        let mut slots = self.inner.lock_slots();
        let child = slots[index].child.as_mut()?;
        let pid = child.id();
        // Child::kill is SIGKILL on unix: no drain, no cleanup — the
        // worker dies mid-request like a real crash
        let _ = child.kill();
        Some(pid)
    }

    /// Blocks until slot `index` answers a ping, or `timeout` passes.
    /// Returns whether the worker came up.
    pub fn wait_up(&self, index: usize, timeout: Duration) -> bool {
        let replica = Arc::clone(&self.inner.lock_slots()[index].replica);
        let deadline = Instant::now() + timeout;
        loop {
            if replica.ping(self.inner.config.ping_timeout).is_ok() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Blocks until every slot answers a ping, or `timeout` passes.
    pub fn wait_all_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        (0..self.workers()).all(|i| {
            let left = deadline.saturating_duration_since(Instant::now());
            self.wait_up(i, left)
        })
    }

    /// Per-slot [`PongStats`](crate::transport::PongStats) — the
    /// per-replica answer counts. Slots that don't answer report `None`.
    pub fn pong_stats(&self) -> Vec<Option<crate::transport::PongStats>> {
        self.handles()
            .into_iter()
            .map(|h| h.ping(self.inner.config.ping_timeout).ok())
            .collect()
    }

    /// Rolls checkpoint `dir` across the fleet: gate it once in-process
    /// (the pre-promotion gate — a bad checkpoint is rejected before any
    /// worker is touched), then `Reload` each Up worker in slot order
    /// once it answers a ping, each running its own warmup gate before
    /// publishing. Then respawns move to `dir`, and every slot spawned
    /// since the roll began (it loaded the previous directory) reloads
    /// `dir` too, so the whole fleet serves `dir` when this returns. On
    /// any worker's failure every already-promoted worker reloads the
    /// previous checkpoint and respawns go back to it. Concurrent calls
    /// run one after another, never interleaved.
    ///
    /// Returns `(slot, published version)` for each reloaded worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeployFailed`] when the gate or any worker rejects
    /// the checkpoint (fleet rolled back), [`ServeError::Internal`] when
    /// no worker is Up.
    pub fn deploy(&self, dir: &Path) -> Result<Vec<(usize, u64)>, ServeError> {
        let _one_at_a_time = self
            .deploy_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        DEPLOYS.incr();
        let gate = ModelRegistry::new();
        gate.load("deploy-gate", dir).map_err(|e| {
            ServeError::DeployFailed(format!("checkpoint rejected before promotion: {e}"))
        })?;
        let previous = self.inner.current_model_dir();
        // snapshot Up slots, then release the lock: reloads are slow and
        // the supervise thread must keep ticking under them
        let (up, roll_started) = self.up_slots(|_| true);
        if up.is_empty() {
            return Err(ServeError::Internal("no worker is up to deploy to".into()));
        }
        let mut promoted = Vec::with_capacity(up.len());
        for i in up {
            self.promote(i, dir, &previous, &mut promoted)?;
        }
        // a slot that respawned during the roll (in Backoff at the
        // snapshot, or killed after its reload) loaded `previous`:
        // respawns move to `dir` first, so none is missed, then those
        // slots reload
        self.inner.set_model_dir(dir);
        let (respawned, _) = self.up_slots(|s| s.spawned_at >= roll_started);
        for i in respawned {
            self.promote(i, dir, &previous, &mut promoted)?;
        }
        Ok(promoted)
    }

    /// Reloads `dir` on slot `i` once it answers a ping, recording the
    /// published version in `promoted` (a slot reloaded twice keeps its
    /// place with the newer version). On failure the fleet rolls back to
    /// `previous`.
    fn promote(
        &self,
        i: usize,
        dir: &Path,
        previous: &Path,
        promoted: &mut Vec<(usize, u64)>,
    ) -> Result<(), ServeError> {
        let budget = self.inner.config.start_grace;
        let reloaded = if self.wait_up(i, budget) {
            self.handles()[i].reload(dir, budget)
        } else {
            Err(ServeError::Transport("never answered a ping".into()))
        };
        match reloaded {
            Ok(version) => {
                match promoted.iter_mut().find(|(slot, _)| *slot == i) {
                    Some(entry) => entry.1 = version,
                    None => promoted.push((i, version)),
                }
                Ok(())
            }
            Err(e) => Err(self.roll_back(
                promoted,
                previous,
                format!("worker {i} rejected the checkpoint (fleet rolled back): {e}"),
            )),
        }
    }

    /// The Up slots `keep` admits, and the instant of the look. The clock
    /// is read under the slots lock, so any later spawn is stamped at or
    /// after it.
    fn up_slots(&self, keep: impl Fn(&Slot) -> bool) -> (Vec<usize>, Instant) {
        let slots = self.inner.lock_slots();
        let at = Instant::now();
        let up = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == WorkerPhase::Up && keep(s))
            .map(|(i, _)| i)
            .collect();
        (up, at)
    }

    /// Points respawns back at `previous`, reloads it on every promoted
    /// worker, and reports `why`.
    fn roll_back(&self, promoted: &[(usize, u64)], previous: &Path, why: String) -> ServeError {
        self.inner.set_model_dir(previous);
        let handles = self.handles();
        for &(i, _) in promoted {
            let _ = handles[i].reload(previous, self.inner.config.start_grace);
        }
        ROLLBACKS.incr();
        ServeError::DeployFailed(why)
    }

    /// Stops the supervise thread, asks each worker to drain and exit,
    /// and kills any that don't within ~1 s. Idempotent; also run on
    /// drop.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let mut slots = self.inner.lock_slots();
        for slot in slots.iter_mut() {
            if slot.child.is_some() {
                slot.replica.send_shutdown();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(child) = slot.child.as_mut() {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            slot.child = None;
            let _ = fs::remove_file(&slot.socket);
            if i < MAX_WORKERS {
                SLOT_STATE[i].set(0);
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SupervisorConfig {
        SupervisorConfig::new("/bin/false", "/tmp/model", "/tmp/sockets")
    }

    #[test]
    fn config_validation_names_the_bad_field() {
        assert_eq!(config().validate(), Ok(()));
        for (mutate, field) in [
            (
                Box::new(|c: &mut SupervisorConfig| c.workers = 0) as Box<dyn Fn(&mut _)>,
                "workers",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.workers = MAX_WORKERS + 1),
                "workers",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.backoff_base = Duration::ZERO),
                "backoff_base",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.backoff_cap = Duration::from_nanos(1)),
                "backoff_cap",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.breaker_limit = 0),
                "breaker_limit",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.ping_strikes = 0),
                "ping_strikes",
            ),
            (
                Box::new(|c: &mut SupervisorConfig| c.serve.max_batch = 0),
                "max_batch",
            ),
        ] {
            let mut c = config();
            mutate(&mut c);
            match c.validate() {
                Err(ServeError::InvalidConfig(m)) => {
                    assert!(m.contains(field), "{m:?} should name {field}");
                }
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn decorrelated_backoff_is_seeded_bounded_and_grows() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut a = 9u64;
        let mut b = 9u64;
        let mut prev_a = base;
        let mut prev_b = base;
        let mut draws = Vec::new();
        for _ in 0..32 {
            let wa = decorrelated_backoff(base, cap, prev_a, &mut a);
            let wb = decorrelated_backoff(base, cap, prev_b, &mut b);
            assert_eq!(wa, wb, "same seed must draw the same backoff sequence");
            assert!(wa >= base || wa == cap, "below the floor: {wa:?}");
            assert!(wa <= cap, "above the cap: {wa:?}");
            prev_a = wa;
            prev_b = wb;
            draws.push(wa);
        }
        assert!(
            draws.windows(2).any(|p| p[0] != p[1]),
            "draws must decorrelate: {draws:?}"
        );
        assert!(
            draws.iter().any(|&d| d > base * 3),
            "a crash loop must be able to back off past the floor: {draws:?}"
        );
        // a different seed draws a different sequence
        let mut c = 10u64;
        let from_c: Vec<_> = (0..32)
            .scan(base, |prev, _| {
                let w = decorrelated_backoff(base, cap, *prev, &mut c);
                *prev = w;
                Some(w)
            })
            .collect();
        assert_ne!(draws, from_c);
    }

    #[test]
    fn breaker_opens_after_limit_respawns_in_window() {
        let mut cfg = config();
        cfg.breaker_limit = 3;
        cfg.breaker_window = Duration::from_secs(10);
        let now = Instant::now();
        let mut slot = Slot {
            replica: Arc::new(RemoteReplica::new(
                "/tmp/nope.sock",
                "worker-0",
                Duration::from_millis(10),
            )),
            socket: "/tmp/nope.sock".into(),
            child: None,
            phase: WorkerPhase::Up,
            spawned_at: now,
            last_ping: now,
            ping_failures: 0,
            respawn_at: None,
            prev_backoff: cfg.backoff_base,
            rng: 1,
            respawns: VecDeque::new(),
        };
        // two respawns already in the window: still backs off
        slot.respawns.push_back(now);
        slot.respawns.push_back(now);
        schedule_respawn(&mut slot, 0, &cfg, now);
        assert_eq!(slot.phase, WorkerPhase::Backoff);
        assert!(slot.respawn_at.is_some());
        // third respawn crosses the limit: breaker opens
        slot.respawns.push_back(now);
        schedule_respawn(&mut slot, 0, &cfg, now);
        assert_eq!(slot.phase, WorkerPhase::Broken);
        assert!(slot.respawn_at.is_none());
        // ...but old respawns age out of the window
        slot.respawns.clear();
        for k in 0..3 {
            slot.respawns
                .push_back(now - cfg.breaker_window - Duration::from_secs(1 + k));
        }
        slot.phase = WorkerPhase::Up;
        schedule_respawn(&mut slot, 0, &cfg, now);
        assert_eq!(
            slot.phase,
            WorkerPhase::Backoff,
            "aged-out respawns must not trip the breaker"
        );
    }
}
