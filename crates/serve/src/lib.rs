//! Batched inference serving for trained cuisine classifiers.
//!
//! This crate turns the artifacts the training stack writes to disk —
//! `cuisine-checkpoint-v2` weight files from `nn`, `cuisine-linear-v2`
//! snapshots from `ml` — into a running, hot-swappable prediction
//! service:
//!
//! * [`ModelRegistry`] materializes a model directory (manifest +
//!   weights) behind the common [`ServingModel`] trait and supports
//!   atomic hot-swap under live traffic.
//! * [`BatchServer`] owns a bounded request queue and a micro-batching
//!   worker: whenever the worker is free it takes up to `max_batch`
//!   queued requests at once and runs them through one fused forward
//!   pass, so batches grow only from requests that arrive while a pass
//!   runs. Batched answers are bit-identical to one-at-a-time
//!   evaluation.
//! * [`LruCache`] memoizes featurized inputs keyed by canonicalized
//!   recipe text (`cuisine::featurize::canonical_key`), invalidated on
//!   every model swap.
//! * [`transport`] + [`Supervisor`] replicate serving across processes:
//!   each replica is a `replica_worker` process speaking a CRC-checked
//!   binary protocol over a unix socket from one thread ([`eventloop`],
//!   which runs the same batch step as [`BatchServer`]), spawned,
//!   crash-respawned (backoff + circuit breaker) and rolled to new
//!   checkpoints by the supervisor.
//! * [`ReplicaRouter`] spreads requests over those workers' handles
//!   behind a consistent-hash ring with health-based ejection and
//!   aggregate load shedding; see `docs/SERVING_TIER.md`.
//!
//! Everything is instrumented through `trace`; see `docs/TRACING.md` for
//! the metric names and `docs/CHECKPOINT_FORMAT.md` for the on-disk
//! layout a model directory must follow.
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use serve::{BatchServer, ModelRegistry, ServeConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! registry.load("lstm", std::path::Path::new("models/lstm"))?;
//! let server = BatchServer::start(registry, "lstm", ServeConfig::default())?;
//! let prediction = server.classify("garlic, onion, soy sauce", None)?;
//! println!("class {} p={:?}", prediction.top_class, prediction.probs);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod completion;
mod error;
pub mod eventloop;
mod manifest;
mod model;
pub mod netpoll;
mod registry;
mod router;
mod service;
mod supervisor;
pub mod transport;

pub use cache::LruCache;
pub use completion::{Completion, CompletionQueue, Ticket};
pub use error::ServeError;
pub use manifest::{ModelManifest, LINEAR_FILE, MANIFEST_FILE, MANIFEST_FORMAT};
pub use model::{BertServing, Features, LinearServing, LstmServing, ServingModel};
pub use registry::{LoadedModel, ModelRegistry};
pub use router::{ReplicaHandle, ReplicaHealth, ReplicaRouter, RouterConfig};
pub use service::{BatchServer, Prediction, ServeConfig};
pub use supervisor::{Supervisor, SupervisorConfig, WorkerPhase, MAX_WORKERS};
pub use transport::{PongStats, RemoteReplica};
