//! One supervised replica worker: loads a checkpoint into its own
//! [`ModelRegistry`] (running the full warmup gate *before* binding the
//! socket — a broken checkpoint means a nonzero exit, not a published
//! model), then serves the [`serve::transport`] wire protocol on a unix
//! socket from one thread, the [`serve::eventloop`]: all client
//! connections multiplexed over one `poll(2)` loop, which also cuts and
//! runs every micro-batch itself.
//!
//! ```text
//! replica_worker --socket PATH --model-dir DIR --model-name NAME
//!                [--max-batch N] [--queue-capacity N] [--cache-capacity N]
//!                [--max-connections N]
//! ```
//!
//! Process isolation is the point: a crash here (bad deserialization,
//! allocator corruption, runaway panic) kills this process only. The
//! supervisor respawns it; the router routes around it meanwhile.
//!
//! # Fault injection
//!
//! For supervisor/router tests (the `nn::faults` idiom, but across a
//! process boundary so it rides environment variables):
//!
//! * `REPLICA_WORKER_FAULT` — one of `exit-on-start`, `hang-accept`,
//!   `corrupt-crc:N`, `truncate-frame:N`, `exit-after:N` (`N` counts
//!   classify answers before the fault fires), or `hold-reload:PATH`
//!   (the first `Reload` waits until `PATH` exists, serving nothing
//!   meanwhile, so a test can pin what happens while a deploy is in
//!   flight).
//! * `REPLICA_WORKER_FAULT_MARKER` — path to a marker file. When set,
//!   the fault fires once and writes the marker; a worker that starts
//!   with the marker already present ignores the fault. This is how a
//!   test makes "crash once, then respawn healthy" reproducible.
//!
//! Exit codes: 0 clean shutdown, 2 checkpoint rejected, 3 injected
//! start crash, 4 injected mid-serve crash.

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use serve::eventloop::{self, EventLoopConfig, FaultAction, FaultHook, FaultPoint, LoopExit};
use serve::{ModelRegistry, ServeConfig};

struct Args {
    socket: PathBuf,
    model_dir: PathBuf,
    model_name: String,
    serve: ServeConfig,
    event_loop: EventLoopConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut socket = None;
    let mut model_dir = None;
    let mut model_name = None;
    let mut serve = ServeConfig::default();
    let mut event_loop = EventLoopConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value()?)),
            "--model-dir" => model_dir = Some(PathBuf::from(value()?)),
            "--model-name" => model_name = Some(value()?),
            "--max-batch" => {
                serve.max_batch = value()?.parse().map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--queue-capacity" => {
                serve.queue_capacity = value()?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            "--cache-capacity" => {
                serve.cache_capacity = value()?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?;
            }
            "--max-connections" => {
                event_loop.max_connections = value()?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    serve.validate().map_err(|e| e.to_string())?;
    Ok(Args {
        socket: socket.ok_or("--socket is required")?,
        model_dir: model_dir.ok_or("--model-dir is required")?,
        model_name: model_name.ok_or("--model-name is required")?,
        serve,
        event_loop,
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultKind {
    ExitOnStart,
    HangAccept,
    CorruptCrc(u64),
    TruncateFrame(u64),
    ExitAfter(u64),
    HoldReload(PathBuf),
}

/// A one-shot injected fault (see the module docs).
struct FaultPlan {
    kind: FaultKind,
    shot: Shot,
}

/// `fired` makes a fault single-shot within one process; the marker file
/// makes it single-shot across respawns.
struct Shot {
    marker: Option<PathBuf>,
    fired: bool,
}

impl Shot {
    /// Claims the fault unless it already fired, writing the marker so
    /// respawns start healthy.
    fn claim(&mut self) -> bool {
        if std::mem::replace(&mut self.fired, true) {
            return false;
        }
        if let Some(path) = &self.marker {
            let _ = std::fs::write(path, b"fired\n");
        }
        true
    }
}

impl FaultPlan {
    fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("REPLICA_WORKER_FAULT").ok()?;
        let marker = std::env::var("REPLICA_WORKER_FAULT_MARKER")
            .ok()
            .map(PathBuf::from);
        if let Some(path) = &marker {
            if path.exists() {
                return None; // already fired in an earlier incarnation
            }
        }
        let parse_n = |spec: &str, prefix: &str| {
            spec.strip_prefix(prefix)
                .and_then(|n| n.parse::<u64>().ok())
        };
        let kind = match spec.as_str() {
            "exit-on-start" => FaultKind::ExitOnStart,
            "hang-accept" => FaultKind::HangAccept,
            other => {
                if let Some(n) = parse_n(other, "corrupt-crc:") {
                    FaultKind::CorruptCrc(n)
                } else if let Some(n) = parse_n(other, "truncate-frame:") {
                    FaultKind::TruncateFrame(n)
                } else if let Some(n) = parse_n(other, "exit-after:") {
                    FaultKind::ExitAfter(n)
                } else if let Some(path) = other.strip_prefix("hold-reload:") {
                    FaultKind::HoldReload(PathBuf::from(path))
                } else {
                    eprintln!("replica_worker: unknown REPLICA_WORKER_FAULT {other:?}");
                    exit(2);
                }
            }
        };
        Some(FaultPlan {
            kind,
            shot: Shot {
                marker,
                fired: false,
            },
        })
    }

    /// The fault hook the event loop consults before each classify answer
    /// (`served` counts the response about to be written) and each
    /// `Reload`.
    fn into_hook(mut self) -> FaultHook {
        Box::new(move |point| match (&self.kind, point) {
            (&FaultKind::ExitAfter(after), FaultPoint::Answer { served })
                if served >= after && self.shot.claim() =>
            {
                Some(FaultAction::Exit(4))
            }
            (&FaultKind::CorruptCrc(after), FaultPoint::Answer { served })
                if served > after && self.shot.claim() =>
            {
                Some(FaultAction::CorruptCrc)
            }
            (&FaultKind::TruncateFrame(after), FaultPoint::Answer { served })
                if served > after && self.shot.claim() =>
            {
                Some(FaultAction::TruncateAndClose)
            }
            (FaultKind::HoldReload(path), FaultPoint::Reload) => {
                if self.shot.claim() {
                    while !path.exists() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                None
            }
            _ => None,
        })
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(what) => {
            eprintln!("replica_worker: {what}");
            exit(2);
        }
    };
    let mut fault = FaultPlan::from_env();

    if let Some(f) = &mut fault {
        if f.kind == FaultKind::ExitOnStart && f.shot.claim() {
            exit(3);
        }
    }

    // load + warmup gate BEFORE binding: a worker whose checkpoint fails
    // the gate never looks alive to the supervisor's pings
    let registry = Arc::new(ModelRegistry::new());
    if let Err(e) = registry.load(&args.model_name, &args.model_dir) {
        eprintln!(
            "replica_worker: checkpoint {} rejected: {e}",
            args.model_dir.display()
        );
        exit(2);
    }
    let _ = std::fs::remove_file(&args.socket);
    let listener = match UnixListener::bind(&args.socket) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("replica_worker: bind {}: {e}", args.socket.display());
            exit(2);
        }
    };

    if let Some(f) = &mut fault {
        if f.kind == FaultKind::HangAccept && f.shot.claim() {
            // alive (the process runs, the socket backlog accepts
            // connects) but never answers: the hung-worker case
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let hook = fault.map(FaultPlan::into_hook);
    match eventloop::run(
        listener,
        &args.serve,
        &registry,
        &args.model_name,
        &args.event_loop,
        hook,
    ) {
        Ok(LoopExit::ShutdownRequested) => exit(0),
        Ok(LoopExit::FaultExit(code)) => exit(code),
        Err(e) => {
            eprintln!("replica_worker: event loop: {e}");
            exit(2);
        }
    }
}
