//! Load generator + gate for the process-isolated serving tier.
//!
//! Usage:
//!
//! ```text
//! cargo build --release -p serve   # builds the replica_worker binary
//! cargo run --release -p bench --bin supervisor_load -- \
//!     [--requests 256] [--clients 8] [--workers 4] \
//!     [--train-epochs 1] [--max-recovery-ms 15000] \
//!     [--worker-bin PATH] [--json BENCH_supervisor.json] [--trace]
//! ```
//!
//! Proves two properties of [`serve::Supervisor`] + the socket transport
//! and emits the timings to `BENCH_supervisor.json`:
//!
//! 1. **Bit-identity across the process boundary**: a request stream
//!    through a [`serve::ReplicaRouter`] over a supervised fleet of
//!    `replica_worker` processes (unix sockets, CRC-framed wire
//!    protocol) produces probability rows bitwise equal to the
//!    sequential `nn::predict_proba_graph` reference.
//! 2. **Bounded crash recovery**: `kill -9` of one worker under live
//!    traffic causes zero wrong answers (requests fail over to ring
//!    neighbors), the supervisor respawns the worker through the warmup
//!    gate, and the router reinstates it — all inside
//!    `--max-recovery-ms`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::serving::{
    content_tokens, lstm_config, percentile, synth_recipes, to_ids, write_model_dir, CLASSES,
};
use bench::HarnessArgs;
use nn::{AdamW, LrSchedule, LstmClassifier, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    Prediction, ReplicaHealth, ReplicaRouter, RouterConfig, ServeConfig, Supervisor,
    SupervisorConfig,
};
use textproc::Vocabulary;

/// Finds the `replica_worker` binary: `--worker-bin`, or the sibling of
/// this executable (both land in `target/release` when built together).
fn worker_bin(args: &HarnessArgs) -> PathBuf {
    if let Some(path) = args.value_of("--worker-bin") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let sibling = exe.with_file_name("replica_worker");
    assert!(
        sibling.exists(),
        "replica_worker not found at {} — run `cargo build --release -p serve` \
         first, or pass --worker-bin",
        sibling.display()
    );
    sibling
}

/// Drives the request stream with `clients` concurrent threads; returns
/// wall time, per-request latencies (µs), and predictions by request.
fn drive(
    router: &Arc<ReplicaRouter>,
    recipes: &Arc<Vec<(String, usize)>>,
    clients: usize,
) -> (Duration, Vec<u128>, Vec<Prediction>) {
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let router = Arc::clone(router);
            let recipes = Arc::clone(recipes);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                let mut i = c;
                while i < recipes.len() {
                    let sent = Instant::now();
                    let prediction = router
                        .classify(&recipes[i].0, None)
                        .expect("classify under load");
                    results.push((i, sent.elapsed().as_micros(), prediction));
                    i += clients;
                }
                results
            })
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(recipes.len());
    let mut predictions: Vec<Option<Prediction>> = vec![None; recipes.len()];
    for w in workers {
        for (i, us, prediction) in w.join().expect("client thread") {
            latencies_us.push(us);
            predictions[i] = Some(prediction);
        }
    }
    let elapsed = started.elapsed();
    let predictions = predictions
        .into_iter()
        .map(|p| p.expect("every request answered"))
        .collect();
    (elapsed, latencies_us, predictions)
}

fn counter(name: &str) -> u64 {
    trace::snapshot().counter(name).unwrap_or(0)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = HarnessArgs::parse(&[
        "--requests N",
        "--clients N",
        "--workers N",
        "--train-epochs N",
        "--max-recovery-ms MS",
        "--worker-bin PATH",
        "--json PATH",
        "--trace",
        "--trace-out PATH",
    ]);
    let tracing = args.init_trace();
    trace::enable(); // the recovery gate reads supervisor counters
    let requests: usize = args
        .value_of("--requests")
        .map_or(256, |v| v.parse().expect("--requests must be an integer"));
    let clients: usize = args
        .value_of("--clients")
        .map_or(8, |v| v.parse().expect("--clients must be an integer"));
    let workers: usize = args
        .value_of("--workers")
        .map_or(4, |v| v.parse().expect("--workers must be an integer"));
    let train_epochs: usize = args
        .value_of("--train-epochs")
        .map_or(1, |v| v.parse().expect("--train-epochs must be an integer"));
    let max_recovery_ms: u64 = args.value_of("--max-recovery-ms").map_or(15_000, |v| {
        v.parse().expect("--max-recovery-ms must be an integer")
    });
    assert!(workers >= 2, "--workers must be at least 2 to fail over");
    let bin = worker_bin(&args);

    // --- build + briefly train the checkpoint ---------------------------
    let tokens = content_tokens();
    let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut model = LstmClassifier::new(lstm_config(), &mut rng);
    if train_epochs > 0 {
        let train_set: Vec<(Vec<usize>, usize)> = synth_recipes(16 * CLASSES, &tokens, args.seed)
            .iter()
            .map(|(text, class)| (to_ids(text, &vocab), *class))
            .collect();
        eprintln!(
            "training: {} recipes, {train_epochs} epochs",
            train_set.len()
        );
        Trainer::new(TrainerConfig {
            epochs: train_epochs,
            batch_size: 16,
            schedule: LrSchedule::Constant(3e-3),
            seed: args.seed,
            ..TrainerConfig::default()
        })
        .fit(&mut model, &mut AdamW::default(), &train_set, None)
        .expect("train checkpoint");
    }
    let base = std::env::temp_dir().join(format!("supervisor_load_{}", std::process::id()));
    let model_dir = base.join("model");
    write_model_dir(&model_dir, &model, &vocab, false).expect("write checkpoint");

    let recipes = Arc::new(synth_recipes(requests, &tokens, args.seed ^ 0x5eed));
    let reference: Vec<Vec<f64>> = recipes
        .iter()
        .map(|(r, _)| {
            let ids = to_ids(r, &vocab);
            nn::predict_proba_graph(&model, &[ids.as_slice()])
                .pop()
                .expect("one row per request")
        })
        .collect();

    // --- socket fleet: the stream across the process boundary -----------
    eprintln!("socket fleet x{workers}: supervised replica_worker processes");
    let mut sup_config = SupervisorConfig::new(&bin, &model_dir, base.join("sock"));
    sup_config.workers = workers;
    sup_config.model_name = "lstm".into();
    sup_config.serve = ServeConfig {
        max_batch: 16,
        queue_capacity: requests.max(1),
        cache_capacity: 0, // every request takes a real forward pass
    };
    sup_config.ping_interval = Duration::from_millis(25);
    sup_config.backoff_base = Duration::from_millis(25);
    sup_config.backoff_cap = Duration::from_millis(250);
    let supervisor = Supervisor::start(sup_config).expect("start supervisor");
    assert!(
        supervisor.wait_all_up(Duration::from_secs(120)),
        "worker fleet never came up: {:?}",
        supervisor.phases()
    );
    let socket_router = Arc::new(
        supervisor
            .router(RouterConfig {
                shed_watermark: usize::MAX / 2,
                probe_after: Duration::from_millis(50),
                ..RouterConfig::default()
            })
            .expect("router over socket fleet"),
    );
    let (sock_elapsed, mut sock_lat, sock_predictions) = drive(&socket_router, &recipes, clients);
    for (i, p) in sock_predictions.iter().enumerate() {
        assert_eq!(
            p.probs, reference[i],
            "socket-fleet answer for request {i} differs from sequential"
        );
    }
    sock_lat.sort_unstable();
    let sock_rps = requests as f64 / sock_elapsed.as_secs_f64();

    // --- kill -9 one worker under live traffic --------------------------
    eprintln!("kill -9 worker 0 under {} live clients", clients.min(4));
    let respawns_before = counter("serve.supervisor.respawns");
    let stop = Arc::new(AtomicBool::new(false));
    let wrong = Arc::new(AtomicUsize::new(0));
    let transient = Arc::new(AtomicUsize::new(0));
    let answered = Arc::new(AtomicUsize::new(0));
    let reference = Arc::new(reference);
    let traffic: Vec<_> = (0..clients.min(4))
        .map(|c| {
            let router = Arc::clone(&socket_router);
            let recipes = Arc::clone(&recipes);
            let reference = Arc::clone(&reference);
            let stop = Arc::clone(&stop);
            let wrong = Arc::clone(&wrong);
            let transient = Arc::clone(&transient);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % recipes.len();
                    match router.classify(&recipes[k].0, None) {
                        Ok(p) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                            if p.probs != reference[k] {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // shed/transport blips are visible failures, not
                        // wrong answers; they may happen while the ring
                        // routes around the corpse
                        Err(_) => {
                            transient.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let killed = Instant::now();
    supervisor.kill_worker(0).expect("worker 0 has a pid");
    // recovery = respawned through the warmup gate (answers pings again)
    // AND reinstated by the router (all replicas healthy) under traffic
    assert!(
        supervisor.wait_up(0, Duration::from_millis(max_recovery_ms)),
        "killed worker was not respawned within {max_recovery_ms} ms: {:?}",
        supervisor.phases()
    );
    let recovery_deadline = killed + Duration::from_millis(max_recovery_ms);
    while !socket_router
        .health()
        .iter()
        .all(|h| *h == ReplicaHealth::Healthy)
    {
        assert!(
            Instant::now() < recovery_deadline,
            "router did not reinstate the respawned worker within {max_recovery_ms} ms: {:?}",
            socket_router.health()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let recovery_ms = killed.elapsed().as_millis();
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for t in traffic {
        t.join().expect("traffic thread");
    }
    socket_router.shutdown();
    let respawns = counter("serve.supervisor.respawns") - respawns_before;
    let answered = answered.load(Ordering::Relaxed);
    let wrong = wrong.load(Ordering::Relaxed);
    let transient = transient.load(Ordering::Relaxed);
    drop(supervisor);

    println!("requests:          {requests} (bit-identical to sequential)");
    println!(
        "socket fleet x{workers}:   {sock_rps:.2} req/s  (p50 {} us, p99 {} us)",
        percentile(&sock_lat, 0.50),
        percentile(&sock_lat, 0.99)
    );
    println!(
        "kill -9 recovery:  {recovery_ms} ms ({answered} in-flight answers, \
         {wrong} wrong, {transient} transient errors, {respawns} respawns)"
    );

    let json_path = PathBuf::from(args.value_of("--json").unwrap_or("BENCH_supervisor.json"));
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"supervisor\",\n",
            "  \"requests\": {},\n",
            "  \"clients\": {},\n",
            "  \"workers\": {},\n",
            "  \"entries\": [\n",
            "    {{\"path\": \"socket_fleet\", \"rps\": {:.2}, \"latency_ns\": {:.1}, ",
            "\"p50_us\": {}, \"p99_us\": {}}},\n",
            "    {{\"path\": \"recovery\", \"recovery_ms\": {}, \"in_flight_answers\": {}, ",
            "\"wrong_answers\": {}, \"transient_errors\": {}, \"respawns\": {}}}\n",
            "  ]\n",
            "}}\n"
        ),
        requests,
        clients,
        workers,
        sock_rps,
        sock_elapsed.as_nanos() as f64 / requests as f64,
        percentile(&sock_lat, 0.50),
        percentile(&sock_lat, 0.99),
        recovery_ms,
        answered,
        wrong,
        transient,
        respawns,
    );
    std::fs::write(&json_path, json).expect("write BENCH_supervisor.json");
    eprintln!("wrote {}", json_path.display());

    if !tracing {
        // tracing was only on for the counter asserts: don't dump
        // RUN_trace.json unless --trace asked for it
        trace::disable();
    }
    args.finish_trace();
    let _ = std::fs::remove_dir_all(&base);

    assert!(answered > 0, "kill phase saw no concurrent traffic");
    assert_eq!(
        wrong, 0,
        "{wrong}/{answered} in-flight answers were WRONG after kill -9"
    );
    assert!(respawns >= 1, "the killed worker was never respawned");
    println!("recovery gate:     ok ({recovery_ms} ms <= {max_recovery_ms} ms, 0 wrong answers)");
}
