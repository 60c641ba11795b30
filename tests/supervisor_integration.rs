//! End-to-end tests of the process-isolated serving tier: a supervised
//! fleet of `replica_worker` processes behind unix sockets, driven by
//! the `ReplicaRouter` over their `RemoteReplica` handles.
//!
//! The acceptance bar: 4 socket-backed workers serve a stream
//! bit-identical to in-process serving; `kill -9` of one worker
//! mid-stream causes zero wrong answers; the supervisor respawns it
//! through the warmup gate and the router reinstates it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nn::{
    save_checkpoint, LrSchedule, LstmClassifier, LstmConfig, LstmPooling, SequenceModel, Sgd,
    Trainer, TrainerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    ModelManifest, RemoteReplica, ReplicaHandle, ReplicaHealth, RouterConfig, ServeConfig,
    ServeError, Supervisor, SupervisorConfig, WorkerPhase,
};
use textproc::Vocabulary;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_replica_worker");

const TOKENS: [&str; 8] = [
    "soy", "ginger", "rice", "basil", "tomato", "olive", "cumin", "chili",
];

const RECIPES: [(&str, usize); 6] = [
    ("soy, ginger, rice", 0),
    ("ginger, soy", 0),
    ("basil, tomato, olive", 1),
    ("tomato, olive", 1),
    ("cumin, chili, rice", 2),
    ("chili, cumin", 2),
];

fn vocab() -> Vocabulary {
    Vocabulary::from_tokens(TOKENS.map(String::from))
}

fn lstm_config() -> LstmConfig {
    LstmConfig {
        vocab: vocab().len(),
        emb_dim: 8,
        hidden: 8,
        layers: 1,
        dropout: 0.0,
        classes: 3,
        pooling: LstmPooling::LastHidden,
    }
}

fn ids(recipe: &str, v: &Vocabulary) -> Vec<usize> {
    cuisine::featurize::entity_tokens(recipe)
        .iter()
        .map(|t| v.lookup_or_unk(t) as usize)
        .collect()
}

/// Trains a tiny LSTM and writes a servable model directory; returns
/// the in-process model as bit-exact ground truth.
fn train_and_export_seeded(dir: &Path, seed: u64) -> LstmClassifier {
    std::fs::create_dir_all(dir).unwrap();
    let v = vocab();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = LstmClassifier::new(lstm_config(), &mut rng);
    let examples: Vec<(Vec<usize>, usize)> =
        RECIPES.iter().map(|&(r, y)| (ids(r, &v), y)).collect();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 30,
        batch_size: 2,
        schedule: LrSchedule::Constant(0.1),
        seed: 7,
        ..TrainerConfig::default()
    });
    trainer
        .fit(&mut model, &mut Sgd::new(0.0), &examples, None)
        .unwrap();
    ModelManifest::lstm(&lstm_config(), &v).save(dir).unwrap();
    save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();
    model
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reference_probs(model: &LstmClassifier, recipe: &str) -> Vec<f64> {
    nn::predict_proba_graph(model, &[&ids(recipe, &vocab())]).remove(0)
}

/// Distinct recipe texts that spread across the hash ring.
fn spread_recipes(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let (base, _) = RECIPES[i % RECIPES.len()];
            format!("{base}, mystery-{i}")
        })
        .collect()
}

/// A supervisor config with test-friendly (fast) timing.
fn test_config(name: &str, model_dir: &Path) -> SupervisorConfig {
    let mut config = SupervisorConfig::new(WORKER_BIN, model_dir, temp_dir(name));
    config.model_name = "lstm".into();
    config.serve = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    config.ping_interval = Duration::from_millis(25);
    config.backoff_base = Duration::from_millis(25);
    config.backoff_cap = Duration::from_millis(250);
    config.start_grace = Duration::from_secs(30);
    config
}

fn counter(name: &str) -> u64 {
    trace::snapshot().counter(name).unwrap_or(0)
}

/// Classifies `recipe` on one worker directly, bypassing the router.
fn classify_on(handle: &RemoteReplica, recipe: &str) -> Vec<f64> {
    let key = cuisine::featurize::entity_tokens(recipe).join("\x1f");
    handle.classify_prepared(key, None).unwrap().probs
}

/// The process-isolation acceptance test, end to end.
#[test]
fn socket_fleet_serves_bit_identical_and_recovers_from_kill9() {
    trace::enable();
    let model_dir = temp_dir("sup_it_kill9_model");
    let reference = train_and_export_seeded(&model_dir, 42);
    let mut config = test_config("sup_it_kill9_sockets", &model_dir);
    config.workers = 4;
    let supervisor = Supervisor::start(config).unwrap();
    assert!(
        supervisor.wait_all_up(Duration::from_secs(60)),
        "fleet never came up: {:?}",
        supervisor.phases()
    );

    let router = supervisor
        .router(RouterConfig {
            probe_after: Duration::from_millis(50),
            ..RouterConfig::default()
        })
        .unwrap();
    let recipes = spread_recipes(40);

    // phase 1: the socket fleet answers bit-identically to the
    // in-process model
    for recipe in &recipes {
        let prediction = router.classify(recipe, None).unwrap();
        assert_eq!(
            prediction.probs,
            reference_probs(&reference, recipe),
            "socket-backed answer drifted for {recipe:?}"
        );
    }

    // phase 2: kill -9 one worker mid-stream. Zero wrong answers
    // allowed — requests that hash onto the corpse fail over to ring
    // neighbors and are answered identically.
    let respawns_before = counter("serve.supervisor.respawns");
    let killed_pid = supervisor.kill_worker(0).expect("worker 0 has a pid");
    for round in 0..5 {
        for recipe in &recipes {
            let prediction = router
                .classify(recipe, None)
                .unwrap_or_else(|e| panic!("request failed after kill -9 (round {round}): {e}"));
            assert_eq!(
                prediction.probs,
                reference_probs(&reference, recipe),
                "WRONG answer after kill -9 for {recipe:?}"
            );
        }
    }

    // phase 3: the supervisor notices the corpse and respawns it through
    // the warmup gate (a worker only answers pings once its checkpoint
    // loaded and passed the gate)
    assert!(
        supervisor.wait_up(0, Duration::from_secs(60)),
        "killed worker was never respawned: {:?}",
        supervisor.phases()
    );
    assert!(
        counter("serve.supervisor.respawns") > respawns_before,
        "respawn must be counted in serve.supervisor.respawns"
    );
    assert_eq!(supervisor.phases()[0], WorkerPhase::Up);
    let new_pid = supervisor
        .worker_pid(0)
        .expect("respawned worker has a pid");
    assert_ne!(new_pid, killed_pid, "slot 0 must be a fresh process");

    // phase 4: the router reinstates the respawned replica via
    // probe-back, under continued (still bit-identical) traffic
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for recipe in &recipes {
            let prediction = router.classify(recipe, None).unwrap();
            assert_eq!(
                prediction.probs,
                reference_probs(&reference, recipe),
                "answer drifted during reinstatement for {recipe:?}"
            );
        }
        if router.health().iter().all(|h| *h == ReplicaHealth::Healthy) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "respawned replica was never reinstated: {:?}",
            router.health()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // per-replica answer counts: every worker, including the respawned
    // one, answered real traffic
    let stats = supervisor.pong_stats();
    assert_eq!(stats.len(), 4);
    for (i, stat) in stats.iter().enumerate() {
        let stat = stat.unwrap_or_else(|| panic!("worker {i} unreachable at the end"));
        assert!(stat.served > 0, "worker {i} answered no requests: {stat:?}");
    }

    drop(router);
    drop(supervisor);
    std::fs::remove_dir_all(&model_dir).unwrap();
}

#[test]
fn crash_loop_opens_the_circuit_breaker() {
    trace::enable();
    let model_dir = temp_dir("sup_it_breaker_model");
    train_and_export_seeded(&model_dir, 42);
    let mut config = test_config("sup_it_breaker_sockets", &model_dir);
    config.workers = 1;
    config.backoff_base = Duration::from_millis(5);
    config.backoff_cap = Duration::from_millis(20);
    config.breaker_limit = 3;
    config.breaker_window = Duration::from_secs(30);
    // no marker file: the fault fires on every (re)spawn — a true crash loop
    config.worker_env = vec![("REPLICA_WORKER_FAULT".into(), "exit-on-start".into())];
    let breaker_before = counter("serve.supervisor.breaker_opens");
    let supervisor = Supervisor::start(config).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while supervisor.phases()[0] != WorkerPhase::Broken {
        assert!(
            Instant::now() < deadline,
            "crash loop never opened the breaker: {:?}",
            supervisor.phases()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        counter("serve.supervisor.breaker_opens") > breaker_before,
        "breaker trip must be counted"
    );
    assert!(counter("serve.supervisor.crashes") > 0);
    drop(supervisor);
    std::fs::remove_dir_all(&model_dir).unwrap();
}

/// Drives one fault-injected worker directly through its
/// [`serve::RemoteReplica`] handle and asserts the client retried on a
/// fresh connection and still got the right answer.
fn frame_fault_round_trip(name: &str, fault: &str) {
    trace::enable();
    let model_dir = temp_dir(&format!("sup_it_{name}_model"));
    let reference = train_and_export_seeded(&model_dir, 42);
    let marker = temp_dir(&format!("sup_it_{name}_marker")).with_extension("fired");
    let _ = std::fs::remove_file(&marker);
    let mut config = test_config(&format!("sup_it_{name}_sockets"), &model_dir);
    config.workers = 1;
    config.worker_env = vec![
        ("REPLICA_WORKER_FAULT".into(), fault.into()),
        (
            "REPLICA_WORKER_FAULT_MARKER".into(),
            marker.display().to_string(),
        ),
    ];
    let supervisor = Supervisor::start(config).unwrap();
    assert!(supervisor.wait_all_up(Duration::from_secs(60)));
    let handle = supervisor.handles().remove(0);

    let retries_before = counter("serve.transport.retries");
    // enough requests to cross the fault's threshold (it fires after the
    // 2nd answered classify) and then some
    for (i, recipe) in spread_recipes(8).iter().enumerate() {
        let key = cuisine::featurize::entity_tokens(recipe).join("\x1f");
        let prediction = handle
            .classify_prepared(key, None)
            .unwrap_or_else(|e| panic!("request {i} failed across the injected fault: {e}"));
        assert_eq!(
            prediction.probs,
            reference_probs(&reference, recipe),
            "request {i} got a wrong answer across the injected fault"
        );
    }
    assert!(
        counter("serve.transport.retries") > retries_before,
        "the corrupted frame must surface as a client retry"
    );
    assert!(marker.exists(), "the fault must have fired exactly once");
    drop(supervisor);
    std::fs::remove_dir_all(&model_dir).unwrap();
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn corrupt_crc_frame_is_retried_on_a_fresh_connection() {
    frame_fault_round_trip("crc", "corrupt-crc:2");
}

#[test]
fn truncated_frame_is_retried_on_a_fresh_connection() {
    frame_fault_round_trip("trunc", "truncate-frame:2");
}

#[test]
fn hung_worker_is_killed_and_respawned() {
    trace::enable();
    let model_dir = temp_dir("sup_it_hang_model");
    let reference = train_and_export_seeded(&model_dir, 42);
    let marker = temp_dir("sup_it_hang_marker").with_extension("fired");
    let _ = std::fs::remove_file(&marker);
    let mut config = test_config("sup_it_hang_sockets", &model_dir);
    config.workers = 1;
    // the hung worker binds its socket fast (the model is tiny), so a
    // short grace keeps the test quick; strikes × interval adds ~50 ms
    config.start_grace = Duration::from_secs(3);
    config.ping_timeout = Duration::from_millis(200);
    config.ping_strikes = 2;
    config.worker_env = vec![
        ("REPLICA_WORKER_FAULT".into(), "hang-accept".into()),
        (
            "REPLICA_WORKER_FAULT_MARKER".into(),
            marker.display().to_string(),
        ),
    ];
    let hangs_before = counter("serve.supervisor.hangs");
    let supervisor = Supervisor::start(config).unwrap();

    // the first incarnation hangs on accept: alive (bind succeeded, so
    // connects ride the backlog) but never answering. The supervisor
    // must declare it hung, kill it, and respawn it — and the respawn
    // (marker present) comes up healthy.
    assert!(
        supervisor.wait_up(0, Duration::from_secs(60)),
        "hung worker was never replaced by a healthy one: {:?}",
        supervisor.phases()
    );
    assert!(
        counter("serve.supervisor.hangs") > hangs_before,
        "the hang must be counted in serve.supervisor.hangs"
    );
    assert!(marker.exists(), "the hang fault must have fired");

    // the replacement serves correct answers
    let handle = supervisor.handles().remove(0);
    let recipe = "soy, ginger, rice";
    assert_eq!(
        classify_on(&handle, recipe),
        reference_probs(&reference, recipe)
    );

    drop(supervisor);
    std::fs::remove_dir_all(&model_dir).unwrap();
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn rolling_deploy_promotes_and_bad_checkpoint_is_gated() {
    trace::enable();
    let dir_a = temp_dir("sup_it_deploy_a");
    let dir_b = temp_dir("sup_it_deploy_b");
    let model_a = train_and_export_seeded(&dir_a, 42);
    let model_b = train_and_export_seeded(&dir_b, 4242);
    let recipes = spread_recipes(8);
    assert!(
        recipes
            .iter()
            .any(|r| reference_probs(&model_a, r) != reference_probs(&model_b, r)),
        "seeds 42 and 4242 produced identical models"
    );

    // each worker holds its first Reload until `release` exists: worker 0
    // (reloaded first) stays on A until a client pinned to worker 1 has
    // been answered inside the deploy window, so that answer lands there
    // by construction rather than by scheduling luck
    let release = std::env::temp_dir().join("sup_it_deploy_release");
    let _ = std::fs::remove_file(&release);
    let mut config = test_config("sup_it_deploy_sockets", &dir_a);
    config.workers = 2;
    config.worker_env = vec![(
        "REPLICA_WORKER_FAULT".into(),
        format!("hold-reload:{}", release.display()),
    )];
    let supervisor = Supervisor::start(config).unwrap();
    assert!(supervisor.wait_all_up(Duration::from_secs(60)));
    let router = Arc::new(supervisor.router(RouterConfig::default()).unwrap());

    for recipe in &recipes {
        assert_eq!(
            router.classify(recipe, None).unwrap().probs,
            reference_probs(&model_a, recipe)
        );
    }

    // hammer the router from several threads while B rolls across the
    // fleet; every answer must be exactly A's or B's — an unwarmed or
    // half-loaded model would produce something else
    let stop = Arc::new(AtomicBool::new(false));
    let (serving_tx, serving_rx) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..3)
        .map(|t| {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let recipes = recipes.clone();
            let serving = serving_tx.clone();
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let recipe = &recipes[i % recipes.len()];
                    let prediction = router.classify(recipe, None).unwrap();
                    answers.push((recipe.clone(), prediction, Instant::now()));
                    if answers.len() == 1 {
                        serving.send(()).unwrap();
                    }
                    i += 1;
                }
                answers
            })
        })
        .collect();
    for _ in 0..3 {
        serving_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a client never got its first answer");
    }

    // the pinned client: one answer from worker 1 stamped after the
    // deploy started, then the release of worker 0's held Reload
    let (started_tx, started_rx) = std::sync::mpsc::channel::<Instant>();
    let pinned = {
        let handle = supervisor.handles().remove(1);
        let recipe = recipes[0].clone();
        let release = release.clone();
        std::thread::spawn(move || {
            let started = started_rx.recv().unwrap();
            let key = cuisine::featurize::entity_tokens(&recipe).join("\x1f");
            let prediction = handle.classify_prepared(key, None).unwrap();
            let at = Instant::now();
            assert!(at > started);
            std::fs::write(&release, b"go\n").unwrap();
            vec![(recipe, prediction, at)]
        })
    };

    // roll B across the fleet under that traffic: every Up worker
    // reloads through its own warmup gate and reports a bumped version
    let deploy_started = Instant::now();
    started_tx.send(deploy_started).unwrap();
    let promoted = supervisor.deploy(&dir_b).unwrap();
    let deploy_finished = Instant::now();
    stop.store(true, Ordering::Relaxed);

    assert_eq!(promoted.len(), 2, "both workers must be promoted");
    for (slot, version) in &promoted {
        assert!(
            *version >= 2,
            "worker {slot} must bump its registry version, got {version}"
        );
    }
    let (mut total, mut during, mut neither) = (0usize, 0usize, 0usize);
    for c in clients.into_iter().chain([pinned]) {
        for (recipe, prediction, at) in c.join().unwrap() {
            total += 1;
            if at > deploy_started && at < deploy_finished {
                during += 1;
            }
            if prediction.probs != reference_probs(&model_a, &recipe)
                && prediction.probs != reference_probs(&model_b, &recipe)
            {
                neither += 1;
            }
        }
    }
    assert!(
        during > 0,
        "no answer arrived while the deploy ran ({total} in all)"
    );
    assert_eq!(
        neither, 0,
        "{neither}/{total} answers matched neither checkpoint A nor B"
    );
    for recipe in &recipes {
        assert_eq!(
            router.classify(recipe, None).unwrap().probs,
            reference_probs(&model_b, recipe),
            "fleet still serving version A after deploy"
        );
    }

    // a broken checkpoint, or a manifest shape the model constructor
    // would reject, dies at the supervisor's pre-promotion gate: no
    // worker ever sees it, the fleet keeps serving B
    let broken = temp_dir("sup_it_deploy_broken");
    std::fs::create_dir_all(&broken).unwrap();
    let mut manifest = ModelManifest::lstm(&lstm_config(), &vocab());
    manifest.save(&broken).unwrap();
    std::fs::write(broken.join("latest.ckpt"), b"not a checkpoint").unwrap();
    let malformed = temp_dir("sup_it_deploy_malformed");
    std::fs::create_dir_all(&malformed).unwrap();
    manifest.layers = 0;
    manifest.save(&malformed).unwrap();
    std::fs::copy(dir_b.join("latest.ckpt"), malformed.join("latest.ckpt")).unwrap();
    for bad in [&broken, &malformed] {
        match supervisor.deploy(bad) {
            Err(ServeError::DeployFailed(what)) => {
                assert!(what.contains("before promotion"), "{what:?}");
            }
            other => panic!("expected DeployFailed for {bad:?}, got {other:?}"),
        }
        for recipe in &recipes {
            assert_eq!(
                router.classify(recipe, None).unwrap().probs,
                reference_probs(&model_b, recipe),
                "failed deploy of {bad:?} disturbed serving"
            );
        }
    }

    drop(router);
    drop(supervisor);
    for dir in [dir_a, dir_b, broken, malformed] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_file(&release).unwrap();
}

/// A worker that respawns while a deploy rolls loads the old directory
/// and is missing from the roll's snapshot of Up slots; the deploy must
/// still leave it on the new checkpoint.
#[test]
fn worker_respawned_during_a_deploy_ends_on_the_new_checkpoint() {
    trace::enable();
    let dir_a = temp_dir("sup_it_respawn_a");
    let dir_b = temp_dir("sup_it_respawn_b");
    let model_a = train_and_export_seeded(&dir_a, 42);
    let model_b = train_and_export_seeded(&dir_b, 4242);
    let recipes = spread_recipes(8);
    let answers_of = |model: &LstmClassifier| -> Vec<Vec<f64>> {
        recipes.iter().map(|r| reference_probs(model, r)).collect()
    };
    let (from_a, from_b) = (answers_of(&model_a), answers_of(&model_b));
    assert_ne!(
        from_a, from_b,
        "seeds 42 and 4242 produced identical models"
    );

    // worker 0 holds its first Reload until `release` exists, and a
    // killed worker waits out a fixed 2 s backoff: long enough that it is
    // still in Backoff when the deploy snapshots the Up slots
    let release = std::env::temp_dir().join("sup_it_respawn_release");
    let _ = std::fs::remove_file(&release);
    let mut config = test_config("sup_it_respawn_sockets", &dir_a);
    config.workers = 2;
    config.backoff_base = Duration::from_secs(2);
    config.backoff_cap = Duration::from_secs(2);
    config.worker_env = vec![(
        "REPLICA_WORKER_FAULT".into(),
        format!("hold-reload:{}", release.display()),
    )];
    let supervisor = Arc::new(Supervisor::start(config).unwrap());
    assert!(supervisor.wait_all_up(Duration::from_secs(60)));
    let handles = supervisor.handles();

    let killed = supervisor.kill_worker(1).expect("worker 1 has a pid");
    let deadline = Instant::now() + Duration::from_secs(30);
    while supervisor.phases()[1] != WorkerPhase::Backoff {
        assert!(
            Instant::now() < deadline,
            "the killed worker never entered Backoff: {:?}",
            supervisor.phases()
        );
        std::thread::yield_now();
    }

    // the roll: worker 0 is the only Up slot and holds its Reload
    let deploy = {
        let supervisor = Arc::clone(&supervisor);
        let dir_b = dir_b.clone();
        std::thread::spawn(move || supervisor.deploy(&dir_b))
    };

    // worker 1 respawns inside the roll, onto checkpoint A
    assert!(
        supervisor.wait_up(1, Duration::from_secs(60)),
        "worker 1 never respawned: {:?}",
        supervisor.phases()
    );
    assert_ne!(supervisor.worker_pid(1), Some(killed));
    let respawned: Vec<Vec<f64>> = recipes
        .iter()
        .map(|r| classify_on(&handles[1], r))
        .collect();
    assert_eq!(
        respawned, from_a,
        "the respawn must load the pre-deploy checkpoint"
    );
    std::fs::write(&release, b"go\n").unwrap();

    let promoted = deploy.join().unwrap().expect("the deploy must succeed");
    for (i, handle) in handles.iter().enumerate() {
        let served: Vec<Vec<f64>> = recipes.iter().map(|r| classify_on(handle, r)).collect();
        assert_eq!(
            served, from_b,
            "worker {i} is not on checkpoint B after the deploy"
        );
    }
    let slots: Vec<usize> = promoted.iter().map(|&(slot, _)| slot).collect();
    assert_eq!(slots, [0, 1], "both workers must be promoted: {promoted:?}");

    drop(handles);
    drop(supervisor);
    for dir in [dir_a, dir_b] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_file(&release).unwrap();
}

/// Two deploys racing on one fleet run one after the other: the workers
/// end on a single checkpoint, and the supervisor respawns a killed
/// worker onto that same checkpoint.
#[test]
fn concurrent_deploys_leave_the_fleet_on_one_checkpoint() {
    trace::enable();
    let dirs = [
        temp_dir("sup_it_race_a"),
        temp_dir("sup_it_race_b"),
        temp_dir("sup_it_race_c"),
    ];
    let model_a = train_and_export_seeded(&dirs[0], 42);
    let model_b = train_and_export_seeded(&dirs[1], 4242);
    let model_c = train_and_export_seeded(&dirs[2], 424_242);
    let recipes = spread_recipes(8);
    let answers_of = |model: &LstmClassifier| -> Vec<Vec<f64>> {
        recipes.iter().map(|r| reference_probs(model, r)).collect()
    };
    let (from_b, from_c) = (answers_of(&model_b), answers_of(&model_c));
    assert!(
        from_b != from_c && from_b != answers_of(&model_a) && from_c != answers_of(&model_a),
        "the three seeds must give distinguishable checkpoints"
    );

    let mut config = test_config("sup_it_race_sockets", &dirs[0]);
    config.workers = 2;
    let supervisor = Arc::new(Supervisor::start(config).unwrap());
    assert!(supervisor.wait_all_up(Duration::from_secs(60)));

    // the interleaving is up to the scheduler, so race several rounds;
    // after each, both workers must answer with one checkpoint's bits
    let handles = supervisor.handles();
    let mut winner = Vec::new();
    for _ in 0..32 {
        let start = Arc::new(Barrier::new(2));
        let deploys: Vec<_> = [&dirs[1], &dirs[2]]
            .into_iter()
            .map(|dir| {
                let supervisor = Arc::clone(&supervisor);
                let start = Arc::clone(&start);
                let dir = dir.clone();
                std::thread::spawn(move || {
                    start.wait();
                    supervisor.deploy(&dir)
                })
            })
            .collect();
        for d in deploys {
            let promoted = d.join().unwrap().expect("both deploys must succeed");
            assert_eq!(promoted.len(), 2, "every deploy must promote both workers");
        }
        let served: Vec<Vec<Vec<f64>>> = handles
            .iter()
            .map(|h| recipes.iter().map(|r| classify_on(h, r)).collect())
            .collect();
        assert_eq!(
            served[0], served[1],
            "interleaved deploys left the workers on different checkpoints"
        );
        assert!(
            served[0] == from_b || served[0] == from_c,
            "the fleet serves neither deployed checkpoint"
        );
        winner.clone_from(&served[0]);
    }

    // a worker killed afterwards respawns onto that same checkpoint
    let killed = supervisor.kill_worker(0).expect("worker 0 has a pid");
    let deadline = Instant::now() + Duration::from_secs(60);
    while supervisor.worker_pid(0).is_none_or(|pid| pid == killed)
        || !supervisor.wait_up(0, Duration::from_millis(100))
    {
        assert!(
            Instant::now() < deadline,
            "killed worker was never respawned: {:?}",
            supervisor.phases()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let respawned: Vec<Vec<f64>> = recipes
        .iter()
        .map(|r| classify_on(&handles[0], r))
        .collect();
    assert_eq!(
        respawned, winner,
        "the respawned worker loaded a different checkpoint than the fleet serves"
    );

    drop(handles);
    drop(supervisor);
    for dir in dirs {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in bytes.
fn peak_rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("no VmHWM line")
        .trim()
        .trim_end_matches("kB")
        .trim();
    kib.parse::<u64>().unwrap() * 1024
}

/// Writes a servable LSTM directory of `config`'s shape (random weights,
/// content tokens `t0`, `t1`, …) and returns its checkpoint's size.
fn export_shaped(dir: &Path, config: LstmConfig) -> u64 {
    std::fs::create_dir_all(dir).unwrap();
    let v = Vocabulary::from_tokens((0..config.vocab - 5).map(|i| format!("t{i}")));
    let model = LstmClassifier::new(config, &mut StdRng::seed_from_u64(23));
    ModelManifest::lstm(&config, &v).save(dir).unwrap();
    let checkpoint = dir.join("latest.ckpt");
    save_checkpoint(model.store(), &checkpoint).unwrap();
    std::fs::metadata(&checkpoint).unwrap().len()
}

/// Starts a `replica_worker` on `model_dir` and returns its peak
/// resident set, in bytes, when it first answers a `Ping` and again
/// after it has answered each of `keys` (wire keys), one at a time.
fn worker_peaks(name: &str, model_dir: &Path, keys: &[String]) -> (u64, u64) {
    let run = temp_dir(name);
    std::fs::create_dir_all(&run).unwrap();
    let socket = run.join("worker.sock");
    let mut child = Command::new(WORKER_BIN)
        .arg("--socket")
        .arg(&socket)
        .arg("--model-dir")
        .arg(model_dir)
        .arg("--model-name")
        .arg("lstm")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let handle = RemoteReplica::new(&socket, name, Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(60);
    while let Err(e) = handle.ping(Duration::from_secs(1)) {
        if let Ok(Some(status)) = child.try_wait() {
            panic!("{name}: worker exited ({status}) before answering a ping");
        }
        assert!(Instant::now() < deadline, "{name}: no pong: {e}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let at_start = peak_rss_bytes(child.id());
    for key in keys {
        handle.classify_prepared(key.clone(), None).unwrap();
    }
    let after_serving = peak_rss_bytes(child.id());
    handle.send_shutdown();
    if !matches!(child.try_wait(), Ok(Some(_))) {
        let _ = child.kill();
    }
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&run);
    (at_start, after_serving)
}

#[test]
fn a_served_shape_worker_holds_its_weights_about_once() {
    // the fleet_lstm shape: what loading it adds to a worker's peak, over
    // a tiny model's, must stay near the checkpoint's own size. A load
    // that keeps the whole file beside its decoded copy, or the
    // embedding beside its projection table, holds about twice it. So
    // must what it adds once requests have read every content token,
    // each table row projected over its own embedding row.
    let served = temp_dir("supervisor_memory_served");
    let config = LstmConfig {
        vocab: 5005,
        emb_dim: 256,
        hidden: 64,
        layers: 2,
        dropout: 0.0,
        classes: 26,
        pooling: LstmPooling::LastHidden,
    };
    let served_bytes = export_shaped(&served, config);
    let tiny = temp_dir("supervisor_memory_tiny");
    export_shaped(&tiny, lstm_config());
    // recipes of 20 tokens, t0 to t4999 once each; the tiny model reads
    // every one as its unknown token
    let tokens: Vec<String> = (0..config.vocab - 5).map(|i| format!("t{i}")).collect();
    let keys: Vec<String> = tokens.chunks(20).map(|c| c.join("\x1f")).collect();
    let (served_start, served_after) = worker_peaks("memory-served", &served, &keys);
    let (tiny_start, tiny_after) = worker_peaks("memory-tiny", &tiny, &keys);
    for (when, served_peak, tiny_peak) in [
        ("after start", served_start, tiny_start),
        ("after serving every token", served_after, tiny_after),
    ] {
        let added = served_peak.saturating_sub(tiny_peak);
        let ratio = added as f64 / served_bytes as f64;
        eprintln!(
            "{when}: served worker peak {served_peak} B, tiny {tiny_peak} B, checkpoint \
             {served_bytes} B: {ratio:.2}x"
        );
        assert!(
            ratio <= 1.5,
            "{when}, the served shape added {added} B of peak RSS, {ratio:.2}x its \
             {served_bytes} B checkpoint (bound 1.5x)"
        );
    }
    std::fs::remove_dir_all(&served).unwrap();
    std::fs::remove_dir_all(&tiny).unwrap();
}
