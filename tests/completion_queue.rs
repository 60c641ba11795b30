//! Integration tests for the non-blocking completion-queue front-end
//! (`BatchServer::submit` + `CompletionQueue`) and for the replica event
//! loop, which multiplexes client sockets and runs each batch on its own
//! thread through the same batch step.
//!
//! The load-bearing contract: every admitted ticket terminates exactly
//! once — through a model answer, a cancellation, a deadline, or a
//! drain — no double-delivery, no leaked ticket, regardless of how
//! shutdown races submission. Over the socket, every request is answered
//! once unless its client left first, in which case it costs no compute.
//! check.sh runs this suite at several `TENSOR_THREADS` settings.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serve::eventloop::{self, EventLoopConfig, LoopExit};
use serve::transport::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use serve::{
    BatchServer, CompletionQueue, Features, ModelRegistry, ServeConfig, ServeError, ServingModel,
    Ticket,
};

/// Token count of the recipe [`CountModel`] panics on.
const PANIC_TOKENS: usize = 7;

/// Deterministic toy model: probabilities depend only on the token
/// count, so any two paths through the server are trivially comparable.
struct CountModel {
    /// Per-batch predict stall, to keep tickets in flight long enough
    /// for shutdown/cancel races to actually race.
    stall: Duration,
    /// Requests that reached `predict`.
    predicted: Arc<AtomicUsize>,
}

impl CountModel {
    fn new(stall: Duration) -> Self {
        Self {
            stall,
            predicted: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl ServingModel for CountModel {
    fn kind(&self) -> &'static str {
        "count"
    }
    fn num_classes(&self) -> usize {
        3
    }
    fn featurize(&self, tokens: &[String]) -> Features {
        Features::Ids(vec![tokens.len()])
    }
    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        self.predicted.fetch_add(batch.len(), Ordering::Relaxed);
        assert!(
            !batch.contains(&&Features::Ids(vec![PANIC_TOKENS])),
            "marked recipe reached the model"
        );
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        batch
            .iter()
            .map(|f| {
                let n = match f {
                    Features::Ids(ids) => ids[0] as f64,
                    _ => 0.0,
                };
                let total = n + 2.0;
                vec![n / total, 1.0 / total, 1.0 / total]
            })
            .collect()
    }
}

/// Holds forward passes until the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    held: AtomicUsize,
}

impl Gate {
    fn pass(&self) {
        self.held.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Spins until a forward pass waits at the closed gate.
    fn wait_until_held(&self) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.held.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < give_up, "no forward pass reached the gate");
            std::thread::yield_now();
        }
    }
}

/// A [`CountModel`] whose forward passes wait at a [`Gate`]: holds the
/// event loop inside a batch for as long as a test needs.
struct GatedModel {
    gate: Arc<Gate>,
    inner: CountModel,
}

impl ServingModel for GatedModel {
    fn kind(&self) -> &'static str {
        "gated"
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn featurize(&self, tokens: &[String]) -> Features {
        self.inner.featurize(tokens)
    }
    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        self.gate.pass();
        self.inner.predict(batch)
    }
}

/// A registry serving one [`CountModel`], and its predicted-request count.
fn count_registry(stall: Duration) -> (Arc<ModelRegistry>, Arc<AtomicUsize>) {
    let model = CountModel::new(stall);
    let predicted = Arc::clone(&model.predicted);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("count", Box::new(model)).unwrap();
    (registry, predicted)
}

fn start_server(stall: Duration, config: ServeConfig) -> (Arc<BatchServer>, Arc<ModelRegistry>) {
    let (registry, _) = count_registry(stall);
    let server = BatchServer::start(Arc::clone(&registry), "count", config).unwrap();
    (Arc::new(server), registry)
}

/// Binds a temporary socket and runs the event loop over `registry`'s
/// count model on a thread of its own.
fn spawn_loop(
    tag: &str,
    registry: &Arc<ModelRegistry>,
    serve: ServeConfig,
) -> (PathBuf, JoinHandle<io::Result<LoopExit>>) {
    let socket = temp_socket(tag);
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap();
    let registry = Arc::clone(registry);
    let loop_thread = std::thread::spawn(move || {
        eventloop::run(
            listener,
            &serve,
            &registry,
            "count",
            &EventLoopConfig::default(),
            None,
        )
    });
    (socket, loop_thread)
}

fn classify_frame(id: u64, key: &str) -> Vec<u8> {
    encode_request(&Request::Classify {
        id,
        deadline_us: 0,
        key: key.into(),
    })
}

fn tokens_for(i: usize) -> (Vec<String>, String) {
    let tokens: Vec<String> = (0..(i % 5) + 1).map(|t| format!("tok{t}")).collect();
    let key = format!("req-{i}:{}", tokens.join("\x1f"));
    (tokens, key)
}

fn temp_socket(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir();
    dir.join(format!("cq-{tag}-{}.sock", std::process::id()))
}

#[test]
fn shutdown_with_outstanding_tickets_terminates_each_exactly_once() {
    let (server, _registry) = start_server(
        Duration::from_millis(2),
        ServeConfig {
            max_batch: 4,
            queue_capacity: 512,
            ..ServeConfig::default()
        },
    );
    let cq = CompletionQueue::new();
    let mut expected: Vec<Ticket> = Vec::new();
    for i in 0..128 {
        let (tokens, key) = tokens_for(i);
        expected.push(server.submit(tokens, key, None, &cq).unwrap());
    }

    // shutdown while most tickets are still queued: drain semantics say
    // every one of them still answers through the model
    server.shutdown();

    let mut seen: HashMap<Ticket, usize> = HashMap::new();
    while let Some(done) = cq.wait_with_timeout(Duration::from_secs(10)) {
        *seen.entry(done.ticket).or_default() += 1;
        let prediction = done
            .result
            .expect("drained tickets answer through the model");
        assert_eq!(prediction.probs.len(), 3);
    }
    assert_eq!(seen.len(), expected.len(), "every ticket terminates");
    for ticket in &expected {
        assert_eq!(seen.get(ticket), Some(&1), "{ticket:?} delivered once");
    }
    assert_eq!(cq.outstanding(), 0, "no leaked tickets");
    assert_eq!(cq.ready(), 0, "no stray completions");

    // intake is closed: a late submit fails synchronously and leaves
    // nothing outstanding
    let (tokens, key) = tokens_for(999);
    match server.submit(tokens, key, None, &cq) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert_eq!(cq.outstanding(), 0);
}

#[test]
fn canceled_tickets_terminate_once_and_skip_compute() {
    let (server, _registry) = start_server(
        Duration::from_millis(5),
        ServeConfig {
            max_batch: 2,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );
    let cq = CompletionQueue::new();
    let mut tickets = Vec::new();
    for i in 0..64 {
        let (tokens, key) = tokens_for(i);
        tickets.push(server.submit(tokens, key, None, &cq).unwrap());
    }
    // cancel every other ticket while the worker is still chewing
    let mut canceled = Vec::new();
    for (i, ticket) in tickets.iter().enumerate() {
        if i % 2 == 1 && cq.cancel(*ticket) {
            canceled.push(*ticket);
        }
    }
    assert!(!canceled.is_empty(), "some cancellations must land");

    let mut seen: HashMap<Ticket, usize> = HashMap::new();
    let mut canceled_seen = 0;
    while let Some(done) = cq.wait_with_timeout(Duration::from_secs(10)) {
        *seen.entry(done.ticket).or_default() += 1;
        match done.result {
            Ok(prediction) => assert_eq!(prediction.probs.len(), 3),
            Err(ServeError::Canceled) => {
                assert!(canceled.contains(&done.ticket));
                canceled_seen += 1;
            }
            Err(other) => panic!("unexpected terminal error {other:?}"),
        }
    }
    assert_eq!(seen.len(), tickets.len(), "every ticket terminates");
    assert!(seen.values().all(|&n| n == 1), "no double delivery");
    assert_eq!(canceled_seen, canceled.len());
    assert_eq!(cq.outstanding(), 0);
    server.shutdown();
}

#[test]
fn submitted_answers_match_the_blocking_path_bitwise() {
    let (server, _registry) = start_server(Duration::ZERO, ServeConfig::default());
    let cq = CompletionQueue::new();
    let mut by_ticket = HashMap::new();
    for i in 0..32 {
        let (tokens, key) = tokens_for(i);
        let ticket = server
            .submit(tokens.clone(), key.clone(), None, &cq)
            .unwrap();
        by_ticket.insert(ticket, (tokens, key));
    }
    let mut done = 0;
    while let Some(completion) = cq.wait_with_timeout(Duration::from_secs(10)) {
        let (tokens, key) = by_ticket.remove(&completion.ticket).unwrap();
        let via_queue = completion.result.unwrap();
        let blocking = server.classify_prepared(tokens, key, None).unwrap();
        assert_eq!(via_queue.probs, blocking.probs, "bit-identical answers");
        assert_eq!(via_queue.top_class, blocking.top_class);
        done += 1;
    }
    assert_eq!(done, 32);
    server.shutdown();
}

#[test]
fn event_loop_pipelines_many_requests_on_one_connection() {
    // the in-process server is the ground truth the loop's answers match
    let (server, registry) = start_server(Duration::ZERO, ServeConfig::default());
    let (socket, loop_thread) = spawn_loop("pipeline", &registry, ServeConfig::default());

    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // pipeline every request up front without reading a single response:
    // a thread-per-connection worker would answer these strictly in
    // lockstep; the event loop queues them all and batches them
    let total: u64 = 200;
    let mut expected = HashMap::new();
    for id in 0..total {
        let (tokens, _) = tokens_for(id as usize);
        let key = tokens.join("\x1f");
        let request = Request::Classify {
            id,
            deadline_us: 0,
            key: key.clone(),
        };
        write_frame(&mut conn, &encode_request(&request)).unwrap();
        let truth = server.classify_prepared(tokens, key, None).unwrap();
        expected.insert(id, truth);
    }
    // a Ping rides the same multiplexed connection
    write_frame(&mut conn, &encode_request(&Request::Ping { id: 9_999 })).unwrap();

    let mut answered = HashMap::new();
    let mut pong_seen = false;
    for _ in 0..=total {
        let payload = read_frame(&mut conn).unwrap();
        match decode_response(&payload).unwrap() {
            Response::Prediction { id, prediction } => {
                assert!(
                    answered.insert(id, prediction).is_none(),
                    "duplicate id {id}"
                );
            }
            Response::Pong { id, .. } => {
                assert_eq!(id, 9_999);
                pong_seen = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(pong_seen);
    assert_eq!(answered.len() as u64, total);
    for (id, truth) in &expected {
        let got = &answered[id];
        assert_eq!(got.probs, truth.probs, "id {id}: bit-identical answers");
        assert_eq!(got.top_class, truth.top_class);
    }

    // a clean shutdown drains and stops the loop with exit code 0
    write_frame(&mut conn, &encode_request(&Request::Shutdown { id: 0 })).unwrap();
    let exit = loop_thread.join().unwrap().unwrap();
    assert_eq!(exit, LoopExit::ShutdownRequested);
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn event_loop_survives_client_disconnect_with_requests_in_flight() {
    let (registry, predicted) = count_registry(Duration::from_millis(5));
    let (socket, loop_thread) = spawn_loop(
        "disconnect",
        &registry,
        ServeConfig {
            max_batch: 2,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );

    // flood and vanish: the loop must drop the orphaned requests at the
    // next cut and keep serving other clients
    let flooded = 50;
    let warmup = predicted.load(Ordering::Relaxed);
    {
        let mut doomed = UnixStream::connect(&socket).unwrap();
        doomed
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for id in 0..flooded as u64 {
            write_frame(&mut doomed, &classify_frame(id, "soy\x1fginger")).unwrap();
        }
        // the Pong is written once the loop has read every frame before
        // it, so the flood is queued before the client hangs up
        write_frame(&mut doomed, &encode_request(&Request::Ping { id: 99 })).unwrap();
        while !matches!(
            decode_response(&read_frame(&mut doomed).unwrap()).unwrap(),
            Response::Pong { .. }
        ) {}
    } // dropped with answers still in flight

    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = Request::Classify {
        id: 7,
        deadline_us: 0,
        key: "soy\x1fginger\x1frice".into(),
    };
    write_frame(&mut conn, &encode_request(&request)).unwrap();
    match decode_response(&read_frame(&mut conn).unwrap()).unwrap() {
        Response::Prediction { id, prediction } => {
            assert_eq!(id, 7);
            assert_eq!(prediction.probs.len(), 3);
        }
        other => panic!("expected Prediction, got {other:?}"),
    }
    // at 5 ms and two requests a pass, serving the whole flood would take
    // 125 ms; the loop noticed the hang-up long before and dropped the
    // rest uncomputed (request 7 is the one answered above)
    let reached = predicted.load(Ordering::Relaxed) - warmup - 1;
    assert!(
        reached < flooded,
        "{reached} flooded requests reached predict: the vanished client's flood was computed"
    );

    write_frame(&mut conn, &encode_request(&Request::Shutdown { id: 8 })).unwrap();
    let exit = loop_thread.join().unwrap().unwrap();
    assert_eq!(exit, LoopExit::ShutdownRequested);
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn event_loop_shutdown_drains_queued_requests_through_the_model() {
    let (registry, _) = count_registry(Duration::from_millis(1));
    let (socket, loop_thread) = spawn_loop(
        "drain",
        &registry,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // every request and the Shutdown leave in one write, so the loop
    // meets the Shutdown with requests still queued
    let total = 40u64;
    let mut burst = Vec::new();
    for id in 0..total {
        let (tokens, _) = tokens_for(id as usize);
        write_frame(&mut burst, &classify_frame(id, &tokens.join("\x1f"))).unwrap();
    }
    write_frame(
        &mut burst,
        &encode_request(&Request::Shutdown { id: total }),
    )
    .unwrap();
    conn.write_all(&burst).unwrap();

    let exit = loop_thread.join().unwrap().unwrap();
    assert_eq!(exit, LoopExit::ShutdownRequested);
    let mut answered = Vec::new();
    for _ in 0..total {
        match decode_response(&read_frame(&mut conn).unwrap()).unwrap() {
            Response::Prediction { id, prediction } => {
                assert_eq!(prediction.probs.len(), 3);
                answered.push(id);
            }
            other => panic!("expected Prediction, got {other:?}"),
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, (0..total).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn event_loop_answers_a_panicking_batch_canceled_and_keeps_serving() {
    let (registry, _) = count_registry(Duration::ZERO);
    let (socket, loop_thread) = spawn_loop("panic", &registry, ServeConfig::default());
    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // the marked recipe alone makes up its batch, and the model panics on it
    let marked: Vec<String> = (0..PANIC_TOKENS).map(|t| format!("tok{t}")).collect();
    write_frame(&mut conn, &classify_frame(1, &marked.join("\x1f"))).unwrap();
    match decode_response(&read_frame(&mut conn).unwrap()).unwrap() {
        Response::Error { id, error } => {
            assert_eq!(id, 1);
            assert_eq!(error, ServeError::Canceled);
        }
        other => panic!("expected a Canceled error, got {other:?}"),
    }

    // the same connection is served normally afterwards
    write_frame(&mut conn, &classify_frame(2, "soy\x1fginger")).unwrap();
    match decode_response(&read_frame(&mut conn).unwrap()).unwrap() {
        Response::Prediction { id, prediction } => {
            assert_eq!(id, 2);
            assert_eq!(prediction.probs, vec![0.5, 0.25, 0.25]);
        }
        other => panic!("expected Prediction, got {other:?}"),
    }

    write_frame(&mut conn, &encode_request(&Request::Shutdown { id: 3 })).unwrap();
    let exit = loop_thread.join().unwrap().unwrap();
    assert_eq!(exit, LoopExit::ShutdownRequested);
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn event_loop_answers_requests_that_arrive_with_a_half_close() {
    let gate = Arc::new(Gate::default());
    let registry = Arc::new(ModelRegistry::new());
    // warmup would wait at the closed gate; the gate is the fixture
    registry.set_warmup(false);
    let model = GatedModel {
        gate: Arc::clone(&gate),
        inner: CountModel::new(Duration::ZERO),
    };
    registry.publish("count", Box::new(model)).unwrap();
    let (socket, loop_thread) = spawn_loop("halfclose", &registry, ServeConfig::default());

    // hold the loop inside a batch
    let mut holder = UnixStream::connect(&socket).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut holder, &classify_frame(1, "soy\x1fginger\x1frice")).unwrap();
    gate.wait_until_held();

    // meanwhile one request and the client's half-close arrive together
    let mut client = UnixStream::connect(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut client, &classify_frame(2, "soy\x1fginger")).unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    gate.open();

    let model = CountModel::new(Duration::ZERO);
    let expected = model.predict(&[&model.featurize(&["soy".into(), "ginger".into()])]);
    let bits = |probs: &[f64]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    match decode_response(&read_frame(&mut client).unwrap()).unwrap() {
        Response::Prediction { id, prediction } => {
            assert_eq!(id, 2);
            assert_eq!(bits(&prediction.probs), bits(&expected[0]));
            assert_eq!(prediction.top_class, 0);
        }
        other => panic!("expected Prediction, got {other:?}"),
    }
    // then EOF: the loop closes the connection once it owes it nothing
    let mut rest = Vec::new();
    assert_eq!(client.read_to_end(&mut rest).unwrap(), 0, "{rest:?}");

    match decode_response(&read_frame(&mut holder).unwrap()).unwrap() {
        Response::Prediction { id, .. } => assert_eq!(id, 1),
        other => panic!("expected Prediction, got {other:?}"),
    }
    write_frame(&mut holder, &encode_request(&Request::Shutdown { id: 3 })).unwrap();
    let exit = loop_thread.join().unwrap().unwrap();
    assert_eq!(exit, LoopExit::ShutdownRequested);
    let _ = std::fs::remove_file(&socket);
}
