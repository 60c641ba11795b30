//! End-to-end observability check: one traced pipeline run must produce a
//! span tree covering featurize → train → eval with per-epoch timings,
//! plus live pool and arena counters — the same artifact `table4 --trace`
//! writes to `RUN_trace.json`.
//!
//! A traced model load must time each of its steps in a span of its own,
//! nested under `serve.registry.load`, and the LSTM engine's table rows,
//! projected as requests first read their tokens, must be counted and
//! timed where they are built.
//!
//! Trace state is process-global, so each test holds one lock from its
//! first `trace::reset` to its last snapshot.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cuisine::{ModelKind, Pipeline, PipelineConfig, Scale};
use nn::{FusedLstm, LstmClassifier, LstmConfig, LstmPooling, SequenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{BatchServer, Features, ModelManifest, ModelRegistry, ServeConfig, ServingModel};
use textproc::Vocabulary;

fn serial() -> MutexGuard<'static, ()> {
    static TRACE_STATE: Mutex<()> = Mutex::new(());
    TRACE_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Minimal in-process model: enough for the batch server to queue, batch,
/// and answer, so the serve.* metrics accumulate in the same trace.
struct EchoModel;

impl ServingModel for EchoModel {
    fn kind(&self) -> &'static str {
        "echo"
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn featurize(&self, tokens: &[String]) -> Features {
        Features::Ids(vec![tokens.len()])
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        batch.iter().map(|_| vec![0.75, 0.25]).collect()
    }
}

#[test]
fn traced_lstm_run_covers_featurize_train_eval() {
    let _serial = serial();
    trace::reset();
    trace::enable();

    let mut config = PipelineConfig::new(Scale::Custom(0.004), 7);
    config.models.vocab_max_size = 600;
    // shrink the LSTM so the traced run stays test-sized
    config.models.lstm.emb_dim = 8;
    config.models.lstm.hidden = 8;
    config.models.lstm.layers = 1;
    config.models.lstm_trainer.epochs = 2;

    let pipeline = Pipeline::prepare(&config);
    let result = pipeline.run(ModelKind::Lstm, &config);
    assert!(result.report.accuracy.is_finite());

    // tiny matmuls stay on the calling thread (and Auto mode collapses to
    // one thread on single-core machines), so drive the parallel path once
    // explicitly to exercise the pool counters in the same trace
    let a = tensor::Tensor::full(64, 64, 1.0);
    let _ = tensor::matmul_with_threads(&a, &a, 2);

    trace::disable();
    let snap = trace::snapshot();

    // --- span tree -------------------------------------------------------
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_ref()).collect();
    for expected in [
        "featurize",
        "featurize.generate",
        "featurize.preprocess",
        "featurize.encode",
        "model[LSTM]",
        "train",
        "nn.trainer.fit",
        "epoch[0]",
        "epoch[1]",
        "eval",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected:?} missing from {names:?}"
        );
    }

    let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).unwrap();
    // per-epoch timings are real measurements, nested under the fit span
    let fit = by_name("nn.trainer.fit");
    for epoch in ["epoch[0]", "epoch[1]"] {
        let s = by_name(epoch);
        assert!(s.dur_ns > 0, "{epoch} must carry a wall-clock duration");
        assert_eq!(s.parent, Some(fit.id), "{epoch} must nest under the fit");
    }
    // the pipeline phases nest under the model span
    let model = by_name("model[LSTM]");
    assert_eq!(by_name("train").parent, Some(model.id));
    assert_eq!(by_name("eval").parent, Some(model.id));
    assert!(
        by_name("train").dur_ns >= fit.dur_ns,
        "train span encloses the fit"
    );

    // --- counters and gauges ---------------------------------------------
    let arena_activity = snap.counter("autograd.arena.recycled").unwrap_or(0)
        + snap.counter("autograd.arena.allocated").unwrap_or(0);
    assert!(arena_activity > 0, "LSTM backward must touch the arena");
    assert!(
        snap.counter("nn.train.tokens").unwrap_or(0) > 0,
        "token throughput counter must accumulate"
    );
    let pool_activity = snap.counter("tensor.pool.jobs").unwrap_or(0)
        + snap.counter("tensor.pool.scoped_jobs").unwrap_or(0)
        + snap.counter("tensor.pool.inline_fallbacks").unwrap_or(0);
    assert!(pool_activity > 0, "the 64×64 matmul must consult the pool");
    assert!(
        snap.counter("tensor.pool.tiles").unwrap_or(0) > 0,
        "tile counter must accumulate"
    );

    // --- JSON artifact ----------------------------------------------------
    let json = snap.to_json();
    for needle in [
        "\"spans\"",
        "\"counters\"",
        "\"gauges\"",
        "featurize",
        "epoch[0]",
    ] {
        assert!(json.contains(needle), "{needle} missing from JSON:\n{json}");
    }
    let path = std::env::temp_dir().join(format!("RUN_trace_test_{}.json", std::process::id()));
    trace::write_json(&path).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("\"spans\""));
    let _ = std::fs::remove_file(&path);

    // disabled again: new spans and counter bumps must be dropped
    let before = snap.spans.len();
    {
        let _s = trace::span("after-disable");
    }
    assert_eq!(trace::snapshot().spans.len(), before);

    // --- serve queue gauge drains to zero ---------------------------------
    // run a batch server inside a fresh trace window and check the depth
    // gauge lands back at 0 in the snapshot: every enqueue must be
    // matched by a drain, including the final batch and worker exit
    trace::reset();
    trace::enable();
    let registry = Arc::new(ModelRegistry::new());
    registry.set_warmup(false); // EchoModel needs no gating here
    registry.publish("echo", Box::new(EchoModel)).unwrap();
    let server = BatchServer::start(
        Arc::clone(&registry),
        "echo",
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server = Arc::new(server);
    let drivers: Vec<_> = (0..3)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for i in 0..40 {
                    server
                        .classify(&format!("salt, pepper, spice-{t}-{i}"), None)
                        .unwrap();
                }
            })
        })
        .collect();
    for d in drivers {
        d.join().unwrap();
    }
    server.shutdown();
    trace::disable();
    let serve_snap = trace::snapshot();
    assert!(
        serve_snap.counter("serve.requests").unwrap_or(0) >= 120,
        "all driven requests must be counted"
    );
    assert_eq!(
        serve_snap.gauge("serve.queue.depth"),
        Some(0),
        "queue depth gauge must return to 0 after drain + shutdown"
    );
}

#[test]
fn traced_lstm_load_times_each_step_under_the_load_span() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!(
        "trace_integration_lstm_load_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = LstmConfig {
        vocab: 12,
        emb_dim: 8,
        hidden: 6,
        layers: 2,
        dropout: 0.0,
        classes: 3,
        pooling: LstmPooling::LastHidden,
    };
    let vocab = Vocabulary::from_tokens((0..7).map(|i| format!("t{i}")));
    ModelManifest::lstm(&config, &vocab).save(&dir).unwrap();
    let model = LstmClassifier::new(config, &mut StdRng::seed_from_u64(25));
    nn::save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();

    trace::reset();
    trace::enable();
    ModelRegistry::new().load("lstm", &dir).unwrap();
    trace::disable();
    let snap = trace::snapshot();
    std::fs::remove_dir_all(&dir).unwrap();

    let load = snap
        .spans
        .iter()
        .find(|s| s.name == "serve.registry.load")
        .expect("the load span");
    let steps: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.parent == Some(load.id))
        .collect();
    let names: Vec<&str> = steps.iter().map(|s| s.name.as_ref()).collect();
    assert_eq!(
        names,
        [
            "serve.registry.manifest",
            "nn.checkpoint.load",
            "serve.registry.gate",
            "serve.registry.build",
            "serve.registry.warmup",
        ],
        "the load's steps, in start order"
    );
    let within: u128 = steps.iter().map(|s| s.dur_ns).sum();
    assert!(
        within <= load.dur_ns,
        "steps take {within} ns of a {} ns load",
        load.dur_ns
    );
}

#[test]
fn table_rows_are_counted_and_timed_once_each() {
    let _serial = serial();
    let config = LstmConfig {
        vocab: 40,
        emb_dim: 8,
        hidden: 6,
        layers: 2,
        dropout: 0.0,
        classes: 3,
        pooling: LstmPooling::LastHidden,
    };
    let engine = FusedLstm::new(LstmClassifier::new(config, &mut StdRng::seed_from_u64(26)));
    // counter and span totals after each batch, in order
    let after = |batch: &[&[usize]]| {
        engine.predict_proba_batch(batch);
        let snap = trace::snapshot();
        let spans = snap
            .spans
            .iter()
            .filter(|s| s.name == "nn.infer.project")
            .count();
        (snap.counter("nn.infer.table_rows").unwrap_or(0), spans)
    };

    trace::reset();
    trace::enable();
    // five new ids (5, 9, 12, 30, 31), some repeated
    let batch: [&[usize]; 3] = [&[5, 9, 5], &[12], &[9, 30, 31, 12]];
    let first = after(&batch);
    let repeated = after(&batch);
    // two new ids (2, 33) among seen ones
    let mixed = after(&[&[33, 5], &[2, 2, 30]]);
    trace::disable();

    assert_eq!(first, (5, 1), "a batch of 5 new ids: rows and spans");
    assert_eq!(repeated, (5, 1), "a repeated batch projects nothing");
    assert_eq!(mixed, (7, 2), "2 new ids among seen ones: rows and spans");
}
