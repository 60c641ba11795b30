//! Load generator for the batch worker's parallel featurization.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin registry_load -- \
//!     [--feat-batch 32] [--feat-stall-us 2000] [--min-featurize-speedup 2.5] \
//!     [--json BENCH_registry.json] [--trace]
//! ```
//!
//! One gate, emitted to `BENCH_registry.json`: a cold-cache burst of
//! `--feat-batch` distinct requests whose featurize calls carry an
//! off-CPU stall ([`bench::serving::StalledFeaturesModel`]). The worker
//! cuts what has arrived when it wakes (usually the first request
//! alone), then the rest, queued behind that pass, as one batch whose
//! featurize calls fan out across `tensor::pool`, so the burst must
//! complete ≥ `--min-featurize-speedup` × faster than the serial
//! featurize loop (gated when the pool has ≥ 4 threads), with answers
//! bit-identical to the sequential pre-serve path.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::serving::{content_tokens, synth_recipes, StalledFeaturesModel, CLASSES};
use bench::HarnessArgs;
use nn::{LstmClassifier, LstmConfig, LstmPooling};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    BatchServer, CompletionQueue, Features, LstmServing, ModelRegistry, ServeConfig, Ticket,
};
use textproc::Vocabulary;

/// Small enough that per-request compute is negligible next to the
/// injected featurize stall.
fn tiny_lstm_config(vocab: usize) -> LstmConfig {
    LstmConfig {
        vocab,
        emb_dim: 16,
        hidden: 16,
        layers: 1,
        dropout: 0.0,
        classes: CLASSES,
        pooling: LstmPooling::LastHidden,
    }
}

fn main() {
    let args = HarnessArgs::parse(&[
        "--feat-batch N",
        "--feat-stall-us N",
        "--min-featurize-speedup X",
        "--json PATH",
        "--trace",
        "--trace-out PATH",
    ]);
    args.init_trace();
    let feat_batch: usize = args
        .value_of("--feat-batch")
        .map_or(32, |v| v.parse().expect("--feat-batch must be an integer"));
    let feat_stall_us: u64 = args.value_of("--feat-stall-us").map_or(2000, |v| {
        v.parse().expect("--feat-stall-us must be an integer")
    });
    let min_feat_speedup: f64 = args.value_of("--min-featurize-speedup").map_or(2.5, |v| {
        v.parse().expect("--min-featurize-speedup must be a float")
    });

    let pool_threads = tensor::pool::num_threads();
    eprintln!(
        "featurize arm: batch of {feat_batch}, {feat_stall_us} us stall per featurize, \
         {pool_threads} pool threads"
    );
    let tokens = content_tokens();
    let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x2e9);
    let model = LstmClassifier::new(tiny_lstm_config(vocab.len()), &mut rng);
    let recipes = synth_recipes(feat_batch, &tokens, args.seed ^ 0xfea7);
    let reference: Vec<Vec<f64>> = recipes
        .iter()
        .map(|(r, _)| {
            let ids = bench::serving::to_ids(r, &vocab);
            nn::predict_proba_graph(&model, &[&ids])
                .pop()
                .expect("one row per request")
        })
        .collect();

    let feat_registry = Arc::new(ModelRegistry::new());
    feat_registry
        .publish(
            "lstm-feat-stalled",
            Box::new(StalledFeaturesModel::new(
                Box::new(LstmServing::new(model, vocab.clone())),
                Duration::from_micros(feat_stall_us),
            )),
        )
        .expect("publish stalled-featurize model");

    // serial reference: a one-at-a-time featurize loop, same virtual
    // dispatch, one stall per request
    let entry = feat_registry.get("lstm-feat-stalled").expect("published");
    let token_lists: Vec<Vec<String>> = recipes
        .iter()
        .map(|(r, _)| cuisine::featurize::entity_tokens(r))
        .collect();
    let serial_started = Instant::now();
    let serial_features: Vec<Features> = token_lists
        .iter()
        .map(|t| entry.model().featurize(t))
        .collect();
    let serial = serial_started.elapsed();
    drop(serial_features);

    let server = BatchServer::start(
        Arc::clone(&feat_registry),
        "lstm-feat-stalled",
        ServeConfig {
            max_batch: feat_batch,
            queue_capacity: feat_batch * 2,
            cache_capacity: feat_batch * 2,
        },
    )
    .expect("start batch server");
    let cq = CompletionQueue::new();
    let mut by_ticket: HashMap<Ticket, usize> = HashMap::with_capacity(feat_batch);
    let parallel_started = Instant::now();
    for (i, tokens) in token_lists.iter().enumerate() {
        // distinct keys: every request must be a cache miss
        let key = format!("{i}:{}", tokens.join("\x1f"));
        let ticket = server
            .submit(tokens.clone(), key, None, &cq)
            .expect("submit cold batch");
        by_ticket.insert(ticket, i);
    }
    let mut answers: Vec<Option<Vec<f64>>> = vec![None; feat_batch];
    while let Some(done) = cq.wait_with_timeout(Duration::from_secs(60)) {
        let i = by_ticket.remove(&done.ticket).expect("ticket known");
        let prediction = done.result.expect("every submission answers");
        assert!(answers[i].replace(prediction.probs).is_none());
    }
    let parallel = parallel_started.elapsed();
    assert!(by_ticket.is_empty(), "{} tickets leaked", by_ticket.len());
    server.shutdown();

    let mismatches = answers
        .iter()
        .enumerate()
        .filter(|(i, row)| row.as_ref().expect("every request answered") != &reference[*i])
        .count();
    let feat_speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "featurize:         batch {:.1} ms vs serial {:.1} ms = {feat_speedup:.2}x \
         ({mismatches} mismatches)",
        parallel.as_secs_f64() * 1e3,
        serial.as_secs_f64() * 1e3,
    );

    let json_path = PathBuf::from(args.value_of("--json").unwrap_or("BENCH_registry.json"));
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"registry\",\n",
            "  \"entries\": [\n",
            "    {{\"path\": \"featurize_batch\", \"latency_ns\": {:.1}, \"wall_ms\": {:.3}, ",
            "\"serial_ms\": {:.3}, \"speedup\": {:.3}, \"mismatches\": {}, ",
            "\"pool_threads\": {}}}\n",
            "  ]\n",
            "}}\n"
        ),
        parallel.as_nanos() as f64 / feat_batch as f64,
        parallel.as_secs_f64() * 1e3,
        serial.as_secs_f64() * 1e3,
        feat_speedup,
        mismatches,
        pool_threads,
    );
    std::fs::write(&json_path, json).expect("write BENCH_registry.json");
    eprintln!("wrote {}", json_path.display());
    args.finish_trace();

    assert_eq!(
        mismatches, 0,
        "parallel featurization drifted from the sequential path"
    );
    if pool_threads >= 4 {
        assert!(
            feat_speedup >= min_feat_speedup,
            "batch featurization sped up only {feat_speedup:.2}x with {pool_threads} \
             pool threads (gate: {min_feat_speedup:.2}x)"
        );
    } else {
        eprintln!(
            "featurize speedup gate skipped: {pool_threads} pool thread(s) \
             (set TENSOR_THREADS>=4 to gate)"
        );
    }
    println!("featurize gate:    ok ({feat_speedup:.2}x, bit-identical)");
}
