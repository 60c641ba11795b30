//! Load generator for the completion-queue front-end
//! ([`serve::BatchServer::submit`] + [`serve::CompletionQueue`]).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin cq_load -- \
//!     [--requests 1536] [--stall-us 300] [--max-batch 16] \
//!     [--min-inflight 1024] [--json BENCH_cq.json] [--trace]
//! ```
//!
//! Proves two properties of the non-blocking front-end and emits the
//! timings to `BENCH_cq.json`:
//!
//! 1. **Concurrency from one thread**: a single submitter thread pushes
//!    the whole request stream through `submit` before collecting a
//!    single answer. Because the model carries a per-request stall (the
//!    [`bench::serving::StalledModel`] off-CPU idiom), submission far
//!    outruns the batch worker and the peak number of tickets in flight
//!    must reach `--min-inflight` — the blocking `classify` path would
//!    need that many client *threads* to pin the same depth.
//! 2. **Bit-identity**: every completion's probability row must bitwise
//!    equal the sequential pre-serve path (the fused engine, one request
//!    at a time), which is also what the blocking `classify_prepared`
//!    path answers — both fronts ride the same queue, worker, and fused
//!    forward pass.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::serving::{content_tokens, synth_recipes, to_ids, StalledModel, CLASSES};
use bench::HarnessArgs;
use nn::{FusedLstm, LstmClassifier, LstmConfig, LstmPooling};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{BatchServer, CompletionQueue, LstmServing, ModelRegistry, ServeConfig, Ticket};
use textproc::Vocabulary;

/// Small enough that per-request compute is negligible next to the
/// injected stall: the measurement is about queueing, not matmuls.
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
        "--requests N",
        "--stall-us N",
        "--max-batch N",
        "--min-inflight N",
        "--json PATH",
        "--trace",
        "--trace-out PATH",
    ]);
    args.init_trace();
    let requests: usize = args
        .value_of("--requests")
        .map_or(1536, |v| v.parse().expect("--requests must be an integer"));
    let stall_us: u64 = args
        .value_of("--stall-us")
        .map_or(300, |v| v.parse().expect("--stall-us must be an integer"));
    let max_batch: usize = args
        .value_of("--max-batch")
        .map_or(16, |v| v.parse().expect("--max-batch must be an integer"));
    let min_inflight: usize = args.value_of("--min-inflight").map_or(1024, |v| {
        v.parse().expect("--min-inflight must be an integer")
    });
    assert!(
        requests > min_inflight,
        "--requests ({requests}) must exceed --min-inflight ({min_inflight})"
    );

    // --- model + reference answers --------------------------------------
    let tokens = content_tokens();
    let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xc0);
    let model = LstmClassifier::new(tiny_lstm_config(vocab.len()), &mut rng);
    let recipes = synth_recipes(requests, &tokens, args.seed ^ 0xc0de);

    eprintln!("sequential reference: {requests} requests through the fused engine");
    let engine = FusedLstm::new(model.clone());
    let started = Instant::now();
    let reference: Vec<Vec<f64>> = recipes
        .iter()
        .map(|(r, _)| {
            engine
                .predict_proba_batch(&[&to_ids(r, &vocab)])
                .pop()
                .expect("one row per request")
        })
        .collect();
    let seq_elapsed = started.elapsed();

    let registry = Arc::new(ModelRegistry::new());
    registry
        .publish(
            "lstm-stalled",
            Box::new(StalledModel::new(
                Box::new(LstmServing::new(model, vocab.clone())),
                Duration::from_micros(stall_us),
            )),
        )
        .expect("publish stalled model");
    let server = BatchServer::start(
        Arc::clone(&registry),
        "lstm-stalled",
        ServeConfig {
            max_batch,
            queue_capacity: requests,
            // distinct keys per request: the cache must not collapse the
            // stream, or the in-flight count would be measuring memoization
            cache_capacity: 16,
        },
    )
    .expect("start batch server");

    // --- one submitter thread, the whole stream in flight ----------------
    eprintln!(
        "submitting {requests} requests from one thread ({stall_us} us/request stall, max_batch {max_batch})"
    );
    let cq = CompletionQueue::new();
    let mut by_ticket: HashMap<Ticket, usize> = HashMap::with_capacity(requests);
    let mut peak_inflight = 0usize;
    let submit_started = Instant::now();
    for (i, (recipe, _)) in recipes.iter().enumerate() {
        let entity_tokens = cuisine::featurize::entity_tokens(recipe);
        let key = format!("{i}:{}", entity_tokens.join("\x1f"));
        let ticket = server
            .submit(entity_tokens, key, None, &cq)
            .expect("submit under load");
        by_ticket.insert(ticket, i);
        peak_inflight = peak_inflight.max(cq.outstanding());
    }
    let submit_elapsed = submit_started.elapsed();

    // --- drain completions -----------------------------------------------
    let mut answers: Vec<Option<Vec<f64>>> = vec![None; requests];
    while let Some(done) = cq.wait_with_timeout(Duration::from_secs(60)) {
        let i = by_ticket
            .remove(&done.ticket)
            .expect("each ticket completes once");
        let prediction = done.result.expect("every submission answers");
        assert!(
            answers[i].replace(prediction.probs).is_none(),
            "request {i} answered twice"
        );
    }
    let total_elapsed = submit_started.elapsed();
    assert!(by_ticket.is_empty(), "{} tickets leaked", by_ticket.len());
    server.shutdown();

    // --- bit-identity vs the blocking/sequential path ---------------------
    let mut mismatches = 0usize;
    for (i, row) in answers.iter().enumerate() {
        let row = row.as_ref().expect("every request answered");
        if *row != reference[i] {
            mismatches += 1;
        }
    }

    let submit_ns = submit_elapsed.as_nanos() as f64 / requests as f64;
    let drain_ns = total_elapsed.as_nanos() as f64 / requests as f64;
    let rps = requests as f64 / total_elapsed.as_secs_f64();
    println!("requests:        {requests}");
    println!(
        "submit:          {submit_ns:.0} ns/request ({:.1} ms for the whole stream)",
        submit_elapsed.as_secs_f64() * 1e3
    );
    println!("peak in-flight:  {peak_inflight} (gate: >= {min_inflight})");
    println!("drain:           {rps:.1} req/s end to end");
    println!(
        "sequential:      {:.1} req/s (no stall)",
        requests as f64 / seq_elapsed.as_secs_f64()
    );
    println!("mismatches:      {mismatches} (vs sequential pre-serve path)");

    let json_path = PathBuf::from(args.value_of("--json").unwrap_or("BENCH_cq.json"));
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"cq\",\n",
            "  \"requests\": {},\n",
            "  \"stall_us\": {},\n",
            "  \"max_batch\": {},\n",
            "  \"entries\": [\n",
            "    {{\"path\": \"submit\", \"latency_ns\": {:.1}}},\n",
            "    {{\"path\": \"drain\", \"latency_ns\": {:.1}, \"rps\": {:.2}, ",
            "\"peak_inflight\": {}, \"mismatches\": {}}}\n",
            "  ]\n",
            "}}\n"
        ),
        requests, stall_us, max_batch, submit_ns, drain_ns, rps, peak_inflight, mismatches,
    );
    std::fs::write(&json_path, json).expect("write BENCH_cq.json");
    eprintln!("wrote {}", json_path.display());
    args.finish_trace();

    assert_eq!(
        mismatches, 0,
        "completion-queue answers drifted from the sequential path"
    );
    assert!(
        peak_inflight >= min_inflight,
        "peak in-flight {peak_inflight} below required {min_inflight}: \
         the submitter failed to outrun the stalled worker"
    );
    println!("cq gate:         ok ({peak_inflight} >= {min_inflight} in flight, bit-identical)");
}
