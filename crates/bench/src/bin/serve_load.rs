//! Load generator for the batched inference service.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin serve_load -- \
//!     [--requests 512] [--clients 16] [--max-batch 16] \
//!     [--min-speedup 3.0] [--json BENCH_serve.json] [--trace]
//! ```
//!
//! Builds an LSTM serving model (vocab 5005, emb 256, hidden 64, 2
//! layers, 26 classes — the paper's cuisine count) with seeded random
//! weights, exports it as a model directory, and drives one stream of
//! class-structured synthetic recipes through two paths:
//!
//! 1. **sequential**: one request at a time through the pre-serve code
//!    path — featurize, then `nn::predict_proba_graph` on a singleton
//!    batch (each request pays its own graph + parameter binding).
//! 2. **batched**: `--clients` threads through a [`serve::BatchServer`],
//!    so concurrent requests share fused forward passes. Every answer is
//!    asserted bit-identical to its sequential counterpart, and
//!    `--min-speedup` gates the batched-over-sequential throughput.
//!
//! Results go to `BENCH_serve.json`. The run also sweeps the
//! feature-cache hit rate against capacity on a Zipf-distributed key
//! stream (the empirical shape of recipe lookups) and emits the sweep
//! into `BENCH_serve.json`; `ServeConfig::default().cache_capacity` is
//! chosen from that data.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::serving::{
    content_tokens, lstm_config, percentile, synth_recipes, to_ids, write_model_dir,
};
use bench::HarnessArgs;
use nn::LstmClassifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{BatchServer, LruCache, ModelRegistry, Prediction, ServeConfig};
use textproc::Vocabulary;

/// Drives the request stream through a batch server with `clients`
/// concurrent threads; returns wall time plus per-request latencies,
/// batch sizes and predictions (indexed by request).
fn drive_clients(
    server: &Arc<BatchServer>,
    recipes: &Arc<Vec<(String, usize)>>,
    clients: usize,
) -> (Duration, Vec<u128>, Vec<usize>, Vec<Prediction>) {
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(server);
            let recipes = Arc::clone(recipes);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                let mut i = c;
                while i < recipes.len() {
                    let sent = Instant::now();
                    let prediction = server
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
    let mut batch_sizes = Vec::with_capacity(recipes.len());
    let mut predictions: Vec<Option<Prediction>> = vec![None; recipes.len()];
    for w in workers {
        for (i, us, prediction) in w.join().expect("client thread") {
            latencies_us.push(us);
            batch_sizes.push(prediction.batch_size);
            predictions[i] = Some(prediction);
        }
    }
    let elapsed = started.elapsed();
    let predictions = predictions
        .into_iter()
        .map(|p| p.expect("every request answered"))
        .collect();
    (elapsed, latencies_us, batch_sizes, predictions)
}

/// Hit rate of an [`LruCache`] of the given capacity over a
/// Zipf-distributed stream of `distinct` keys.
fn zipf_hit_rate(capacity: usize, distinct: usize, stream: &[usize]) -> f64 {
    let mut cache: LruCache<usize, ()> = LruCache::new(capacity);
    let mut hits = 0usize;
    for &key in stream {
        debug_assert!(key < distinct);
        if cache.get(&key).is_some() {
            hits += 1;
        } else {
            cache.insert(key, ());
        }
    }
    hits as f64 / stream.len() as f64
}

/// Zipf(s) sampler over `0..n` via inverse CDF on precomputed cumulative
/// weights.
fn zipf_stream(n: usize, s: f64, len: usize, seed: u64) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 1..=n {
        total += (i as f64).powf(-s);
        cdf.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            cdf.partition_point(|&c| c < u).min(n - 1)
        })
        .collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = HarnessArgs::parse();
    args.init_trace();
    let requests: usize = args
        .value_of("--requests")
        .map_or(512, |v| v.parse().expect("--requests must be an integer"));
    let clients: usize = args
        .value_of("--clients")
        .map_or(16, |v| v.parse().expect("--clients must be an integer"));
    let max_batch: usize = args
        .value_of("--max-batch")
        .map_or(16, |v| v.parse().expect("--max-batch must be an integer"));

    // --- build and export the model ------------------------------------
    let tokens = content_tokens();
    let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
    assert_eq!(
        vocab.len(),
        lstm_config().vocab,
        "vocab drifted from config"
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    let model = LstmClassifier::new(lstm_config(), &mut rng);
    let base = std::env::temp_dir().join(format!("serve_load_{}", std::process::id()));
    let model_dir = base.join("lstm");
    write_model_dir(&model_dir, &model, &vocab, false).expect("write model dir");

    let recipes = synth_recipes(requests, &tokens, args.seed ^ 0x5eed);
    let id_seqs: Vec<Vec<usize>> = recipes.iter().map(|(r, _)| to_ids(r, &vocab)).collect();
    let in_vocab = id_seqs.iter().flatten().filter(|&&id| id >= 5).count();
    let total: usize = id_seqs.iter().map(Vec::len).sum();
    assert_eq!(
        in_vocab, total,
        "synthetic tokens must all survive canonicalization into the vocab"
    );

    // --- sequential baseline: one graph-eval request at a time ---------
    eprintln!("sequential baseline: {requests} requests, one at a time");
    let started = Instant::now();
    let sequential: Vec<Vec<f64>> = id_seqs
        .iter()
        .map(|ids| {
            nn::predict_proba_graph(&model, &[ids.as_slice()])
                .pop()
                .expect("one row per request")
        })
        .collect();
    let seq_elapsed = started.elapsed();
    let seq_rps = requests as f64 / seq_elapsed.as_secs_f64();

    // --- batched service under concurrent clients ----------------------
    eprintln!("batched service: {clients} clients, max_batch {max_batch}");
    let serve_config = ServeConfig {
        max_batch,
        queue_capacity: requests.max(1),
        // distinct synthetic recipes: the cache cannot help, it just has
        // to not hurt
        cache_capacity: 1024,
    };
    let registry = Arc::new(ModelRegistry::new());
    registry.load("lstm", &model_dir).expect("registry load");
    let server = Arc::new(
        BatchServer::start(Arc::clone(&registry), "lstm", serve_config).expect("start server"),
    );
    let recipes = Arc::new(recipes);
    let (batched_elapsed, mut latencies_us, batch_sizes, predictions) =
        drive_clients(&server, &recipes, clients);
    server.shutdown();
    for (i, p) in predictions.iter().enumerate() {
        assert_eq!(
            p.probs, sequential[i],
            "batched answer for request {i} differs from sequential"
        );
    }
    let batched_rps = requests as f64 / batched_elapsed.as_secs_f64();
    let speedup = batched_rps / seq_rps;

    latencies_us.sort_unstable();
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let mean_batch = batch_sizes.iter().sum::<usize>() as f64 / batch_sizes.len() as f64;

    // --- feature-cache sizing: hit rate vs capacity, Zipf stream -------
    eprintln!("feature-cache sweep: Zipf keys over LruCache capacities");
    const DISTINCT: usize = 4096;
    const CAPACITIES: [usize; 7] = [32, 64, 128, 256, 512, 1024, 2048];
    let stream = zipf_stream(DISTINCT, 1.07, 50_000, args.seed ^ 0x21bf);
    let sweep: Vec<(usize, f64)> = CAPACITIES
        .iter()
        .map(|&cap| (cap, zipf_hit_rate(cap, DISTINCT, &stream)))
        .collect();

    println!("requests:        {requests} (batched bit-identical to sequential)");
    println!(
        "sequential:      {:.2} req/s  ({:.1} us/req)",
        seq_rps,
        seq_elapsed.as_secs_f64() / requests as f64 * 1e6
    );
    println!(
        "batched:         {batched_rps:.2} req/s  (p50 {p50} us, p99 {p99} us, mean batch {mean_batch:.1})"
    );
    println!("speedup:         {speedup:.2}x (batched vs sequential)");
    for (cap, rate) in &sweep {
        println!("cache@{cap:<5}      hit rate {rate:.3}");
    }

    let json_path = PathBuf::from(args.value_of("--json").unwrap_or("BENCH_serve.json"));
    let cache_entries: String = sweep
        .iter()
        .map(|(cap, rate)| format!("    {{\"path\": \"cache@{cap}\", \"hit_rate\": {rate:.4}}},\n"))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"requests\": {},\n",
            "  \"clients\": {},\n",
            "  \"max_batch\": {},\n",
            "  \"entries\": [\n",
            "    {{\"path\": \"sequential\", \"rps\": {:.2}, \"latency_ns\": {:.1}}},\n",
            "    {{\"path\": \"batched\", \"rps\": {:.2}, \"latency_ns\": {:.1}, ",
            "\"p50_us\": {}, \"p99_us\": {}, \"mean_batch\": {:.2}, \"speedup\": {:.3}}},\n",
            "{}",
            "    {{\"path\": \"zipf\", \"distinct_keys\": {}, \"exponent\": 1.07}}\n",
            "  ]\n",
            "}}\n"
        ),
        requests,
        clients,
        max_batch,
        seq_rps,
        seq_elapsed.as_nanos() as f64 / requests as f64,
        batched_rps,
        batched_elapsed.as_nanos() as f64 / requests as f64,
        p50,
        p99,
        mean_batch,
        speedup,
        cache_entries,
        DISTINCT,
    );
    std::fs::write(&json_path, json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", json_path.display());

    args.finish_trace();
    let _ = std::fs::remove_dir_all(&base);

    if let Some(min) = args.value_of("--min-speedup") {
        let min: f64 = min.parse().expect("--min-speedup must be a number");
        assert!(
            speedup >= min,
            "batched speedup {speedup:.2}x below required {min}x"
        );
        println!("speedup gate:    ok (>= {min}x)");
    }
}
