//! Criterion bench: dense matmul kernels — the hot path of the neural
//! models' forward and backward passes — timed per backend (scalar vs
//! SIMD) and per scheduling mode (single-thread vs the pooled parallel
//! path), plus a `BENCH_matmul.json` emitter so runs on different machines
//! can be compared offline and `scripts/bench_gate.sh` can gate SIMD
//! regressions. The emitter also times the LSTM gate activations
//! (`sigmoid_in_place`, `tanh_in_place`) on one serving gate row.
//!
//! Entries are keyed by `kernel` plus a string `shape` (`"MxKxN"`), so the
//! gate's non-numeric keying distinguishes every shape (a numeric `size`
//! field would be dropped from the key and collide across shapes).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{
    backend, matmul_a_bt_with_threads, matmul_at_b_with_threads, matmul_with_threads, num_threads,
    sigmoid_in_place, tanh_in_place, with_backend, Initializer, Tensor,
};

/// `(m, k, n)` problem shapes: the square sweep, the rectangular
/// encoder-projection shape the SIMD speedup gate pins, and the batch-1
/// and batch-2 LSTM gate steps (`[x | h]` rows of the serving model
/// against its 320 × 256 fused gate weight), which run the one-row kernel.
const SHAPES: [(usize, usize, usize); 6] = [
    (64, 64, 64),
    (128, 128, 128),
    (256, 256, 256),
    (16, 320, 256),
    (1, 320, 256),
    (2, 320, 256),
];

/// The shape whose `a_b` SIMD speedup is gated (see [`emit_json`]).
const GATE_SHAPE: (usize, usize, usize) = (16, 320, 256);

/// The one-row shape on which SIMD `a_b` must be at least as fast as
/// scalar (see [`emit_json`]).
const ROW_GATE_SHAPE: (usize, usize, usize) = (1, 320, 256);

/// A product pinned to a thread count, as the `*_with_threads` kernels.
type Kernel = fn(&Tensor, &Tensor, usize) -> Tensor;

/// Interleaved scalar/SIMD timing pairs behind each SIMD `a_b` gate (see
/// [`gate_speedup`]).
const GATE_ROUNDS: usize = 5;

/// Pre-activations in one gate row of the serving LSTM (4 gates × 64
/// hidden units), the slice the activation rows time.
const GATE_ROW: usize = 256;

fn simd_supported() -> bool {
    backend::all()
        .into_iter()
        .any(|b| b.name() == "simd" && b.supported())
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let threads = num_threads();
    let backends: &[&str] = if simd_supported() {
        &["scalar", "simd"]
    } else {
        &["scalar"]
    };
    let mut group = c.benchmark_group("matmul");
    for &(m, k, n) in &SHAPES {
        let shape = format!("{m}x{k}x{n}");
        let a = Initializer::XavierUniform.init(m, k, &mut rng);
        let b = Initializer::XavierUniform.init(k, n, &mut rng);
        let at = Initializer::XavierUniform.init(k, m, &mut rng);
        let bt = Initializer::XavierUniform.init(n, k, &mut rng);
        for &be in backends {
            group.bench_with_input(
                BenchmarkId::new(format!("a_b_{be}"), &shape),
                &shape,
                |bench, _| bench.iter(|| with_backend(be, || matmul_with_threads(&a, &b, 1))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("a_b_{be}_parallel"), &shape),
                &shape,
                |bench, _| bench.iter(|| with_backend(be, || matmul_with_threads(&a, &b, threads))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("at_b_{be}"), &shape),
                &shape,
                |bench, _| bench.iter(|| with_backend(be, || matmul_at_b_with_threads(&at, &b, 1))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("a_bt_{be}"), &shape),
                &shape,
                |bench, _| bench.iter(|| with_backend(be, || matmul_a_bt_with_threads(&a, &bt, 1))),
            );
        }
    }
    group.finish();
}

/// Best-of-batches nanoseconds per call, with the batch size calibrated so
/// one batch runs long enough for the clock to resolve it.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        if start.elapsed() >= Duration::from_millis(10) || reps >= 1 << 24 {
            break;
        }
        reps *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Scalar over SIMD single-thread time of `kernel(a, b)`: the median
/// ratio of [`GATE_ROUNDS`] interleaved pairs of timings. One ratio of two
/// timings moves with the machine's load by more than a floor's margin
/// (the same build read 1.74x and 2.15x on a shared 2-core VM); pairs
/// taken back to back share the load of their moment, and the median
/// drops the pairs a stall split.
fn gate_speedup(kernel: Kernel, a: &Tensor, b: &Tensor) -> f64 {
    let time = |be: &str| {
        with_backend(be, || {
            time_ns(|| {
                black_box(kernel(black_box(a), black_box(b), 1));
            })
        })
    };
    let mut ratios: Vec<f64> = (0..GATE_ROUNDS)
        .map(|_| {
            let scalar_ns = time("scalar");
            scalar_ns / time("simd")
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[GATE_ROUNDS / 2]
}

/// Times each kernel on every registered backend (single-thread and the
/// pooled parallel path) and writes `BENCH_matmul.json` at the workspace
/// root with per-backend `*_ns` fields:
///
/// * `scalar_ns` / `parallel_ns` — scalar backend, 1 / `num_threads()`;
/// * `simd_ns` / `simd_parallel_ns` — SIMD backend (omitted when the CPU
///   does not support it, so the gate skips them instead of failing);
/// * `speedup` — scalar vs parallel; `simd_speedup` — `scalar_ns /
///   simd_ns`, the single-thread backend-vs-backend ratio.
///
/// Every timed configuration is first checked bit-identical to the scalar
/// single-thread result, and the run fails unless the SIMD backend is at
/// least `MATMUL_MIN_SIMD_SPEEDUP` (default 2.0) times faster on the
/// `a_b` gate shape [`GATE_SHAPE`] and at least as fast as scalar on the
/// one-row shape [`ROW_GATE_SHAPE`], each speedup the median of
/// [`gate_speedup`]'s interleaved pairs, not the row's one ratio.
///
/// The `sigmoid` and `tanh` rows (shape `1x256`, see [`emit_activations`])
/// carry `scalar_ns`, `simd_ns` and `simd_speedup`.
fn emit_json(_c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let threads = num_threads();
    let simd = simd_supported();
    let kernels: [(&str, Kernel); 3] = [
        ("a_b", matmul_with_threads),
        ("at_b", matmul_at_b_with_threads),
        ("a_bt", matmul_a_bt_with_threads),
    ];

    let mut entries = Vec::new();
    let mut gate_simd_speedup = None;
    let mut row_gate_simd_speedup = None;
    for &(m, k, n) in &SHAPES {
        let shape = format!("{m}x{k}x{n}");
        let operands = [
            (
                Initializer::XavierUniform.init(m, k, &mut rng),
                Initializer::XavierUniform.init(k, n, &mut rng),
            ),
            (
                Initializer::XavierUniform.init(k, m, &mut rng),
                Initializer::XavierUniform.init(k, n, &mut rng),
            ),
            (
                Initializer::XavierUniform.init(m, k, &mut rng),
                Initializer::XavierUniform.init(n, k, &mut rng),
            ),
        ];
        for ((name, kernel), (a, b)) in kernels.iter().zip(&operands) {
            let reference = with_backend("scalar", || kernel(a, b, 1));
            let check = |label: &str, got: &Tensor| {
                assert_eq!(
                    &reference, got,
                    "{name}/{shape}: {label} must be bit-identical to scalar single-thread"
                );
            };
            check(
                "scalar parallel",
                &with_backend("scalar", || kernel(a, b, threads)),
            );
            let scalar_ns = with_backend("scalar", || {
                time_ns(|| {
                    black_box(kernel(black_box(a), black_box(b), 1));
                })
            });
            let parallel_ns = with_backend("scalar", || {
                time_ns(|| {
                    black_box(kernel(black_box(a), black_box(b), threads));
                })
            });
            let speedup = scalar_ns / parallel_ns;
            let mut fields = format!(
                "\"kernel\": \"{name}\", \"shape\": \"{shape}\", \
                 \"scalar_ns\": {scalar_ns:.1}, \"parallel_ns\": {parallel_ns:.1}, \
                 \"speedup\": {speedup:.3}"
            );
            let mut simd_note = String::new();
            if simd {
                check("simd", &with_backend("simd", || kernel(a, b, 1)));
                check(
                    "simd parallel",
                    &with_backend("simd", || kernel(a, b, threads)),
                );
                let simd_ns = with_backend("simd", || {
                    time_ns(|| {
                        black_box(kernel(black_box(a), black_box(b), 1));
                    })
                });
                let simd_parallel_ns = with_backend("simd", || {
                    time_ns(|| {
                        black_box(kernel(black_box(a), black_box(b), threads));
                    })
                });
                let simd_speedup = scalar_ns / simd_ns;
                fields.push_str(&format!(
                    ", \"simd_ns\": {simd_ns:.1}, \"simd_parallel_ns\": {simd_parallel_ns:.1}, \
                     \"simd_speedup\": {simd_speedup:.3}"
                ));
                simd_note = format!("  simd {simd_ns:>12.0} ns  simd_speedup {simd_speedup:.2}x");
                if *name == "a_b" && (m, k, n) == GATE_SHAPE {
                    gate_simd_speedup = Some(gate_speedup(*kernel, a, b));
                }
                if *name == "a_b" && (m, k, n) == ROW_GATE_SHAPE {
                    row_gate_simd_speedup = Some(gate_speedup(*kernel, a, b));
                }
            }
            eprintln!(
                "json: {name:>5}/{shape:<12} scalar {scalar_ns:>12.0} ns  \
                 parallel {parallel_ns:>12.0} ns{simd_note}"
            );
            entries.push(format!("    {{{fields}}}"));
        }
    }

    entries.extend(emit_activations(simd));

    let json = format!(
        "{{\n  \"bench\": \"matmul\",\n  \"threads\": {threads},\n  \"simd_supported\": {simd},\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matmul.json");
    std::fs::write(path, json).expect("write BENCH_matmul.json");
    eprintln!("wrote {path} (threads = {threads}, simd = {simd})");

    if simd {
        let min: f64 = std::env::var("MATMUL_MIN_SIMD_SPEEDUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2.0);
        let (m, k, n) = GATE_SHAPE;
        let got = gate_simd_speedup.expect("gate shape must have been timed");
        assert!(
            got >= min,
            "SIMD speedup gate: a_b {m}x{k}x{n} is {got:.2}x over scalar (median of \
             {GATE_ROUNDS} pairs), below the {min:.2}x floor (override with MATMUL_MIN_SIMD_SPEEDUP)"
        );
        eprintln!(
            "simd gate: a_b {m}x{k}x{n} speedup {got:.2}x >= {min:.2}x (median of {GATE_ROUNDS} pairs)"
        );

        let (m, k, n) = ROW_GATE_SHAPE;
        let got = row_gate_simd_speedup.expect("one-row gate shape must have been timed");
        assert!(
            got >= 1.0,
            "SIMD one-row gate: a_b {m}x{k}x{n} is {got:.2}x over scalar (median of \
             {GATE_ROUNDS} pairs); the SIMD backend must be at least as fast as scalar"
        );
        eprintln!(
            "simd gate: a_b {m}x{k}x{n} speedup {got:.2}x >= 1.00x (median of {GATE_ROUNDS} pairs)"
        );
    }
}

/// Times `sigmoid_in_place` and `tanh_in_place` on one [`GATE_ROW`] of
/// evenly spaced pre-activations in `[-8, 8)`, per backend, after checking
/// the SIMD result bit-identical to scalar. With AVX-512 (where the SIMD
/// backend has vector activation kernels) the SIMD form must be at least
/// 2x scalar. Returns the JSON entries.
fn emit_activations(simd: bool) -> Vec<String> {
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    let row: Vec<f32> = (0..GATE_ROW)
        .map(|i| -8.0 + 16.0 * i as f32 / GATE_ROW as f32)
        .collect();
    let shape = format!("1x{GATE_ROW}");
    type Activation = fn(&mut [f32]);
    let activations: [(&str, Activation); 2] =
        [("sigmoid", sigmoid_in_place), ("tanh", tanh_in_place)];
    let mut entries = Vec::new();
    for (name, f) in activations {
        let run = |be: &str| {
            with_backend(be, || {
                let mut out = row.clone();
                f(&mut out);
                out
            })
        };
        let time = |be: &str| {
            with_backend(be, || {
                let mut buf = row.clone();
                time_ns(|| {
                    buf.copy_from_slice(&row);
                    f(black_box(&mut buf));
                })
            })
        };
        let reference = run("scalar");
        let scalar_ns = time("scalar");
        let mut fields = format!(
            "\"kernel\": \"{name}\", \"shape\": \"{shape}\", \"scalar_ns\": {scalar_ns:.1}"
        );
        let mut simd_note = String::new();
        if simd {
            let got = run("simd");
            assert!(
                reference
                    .iter()
                    .zip(&got)
                    .all(|(r, g)| r.to_bits() == g.to_bits()),
                "{name}/{shape}: simd must be bit-identical to scalar"
            );
            let simd_ns = time("simd");
            let simd_speedup = scalar_ns / simd_ns;
            fields.push_str(&format!(
                ", \"simd_ns\": {simd_ns:.1}, \"simd_speedup\": {simd_speedup:.3}"
            ));
            simd_note = format!("  simd {simd_ns:>12.0} ns  simd_speedup {simd_speedup:.2}x");
            if avx512 {
                assert!(
                    simd_speedup >= 2.0,
                    "SIMD activation gate: {name} on {shape} is {simd_speedup:.2}x over scalar, \
                     below the 2.00x floor"
                );
            }
        }
        eprintln!("json: {name:>7}/{shape:<10} scalar {scalar_ns:>12.0} ns{simd_note}");
        entries.push(format!("    {{{fields}}}"));
    }
    entries
}

criterion_group!(benches, bench_matmul, emit_json);
criterion_main!(benches);
