#!/usr/bin/env bash
# Gate script: formatting, lints, release build, and the full test suite.
# Run from anywhere; it cds to the workspace root first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

# Markdown dead-link check + rustdoc -D warnings + runnable doc-examples
echo "== documentation gate (doc_check.sh) =="
scripts/doc_check.sh

# unsafe stays in the files scripts/unsafe_check.sh lists: the SIMD and
# CRC kernels, the pool's scoped jobs and the one syscall
echo "== unsafe inventory (unsafe_check.sh) =="
scripts/unsafe_check.sh

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

# The SIMD gate activations against their scalar references on every f32
# input: an ignored test (all 2^32 bit patterns, 30-40 s on two
# cores in release) that skips itself on CPUs without AVX-512.
echo "== exhaustive activation check (release) =="
cargo test -q --release -p tensor --lib exhaustive -- --ignored

# Train -> save -> reload of the linear model: the example exits non-zero
# unless the reloaded snapshot scores every test row bit-identically.
echo "== linear model persistence (persist_model example) =="
cargo run --release -q -p cuisine --example persist_model

# The benchmark harness is its own package (perfbench/, outside the
# workspace); its helper tests pin the arrival schedules, percentile
# rules and key-hash placement its figures rest on.
echo "== benchmark helper tests (perfbench) =="
cargo test -q --release --manifest-path perfbench/Cargo.toml

# The fault-tolerance and tensor-property suites exercise code paths that
# differ between serial and parallel pools (panic containment, shard
# merging, tile claiming) — run them at several pool widths, crossed with
# each tensor backend (TENSOR_BACKEND): the determinism contract says
# results are bit-identical across backends × thread counts, and the
# conformance/selection suites assert exactly that. The fused LSTM engine's bit-identity tests
# (`nn::infer`, which compare its layer-major forward against per-example
# graph evaluation) join the same sweep; they also cover the engine's
# layer-0 token projection table, whose rows are projected as batches
# first read their tokens: a cold serving-shape batch projects its rows in
# one product large enough to be row-tiled across the pool, and four
# threads share one cold engine. The serve suites (batching,
# replica router, trace gauges) ride along because batch workers drive
# the pool from several threads at once.
for threads in 1 2 4; do
    for be in scalar simd; do
        echo "== pool-sensitive suites (TENSOR_THREADS=$threads TENSOR_BACKEND=$be) =="
        TENSOR_THREADS=$threads TENSOR_BACKEND=$be cargo test -q -p cuisine \
            --test fault_tolerance --test tensor_properties \
            --test backend_conformance --test backend_selection
        TENSOR_THREADS=$threads TENSOR_BACKEND=$be cargo test -q -p nn --lib infer
    done
    echo "== serve suites (TENSOR_THREADS=$threads) =="
    TENSOR_THREADS=$threads cargo test -q -p serve \
        --test serve_integration --test supervisor_integration \
        --test trace_integration --test completion_queue \
        --test registry_stress
done

# Batched serving bit-identity gate: serve_load serves the LSTM through a
# BatchServer under concurrent clients and asserts every answer is
# bit-identical to one-at-a-time graph evaluation. JSON goes to a scratch
# dir so the workspace BENCH_*.json files (compared against baselines by
# bench_gate.sh) are not clobbered.
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
for threads in 1 4; do
    echo "== batched serving bit-identity gate (TENSOR_THREADS=$threads) =="
    TENSOR_THREADS=$threads cargo run --release -q -p bench --bin serve_load -- \
        --requests 192 --json "$gate_dir/BENCH_serve.json"
done

# Completion-queue gate: cq_load pins >= 1024 requests in flight from a
# single submitter thread (the non-blocking in-process front-end) and
# requires every answer bit-identical to the sequential path.
echo "== completion queue gate (cq_load) =="
cargo run --release -q -p bench --bin cq_load -- \
    --min-inflight 1024 --json "$gate_dir/BENCH_cq.json"

# Featurization gate: registry_load proves >= 2.5x batch featurization
# speedup over the serial loop with bit-identical predictions.
# TENSOR_THREADS=4 so the featurize fan-out has a pool to run on.
echo "== parallel featurization gate (registry_load) =="
TENSOR_THREADS=4 cargo run --release -q -p bench --bin registry_load -- \
    --min-featurize-speedup 2.5 \
    --json "$gate_dir/BENCH_registry.json"

# Process-isolation gate: supervisor_load drives a request stream through
# a supervised fleet of replica_worker processes (unix sockets), asserts
# answers bitwise equal to the sequential reference, then kill -9s a
# worker under live traffic and requires zero wrong answers plus bounded
# respawn-and-reinstate recovery. replica_worker is built by the release
# build above and resolved as a sibling of the bench binary.
echo "== process isolation gate (supervisor_load) =="
cargo run --release -q -p bench --bin supervisor_load -- \
    --max-recovery-ms 15000 --json "$gate_dir/BENCH_supervisor.json"

echo "all checks passed"
