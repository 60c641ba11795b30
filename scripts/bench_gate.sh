#!/usr/bin/env bash
# Bench regression gate: compares freshly emitted BENCH_*.json files at the
# workspace root against the committed baselines in benchmarks/baselines/,
# failing when any timing regresses beyond the tolerance.
#
# Usage:
#   scripts/bench_gate.sh            # runs the matmul bench if needed, then gates
#   BENCH_GATE_TOL_PCT=75 scripts/bench_gate.sh
#   BENCH_GATE_SKIP_RUN=1 scripts/bench_gate.sh   # gate existing files only
#
# Timings on a different machine (or a loaded CI box) are noisy, so the
# default tolerance is deliberately wide: a fresh *_ns value fails only when
# it exceeds the baseline by more than BENCH_GATE_TOL_PCT percent (default
# 50). Baselines with a different thread count are compared per-kernel all
# the same — the bit-identity assertions inside the bench are what make the
# numbers comparable.
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${BENCH_GATE_TOL_PCT:-50}"
BASELINES=benchmarks/baselines

if [ ! -d "$BASELINES" ] || [ -z "$(ls "$BASELINES"/BENCH_*.json 2>/dev/null)" ]; then
    echo "bench_gate: no baselines under $BASELINES — nothing to gate"
    exit 0
fi

for baseline in "$BASELINES"/BENCH_*.json; do
    fresh="$(basename "$baseline")"
    if [ ! -f "$fresh" ] && [ -z "${BENCH_GATE_SKIP_RUN:-}" ]; then
        case "$fresh" in
        BENCH_matmul.json)
            echo "bench_gate: $fresh missing — running the matmul bench"
            cargo bench -q -p bench --bench matmul >/dev/null
            ;;
        BENCH_serve.json)
            echo "bench_gate: $fresh missing — running serve_load"
            cargo run --release -q -p bench --bin serve_load >/dev/null
            ;;
        BENCH_cq.json)
            echo "bench_gate: $fresh missing — running cq_load"
            cargo run --release -q -p bench --bin cq_load >/dev/null
            ;;
        BENCH_registry.json)
            # the featurize arm's timing depends on the pool width, so pin
            # the thread count the baseline was recorded at
            echo "bench_gate: $fresh missing — running registry_load"
            TENSOR_THREADS=4 cargo run --release -q -p bench --bin registry_load >/dev/null
            ;;
        BENCH_supervisor.json)
            # supervisor_load spawns the replica_worker binary from the
            # serve crate, which `cargo run -p bench` alone won't build
            echo "bench_gate: $fresh missing — running supervisor_load"
            cargo build --release -q -p serve
            cargo run --release -q -p bench --bin supervisor_load >/dev/null
            ;;
        esac
    fi
    if [ ! -f "$fresh" ]; then
        echo "bench_gate: SKIP $fresh (no fresh run found)"
        continue
    fi

    python3 - "$baseline" "$fresh" "$TOL" <<'PY'
import json
import sys

baseline_path, fresh_path, tol_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))


def keyed(doc):
    out = {}
    for entry in doc.get("entries", []):
        key = tuple(sorted((k, v) for k, v in entry.items() if not isinstance(v, (int, float))))
        out[key] = entry
    return out


base_entries, fresh_entries = keyed(baseline), keyed(fresh)
failures = []
compared = 0
for key, base in base_entries.items():
    fresh_entry = fresh_entries.get(key)
    label = ", ".join(str(v) for _, v in key)
    if fresh_entry is None:
        failures.append(f"{baseline_path} [{label}]: entry present in baseline but missing from {fresh_path}")
        continue
    for field, base_val in base.items():
        # Gate wall-time fields only: lower is better, regression = growth
        # beyond tolerance. Ratios like `speedup` are quotients of two noisy
        # timings and are reported but never gated.
        if not field.endswith("_ns") or not isinstance(base_val, (int, float)):
            continue
        fresh_val = fresh_entry.get(field)
        if not isinstance(fresh_val, (int, float)):
            failures.append(f"{baseline_path} [{label}] field {field}: present in baseline but missing from {fresh_path}")
            continue
        compared += 1
        limit = base_val * (1 + tol_pct / 100.0)
        delta_pct = (fresh_val - base_val) / base_val * 100.0
        status = "FAIL" if fresh_val > limit else "ok"
        print(f"  [{status:>4}] {label:<20} {field:<12} {base_val:>14.1f} -> {fresh_val:>14.1f} ({delta_pct:+.1f}%)")
        if fresh_val > limit:
            failures.append(
                f"{baseline_path} [{label}] field {field}: "
                f"{base_val:.1f} -> {fresh_val:.1f} ns ({delta_pct:+.1f}% > +{tol_pct:.0f}%)"
            )

print(f"bench_gate: {fresh_path} vs {baseline_path}: {compared} timings, tolerance +{tol_pct:.0f}%")
if failures:
    print(f"bench_gate: {len(failures)} regression(s):", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
PY
done

echo "bench_gate: all benchmarks within tolerance"
