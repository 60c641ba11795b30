//! Regression tests for backend selection, forcing, fallback, and the
//! `tensor.backend.*` trace counters.
//!
//! The contract under test (see `docs/BACKENDS.md`):
//!
//! * `TENSOR_BACKEND` forces a backend; `auto`/unset picks the most
//!   specialised supported one (CI sweeps this suite with the variable set
//!   to each backend, and `active_backend_honors_forced_env` checks the
//!   process actually honoured it);
//! * forcing an unknown or unsupported backend falls back to `scalar`
//!   with a `tensor.backend.forced_fallbacks` tick — never a panic;
//! * every dispatch records the chosen backend (`tensor.backend.ops.*`)
//!   and per-shape algorithm (`tensor.backend.algo.*`), so production
//!   traces show exactly which kernels served a workload.
//!
//! Trace state is process-global, so every test that enables tracing
//! serialises on [`TRACE_TEST_LOCK`].

mod common;

use std::sync::{Mutex, MutexGuard, PoisonError};

use common::*;
use tensor::{backend, matmul, matmul_a_bt, matmul_at_b, with_backend, MatmulAlgo, MatmulDesc};

/// Serialises tests that enable/reset the global trace registry.
static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

fn trace_guard() -> MutexGuard<'static, ()> {
    TRACE_TEST_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn counter(snap: &trace::TraceSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

#[test]
fn resolve_honors_explicit_names_case_insensitively() {
    for spelling in ["scalar", "SCALAR", " Scalar "] {
        let r = backend::resolve(Some(spelling));
        assert_eq!(r.backend.name(), "scalar", "spelling {spelling:?}");
        assert!(
            r.fallback.is_none(),
            "spelling {spelling:?} must not fall back"
        );
    }
    for b in backend::all() {
        if b.supported() {
            let r = backend::resolve(Some(b.name()));
            assert_eq!(r.backend.name(), b.name());
            assert!(r.fallback.is_none());
        }
    }
}

#[test]
fn resolve_auto_prefers_the_most_specialised_supported_backend() {
    let expected = backend::all()
        .into_iter()
        .rev()
        .find(|b| b.supported())
        .expect("scalar is always supported")
        .name();
    for spelling in [None, Some(""), Some("auto"), Some(" AUTO ")] {
        let r = backend::resolve(spelling);
        assert_eq!(r.backend.name(), expected, "spelling {spelling:?}");
        assert!(r.fallback.is_none());
    }
}

/// Unknown (and, where the host allows us to observe it, known-but-
/// unsupported) forced backends fall back to scalar with a counter tick
/// and a reason — not a panic.
#[test]
fn forced_unusable_backend_falls_back_with_counter_not_panic() {
    let _t = trace_guard();
    trace::enable();
    trace::reset();

    let r = backend::resolve(Some("tpu-v9"));
    assert_eq!(r.backend.name(), "scalar");
    let reason = r.fallback.expect("unknown name must report a fallback");
    assert!(reason.contains("unknown backend 'tpu-v9'"), "got: {reason}");

    for b in backend::all() {
        if !b.supported() {
            let r = backend::resolve(Some(b.name()));
            assert_eq!(r.backend.name(), "scalar");
            let reason = r
                .fallback
                .expect("unsupported backend must report a fallback");
            assert!(reason.contains("not supported"), "got: {reason}");
        }
    }

    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    assert!(
        counter(&snap, "tensor.backend.forced_fallbacks") >= 1,
        "fallback must tick tensor.backend.forced_fallbacks"
    );
}

/// When CI runs this suite under `TENSOR_BACKEND=scalar|simd`, the
/// process-wide selection must match the variable (or have fallen back to
/// scalar if the host cannot run the forced backend).
#[test]
fn active_backend_honors_forced_env() {
    let active = backend::active().name();
    match std::env::var("TENSOR_BACKEND").ok().as_deref() {
        None | Some("") | Some("auto") => {
            let expected = backend::resolve(None).backend.name();
            assert_eq!(
                active, expected,
                "auto selection must pick the best supported backend"
            );
        }
        Some(forced) => {
            let expected = backend::resolve(Some(forced)).backend.name();
            assert_eq!(active, expected, "TENSOR_BACKEND={forced} was not honoured");
        }
    }
}

/// Every f32 dispatch records the chosen backend and per-shape algorithm.
#[test]
fn matmul_records_backend_and_algo_counters() {
    let a = random_tensor(4, 8, 11);
    let b = random_tensor(8, 16, 12);
    let at = random_tensor(8, 4, 13);
    let bt = random_tensor(16, 8, 14);

    let _t = trace_guard();
    trace::enable();
    trace::reset();
    with_backend("scalar", || {
        let _ = matmul(&a, &b);
        let _ = matmul_at_b(&at, &b);
        let _ = matmul_a_bt(&a, &bt);
    });
    let snap = trace::snapshot();
    trace::reset();
    assert_eq!(counter(&snap, "tensor.backend.ops.scalar"), 3);
    assert_eq!(counter(&snap, "tensor.backend.ops.simd"), 0);
    assert_eq!(counter(&snap, "tensor.backend.algo.scalar_reg_tile"), 1);
    assert_eq!(counter(&snap, "tensor.backend.algo.scalar_stream"), 1);
    assert_eq!(counter(&snap, "tensor.backend.algo.scalar_row_dot"), 1);

    if backend::all()
        .into_iter()
        .any(|b| b.name() == "simd" && b.supported())
    {
        trace::reset();
        with_backend("simd", || {
            let _ = matmul(&a, &b); // n = 16: a broadcast kernel (256 or 512 per CPU width)
            let _ = matmul_a_bt(&a, &bt); // k = 8: the SIMD row-dot kernel
        });
        let snap = trace::snapshot();
        trace::reset();
        assert_eq!(counter(&snap, "tensor.backend.ops.simd"), 2);
        assert_eq!(counter(&snap, "tensor.backend.ops.scalar"), 0);
        let broadcasts = counter(&snap, "tensor.backend.algo.simd_broadcast256")
            + counter(&snap, "tensor.backend.algo.simd_broadcast512");
        assert_eq!(
            broadcasts, 1,
            "a_b on n=16 must use a SIMD broadcast kernel"
        );
        assert_eq!(counter(&snap, "tensor.backend.algo.simd_row_dot256"), 1);
    }
    trace::disable();
}

/// Per-shape selection: the SIMD backend routes shapes narrower than its
/// vector width to the scalar kernels instead of running masked everywhere.
#[test]
fn simd_backend_selects_scalar_algos_for_narrow_shapes() {
    let Some(simd) = backend::all().into_iter().find(|b| b.name() == "simd") else {
        panic!("simd backend must be registered even when unsupported");
    };
    if !simd.supported() {
        return;
    }
    assert_eq!(
        simd.select(&MatmulDesc::a_b(4, 4, 2)),
        MatmulAlgo::ScalarRegTile
    );
    assert_eq!(
        simd.select(&MatmulDesc::at_b(4, 4, 2)),
        MatmulAlgo::ScalarStream
    );
    assert_eq!(
        simd.select(&MatmulDesc::a_bt(4, 2, 4)),
        MatmulAlgo::ScalarRowDot
    );
    // Wide shapes go to the vector kernels.
    assert!(matches!(
        simd.select(&MatmulDesc::a_b(4, 4, 64)),
        MatmulAlgo::SimdBroadcast256 | MatmulAlgo::SimdBroadcast512
    ));
    assert_eq!(
        simd.select(&MatmulDesc::a_bt(4, 64, 4)),
        MatmulAlgo::SimdRowDot256
    );
}

#[test]
#[should_panic(expected = "unknown tensor backend")]
fn with_backend_panics_on_unknown_names() {
    with_backend("npu", || ());
}
