//! Pluggable device backends for the dense f32 kernels.
//!
//! Every matmul in the workspace is described by a [`MatmulDesc`] — a
//! cudnn-style op descriptor carrying the problem shape and operand
//! orientation — and executed by a [`Backend`]: an implementation of the
//! kernel set for one device or instruction family. Two backends are
//! registered today:
//!
//! * `scalar` — the portable register-tiled kernels in [`crate::matmul`],
//!   compiled for whatever the build targets (the reference backend);
//! * `simd` — hand-scheduled AVX2/AVX-512 kernels (`crate::simd`),
//!   selected by runtime feature detection.
//!
//! A backend picks a concrete [`MatmulAlgo`] per descriptor (per-shape
//! algorithm selection, like cudnn's `ConvolutionFwdAlgo` enums): wide
//! shapes go to the widest vector kernel the CPU offers, degenerate shapes
//! fall back to the scalar kernels where vector width cannot pay. The
//! chosen backend and algorithm are recorded in `tensor.backend.*` trace
//! counters.
//!
//! # Determinism contract
//!
//! **Backend choice never changes results.** Every backend must reproduce
//! the reference accumulation order bit for bit:
//!
//! * `a_b` / `at_b`: each output element is a single mul-then-add chain
//!   over the shared dimension in ascending order, and factors where the
//!   `A` operand is exactly `0.0` contribute nothing (they are skipped,
//!   not multiplied — observable through signed zeros and non-finite `B`
//!   values);
//! * `a_b` kernels *accumulate*: each chain starts from the value already
//!   in the output (`C += A · B`), and the plain product is the same body
//!   run on a zeroed output. Splitting `k` into a prefix product and an
//!   accumulating suffix therefore performs the same roundings in the
//!   same order as the whole product;
//! * `a_bt`: the eight-lane unrolled dot of [`crate::matmul`] with its
//!   fixed reduction tree, plus an ascending scalar tail.
//!
//! No backend may use FMA contraction (it fuses the mul+add rounding) or
//! reassociate sums. Combined with the row-tiled scheduler of `execute` —
//! whose tile → output mapping depends only on the shape — results are
//! bit-identical across backends × thread counts, which
//! `tests/backend_conformance.rs` enforces for every registered backend.
//! No new kernel can land without passing that harness.
//!
//! # Selection
//!
//! The process-wide backend is resolved once from the `TENSOR_BACKEND`
//! environment variable (`scalar`, `simd`, or `auto`/unset for the best
//! supported backend). Forcing a backend the CPU cannot run — or a name
//! that does not exist — falls back to `scalar` with a stderr warning and
//! a `tensor.backend.forced_fallbacks` counter tick, never a panic.
//! Tests and benches can pin a backend for a closure with
//! [`with_backend`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use trace::Counter;

use crate::pool;
use crate::simd::SimdBackend;

/// Ops dispatched through the scalar backend.
static OPS_SCALAR: Counter = Counter::new("tensor.backend.ops.scalar");
/// Ops dispatched through the SIMD backend.
static OPS_SIMD: Counter = Counter::new("tensor.backend.ops.simd");
/// Times a forced-but-unusable `TENSOR_BACKEND` value fell back to scalar.
static FORCED_FALLBACKS: Counter = Counter::new("tensor.backend.forced_fallbacks");
/// Per-algorithm dispatch counts (per-shape selection observability).
static ALGO_SCALAR_REG_TILE: Counter = Counter::new("tensor.backend.algo.scalar_reg_tile");
static ALGO_SCALAR_STREAM: Counter = Counter::new("tensor.backend.algo.scalar_stream");
static ALGO_SCALAR_ROW_DOT: Counter = Counter::new("tensor.backend.algo.scalar_row_dot");
static ALGO_SIMD_BROADCAST256: Counter = Counter::new("tensor.backend.algo.simd_broadcast256");
static ALGO_SIMD_BROADCAST512: Counter = Counter::new("tensor.backend.algo.simd_broadcast512");
static ALGO_SIMD_ROW_DOT256: Counter = Counter::new("tensor.backend.algo.simd_row_dot256");

/// Minimum number of multiply-adds (`m · n · k`) before a kernel consults
/// the thread pool. Below this, tiling overhead beats any speedup and the
/// small-tensor unit tests stay on the fast sequential path.
pub(crate) const PAR_THRESHOLD: usize = 1 << 16;

/// How a kernel invocation is scheduled.
#[derive(Clone, Copy)]
pub(crate) enum Exec {
    /// Sequential below [`PAR_THRESHOLD`], global pool above it.
    Auto,
    /// Exactly this many scoped threads, regardless of problem size.
    Threads(usize),
}

/// Which product a [`MatmulDesc`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulOp {
    /// `C = A · B` (`A: m × k`, `B: k × n`).
    AB,
    /// `C = Aᵀ · B` (`A: k × m` stored, `B: k × n`).
    AtB,
    /// `C = A · Bᵀ` (`A: m × k`, `B: n × k` stored).
    ABt,
}

/// A cudnn-style matmul descriptor: output shape `m × n`, shared dimension
/// `k`, and which operands are read in transposed orientation.
///
/// The operand slices passed alongside a descriptor are always in their
/// *stored* layout — `transpose_a`/`transpose_b` describe how the kernel
/// reads them, exactly like the `trans_a`/`trans_b` flags of a BLAS GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulDesc {
    /// Output rows.
    pub m: usize,
    /// Shared (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Read `A` as `k × m` stored (i.e. compute `Aᵀ · B`).
    pub transpose_a: bool,
    /// Read `B` as `n × k` stored (i.e. compute `A · Bᵀ`).
    pub transpose_b: bool,
}

impl MatmulDesc {
    /// Descriptor for `C = A · B`.
    pub fn a_b(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            transpose_a: false,
            transpose_b: false,
        }
    }

    /// Descriptor for `C = Aᵀ · B` (`A` stored `k × m`).
    pub fn at_b(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            transpose_a: true,
            transpose_b: false,
        }
    }

    /// Descriptor for `C = A · Bᵀ` (`B` stored `n × k`).
    pub fn a_bt(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            transpose_a: false,
            transpose_b: true,
        }
    }

    /// The product this descriptor describes.
    ///
    /// # Panics
    ///
    /// Panics if both transpose flags are set: `Aᵀ · Bᵀ` is provided by no
    /// registered backend (compute `(B · A)ᵀ` instead).
    pub fn op(&self) -> MatmulOp {
        match (self.transpose_a, self.transpose_b) {
            (false, false) => MatmulOp::AB,
            (true, false) => MatmulOp::AtB,
            (false, true) => MatmulOp::ABt,
            (true, true) => panic!(
                "MatmulDesc with transpose_a && transpose_b is supported by no backend \
                 (compute (B·A)ᵀ instead)"
            ),
        }
    }

    /// Total multiply-adds of the product (saturating).
    pub fn mul_adds(&self) -> usize {
        self.m.saturating_mul(self.k).saturating_mul(self.n)
    }

    /// Expected element counts of `(a, b, out)` in stored layout.
    fn expected_lens(&self) -> (usize, usize, usize) {
        (self.m * self.k, self.k * self.n, self.m * self.n)
    }
}

/// A concrete kernel choice for one descriptor — the unit of per-shape
/// algorithm selection, named like cudnn's algo enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatmulAlgo {
    /// Portable `a_b` kernel: 4 × 32 register tile + streaming row panel.
    ScalarRegTile,
    /// Portable `at_b` kernel: shared-dimension-outer streaming loop.
    ScalarStream,
    /// Portable `a_bt` kernel: eight-lane unrolled row dot.
    ScalarRowDot,
    /// AVX2 broadcast-A kernel, 8-wide over output columns (`a_b`/`at_b`).
    SimdBroadcast256,
    /// AVX-512 broadcast-A kernel, 16-wide over output columns.
    SimdBroadcast512,
    /// AVX2 row-dot kernel (`a_bt`), four output dots in flight, each
    /// reproducing the scalar eight-lane reduction tree.
    SimdRowDot256,
}

impl MatmulAlgo {
    /// Stable snake_case name (trace counter suffix).
    pub fn name(&self) -> &'static str {
        match self {
            MatmulAlgo::ScalarRegTile => "scalar_reg_tile",
            MatmulAlgo::ScalarStream => "scalar_stream",
            MatmulAlgo::ScalarRowDot => "scalar_row_dot",
            MatmulAlgo::SimdBroadcast256 => "simd_broadcast256",
            MatmulAlgo::SimdBroadcast512 => "simd_broadcast512",
            MatmulAlgo::SimdRowDot256 => "simd_row_dot256",
        }
    }
}

/// One device/instruction-family implementation of the kernel set.
///
/// Implementations must uphold the module-level determinism contract:
/// for any descriptor and tile split, the output bits must equal the
/// scalar reference. Register new backends in [`all`] and run
/// `tests/backend_conformance.rs` — the harness is the gate.
pub trait Backend: Sync {
    /// Stable lowercase name used by `TENSOR_BACKEND` and trace output.
    fn name(&self) -> &'static str;

    /// Whether this process can run the backend (runtime detection).
    fn supported(&self) -> bool;

    /// Per-shape algorithm selection for an f32 product.
    fn select(&self, desc: &MatmulDesc) -> MatmulAlgo;

    /// Computes output rows `lo..hi` (`rows` is that slice of the output)
    /// for the descriptor with the selected algorithm. Called from pool
    /// workers; must be thread-safe and must not touch rows outside
    /// `lo..hi`.
    ///
    /// `a_b` tiles accumulate into `rows` (`C += A · B`, every element's
    /// ascending-`p` chain continuing from the stored value); `at_b` and
    /// `a_bt` tiles overwrite them.
    #[allow(clippy::too_many_arguments)]
    fn matmul_tile(
        &self,
        desc: &MatmulDesc,
        algo: MatmulAlgo,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    );

    /// Row-wise softmax over `data` (`rows × cols`, row-major), in place.
    ///
    /// The default is the shared reference implementation; overriding
    /// backends must stay bit-identical to it (`exp` must remain the libm
    /// call — the serving path pins f32 results to the training graph).
    fn softmax_rows_in_place(&self, cols: usize, data: &mut [f32]) {
        crate::ops::softmax_rows_reference(cols, data);
    }

    /// Row-wise log-softmax over `data` (`rows × cols`), in place. Same
    /// bit-identity requirement as
    /// [`softmax_rows_in_place`](Self::softmax_rows_in_place).
    fn log_softmax_rows_in_place(&self, cols: usize, data: &mut [f32]) {
        crate::ops::log_softmax_rows_reference(cols, data);
    }

    /// [`crate::activation::sigmoid`] over every element of `data`, in
    /// place. The default is the scalar reference; overriding backends
    /// must match it bit for bit on every input, NaN payloads included.
    fn sigmoid_in_place(&self, data: &mut [f32]) {
        crate::activation::sigmoid_reference(data);
    }

    /// [`crate::activation::tanh`] over every element of `data`, in place.
    /// Same bit-identity requirement as
    /// [`sigmoid_in_place`](Self::sigmoid_in_place).
    fn tanh_in_place(&self, data: &mut [f32]) {
        crate::activation::tanh_reference(data);
    }
}

/// The portable reference backend (always supported).
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn supported(&self) -> bool {
        true
    }

    fn select(&self, desc: &MatmulDesc) -> MatmulAlgo {
        match desc.op() {
            MatmulOp::AB => MatmulAlgo::ScalarRegTile,
            MatmulOp::AtB => MatmulAlgo::ScalarStream,
            MatmulOp::ABt => MatmulAlgo::ScalarRowDot,
        }
    }

    fn matmul_tile(
        &self,
        desc: &MatmulDesc,
        algo: MatmulAlgo,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        scalar_tile(desc, algo, a, b, lo, hi, rows);
    }
}

/// Dispatches a tile to the scalar kernels in [`crate::matmul`]. Shared
/// with the SIMD backend, which routes shapes too narrow for its vector
/// width here.
pub(crate) fn scalar_tile(
    desc: &MatmulDesc,
    algo: MatmulAlgo,
    a: &[f32],
    b: &[f32],
    lo: usize,
    hi: usize,
    rows: &mut [f32],
) {
    match algo {
        MatmulAlgo::ScalarRegTile => crate::matmul::a_b_tile(desc, a, b, lo, hi, rows),
        MatmulAlgo::ScalarStream => crate::matmul::at_b_tile(desc, a, b, lo, hi, rows),
        MatmulAlgo::ScalarRowDot => crate::matmul::a_bt_tile(desc, a, b, lo, hi, rows),
        other => panic!("scalar kernels cannot run algo {other:?}"),
    }
}

static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend;

/// Every registered backend, `scalar` first. Backends appear here whether
/// or not the running CPU supports them — check [`Backend::supported`]
/// (the conformance harness iterates this list and skips unsupported
/// entries; [`resolve`] refuses to activate them).
pub fn all() -> [&'static dyn Backend; 2] {
    [&SCALAR, &SIMD]
}

/// The always-available reference backend.
pub fn scalar() -> &'static dyn Backend {
    &SCALAR
}

/// Outcome of resolving a requested backend name.
pub struct Resolution {
    /// The backend that will run.
    pub backend: &'static dyn Backend,
    /// Why the request could not be honoured (falls back to `scalar`),
    /// `None` when the request (or auto-selection) was satisfied.
    pub fallback: Option<String>,
}

/// Resolves a requested backend name (`TENSOR_BACKEND` semantics, pure of
/// environment so tests can drive it): `None`, empty, or `auto` selects
/// the best supported backend; a known, supported name selects it; an
/// unknown or unsupported name falls back to `scalar` with a reason and a
/// `tensor.backend.forced_fallbacks` counter tick — never a panic.
pub fn resolve(requested: Option<&str>) -> Resolution {
    let requested = requested.map(|r| r.trim().to_ascii_lowercase());
    match requested.as_deref() {
        None | Some("") | Some("auto") => Resolution {
            backend: all()
                .into_iter()
                .rev() // prefer the most specialised supported backend
                .find(|b| b.supported())
                .unwrap_or(&SCALAR),
            fallback: None,
        },
        Some(name) => match all().into_iter().find(|b| b.name() == name) {
            Some(b) if b.supported() => Resolution {
                backend: b,
                fallback: None,
            },
            Some(_) => {
                FORCED_FALLBACKS.incr();
                Resolution {
                    backend: &SCALAR,
                    fallback: Some(format!("backend '{name}' is not supported on this CPU")),
                }
            }
            None => {
                FORCED_FALLBACKS.incr();
                Resolution {
                    backend: &SCALAR,
                    fallback: Some(format!("unknown backend '{name}'")),
                }
            }
        },
    }
}

/// The process-wide backend: `TENSOR_BACKEND` resolved once and cached.
pub fn active() -> &'static dyn Backend {
    static ACTIVE: OnceLock<&'static dyn Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let requested = std::env::var("TENSOR_BACKEND").ok();
        let resolution = resolve(requested.as_deref());
        if let Some(reason) = &resolution.fallback {
            eprintln!("tensor: TENSOR_BACKEND fallback: {reason}; using 'scalar'");
        }
        resolution.backend
    })
}

/// Test/bench override slot: `usize::MAX` means "no override", otherwise
/// an index into [`all`].
static FORCED: AtomicUsize = AtomicUsize::new(usize::MAX);
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The backend ops dispatch through right now: the [`with_backend`]
/// override if one is active, otherwise [`active`].
pub(crate) fn current() -> &'static dyn Backend {
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != usize::MAX {
        return all()[forced];
    }
    active()
}

/// Runs `f` with every tensor op pinned to the named backend, then
/// restores the previous selection — the hook tests and benches use to
/// compare backends inside one process (`TENSOR_BACKEND` is read once).
///
/// Calls are serialised on a process-wide lock; since backends are
/// bit-identical by contract, concurrent ops on *other* threads observing
/// the override stay correct — only their speed changes.
///
/// # Panics
///
/// Panics if the name is unknown or the backend is unsupported on this
/// CPU (use [`resolve`] for the fallback-to-scalar semantics).
pub fn with_backend<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let name = name.trim().to_ascii_lowercase();
    let idx = all()
        .iter()
        .position(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown tensor backend '{name}'"));
    assert!(
        all()[idx].supported(),
        "tensor backend '{name}' is not supported on this CPU"
    );
    let _serialise = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.store(usize::MAX, Ordering::Relaxed);
        }
    }
    let _restore = Restore;
    FORCED.store(idx, Ordering::Relaxed);
    f()
}

fn record_backend(backend: &'static dyn Backend) {
    match backend.name() {
        "simd" => OPS_SIMD.incr(),
        _ => OPS_SCALAR.incr(),
    }
}

fn record_algo(algo: MatmulAlgo) {
    match algo {
        MatmulAlgo::ScalarRegTile => ALGO_SCALAR_REG_TILE.incr(),
        MatmulAlgo::ScalarStream => ALGO_SCALAR_STREAM.incr(),
        MatmulAlgo::ScalarRowDot => ALGO_SCALAR_ROW_DOT.incr(),
        MatmulAlgo::SimdBroadcast256 => ALGO_SIMD_BROADCAST256.incr(),
        MatmulAlgo::SimdBroadcast512 => ALGO_SIMD_BROADCAST512.incr(),
        MatmulAlgo::SimdRowDot256 => ALGO_SIMD_ROW_DOT256.incr(),
    }
}

/// Validates the descriptor against the operand buffers, selects backend
/// and algorithm, records both, and runs the kernel over a row-tiling of
/// the `m × n` output, each tile on the output slice of its rows. Every
/// backend inherits the same tiling, and so the same determinism
/// contract. An `a_b` descriptor accumulates into `out` (`C += A · B`);
/// `at_b` and `a_bt` overwrite it.
pub(crate) fn execute(desc: &MatmulDesc, a: &[f32], b: &[f32], out: &mut [f32], exec: Exec) {
    let op = desc.op(); // rejects the double-transpose descriptor
    let (a_len, b_len, out_len) = desc.expected_lens();
    debug_assert_eq!(a.len(), a_len, "{op:?}: A buffer does not match descriptor");
    debug_assert_eq!(b.len(), b_len, "{op:?}: B buffer does not match descriptor");
    debug_assert_eq!(
        out.len(),
        out_len,
        "{op:?}: out buffer does not match descriptor"
    );
    let backend = current();
    let algo = backend.select(desc);
    record_backend(backend);
    record_algo(algo);
    let (m, n) = (desc.m, desc.n);
    let tile_body = |lo, hi, rows: &mut [f32]| backend.matmul_tile(desc, algo, a, b, lo, hi, rows);
    let threads = match exec {
        Exec::Auto if desc.mul_adds() >= PAR_THRESHOLD => pool::num_threads(),
        Exec::Auto => 1,
        Exec::Threads(t) => t.max(1),
    };
    let threads = threads.min(m.max(1));
    if threads <= 1 {
        pool::count_inline(1);
        tile_body(0, m, out);
        return;
    }
    // Over-split in pool mode so dynamic claiming can balance load; the
    // explicit mode keeps one tile per thread so "2 threads" is literal.
    let tiles = match exec {
        Exec::Auto => (threads * 4).min(m),
        Exec::Threads(_) => threads,
    };
    let ptr = SendPtr(out.as_mut_ptr());
    let task = move |t: usize| {
        let ptr = ptr; // capture the Sync wrapper, not the raw pointer field
        let (lo, hi) = tile_bounds(m, tiles, t);
        // Safety: tiles own disjoint row ranges, so the views never alias,
        // and `execute` does not return until every tile has completed.
        let rows = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(lo * n), (hi - lo) * n) };
        tile_body(lo, hi, rows);
    };
    match exec {
        Exec::Auto => pool::global().run(tiles, &task),
        Exec::Threads(t) => pool::run_scoped(t, tiles, &task),
    }
}

/// Raw output pointer smuggled into tile tasks. Sound because tiles write
/// disjoint row ranges of the same allocation.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Contiguous row range `[lo, hi)` of tile `t` out of `tiles` over `m`
/// rows: the first `m % tiles` tiles get one extra row. Depends only on
/// the problem shape, never on scheduling.
fn tile_bounds(m: usize, tiles: usize, t: usize) -> (usize, usize) {
    let base = m / tiles;
    let rem = m % tiles;
    let lo = t * base + t.min(rem);
    (lo, lo + base + usize::from(t < rem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_bounds_cover_rows_exactly_once() {
        for m in [1usize, 2, 7, 16, 33] {
            for tiles in 1..=m {
                let mut next = 0;
                for t in 0..tiles {
                    let (lo, hi) = tile_bounds(m, tiles, t);
                    assert_eq!(lo, next, "m={m} tiles={tiles} t={t}");
                    assert!(hi > lo);
                    next = hi;
                }
                assert_eq!(next, m);
            }
        }
    }

    #[test]
    fn descriptor_constructors_report_ops() {
        assert_eq!(MatmulDesc::a_b(2, 3, 4).op(), MatmulOp::AB);
        assert_eq!(MatmulDesc::at_b(2, 3, 4).op(), MatmulOp::AtB);
        assert_eq!(MatmulDesc::a_bt(2, 3, 4).op(), MatmulOp::ABt);
        assert_eq!(MatmulDesc::a_b(2, 3, 4).mul_adds(), 24);
    }

    #[test]
    #[should_panic(expected = "transpose_a && transpose_b")]
    fn double_transpose_descriptor_is_rejected() {
        let desc = MatmulDesc {
            m: 2,
            k: 2,
            n: 2,
            transpose_a: true,
            transpose_b: true,
        };
        let _ = desc.op();
    }

    #[test]
    fn resolve_handles_auto_known_and_bogus_names() {
        assert!(resolve(None).fallback.is_none());
        assert_eq!(resolve(Some("scalar")).backend.name(), "scalar");
        assert_eq!(resolve(Some(" Scalar ")).backend.name(), "scalar");
        let bogus = resolve(Some("metal"));
        assert_eq!(bogus.backend.name(), "scalar");
        assert!(bogus.fallback.expect("must fall back").contains("metal"));
        let auto = resolve(Some("auto"));
        assert!(auto.backend.supported());
    }

    #[test]
    fn with_backend_restores_previous_selection() {
        let before = current().name();
        let inside = with_backend("scalar", || current().name());
        assert_eq!(inside, "scalar");
        assert_eq!(current().name(), before);
    }

    #[test]
    #[should_panic(expected = "unknown tensor backend")]
    fn with_backend_rejects_unknown_names() {
        with_backend("cuda", || ());
    }
}
