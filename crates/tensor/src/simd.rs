//! Hand-scheduled AVX2/AVX-512 f32 kernels behind the [`Backend`] trait.
//!
//! # How bit-identity with the scalar backend is achieved
//!
//! The scalar kernels fix, per output element, a single accumulation
//! order (see the [`crate::backend`] module docs). These kernels keep
//! that order while changing only *how many output elements advance per
//! instruction*:
//!
//! * `a_b` / `at_b` — each output element's chain runs over ascending
//!   `p`, so the kernels broadcast one `A` element and advance 8 or 16
//!   *independent* output columns at once (`acc = add(acc, mul(a, b))`,
//!   never FMA — Rust never contracts `mul`+`add`, and neither may we,
//!   since fused rounding would split from the scalar result). The
//!   scalar zero-skip (`A` elements equal to `0.0` contribute nothing)
//!   is mirrored with the same scalar compare before each broadcast.
//!   The `a_b` kernels load their accumulators from the output
//!   (`C += A · B`), as the scalar ones do.
//! * `a_bt` — the scalar [`crate::matmul::dot`] is *structure*-bound:
//!   eight partial sums collapsed by a fixed tree. The SIMD kernel keeps
//!   exactly one eight-lane accumulator chain per output element (lane
//!   `l` equals the scalar `acc[l]` after every chunk) and wins its
//!   instruction-level parallelism by keeping four output dots in flight
//!   instead of widening a single dot to 16 lanes, which would split the
//!   chains and change the bits. The horizontal reduction replays the
//!   scalar tree node for node, then the same ascending scalar tail.
//!
//! * `sigmoid` / `tanh` (AVX-512 only) — the references in
//!   [`crate::activation`] fix every operation; the 16-lane forms perform
//!   the same operations lane by lane (`exp` as two 8-lane `f64` halves,
//!   masks picking each lane's `tanh` branch) and hand lanes outside the
//!   main range to the scalar reference.
//!
//! Ragged edges use masked loads/stores (`vmaskmovps` on AVX2,
//! `k`-register masks on AVX-512), which are fault-suppressing, so no
//! kernel ever reads past a row.
//!
//! Selection is per shape: outputs narrower than one vector fall back to
//! the scalar kernels (the mask overhead cannot pay), and the AVX-512
//! forms require 16-wide outputs. `tests/backend_conformance.rs`
//! differentially verifies every path against the scalar reference.

use crate::backend::{scalar_tile, Backend, MatmulAlgo, MatmulDesc, MatmulOp};

/// x86 SIMD backend: AVX2 baseline, AVX-512 forms where detected.
///
/// On non-x86_64 targets the backend still registers but reports
/// unsupported, so [`crate::backend::resolve`] routes everything to
/// scalar.
pub struct SimdBackend;

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    use std::sync::OnceLock;
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    use std::sync::OnceLock;
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn supported(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            has_avx2()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    fn select(&self, desc: &MatmulDesc) -> MatmulAlgo {
        #[cfg(target_arch = "x86_64")]
        {
            match desc.op() {
                // Broadcast kernels vectorise over output columns: below
                // one vector of columns the masked tail is the whole
                // kernel, so the scalar form wins.
                MatmulOp::AB => {
                    if has_avx512() && desc.n >= 16 {
                        MatmulAlgo::SimdBroadcast512
                    } else if desc.n >= 8 {
                        MatmulAlgo::SimdBroadcast256
                    } else {
                        MatmulAlgo::ScalarRegTile
                    }
                }
                MatmulOp::AtB => {
                    if has_avx512() && desc.n >= 16 {
                        MatmulAlgo::SimdBroadcast512
                    } else if desc.n >= 8 {
                        MatmulAlgo::SimdBroadcast256
                    } else {
                        MatmulAlgo::ScalarStream
                    }
                }
                // The row-dot kernel vectorises over the shared dimension.
                MatmulOp::ABt => {
                    if desc.k >= 8 {
                        MatmulAlgo::SimdRowDot256
                    } else {
                        MatmulAlgo::ScalarRowDot
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            match desc.op() {
                MatmulOp::AB => MatmulAlgo::ScalarRegTile,
                MatmulOp::AtB => MatmulAlgo::ScalarStream,
                MatmulOp::ABt => MatmulAlgo::ScalarRowDot,
            }
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
        match algo {
            MatmulAlgo::ScalarRegTile | MatmulAlgo::ScalarStream | MatmulAlgo::ScalarRowDot => {
                scalar_tile(desc, algo, a, b, lo, hi, rows);
            }
            #[cfg(target_arch = "x86_64")]
            // Safety: these algos are only selected after runtime feature
            // detection (avx512f / avx2 respectively), and `execute` hands
            // the kernels in-bounds row ranges of a correctly sized out.
            MatmulAlgo::SimdBroadcast512 => unsafe {
                match desc.op() {
                    MatmulOp::AB => x86::a_b_512(desc, a, b, lo, hi, rows),
                    MatmulOp::AtB => x86::at_b_512(desc, a, b, lo, hi, rows),
                    MatmulOp::ABt => unreachable!("broadcast algo is never selected for a_bt"),
                }
            },
            #[cfg(target_arch = "x86_64")]
            MatmulAlgo::SimdBroadcast256 => unsafe {
                match desc.op() {
                    MatmulOp::AB => x86::a_b_256(desc, a, b, lo, hi, rows),
                    MatmulOp::AtB => x86::at_b_256(desc, a, b, lo, hi, rows),
                    MatmulOp::ABt => unreachable!("broadcast algo is never selected for a_bt"),
                }
            },
            #[cfg(target_arch = "x86_64")]
            MatmulAlgo::SimdRowDot256 => unsafe { x86::a_bt_256(desc, a, b, lo, hi, rows) },
            #[cfg(not(target_arch = "x86_64"))]
            other => panic!("simd backend cannot run algo {other:?}"),
        }
    }

    fn sigmoid_in_place(&self, data: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // Safety: avx512f was detected at runtime.
            unsafe { x86::sigmoid_512(data) };
            return;
        }
        crate::activation::sigmoid_reference(data);
    }

    fn tanh_in_place(&self, data: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // Safety: avx512f was detected at runtime.
            unsafe { x86::tanh_512(data) };
            return;
        }
        crate::activation::tanh_reference(data);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::MatmulDesc;
    use crate::activation::{
        self, EXP2F_TAB, EXPM1_NEAR_BITS, EXPM1_Q, EXPM1_REDUCE_BITS, EXPM1_TINY_BITS,
        EXP_INV_LN2_N, EXP_POLY, EXP_SHIFT, EXP_SLOW_ABS_BITS, INV_LN2, LN2_HI, LN2_LO,
        TANH_ONE_BITS, TANH_SATURATED_BITS, TANH_TINY_BITS,
    };
    use std::arch::x86_64::*;

    /// Output rows per AVX-512 register block of [`a_b_512`].
    const BLK_ROWS: usize = 4;

    /// Rows `lo..hi` of `C += A · B`, AVX-512 broadcast form.
    ///
    /// Full blocks run [`BLK_ROWS`] output rows × 64 columns (16 zmm
    /// accumulators) so each streamed `B` vector feeds four rows and the
    /// sixteen independent add chains cover the vector-add latency. The
    /// one-row form that serves `m = 1` and the row/column tails,
    /// [`a_b_512_row`], keeps eight and then four chains in flight the same
    /// way; what it gives up is only the reuse of each `B` load across
    /// rows. Every path continues each `C[i][j]` from its stored value over
    /// ascending `p`, skipping `A[i][p] == 0.0`, with separate mul and add
    /// (no FMA), matching the scalar kernels bitwise.
    ///
    /// # Safety
    ///
    /// Requires avx512f; slices must match `desc` with `lo..hi` in range
    /// and `rows` holding exactly those output rows.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn a_b_512(
        desc: &MatmulDesc,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        let (k, n) = (desc.k, desc.n);
        let a_ptr = a.as_ptr();
        let b_ptr = b.as_ptr();
        let out = rows.as_mut_ptr();
        let mut i = lo;
        while i + BLK_ROWS <= hi {
            let a_rows = [
                a_ptr.add(i * k),
                a_ptr.add((i + 1) * k),
                a_ptr.add((i + 2) * k),
                a_ptr.add((i + 3) * k),
            ];
            // One pass over the block's A rows: when no factor is zero —
            // the common dense case — the hot loop below drops the
            // per-element skip check entirely (bit-identical, since the
            // skip would never fire) and its broadcasts fold into memory
            // operands instead of shuffle-port µops.
            let mut block_has_zero = false;
            for a_row in a_rows {
                for p in 0..k {
                    block_has_zero |= *a_row.add(p) == 0.0;
                }
            }
            let mut j = 0;
            while j + 64 <= n {
                let mut acc = [[_mm512_setzero_ps(); 4]; BLK_ROWS];
                for (r, row_acc) in acc.iter_mut().enumerate() {
                    let c_row = out.add((i + r - lo) * n + j);
                    for (c, lane) in row_acc.iter_mut().enumerate() {
                        *lane = _mm512_loadu_ps(c_row.add(16 * c));
                    }
                }
                if block_has_zero {
                    for p in 0..k {
                        let base = b_ptr.add(p * n + j);
                        let vb = [
                            _mm512_loadu_ps(base),
                            _mm512_loadu_ps(base.add(16)),
                            _mm512_loadu_ps(base.add(32)),
                            _mm512_loadu_ps(base.add(48)),
                        ];
                        for (r, row_acc) in acc.iter_mut().enumerate() {
                            let a_ip = *a_rows[r].add(p);
                            if a_ip == 0.0 {
                                continue; // embeddings & one-hots make zero rows common
                            }
                            let va = _mm512_set1_ps(a_ip);
                            for (c, lane) in row_acc.iter_mut().enumerate() {
                                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(va, vb[c]));
                            }
                        }
                    }
                } else {
                    for p in 0..k {
                        let base = b_ptr.add(p * n + j);
                        if p + 2 < k {
                            // pull the B row two iterations out of L2 so the
                            // loads below hit L1
                            _mm_prefetch::<_MM_HINT_T0>(base.add(2 * n).cast());
                            _mm_prefetch::<_MM_HINT_T0>(base.add(2 * n + 32).cast());
                        }
                        let vb = [
                            _mm512_loadu_ps(base),
                            _mm512_loadu_ps(base.add(16)),
                            _mm512_loadu_ps(base.add(32)),
                            _mm512_loadu_ps(base.add(48)),
                        ];
                        for (r, row_acc) in acc.iter_mut().enumerate() {
                            let va = _mm512_set1_ps(*a_rows[r].add(p));
                            for (c, lane) in row_acc.iter_mut().enumerate() {
                                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(va, vb[c]));
                            }
                        }
                    }
                }
                for (r, row_acc) in acc.iter().enumerate() {
                    let c_row = out.add((i + r - lo) * n);
                    for (c, lane) in row_acc.iter().enumerate() {
                        _mm512_storeu_ps(c_row.add(j + 16 * c), *lane);
                    }
                }
                j += 64;
            }
            if j < n {
                for (r, &a_row) in a_rows.iter().enumerate() {
                    a_b_512_row(k, n, a_row, b_ptr, out.add((i + r - lo) * n), j);
                }
            }
            i += BLK_ROWS;
        }
        while i < hi {
            a_b_512_row(k, n, a_ptr.add(i * k), b_ptr, out.add((i - lo) * n), 0);
            i += 1;
        }
    }

    /// Columns `j0..n` of one output row of `C += A · B`: 128-column
    /// blocks of eight independent 16-lane chains, one 64-column block of
    /// four, 16-wide blocks, then one masked block. The tail path of
    /// [`a_b_512`] and its whole kernel at `m = 1`; same accumulation order.
    ///
    /// # Safety
    ///
    /// Requires avx512f; `a_row`/`c_row` must point at full rows of `A`/`C`
    /// and `b` at the full `k × n` matrix, with `j0 <= n`.
    #[target_feature(enable = "avx512f")]
    unsafe fn a_b_512_row(
        k: usize,
        n: usize,
        a_row: *const f32,
        b: *const f32,
        c_row: *mut f32,
        j0: usize,
    ) {
        let mut j = j0;
        while j + 128 <= n {
            a_b_512_chains::<8>(k, n, a_row, b, c_row, j);
            j += 128;
        }
        if j + 64 <= n {
            a_b_512_chains::<4>(k, n, a_row, b, c_row, j);
            j += 64;
        }
        while j + 16 <= n {
            a_b_512_chains::<1>(k, n, a_row, b, c_row, j);
            j += 16;
        }
        if j < n {
            let mask: __mmask16 = (1u16 << (n - j)) - 1;
            let mut acc = _mm512_maskz_loadu_ps(mask, c_row.add(j));
            for p in 0..k {
                let a_ip = *a_row.add(p);
                if a_ip == 0.0 {
                    continue;
                }
                let va = _mm512_set1_ps(a_ip);
                let vb = _mm512_maskz_loadu_ps(mask, b.add(p * n + j));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(va, vb));
            }
            _mm512_mask_storeu_ps(c_row.add(j), mask, acc);
        }
    }

    /// Columns `j..j + 16 · CHAINS` of one output row of `C += A · B`, one
    /// 16-lane chain per zmm accumulator. The chains are independent, so
    /// their adds overlap instead of each waiting on the previous one's
    /// latency.
    ///
    /// # Safety
    ///
    /// As [`a_b_512_row`], with `j + 16 · CHAINS <= n`.
    #[target_feature(enable = "avx512f")]
    unsafe fn a_b_512_chains<const CHAINS: usize>(
        k: usize,
        n: usize,
        a_row: *const f32,
        b: *const f32,
        c_row: *mut f32,
        j: usize,
    ) {
        let mut acc = [_mm512_setzero_ps(); CHAINS];
        for (c, lane) in acc.iter_mut().enumerate() {
            *lane = _mm512_loadu_ps(c_row.add(j + 16 * c));
        }
        for p in 0..k {
            let a_ip = *a_row.add(p);
            if a_ip == 0.0 {
                continue;
            }
            let va = _mm512_set1_ps(a_ip);
            let base = b.add(p * n + j);
            for (c, lane) in acc.iter_mut().enumerate() {
                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(va, _mm512_loadu_ps(base.add(16 * c))));
            }
        }
        for (c, lane) in acc.iter().enumerate() {
            _mm512_storeu_ps(c_row.add(j + 16 * c), *lane);
        }
    }

    /// Rows `lo..hi` of `C += A · B`, AVX2 broadcast form (8-wide analogue
    /// of [`a_b_512`]; masked ragged tail via `vmaskmovps`).
    ///
    /// # Safety
    ///
    /// Requires avx2; same slice contract as [`a_b_512`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn a_b_256(
        desc: &MatmulDesc,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        let (k, n) = (desc.k, desc.n);
        let a_ptr = a.as_ptr();
        let b_ptr = b.as_ptr();
        let out = rows.as_mut_ptr();
        for i in lo..hi {
            let a_row = a_ptr.add(i * k);
            let c_row = out.add((i - lo) * n);
            let mut j = 0;
            while j + 32 <= n {
                let mut acc = [_mm256_setzero_ps(); 4];
                for (c, lane) in acc.iter_mut().enumerate() {
                    *lane = _mm256_loadu_ps(c_row.add(j + 8 * c));
                }
                for p in 0..k {
                    let a_ip = *a_row.add(p);
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    let base = b_ptr.add(p * n + j);
                    for (c, lane) in acc.iter_mut().enumerate() {
                        let vb = _mm256_loadu_ps(base.add(8 * c));
                        *lane = _mm256_add_ps(*lane, _mm256_mul_ps(va, vb));
                    }
                }
                for (c, lane) in acc.iter().enumerate() {
                    _mm256_storeu_ps(c_row.add(j + 8 * c), *lane);
                }
                j += 32;
            }
            while j + 8 <= n {
                let mut acc = _mm256_loadu_ps(c_row.add(j));
                for p in 0..k {
                    let a_ip = *a_row.add(p);
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    let vb = _mm256_loadu_ps(b_ptr.add(p * n + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
                }
                _mm256_storeu_ps(c_row.add(j), acc);
                j += 8;
            }
            if j < n {
                let mask = tail_mask(n - j);
                let mut acc = _mm256_maskload_ps(c_row.add(j), mask);
                for p in 0..k {
                    let a_ip = *a_row.add(p);
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    let vb = _mm256_maskload_ps(b_ptr.add(p * n + j), mask);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
                }
                _mm256_maskstore_ps(c_row.add(j), mask, acc);
            }
        }
    }

    /// Rows `lo..hi` of `C = Aᵀ · B`, AVX-512 form.
    ///
    /// Structurally [`a_b_512`] with `A` read column-wise (`A[p · m + i]`,
    /// `A` stored `k × m`): full [`BLK_ROWS`] × 64 register blocks with the
    /// same no-zero fast path, so large products stop round-tripping
    /// output rows through memory once per `p` (which loses to the
    /// autovectorised scalar stream). Row/column tails keep the scalar
    /// kernel's `p`-outer streaming loop, vectorised. Per-element order
    /// and zero-skip match scalar everywhere.
    ///
    /// # Safety
    ///
    /// Requires avx512f; same slice contract as [`a_b_512`] (with `A`
    /// stored `k × m`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn at_b_512(
        desc: &MatmulDesc,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        let (m, k, n) = (desc.m, desc.k, desc.n);
        rows.fill(0.0);
        let a_ptr = a.as_ptr();
        let b_ptr = b.as_ptr();
        let out = rows.as_mut_ptr();
        let mut i = lo;
        while i + BLK_ROWS <= hi {
            let mut block_has_zero = false;
            for r in 0..BLK_ROWS {
                for p in 0..k {
                    block_has_zero |= *a_ptr.add(p * m + i + r) == 0.0;
                }
            }
            let mut j = 0;
            while j + 64 <= n {
                let mut acc = [[_mm512_setzero_ps(); 4]; BLK_ROWS];
                if block_has_zero {
                    for p in 0..k {
                        let base = b_ptr.add(p * n + j);
                        let vb = [
                            _mm512_loadu_ps(base),
                            _mm512_loadu_ps(base.add(16)),
                            _mm512_loadu_ps(base.add(32)),
                            _mm512_loadu_ps(base.add(48)),
                        ];
                        let a_col = a_ptr.add(p * m + i);
                        for (r, row_acc) in acc.iter_mut().enumerate() {
                            let a_pi = *a_col.add(r);
                            if a_pi == 0.0 {
                                continue;
                            }
                            let va = _mm512_set1_ps(a_pi);
                            for (c, lane) in row_acc.iter_mut().enumerate() {
                                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(va, vb[c]));
                            }
                        }
                    }
                } else {
                    for p in 0..k {
                        let base = b_ptr.add(p * n + j);
                        if p + 2 < k {
                            _mm_prefetch::<_MM_HINT_T0>(base.add(2 * n).cast());
                            _mm_prefetch::<_MM_HINT_T0>(base.add(2 * n + 32).cast());
                        }
                        let vb = [
                            _mm512_loadu_ps(base),
                            _mm512_loadu_ps(base.add(16)),
                            _mm512_loadu_ps(base.add(32)),
                            _mm512_loadu_ps(base.add(48)),
                        ];
                        let a_col = a_ptr.add(p * m + i);
                        for (r, row_acc) in acc.iter_mut().enumerate() {
                            let va = _mm512_set1_ps(*a_col.add(r));
                            for (c, lane) in row_acc.iter_mut().enumerate() {
                                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(va, vb[c]));
                            }
                        }
                    }
                }
                for (r, row_acc) in acc.iter().enumerate() {
                    let c_row = out.add((i + r - lo) * n);
                    for (c, lane) in row_acc.iter().enumerate() {
                        _mm512_storeu_ps(c_row.add(j + 16 * c), *lane);
                    }
                }
                j += 64;
            }
            if j < n {
                at_b_512_stream(m, k, n, a_ptr, b_ptr, out, lo, i, i + BLK_ROWS, j);
            }
            i += BLK_ROWS;
        }
        if i < hi {
            at_b_512_stream(m, k, n, a_ptr, b_ptr, out, lo, i, hi, 0);
        }
    }

    /// Columns `j0..n` of output rows `row_start..row_end` of `C = Aᵀ · B`:
    /// the scalar kernel's `p`-outer streaming loop, vectorised 16-wide
    /// with a masked tail. The tail path of [`at_b_512`]; requires the
    /// target rows to have been zero-filled.
    ///
    /// # Safety
    ///
    /// Requires avx512f; pointer/range contract as in [`at_b_512`], with
    /// `lo <= row_start <= row_end <= hi` and `j0 <= n`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)] // flat coordinate bundle on the hot path
    unsafe fn at_b_512_stream(
        m: usize,
        k: usize,
        n: usize,
        a_ptr: *const f32,
        b_ptr: *const f32,
        out: *mut f32,
        lo: usize,
        row_start: usize,
        row_end: usize,
        j0: usize,
    ) {
        for p in 0..k {
            let b_row = b_ptr.add(p * n);
            for i in row_start..row_end {
                let a_pi = *a_ptr.add(p * m + i);
                if a_pi == 0.0 {
                    continue;
                }
                let va = _mm512_set1_ps(a_pi);
                let c_row = out.add((i - lo) * n);
                let mut j = j0;
                while j + 16 <= n {
                    let vb = _mm512_loadu_ps(b_row.add(j));
                    let vc = _mm512_loadu_ps(c_row.add(j));
                    _mm512_storeu_ps(c_row.add(j), _mm512_add_ps(vc, _mm512_mul_ps(va, vb)));
                    j += 16;
                }
                if j < n {
                    let mask: __mmask16 = (1u16 << (n - j)) - 1;
                    let vb = _mm512_maskz_loadu_ps(mask, b_row.add(j));
                    let vc = _mm512_maskz_loadu_ps(mask, c_row.add(j));
                    _mm512_mask_storeu_ps(
                        c_row.add(j),
                        mask,
                        _mm512_add_ps(vc, _mm512_mul_ps(va, vb)),
                    );
                }
            }
        }
    }

    /// Rows `lo..hi` of `C = Aᵀ · B`, AVX2 analogue of [`at_b_512`].
    ///
    /// # Safety
    ///
    /// Requires avx2; same slice contract as [`at_b_512`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn at_b_256(
        desc: &MatmulDesc,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        let (m, k, n) = (desc.m, desc.k, desc.n);
        rows.fill(0.0);
        let a_ptr = a.as_ptr();
        let b_ptr = b.as_ptr();
        let out = rows.as_mut_ptr();
        for p in 0..k {
            let b_row = b_ptr.add(p * n);
            for i in lo..hi {
                let a_pi = *a_ptr.add(p * m + i);
                if a_pi == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(a_pi);
                let c_row = out.add((i - lo) * n);
                let mut j = 0;
                while j + 8 <= n {
                    let vb = _mm256_loadu_ps(b_row.add(j));
                    let vc = _mm256_loadu_ps(c_row.add(j));
                    _mm256_storeu_ps(c_row.add(j), _mm256_add_ps(vc, _mm256_mul_ps(va, vb)));
                    j += 8;
                }
                if j < n {
                    let mask = tail_mask(n - j);
                    let vb = _mm256_maskload_ps(b_row.add(j), mask);
                    let vc = _mm256_maskload_ps(c_row.add(j), mask);
                    _mm256_maskstore_ps(
                        c_row.add(j),
                        mask,
                        _mm256_add_ps(vc, _mm256_mul_ps(va, vb)),
                    );
                }
            }
        }
    }

    /// Rows `lo..hi` of `C = A · Bᵀ`: one eight-lane accumulator chain per
    /// output element (lane `l` equals the scalar `dot`'s `acc[l]` after
    /// every chunk), four output dots in flight for ILP, the scalar
    /// reduction tree replayed by [`reduce8_tree`], and the same ascending
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// Requires avx2; slices must match `desc` (with `B` stored `n × k`)
    /// and `rows` must hold exactly rows `lo..hi`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn a_bt_256(
        desc: &MatmulDesc,
        a: &[f32],
        b: &[f32],
        lo: usize,
        hi: usize,
        rows: &mut [f32],
    ) {
        let (k, n) = (desc.k, desc.n);
        let a_ptr = a.as_ptr();
        let b_ptr = b.as_ptr();
        let out = rows.as_mut_ptr();
        let chunks = k / 8;
        for i in lo..hi {
            let a_row = a_ptr.add(i * k);
            let c_row = out.add((i - lo) * n);
            let mut j = 0;
            while j + 4 <= n {
                let b_rows = [
                    b_ptr.add(j * k),
                    b_ptr.add((j + 1) * k),
                    b_ptr.add((j + 2) * k),
                    b_ptr.add((j + 3) * k),
                ];
                let mut acc = [_mm256_setzero_ps(); 4];
                for c in 0..chunks {
                    let va = _mm256_loadu_ps(a_row.add(8 * c));
                    for (l, lane) in acc.iter_mut().enumerate() {
                        let vb = _mm256_loadu_ps(b_rows[l].add(8 * c));
                        *lane = _mm256_add_ps(*lane, _mm256_mul_ps(va, vb));
                    }
                }
                for (l, lane) in acc.iter().enumerate() {
                    let mut tail = 0.0f32;
                    for t in chunks * 8..k {
                        tail += *a_row.add(t) * *b_rows[l].add(t);
                    }
                    *c_row.add(j + l) = reduce8_tree(*lane) + tail;
                }
                j += 4;
            }
            while j < n {
                let b_row = b_ptr.add(j * k);
                let mut acc = _mm256_setzero_ps();
                for c in 0..chunks {
                    let va = _mm256_loadu_ps(a_row.add(8 * c));
                    let vb = _mm256_loadu_ps(b_row.add(8 * c));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
                }
                let mut tail = 0.0f32;
                for t in chunks * 8..k {
                    tail += *a_row.add(t) * *b_row.add(t);
                }
                *c_row.add(j) = reduce8_tree(acc) + tail;
                j += 1;
            }
        }
    }

    /// Collapses eight accumulator lanes through the exact tree of the
    /// scalar [`crate::matmul::dot`]:
    /// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, node for node, operand
    /// order preserved.
    ///
    /// # Safety
    ///
    /// Requires avx2 (for the 128-bit shuffles; callers already have it).
    #[target_feature(enable = "avx2")]
    unsafe fn reduce8_tree(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        // s = [l0+l4, l1+l5, l2+l6, l3+l7]
        let s = _mm_add_ps(lo, hi);
        // pairs[0] = s0+s1, pairs[2] = s2+s3 (0xB1 swaps within pairs)
        let pairs = _mm_add_ps(s, _mm_shuffle_ps::<0xB1>(s, s));
        let r = _mm_add_ss(pairs, _mm_movehl_ps(pairs, pairs));
        _mm_cvtss_f32(r)
    }

    /// AVX2 ragged-tail mask: lanes `< rem` enabled (high bit set).
    ///
    /// # Safety
    ///
    /// Requires avx2. `rem` must be `< 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        debug_assert!(rem < 8);
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), idx)
    }

    /// [`activation::sigmoid`] over `data` in place, 16 lanes at a time
    /// with a masked tail.
    ///
    /// # Safety
    ///
    /// Requires avx512f.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn sigmoid_512(data: &mut [f32]) {
        map_512(data, |x| {
            let one = _mm512_set1_ps(1.0);
            _mm512_div_ps(one, _mm512_add_ps(one, exp16(negate(x))))
        });
    }

    /// [`activation::tanh`] over `data` in place, 16 lanes at a time with
    /// a masked tail.
    ///
    /// # Safety
    ///
    /// Requires avx512f.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tanh_512(data: &mut [f32]) {
        map_512(data, |x| tanh16(x));
    }

    /// Applies `f` to `data` in 16-lane blocks. Every block goes through
    /// one masked load and store (all lanes set but in the tail, which
    /// loads zeros into its unused lanes and stores only the used ones),
    /// so `f` has a single call site to inline into.
    #[target_feature(enable = "avx512f")]
    unsafe fn map_512(data: &mut [f32], f: impl Fn(__m512) -> __m512) {
        let (n, p) = (data.len(), data.as_mut_ptr());
        for i in (0..n).step_by(16) {
            let mask: __mmask16 = if n - i >= 16 { !0 } else { (1 << (n - i)) - 1 };
            _mm512_mask_storeu_ps(p.add(i), mask, f(_mm512_maskz_loadu_ps(mask, p.add(i))));
        }
    }

    /// `-x` as a sign flip, like scalar negation (NaN payloads included).
    #[target_feature(enable = "avx512f")]
    unsafe fn negate(x: __m512) -> __m512 {
        let sign = _mm512_set1_epi32(i32::MIN);
        _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign))
    }

    /// `|bits(x)|`: the lane bits with the sign cleared.
    #[target_feature(enable = "avx512f")]
    unsafe fn abs_bits(x: __m512) -> __m512i {
        _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(i32::MAX))
    }

    /// Lanes `mask` of `y` recomputed as `f` of the same lanes of `x`: the
    /// rare special inputs the vector form leaves to the scalar reference.
    /// Kept out of line so the kernels' hot paths stay small enough to
    /// inline.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn patch_lanes(x: __m512, y: __m512, mask: __mmask16, f: fn(f32) -> f32) -> __m512 {
        let (mut xs, mut ys) = ([0.0f32; 16], [0.0f32; 16]);
        _mm512_storeu_ps(xs.as_mut_ptr(), x);
        _mm512_storeu_ps(ys.as_mut_ptr(), y);
        for (l, (x, y)) in xs.iter().zip(ys.iter_mut()).enumerate() {
            if mask >> l & 1 != 0 {
                *y = f(*x);
            }
        }
        _mm512_loadu_ps(ys.as_ptr())
    }

    /// [`activation::exp`] on 16 lanes: the main path as two 8-lane `f64`
    /// halves, each operation the scalar reference's (the same five fused
    /// multiply-adds, the same table, one final rounding to `f32`); lanes
    /// with `|x| >= 88` or NaN take the scalar reference.
    #[target_feature(enable = "avx512f")]
    unsafe fn exp16(x: __m512) -> __m512 {
        let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(x));
        let hi = _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(
            _mm512_castps_pd(x),
        )));
        let y = _mm512_insertf64x4::<1>(
            _mm512_castpd256_pd512(_mm256_castps_pd(exp_main_pd(lo))),
            _mm256_castps_pd(exp_main_pd(hi)),
        );
        let y = _mm512_castpd_ps(y);
        let slow =
            _mm512_cmpge_epu32_mask(abs_bits(x), _mm512_set1_epi32(EXP_SLOW_ABS_BITS as i32));
        if slow == 0 {
            y
        } else {
            patch_lanes(x, y, slow, activation::exp)
        }
    }

    /// The main path of [`activation::exp`] on 8 `f64` lanes, rounded to
    /// `f32`.
    #[target_feature(enable = "avx512f")]
    unsafe fn exp_main_pd(xd: __m512d) -> __m256 {
        let inv_ln2_n = _mm512_set1_pd(EXP_INV_LN2_N);
        let shift = _mm512_set1_pd(EXP_SHIFT);
        let kd = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm512_castpd_si512(kd);
        let kd = _mm512_sub_pd(kd, shift);
        let r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
        // tab[ki % 32]: two 16-entry permutes on the low four index bits,
        // then bit 4 picks the half
        let tab = |q: usize| _mm512_loadu_si512(EXP2F_TAB.as_ptr().add(8 * q).cast());
        let low = _mm512_permutex2var_epi64(tab(0), ki, tab(1));
        let high = _mm512_permutex2var_epi64(tab(2), ki, tab(3));
        let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_fmadd_pd(_mm512_set1_pd(EXP_POLY[0]), r, _mm512_set1_pd(EXP_POLY[1]));
        let r2 = _mm512_mul_pd(r, r);
        let y = _mm512_fmadd_pd(_mm512_set1_pd(EXP_POLY[2]), r, _mm512_set1_pd(1.0));
        let y = _mm512_fmadd_pd(z, r2, y);
        _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
    }

    /// [`activation::tanh`] on 16 lanes. Each lane's `expm1` argument
    /// (`2|x|` from 1 up, `-2|x|` below) goes through [`expm1_16`] and a
    /// mask picks the lane's formula, so every lane performs exactly the
    /// scalar reference's operations. `|x| < 2^-55` (with `±0`, where
    /// `x · (1 + x)` is `x`) and `|x| >= 22` are blended in; NaN and `±inf`
    /// lanes take the scalar reference.
    #[target_feature(enable = "avx512f")]
    unsafe fn tanh16(x: __m512) -> __m512 {
        let ix = abs_bits(x);
        let sign = _mm512_andnot_si512(ix, _mm512_castps_si512(x));
        let ax = _mm512_castsi512_ps(ix);
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_ps(2.0);
        let ge1 = _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(TANH_ONE_BITS as i32));
        let arg = _mm512_mask_blend_ps(
            ge1,
            _mm512_mul_ps(_mm512_set1_ps(-2.0), ax),
            _mm512_mul_ps(two, ax),
        );
        let t = expm1_16(arg);
        // |x| >= 1: 1 - 2/(t + 2); below: -t/(t + 2)
        let q = _mm512_div_ps(
            _mm512_mask_blend_ps(ge1, negate(t), two),
            _mm512_add_ps(t, two),
        );
        let z = _mm512_mask_blend_ps(ge1, q, _mm512_sub_ps(one, q));
        let z = _mm512_mask_blend_ps(
            _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(TANH_SATURATED_BITS as i32)),
            z,
            one,
        );
        let z = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(z), sign));
        let z = _mm512_mask_blend_ps(
            _mm512_cmplt_epu32_mask(ix, _mm512_set1_epi32(TANH_TINY_BITS as i32)),
            z,
            _mm512_mul_ps(x, _mm512_add_ps(one, x)),
        );
        let special = _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(0x7f80_0000));
        if special == 0 {
            z
        } else {
            patch_lanes(x, z, special, activation::tanh)
        }
    }

    /// fdlibm's `expm1f` on 16 lanes over the arguments `tanh` passes (see
    /// the scalar `expm1` in [`activation`]): every lane computes the
    /// reduction and the polynomial, then its reduction index `k` picks
    /// which of the scalar function's return expressions it keeps.
    #[target_feature(enable = "avx512f")]
    unsafe fn expm1_16(x: __m512) -> __m512 {
        let hx = abs_bits(x);
        let negative = _mm512_cmplt_epi32_mask(_mm512_castps_si512(x), _mm512_setzero_si512());
        let reduce = _mm512_cmpgt_epu32_mask(hx, _mm512_set1_epi32(EXPM1_REDUCE_BITS as i32));
        let near = _mm512_cmplt_epu32_mask(hx, _mm512_set1_epi32(EXPM1_NEAR_BITS as i32));
        let half = _mm512_mask_blend_ps(negative, _mm512_set1_ps(0.5), _mm512_set1_ps(-0.5));
        let k_far = _mm512_cvttps_epi32(_mm512_add_ps(
            _mm512_mul_ps(_mm512_set1_ps(INV_LN2), x),
            half,
        ));
        // |x| in (0.5 ln 2, 1.5 ln 2) only for negative x here: k = -1,
        // where `x - t·ln2_hi` and `t·ln2_lo` with t = -1 are exactly
        // fdlibm's `x + ln2_hi` and `-ln2_lo`; no reduction means k = 0,
        // where they leave x unchanged and c = 0
        let k = _mm512_mask_blend_epi32(near, k_far, _mm512_set1_epi32(-1));
        let k = _mm512_maskz_mov_epi32(reduce, k);
        let t = _mm512_cvtepi32_ps(k);
        let hi = _mm512_sub_ps(x, _mm512_mul_ps(t, _mm512_set1_ps(LN2_HI)));
        let lo = _mm512_mul_ps(t, _mm512_set1_ps(LN2_LO));
        let xr = _mm512_sub_ps(hi, lo);
        let c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

        let hfx = _mm512_mul_ps(_mm512_set1_ps(0.5), xr);
        let hxs = _mm512_mul_ps(xr, hfx);
        let q = |i: usize| _mm512_set1_ps(EXPM1_Q[i]);
        let poly = _mm512_add_ps(q(3), _mm512_mul_ps(hxs, q(4)));
        let poly = _mm512_add_ps(q(2), _mm512_mul_ps(hxs, poly));
        let poly = _mm512_add_ps(q(1), _mm512_mul_ps(hxs, poly));
        let poly = _mm512_add_ps(q(0), _mm512_mul_ps(hxs, poly));
        let one = _mm512_set1_ps(1.0);
        let r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, poly));
        let t3 = _mm512_sub_ps(_mm512_set1_ps(3.0), _mm512_mul_ps(r1, hfx));
        let e = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(
                _mm512_sub_ps(r1, t3),
                _mm512_sub_ps(_mm512_set1_ps(6.0), _mm512_mul_ps(xr, t3)),
            ),
        );
        // k = 0
        let y0 = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
        let e = _mm512_sub_ps(
            _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c),
            hxs,
        );
        let half = _mm512_set1_ps(0.5);
        // k = -1
        let y_m1 = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(xr, e)), half);
        let e_x = _mm512_sub_ps(e, xr);
        let k_exp = _mm512_slli_epi32::<23>(k);
        let scale =
            |y: __m512| _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), k_exp));
        // k <= -2 or k > 56
        let y_far = _mm512_sub_ps(scale(_mm512_sub_ps(one, e_x)), one);
        // k < 23: t = 1 - 2^-k
        let t_mid = _mm512_sub_epi32(
            _mm512_set1_epi32(0x3f80_0000),
            _mm512_srav_epi32(_mm512_set1_epi32(0x0100_0000), k),
        );
        let y_mid = scale(_mm512_sub_ps(_mm512_castsi512_ps(t_mid), e_x));
        // 23 <= k <= 56: t = 2^-k
        let t_high = _mm512_slli_epi32::<23>(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k));
        let y_high = scale(_mm512_add_ps(
            _mm512_sub_ps(xr, _mm512_add_ps(e, _mm512_castsi512_ps(t_high))),
            one,
        ));

        let k_lt = |b: i32| _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(b));
        let k_gt = |b: i32| _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(b));
        let y = _mm512_mask_blend_ps(k_lt(23), y_high, y_mid);
        let y = _mm512_mask_blend_ps(k_lt(-1) | k_gt(56), y, y_far);
        let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), y, y_m1);
        let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), y, y0);
        // |x| < 2^-25: x itself
        _mm512_mask_blend_ps(
            _mm512_cmplt_epu32_mask(hx, _mm512_set1_epi32(EXPM1_TINY_BITS as i32)),
            y,
            x,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation;

    /// Every f32 bit pattern through the SIMD backend's activation
    /// kernels must equal the scalar references bitwise. 30-40 s
    /// on two cores in release:
    /// `cargo test --release -p tensor --lib exhaustive -- --ignored`.
    #[test]
    #[ignore = "walks all 2^32 inputs; run in release with --ignored"]
    fn exhaustive_simd_activations_equal_references() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = has_avx512();
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        if !avx512 {
            eprintln!(
                "skipped: no AVX-512 on this CPU, so the SIMD activations are the references"
            );
            return;
        }
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let blocks = (1u64 << 32) / BLOCK;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut inputs = vec![0.0f32; BLOCK as usize];
                    let (mut sig, mut tanh) = (inputs.clone(), inputs.clone());
                    for block in (t..blocks).step_by(threads as usize) {
                        for (i, v) in inputs.iter_mut().enumerate() {
                            *v = f32::from_bits((block * BLOCK) as u32 + i as u32);
                        }
                        sig.copy_from_slice(&inputs);
                        tanh.copy_from_slice(&inputs);
                        SimdBackend.sigmoid_in_place(&mut sig);
                        SimdBackend.tanh_in_place(&mut tanh);
                        for ((&x, s), t) in inputs.iter().zip(&sig).zip(&tanh) {
                            let (want_s, want_t) = (activation::sigmoid(x), activation::tanh(x));
                            assert_eq!(
                                s.to_bits(),
                                want_s.to_bits(),
                                "sigmoid({:#010x}): simd {s:e} vs reference {want_s:e}",
                                x.to_bits()
                            );
                            assert_eq!(
                                t.to_bits(),
                                want_t.to_bits(),
                                "tanh({:#010x}): simd {t:e} vs reference {want_t:e}",
                                x.to_bits()
                            );
                        }
                    }
                });
            }
        });
    }
}
