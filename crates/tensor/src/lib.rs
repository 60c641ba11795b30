//! Dense `f32` matrix/tensor substrate used by the autograd and neural-network
//! crates.
//!
//! The paper's neural models (a 2-layer LSTM and BERT/RoBERTa-style
//! transformer encoders) only ever need rank-2 dense math on CPU: activations
//! are `[seq_len, hidden]` or `[batch, features]` matrices. This crate
//! therefore provides a deliberately simple, cache-friendly 2-D [`Tensor`]
//! in row-major layout together with the kernels those models are hot on:
//! blocked matrix multiplication (including transposed variants that avoid
//! materialising transposes), elementwise maps, row-wise softmax, the LSTM
//! gate activations ([`activation`]), and reductions.
//!
//! Design notes (following the Rust performance-book guidance):
//! * a `Tensor` is a single heap allocation (`Vec<f32>`) plus two `usize`
//!   dimensions — no `Rc`, no generic element type, no views with lifetimes;
//! * hot kernels take `&mut` outputs so callers can reuse workhorse buffers;
//! * all indexing goes through `#[inline]` accessors that bounds-check in
//!   debug builds only where possible;
//! * large products run row-tiled on a persistent worker [`pool`]
//!   (`TENSOR_THREADS`-overridable) with bit-identical results for every
//!   thread count — see the [`matmul`] module docs for the contract;
//! * kernels dispatch through a pluggable device [`backend`]
//!   (`TENSOR_BACKEND`-selectable: portable scalar, or AVX2/AVX-512 SIMD)
//!   with cudnn-style op descriptors and per-shape algorithm selection —
//!   backends are bit-identical to the scalar reference by contract.

#![warn(missing_docs)]

pub mod activation;
pub mod backend;
mod init;
mod matmul;
mod ops;
pub mod pool;
mod simd;
mod tensor;

pub use activation::{sigmoid_in_place, tanh_in_place};
pub use backend::{with_backend, Backend, MatmulAlgo, MatmulDesc, MatmulOp};
pub use init::{xavier_normal, xavier_uniform, Initializer};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_a_bt_with_threads, matmul_acc,
    matmul_acc_with_threads, matmul_at_b, matmul_at_b_into, matmul_at_b_with_threads, matmul_into,
    matmul_with_threads,
};
pub use ops::{log_softmax_rows, softmax_rows, softmax_rows_into};
pub use pool::num_threads;
pub use simd::SimdBackend;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
