//! Differentiable operations: forward construction and local backward rules.
//!
//! Each operation appends a node whose [`Op`] variant stores its parent node
//! indices plus whatever forward-pass state the backward rule needs (e.g.
//! cached softmax probabilities, dropout masks, layer-norm statistics).

use tensor::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b_into, matmul_into, softmax_rows, Tensor,
};

use crate::arena::Arena;
use crate::graph::{accumulate, Graph, Node, VarId};

/// GELU tanh-approximation constant `sqrt(2/pi)`.
const GELU_C: f32 = 0.797_884_6;

pub(crate) enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    MatMul(usize, usize),
    /// `out = A · Bᵀ` without materialising the transpose.
    MatMulBT(usize, usize),
    Transpose(usize),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Gelu(usize),
    SoftmaxRows(usize),
    ConcatCols(Vec<usize>),
    ConcatRows(Vec<usize>),
    SliceCols {
        parent: usize,
        start: usize,
    },
    SliceRows {
        parent: usize,
        start: usize,
    },
    AddRowBroadcast {
        x: usize,
        bias: usize,
    },
    Embedding {
        table: usize,
        ids: Vec<usize>,
    },
    SumAll(usize),
    MeanAll(usize),
    MeanRows(usize),
    CrossEntropy {
        logits: usize,
        targets: Vec<usize>,
        probs: Tensor,
    },
    LayerNormRows {
        x: usize,
        gamma: usize,
        beta: usize,
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    Dropout {
        parent: usize,
        mask: Tensor,
    },
}

impl Op {
    /// Propagates `grad` (gradient at node `idx`) to this op's parents.
    ///
    /// Delta buffers are drawn from and retired to `scratch`, so a steady
    /// backward pass allocates nothing per op (see [`Arena`]).
    pub(crate) fn backward(
        &self,
        grad: &Tensor,
        idx: usize,
        nodes: &[Node],
        grads: &mut [Option<Tensor>],
        scratch: &mut Arena,
    ) {
        match self {
            Op::Leaf => {}
            Op::Add(a, b) => {
                accumulate(grads, *a, grad.clone(), scratch);
                accumulate(grads, *b, grad.clone(), scratch);
            }
            Op::Sub(a, b) => {
                accumulate(grads, *a, grad.clone(), scratch);
                let mut neg = grad.clone();
                neg.scale(-1.0);
                accumulate(grads, *b, neg, scratch);
            }
            Op::Mul(a, b) => {
                accumulate(grads, *a, grad.hadamard(&nodes[*b].value), scratch);
                accumulate(grads, *b, grad.hadamard(&nodes[*a].value), scratch);
            }
            Op::Scale(a, c) => {
                let mut d = grad.clone();
                d.scale(*c);
                accumulate(grads, *a, d, scratch);
            }
            Op::AddScalar(a) => accumulate(grads, *a, grad.clone(), scratch),
            Op::MatMul(a, b) => {
                let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                let mut da = scratch.take(av.rows(), av.cols());
                matmul_a_bt_into(grad, bv, &mut da);
                accumulate(grads, *a, da, scratch);
                let mut db = scratch.take(bv.rows(), bv.cols());
                matmul_at_b_into(av, grad, &mut db);
                accumulate(grads, *b, db, scratch);
            }
            Op::MatMulBT(a, b) => {
                // out = A · Bᵀ  =>  dA = G · B, dB = Gᵀ · A
                let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                let mut da = scratch.take(av.rows(), av.cols());
                matmul_into(grad, bv, &mut da);
                accumulate(grads, *a, da, scratch);
                let mut db = scratch.take(bv.rows(), bv.cols());
                matmul_at_b_into(grad, av, &mut db);
                accumulate(grads, *b, db, scratch);
            }
            Op::Transpose(a) => accumulate(grads, *a, grad.transpose(), scratch),
            Op::Sigmoid(a) => {
                let y = &nodes[idx].value;
                let mut d = grad.clone();
                d.zip_inplace(y, |g, y| g * y * (1.0 - y));
                accumulate(grads, *a, d, scratch);
            }
            Op::Tanh(a) => {
                let y = &nodes[idx].value;
                let mut d = grad.clone();
                d.zip_inplace(y, |g, y| g * (1.0 - y * y));
                accumulate(grads, *a, d, scratch);
            }
            Op::Relu(a) => {
                let x = &nodes[*a].value;
                let mut d = grad.clone();
                d.zip_inplace(x, |g, x| if x > 0.0 { g } else { 0.0 });
                accumulate(grads, *a, d, scratch);
            }
            Op::Gelu(a) => {
                let x = &nodes[*a].value;
                let mut d = grad.clone();
                // fully overwritten with the tanh arguments
                let mut t = scratch.take(x.rows(), x.cols());
                gelu_backward(x.as_slice(), t.as_mut_slice(), d.as_mut_slice());
                scratch.give(t);
                accumulate(grads, *a, d, scratch);
            }
            Op::SoftmaxRows(a) => {
                let y = &nodes[idx].value;
                // fully overwritten below, so a recycled buffer is fine
                let mut d = scratch.take(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = grad.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(y, g)| y * g).sum();
                    for ((dst, &yv), &gv) in d.row_mut(r).iter_mut().zip(yr).zip(gr) {
                        *dst = yv * (gv - dot);
                    }
                }
                accumulate(grads, *a, d, scratch);
            }
            Op::ConcatCols(parents) => {
                let mut offset = 0;
                for &p in parents {
                    let cols = nodes[p].value.cols();
                    // fully overwritten row by row below
                    let mut d = scratch.take(grad.rows(), cols);
                    for r in 0..grad.rows() {
                        d.row_mut(r)
                            .copy_from_slice(&grad.row(r)[offset..offset + cols]);
                    }
                    accumulate(grads, p, d, scratch);
                    offset += cols;
                }
            }
            Op::ConcatRows(parents) => {
                let mut offset = 0;
                for &p in parents {
                    let rows = nodes[p].value.rows();
                    accumulate(grads, p, grad.slice_rows(offset, offset + rows), scratch);
                    offset += rows;
                }
            }
            Op::SliceCols { parent, start } => {
                let (pr, pc) = nodes[*parent].value.shape();
                let mut d = scratch.take(pr, pc);
                d.fill_zero(); // only a column band is written below
                for r in 0..grad.rows() {
                    d.row_mut(r)[*start..*start + grad.cols()].copy_from_slice(grad.row(r));
                }
                accumulate(grads, *parent, d, scratch);
            }
            Op::SliceRows { parent, start } => {
                let (pr, pc) = nodes[*parent].value.shape();
                let mut d = scratch.take(pr, pc);
                d.fill_zero(); // only a row band is written below
                for r in 0..grad.rows() {
                    d.row_mut(start + r).copy_from_slice(grad.row(r));
                }
                accumulate(grads, *parent, d, scratch);
            }
            Op::AddRowBroadcast { x, bias } => {
                accumulate(grads, *x, grad.clone(), scratch);
                accumulate(grads, *bias, grad.sum_rows(), scratch);
            }
            Op::Embedding { table, ids } => {
                let (rows, cols) = nodes[*table].value.shape();
                let mut d = scratch.take(rows, cols);
                d.fill_zero(); // scatter-add target
                for (r, &id) in ids.iter().enumerate() {
                    for (dst, &g) in d.row_mut(id).iter_mut().zip(grad.row(r)) {
                        *dst += g;
                    }
                }
                accumulate(grads, *table, d, scratch);
            }
            Op::SumAll(a) => {
                let (r, c) = nodes[*a].value.shape();
                accumulate(grads, *a, Tensor::full(r, c, grad.get(0, 0)), scratch);
            }
            Op::MeanAll(a) => {
                let (r, c) = nodes[*a].value.shape();
                let scale = grad.get(0, 0) / (r * c) as f32;
                accumulate(grads, *a, Tensor::full(r, c, scale), scratch);
            }
            Op::MeanRows(a) => {
                let (r, c) = nodes[*a].value.shape();
                // fully overwritten below
                let mut d = scratch.take(r, c);
                let inv = 1.0 / r as f32;
                for row in 0..r {
                    for (dst, &g) in d.row_mut(row).iter_mut().zip(grad.row(0)) {
                        *dst = g * inv;
                    }
                }
                accumulate(grads, *a, d, scratch);
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                // d loss / d logits = (softmax - onehot) / n, scaled by
                // the incoming scalar gradient.
                let g0 = grad.get(0, 0);
                let n = targets.len() as f32;
                let mut d = probs.clone();
                for (r, &t) in targets.iter().enumerate() {
                    let row = d.row_mut(r);
                    row[t] -= 1.0;
                    for v in row.iter_mut() {
                        *v *= g0 / n;
                    }
                }
                accumulate(grads, *logits, d, scratch);
            }
            Op::LayerNormRows {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            } => {
                let (r, c) = xhat.shape();
                let gamma_v = &nodes[*gamma].value;
                // dgamma = sum over rows of g ⊙ xhat; dbeta = sum over rows of g
                let mut dgamma = Tensor::zeros(1, c);
                let mut dbeta = Tensor::zeros(1, c);
                let mut dx = scratch.take(r, c); // fully overwritten below
                for (row, &s) in inv_std.iter().enumerate().take(r) {
                    let g = grad.row(row);
                    let xh = xhat.row(row);
                    for i in 0..c {
                        dgamma.row_mut(0)[i] += g[i] * xh[i];
                        dbeta.row_mut(0)[i] += g[i];
                    }
                    // ghat = g ⊙ gamma (the gradient w.r.t. xhat)
                    let ghat: Vec<f32> = g.iter().zip(gamma_v.row(0)).map(|(g, w)| g * w).collect();
                    let mean_ghat: f32 = ghat.iter().sum::<f32>() / c as f32;
                    let mean_ghat_xhat: f32 =
                        ghat.iter().zip(xh).map(|(a, b)| a * b).sum::<f32>() / c as f32;
                    for i in 0..c {
                        dx.row_mut(row)[i] = s * (ghat[i] - mean_ghat - xh[i] * mean_ghat_xhat);
                    }
                }
                accumulate(grads, *x, dx, scratch);
                accumulate(grads, *gamma, dgamma, scratch);
                accumulate(grads, *beta, dbeta, scratch);
            }
            Op::Dropout { parent, mask } => {
                accumulate(grads, *parent, grad.hadamard(mask), scratch);
            }
        }
    }
}

/// GELU of every element of `x`, into `out`: each `tanh` argument
/// first, then one pass of the slice kernel [`tensor::tanh_in_place`]
/// (which equals `tanhf` on every input), then the rest elementwise. Each
/// expression keeps the per-element formula's operation order, so the
/// values are that formula's, bit for bit.
fn gelu(x: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = GELU_C * (x + 0.044_715 * x * x * x);
    }
    tensor::tanh_in_place(out);
    for (o, &x) in out.iter_mut().zip(x) {
        *o = 0.5 * x * (1.0 + *o);
    }
}

/// `grad · GELU'(x)` elementwise, in place over `grad`, with `t` as the
/// buffer for the `tanh` values. The derivative recomputes its own `tanh`
/// argument rather than reuse the forward's: it cubes `x` before scaling
/// (`0.044_715 * x3`), the forward scales first (`0.044_715 * x * x *
/// x`), and the two can differ in the last bit.
fn gelu_backward(x: &[f32], t: &mut [f32], grad: &mut [f32]) {
    for (t, &x) in t.iter_mut().zip(x) {
        let x3 = x * x * x;
        *t = GELU_C * (x + 0.044_715 * x3);
    }
    tensor::tanh_in_place(t);
    for ((g, &t), &x) in grad.iter_mut().zip(&*t).zip(x) {
        let sech2 = 1.0 - t * t;
        *g *= 0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
    }
}

impl Graph<'_> {
    /// Elementwise sum. Shapes must match.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a) + self.value(b);
        self.push(value, Op::Add(a.0, b.0))
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a) - self.value(b);
        self.push(value, Op::Sub(a.0, b.0))
    }

    /// Hadamard (elementwise) product. Shapes must match.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).hadamard(self.value(b));
        self.push(value, Op::Mul(a.0, b.0))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: VarId, c: f32) -> VarId {
        let mut value = self.value(a).clone();
        value.scale(c);
        self.push(value, Op::Scale(a.0, c))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f32) -> VarId {
        let value = self.value(a).map(|x| x + c);
        self.push(value, Op::AddScalar(a.0))
    }

    /// Matrix product `A · B`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = matmul(self.value(a), self.value(b));
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// Matrix product `A · Bᵀ` (attention scores) without a transpose copy.
    pub fn matmul_bt(&mut self, a: VarId, b: VarId) -> VarId {
        let value = matmul_a_bt(self.value(a), self.value(b));
        self.push(value, Op::MatMulBT(a.0, b.0))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a.0))
    }

    /// Logistic sigmoid, [`tensor::activation::sigmoid`] (the function the
    /// fused serving engine applies too).
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let mut value = self.value(a).clone();
        tensor::sigmoid_in_place(value.as_mut_slice());
        self.push(value, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent, [`tensor::activation::tanh`] (the function the
    /// fused serving engine applies too).
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let mut value = self.value(a).clone();
        tensor::tanh_in_place(value.as_mut_slice());
        self.push(value, Op::Tanh(a.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a.0))
    }

    /// GELU activation (tanh approximation, as in BERT).
    pub fn gelu(&mut self, a: VarId) -> VarId {
        let x = self.value(a);
        let mut value = Tensor::zeros(x.rows(), x.cols());
        gelu(x.as_slice(), value.as_mut_slice());
        self.push(value, Op::Gelu(a.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let value = softmax_rows(self.value(a));
        self.push(value, Op::SoftmaxRows(a.0))
    }

    /// Horizontal concatenation (all parents share a row count).
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::hstack(&tensors);
        self.push(value, Op::ConcatCols(parts.iter().map(|v| v.0).collect()))
    }

    /// Vertical concatenation (all parents share a column count).
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::vstack(&tensors);
        self.push(value, Op::ConcatRows(parts.iter().map(|v| v.0).collect()))
    }

    /// Copies columns `start..end` into a new node.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let src = self.value(a);
        assert!(
            start <= end && end <= src.cols(),
            "column slice out of bounds"
        );
        let mut value = Tensor::zeros(src.rows(), end - start);
        for r in 0..src.rows() {
            value.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        self.push(value, Op::SliceCols { parent: a.0, start })
    }

    /// Copies rows `start..end` into a new node.
    pub fn slice_rows(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let value = self.value(a).slice_rows(start, end);
        self.push(value, Op::SliceRows { parent: a.0, start })
    }

    /// Adds a `1 × n` bias row vector to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: VarId, bias: VarId) -> VarId {
        let mut value = self.value(x).clone();
        value.add_row_broadcast(self.value(bias));
        self.push(
            value,
            Op::AddRowBroadcast {
                x: x.0,
                bias: bias.0,
            },
        )
    }

    /// Gathers rows of an embedding `table` for each id, producing a
    /// `ids.len() × emb_dim` matrix. Backward scatter-adds into the table.
    pub fn embedding(&mut self, table: VarId, ids: &[usize]) -> VarId {
        let tbl = self.value(table);
        let mut value = Tensor::zeros(ids.len(), tbl.cols());
        for (r, &id) in ids.iter().enumerate() {
            assert!(
                id < tbl.rows(),
                "embedding id {id} out of range {}",
                tbl.rows()
            );
            value.row_mut(r).copy_from_slice(tbl.row(id));
        }
        self.push(
            value,
            Op::Embedding {
                table: table.0,
                ids: ids.to_vec(),
            },
        )
    }

    /// Sum of all elements as a `1 × 1` node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let value = Tensor::full(1, 1, self.value(a).sum());
        self.push(value, Op::SumAll(a.0))
    }

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let value = Tensor::full(1, 1, self.value(a).mean());
        self.push(value, Op::MeanAll(a.0))
    }

    /// Column-wise mean over rows, producing a `1 × cols` node (mean
    /// pooling over a sequence).
    pub fn mean_rows(&mut self, a: VarId) -> VarId {
        let src = self.value(a);
        let mut value = src.sum_rows();
        value.scale(1.0 / src.rows() as f32);
        self.push(value, Op::MeanRows(a.0))
    }

    /// Mean cross-entropy between row logits and integer targets, as a
    /// `1 × 1` node. This is the fused softmax + NLL loss.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of
    /// range.
    pub fn cross_entropy(&mut self, logits: VarId, targets: &[usize]) -> VarId {
        let l = self.value(logits);
        assert_eq!(l.rows(), targets.len(), "one target per logit row required");
        let probs = softmax_rows(l);
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < l.cols(), "target {t} out of range {}", l.cols());
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Tensor::full(1, 1, loss),
            Op::CrossEntropy {
                logits: logits.0,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Row-wise layer normalisation with learnable `gamma`/`beta`
    /// (`1 × cols` each): `y = gamma ⊙ (x - mean) / sqrt(var + eps) + beta`.
    pub fn layer_norm_rows(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f32) -> VarId {
        let xv = self.value(x);
        let (r, c) = xv.shape();
        assert_eq!(self.value(gamma).shape(), (1, c), "gamma must be 1 x cols");
        assert_eq!(self.value(beta).shape(), (1, c), "beta must be 1 x cols");
        let mut xhat = Tensor::zeros(r, c);
        let mut inv_std = Vec::with_capacity(r);
        for row in 0..r {
            let src = xv.row(row);
            let mean: f32 = src.iter().sum::<f32>() / c as f32;
            let var: f32 = src.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / c as f32;
            let s = 1.0 / (var + eps).sqrt();
            inv_std.push(s);
            for (dst, &v) in xhat.row_mut(row).iter_mut().zip(src) {
                *dst = (v - mean) * s;
            }
        }
        let gamma_v = self.value(gamma).clone();
        let beta_v = self.value(beta).clone();
        let mut value = xhat.clone();
        for row in 0..r {
            for ((dst, &g), &b) in value
                .row_mut(row)
                .iter_mut()
                .zip(gamma_v.row(0))
                .zip(beta_v.row(0))
            {
                *dst = *dst * g + b;
            }
        }
        self.push(
            value,
            Op::LayerNormRows {
                x: x.0,
                gamma: gamma.0,
                beta: beta.0,
                xhat,
                inv_std,
            },
        )
    }

    /// Inverted dropout with keep-probability `1 - p`; `mask` entries are
    /// `0` or `1/(1-p)`. Call only in training mode — evaluation should
    /// simply not insert the op.
    pub fn dropout(&mut self, a: VarId, p: f32, rng: &mut impl rand::Rng) -> VarId {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        if p == 0.0 {
            return a;
        }
        let (r, c) = self.value(a).shape();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mask = Tensor::from_vec(
            r,
            c,
            (0..r * c)
                .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
                .collect(),
        );
        let value = self.value(a).hadamard(&mask);
        self.push(value, Op::Dropout { parent: a.0, mask })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamStore;

    /// GELU as the one per-element expression it always was, through the
    /// scalar `tanh` that the slice kernel equals on every input.
    fn gelu_reference(x: f32) -> f32 {
        0.5 * x * (1.0 + tensor::activation::tanh(GELU_C * (x + 0.044_715 * x * x * x)))
    }

    fn gelu_derivative_reference(x: f32) -> f32 {
        let x3 = x * x * x;
        let inner = GELU_C * (x + 0.044_715 * x3);
        let t = tensor::activation::tanh(inner);
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044_715 * x * x)
    }

    /// Edge values, then 2^20 seeded draws: a third raw bit patterns (every
    /// exponent, NaN payloads and subnormals included), a third uniform in
    /// ±10 where the curve bends, a third uniform in ±1e4.
    fn gelu_inputs() -> Vec<f32> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e4,
            -1e4,
        ];
        let mut rng = StdRng::seed_from_u64(0x6e1);
        for i in 0..1 << 20 {
            xs.push(match i % 3 {
                0 => f32::from_bits(rng.gen::<u32>()),
                1 => rng.gen_range(-10.0f32..10.0),
                _ => rng.gen_range(-1e4f32..1e4),
            });
        }
        xs
    }

    fn assert_same_bits(what: &str, xs: &[f32], got: &[f32], want: impl Fn(usize, f32) -> f32) {
        for (i, (&x, &got)) in xs.iter().zip(got).enumerate() {
            let want = want(i, x);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} at x = {x:e} ({:#010x}): got {got:e}, want {want:e}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn gelu_and_its_derivative_match_the_per_element_formulas_bitwise() {
        let xs = gelu_inputs();
        let n = xs.len();
        // through the graph: forward value, and the backward of a sum,
        // whose upstream gradient is exactly 1
        let mut store = ParamStore::new();
        let w = store.add("x", Tensor::from_vec(1, n, xs.clone()));
        let mut g = Graph::new(&store);
        let x = g.param(w);
        let y = g.gelu(x);
        assert_same_bits("forward", &xs, g.value(y).as_slice(), |_, x| {
            gelu_reference(x)
        });
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let dx = grads.for_param(w).unwrap();
        assert_same_bits("backward", &xs, dx.as_slice(), |_, x| {
            1.0 * gelu_derivative_reference(x)
        });
        // and the backward rule under arbitrary upstream gradients
        let upstream: Vec<f32> = (0..n).map(|i| (i % 17) as f32 * 0.375 - 3.0).collect();
        let mut d = upstream.clone();
        let mut t = vec![0.0; n];
        gelu_backward(&xs, &mut t, &mut d);
        assert_same_bits("scaled backward", &xs, &d, |i, x| {
            upstream[i] * gelu_derivative_reference(x)
        });
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let logits = g.constant(Tensor::from_rows(&[&[20.0, 0.0], &[0.0, 20.0]]));
        let loss = g.cross_entropy(logits, &[0, 1]);
        assert!(g.value(loss).get(0, 0) < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let logits = g.constant(Tensor::zeros(3, 4));
        let loss = g.cross_entropy(logits, &[0, 1, 2]);
        assert!((g.value(loss).get(0, 0) - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn embedding_gathers_rows() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let table = g.constant(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]));
        let emb = g.embedding(table, &[2, 0, 2]);
        assert_eq!(g.value(emb).row(0), &[3.0, 3.0]);
        assert_eq!(g.value(emb).row(1), &[1.0, 1.0]);
        assert_eq!(g.value(emb).row(2), &[3.0, 3.0]);
    }

    #[test]
    fn embedding_backward_scatter_adds() {
        let mut store = ParamStore::new();
        let table = store.add("emb", Tensor::zeros(3, 2));
        let mut g = Graph::new(&store);
        let t = g.param(table);
        let emb = g.embedding(t, &[1, 1, 0]);
        let loss = g.sum_all(emb);
        let grads = g.backward(loss);
        let dt = grads.for_param(table).unwrap();
        // row 1 gathered twice, row 0 once, row 2 never
        assert_eq!(dt.row(0), &[1.0, 1.0]);
        assert_eq!(dt.row(1), &[2.0, 2.0]);
        assert_eq!(dt.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let left = g.slice_cols(x, 0, 2);
        let right = g.slice_cols(x, 2, 4);
        let back = g.concat_cols(&[left, right]);
        assert_eq!(g.value(back), g.value(x));
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let gamma = g.constant(Tensor::ones(1, 4));
        let beta = g.constant(Tensor::zeros(1, 4));
        let y = g.layer_norm_rows(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = out.row(0).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(2, 2));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let y = g.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(50, 50));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let y = g.dropout(x, 0.5, &mut rng);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.1, "dropout mean drifted to {mean}");
    }

    #[test]
    fn matmul_bt_matches_explicit() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.constant(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let via_bt = g.matmul_bt(a, b);
        let bt = g.transpose(b);
        let explicit = g.matmul(a, bt);
        assert_eq!(g.value(via_bt), g.value(explicit));
    }
}
