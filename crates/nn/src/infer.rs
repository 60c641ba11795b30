//! Batched, tape-free inference for trained sequence models.
//!
//! The training-path evaluator ([`crate::Trainer::predict_proba`]) builds a
//! fresh autograd graph per example, which re-binds (clones) every
//! parameter tensor — for an embedding-heavy model the clone of the token
//! table dominates the whole forward pass. The serving path cannot afford
//! that, so this module provides two batched entry points:
//!
//! * [`FusedLstm`] — the LSTM serving engine: a fused forward over
//!   weights it owns outright (no graph binding, no tape) that runs the
//!   batch *layer-major*. A recipe entity enters the
//!   first layer only through `E[id] · W_x`, a term that depends on the
//!   token alone, so the engine keeps a `vocab × 4·hidden` projection
//!   table `P = E · W_x`, and layer 0 of every batch starts each gate row
//!   as a copy of `P`'s row for its token. The table is filled lazily, in
//!   the embedding's own buffer: [`FusedLstm::new`] projects no row, and
//!   the first batch that reads a token projects its row over the token's
//!   embedding row, once for the engine's life. A load pays nothing for
//!   the table, and a token no request reads is never projected. The
//!   engine keeps that buffer, each layer's fused gate weight and bias
//!   and the head, and drops every other tensor of the classifier.
//!   Each later layer runs one product that multiplies every
//!   (sequence, timestep) input row of the batch by the input rows of its
//!   fused gate weight. The time loop then only adds `h · W_h` for the
//!   sequences still running onto its rows, adds the bias and applies the
//!   gates. The recurrence keeps the small `active × hidden` product, and
//!   the input projection, most of the multiply-adds, runs once per token
//!   (layer 0) or once over all `Σ len` rows (later layers) instead of as
//!   one short product per step.
//! * [`predict_proba_graph`] — a generic fallback for any
//!   [`SequenceModel`] (e.g. the transformer): one shared graph per chunk
//!   of the batch, so parameters are bound once per chunk instead of once
//!   per example.
//!
//! # Bit-identity contract
//!
//! Both paths produce probability rows **bitwise identical** to the
//! per-example graph evaluation. Every kernel involved fixes each output
//! element's accumulation order independently of the surrounding batch
//! (see `tensor::matmul`). The graph computes each gate pre-activation as
//! one ascending chain over `[x_t | h] · W`; the fused path runs the first
//! `input` terms of that chain in an input product and continues it from
//! the stored partial with [`tensor::matmul_acc`], so every element goes
//! through the same roundings in the same order, with the same exact-`0.0`
//! skip (at `t = 0`, where `h` is zero, the recurrent product is skipped
//! because every one of its terms would be). Layer 0's input product is
//! the table itself: a row is projected by the same `matmul_acc` chains
//! over its embedding row, from the same zeroed start, and a chain never
//! depends on which other rows share its product. So row `id` of `P` is,
//! bit for bit, the first `emb_dim` terms of the gate chains for any step
//! holding token `id`, whether that step runs alone, in a batch, or in
//! the graph, and whichever batch projected the row, beside whichever
//! other rows. The gates mirror [`crate::LstmCell::step`] operation for
//! operation — same bias add, same `f·c + i·g` association, same
//! mean-pool summation order — and apply the same activation functions:
//! `Graph::sigmoid`/`Graph::tanh` and this engine both call
//! [`tensor::sigmoid_in_place`] and [`tensor::tanh_in_place`], whose every
//! backend (16-lane AVX-512 kernels included) equals the scalar
//! references in [`tensor::activation`] on every input. The gates are therefore one implementation, not two that
//! happen to agree, and no libm call is involved. The serve-layer
//! integration tests and the unit tests below assert the bit-identity
//! exactly, for ragged batches of every size.

use std::sync::{Mutex, PoisonError};

use autograd::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{softmax_rows, Tensor};

use crate::lstm::{LstmClassifier, LstmConfig, LstmPooling};
use crate::trainer::SequenceModel;

/// Examples per shared graph in [`predict_proba_graph`]: large enough to
/// amortise parameter binding, small enough to keep the tape's value
/// tensors from accumulating into hundreds of megabytes on big eval sets.
const GRAPH_CHUNK: usize = 32;

/// Most (sequence, timestep) rows one layer-major pass of the fused LSTM
/// holds: its input, gate and state buffers grow with a batch's total
/// token count, so bigger batches run as consecutive chunks.
const CHUNK_ROWS: usize = 4096;

/// Class-probability rows for a batch of token-id sequences, computed on
/// shared autograd graphs (one per `GRAPH_CHUNK` examples, eval mode).
///
/// Works for any [`SequenceModel`]; the LSTM has a faster tape-free
/// engine in [`FusedLstm`]. Results are bitwise identical to building one
/// graph per example.
///
/// # Panics
///
/// Panics if any sequence is empty or contains an out-of-vocabulary id
/// (same contract as [`SequenceModel::logits`]).
pub fn predict_proba_graph<M: SequenceModel>(model: &M, seqs: &[&[usize]]) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(seqs.len());
    for chunk in seqs.chunks(GRAPH_CHUNK.max(1)) {
        let mut g = Graph::new(model.store());
        // dropout is off in eval mode, so the RNG stream is inert; seed 0
        // mirrors the trainer's evaluator
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<_> = chunk
            .iter()
            .map(|ids| model.logits(&mut g, ids, false, &mut rng))
            .collect();
        for v in rows {
            let probs = softmax_rows(g.value(v));
            out.push(probs.row(0).iter().map(|&p| p as f64).collect());
        }
    }
    out
}

/// Layer-0 table rows projected (see [`FusedLstm`]), one per token per
/// engine, counted as each chunk of a batch projects the rows it reads
/// first.
static TABLE_ROWS: trace::Counter = trace::Counter::new("nn.infer.table_rows");

/// The LSTM serving engine: the parts of a trained [`LstmClassifier`]
/// that serving reads, with layer 0's token projection table filled in
/// the embedding's buffer as requests first read each token (see the
/// module docs).
///
/// A model whose weights change needs a new engine.
#[derive(Debug)]
pub struct FusedLstm {
    config: LstmConfig,
    /// Layer 0's projection table, behind one lock that each chunk of a
    /// batch takes once to project the rows it reads first and copy its
    /// gate rows.
    table: Mutex<TokenTable>,
    layers: Vec<GateWeights>,
    head_weight: Tensor,
    head_bias: Tensor,
}

/// What the engine keeps of one layer's fused gate parameters.
#[derive(Debug)]
struct GateWeights {
    /// All `input + hidden` gate weight rows: the input rows (for layer 0,
    /// the ones that project a table row) and then the recurrent rows.
    w: Tensor,
    /// Rows of `w` before the recurrent ones.
    input: usize,
    /// `1 × 4·hidden` gate bias.
    bias: Tensor,
}

/// `P = E · W_x`, filled row by row in the embedding's buffer.
#[derive(Debug)]
struct TokenTable {
    /// Row `id` starts at `id · stride`, `stride = max(emb_dim, width)`:
    /// token `id`'s embedding until its bit in `projected` is set, then
    /// its `width` table values, layer 0's input terms of every gate
    /// chain for token `id`.
    data: Vec<f32>,
    stride: usize,
    /// `4·hidden`, a table row's length.
    width: usize,
    /// Bit `id % 64` of word `id / 64` is set once row `id` is projected.
    projected: Vec<u64>,
}

impl TokenTable {
    /// A table with no row projected, over `embedding`'s buffer. A table
    /// row wider than an embedding row spreads the embedding rows to the
    /// table's stride first, last row first: each row moves to an offset
    /// at or past its own and past every row still to move.
    fn new(embedding: Tensor, width: usize) -> Self {
        let (vocab, emb) = embedding.shape();
        let stride = emb.max(width);
        let mut data = embedding.into_vec();
        if stride > emb {
            data.reserve_exact(vocab * stride - data.len());
            data.resize(vocab * stride, 0.0);
            for id in (1..vocab).rev() {
                data.copy_within(id * emb..(id + 1) * emb, id * stride);
            }
        }
        Self {
            data,
            stride,
            width,
            projected: vec![0; vocab.div_ceil(64)],
        }
    }

    fn is_projected(&self, id: usize) -> bool {
        self.projected[id / 64] & (1 << (id % 64)) != 0
    }

    /// Row `id` of `P`, once projected.
    fn row(&self, id: usize) -> &[f32] {
        debug_assert!(self.is_projected(id));
        &self.data[id * self.stride..][..self.width]
    }

    /// Projects the rows of every id in `seqs` not projected yet: their
    /// embedding rows, once each and in ascending id order, go into one
    /// block, one [`tensor::matmul_acc`] over the first `emb_dim` rows of
    /// layer 0's gate weight runs it from zeroed rows, and each result
    /// overwrites its own embedding row. The table changes only after the
    /// product returns, so a panic inside it leaves no bit set over an
    /// unprojected row.
    fn project(&mut self, seqs: &[&[usize]], layer: &GateWeights) {
        let mut ids: Vec<usize> = seqs
            .iter()
            .flat_map(|seq| seq.iter().copied())
            .filter(|&id| !self.is_projected(id))
            .collect();
        if ids.is_empty() {
            return;
        }
        let _span = trace::span("nn.infer.project");
        ids.sort_unstable();
        ids.dedup();
        let (n, emb) = (ids.len(), layer.input);
        let mut block = Tensor::zeros(n, emb);
        for (r, &id) in ids.iter().enumerate() {
            block
                .row_mut(r)
                .copy_from_slice(&self.data[id * self.stride..][..emb]);
        }
        let mut rows = Tensor::zeros(n, self.width);
        tensor::matmul_acc(&block, 0..n, &layer.w, 0..emb, &mut rows, 0..n);
        for (r, &id) in ids.iter().enumerate() {
            self.data[id * self.stride..][..self.width].copy_from_slice(rows.row(r));
            self.projected[id / 64] |= 1 << (id % 64);
        }
        TABLE_ROWS.add(n as u64);
    }
}

impl FusedLstm {
    /// Builds the engine from `model`, taking it apart: the embedding's
    /// buffer becomes the projection table, with no row projected yet,
    /// and every tensor serving never reads is dropped.
    pub fn new(model: LstmClassifier) -> Self {
        let (config, mut store, embedding, layers, head) = model.into_parts();
        let mut take = |id| std::mem::replace(store.get_mut(id), Tensor::zeros(0, 0));
        let layers = layers
            .iter()
            .map(|layer| {
                let (w, bias) = layer.cell().gate_params();
                let (w, bias) = (take(w), take(bias));
                GateWeights {
                    input: w.rows() - config.hidden,
                    w,
                    bias,
                }
            })
            .collect();
        let table = TokenTable::new(take(embedding.table_id()), 4 * config.hidden);
        Self {
            config,
            table: Mutex::new(table),
            layers,
            head_weight: take(head.weight()),
            head_bias: take(head.bias()),
        }
    }

    /// The architecture of the wrapped model.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// Class-probability rows for a batch of token-id sequences.
    ///
    /// Sequences may have ragged lengths; shorter ones simply drop out of
    /// the active block once exhausted. Output rows are in input order and
    /// bitwise identical to evaluating each sequence alone on an autograd
    /// graph (and therefore to [`crate::Trainer::predict_proba`] and
    /// [`predict_proba_graph`]).
    ///
    /// ```
    /// use nn::{FusedLstm, LstmClassifier, LstmConfig, LstmPooling};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let model = LstmClassifier::new(
    ///     LstmConfig {
    ///         vocab: 20, emb_dim: 8, hidden: 8, layers: 1,
    ///         dropout: 0.0, classes: 3, pooling: LstmPooling::LastHidden,
    ///     },
    ///     &mut StdRng::seed_from_u64(0),
    /// );
    /// let engine = FusedLstm::new(model.clone());
    /// // one fused pass over a ragged batch
    /// let rows = engine.predict_proba_batch(&[&[5, 6, 7], &[8]]);
    /// assert_eq!(rows.len(), 2);
    /// for row in &rows {
    ///     assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    /// }
    /// // batching never changes answers, and they are the graph's
    /// assert_eq!(rows[1], engine.predict_proba_batch(&[&[8]])[0]);
    /// assert_eq!(rows, nn::predict_proba_graph(&model, &[&[5, 6, 7], &[8]]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any sequence is empty or contains an id outside the
    /// model's vocabulary.
    pub fn predict_proba_batch(&self, seqs: &[&[usize]]) -> Vec<Vec<f64>> {
        let logits = self.logits_batch(seqs);
        let probs = softmax_rows(&logits);
        (0..seqs.len())
            .map(|r| probs.row(r).iter().map(|&p| p as f64).collect())
            .collect()
    }

    /// The fused batched forward: one logit row per sequence, input order.
    fn logits_batch(&self, seqs: &[&[usize]]) -> Tensor {
        let cfg = *self.config();
        let b = seqs.len();
        for ids in seqs {
            assert!(!ids.is_empty(), "empty sequence");
            for &id in ids.iter() {
                assert!(
                    id < cfg.vocab,
                    "embedding id {id} out of range {}",
                    cfg.vocab
                );
            }
        }

        let mut pooled = Tensor::zeros(b, cfg.hidden);
        let mut lo = 0;
        while lo < b {
            let (mut hi, mut rows) = (lo + 1, seqs[lo].len());
            while hi < b && rows + seqs[hi].len() <= CHUNK_ROWS {
                rows += seqs[hi].len();
                hi += 1;
            }
            self.pool_chunk(&seqs[lo..hi], &mut pooled, lo);
            lo = hi;
        }

        let mut logits = Tensor::zeros(b, cfg.classes);
        tensor::matmul_into(&pooled, &self.head_weight, &mut logits);
        logits.add_row_broadcast(&self.head_bias);
        logits
    }

    /// Runs `seqs` through every layer and writes each sequence's pooled
    /// feature row to `pooled` row `first + i`.
    fn pool_chunk(&self, seqs: &[&[usize]], pooled: &mut Tensor, first: usize) {
        let cfg = *self.config();
        let hidden = cfg.hidden;

        // Longest-first processing order (stable on ties), so the
        // sequences still running at any step are a prefix of it. Rows are
        // step-major: step `t` owns rows `start[t]..start[t] + live[t]`,
        // and row `start[t] + r` belongs to `seqs[order[r]]`.
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by(|&x, &y| seqs[y].len().cmp(&seqs[x].len()).then(x.cmp(&y)));
        let steps = seqs[order[0]].len();
        let (mut start, mut live) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
        let (mut total, mut active) = (0, seqs.len());
        for t in 0..steps {
            while seqs[order[active - 1]].len() <= t {
                active -= 1;
            }
            start.push(total);
            live.push(active);
            total += active;
        }

        // layer 0's input terms of every (sequence, step) gate chain: the
        // token's row of the projection table, projected first if no
        // batch has read the token yet. A panic under the lock leaves the
        // table consistent (see `TokenTable::project`), so a poisoned
        // lock is taken over.
        let mut z = Tensor::zeros(total, 4 * hidden);
        {
            let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
            table.project(seqs, &self.layers[0]);
            for t in 0..steps {
                for r in 0..live[t] {
                    z.row_mut(start[t] + r)
                        .copy_from_slice(table.row(seqs[order[r]][t]));
                }
            }
        }
        let mut h = Tensor::zeros(total, hidden);
        let mut c = vec![0.0f32; seqs.len() * hidden];
        for (l, layer) in self.layers.iter().enumerate() {
            let (w, bias, input) = (&layer.w, layer.bias.row(0), layer.input);
            if l > 0 {
                // this layer's input rows are the previous layer's states;
                // their terms of every step's gate chains at once
                let x = std::mem::replace(&mut h, Tensor::zeros(total, hidden));
                z.fill_zero();
                c.fill(0.0);
                tensor::matmul_acc(&x, 0..total, w, 0..input, &mut z, 0..total);
            }
            for t in 0..steps {
                let (row0, n) = (start[t], live[t]);
                if t > 0 {
                    // the recurrent terms continue each chain from its
                    // stored partial; `h` rows of step t-1 for the
                    // sequences still running
                    let prev = start[t - 1];
                    tensor::matmul_acc(
                        &h,
                        prev..prev + n,
                        w,
                        input..input + hidden,
                        &mut z,
                        row0..row0 + n,
                    );
                }
                // gates, mirroring LstmCell::step expression for expression
                // and calling the graph's activation functions: the i, f, o
                // sigmoids and the candidate tanh over each biased row, then
                // tanh over the new cell state
                for r in 0..n {
                    let zr = z.row_mut(row0 + r);
                    for (v, &b) in zr.iter_mut().zip(bias) {
                        *v += b;
                    }
                    let (gates, cand) = zr.split_at_mut(3 * hidden);
                    tensor::sigmoid_in_place(gates);
                    tensor::tanh_in_place(cand);
                    let (i_gate, f_gate, o_gate) = (
                        &gates[..hidden],
                        &gates[hidden..2 * hidden],
                        &gates[2 * hidden..],
                    );
                    let h_row = h.row_mut(row0 + r);
                    let c_row = &mut c[r * hidden..(r + 1) * hidden];
                    for u in 0..hidden {
                        let c_next = f_gate[u] * c_row[u] + i_gate[u] * cand[u];
                        c_row[u] = c_next;
                        h_row[u] = c_next;
                    }
                    tensor::tanh_in_place(h_row);
                    // o · tanh(c) in the graph's operand order, which
                    // decides the payload when both are NaN
                    #[allow(clippy::assign_op_pattern)]
                    for (h, &o) in h_row.iter_mut().zip(o_gate) {
                        *h = o * *h;
                    }
                }
            }
        }

        // pooled features, back in input order
        for (r, &orig) in order.iter().enumerate() {
            let len = seqs[orig].len();
            let row = pooled.row_mut(first + orig);
            match cfg.pooling {
                LstmPooling::LastHidden => row.copy_from_slice(h.row(start[len - 1] + r)),
                LstmPooling::MeanPool => {
                    // mirror Graph::mean_rows: sum over rows in ascending
                    // `t`, then one multiply by the precomputed reciprocal
                    for &s in &start[..len] {
                        for (o, &v) in row.iter_mut().zip(h.row(s + r)) {
                            *o += v;
                        }
                    }
                    let inv = 1.0 / len as f32;
                    for o in row.iter_mut() {
                        *o *= inv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Example;
    use crate::{Trainer, TrainerConfig};

    fn model(pooling: LstmPooling, seed: u64) -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmClassifier::new(
            LstmConfig {
                vocab: 40,
                emb_dim: 12,
                hidden: 9, // odd width exercises the matmul column tail
                layers: 2,
                dropout: 0.3, // must be ignored in eval mode
                classes: 5,
                pooling,
            },
            &mut rng,
        )
    }

    fn ragged_seqs(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| (0..(i % 23 + 1)).map(|t| (i * 7 + t * 3) % 40).collect())
            .collect()
    }

    fn graph_rows(m: &LstmClassifier, seqs: &[Vec<usize>]) -> Vec<Vec<f64>> {
        seqs.iter()
            .map(|ids| {
                let mut g = Graph::new(m.store());
                let mut rng = StdRng::seed_from_u64(0);
                let v = m.logits(&mut g, ids, false, &mut rng);
                let probs = softmax_rows(g.value(v));
                probs.row(0).iter().map(|&p| p as f64).collect()
            })
            .collect()
    }

    /// `seqs` as one fused batch.
    fn fused_rows(engine: &FusedLstm, seqs: &[Vec<usize>]) -> Vec<Vec<f64>> {
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        engine.predict_proba_batch(&refs)
    }

    #[test]
    fn fused_batch_is_bit_identical_to_graph_eval() {
        for pooling in [LstmPooling::LastHidden, LstmPooling::MeanPool] {
            let m = model(pooling, 3);
            let engine = FusedLstm::new(m.clone());
            for n in [1usize, 2, 7, 32] {
                let seqs = ragged_seqs(n);
                let single = graph_rows(&m, &seqs);
                assert_eq!(
                    fused_rows(&engine, &seqs),
                    single,
                    "pooling {pooling:?}, batch {n}"
                );
            }
        }
    }

    /// The serving shape (`emb_dim 256`, `hidden 64`, 2 layers): 256 gate
    /// columns, so the table rows and the per-step products run the
    /// kernels' 64- and 128-column blocks that `hidden: 9` never reaches,
    /// and a first batch's table rows, two or more in one product, are
    /// row-tiled across the tensor pool.
    fn serving_model(pooling: LstmPooling, seed: u64) -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmClassifier::new(
            LstmConfig {
                vocab: 300,
                emb_dim: 256,
                hidden: 64,
                layers: 2,
                dropout: 0.0,
                classes: 26,
                pooling,
            },
            &mut rng,
        )
    }

    /// Ragged recipe-length (8 to 19 token) sequences over the whole
    /// 300-token vocabulary.
    fn recipe_seqs(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                (0..8 + (i * 5) % 12)
                    .map(|t| (i * 37 + t * 101) % 300)
                    .collect()
            })
            .collect()
    }

    fn assert_batches_match_graph(m: &LstmClassifier, label: &str) {
        let engine = FusedLstm::new(m.clone());
        for n in [1usize, 2, 3, 5, 32] {
            let seqs = recipe_seqs(n);
            assert_eq!(
                fused_rows(&engine, &seqs),
                graph_rows(m, &seqs),
                "{label}, batch {n}"
            );
        }
    }

    #[test]
    fn serving_shape_batches_are_bit_identical_to_graph_eval() {
        for pooling in [LstmPooling::LastHidden, LstmPooling::MeanPool] {
            let m = serving_model(pooling, 11);
            assert_batches_match_graph(&m, &format!("pooling {pooling:?}"));
        }
    }

    /// A 300-token, 2-layer model of the given widths.
    fn shaped_model(emb_dim: usize, hidden: usize, seed: u64) -> LstmClassifier {
        LstmClassifier::new(
            LstmConfig {
                vocab: 300,
                emb_dim,
                hidden,
                layers: 2,
                dropout: 0.0,
                classes: 26,
                pooling: LstmPooling::MeanPool,
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn every_table_width_is_bit_identical_to_graph_eval() {
        // a table row wider than an embedding row (emb 12, hidden 9 ->
        // 36 columns; emb 24 -> 36), as wide (the serving shape) and
        // narrower (emb 40, hidden 7 -> 28 columns): the table's stride
        // is the wider of the two
        for (emb_dim, hidden) in [(12, 9), (24, 9), (256, 64), (40, 7)] {
            let m = shaped_model(emb_dim, hidden, 13);
            assert_batches_match_graph(&m, &format!("emb {emb_dim}, hidden {hidden}"));
        }
    }

    /// The bits of every value in `values`.
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lazy_rows_equal_a_separate_product_in_any_order() {
        use rand::seq::SliceRandom;
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(14);
        // a table row wider than, as wide as and narrower than an
        // embedding row
        for (vocab, emb, width) in [
            (1, 3, 8),
            (130, 5, 12),
            (300, 24, 36),
            (300, 36, 36),
            (300, 40, 28),
            (259, 16, 64),
        ] {
            let embedding = tensor::Initializer::Uniform(1.0).init(vocab, emb, &mut rng);
            // layer-0 gate weights: `emb` input rows, then 3 recurrent rows
            let layer = GateWeights {
                w: tensor::Initializer::Uniform(1.0).init(emb + 3, width, &mut rng),
                input: emb,
                bias: Tensor::zeros(1, width),
            };
            let mut separate = Tensor::zeros(vocab, width);
            tensor::matmul_acc(
                &embedding,
                0..vocab,
                &layer.w,
                0..emb,
                &mut separate,
                0..vocab,
            );

            let mut shuffled: Vec<usize> = (0..vocab).collect();
            shuffled.shuffle(&mut rng);
            let mut random_batches = Vec::new();
            let mut rest = shuffled.as_slice();
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(17)));
                random_batches.push(batch.to_vec());
                rest = tail;
            }
            // repeats within a batch and across batches, then the rest
            let repeats = vec![
                vec![vocab / 2, vocab / 2, 0, vocab / 2],
                vec![0, vocab - 1, vocab - 1],
                (0..vocab).rev().chain(0..vocab).collect(),
            ];
            let orders = [
                ("single ids", (0..vocab).map(|id| vec![id]).collect()),
                (
                    "single ids, last first",
                    (0..vocab).rev().map(|id| vec![id]).collect(),
                ),
                ("shuffled, random batches", random_batches),
                ("repeats", repeats),
                ("one cold batch", vec![(0..vocab).collect()]),
            ];
            for (label, batches) in orders {
                let label = format!("{vocab} x {emb} -> {width}, {label}");
                let mut table = TokenTable::new(embedding.clone(), width);
                let (ptr, capacity) = (table.data.as_ptr(), table.data.capacity());
                let mut seen = vec![false; vocab];
                for batch in &batches {
                    // as sequences of up to 3 tokens
                    let seqs: Vec<&[usize]> = batch.chunks(3).collect();
                    table.project(&seqs, &layer);
                    for &id in batch {
                        seen[id] = true;
                    }
                    for (id, &seen) in seen.iter().enumerate() {
                        assert_eq!(table.is_projected(id), seen, "{label}: row {id}'s bit");
                    }
                }
                for id in 0..vocab {
                    assert_eq!(
                        bits(table.row(id)),
                        bits(separate.row(id)),
                        "{label}: row {id}"
                    );
                }
                assert_eq!(table.data.as_ptr(), ptr, "{label}: table moved");
                assert_eq!(table.data.capacity(), capacity, "{label}: table grew");
            }
        }
    }

    #[test]
    fn the_table_keeps_the_embedding_allocation() {
        // as wide as the embedding (the serving shape), narrower and
        // wider: the first two project over the embedding's own buffer,
        // the last spreads it to the wider stride once, in `new`
        for (emb_dim, hidden) in [(256, 64), (40, 7), (12, 9)] {
            let m = shaped_model(emb_dim, hidden, 15);
            let taken = m.clone();
            let embedding = taken
                .store()
                .get(taken.parts().0.table_id())
                .as_slice()
                .as_ptr();
            let engine = FusedLstm::new(taken);
            let (ptr, capacity) = {
                let table = engine.table.lock().unwrap();
                (table.data.as_ptr(), table.data.capacity())
            };
            if 4 * hidden <= emb_dim {
                assert_eq!(
                    ptr, embedding,
                    "emb {emb_dim}: the table is not the embedding"
                );
            }
            let every_id: Vec<Vec<usize>> = (0..300).map(|id| vec![id]).collect();
            assert_eq!(fused_rows(&engine, &every_id), graph_rows(&m, &every_id));
            let table = engine.table.lock().unwrap();
            assert!((0..300).all(|id| table.is_projected(id)));
            assert_eq!(table.data.as_ptr(), ptr, "emb {emb_dim}: the table moved");
            assert_eq!(
                table.data.capacity(),
                capacity,
                "emb {emb_dim}: the table grew"
            );
        }
    }

    #[test]
    fn threads_sharing_a_cold_engine_match_graph_eval() {
        let m = serving_model(LstmPooling::MeanPool, 16);
        let seqs = recipe_seqs(40);
        let reference = graph_rows(&m, &seqs);
        let engine = FusedLstm::new(m);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for k in 0..4 {
                let (engine, seqs, reference, start) = (&engine, &seqs, &reference, &start);
                scope.spawn(move || {
                    // thread k sends sequences 6k..6k+22 in ragged
                    // batches of 1 to 5, overlapping its neighbours'
                    let (mut lo, hi) = (6 * k, 6 * k + 22);
                    start.wait();
                    for n in (1..=5).cycle() {
                        if lo >= hi {
                            break;
                        }
                        let end = (lo + n + k).min(hi);
                        let rows = fused_rows(engine, &seqs[lo..end]);
                        assert_eq!(rows, reference[lo..end], "thread {k}, rows {lo}..{end}");
                        lo = end;
                    }
                });
            }
        });
    }

    #[test]
    fn a_cold_serving_shape_batch_projects_its_rows_in_one_pooled_product() {
        // a table row of the serving shape is 256 x 256 = 65,536
        // multiply-adds, tensor's PAR_THRESHOLD, so a product of two or
        // more rows is row-tiled across the pool whenever TENSOR_THREADS
        // gives it more than one thread
        let m = serving_model(LstmPooling::LastHidden, 17);
        let cfg = *m.config();
        assert_eq!(cfg.emb_dim * 4 * cfg.hidden, 1 << 16);
        let seqs = recipe_seqs(3);
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let mut ids: Vec<usize> = seqs.concat();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() >= 2);

        let (_, store, embedding, layers, _) = m.clone().into_parts();
        let e = store.get(embedding.table_id());
        let (w, _) = layers[0].cell().gate_params();
        let layer = GateWeights {
            w: store.get(w).clone(),
            input: cfg.emb_dim,
            bias: Tensor::zeros(1, 4 * cfg.hidden),
        };
        let mut table = TokenTable::new(e.clone(), 4 * cfg.hidden);
        table.project(&refs, &layer);
        for id in 0..cfg.vocab {
            assert_eq!(table.is_projected(id), ids.contains(&id), "row {id}'s bit");
        }
        for &id in &ids {
            let mut alone = Tensor::zeros(1, 4 * cfg.hidden);
            tensor::matmul_acc_with_threads(
                e,
                id..id + 1,
                &layer.w,
                0..cfg.emb_dim,
                &mut alone,
                0..1,
                1,
            );
            assert_eq!(bits(table.row(id)), bits(alone.row(0)), "row {id}");
        }
        // and the same cold batch through the engine answers as the graph
        assert_eq!(
            fused_rows(&FusedLstm::new(m.clone()), &seqs),
            graph_rows(&m, &seqs)
        );
    }

    #[test]
    fn zero_embedding_entries_are_bit_identical_to_graph_eval() {
        for pooling in [LstmPooling::LastHidden, LstmPooling::MeanPool] {
            let mut m = serving_model(pooling, 12);
            let table_id = m.parts().0.table_id();
            let table = m.store_mut().get_mut(table_id);
            // exact zeros of both signs, and whole zero rows, so the
            // table rows' zero-skip fires
            for id in 0..300 {
                let row = table.row_mut(id);
                for (j, v) in row.iter_mut().enumerate() {
                    if id % 7 == 0 || (id + j) % 5 == 0 {
                        *v = if j % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
            }
            assert_batches_match_graph(&m, &format!("zeroed embeddings, pooling {pooling:?}"));
        }
    }

    #[test]
    fn batches_past_the_chunk_bound_match_single_sequences() {
        let m = model(LstmPooling::MeanPool, 4);
        let seqs: Vec<Vec<usize>> = (0..300)
            .map(|i| (0..(i % 40 + 1)).map(|t| (i * 11 + t * 3) % 40).collect())
            .collect();
        assert!(seqs.iter().map(Vec::len).sum::<usize>() > CHUNK_ROWS);
        let batched = fused_rows(&FusedLstm::new(m.clone()), &seqs);
        for (i, single) in graph_rows(&m, &seqs).iter().enumerate() {
            assert_eq!(&batched[i], single, "row {i}");
        }
    }

    #[test]
    fn batch_of_one_matches_any_batch_position() {
        let m = model(LstmPooling::LastHidden, 9);
        let engine = FusedLstm::new(m.clone());
        let seqs = ragged_seqs(13);
        let batched = fused_rows(&engine, &seqs);
        let reference = graph_rows(&m, &seqs);
        for (i, seq) in seqs.iter().enumerate() {
            let alone = engine.predict_proba_batch(&[seq.as_slice()]);
            assert_eq!(alone[0], batched[i], "row {i} depends on batch context");
            assert_eq!(alone[0], reference[i], "row {i} differs from the graph");
        }
    }

    #[test]
    fn graph_fallback_matches_per_example_graphs() {
        let m = model(LstmPooling::LastHidden, 5);
        let seqs = ragged_seqs(40); // spans two GRAPH_CHUNKs
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let fallback = predict_proba_graph(&m, &refs);
        // one graph per example — the original evaluator's formulation
        let reference = graph_rows(&m, &seqs);
        assert_eq!(fallback, reference);
        // and the trainer's evaluator (now chunk-shared, possibly across
        // several worker shards) must agree too
        let examples: Vec<Example> = seqs.iter().map(|s| (s.clone(), 0)).collect();
        let trainer = Trainer::new(TrainerConfig {
            threads: 3,
            ..Default::default()
        });
        assert_eq!(trainer.predict_proba(&m, &examples).unwrap(), reference);
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = model(LstmPooling::LastHidden, 1);
        assert!(FusedLstm::new(m.clone())
            .predict_proba_batch(&[])
            .is_empty());
        assert!(predict_proba_graph(&m, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics_like_the_graph_path() {
        let engine = FusedLstm::new(model(LstmPooling::LastHidden, 1));
        let _ = engine.predict_proba_batch(&[&[]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_id_panics() {
        let engine = FusedLstm::new(model(LstmPooling::LastHidden, 1));
        let _ = engine.predict_proba_batch(&[&[41]]);
    }

    #[test]
    fn probability_rows_are_distributions() {
        let engine = FusedLstm::new(model(LstmPooling::MeanPool, 2));
        for row in fused_rows(&engine, &ragged_seqs(10)) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }
}
