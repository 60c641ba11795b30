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
//!   token alone, so [`FusedLstm::new`] computes it once per model load
//!   as a `vocab × 4·hidden` projection table `P = E · W_x`, and layer 0
//!   of every batch starts each gate row as a copy of `P`'s row for its
//!   token. The table is built in the embedding's own buffer and takes
//!   its place: the engine keeps `P`, each layer's recurrent rows `W_h`
//!   and bias, the input rows `W_x` of layers ≥ 1 and the head, and
//!   drops the embedding and layer 0's `W_x`, which no request reads.
//!   Each later layer runs one product that multiplies every
//!   (sequence, timestep) input row of the batch by the input rows of its
//!   fused gate weight. The time loop then only adds `h · W_h` for the
//!   sequences still running onto its rows, adds the bias and applies the
//!   gates. The recurrence keeps the small `active × hidden` product, and
//!   the input projection, most of the multiply-adds, runs once per load
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
//! the table itself: [`FusedLstm::new`] runs the same `matmul_acc` chains
//! over the embedding rows, from the same zeroed start, and a chain never
//! depends on which other rows share its product. So row `id` of `P` is,
//! bit for bit, the first `emb_dim` terms of the gate chains for any step
//! holding token `id`, whether that step runs alone, in a batch, or in
//! the graph. Building the table block by block in the embedding's
//! buffer changes none of this: each row is still its own chain from a
//! zeroed row. The gates mirror [`crate::LstmCell::step`] operation for
//! operation — same bias add, same `f·c + i·g` association, same
//! mean-pool summation order — and apply the same activation functions:
//! `Graph::sigmoid`/`Graph::tanh` and this engine both call
//! [`tensor::sigmoid_in_place`] and [`tensor::tanh_in_place`], whose every
//! backend (16-lane AVX-512 kernels included) equals the scalar
//! references in [`tensor::activation`] on every input. The gates are therefore one implementation, not two that
//! happen to agree, and no libm call is involved. The serve-layer
//! integration tests and the unit tests below assert the bit-identity
//! exactly, for ragged batches of every size.

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

/// Embedding rows one step of the in-place table build copies out and
/// projects (see [`projection_table`]).
const TABLE_BLOCK: usize = 128;

/// The LSTM serving engine: the parts of a trained [`LstmClassifier`]
/// that serving reads, with layer 0's token projection table in place of
/// the embedding (see the module docs).
///
/// The table holds `vocab × 4·hidden` f32 values, built once by
/// [`new`](Self::new); a model whose weights change needs a new engine.
#[derive(Debug)]
pub struct FusedLstm {
    config: LstmConfig,
    /// `P = E · W_x`: row `id` is layer 0's input terms of every gate
    /// chain for token `id`.
    proj: Tensor,
    layers: Vec<GateWeights>,
    head_weight: Tensor,
    head_bias: Tensor,
}

/// What the engine keeps of one layer's fused gate parameters.
#[derive(Debug)]
struct GateWeights {
    /// The gate weight rows the forward reads: all `input + hidden` rows
    /// for layers ≥ 1, but only layer 0's `hidden` recurrent rows, since
    /// its input rows live on in the projection table.
    w: Tensor,
    /// Rows of `w` before the recurrent ones (0 for layer 0).
    input: usize,
    /// `1 × 4·hidden` gate bias.
    bias: Tensor,
}

impl FusedLstm {
    /// Builds the engine from `model`, taking it apart: the projection
    /// table is computed over the embedding's own buffer, and the
    /// embedding, layer 0's input rows and every other tensor serving
    /// never reads are dropped.
    pub fn new(model: LstmClassifier) -> Self {
        let (config, mut store, embedding, layers, head) = model.into_parts();
        let mut take = |id| std::mem::replace(store.get_mut(id), Tensor::zeros(0, 0));
        let mut layers: Vec<GateWeights> = layers
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
        let first = &mut layers[0];
        let proj = projection_table(take(embedding.table_id()), &first.w);
        let recurrent = &first.w.as_slice()[first.input * first.w.cols()..];
        first.w = Tensor::from_vec(config.hidden, first.w.cols(), recurrent.to_vec());
        first.input = 0;
        Self {
            config,
            proj,
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
        // token's row of the projection table
        let mut z = Tensor::zeros(total, 4 * hidden);
        for t in 0..steps {
            for r in 0..live[t] {
                z.row_mut(start[t] + r)
                    .copy_from_slice(self.proj.row(seqs[order[r]][t]));
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

/// `P = E · W_x` for the embedding `E` (`vocab × emb_dim`) and the first
/// `emb_dim` rows of layer 0's gate weight `w`, each row one ascending
/// [`tensor::matmul_acc`] chain from a zeroed row, as the graph's gate
/// products run them.
///
/// When a table row is at least as wide as an embedding row (`4·hidden ≥
/// emb_dim`, the serving shape included), the table is built in `E`'s
/// own buffer: grown once to the table's size, then filled one
/// [`TABLE_BLOCK`]-row block at a time, last block first. Each block's
/// embedding rows are copied out before its table rows are written, and
/// table row `r` starts at or after embedding row `r`, so a block's
/// writes only land on embedding rows already copied out. The embedding
/// and its projection never hold memory at the same time. A narrower
/// table is built on its own and the embedding dropped after.
fn projection_table(embedding: Tensor, w: &Tensor) -> Tensor {
    let (vocab, emb) = embedding.shape();
    let width = w.cols();
    if width < emb {
        let mut proj = Tensor::zeros(vocab, width);
        tensor::matmul_acc(&embedding, 0..vocab, w, 0..emb, &mut proj, 0..vocab);
        return proj;
    }
    let mut data = embedding.into_vec();
    data.reserve_exact(vocab * width - data.len());
    data.resize(vocab * width, 0.0);
    let mut proj = Tensor::from_vec(vocab, width, data);
    let mut block = Tensor::zeros(TABLE_BLOCK.min(vocab), emb);
    let mut hi = vocab;
    while hi > 0 {
        let lo = hi.saturating_sub(TABLE_BLOCK);
        let n = hi - lo;
        block.as_mut_slice()[..n * emb].copy_from_slice(&proj.as_slice()[lo * emb..hi * emb]);
        proj.as_mut_slice()[lo * width..hi * width].fill(0.0);
        tensor::matmul_acc(&block, 0..n, w, 0..emb, &mut proj, lo..hi);
        hi = lo;
    }
    proj
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
    /// columns, so the table build and the per-step products run the
    /// kernels' 64- and 128-column blocks that `hidden: 9` never reaches,
    /// and the 300-row table build is large enough to be row-tiled across
    /// the tensor pool.
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
        // narrower (emb 40, hidden 7 -> 28 columns): the first two build
        // the table in the embedding's buffer, over three blocks at vocab
        // 300, the last builds it on its own
        for (emb_dim, hidden) in [(12, 9), (24, 9), (256, 64), (40, 7)] {
            let m = shaped_model(emb_dim, hidden, 13);
            assert_batches_match_graph(&m, &format!("emb {emb_dim}, hidden {hidden}"));
        }
    }

    #[test]
    fn table_in_the_embedding_buffer_equals_a_separate_product() {
        let mut rng = StdRng::seed_from_u64(14);
        for (vocab, emb, width) in [
            (1, 3, 8),
            (TABLE_BLOCK - 1, 5, 12),
            (TABLE_BLOCK, 5, 12),
            (TABLE_BLOCK + 1, 5, 12),
            (300, 24, 36),
            (300, 36, 36),
            (300, 40, 28),
            (2 * TABLE_BLOCK + 3, 16, 64),
        ] {
            let embedding = tensor::Initializer::Uniform(1.0).init(vocab, emb, &mut rng);
            let w = tensor::Initializer::Uniform(1.0).init(emb + 3, width, &mut rng);
            let mut separate = Tensor::zeros(vocab, width);
            tensor::matmul_acc(&embedding, 0..vocab, &w, 0..emb, &mut separate, 0..vocab);
            let proj = projection_table(embedding, &w);
            assert_eq!(proj.shape(), (vocab, width));
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&proj), bits(&separate), "{vocab} x {emb} -> {width}");
        }
    }

    #[test]
    fn zero_embedding_entries_are_bit_identical_to_graph_eval() {
        for pooling in [LstmPooling::LastHidden, LstmPooling::MeanPool] {
            let mut m = serving_model(pooling, 12);
            let table_id = m.parts().0.table_id();
            let table = m.store_mut().get_mut(table_id);
            // exact zeros of both signs, and whole zero rows, so the
            // table build's zero-skip fires
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
