//! The 2-layer LSTM classifier (§V.E).
//!
//! A standard LSTM cell with fused gate weights, stacked into layers, with
//! the *last* hidden state feeding a linear classification head — "a simple
//! 2-layer LSTM", as the paper puts it. Left-to-right only: the paper
//! contrasts this unidirectionality with the transformers' bidirectional
//! attention to explain the accuracy gap, so we keep it.

use autograd::{Graph, ParamId, ParamStore, VarId};
use rand::rngs::StdRng;
use rand::Rng;
use tensor::{Initializer, Tensor};

use crate::layers::{init_or_zeros, Embedding, Linear};
use crate::trainer::SequenceModel;

/// One LSTM cell with fused input/forget/output/candidate gates.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// `[(input + hidden) × 4·hidden]` fused gate weights.
    w: ParamId,
    /// `[1 × 4·hidden]` fused gate biases (forget gate initialised to 1).
    b: ParamId,
    hidden: usize,
}

impl LstmCell {
    /// Registers a cell mapping `input`-wide inputs to `hidden`-wide state
    /// (zero gate weights without `rng`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: Option<&mut impl Rng>,
    ) -> Self {
        let w = store.add(
            format!("{name}.weight"),
            init_or_zeros(Initializer::XavierUniform, input + hidden, 4 * hidden, rng),
        );
        // forget-gate bias = 1 (the classic trick against early vanishing)
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for i in hidden..2 * hidden {
            bias.set(0, i, 1.0);
        }
        let b = store.add(format!("{name}.bias"), bias);
        Self { w, b, hidden }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Fused gate weight and bias ids, for the tape-free inference path.
    pub(crate) fn gate_params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// One timestep: `(x_t, h, c) → (h', c')`. All state rows are `1 × n`.
    pub fn step(&self, g: &mut Graph, x_t: VarId, h: VarId, c: VarId) -> (VarId, VarId) {
        let w = g.param(self.w);
        let b = g.param(self.b);
        let hsz = self.hidden;

        let xh = g.concat_cols(&[x_t, h]);
        let z = g.matmul(xh, w);
        let z = g.add_row_broadcast(z, b);

        let i_gate = g.slice_cols(z, 0, hsz);
        let i_gate = g.sigmoid(i_gate);
        let f_gate = g.slice_cols(z, hsz, 2 * hsz);
        let f_gate = g.sigmoid(f_gate);
        let o_gate = g.slice_cols(z, 2 * hsz, 3 * hsz);
        let o_gate = g.sigmoid(o_gate);
        let cand = g.slice_cols(z, 3 * hsz, 4 * hsz);
        let cand = g.tanh(cand);

        let fc = g.mul(f_gate, c);
        let ic = g.mul(i_gate, cand);
        let c_next = g.add(fc, ic);
        let c_act = g.tanh(c_next);
        let h_next = g.mul(o_gate, c_act);
        (h_next, c_next)
    }
}

/// A full LSTM layer unrolled over a sequence.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    cell: LstmCell,
}

impl LstmLayer {
    /// The layer's cell, for the tape-free inference path.
    pub(crate) fn cell(&self) -> &LstmCell {
        &self.cell
    }

    /// Registers a layer (see [`LstmCell::new`]).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: Option<&mut impl Rng>,
    ) -> Self {
        Self {
            cell: LstmCell::new(store, name, input, hidden, rng),
        }
    }

    /// Runs the layer over `xs` (`seq × input`), returning all hidden
    /// states (`seq × hidden`).
    pub fn forward(&self, g: &mut Graph, xs: VarId) -> VarId {
        let seq = g.value(xs).rows();
        assert!(seq > 0, "cannot run an LSTM over an empty sequence");
        // each unrolled timestep records ~17 tape nodes (slice, gates,
        // state products); reserving up front avoids re-growing the tape
        g.reserve(seq * 18 + 3);
        let hsz = self.cell.hidden();
        let mut h = g.constant(Tensor::zeros(1, hsz));
        let mut c = g.constant(Tensor::zeros(1, hsz));
        let mut states = Vec::with_capacity(seq);
        for t in 0..seq {
            let x_t = g.slice_rows(xs, t, t + 1);
            let (h2, c2) = self.cell.step(g, x_t, h, c);
            h = h2;
            c = c2;
            states.push(h);
        }
        g.concat_rows(&states)
    }
}

/// How the LSTM's per-step hidden states collapse into one feature row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LstmPooling {
    /// Use the final timestep's hidden state (the paper's setup).
    LastHidden,
    /// Average all timesteps' hidden states — more robust on long
    /// sequences, kept as an ablation axis.
    MeanPool,
}

/// LSTM classifier hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmConfig {
    /// Vocabulary size (including special tokens).
    pub vocab: usize,
    /// Embedding width.
    pub emb_dim: usize,
    /// Hidden width per layer.
    pub hidden: usize,
    /// Stacked layers (the paper uses 2).
    pub layers: usize,
    /// Dropout between layers and before the head (training only).
    pub dropout: f32,
    /// Number of output classes.
    pub classes: usize,
    /// Sequence-to-feature pooling.
    pub pooling: LstmPooling,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            vocab: 2048,
            emb_dim: 64,
            hidden: 128,
            layers: 2,
            dropout: 0.2,
            classes: 26,
            pooling: LstmPooling::LastHidden,
        }
    }
}

/// Embedding → stacked LSTM → last hidden state → linear head.
#[derive(Debug, Clone)]
pub struct LstmClassifier {
    store: ParamStore,
    embedding: Embedding,
    layers: Vec<LstmLayer>,
    head: Linear,
    config: LstmConfig,
}

impl LstmClassifier {
    /// Builds and initialises the model.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (zero layers/classes/vocab).
    pub fn new(config: LstmConfig, rng: &mut StdRng) -> Self {
        Self::build(config, Some(rng))
    }

    /// The model with its randomly initialised weights left at zero: the
    /// target a checkpoint is restored into. It registers the same names,
    /// order and shapes as [`new`](Self::new), through the same
    /// constructors, but draws no init for the restore to overwrite.
    ///
    /// # Panics
    ///
    /// Panics on the configs [`new`](Self::new) panics on.
    pub fn zeroed(config: LstmConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: LstmConfig, mut rng: Option<&mut StdRng>) -> Self {
        assert!(config.layers > 0, "need at least one LSTM layer");
        assert!(config.classes >= 2, "need at least two classes");
        assert!(config.vocab > 0 && config.emb_dim > 0 && config.hidden > 0);
        let mut store = ParamStore::new();
        let embedding = Embedding::new(
            &mut store,
            "embedding",
            config.vocab,
            config.emb_dim,
            rng.as_deref_mut(),
        );
        let mut layers = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let input = if l == 0 {
                config.emb_dim
            } else {
                config.hidden
            };
            layers.push(LstmLayer::new(
                &mut store,
                &format!("lstm{l}"),
                input,
                config.hidden,
                rng.as_deref_mut(),
            ));
        }
        let head = Linear::new(&mut store, "head", config.hidden, config.classes, rng);
        Self {
            store,
            embedding,
            layers,
            head,
            config,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// The model's layers, for tests that reach into its parameters.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&Embedding, &[LstmLayer], &Linear) {
        (&self.embedding, &self.layers, &self.head)
    }

    /// The model taken apart, for [`crate::FusedLstm::new`], which keeps
    /// only the tensors serving reads.
    pub(crate) fn into_parts(self) -> (LstmConfig, ParamStore, Embedding, Vec<LstmLayer>, Linear) {
        (
            self.config,
            self.store,
            self.embedding,
            self.layers,
            self.head,
        )
    }

    /// Replaces the token-embedding table with pre-trained vectors (e.g.
    /// skip-gram embeddings from [`crate::word2vec`]) — the paper's §IV
    /// "word embedding" preprocessing path.
    ///
    /// # Panics
    ///
    /// Panics if the table's shape does not match `(vocab, emb_dim)`.
    pub fn set_pretrained_embeddings(&mut self, table: Tensor) {
        assert_eq!(
            table.shape(),
            (self.config.vocab, self.config.emb_dim),
            "embedding table shape mismatch"
        );
        let id = self.embedding.table_id();
        *self.store.get_mut(id) = table;
    }
}

impl SequenceModel for LstmClassifier {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn num_classes(&self) -> usize {
        self.config.classes
    }

    fn logits(&self, g: &mut Graph, ids: &[usize], train: bool, rng: &mut StdRng) -> VarId {
        assert!(!ids.is_empty(), "empty sequence");
        let mut x = self.embedding.forward(g, ids);
        for (l, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, x);
            if train && self.config.dropout > 0.0 && l + 1 < self.layers.len() {
                x = g.dropout(x, self.config.dropout, rng);
            }
        }
        let seq = g.value(x).rows();
        let mut pooled = match self.config.pooling {
            LstmPooling::LastHidden => g.slice_rows(x, seq - 1, seq),
            LstmPooling::MeanPool => g.mean_rows(x),
        };
        if train && self.config.dropout > 0.0 {
            pooled = g.dropout(pooled, self.config.dropout, rng);
        }
        self.head.forward(g, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::gradient_check;
    use rand::SeedableRng;

    fn tiny_config() -> LstmConfig {
        LstmConfig {
            vocab: 20,
            emb_dim: 6,
            hidden: 8,
            layers: 2,
            dropout: 0.0,
            classes: 3,
            pooling: LstmPooling::LastHidden,
        }
    }

    /// Every parameter's name and shape, in registration order.
    fn layout(store: &ParamStore) -> Vec<(String, (usize, usize))> {
        store
            .iter()
            .map(|(_, name, t)| (name.to_string(), t.shape()))
            .collect()
    }

    #[test]
    fn zeroed_registers_the_same_parameters_as_new() {
        for config in [
            tiny_config(),
            LstmConfig {
                layers: 3,
                pooling: LstmPooling::MeanPool,
                ..tiny_config()
            },
        ] {
            let drawn = LstmClassifier::new(config, &mut StdRng::seed_from_u64(30));
            let zeroed = LstmClassifier::zeroed(config);
            assert_eq!(layout(zeroed.store()), layout(drawn.store()));
            let embedding = zeroed.parts().0.table_id();
            assert!(zeroed
                .store()
                .get(embedding)
                .as_slice()
                .iter()
                .all(|&v| v == 0.0));
        }
    }

    #[test]
    fn mean_pooling_changes_logits() {
        let mut rng = StdRng::seed_from_u64(20);
        let last = LstmClassifier::new(tiny_config(), &mut rng);
        let mut rng = StdRng::seed_from_u64(20);
        let mean = LstmClassifier::new(
            LstmConfig {
                pooling: LstmPooling::MeanPool,
                ..tiny_config()
            },
            &mut rng,
        );
        let mut drng = StdRng::seed_from_u64(0);
        let mut ga = Graph::new(last.store());
        let la = last.logits(&mut ga, &[1, 2, 3, 4], false, &mut drng);
        let mut gb = Graph::new(mean.store());
        let lb = mean.logits(&mut gb, &[1, 2, 3, 4], false, &mut drng);
        // same weights (same seed), different pooling → different logits
        assert_ne!(ga.value(la), gb.value(lb));
    }

    #[test]
    fn mean_pooling_single_token_equals_last_hidden() {
        let mut rng = StdRng::seed_from_u64(21);
        let last = LstmClassifier::new(tiny_config(), &mut rng);
        let mut rng = StdRng::seed_from_u64(21);
        let mean = LstmClassifier::new(
            LstmConfig {
                pooling: LstmPooling::MeanPool,
                ..tiny_config()
            },
            &mut rng,
        );
        let mut drng = StdRng::seed_from_u64(0);
        let mut ga = Graph::new(last.store());
        let la = last.logits(&mut ga, &[7], false, &mut drng);
        let mut gb = Graph::new(mean.store());
        let lb = mean.logits(&mut gb, &[7], false, &mut drng);
        // with one timestep, both poolings see the same hidden state
        assert_eq!(ga.value(la), gb.value(lb));
    }

    #[test]
    fn cell_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "cell", 4, 6, Some(&mut rng));
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(1, 4));
        let h = g.constant(Tensor::zeros(1, 6));
        let c = g.constant(Tensor::zeros(1, 6));
        let (h2, c2) = cell.step(&mut g, x, h, c);
        assert_eq!(g.value(h2).shape(), (1, 6));
        assert_eq!(g.value(c2).shape(), (1, 6));
    }

    #[test]
    fn hidden_state_is_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "cell", 3, 4, Some(&mut rng));
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::full(1, 3, 100.0));
        let h = g.constant(Tensor::zeros(1, 4));
        let c = g.constant(Tensor::zeros(1, 4));
        let (h2, _) = cell.step(&mut g, x, h, c);
        assert!(g.value(h2).as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn layer_output_covers_sequence() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = LstmLayer::new(&mut store, "l", 5, 7, Some(&mut rng));
        let mut g = Graph::new(&store);
        let xs = g.constant(Initializer::Uniform(1.0).init(4, 5, &mut rng));
        let hs = layer.forward(&mut g, xs);
        assert_eq!(g.value(hs).shape(), (4, 7));
    }

    #[test]
    fn classifier_logit_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = LstmClassifier::new(tiny_config(), &mut rng);
        let mut g = Graph::new(model.store());
        let mut drng = StdRng::seed_from_u64(0);
        let l1 = model.logits(&mut g, &[1, 2, 3, 4], false, &mut drng);
        let l2 = model.logits(&mut g, &[1, 2, 3, 4], false, &mut drng);
        assert_eq!(g.value(l1).shape(), (1, 3));
        assert_eq!(
            g.value(l1),
            g.value(l2),
            "eval forward must be deterministic"
        );
    }

    #[test]
    fn order_changes_logits() {
        // the whole point of an LSTM: [a, b] and [b, a] differ
        let mut rng = StdRng::seed_from_u64(4);
        let model = LstmClassifier::new(tiny_config(), &mut rng);
        let mut g = Graph::new(model.store());
        let mut drng = StdRng::seed_from_u64(0);
        let ab = model.logits(&mut g, &[5, 9], false, &mut drng);
        let ba = model.logits(&mut g, &[9, 5], false, &mut drng);
        assert_ne!(g.value(ab), g.value(ba));
    }

    #[test]
    fn lstm_cell_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        // input width == hidden width so h can be fed back as the next
        // step's input, driving gradient flow through time
        let cell = LstmCell::new(&mut store, "cell", 4, 4, Some(&mut rng));
        let x = Initializer::Uniform(0.8).init(1, 4, &mut rng);
        for target in [cell.w, cell.b] {
            let cell = cell.clone();
            let x = x.clone();
            gradient_check(&mut store, target, 1e-2, 3e-2, move |g| {
                let xv = g.constant(x.clone());
                let h = g.constant(Tensor::zeros(1, 4));
                let c = g.constant(Tensor::zeros(1, 4));
                let (h1, c1) = cell.step(g, xv, h, c);
                // run a second step so the gradient flows through time
                let (h2, _) = cell.step(g, h1, h1, c1);
                let sq = g.mul(h2, h2);
                g.sum_all(sq)
            })
            .unwrap();
        }
    }

    #[test]
    fn pretrained_embeddings_are_loaded() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = tiny_config();
        let mut model = LstmClassifier::new(cfg, &mut rng);
        let table = Tensor::full(cfg.vocab, cfg.emb_dim, 0.25);
        model.set_pretrained_embeddings(table);
        let mut g = Graph::new(model.store());
        let mut drng = StdRng::seed_from_u64(0);
        // all ids now embed identically, so any two one-token sequences
        // must produce identical logits
        let a = model.logits(&mut g, &[1], false, &mut drng);
        let b = model.logits(&mut g, &[7], false, &mut drng);
        assert_eq!(g.value(a), g.value(b));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_embedding_shape_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = LstmClassifier::new(tiny_config(), &mut rng);
        model.set_pretrained_embeddings(Tensor::zeros(3, 3));
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        // two sequences distinguished only by order
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = LstmClassifier::new(
            LstmConfig {
                vocab: 10,
                emb_dim: 8,
                hidden: 12,
                layers: 1,
                dropout: 0.0,
                classes: 2,
                pooling: LstmPooling::LastHidden,
            },
            &mut rng,
        );
        let data: Vec<(Vec<usize>, usize)> = vec![(vec![1, 2, 3], 0), (vec![3, 2, 1], 1)];
        let mut opt = crate::optim::AdamW::default();
        let mut drng = StdRng::seed_from_u64(0);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let mut grads: Vec<(ParamId, Tensor)> = Vec::new();
            let mut loss_sum = 0.0;
            for (ids, label) in &data {
                let mut g = Graph::new(model.store());
                let logits = model.logits(&mut g, ids, true, &mut drng);
                let loss = g.cross_entropy(logits, &[*label]);
                loss_sum += g.value(loss).get(0, 0);
                let gr = g.backward(loss);
                for (p, t) in gr.param_grads() {
                    match grads.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, acc)) => acc.axpy(1.0, t),
                        None => grads.push((p, t.clone())),
                    }
                }
            }
            first_loss.get_or_insert(loss_sum);
            last_loss = loss_sum;
            use crate::optim::Optimizer;
            opt.step(model.store_mut(), &grads, 0.01);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not halve: {first_loss:?} → {last_loss}"
        );
    }
}
