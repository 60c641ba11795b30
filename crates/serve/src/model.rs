//! The common trait every servable model sits behind, and its three
//! implementations: the fused-engine LSTM, the graph-eval BERT, and the
//! TF-IDF linear model.
//!
//! A [`ServingModel`] splits inference into two halves so the batch
//! worker can cache the first and fuse the second:
//!
//! * [`featurize`](ServingModel::featurize) — canonical entity tokens →
//!   model-specific [`Features`] (token ids, or a sparse TF-IDF row).
//!   Pure per-request work; its output is what the LRU cache stores.
//! * [`predict`](ServingModel::predict) — one call for the whole batch.
//!   Sequence models run the tape-free fused engine (LSTM) or a shared
//!   autograd graph (BERT); the linear model assembles one CSR matrix.
//!
//! Batching must never change answers: every path here is bit-identical
//! to the corresponding one-example evaluation (guarded by tests in
//! `nn::infer` and `tests/serve_integration.rs`).

use ml::LinearModel;
use nn::{BertClassifier, FusedLstm, LstmClassifier};
use std::collections::HashMap;
use textproc::{CsrBuilder, Vocabulary};

/// A featurized request, ready for a batch forward pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Features {
    /// Token-id sequence (LSTM/BERT).
    Ids(Vec<usize>),
    /// Sorted sparse TF-IDF row `(column, value)` (linear models).
    Sparse(Vec<(usize, f32)>),
}

/// A model the batch server can drive: featurize per request, predict per
/// batch.
pub trait ServingModel: Send + Sync {
    /// Short kind tag (`"lstm"`, `"bert"`, `"linear"`), for logs and
    /// introspection.
    fn kind(&self) -> &'static str;

    /// Number of output classes (the width of every probability row).
    fn num_classes(&self) -> usize;

    /// Turns canonical entity tokens into this model's features.
    fn featurize(&self, tokens: &[String]) -> Features;

    /// Runs one fused forward pass over the whole batch, returning one
    /// probability row per request, in request order.
    ///
    /// # Panics
    ///
    /// Panics if handed [`Features`] of the wrong variant — features are
    /// only valid for the model that produced them.
    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>>;
}

fn ids_of<'a>(features: &'a Features, kind: &str) -> &'a [usize] {
    match features {
        Features::Ids(ids) => ids,
        Features::Sparse(_) => panic!("{kind} model handed sparse features"),
    }
}

// ---------------------------------------------------------------------------
// LSTM: the hot path, served by the tape-free fused engine.

/// An LSTM classifier, as a [`FusedLstm`] engine, plus the vocabulary it
/// was trained over.
pub struct LstmServing {
    engine: FusedLstm,
    vocab: Vocabulary,
}

impl LstmServing {
    /// Wraps a restored classifier and its vocabulary. The engine's token
    /// projection table starts empty and fills as requests first read each
    /// token, so this projects nothing.
    pub fn new(model: LstmClassifier, vocab: Vocabulary) -> Self {
        Self {
            engine: FusedLstm::new(model),
            vocab,
        }
    }
}

impl ServingModel for LstmServing {
    fn kind(&self) -> &'static str {
        "lstm"
    }

    fn num_classes(&self) -> usize {
        self.engine.config().classes
    }

    fn featurize(&self, tokens: &[String]) -> Features {
        Features::Ids(
            tokens
                .iter()
                .map(|t| self.vocab.lookup_or_unk(t) as usize)
                .collect(),
        )
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        let seqs: Vec<&[usize]> = batch.iter().map(|f| ids_of(f, "lstm")).collect();
        self.engine.predict_proba_batch(&seqs)
    }
}

// ---------------------------------------------------------------------------
// BERT: no fused engine (attention already batches poorly over ragged
// sequences); served through shared-graph evaluation, which still
// amortizes parameter binding across the batch.

/// A transformer classifier plus the vocabulary it was trained over.
pub struct BertServing {
    model: BertClassifier,
    vocab: Vocabulary,
}

impl BertServing {
    /// Wraps a restored classifier and its vocabulary.
    pub fn new(model: BertClassifier, vocab: Vocabulary) -> Self {
        Self { model, vocab }
    }
}

impl ServingModel for BertServing {
    fn kind(&self) -> &'static str {
        "bert"
    }

    fn num_classes(&self) -> usize {
        use nn::SequenceModel;
        self.model.num_classes()
    }

    fn featurize(&self, tokens: &[String]) -> Features {
        Features::Ids(
            tokens
                .iter()
                .map(|t| self.vocab.lookup_or_unk(t) as usize)
                .collect(),
        )
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        let seqs: Vec<&[usize]> = batch.iter().map(|f| ids_of(f, "bert")).collect();
        nn::predict_proba_graph(&self.model, &seqs)
    }
}

// ---------------------------------------------------------------------------
// Linear: TF-IDF features replayed from the manifest, scores softmaxed.

/// A one-vs-rest linear model plus the frozen TF-IDF transform it was
/// trained on (terms, IDF weights and weighting flags, as captured by
/// [`ModelManifest::linear`](crate::ModelManifest::linear)).
pub struct LinearServing {
    model: LinearModel,
    columns: HashMap<String, usize>,
    idf: Vec<f32>,
    sublinear_tf: bool,
    l2_normalize: bool,
}

impl LinearServing {
    /// Wraps a restored linear model and its vectorizer state.
    pub fn new(
        model: LinearModel,
        terms: Vec<String>,
        idf: Vec<f32>,
        sublinear_tf: bool,
        l2_normalize: bool,
    ) -> Self {
        assert_eq!(terms.len(), idf.len(), "term/idf length mismatch");
        let columns = terms.into_iter().enumerate().map(|(c, t)| (t, c)).collect();
        Self {
            model,
            columns,
            idf,
            sublinear_tf,
            l2_normalize,
        }
    }
}

impl ServingModel for LinearServing {
    fn kind(&self) -> &'static str {
        "linear"
    }

    fn num_classes(&self) -> usize {
        self.model.classes()
    }

    /// Replays `TfIdfVectorizer::transform` for one document: count
    /// in-vocabulary tokens, weight by IDF (optionally sublinear), sort
    /// by column, then L2-normalize in sorted order. The operation order
    /// matches the training-time transform exactly, so a served row is
    /// bit-identical to the row the model was fitted on.
    fn featurize(&self, tokens: &[String]) -> Features {
        let mut counts: HashMap<usize, f32> = HashMap::new();
        for t in tokens {
            if let Some(&c) = self.columns.get(t.as_str()) {
                *counts.entry(c).or_insert(0.0) += 1.0;
            }
        }
        let mut entries: Vec<(usize, f32)> = counts
            .into_iter()
            .map(|(c, tf)| {
                let tf = if self.sublinear_tf { 1.0 + tf.ln() } else { tf };
                (c, tf * self.idf[c])
            })
            .collect();
        entries.sort_unstable_by_key(|&(c, _)| c);
        if self.l2_normalize {
            let norm: f32 = entries.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                for (_, v) in &mut entries {
                    *v /= norm;
                }
            }
        }
        Features::Sparse(entries)
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        let mut b = CsrBuilder::new(self.idf.len());
        for features in batch {
            match features {
                Features::Sparse(entries) => b.push_sorted_row(entries.iter().copied()),
                Features::Ids(_) => panic!("linear model handed id features"),
            }
        }
        let x = b.build();
        (0..x.rows())
            .map(|r| ovr_proba(&self.model.decision_row(&x, r)))
            .collect()
    }
}

/// Per-class sigmoids normalized to sum to 1 — the exact expression
/// `ml::LogisticRegression::predict_proba` uses, so a served linear
/// snapshot answers bit-identically to the in-process classifier.
fn ovr_proba(scores: &[f64]) -> Vec<f64> {
    let sig: Vec<f64> = scores.iter().map(|s| 1.0 / (1.0 + (-s).exp())).collect();
    let z: f64 = sig.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    sig.into_iter().map(|p| p / z).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelManifest;
    use ml::{Classifier, LogisticRegression, LogisticRegressionConfig};
    use nn::{LstmConfig, LstmPooling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textproc::{TfIdfConfig, TfIdfVectorizer};

    fn vocab() -> Vocabulary {
        Vocabulary::from_tokens(["stir", "onion", "bake", "simmer"].map(String::from))
    }

    fn lstm() -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(3);
        LstmClassifier::new(
            LstmConfig {
                vocab: 9,
                emb_dim: 4,
                hidden: 5,
                layers: 1,
                dropout: 0.0,
                classes: 3,
                pooling: LstmPooling::LastHidden,
            },
            &mut rng,
        )
    }

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn lstm_featurize_maps_unknown_to_unk() {
        let serving = LstmServing::new(lstm(), vocab());
        let f = serving.featurize(&toks(&["stir", "never-seen", "bake"]));
        let v = vocab();
        assert_eq!(
            f,
            Features::Ids(vec![
                v.id("stir").unwrap() as usize,
                Vocabulary::UNK as usize,
                v.id("bake").unwrap() as usize,
            ])
        );
    }

    #[test]
    fn lstm_predict_matches_graph_eval() {
        let model = lstm();
        let serving = LstmServing::new(model.clone(), vocab());
        let a = serving.featurize(&toks(&["stir", "onion"]));
        let b = serving.featurize(&toks(&["bake", "simmer", "stir"]));
        let got = serving.predict(&[&a, &b]);
        let expected = nn::predict_proba_graph(&model, &[&[5, 6], &[7, 8, 5]]);
        assert_eq!(got, expected);
        assert_eq!(serving.num_classes(), 3);
        assert_eq!(serving.kind(), "lstm");
    }

    #[test]
    fn linear_featurize_is_bit_identical_to_training_transform() {
        let docs: Vec<Vec<&str>> = vec![
            vec!["stir", "onion", "stir"],
            vec!["bake", "onion"],
            vec!["stir", "bake", "simmer"],
        ];
        for sublinear_tf in [false, true] {
            for l2_normalize in [false, true] {
                let mut tv = TfIdfVectorizer::new(TfIdfConfig {
                    min_df: 1,
                    sublinear_tf,
                    l2_normalize,
                });
                tv.fit(&docs);
                let x = tv.transform(&docs);

                let manifest = ModelManifest::linear(3, &tv);
                let model = LinearModel {
                    weights: vec![vec![0.0; tv.vocab_size()]; 3],
                    bias: vec![0.0; 3],
                };
                let serving = LinearServing::new(
                    model,
                    manifest.tfidf_terms.clone(),
                    manifest.tfidf_idf.clone(),
                    manifest.sublinear_tf,
                    manifest.l2_normalize,
                );
                for (r, doc) in docs.iter().enumerate() {
                    let tokens: Vec<String> = doc.iter().map(|t| t.to_string()).collect();
                    match serving.featurize(&tokens) {
                        Features::Sparse(entries) => {
                            let (cols, vals) = x.row(r);
                            let expected: Vec<(usize, f32)> = cols
                                .iter()
                                .zip(vals)
                                .map(|(&c, &v)| (c as usize, v))
                                .collect();
                            assert_eq!(
                                entries, expected,
                                "row {r} sublinear={sublinear_tf} l2={l2_normalize}"
                            );
                        }
                        Features::Ids(_) => panic!("linear must produce sparse features"),
                    }
                }
            }
        }
    }

    #[test]
    fn linear_predict_is_bit_identical_to_logreg() {
        let docs: Vec<Vec<&str>> = vec![vec!["stir"], vec!["onion"], vec!["stir", "onion"]];
        let y = vec![0usize, 1, 0];
        let mut tv = TfIdfVectorizer::new(TfIdfConfig::default());
        let x = tv.fit_transform(&docs);
        let mut logreg = LogisticRegression::new(LogisticRegressionConfig::default());
        logreg.fit(&x, &y);

        let manifest = ModelManifest::linear(2, &tv);
        let serving = LinearServing::new(
            logreg.linear_model().clone(),
            manifest.tfidf_terms,
            manifest.tfidf_idf,
            manifest.sublinear_tf,
            manifest.l2_normalize,
        );
        let features: Vec<Features> = docs
            .iter()
            .map(|d| serving.featurize(&d.iter().map(|t| t.to_string()).collect::<Vec<_>>()))
            .collect();
        let refs: Vec<&Features> = features.iter().collect();
        let probs = serving.predict(&refs);
        assert_eq!(probs, logreg.predict_proba(&x));
        for row in &probs {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "sparse features")]
    fn feature_kind_mismatch_panics() {
        let serving = LstmServing::new(lstm(), vocab());
        serving.predict(&[&Features::Sparse(vec![])]);
    }
}
