//! The serving manifest: the sidecar file that makes a checkpoint
//! self-describing.
//!
//! A `cuisine-checkpoint-v2` file holds only named weight tensors; an
//! `ml` linear snapshot holds only weights and biases. Neither says how
//! to build the model object those weights load into, nor how to turn
//! recipe text into the features the model was trained on. The manifest
//! closes that gap: a model directory is
//!
//! ```text
//! <dir>/manifest.json        this file (architecture + featurizer state)
//! <dir>/latest.ckpt          nn models: CheckpointManager layout
//! <dir>/previous.ckpt        nn models: rollback target (optional)
//! <dir>/linear.bin           linear models: ml::io snapshot (cuisine-linear-v2)
//! ```
//!
//! One flat struct covers every kind; fields that don't apply to a kind
//! are left empty/zero (see `docs/CHECKPOINT_FORMAT.md` for the full
//! field-by-kind table). Flat beats a tagged enum here because the JSON
//! stays trivially greppable and the loader gives architecture mismatch
//! errors from the checkpoint layer itself, which validates every tensor
//! name and shape.

use std::io;
use std::path::Path;

use nn::{BertConfig, LstmConfig, LstmPooling};
use serde::{Deserialize, Serialize};
use textproc::{TfIdfVectorizer, Vocabulary};

/// Format tag of the manifest file.
pub const MANIFEST_FORMAT: &str = "cuisine-serve-manifest-v1";

/// File name of the manifest inside a model directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the linear-model snapshot inside a model directory.
pub const LINEAR_FILE: &str = "linear.bin";

/// Everything the registry needs to reconstruct a servable model from a
/// directory of weights.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModelManifest {
    /// Format tag ([`MANIFEST_FORMAT`]).
    pub format: String,
    /// Model kind: `"lstm"`, `"bert"` or `"linear"`.
    pub kind: String,
    /// Number of output classes.
    pub classes: usize,
    /// Content tokens in id order (sequence models; the 5 special tokens
    /// are implied and must not be listed).
    pub vocab_tokens: Vec<String>,
    /// Embedding width (lstm only).
    pub emb_dim: usize,
    /// Hidden width per layer (lstm) / model width `d_model` (bert).
    pub hidden: usize,
    /// Stacked LSTM layers / encoder layers.
    pub layers: usize,
    /// Attention heads (bert only).
    pub heads: usize,
    /// Feed-forward width `d_ff` (bert only).
    pub ff_dim: usize,
    /// Maximum sequence length including specials (bert only).
    pub max_len: usize,
    /// Sequence pooling, `"last"` or `"mean"` (lstm only).
    pub pooling: String,
    /// TF-IDF vocabulary terms in column order (linear only).
    pub tfidf_terms: Vec<String>,
    /// Per-column IDF weights, aligned with `tfidf_terms` (linear only).
    pub tfidf_idf: Vec<f32>,
    /// Whether the vectorizer used sublinear `1 + ln(tf)` (linear only).
    pub sublinear_tf: bool,
    /// Whether rows were L2-normalized (linear only).
    pub l2_normalize: bool,
}

impl ModelManifest {
    fn base(kind: &str, classes: usize) -> Self {
        Self {
            format: MANIFEST_FORMAT.to_string(),
            kind: kind.to_string(),
            classes,
            vocab_tokens: Vec::new(),
            emb_dim: 0,
            hidden: 0,
            layers: 0,
            heads: 0,
            ff_dim: 0,
            max_len: 0,
            pooling: String::new(),
            tfidf_terms: Vec::new(),
            tfidf_idf: Vec::new(),
            sublinear_tf: false,
            l2_normalize: false,
        }
    }

    /// Describes an LSTM classifier trained over `vocab`.
    ///
    /// # Panics
    ///
    /// Panics if `config.vocab` disagrees with the vocabulary's size —
    /// that mismatch would otherwise surface as an opaque checkpoint
    /// shape error at load time.
    pub fn lstm(config: &LstmConfig, vocab: &Vocabulary) -> Self {
        assert_eq!(
            config.vocab,
            vocab.len(),
            "LstmConfig.vocab must equal the vocabulary size"
        );
        let mut m = Self::base("lstm", config.classes);
        m.vocab_tokens = content_tokens(vocab);
        m.emb_dim = config.emb_dim;
        m.hidden = config.hidden;
        m.layers = config.layers;
        m.pooling = match config.pooling {
            LstmPooling::LastHidden => "last".to_string(),
            LstmPooling::MeanPool => "mean".to_string(),
        };
        m
    }

    /// Describes a BERT/RoBERTa-style classifier trained over `vocab`.
    ///
    /// # Panics
    ///
    /// Panics if `config.vocab` disagrees with the vocabulary's size.
    pub fn bert(config: &BertConfig, vocab: &Vocabulary) -> Self {
        assert_eq!(
            config.vocab,
            vocab.len(),
            "BertConfig.vocab must equal the vocabulary size"
        );
        let mut m = Self::base("bert", config.classes);
        m.vocab_tokens = content_tokens(vocab);
        m.hidden = config.d_model;
        m.layers = config.layers;
        m.heads = config.heads;
        m.ff_dim = config.d_ff;
        m.max_len = config.max_len;
        m
    }

    /// Describes a linear model (LR/SVM) over a fitted TF-IDF vectorizer.
    pub fn linear(classes: usize, vectorizer: &TfIdfVectorizer) -> Self {
        let mut m = Self::base("linear", classes);
        let cols = vectorizer.vocab_size() as u32;
        m.tfidf_terms = (0..cols).map(|c| vectorizer.term(c).to_string()).collect();
        m.tfidf_idf = (0..cols).map(|c| vectorizer.idf(c)).collect();
        let config = vectorizer.config();
        m.sublinear_tf = config.sublinear_tf;
        m.l2_normalize = config.l2_normalize;
        m
    }

    /// The LSTM config this manifest describes.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the manifest is not an `"lstm"` manifest, its
    /// pooling tag is unknown, or a shape field is one
    /// `LstmClassifier::new` would reject (`layers` 0, `classes` below 2,
    /// `emb_dim` or `hidden` 0).
    pub fn lstm_config(&self) -> io::Result<LstmConfig> {
        self.expect_kind("lstm")?;
        let pooling = match self.pooling.as_str() {
            "last" => LstmPooling::LastHidden,
            "mean" => LstmPooling::MeanPool,
            other => return Err(invalid(format!("unknown pooling {other:?}"))),
        };
        require(self.layers >= 1, "layers must be at least 1")?;
        require(self.classes >= 2, "classes must be at least 2")?;
        require(self.emb_dim >= 1, "emb_dim must be at least 1")?;
        require(self.hidden >= 1, "hidden must be at least 1")?;
        Ok(LstmConfig {
            vocab: self.vocab_tokens.len() + 5,
            emb_dim: self.emb_dim,
            hidden: self.hidden,
            layers: self.layers,
            dropout: 0.0, // inference-only: dropout never applies
            classes: self.classes,
            pooling,
        })
    }

    /// The BERT config this manifest describes.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the manifest is not a `"bert"` manifest, or a
    /// shape field is one `BertClassifier::new` would reject (`classes`
    /// below 2, `max_len` below 3, `layers` or `heads` 0, or `hidden` not
    /// a multiple of `heads`) or one that holds no weights (`hidden` 0,
    /// whose encoder layers are empty, so no checkpoint size bounds
    /// their number).
    pub fn bert_config(&self) -> io::Result<BertConfig> {
        self.expect_kind("bert")?;
        require(self.classes >= 2, "classes must be at least 2")?;
        require(self.max_len >= 3, "max_len must be at least 3")?;
        require(self.layers >= 1, "layers must be at least 1")?;
        require(self.heads >= 1, "heads must be at least 1")?;
        require(self.hidden >= 1, "hidden must be at least 1")?;
        require(
            self.hidden.is_multiple_of(self.heads),
            "hidden must be a multiple of heads",
        )?;
        Ok(BertConfig {
            vocab: self.vocab_tokens.len() + 5,
            d_model: self.hidden,
            heads: self.heads,
            layers: self.layers,
            d_ff: self.ff_dim,
            max_len: self.max_len,
            dropout: 0.0,
            classes: self.classes,
        })
    }

    /// Checks, before anything is built from the shape fields, that the
    /// sequence model this manifest describes fits the checkpoint beside
    /// it. Both checkpoint formats store at least one byte per parameter;
    /// without this check an absurd shape (`emb_dim` 10^10) reaches the
    /// zeroed skeleton, whose failed allocation aborts the process.
    ///
    /// # Errors
    ///
    /// `NotFound` when `dir` holds no checkpoint, `InvalidData` when the
    /// parameter count overflows or exceeds the larger file's length.
    pub(crate) fn check_checkpoint_budget(&self, dir: &Path) -> io::Result<()> {
        let bytes = ["latest.ckpt", "previous.ckpt"]
            .iter()
            .filter_map(|name| std::fs::metadata(dir.join(name)).ok())
            .map(|meta| meta.len())
            .max()
            .ok_or_else(|| no_checkpoint(dir))?;
        match self.param_count() {
            Some(params) if params as u64 <= bytes => Ok(()),
            _ => Err(invalid(format!(
                "manifest rejected: classes {}, emb_dim {}, hidden {}, layers {}, heads {}, \
                 ff_dim {}, max_len {} and {} tokens need more parameters than the \
                 {bytes}-byte checkpoint holds",
                self.classes,
                self.emb_dim,
                self.hidden,
                self.layers,
                self.heads,
                self.ff_dim,
                self.max_len,
                self.vocab_tokens.len(),
            ))),
        }
    }

    /// Parameters of the sequence model this manifest describes (every
    /// element its skeleton registers), or `None` on overflow.
    fn param_count(&self) -> Option<usize> {
        let vocab = self.vocab_tokens.len().checked_add(5)?;
        // a `Linear`: weight plus bias
        let linear =
            |inputs: usize, outputs: usize| inputs.checked_mul(outputs)?.checked_add(outputs);
        let h = self.hidden;
        match self.kind.as_str() {
            "lstm" => {
                let gates = h.checked_mul(4)?;
                let deeper = linear(h.checked_mul(2)?, gates)?;
                checked_sum(&[
                    vocab.checked_mul(self.emb_dim)?,
                    linear(self.emb_dim.checked_add(h)?, gates)?,
                    deeper.checked_mul(self.layers.saturating_sub(1))?,
                    linear(h, self.classes)?,
                ])
            }
            "bert" => {
                let layer = checked_sum(&[
                    linear(h, h)?.checked_mul(4)?, // q, k, v, o
                    linear(h, self.ff_dim)?,
                    linear(self.ff_dim, h)?,
                    h.checked_mul(4)?, // two LayerNorms
                ])?;
                checked_sum(&[
                    vocab.checked_mul(h)?,        // token embedding
                    self.max_len.checked_mul(h)?, // position embedding
                    h.checked_mul(2)?,            // embedding LayerNorm
                    layer.checked_mul(self.layers)?,
                    linear(h, h)?, // pooler
                    linear(h, self.classes)?,
                    vocab, // MLM bias
                ])
            }
            _ => Some(0),
        }
    }

    /// Rebuilds the vocabulary (specials first, then the content tokens
    /// in their original id order), moving the token strings into it.
    pub fn into_vocabulary(self) -> Vocabulary {
        Vocabulary::from_tokens(self.vocab_tokens)
    }

    /// Writes `manifest.json` into a model directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let json = serde_json::to_string(self).map_err(|e| invalid(e.to_string()))?;
        std::fs::write(dir.join(MANIFEST_FILE), json)
    }

    /// Reads and validates `manifest.json` from a model directory.
    ///
    /// # Errors
    ///
    /// `NotFound` when the file is missing, `InvalidData` on a bad format
    /// tag, an unknown kind, a `quantized` field other than `false`, or
    /// internal inconsistency.
    pub fn load(dir: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let doc = serde::parse_value(&text).map_err(|e| invalid(e.to_string()))?;
        // Manifests written while the int8 engine existed carry this
        // field, almost all as `false`. A `true` asked for int8 serving,
        // which is gone: refuse it rather than serve f32 in its place.
        if serde::field(&doc, "quantized").is_ok_and(|q| *q != serde::Value::Bool(false)) {
            return Err(invalid(
                "manifest field \"quantized\" must be false or absent: int8 serving was removed",
            ));
        }
        let m = Self::deserialize_value(&doc).map_err(|e| invalid(e.to_string()))?;
        if m.format != MANIFEST_FORMAT {
            return Err(invalid(format!(
                "unsupported manifest format {:?}",
                m.format
            )));
        }
        match m.kind.as_str() {
            "lstm" | "bert" | "linear" => {}
            other => return Err(invalid(format!("unknown model kind {other:?}"))),
        }
        if m.tfidf_terms.len() != m.tfidf_idf.len() {
            return Err(invalid("tfidf term/idf length mismatch"));
        }
        if m.tfidf_idf.iter().any(|v| !v.is_finite()) {
            return Err(invalid("non-finite idf weight in manifest"));
        }
        Ok(m)
    }

    fn expect_kind(&self, kind: &str) -> io::Result<()> {
        if self.kind != kind {
            return Err(invalid(format!(
                "manifest describes a {:?} model, not {kind:?}",
                self.kind
            )));
        }
        Ok(())
    }
}

fn content_tokens(vocab: &Vocabulary) -> Vec<String> {
    vocab
        .content_ids()
        .map(|id| vocab.token(id).to_string())
        .collect()
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// `NotFound` for a sequence-model directory without a checkpoint.
pub(crate) fn no_checkpoint(dir: &Path) -> io::Error {
    let what = format!(
        "no checkpoint (latest.ckpt/previous.ckpt) in {}",
        dir.display()
    );
    io::Error::new(io::ErrorKind::NotFound, what)
}

/// The sum of `terms`, or `None` on overflow.
fn checked_sum(terms: &[usize]) -> Option<usize> {
    terms.iter().try_fold(0usize, |sum, &t| sum.checked_add(t))
}

/// `InvalidData` naming the broken shape rule unless `holds`.
fn require(holds: bool, rule: &str) -> io::Result<()> {
    if holds {
        Ok(())
    } else {
        Err(invalid(format!("manifest rejected: {rule}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textproc::TfIdfConfig;

    fn vocab() -> Vocabulary {
        Vocabulary::from_tokens(["stir", "onion", "bake"].map(String::from))
    }

    fn lstm_config() -> LstmConfig {
        LstmConfig {
            vocab: 8,
            emb_dim: 4,
            hidden: 6,
            layers: 2,
            dropout: 0.3,
            classes: 3,
            pooling: LstmPooling::MeanPool,
        }
    }

    #[test]
    fn lstm_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("serve_manifest_lstm");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = ModelManifest::lstm(&lstm_config(), &vocab());
        m.save(&dir).unwrap();
        let loaded = ModelManifest::load(&dir).unwrap();
        assert_eq!(loaded, m);

        let config = loaded.lstm_config().unwrap();
        assert_eq!(config.vocab, 8);
        assert_eq!(config.pooling, LstmPooling::MeanPool);
        assert_eq!(config.dropout, 0.0, "inference config never drops out");
        let v = loaded.into_vocabulary();
        assert_eq!(v.len(), 8);
        assert_eq!(v.id("onion"), vocab().id("onion"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bert_config_roundtrips() {
        let config = BertConfig {
            vocab: 8,
            d_model: 16,
            heads: 2,
            layers: 3,
            d_ff: 32,
            max_len: 24,
            dropout: 0.1,
            classes: 5,
        };
        let m = ModelManifest::bert(&config, &vocab());
        let back = m.bert_config().unwrap();
        assert_eq!(back.d_model, 16);
        assert_eq!(back.heads, 2);
        assert_eq!(back.d_ff, 32);
        assert_eq!(back.max_len, 24);
        assert_eq!(back.vocab, 8);
        assert!(m.lstm_config().is_err(), "kind mismatch must be rejected");
    }

    #[test]
    fn linear_captures_vectorizer_state() {
        let mut tv = TfIdfVectorizer::new(TfIdfConfig {
            min_df: 1,
            sublinear_tf: true,
            l2_normalize: true,
        });
        tv.fit(&[vec!["stir", "onion"], vec!["stir"]]);
        let m = ModelManifest::linear(4, &tv);
        assert_eq!(m.tfidf_terms.len(), 2);
        assert_eq!(m.tfidf_idf.len(), 2);
        assert!(m.sublinear_tf);
        let stir = tv.column("stir").unwrap();
        assert_eq!(m.tfidf_terms[stir as usize], "stir");
        assert_eq!(m.tfidf_idf[stir as usize].to_bits(), tv.idf(stir).to_bits());
    }

    #[test]
    fn missing_quantized_field_reads_as_false() {
        // manifests written while int8 serving existed carry
        // `"quantized":false`, newer ones no such field: both must load
        // as the same f32 manifest
        let dir = std::env::temp_dir().join("serve_manifest_quantized_field");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = ModelManifest::lstm(&lstm_config(), &vocab());
        let json = serde_json::to_string(&m).unwrap();
        assert!(
            !json.contains("quantized"),
            "serialized form changed: {json}"
        );
        let old = format!("{},\"quantized\":false}}", json.strip_suffix('}').unwrap());
        for text in [json, old] {
            std::fs::write(dir.join(MANIFEST_FILE), &text).unwrap();
            assert_eq!(ModelManifest::load(&dir).unwrap(), m, "{text}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Total elements of every parameter tensor `model` holds.
    fn elements<M: nn::SequenceModel>(model: &M) -> usize {
        model.store().iter().map(|(_, _, t)| t.len()).sum()
    }

    #[test]
    fn param_count_matches_the_skeleton_it_bounds() {
        for layers in [1, 3] {
            let mut config = lstm_config();
            config.layers = layers;
            let m = ModelManifest::lstm(&config, &vocab());
            let model = nn::LstmClassifier::zeroed(config);
            assert_eq!(m.param_count(), Some(elements(&model)), "{layers} layers");
        }
        let config = BertConfig {
            vocab: 8,
            d_model: 6,
            heads: 3,
            layers: 2,
            d_ff: 5,
            max_len: 7,
            dropout: 0.0,
            classes: 4,
        };
        let mut m = ModelManifest::bert(&config, &vocab());
        let model = nn::BertClassifier::zeroed(config);
        assert_eq!(m.param_count(), Some(elements(&model)));
        m.layers = usize::MAX;
        assert_eq!(m.param_count(), None, "overflow is reported, not wrapped");
    }

    #[test]
    fn vocab_size_mismatch_panics_at_build_time() {
        let mut bad = lstm_config();
        bad.vocab = 99;
        let result = std::panic::catch_unwind(|| ModelManifest::lstm(&bad, &vocab()));
        assert!(result.is_err());
    }

    #[test]
    fn bad_files_are_rejected() {
        let dir = std::env::temp_dir().join("serve_manifest_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            ModelManifest::load(&dir).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );

        let mut m = ModelManifest::lstm(&lstm_config(), &vocab());
        m.format = "something-else".into();
        let json = serde_json::to_string(&m).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), json).unwrap();
        assert!(ModelManifest::load(&dir).is_err());

        let mut m = ModelManifest::lstm(&lstm_config(), &vocab());
        m.kind = "perceptron".into();
        std::fs::write(dir.join(MANIFEST_FILE), serde_json::to_string(&m).unwrap()).unwrap();
        assert!(ModelManifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
