//! Shared fixtures for the serving load generators (`serve_load`,
//! `cq_load`, `registry_load`, `supervisor_load`): the synthetic cuisine
//! workload, model export, the off-CPU stall decorators, and the summary
//! statistics the binaries report.

use std::path::Path;
use std::time::Duration;

use nn::{save_checkpoint, LstmClassifier, LstmConfig, LstmPooling, SequenceModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Features, ModelManifest, ServingModel};
use textproc::Vocabulary;

/// Content vocabulary size (checkpoint vocab is this plus 5 specials).
pub const CONTENT_TOKENS: usize = 5000;
/// Ingredients per synthetic recipe.
pub const RECIPE_LEN: std::ops::Range<usize> = 8..20;
/// Output classes (the paper's cuisine count).
pub const CLASSES: usize = 26;
/// Content tokens reserved per class for the class-structured generator.
pub const CLASS_BLOCK: usize = CONTENT_TOKENS / CLASSES;
/// Probability that an ingredient comes from the recipe's own class block
/// (the rest is uniform noise over the whole vocabulary).
pub const CLASS_TOKEN_P: f64 = 0.85;

/// Synthetic ingredient names built from consonant-vowel syllables: all
/// lowercase-alphabetic and vowel-final, so `cuisine::featurize`
/// canonicalization (clean + lemmatize) maps each onto itself and every
/// generated token lands in the vocabulary.
pub fn content_tokens() -> Vec<String> {
    const C: [char; 10] = ['b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r'];
    const V: [char; 5] = ['a', 'e', 'i', 'o', 'u'];
    let syllable = |i: usize| -> [char; 2] { [C[(i / V.len()) % C.len()], V[i % V.len()]] };
    (0..CONTENT_TOKENS)
        .map(|i| {
            let mut s = String::new();
            s.extend(syllable(i % 50));
            s.extend(syllable((i / 50) % 50));
            s.extend(syllable(i / 2500));
            s
        })
        .collect()
}

/// The serving-scale LSTM both load generators benchmark.
pub fn lstm_config() -> LstmConfig {
    LstmConfig {
        vocab: CONTENT_TOKENS + 5,
        emb_dim: 256,
        hidden: 64,
        layers: 2,
        dropout: 0.0,
        classes: CLASSES,
        pooling: LstmPooling::LastHidden,
    }
}

/// Class-structured recipes: each picks a cuisine and draws most tokens
/// from that cuisine's block of the vocabulary.
pub fn synth_recipes(n: usize, tokens: &[String], seed: u64) -> Vec<(String, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let class = rng.gen_range(0..CLASSES);
            let len = rng.gen_range(RECIPE_LEN);
            let text = (0..len)
                .map(|_| {
                    let t = if rng.gen_bool(CLASS_TOKEN_P) {
                        class * CLASS_BLOCK + rng.gen_range(0..CLASS_BLOCK)
                    } else {
                        rng.gen_range(0..tokens.len())
                    };
                    tokens[t].as_str()
                })
                .collect::<Vec<_>>()
                .join(", ");
            (text, class)
        })
        .collect()
}

/// Canonical entity tokens of `recipe`, mapped into `vocab` ids.
pub fn to_ids(recipe: &str, vocab: &Vocabulary) -> Vec<usize> {
    cuisine::featurize::entity_tokens(recipe)
        .iter()
        .map(|t| vocab.lookup_or_unk(t) as usize)
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted_us: &[u128], p: f64) -> u128 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Writes a servable model directory (manifest + checkpoint) for the
/// [`lstm_config`] model. Every model serves in f32: `quantized` stays
/// only because perfbench's workloads pass it (as `false`).
///
/// # Errors
///
/// `InvalidInput` when `quantized` is set; filesystem errors.
pub fn write_model_dir(
    dir: &Path,
    model: &LstmClassifier,
    vocab: &Vocabulary,
    quantized: bool,
) -> std::io::Result<()> {
    if quantized {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "int8 serving was removed: model directories are f32 only",
        ));
    }
    std::fs::create_dir_all(dir)?;
    ModelManifest::lstm(&lstm_config(), vocab).save(dir)?;
    save_checkpoint(model.store(), &dir.join("latest.ckpt"))
}

/// Decorator that adds a fixed per-request stall to every forward pass,
/// modeling a serving model whose per-request cost is dominated by
/// something other than this process's CPU (an embedding fetch, a
/// feature-store read, a remote tower). Answers are exactly the inner
/// model's answers.
///
/// The stall keeps the batch worker busy without burning the core, so
/// `cq_load`'s single submitter thread can outrun it and pile requests
/// up in flight.
pub struct StalledModel {
    inner: Box<dyn ServingModel>,
    stall: Duration,
}

impl StalledModel {
    /// Wraps `inner`, adding `stall` of sleep per request in each batch.
    pub fn new(inner: Box<dyn ServingModel>, stall: Duration) -> Self {
        Self { inner, stall }
    }
}

impl ServingModel for StalledModel {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn featurize(&self, tokens: &[String]) -> Features {
        self.inner.featurize(tokens)
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        // per request, not per batch: a batch of 8 carries 8 requests'
        // worth of stall, so batching alone cannot hide it
        std::thread::sleep(self.stall * batch.len() as u32);
        self.inner.predict(batch)
    }
}

/// Decorator that adds a fixed stall to every `featurize` call while
/// delegating everything else, modeling a featurizer whose cost is
/// off-CPU (an entity-linker RPC, a tokenizer sidecar, a feature-store
/// read). Features — and therefore predictions — are exactly the inner
/// model's.
///
/// This is the featurization analog of [`StalledModel`]: on a
/// single-core host the batch worker's parallel featurize fan-out
/// (`tensor::pool`) cannot beat the serial loop on pure compute, but
/// off-CPU stalls overlap across pool threads, so the `registry_load`
/// featurization gate runs against this decorator.
pub struct StalledFeaturesModel {
    inner: Box<dyn ServingModel>,
    stall: Duration,
}

impl StalledFeaturesModel {
    /// Wraps `inner`, adding `stall` of sleep per `featurize` call.
    pub fn new(inner: Box<dyn ServingModel>, stall: Duration) -> Self {
        Self { inner, stall }
    }
}

impl ServingModel for StalledFeaturesModel {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn featurize(&self, tokens: &[String]) -> Features {
        std::thread::sleep(self.stall);
        self.inner.featurize(tokens)
    }

    fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
        self.inner.predict(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_model_dir_refuses_int8_and_writes_nothing() {
        let dir = std::env::temp_dir().join("bench_serving_int8_dir");
        let model = LstmClassifier::zeroed(lstm_config());
        let vocab = Vocabulary::from_tokens(content_tokens());
        let err = write_model_dir(&dir, &model, &vocab, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!dir.exists());
    }
}
