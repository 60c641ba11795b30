//! The model registry: load checkpoints into servable models, hot-swap
//! them under live traffic.
//!
//! Entries live in one `RwLock<HashMap<Arc<str>, Arc<LoadedModel>>>`.
//! The lock is held only for a hash lookup plus an `Arc` clone
//! ([`get`](ModelRegistry::get)) or for a version assignment plus an
//! insert (every write). Building an engine, reading its checkpoint and
//! the warmup pass all run before the write lock is taken, so a slow or
//! hung load never blocks a lookup or another publish. A worker resolves
//! its model once per *batch*, so one uncontended read lock (~50 ns) is
//! noise next to the forward pass.
//!
//! Versions come from one registry-wide counter that is bumped under the
//! write lock, so they strictly increase per name: a reader that has
//! seen version `v` under a name never sees an older one there again.
//! Lookups clone the entry's `Arc`, so a reload never blocks in-flight
//! prediction: requests already holding the old `Arc` finish on the old
//! weights, and the next batch picks up the new version. The version
//! counter is what downstream caches key invalidation on.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use nn::{BertClassifier, CheckpointManager, LstmClassifier, SequenceModel};

use crate::manifest::{no_checkpoint, ModelManifest, LINEAR_FILE};
use crate::model::{BertServing, Features, LinearServing, LstmServing, ServingModel};

static LOADS: trace::Counter = trace::Counter::new("serve.registry.loads");
static WARMUPS: trace::Counter = trace::Counter::new("serve.registry.warmups");

/// A model the registry has materialized from disk, ready to serve.
pub struct LoadedModel {
    /// Shared with the map's key: one allocation serves both.
    name: Arc<str>,
    version: u64,
    model: Box<dyn ServingModel>,
}

impl LoadedModel {
    /// The name it was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Version counter, bumped on every [`load`](ModelRegistry::load) and
    /// [`publish`](ModelRegistry::publish); strictly increasing per name.
    /// Feature caches must treat a version change as full invalidation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The model's kind (`"lstm"`, `"bert"`, `"linear"`), which for a
    /// model loaded from disk is its manifest's kind.
    pub fn kind(&self) -> &str {
        self.model.kind()
    }

    /// The servable model itself.
    pub fn model(&self) -> &dyn ServingModel {
        self.model.as_ref()
    }
}

impl std::fmt::Debug for LoadedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("kind", &self.kind())
            .finish_non_exhaustive()
    }
}

type Models = HashMap<Arc<str>, Arc<LoadedModel>>;

/// Named, hot-swappable collection of servable models behind one lock
/// (see the module docs).
pub struct ModelRegistry {
    models: RwLock<Models>,
    next_version: AtomicU64,
    warmup: AtomicBool,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names().len())
            .finish_non_exhaustive()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self {
            models: RwLock::new(HashMap::new()),
            next_version: AtomicU64::new(0),
            warmup: AtomicBool::new(true),
        }
    }
}

impl ModelRegistry {
    /// Creates an empty registry (warmup enabled).
    pub fn new() -> Self {
        Self::default()
    }

    // a panic while a guard is held cannot leave the map half-written
    // (every write is a single insert), so poison is recovered, not fatal
    fn read(&self) -> RwLockReadGuard<'_, Models> {
        self.models.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Models> {
        self.models.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enables or disables the load-time warmup pass (on by default).
    ///
    /// With warmup on, [`load`](Self::load) drives one dummy batch through
    /// the freshly built model *before* publishing it, so the first
    /// post-swap request doesn't pay lazy page-in of the weights, and a
    /// model that can't produce a finite probability row is rejected
    /// instead of published. A sequence-model checkpoint holding any
    /// non-finite parameter is rejected before its engine is built: the
    /// one-token warmup batch reads only a sliver of the weights (one
    /// embedding row, no recurrent product), so it cannot find one.
    pub fn set_warmup(&self, enabled: bool) {
        self.warmup.store(enabled, Ordering::Relaxed);
    }

    /// Loads (or reloads) the model in `dir` under `name`.
    ///
    /// The directory must hold a `manifest.json` plus the weights it
    /// points at: a `CheckpointManager`-layout checkpoint pair for
    /// sequence models, or a `linear.bin` snapshot (`cuisine-linear-v2`)
    /// for linear models.
    /// Reloading an existing name atomically swaps the entry — callers
    /// that already resolved the old `Arc` keep it until they next look
    /// the name up.
    ///
    /// # Errors
    ///
    /// Any manifest or weight-file error (missing files, checksum or
    /// architecture mismatch, a sequence-model manifest whose shape holds
    /// more parameters than its checkpoint has bytes, a linear snapshot
    /// whose class count or width disagrees with the manifest, and with
    /// warmup on a non-finite sequence-model parameter or a failed warmup
    /// batch) is returned and the previously loaded version, if any,
    /// stays in place.
    pub fn load(&self, name: &str, dir: &Path) -> io::Result<Arc<LoadedModel>> {
        let _span = trace::span("serve.registry.load");
        let manifest = {
            let _span = trace::span("serve.registry.manifest");
            ModelManifest::load(dir)?
        };
        let gate = self.warmup.load(Ordering::Relaxed);
        let model: Box<dyn ServingModel> = match manifest.kind.as_str() {
            "lstm" => {
                let config = manifest.lstm_config()?;
                manifest.check_checkpoint_budget(dir)?;
                let mut model = LstmClassifier::zeroed(config);
                restore(dir, &mut model, gate)?;
                let _span = trace::span("serve.registry.build");
                Box::new(LstmServing::new(model, manifest.into_vocabulary()))
            }
            "bert" => {
                let config = manifest.bert_config()?;
                manifest.check_checkpoint_budget(dir)?;
                let mut model = BertClassifier::zeroed(config);
                restore(dir, &mut model, gate)?;
                let _span = trace::span("serve.registry.build");
                Box::new(BertServing::new(model, manifest.into_vocabulary()))
            }
            "linear" => {
                let model = load_linear(dir, &manifest)?;
                let _span = trace::span("serve.registry.build");
                Box::new(LinearServing::new(
                    model,
                    manifest.tfidf_terms,
                    manifest.tfidf_idf,
                    manifest.sublinear_tf,
                    manifest.l2_normalize,
                ))
            }
            other => unreachable!("manifest validation admitted kind {other:?}"),
        };
        self.publish(name, model)
    }

    /// Registers an in-process model under `name`, running the same
    /// warmup gate and version bump as [`load`](Self::load) but without a
    /// disk round-trip. This is how freshly trained models (or decorated
    /// engines in benches/tests) enter the serving tier.
    ///
    /// This is the one place entries enter the registry. The warmup pass
    /// runs before the lock, so a slow (or hung) model build stalls no
    /// lookup and no other writer; the write lock is held only to assign
    /// the version and insert the entry, which is what makes versions
    /// strictly increase per name.
    ///
    /// # Errors
    ///
    /// The warmup failure cases of [`load`](Self::load); the previously
    /// published version, if any, stays in place.
    pub fn publish(
        &self,
        name: &str,
        model: Box<dyn ServingModel>,
    ) -> io::Result<Arc<LoadedModel>> {
        if self.warmup.load(Ordering::Relaxed) {
            warmup(model.as_ref())?;
        }
        // key and LoadedModel.name share one allocation
        let key: Arc<str> = Arc::from(name);
        let mut models = self.write();
        let loaded = Arc::new(LoadedModel {
            name: Arc::clone(&key),
            version: self.next_version.fetch_add(1, Ordering::Relaxed) + 1,
            model,
        });
        models.insert(key, Arc::clone(&loaded));
        drop(models);
        LOADS.incr();
        Ok(loaded)
    }

    /// Resolves a name to its current version, if loaded. The read lock
    /// is held for the lookup and the `Arc` clone only.
    pub fn get(&self, name: &str) -> Option<Arc<LoadedModel>> {
        self.read().get(name).cloned()
    }

    /// The names currently loaded, sorted.
    pub fn names(&self) -> Vec<String> {
        let keys: Vec<Arc<str>> = self.read().keys().cloned().collect();
        let mut names: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        names.sort();
        names
    }
}

/// Drives one dummy request through a freshly built model before it is
/// published: touches every weight page (so the first real post-swap batch
/// doesn't pay lazy page-in) and validates that the model can produce a
/// finite probability row at all. A panic or a non-finite/ill-normalized
/// output fails the load, keeping the previous version in place.
fn warmup(model: &dyn ServingModel) -> io::Result<()> {
    let _span = trace::span("serve.registry.warmup");
    let features = if model.kind() == "linear" {
        Features::Sparse(Vec::new())
    } else {
        // id 0 is a special token, present in every sequence vocabulary
        Features::Ids(vec![0])
    };
    let rows =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.predict(&[&features])))
            .map_err(|_| invalid_warmup(model, "panicked on the warmup batch"))?;
    let [row] = rows.as_slice() else {
        return Err(invalid_warmup(
            model,
            &format!("returned {} rows for a 1-request batch", rows.len()),
        ));
    };
    if row.len() != model.num_classes() {
        return Err(invalid_warmup(
            model,
            &format!(
                "returned {} probabilities for {} classes",
                row.len(),
                model.num_classes()
            ),
        ));
    }
    if row.iter().any(|p| !p.is_finite()) || (row.iter().sum::<f64>() - 1.0).abs() > 1e-3 {
        return Err(invalid_warmup(
            model,
            "produced a non-finite or unnormalized probability row",
        ));
    }
    WARMUPS.incr();
    Ok(())
}

fn invalid_warmup(model: &dyn ServingModel, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("warmup: {} model {what}", model.kind()),
    )
}

/// Reads `dir`'s linear snapshot and checks its shape against the
/// manifest, so a snapshot of another vocabulary fails the load here
/// rather than indexing past its weight rows in the first batch.
fn load_linear(dir: &Path, manifest: &ModelManifest) -> io::Result<ml::LinearModel> {
    let model = ml::load_linear(&dir.join(LINEAR_FILE)).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no linear snapshot ({LINEAR_FILE}) in {}", dir.display()),
            )
        } else {
            e
        }
    })?;
    let columns = manifest.tfidf_terms.len();
    if model.classes() != manifest.classes || model.width() != columns {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "linear snapshot is {} classes × {} columns, manifest says {} × {columns}",
                model.classes(),
                model.width(),
                manifest.classes
            ),
        ));
    }
    Ok(model)
}

/// Restores `dir`'s newest readable checkpoint into `model`. With `gate`
/// set (warmup on), a checkpoint holding a non-finite parameter fails
/// here, naming the parameter.
fn restore<M: SequenceModel>(dir: &Path, model: &mut M, gate: bool) -> io::Result<()> {
    CheckpointManager::new(dir)?
        .load_latest(model.store_mut())?
        .ok_or_else(|| no_checkpoint(dir))?;
    if gate {
        let _span = trace::span("serve.registry.gate");
        if let Some((_, name, _)) = model.store().iter().find(|(_, _, t)| t.has_non_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("warmup: checkpoint parameter {name:?} holds a non-finite value"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use nn::{predict_proba_graph, save_checkpoint, LstmConfig, LstmPooling};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use textproc::{TfIdfConfig, TfIdfVectorizer, Vocabulary};

    fn vocab() -> Vocabulary {
        Vocabulary::from_tokens(["stir", "onion", "bake"].map(String::from))
    }

    fn config() -> LstmConfig {
        LstmConfig {
            vocab: 8,
            emb_dim: 4,
            hidden: 5,
            layers: 1,
            dropout: 0.0,
            classes: 3,
            pooling: LstmPooling::LastHidden,
        }
    }

    fn write_lstm_dir(dir: &Path, seed: u64) -> LstmClassifier {
        std::fs::create_dir_all(dir).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = LstmClassifier::new(config(), &mut rng);
        ModelManifest::lstm(&config(), &vocab()).save(dir).unwrap();
        save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();
        model
    }

    fn bert_config() -> nn::BertConfig {
        nn::BertConfig {
            vocab: 8,
            d_model: 8,
            heads: 2,
            layers: 1,
            d_ff: 16,
            max_len: 12,
            dropout: 0.0,
            classes: 3,
        }
    }

    fn write_bert_dir(dir: &Path, seed: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let model = BertClassifier::new(bert_config(), &mut StdRng::seed_from_u64(seed));
        ModelManifest::bert(&bert_config(), &vocab())
            .save(dir)
            .unwrap();
        save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();
    }

    #[test]
    fn load_get_and_hot_swap_bump_versions() {
        let dir = std::env::temp_dir().join("serve_registry_swap");
        let _ = std::fs::remove_dir_all(&dir);
        let reference = write_lstm_dir(&dir, 7);

        let registry = ModelRegistry::new();
        assert!(registry.get("lstm").is_none());
        let v1 = registry.load("lstm", &dir).unwrap();
        assert_eq!(v1.kind(), "lstm");
        assert_eq!(v1.name(), "lstm");
        let seqs: Vec<&[usize]> = vec![&[5, 6], &[7]];
        let expected = predict_proba_graph(&reference, &seqs);
        let features = [
            crate::Features::Ids(vec![5, 6]),
            crate::Features::Ids(vec![7]),
        ];
        let refs: Vec<&crate::Features> = features.iter().collect();
        assert_eq!(v1.model().predict(&refs), expected);

        // hot swap: new weights, version bumps, old Arc still usable
        let swapped = write_lstm_dir(&dir, 8);
        let v2 = registry.load("lstm", &dir).unwrap();
        assert!(v2.version() > v1.version());
        assert_eq!(
            v1.model().predict(&refs),
            expected,
            "old Arc keeps old weights"
        );
        assert_eq!(
            v2.model().predict(&refs),
            predict_proba_graph(&swapped, &seqs)
        );
        assert_eq!(registry.get("lstm").unwrap().version(), v2.version());
        assert_eq!(registry.names(), vec!["lstm".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quantized_false_serves_f32_bits_and_any_other_value_is_refused() {
        let dir = std::env::temp_dir().join("serve_registry_quantized_field");
        let _ = std::fs::remove_dir_all(&dir);
        let reference = write_lstm_dir(&dir, 11);
        let path = dir.join(crate::MANIFEST_FILE);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(!json.contains("quantized"));
        let with = |field: &str| format!("{},{field}}}", json.strip_suffix('}').unwrap());
        let registry = ModelRegistry::new();
        let features = crate::Features::Ids(vec![5, 6, 7]);
        let expected = predict_proba_graph(&reference, &[&[5, 6, 7]]);
        // every manifest written while int8 serving existed says `false`
        for text in [json.clone(), with("\"quantized\":false")] {
            std::fs::write(&path, text).unwrap();
            let loaded = registry.load("lstm", &dir).unwrap();
            assert_eq!(loaded.model().predict(&[&features]), expected);
        }
        // an int8 deploy must not silently serve f32
        for value in ["true", "1", "\"false\"", "null"] {
            std::fs::write(&path, with(&format!("\"quantized\":{value}"))).unwrap();
            let err = registry.load("lstm", &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{value}: {err}");
            assert!(err.to_string().contains("\"quantized\""), "{value}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_publishes_only_after_warmup() {
        let dir = std::env::temp_dir().join("serve_registry_warmup");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // a checkpoint whose weights can only produce NaN probabilities:
        // warmup must reject it before the version is published
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = LstmClassifier::new(config(), &mut rng);
        for id in model.store().ids().collect::<Vec<_>>() {
            model.store_mut().get_mut(id).as_mut_slice()[0] = f32::NAN;
        }
        ModelManifest::lstm(&config(), &vocab()).save(&dir).unwrap();
        save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();

        let registry = ModelRegistry::new();
        let err = registry.load("lstm", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("warmup"), "{err}");
        assert!(
            registry.get("lstm").is_none(),
            "failed warmup must not publish a version"
        );

        // warmup disabled: the same broken directory publishes (the gate
        // really is the warmup pass, not the checkpoint layer)
        registry.set_warmup(false);
        let v1 = registry.load("lstm", &dir).unwrap();
        assert_eq!(registry.get("lstm").unwrap().version(), v1.version());

        // healthy checkpoint with warmup back on: load succeeds and bumps
        registry.set_warmup(true);
        write_lstm_dir(&dir, 13);
        let v2 = registry.load("lstm", &dir).unwrap();
        assert!(v2.version() > v1.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_weights_the_warmup_batch_never_reads_fail_the_load() {
        let dir = std::env::temp_dir().join("serve_registry_unread_nan");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = LstmConfig {
            vocab: 20,
            layers: 2,
            ..config()
        };
        let vocab = Vocabulary::from_tokens((0..15).map(|i| format!("t{i}")));
        ModelManifest::lstm(&config, &vocab).save(&dir).unwrap();
        let healthy = LstmClassifier::new(config, &mut StdRng::seed_from_u64(16));
        let registry = ModelRegistry::new();
        // the warmup batch is token 0 alone: step 0 skips every recurrent
        // product and reads only row 0 of the embedding, so a NaN in a
        // recurrent (`W_h`) row, such as an LSTM weight's last row, or in
        // another token's embedding row used to pass it
        for param in ["lstm0.weight", "lstm1.weight", "embedding.table"] {
            let mut model = healthy.clone();
            let store = model.store_mut();
            let id = store.ids().find(|&id| store.name(id) == param).unwrap();
            let t = store.get_mut(id);
            let at = if param == "embedding.table" {
                17 * t.cols()
            } else {
                t.len() - 1
            };
            t.as_mut_slice()[at] = f32::NAN;
            save_checkpoint(model.store(), &dir.join("latest.ckpt")).unwrap();
            let err = registry.load("lstm", &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{param}: {err}");
            let text = err.to_string();
            assert!(text.contains("warmup") && text.contains(param), "{text}");
            assert!(registry.get("lstm").is_none(), "{param} published");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_runs_the_warmup_gate() {
        let dir = std::env::temp_dir().join("serve_registry_publish");
        let _ = std::fs::remove_dir_all(&dir);
        let reference = write_lstm_dir(&dir, 21);
        let registry = ModelRegistry::new();

        // publish: no disk round-trip, same version bump + warmup gate
        let published = registry
            .publish(
                "inproc",
                Box::new(crate::LstmServing::new(reference.clone(), vocab())),
            )
            .unwrap();
        assert_eq!(
            registry.get("inproc").unwrap().version(),
            published.version()
        );
        assert_eq!(published.kind(), "lstm");
        let features = crate::Features::Ids(vec![5, 6]);
        assert_eq!(
            published.model().predict(&[&features]),
            predict_proba_graph(&reference, &[&[5, 6]])
        );

        // a NaN model is stopped by the same gate
        let mut broken = LstmClassifier::new(config(), &mut StdRng::seed_from_u64(22));
        for id in broken.store().ids().collect::<Vec<_>>() {
            broken.store_mut().get_mut(id).as_mut_slice()[0] = f32::NAN;
        }
        let err = registry
            .publish("broken", Box::new(crate::LstmServing::new(broken, vocab())))
            .unwrap_err();
        assert!(err.to_string().contains("warmup"), "{err}");
        assert!(registry.get("broken").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_reload_keeps_previous_version() {
        let dir = std::env::temp_dir().join("serve_registry_failed_reload");
        let _ = std::fs::remove_dir_all(&dir);
        write_lstm_dir(&dir, 9);
        let registry = ModelRegistry::new();
        let v1 = registry.load("lstm", &dir).unwrap();

        // corrupt the checkpoint pair → reload must fail…
        std::fs::write(dir.join("latest.ckpt"), b"garbage").unwrap();
        assert!(registry.load("lstm", &dir).is_err());
        // …and the registry still serves the old version
        assert_eq!(registry.get("lstm").unwrap().version(), v1.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a servable linear directory: a manifest over a 3-column
    /// TF-IDF vectorizer and `model`'s snapshot.
    fn write_linear_dir(dir: &Path, model: &ml::LinearModel) {
        std::fs::create_dir_all(dir).unwrap();
        let mut tv = TfIdfVectorizer::new(TfIdfConfig::default());
        tv.fit(&[vec!["stir", "onion"], vec!["bake", "stir"]]);
        assert_eq!(tv.vocab_size(), 3);
        ModelManifest::linear(3, &tv).save(dir).unwrap();
        ml::save_linear(model, &dir.join(LINEAR_FILE)).unwrap();
    }

    /// A 3-class linear model over `width` columns.
    fn linear_model(width: usize) -> ml::LinearModel {
        ml::LinearModel {
            weights: (0..3)
                .map(|c| (0..width).map(|j| (c * width + j) as f32 * 0.25).collect())
                .collect(),
            bias: vec![0.5, -0.5, 0.0],
        }
    }

    #[test]
    fn corrupt_linear_snapshot_fails_and_keeps_previous_version() {
        let dir = std::env::temp_dir().join("serve_registry_linear_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        write_linear_dir(&dir, &linear_model(3));
        let registry = ModelRegistry::new();
        let v1 = registry.load("linear", &dir).unwrap();
        assert_eq!(v1.kind(), "linear");

        // one flipped weight bit: the snapshot's CRC no longer matches
        let path = dir.join(LINEAR_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = registry.load("linear", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(registry.get("linear").unwrap().version(), v1.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn linear_snapshot_of_another_width_fails_before_warmup() {
        let dir = std::env::temp_dir().join("serve_registry_linear_width");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::new();
        // narrower and wider than the manifest's 3 TF-IDF terms
        for width in [2, 5] {
            write_linear_dir(&dir, &linear_model(width));
            let err = registry.load("linear", &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let text = err.to_string();
            assert!(text.contains(&format!("× {width} columns")), "{text}");
            assert!(!text.contains("warmup"), "{text}");
        }
        assert!(registry.get("linear").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_linear_json_is_not_found_naming_linear_bin() {
        let dir = std::env::temp_dir().join("serve_registry_linear_legacy");
        let _ = std::fs::remove_dir_all(&dir);
        write_linear_dir(&dir, &linear_model(3));
        std::fs::remove_file(dir.join(LINEAR_FILE)).unwrap();
        std::fs::write(
            dir.join("linear.json"),
            r#"{"format":"cuisine-linear-v1","weights":[[0.0,0.0,0.0]],"bias":[0.0]}"#,
        )
        .unwrap();
        let err = ModelRegistry::new().load("linear", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert!(err.to_string().contains("linear.bin"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let dir = std::env::temp_dir().join("serve_registry_missing_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ModelManifest::lstm(&config(), &vocab()).save(&dir).unwrap();
        let registry = ModelRegistry::new();
        let err = registry.load("lstm", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn architecture_drift_is_rejected() {
        let dir = std::env::temp_dir().join("serve_registry_drift");
        let _ = std::fs::remove_dir_all(&dir);
        write_lstm_dir(&dir, 10);
        // manifest now claims a wider hidden layer than the checkpoint has
        let mut wide = config();
        wide.hidden = 16;
        ModelManifest::lstm(&wide, &vocab()).save(&dir).unwrap();
        let registry = ModelRegistry::new();
        let err = registry.load("lstm", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deeply_nested_manifest_is_invalid_data_not_an_abort() {
        let dir = std::env::temp_dir().join("serve_registry_deep_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        write_lstm_dir(&dir, 15);
        // a million `[` used to overflow the JSON parser's stack, which
        // aborts the whole process: a crafted deploy killed its worker
        std::fs::write(dir.join(crate::MANIFEST_FILE), "[".repeat(1_000_000)).unwrap();
        let registry = ModelRegistry::new();
        let err = registry.load("lstm", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_manifest_shapes_are_invalid_data_not_panics() {
        let dir = std::env::temp_dir().join("serve_registry_bad_shapes");
        let _ = std::fs::remove_dir_all(&dir);
        write_lstm_dir(&dir, 14);
        let registry = ModelRegistry::new();
        // The shapes of 10^5 and more used to reach the zeroed skeleton,
        // whose failed allocation aborted the process (supervisor
        // included); the checkpoint's size now bounds them.
        type Break = fn(&mut ModelManifest);
        let lstm: [(&str, Break); 8] = [
            ("layers", |m| m.layers = 0),
            ("classes", |m| m.classes = 1),
            ("emb_dim", |m| m.emb_dim = 0),
            ("hidden", |m| m.hidden = 0),
            ("emb_dim", |m| m.emb_dim = 10_000_000_000),
            ("hidden", |m| m.hidden = 100_000),
            ("layers", |m| m.layers = 100_000_000_000),
            ("classes", |m| m.classes = 100_000_000_000),
        ];
        let bert: [(&str, Break); 9] = [
            ("classes", |m| m.classes = 1),
            ("max_len", |m| m.max_len = 2),
            ("layers", |m| m.layers = 0),
            ("heads", |m| m.heads = 0),
            ("multiple of heads", |m| m.hidden = 7),
            ("hidden must be at least 1", |m| m.hidden = 0),
            ("ff_dim", |m| m.ff_dim = 100_000_000_000),
            ("max_len", |m| m.max_len = 100_000_000_000),
            ("classes", |m| m.classes = 100_000_000_000),
        ];
        let cases = lstm
            .iter()
            .map(|case| (ModelManifest::lstm(&config(), &vocab()), case))
            .chain(
                bert.iter()
                    .map(|case| (ModelManifest::bert(&bert_config(), &vocab()), case)),
            );
        for (mut manifest, (field, break_it)) in cases {
            break_it(&mut manifest);
            manifest.save(&dir).unwrap();
            let err = registry.load("m", &dir).unwrap_err();
            let kind = manifest.kind.clone();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{kind} {field}: {err}"
            );
            assert!(err.to_string().contains(field), "{kind} {field}: {err}");
        }
        assert!(registry.get("m").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One random edit of a manifest file. Half set a numeric field, which
    /// reaches the shape checks, the parameter budget and the checkpoint's
    /// shape check; a cut or a byte overwrite mostly stops at the parser.
    fn mutate_manifest(mut text: Vec<u8>, rng: &mut StdRng) -> Vec<u8> {
        const NUMERIC: [&str; 7] = [
            "classes", "emb_dim", "hidden", "layers", "heads", "ff_dim", "max_len",
        ];
        const STRINGS: [(&str, &[&str]); 3] = [
            ("kind", &["lstm", "bert", "linear", "gru", ""]),
            ("pooling", &["last", "mean", "max"]),
            ("format", &["cuisine-serve-manifest-v0", ""]),
        ];
        let (field, value) = match rng.gen_range(0..6) {
            0..=2 => {
                let value = [0, 1, 1 << 31, 1 << 53, u64::MAX][rng.gen_range(0..5)];
                let random = rng.gen::<u64>() >> rng.gen_range(0..64);
                let value = if rng.gen_bool(0.2) { random } else { value };
                (NUMERIC[rng.gen_range(0..7)], value.to_string())
            }
            3 => {
                let (field, values) = STRINGS[rng.gen_range(0..3)];
                (
                    field,
                    format!("{:?}", values[rng.gen_range(0..values.len())]),
                )
            }
            4 => {
                text.truncate(rng.gen_range(0..=text.len()));
                return text;
            }
            _ => {
                if !text.is_empty() {
                    let at = rng.gen_range(0..text.len());
                    text[at] = rng.gen::<u32>() as u8;
                }
                return text;
            }
        };
        // replace the field's value, which holds no `,` or `}`
        let text = String::from_utf8_lossy(&text).into_owned();
        let key = format!("\"{field}\":");
        let Some(start) = text.find(&key).map(|at| at + key.len()) else {
            return text.into_bytes();
        };
        let end = text[start..]
            .find([',', '}'])
            .map_or(text.len(), |e| start + e);
        format!("{}{value}{}", &text[..start], &text[end..]).into_bytes()
    }

    #[test]
    fn fuzzed_manifests_load_or_fail_with_invalid_data() {
        let base = std::env::temp_dir().join("serve_registry_manifest_fuzz");
        let _ = std::fs::remove_dir_all(&base);
        let dirs = [base.join("lstm"), base.join("bert"), base.join("linear")];
        write_lstm_dir(&dirs[0], 40);
        write_bert_dir(&dirs[1], 41);
        write_linear_dir(&dirs[2], &linear_model(3));
        // every directory holds both weight layouts, so a swapped `kind`
        // meets weights of the wrong shape rather than no file at all
        for dir in &dirs[..2] {
            ml::save_linear(&linear_model(3), &dir.join(LINEAR_FILE)).unwrap();
        }
        std::fs::copy(dirs[0].join("latest.ckpt"), dirs[2].join("latest.ckpt")).unwrap();
        let manifests = dirs
            .clone()
            .map(|d| std::fs::read(d.join(crate::MANIFEST_FILE)).unwrap());

        let registry = ModelRegistry::new();
        let mut rng = StdRng::seed_from_u64(0xF022);
        let mut loaded = 0;
        for case in 0..800 {
            // a quarter of the inputs are uniformly random bytes
            let bytes: Vec<u8> = if case % 4 == 3 {
                (0..rng.gen_range(0..256))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect()
            } else {
                (0..rng.gen_range(1..=3)).fold(manifests[case % 3].clone(), |text, _| {
                    mutate_manifest(text, &mut rng)
                })
            };
            std::fs::write(dirs[case % 3].join(crate::MANIFEST_FILE), &bytes).unwrap();
            match registry.load("fuzz", &dirs[case % 3]) {
                Ok(_) => loaded += 1,
                Err(e) => {
                    let text = String::from_utf8_lossy(&bytes);
                    assert_eq!(
                        e.kind(),
                        io::ErrorKind::InvalidData,
                        "case {case}: {e}\n{text}"
                    );
                }
            }
        }
        assert!(loaded > 0, "no edit left a loadable manifest");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn lookups_of_other_names_proceed_during_a_swap() {
        // a writer reloading one name in a loop must not make readers of
        // another name fail, and versions must only move forward
        let registry = Arc::new(ModelRegistry::new());
        registry.set_warmup(false);
        let dir = std::env::temp_dir().join("serve_registry_swap_storm");
        let _ = std::fs::remove_dir_all(&dir);
        write_lstm_dir(&dir, 30);
        registry.load("a", &dir).unwrap();
        registry.load("b", &dir).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let dir = dir.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    registry.load("a", &dir).unwrap();
                }
            })
        };
        let mut last = 0;
        for _ in 0..10_000 {
            let b = registry.get("b").expect("b never swapped");
            assert_eq!(b.name(), "b");
            let a = registry.get("a").expect("a always servable");
            assert!(a.version() >= last, "version went backwards");
            last = a.version();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Answers an even split; the warmup gate admits it.
    struct Even;

    impl ServingModel for Even {
        fn kind(&self) -> &'static str {
            "even"
        }

        fn num_classes(&self) -> usize {
            2
        }

        fn featurize(&self, tokens: &[String]) -> Features {
            Features::Ids(vec![tokens.len()])
        }

        fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
            batch.iter().map(|_| vec![0.5, 0.5]).collect()
        }
    }

    /// An [`Even`] whose `predict` reports that it was reached, then
    /// parks until the gate opens: a publish of it stays inside its
    /// warmup pass for as long as the test wants.
    struct Parked {
        reached: mpsc::Sender<()>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl ServingModel for Parked {
        fn kind(&self) -> &'static str {
            "parked"
        }

        fn num_classes(&self) -> usize {
            2
        }

        fn featurize(&self, tokens: &[String]) -> Features {
            Features::Ids(vec![tokens.len()])
        }

        fn predict(&self, batch: &[&Features]) -> Vec<Vec<f64>> {
            let _ = self.reached.send(());
            let (open, opened) = &*self.gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
            batch.iter().map(|_| vec![0.5, 0.5]).collect()
        }
    }

    #[test]
    fn a_parked_warmup_never_blocks_lookups_or_other_publishes() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("other", Box::new(Even)).unwrap();
        let before = registry.publish("slow", Box::new(Even)).unwrap();

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (reached_tx, reached_rx) = mpsc::channel();
        let parked = {
            let registry = Arc::clone(&registry);
            let model = Parked {
                reached: reached_tx,
                gate: Arc::clone(&gate),
            };
            std::thread::spawn(move || registry.publish("slow", Box::new(model)))
        };
        reached_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the publish never reached its warmup pass");

        // run the calls on a helper: if any of them waited on the parked
        // warmup, the test fails at the timeout instead of hanging
        let (done_tx, done_rx) = mpsc::channel();
        let helper = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let other = registry.get("other").map(|m| m.name().to_string());
                let names = registry.names();
                let third = registry.publish("third", Box::new(Even)).unwrap();
                let slow = registry.get("slow").map(|m| m.version());
                done_tx.send((other, names, third, slow)).unwrap();
            })
        };
        let outcome = done_rx.recv_timeout(Duration::from_secs(2));
        let (open, opened) = &*gate;
        *open.lock().unwrap() = true;
        opened.notify_all();
        let (other, names, third, slow) =
            outcome.expect("a lookup or publish waited on another name's warmup");
        assert_eq!(other.as_deref(), Some("other"));
        assert_eq!(names, ["other", "slow"]);
        assert_eq!(
            slow,
            Some(before.version()),
            "a parked publish must leave the previous version serving"
        );

        let landed = parked.join().unwrap().unwrap();
        helper.join().unwrap();
        assert!(
            landed.version() > third.version(),
            "the parked publish must land with a version assigned at insert time"
        );
        assert_eq!(registry.get("slow").unwrap().version(), landed.version());
    }
}
