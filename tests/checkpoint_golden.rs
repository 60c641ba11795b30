//! Golden-file tests for the checkpoint formats and the linear snapshot.
//!
//! The v2 binary format round-trips the full `TrainState` (history,
//! optimizer moments, divergence-guard state) bit-exactly; the committed
//! `tests/fixtures/checkpoint_v1.json` fixture proves the legacy v1 JSON
//! format stays loadable forever, and the committed
//! `tests/fixtures/checkpoint_v2.ckpt` pins the v2 bytes, CRC included,
//! so a change to the encoder or to `trace::Crc32` that alters one byte
//! fails here. The committed `tests/fixtures/linear_v2.bin` does the same
//! for a `cuisine-linear-v2` snapshot (`linear.bin`), whose own tests
//! write and read with the same code and so pass over a wrong CRC that
//! both share. The fixtures are written by `save_checkpoint_v1`,
//! `save_checkpoint_with_state` and `ml::save_linear` themselves —
//! regenerate them (after deliberate format work only) with:
//!
//! ```text
//! CUISINE_REGEN_FIXTURES=1 cargo test -p cuisine --test checkpoint_golden -- --ignored
//! ```

use std::path::PathBuf;

use autograd::ParamStore;
use ml::LinearModel;
use nn::{
    load_checkpoint, load_checkpoint_with_state, save_checkpoint_v1, save_checkpoint_with_state,
    CheckpointManager, EpochStats, OptimizerSlot, OptimizerState, TrainHistory, TrainState,
};
use tensor::Tensor;

/// All values exactly representable in f32 *and* in decimal JSON, so the
/// v1 text round trip is bit-exact too.
fn golden_values() -> Vec<(&'static str, usize, usize, Vec<f32>)> {
    vec![
        ("emb.weight", 2, 3, vec![0.5, -1.25, 2.0, 0.0, 3.5, -0.75]),
        ("out.weight", 3, 2, vec![1.0, -2.0, 0.25, 4.0, -0.125, 8.0]),
        ("out.bias", 1, 2, vec![1.5, -2.5]),
    ]
}

fn golden_store() -> ParamStore {
    let mut store = ParamStore::new();
    for (name, rows, cols, data) in golden_values() {
        store.add(name, Tensor::from_vec(rows, cols, data));
    }
    store
}

/// Same names/shapes as the golden store, all-zero values — the receiving
/// side of every load below.
fn blank_store() -> ParamStore {
    let mut store = ParamStore::new();
    for (name, rows, cols, _) in golden_values() {
        store.add(name, Tensor::zeros(rows, cols));
    }
    store
}

fn assert_stores_bit_identical(a: &ParamStore, b: &ParamStore) {
    let (ids_a, ids_b): (Vec<_>, Vec<_>) = (a.ids().collect(), b.ids().collect());
    assert_eq!(ids_a.len(), ids_b.len());
    for (&ia, &ib) in ids_a.iter().zip(&ids_b) {
        assert_eq!(a.name(ia), b.name(ib));
        let (ta, tb) = (a.get(ia), b.get(ib));
        assert_eq!(ta.shape(), tb.shape(), "shape of {}", a.name(ia));
        for (x, y) in ta.as_slice().iter().zip(tb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "weights of {}", a.name(ia));
        }
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/checkpoint_v1.json"
    ))
}

/// The golden store and state in v2, as the encoder wrote them before the
/// CRC gained its folding path: a payload of several hundred bytes, so
/// its checksum runs through the fold and the bytewise tail alike.
fn v2_fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/checkpoint_v2.ckpt"
    ))
}

/// A 4-class, 10-column linear model, every value exact in f32, as
/// `ml::save_linear` wrote it: a 184-byte payload, so its CRC runs the
/// fold's 64-byte loop as well as the bytewise tail.
fn linear_fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/linear_v2.bin"
    ))
}

fn golden_linear() -> LinearModel {
    LinearModel {
        weights: (0..4)
            .map(|c| (0..10).map(|j| (c * 10 + j) as f32 * 0.125 - 2.5).collect())
            .collect(),
        bias: vec![0.5, -0.25, 1.0, -0.0],
    }
}

fn golden_state() -> TrainState {
    TrainState {
        epoch: 3,
        step: 42,
        seed: 2020,
        lr_scale: 0.25,
        best_val: 1.5,
        stale: 1,
        history: TrainHistory {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 2.5,
                    val_loss: Some(2.25),
                    val_accuracy: Some(0.5),
                    skipped_steps: 0,
                    rollbacks: 0,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 1.75,
                    val_loss: None,
                    val_accuracy: None,
                    skipped_steps: 2,
                    rollbacks: 1,
                },
            ],
        },
        optimizer: Some(OptimizerState {
            kind: "adamw".to_string(),
            step_count: 42,
            slots: vec![OptimizerSlot {
                param: 0,
                tensors: vec![Tensor::full(2, 3, 0.5), Tensor::full(2, 3, 0.0625)],
            }],
        }),
    }
}

#[test]
fn v2_round_trip_restores_weights_and_state_exactly() {
    let dir = tempdir("v2_roundtrip");
    let path = dir.join("golden.ckpt");
    let source = golden_store();
    let state = golden_state();
    save_checkpoint_with_state(&source, &state, &path).unwrap();

    let mut restored = blank_store();
    let loaded = load_checkpoint_with_state(&mut restored, &path)
        .unwrap()
        .expect("v2 checkpoint must carry its TrainState");
    assert_stores_bit_identical(&source, &restored);
    assert_eq!(loaded, state, "TrainState must round-trip exactly");
}

#[test]
fn v2_manager_rotation_round_trips() {
    let dir = tempdir("v2_rotation");
    let manager = CheckpointManager::new(&dir).unwrap();
    let source = golden_store();
    let state = golden_state();
    manager.save(&source, Some(&state)).unwrap();
    manager.save(&source, Some(&state)).unwrap(); // rotates latest → previous
    assert!(manager.previous_path().exists());

    let mut restored = blank_store();
    let loaded = manager.load_latest(&mut restored).unwrap().unwrap();
    assert_stores_bit_identical(&source, &restored);
    assert_eq!(loaded, state);
}

#[test]
fn committed_v1_fixture_still_loads() {
    let path = fixture_path();
    assert!(
        path.exists(),
        "missing fixture {} — regenerate with CUISINE_REGEN_FIXTURES=1",
        path.display()
    );
    let mut restored = blank_store();
    let state = load_checkpoint_with_state(&mut restored, &path).unwrap();
    assert!(state.is_none(), "v1 files never carry a TrainState");
    assert_stores_bit_identical(&golden_store(), &restored);
}

#[test]
fn fresh_v1_file_matches_committed_fixture_byte_for_byte() {
    // catches accidental drift in the v1 *writer*: if this fails, either
    // revert the writer change or deliberately regenerate the fixture
    let dir = tempdir("v1_drift");
    let path = dir.join("fresh_v1.json");
    save_checkpoint_v1(&golden_store(), &path).unwrap();
    let fresh = std::fs::read(&path).unwrap();
    let committed = std::fs::read(fixture_path()).unwrap();
    assert_eq!(
        fresh, committed,
        "v1 writer output drifted from the committed fixture"
    );
}

#[test]
fn committed_v2_fixture_loads_and_re_encodes_byte_for_byte() {
    let committed = std::fs::read(v2_fixture_path()).unwrap();
    let payload = committed.len() - 34;
    assert!(
        payload > 64,
        "payload of {payload} bytes skips the CRC fold"
    );
    let mut restored = blank_store();
    let state = load_checkpoint_with_state(&mut restored, &v2_fixture_path())
        .unwrap()
        .expect("the v2 fixture carries a TrainState");
    assert_stores_bit_identical(&golden_store(), &restored);
    assert_eq!(state, golden_state());

    let dir = tempdir("v2_fixture");
    let path = dir.join("fresh.ckpt");
    save_checkpoint_with_state(&restored, &state, &path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == committed,
        "v2 writer output drifted from the committed fixture"
    );
}

#[test]
fn committed_linear_fixture_loads_and_re_encodes_byte_for_byte() {
    let committed = std::fs::read(linear_fixture_path()).unwrap();
    let payload = committed.len() - 30;
    assert!(
        payload >= 128,
        "payload of {payload} bytes skips the CRC fold's 64-byte loop"
    );
    let model = ml::load_linear(&linear_fixture_path()).unwrap();
    let golden = golden_linear();
    let bits = |m: &LinearModel| {
        let weights: Vec<u32> = m.weights.iter().flatten().map(|v| v.to_bits()).collect();
        let bias: Vec<u32> = m.bias.iter().map(|v| v.to_bits()).collect();
        (m.weights.len(), weights, bias)
    };
    assert_eq!(bits(&model), bits(&golden), "weights and biases");

    let dir = tempdir("linear_fixture");
    let path = dir.join("fresh.bin");
    ml::save_linear(&model, &path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == committed,
        "linear snapshot writer output drifted from the committed fixture"
    );
}

#[test]
fn v1_load_rejects_tampered_format_tag() {
    let dir = tempdir("v1_tamper");
    let path = dir.join("bad.json");
    let text = std::fs::read_to_string(fixture_path()).unwrap();
    std::fs::write(&path, text.replace("checkpoint-v1", "checkpoint-v9")).unwrap();
    let mut store = blank_store();
    assert!(load_checkpoint(&mut store, &path).is_err());
}

/// Rewrites the committed fixtures. Gated twice (ignored + env var) so it
/// can never run by accident in CI.
#[test]
#[ignore = "fixture writer; run with CUISINE_REGEN_FIXTURES=1 -- --ignored"]
fn regenerate_fixtures() {
    if std::env::var("CUISINE_REGEN_FIXTURES").as_deref() != Ok("1") {
        eprintln!("set CUISINE_REGEN_FIXTURES=1 to rewrite the fixtures");
        return;
    }
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    save_checkpoint_v1(&golden_store(), &path).unwrap();
    save_checkpoint_with_state(&golden_store(), &golden_state(), &v2_fixture_path()).unwrap();
    ml::save_linear(&golden_linear(), &linear_fixture_path()).unwrap();
    eprintln!(
        "rewrote {}, {} and {}",
        path.display(),
        v2_fixture_path().display(),
        linear_fixture_path().display()
    );
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cuisine_checkpoint_golden_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
