//! Fault-tolerance integration suite: every failure mode the trainer
//! claims to survive is injected here and the recovery is checked — most
//! importantly that recovery is *bit-identical*, not merely "didn't
//! crash".
//!
//! Faults come from `nn::faults` (armed via the `fault-injection` feature
//! in this crate's dev-dependencies): worker panics, NaN losses, and
//! on-disk checkpoint corruption (truncation = crash mid-write, bit flips
//! = silent media rot). A runtime fault is armed on the test's own thread
//! and taken only by the next fit that thread starts, so these tests run
//! concurrently with every other training test without a lock.
//!
//! Run it at both ends of the threading spectrum — `scripts/check.sh`
//! does `TENSOR_THREADS=1` and multi-threaded passes — since panic
//! containment and shard merging behave differently at each.

use std::path::PathBuf;

use nn::faults::{self, FaultKind};
use nn::{
    load_checkpoint, save_checkpoint, save_checkpoint_v1, AdamW, CheckpointManager, FitOptions,
    LrSchedule, LstmClassifier, LstmConfig, LstmPooling, SequenceModel, TrainError, TrainHistory,
    Trainer, TrainerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(seed: u64) -> LstmClassifier {
    let mut rng = StdRng::seed_from_u64(seed);
    LstmClassifier::new(
        LstmConfig {
            vocab: 16,
            emb_dim: 8,
            hidden: 12,
            layers: 1,
            dropout: 0.0,
            classes: 3,
            pooling: LstmPooling::LastHidden,
        },
        &mut rng,
    )
}

/// A 3-class toy task: the label is the first token mod 3.
fn dataset() -> Vec<(Vec<usize>, usize)> {
    (0..24)
        .map(|i| {
            let first = 1 + (i % 9);
            (vec![first, 1 + (i * 5) % 9, 1 + (i * 7) % 9], first % 3)
        })
        .collect()
}

fn config(epochs: usize) -> TrainerConfig {
    TrainerConfig {
        epochs,
        batch_size: 8,
        schedule: LrSchedule::Constant(0.02),
        grad_clip: 1.0,
        threads: 2,
        seed: 7,
        early_stop_patience: 0,
        divergence_patience: 3,
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cuisine_fault_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_weights(a: &LstmClassifier, b: &LstmClassifier) {
    for (id, name, tensor) in a.store().iter() {
        assert_eq!(tensor, b.store().get(id), "weights diverged at {name}");
    }
}

/// Uninterrupted reference run: `epochs` epochs from a fixed init.
fn reference_run(epochs: usize) -> (LstmClassifier, TrainHistory) {
    let mut m = model(42);
    let mut opt = AdamW::default();
    let history = Trainer::new(config(epochs))
        .fit(&mut m, &mut opt, &dataset(), Some(&dataset()))
        .unwrap();
    (m, history)
}

// --- resumable training ------------------------------------------------

#[test]
fn killed_and_resumed_run_is_bit_identical() {
    let dir = scratch_dir("resume");
    let (straight, full_history) = reference_run(5);

    // phase 1: train 3 of 5 epochs with checkpointing, then "die"
    let mut first = model(42);
    let mut opt = AdamW::default();
    Trainer::new(config(3))
        .fit_with(
            &mut first,
            &mut opt,
            &dataset(),
            Some(&dataset()),
            &FitOptions::checkpoint(&dir),
        )
        .unwrap();
    drop((first, opt));

    // phase 2: a fresh process picks up latest.ckpt and finishes
    let mut resumed = model(1234); // wrong init on purpose — must be replaced
    let mut opt = AdamW::default();
    let resumed_history = Trainer::new(config(5))
        .fit_with(
            &mut resumed,
            &mut opt,
            &dataset(),
            Some(&dataset()),
            &FitOptions::resume(&dir),
        )
        .unwrap();

    assert_eq!(full_history, resumed_history, "history must match exactly");
    assert_same_weights(&straight, &resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_on_fresh_directory_is_a_fresh_start() {
    let dir = scratch_dir("resume_fresh");
    let (straight, full_history) = reference_run(2);
    let mut m = model(42);
    let mut opt = AdamW::default();
    let history = Trainer::new(config(2))
        .fit_with(
            &mut m,
            &mut opt,
            &dataset(),
            Some(&dataset()),
            &FitOptions::resume(&dir),
        )
        .unwrap();
    assert_eq!(history, full_history);
    assert_same_weights(&straight, &m);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_of_a_finished_run_trains_zero_epochs() {
    let dir = scratch_dir("resume_done");
    let mut m = model(42);
    let mut opt = AdamW::default();
    let trainer = Trainer::new(config(3));
    let done = trainer
        .fit_with(
            &mut m,
            &mut opt,
            &dataset(),
            None,
            &FitOptions::checkpoint(&dir),
        )
        .unwrap();
    let weights_done = m.store().clone();
    let again = trainer
        .fit_with(
            &mut m,
            &mut opt,
            &dataset(),
            None,
            &FitOptions::resume(&dir),
        )
        .unwrap();
    assert_eq!(done, again, "no extra epochs may run");
    for (id, name, tensor) in m.store().iter() {
        assert_eq!(tensor, weights_done.get(id), "weights moved at {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- crash-mid-save and corruption fallback ----------------------------

#[test]
fn corrupted_latest_falls_back_to_previous_checkpoint() {
    let dir = scratch_dir("fallback");
    let mut m = model(42);
    let mut opt = AdamW::default();
    Trainer::new(config(3))
        .fit_with(
            &mut m,
            &mut opt,
            &dataset(),
            None,
            &FitOptions::checkpoint(&dir),
        )
        .unwrap();

    let manager = CheckpointManager::new(&dir).unwrap();
    assert!(manager.latest_path().exists());
    assert!(manager.previous_path().exists());
    // crash mid-write of epoch 3's checkpoint: latest is a torn file
    faults::disk::truncate(&manager.latest_path(), 40).unwrap();

    let mut probe = model(0);
    let state = manager
        .load_latest(probe.store_mut())
        .unwrap()
        .expect("previous.ckpt must be picked up");
    // previous.ckpt holds the epoch-2 state (latest held epoch 3)
    assert_eq!(state.epoch, 2);
    assert_eq!(state.history.epochs.len(), 2);
    assert!(state.optimizer.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn both_checkpoints_corrupted_is_an_error_not_a_silent_restart() {
    let dir = scratch_dir("all_corrupt");
    let mut m = model(42);
    let mut opt = AdamW::default();
    Trainer::new(config(3))
        .fit_with(
            &mut m,
            &mut opt,
            &dataset(),
            None,
            &FitOptions::checkpoint(&dir),
        )
        .unwrap();
    let manager = CheckpointManager::new(&dir).unwrap();
    faults::disk::truncate(&manager.latest_path(), 10).unwrap();
    faults::disk::truncate(&manager.previous_path(), 10).unwrap();
    let mut probe = model(0);
    let err = manager.load_latest(probe.store_mut()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- checkpoint corruption matrix --------------------------------------

#[test]
fn truncated_checkpoint_is_invalid_data_without_mutation() {
    let dir = scratch_dir("trunc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    save_checkpoint(model(1).store(), &path).unwrap();
    let full = std::fs::metadata(&path).unwrap().len();
    for keep in [0, 4, 21, 34, full / 2] {
        faults::disk::truncate(&path, keep).unwrap();
        let mut victim = model(2);
        let pristine = victim.store().clone();
        let err = load_checkpoint(victim.store_mut(), &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "keep={keep}");
        for (id, name, tensor) in victim.store().iter() {
            assert_eq!(tensor, pristine.get(id), "mutated {name} at keep={keep}");
        }
        save_checkpoint(model(1).store(), &path).unwrap(); // rewrite for next round
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_checkpoint_fails_the_crc_without_mutation() {
    let dir = scratch_dir("bitflip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    save_checkpoint(model(1).store(), &path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    // flip one bit deep inside the payload
    faults::disk::flip_bit(&path, len / 2, 3).unwrap();
    let mut victim = model(2);
    let pristine = victim.store().clone();
    let err = load_checkpoint(victim.store_mut(), &path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "got: {err}");
    for (id, name, tensor) in victim.store().iter() {
        assert_eq!(tensor, pristine.get(id), "mutated {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_checkpoints_remain_readable() {
    let dir = scratch_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("legacy.json");
    let old = model(1);
    save_checkpoint_v1(old.store(), &path).unwrap();
    let mut new = model(2);
    load_checkpoint(new.store_mut(), &path).unwrap();
    assert_same_weights(&old, &new);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn architecture_mismatch_is_rejected_without_mutation() {
    let dir = scratch_dir("arch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    save_checkpoint(model(1).store(), &path).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut wider = LstmClassifier::new(
        LstmConfig {
            vocab: 16,
            emb_dim: 8,
            hidden: 20, // different width than the saved model
            layers: 1,
            dropout: 0.0,
            classes: 3,
            pooling: LstmPooling::LastHidden,
        },
        &mut rng,
    );
    let pristine = wider.store().clone();
    let err = load_checkpoint(wider.store_mut(), &path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    for (id, name, tensor) in wider.store().iter() {
        assert_eq!(tensor, pristine.get(id), "mutated {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_file_is_neither_v1_nor_v2() {
    let dir = scratch_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    std::fs::write(&path, b"these are not the checkpoints you are looking for").unwrap();
    let mut victim = model(1);
    let err = load_checkpoint(victim.store_mut(), &path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- injected runtime faults -------------------------------------------

#[test]
fn worker_panic_is_survived_bit_identically() {
    let (straight, clean_history) = reference_run(3);

    let mut faulted = model(42);
    let mut opt = AdamW::default();
    faults::inject(FaultKind::WorkerPanic, 1);
    let history = Trainer::new(config(3))
        .fit(&mut faulted, &mut opt, &dataset(), Some(&dataset()))
        .unwrap();

    assert_eq!(clean_history, history, "retry must not change the run");
    assert_same_weights(&straight, &faulted);
}

#[test]
fn nan_loss_is_skipped_and_surfaced_in_stats() {
    let mut m = model(42);
    let mut opt = AdamW::default();
    faults::inject(FaultKind::NanLoss, 1);
    let history = Trainer::new(config(3))
        .fit(&mut m, &mut opt, &dataset(), None)
        .unwrap();
    assert_eq!(history.total_skipped_steps(), 1);
    assert_eq!(history.total_rollbacks(), 0);
    assert!(history.epochs.iter().all(|e| e.train_loss.is_finite()));
}

#[test]
fn sustained_nan_loss_rolls_back_and_recovers() {
    let mut m = model(42);
    let mut opt = AdamW::default();
    faults::inject(FaultKind::NanLoss, 3); // exactly divergence_patience
    let history = Trainer::new(config(3))
        .fit(&mut m, &mut opt, &dataset(), None)
        .unwrap();
    assert_eq!(history.total_rollbacks(), 1);
    assert_eq!(history.epochs.len(), 3, "rollback must not shorten the run");
    assert!(history.epochs.iter().all(|e| e.train_loss.is_finite()));
    for (_, name, tensor) in m.store().iter() {
        assert!(!tensor.has_non_finite(), "NaN leaked into {name}");
    }
}

// --- input validation --------------------------------------------------

#[test]
fn out_of_range_label_is_an_error_not_a_panic() {
    let mut data = dataset();
    data[5].1 = 17; // model has 3 classes
    let mut m = model(42);
    let mut opt = AdamW::default();
    let err = Trainer::new(config(1))
        .fit(&mut m, &mut opt, &data, None)
        .unwrap_err();
    assert!(
        matches!(
            err,
            TrainError::BadExample {
                index: 5,
                label: 17,
                classes: 3
            }
        ),
        "got {err:?}"
    );
    let err = Trainer::new(config(1)).evaluate(&m, &data).unwrap_err();
    assert!(matches!(err, TrainError::BadExample { .. }));
}
