//! LSTM training-budget calibration: epochs × learning-rate sweep with
//! per-epoch validation accuracy, used to set the small-scale preset.
//!
//! `cargo run --release -p bench --bin calibrate_lstm`

use bench::HarnessArgs;
use cuisine::Pipeline;
use nn::{AdamW, LrSchedule, LstmClassifier, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let train = pipeline.examples_of(&pipeline.data.split.train);
    let val = pipeline.examples_of(&pipeline.data.split.val);
    let test = pipeline.examples_of(&pipeline.data.split.test);

    for (epochs, lr) in [(20usize, 2e-3f32), (20, 4e-3), (30, 4e-3)] {
        let trainer = Trainer::new(TrainerConfig {
            epochs,
            batch_size: 32,
            schedule: LrSchedule::Constant(lr),
            grad_clip: 1.0,
            threads: 0,
            seed: config.seed,
            early_stop_patience: 0,
            divergence_patience: 3,
        });
        let mut mrng = StdRng::seed_from_u64(config.seed);
        let mut model = LstmClassifier::new(config.models.lstm, &mut mrng);
        let mut opt = AdamW::default();
        let started = std::time::Instant::now();
        let history = trainer
            .fit(&mut model, &mut opt, &train, Some(&val))
            .expect("LSTM training failed");
        let (_, test_acc, _, _) = trainer.evaluate(&model, &test).expect("evaluation failed");
        println!(
            "epochs={epochs} lr={lr}: test {:.2}%  ({:.0}s)",
            test_acc * 100.0,
            started.elapsed().as_secs_f64()
        );
        for e in history.epochs.iter().step_by(4) {
            println!(
                "   epoch {:>2}: train loss {:.3}, val acc {:.2}%",
                e.epoch,
                e.train_loss,
                e.val_accuracy.unwrap_or(0.0) * 100.0
            );
        }
    }
}
