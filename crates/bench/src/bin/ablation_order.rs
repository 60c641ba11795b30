//! Ablation: destroy token order, retrain the order-aware models.
//!
//! The paper's central hypothesis is that the *order* of ingredients,
//! processes and utensils carries cuisine signal. If that is true, an
//! LSTM/transformer trained on shuffled sequences must lose accuracy,
//! while a bag-of-words model must not care.
//!
//! `cargo run --release -p bench --bin ablation_order -- [--scale 0.02]`

use bench::HarnessArgs;
use cuisine::{ModelKind, Pipeline};
use nn::{AdamW, LstmClassifier, Trainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);

    let train = pipeline.examples_of(&pipeline.data.split.train);
    let test = pipeline.examples_of(&pipeline.data.split.test);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let shuffle = |examples: &[(Vec<usize>, usize)], rng: &mut StdRng| {
        examples
            .iter()
            .map(|(ids, label)| {
                let mut ids = ids.clone();
                ids.shuffle(rng);
                (ids, *label)
            })
            .collect::<Vec<_>>()
    };
    let train_shuffled = shuffle(&train, &mut rng);
    let test_shuffled = shuffle(&test, &mut rng);

    // --- LSTM on intact vs shuffled sequences -------------------------
    let trainer = Trainer::new(config.models.lstm_trainer);
    let mut acc = Vec::new();
    for (label, tr, te) in [
        ("intact", &train, &test),
        ("shuffled", &train_shuffled, &test_shuffled),
    ] {
        eprintln!("training LSTM on {label} sequences…");
        let mut mrng = StdRng::seed_from_u64(config.seed);
        let mut model = LstmClassifier::new(config.models.lstm, &mut mrng);
        let mut opt = AdamW::default();
        trainer
            .fit(&mut model, &mut opt, tr, None)
            .expect("LSTM training failed");
        let (_, accuracy, _, _) = trainer.evaluate(&model, te).expect("evaluation failed");
        acc.push((label, accuracy));
    }

    // --- bag-of-words control ------------------------------------------
    eprintln!("running Logistic Regression control (order-invariant)…");
    let lr = pipeline.run(ModelKind::LogReg, &config);

    println!("\nAblation — sequence order");
    for (label, a) in &acc {
        println!("  LSTM, {label:>9} sequences: {:.2}%", a * 100.0);
    }
    println!(
        "  LogReg (order-invariant):  {:.2}%",
        lr.report.accuracy_pct()
    );
    let drop = acc[0].1 - acc[1].1;
    println!(
        "\norder signal captured by the LSTM: {:.2} accuracy points",
        drop * 100.0
    );
}
