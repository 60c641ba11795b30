//! Train → save → reload → serve: persist a fitted Logistic Regression as
//! a `cuisine-linear-v2` snapshot and classify with the reloaded copy, the
//! deployment path of a recipe-recommendation service built on this
//! library. Exits non-zero unless the reloaded model's decision scores
//! are bit-identical to the fitted model's on every test recipe.
//!
//! Run with: `cargo run --release --example persist_model`

use cuisine::{Pipeline, PipelineConfig, Scale};
use ml::{load_linear, save_linear, Classifier, LogisticRegression};
use recipedb::CuisineId;

fn main() {
    let config = PipelineConfig::new(Scale::Small, 21);
    println!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let (train_x, _, test_x, _) = pipeline.tfidf_features(&config);
    let train_y = pipeline.labels_of(&pipeline.data.split.train);
    let test_y = pipeline.labels_of(&pipeline.data.split.test);

    println!("training Logistic Regression…");
    let mut model = LogisticRegression::default();
    model.fit(&train_x, &train_y);

    let path = std::env::temp_dir().join("cuisine_logreg.bin");
    save_linear(model.linear_model(), &path).expect("save model");
    println!(
        "saved to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    let restored = load_linear(&path).expect("load model");
    std::fs::remove_file(&path).ok();
    println!("reloaded; serving predictions from the restored weights:");
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let mut correct = 0usize;
    let mut mismatched = 0usize;
    for (r, &gold) in test_y.iter().enumerate() {
        let scores = restored.decision_row(&test_x, r);
        if bits(&scores) != bits(&model.linear_model().decision_row(&test_x, r)) {
            mismatched += 1;
        }
        let pred = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == gold {
            correct += 1;
        }
        if r < 5 {
            println!(
                "  test recipe {r}: predicted {:<24} gold {}",
                CuisineId(pred as u8).name(),
                CuisineId(gold as u8).name()
            );
        }
    }
    println!(
        "\nrestored-model test accuracy: {:.2}%",
        correct as f64 / test_x.rows() as f64 * 100.0
    );
    if mismatched > 0 {
        eprintln!(
            "{mismatched} of {} test rows score differently after the reload",
            test_y.len()
        );
        std::process::exit(1);
    }
    println!(
        "all {} test rows score bit-identically after the reload",
        test_y.len()
    );
}
