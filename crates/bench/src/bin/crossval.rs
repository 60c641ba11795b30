//! Stratified 5-fold cross-validation of the statistical Table IV rows —
//! variance estimates the paper's single split cannot give.
//!
//! `cargo run --release -p bench --bin crossval [--folds 5]`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{
    cross_val_accuracy, mean_std, LinearSvm, LogisticRegression, MultinomialNb, RandomForest,
    RandomForestConfig,
};

fn main() {
    let args = HarnessArgs::parse(&["--folds N", "--trace", "--trace-out PATH"]);
    args.init_trace();
    let config = args.config();
    let folds: usize = args
        .value_of("--folds")
        .map(|v| v.parse().expect("--folds must be an integer"))
        .unwrap_or(5);

    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    // cross-validate over train+val so the test split stays untouched
    let mut idx = pipeline.data.split.train.clone();
    idx.extend(&pipeline.data.split.val);
    let (full_x, _, _, vectorizer) = pipeline.tfidf_features(&config);
    let _ = full_x;
    let docs: Vec<Vec<&str>> = idx
        .iter()
        .map(|&i| pipeline.data.docs[i].iter().map(String::as_str).collect())
        .collect();
    let x = vectorizer.transform(&docs);
    let y: Vec<usize> = idx.iter().map(|&i| pipeline.data.labels[i]).collect();

    println!(
        "{folds}-fold stratified cross-validation ({} examples)",
        y.len()
    );
    let report = |name: &str, scores: Vec<f64>| {
        let (mean, std) = mean_std(&scores);
        println!(
            "  {:<14} {:.2}% ± {:.2}  (folds: {})",
            name,
            mean * 100.0,
            std * 100.0,
            scores
                .iter()
                .map(|s| format!("{:.1}", s * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
        );
    };

    report(
        "LogReg",
        cross_val_accuracy(&x, &y, folds, config.seed, LogisticRegression::default),
    );
    report(
        "Naive Bayes",
        cross_val_accuracy(&x, &y, folds, config.seed, MultinomialNb::default),
    );
    report(
        "SVM (linear)",
        cross_val_accuracy(&x, &y, folds, config.seed, LinearSvm::default),
    );
    report(
        "Random Forest",
        cross_val_accuracy(&x, &y, folds, config.seed, || {
            RandomForest::new(RandomForestConfig {
                n_trees: config.models.rf_trees / 2,
                ..Default::default()
            })
        }),
    );
    args.finish_trace();
}
