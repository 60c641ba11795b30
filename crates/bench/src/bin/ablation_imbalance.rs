//! Ablation: class imbalance. The paper notes the 460-to-16,582 class-size
//! spread hurts the classifiers and weighs dropping low-frequency cuisines
//! against coverage of world cuisines. This binary quantifies that
//! trade-off by re-running Logistic Regression on corpora restricted to
//! cuisines above a minimum size.
//!
//! `cargo run --release -p bench --bin ablation_imbalance`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{Classifier, LogisticRegression};
use recipedb::NUM_CUISINES;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let (train_x, _, test_x, _) = pipeline.tfidf_features(&config);
    let train_y = pipeline.labels_of(&pipeline.data.split.train);
    let test_y = pipeline.labels_of(&pipeline.data.split.test);

    // class sizes on the training split
    let mut sizes = vec![0usize; NUM_CUISINES];
    for &y in &train_y {
        sizes[y] += 1;
    }

    println!("Ablation — class imbalance (Logistic Regression)");
    println!(
        "{:>14} {:>9} {:>12} {:>12} {:>10}",
        "min class size", "classes", "test size", "accuracy %", "macro F1"
    );
    for min_size in [0usize, 25, 50, 100, 200] {
        let kept: Vec<bool> = sizes.iter().map(|&s| s >= min_size).collect();
        let classes_kept = kept.iter().filter(|&&k| k).count();
        if classes_kept < 2 {
            continue;
        }
        // remap kept classes to a dense label space
        let mut remap = vec![usize::MAX; NUM_CUISINES];
        let mut next = 0usize;
        for (c, &keep) in kept.iter().enumerate() {
            if keep {
                remap[c] = next;
                next += 1;
            }
        }

        let train_idx: Vec<usize> = (0..train_y.len()).filter(|&i| kept[train_y[i]]).collect();
        let test_idx: Vec<usize> = (0..test_y.len()).filter(|&i| kept[test_y[i]]).collect();
        let tx = train_x.select_rows(&train_idx);
        let sx = test_x.select_rows(&test_idx);
        let ty: Vec<usize> = train_idx.iter().map(|&i| remap[train_y[i]]).collect();
        let sy: Vec<usize> = test_idx.iter().map(|&i| remap[test_y[i]]).collect();

        let mut model = LogisticRegression::default();
        model.fit(&tx, &ty);
        let pred = model.predict(&sx);
        let report = metrics::ClassificationReport::evaluate(classes_kept, &sy, &pred, None);
        println!(
            "{:>14} {:>9} {:>12} {:>12.2} {:>10.3}",
            min_size,
            classes_kept,
            sy.len(),
            report.accuracy_pct(),
            report.f1
        );
    }
    println!("\n(the paper's dilemma: higher floors raise accuracy but shrink cuisine coverage)");
}
