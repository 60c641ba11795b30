//! Ablation: redundant features. §VII asks what "redundant features"
//! contribute: "while maintaining the sequential nature of the recipes,
//! redundant features were not removed … future analysis needs to identify
//! the effect induced by these features". Here we drop the `k` most
//! document-frequent features (the `add`/`stir`/`heat` class of tokens
//! that appear in nearly every recipe and carry the least IDF weight) and
//! re-run Logistic Regression.
//!
//! `cargo run --release -p bench --bin ablation_redundancy`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{Classifier, LogisticRegression};
use recipedb::NUM_CUISINES;
use std::collections::HashSet;
use textproc::{TfIdfConfig, TfIdfVectorizer};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);

    // rank features by document frequency on the training split
    let mut df: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for &i in &pipeline.data.split.train {
        let mut seen: HashSet<&str> = HashSet::new();
        for t in &pipeline.data.docs[i] {
            if seen.insert(t) {
                *df.entry(t).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(&str, usize)> = df.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    println!("Ablation — dropping the k most document-frequent (redundant) features");
    println!("top features by document frequency:");
    for (t, d) in ranked.iter().take(8) {
        println!("  {t:<20} df {d}");
    }

    for k in [0usize, 10, 25, 50, 100, 250] {
        let dropped: HashSet<&str> = ranked.iter().take(k).map(|&(t, _)| t).collect();
        let docs_of = |idx: &[usize]| -> Vec<Vec<&str>> {
            idx.iter()
                .map(|&i| {
                    pipeline.data.docs[i]
                        .iter()
                        .map(String::as_str)
                        .filter(|t| !dropped.contains(t))
                        .collect()
                })
                .collect()
        };
        let train_docs = docs_of(&pipeline.data.split.train);
        let test_docs = docs_of(&pipeline.data.split.test);

        let mut vectorizer = TfIdfVectorizer::new(TfIdfConfig {
            min_df: 2,
            ..Default::default()
        });
        let train_x = vectorizer.fit_transform(&train_docs);
        let test_x = vectorizer.transform(&test_docs);
        let train_y = pipeline.labels_of(&pipeline.data.split.train);
        let test_y = pipeline.labels_of(&pipeline.data.split.test);

        let mut model = LogisticRegression::default();
        model.fit(&train_x, &train_y);
        let pred = model.predict(&test_x);
        let report = metrics::ClassificationReport::evaluate(NUM_CUISINES, &test_y, &pred, None);
        println!(
            "  drop top {k:>4}: accuracy {:>6.2}%  macro-F1 {:.3}  vocab {}",
            report.accuracy_pct(),
            report.f1,
            vectorizer.vocab_size()
        );
    }
}
