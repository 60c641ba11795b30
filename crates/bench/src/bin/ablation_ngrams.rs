//! Ablation: can a bag-of-features model recover the order signal with
//! n-gram features? Trains Logistic Regression on TF-IDF over unigrams,
//! +bigrams, +trigrams. If the transformers' edge is *local* ordering,
//! bigram LR should close much of the gap; what remains is long-range
//! structure only attention captures.
//!
//! `cargo run --release -p bench --bin ablation_ngrams`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{Classifier, LogisticRegression};
use recipedb::NUM_CUISINES;
use textproc::{with_ngrams, TfIdfConfig, TfIdfVectorizer};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let train_y = pipeline.labels_of(&pipeline.data.split.train);
    let test_y = pipeline.labels_of(&pipeline.data.split.test);

    println!("Ablation — n-gram features for Logistic Regression");
    for max_n in [1usize, 2, 3] {
        let docs_of = |idx: &[usize]| -> Vec<Vec<String>> {
            idx.iter()
                .map(|&i| with_ngrams(&pipeline.data.docs[i], max_n))
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

        let mut model = LogisticRegression::default();
        model.fit(&train_x, &train_y);
        let pred = model.predict(&test_x);
        let report = metrics::ClassificationReport::evaluate(NUM_CUISINES, &test_y, &pred, None);
        println!(
            "  n-grams up to {max_n}: accuracy {:>6.2}%  macro-F1 {:.3}  vocab {}",
            report.accuracy_pct(),
            report.f1,
            vectorizer.vocab_size()
        );
    }
    println!("\n(the residual gap to the transformers is order information beyond n-grams)");
}
