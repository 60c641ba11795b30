//! Ablation: remove one substructure (ingredients, processes or utensils)
//! from every recipe and re-run the best statistical model — the paper's
//! open question about "the relationship among the three substructures".
//!
//! `cargo run --release -p bench --bin ablation_substructure`

use bench::HarnessArgs;
use ml::{Classifier, LogisticRegression};
use recipedb::{generate, train_val_test_split, EntityKind, NUM_CUISINES};
use textproc::{clean_text, lemmatize, TfIdfConfig, TfIdfVectorizer};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("generating corpus…");
    let dataset = generate(&config.generator);
    let split = train_val_test_split(&dataset, config.seed);
    let labels = dataset.labels();

    let variants: [(&str, Option<EntityKind>); 4] = [
        ("full sequence", None),
        ("without ingredients", Some(EntityKind::Ingredient)),
        ("without processes", Some(EntityKind::Process)),
        ("without utensils", Some(EntityKind::Utensil)),
    ];

    println!("Ablation — substructure removal (Logistic Regression on TF-IDF)");
    for (label, dropped) in variants {
        let docs: Vec<Vec<String>> = dataset
            .recipes
            .iter()
            .map(|r| {
                r.tokens
                    .iter()
                    .filter(|&&t| Some(dataset.table.kind(t)) != dropped)
                    .map(|&t| {
                        clean_text(dataset.table.name(t))
                            .split(' ')
                            .map(lemmatize)
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .collect()
            })
            .collect();

        let train_docs: Vec<Vec<&str>> = split
            .train
            .iter()
            .map(|&i| docs[i].iter().map(String::as_str).collect())
            .collect();
        let test_docs: Vec<Vec<&str>> = split
            .test
            .iter()
            .map(|&i| docs[i].iter().map(String::as_str).collect())
            .collect();

        let mut vectorizer = TfIdfVectorizer::new(TfIdfConfig {
            min_df: 2,
            ..Default::default()
        });
        let train_x = vectorizer.fit_transform(&train_docs);
        let test_x = vectorizer.transform(&test_docs);
        let train_y: Vec<usize> = split.train.iter().map(|&i| labels[i]).collect();
        let test_y: Vec<usize> = split.test.iter().map(|&i| labels[i]).collect();

        let mut model = LogisticRegression::default();
        model.fit(&train_x, &train_y);
        let pred = model.predict(&test_x);
        let report = metrics::ClassificationReport::evaluate(NUM_CUISINES, &test_y, &pred, None);
        println!(
            "  {:<22} accuracy {:>6.2}%  macro-F1 {:.3}  (vocab {})",
            label,
            report.accuracy_pct(),
            report.f1,
            vectorizer.vocab_size()
        );
    }
}
