//! The easier 6-way continent-classification task implied by RecipeDB's
//! `Continent` column (Table I): the same features, coarser labels. A
//! useful control — the generator's continent-level signal (shared motifs,
//! utensil tilts) should make this much easier than the 26-way cuisine
//! task, mirroring how real cuisines cluster continentally.
//!
//! `cargo run --release -p bench --bin continent_task`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::{Classifier, LogisticRegression, MultinomialNb};
use recipedb::{Continent, CuisineId};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let (train_x, _, test_x, _) = pipeline.tfidf_features(&config);

    let continent_of = |cuisine_label: usize| -> usize {
        let cont = CuisineId(cuisine_label as u8).info().continent;
        Continent::all()
            .iter()
            .position(|&c| c == cont)
            .expect("listed")
    };
    let train_y: Vec<usize> = pipeline
        .labels_of(&pipeline.data.split.train)
        .into_iter()
        .map(continent_of)
        .collect();
    let test_y: Vec<usize> = pipeline
        .labels_of(&pipeline.data.split.test)
        .into_iter()
        .map(continent_of)
        .collect();

    println!("6-way continent classification (same features, coarser labels):");
    for (name, mut model) in [
        (
            "LogReg",
            Box::new(LogisticRegression::default()) as Box<dyn Classifier>,
        ),
        ("Naive Bayes", Box::new(MultinomialNb::default())),
    ] {
        model.fit(&train_x, &train_y);
        let pred = model.predict(&test_x);
        let report = metrics::ClassificationReport::evaluate(6, &test_y, &pred, None);
        println!(
            "  {:<14} accuracy {:>6.2}%  macro-F1 {:.3}",
            name,
            report.accuracy_pct(),
            report.f1
        );
    }

    // compare against the 26-way task collapsed to continents: does
    // predicting cuisine first and collapsing beat direct prediction?
    let mut cuisine_model = LogisticRegression::default();
    cuisine_model.fit(&train_x, &pipeline.labels_of(&pipeline.data.split.train));
    let collapsed: Vec<usize> = cuisine_model
        .predict(&test_x)
        .into_iter()
        .map(continent_of)
        .collect();
    let report = metrics::ClassificationReport::evaluate(6, &test_y, &collapsed, None);
    println!(
        "  {:<14} accuracy {:>6.2}%  macro-F1 {:.3}   (26-way LogReg collapsed)",
        "via cuisines",
        report.accuracy_pct(),
        report.f1
    );
}
