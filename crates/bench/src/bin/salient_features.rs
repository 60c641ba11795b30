//! Salient-feature analysis: χ² scores and per-cuisine signature features
//! with lift — the paper's §VII question "what features aid or hinder the
//! classification … which could help one to uniquely distinguish between
//! the cuisines?"
//!
//! `cargo run --release -p bench --bin salient_features [--per-class 5]`

use bench::HarnessArgs;
use cuisine::Pipeline;
use ml::feature_selection::{class_signatures, top_chi2};
use recipedb::CuisineId;

fn main() {
    let args = HarnessArgs::parse(&["--per-class N"]);
    let config = args.config();
    let per_class: usize = args
        .value_of("--per-class")
        .map(|v| v.parse().expect("--per-class must be an integer"))
        .unwrap_or(5);

    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let (train_x, _, _, vectorizer) = pipeline.tfidf_features(&config);
    let train_y = pipeline.labels_of(&pipeline.data.split.train);

    println!("top 20 features by χ² against the cuisine label:");
    for (col, score) in top_chi2(&train_x, &train_y, 20) {
        println!("  {:<28} χ² {score:.1}", vectorizer.term(col));
    }

    println!("\nper-cuisine signature features (presence lift over global rate):");
    for cuisine in CuisineId::all().take(8) {
        let sigs = class_signatures(&train_x, &train_y, cuisine.index(), per_class, 5);
        let rendered: Vec<String> = sigs
            .iter()
            .map(|&(c, lift)| format!("{} ({lift:.1}x)", vectorizer.term(c)))
            .collect();
        println!("  {:<24} {}", cuisine.name(), rendered.join(", "));
    }
    println!("  … (pass --scale/--seed to vary; first 8 cuisines shown)");
}
