//! Figure `Normalized_Model_Accuracy` — per-model accuracy normalized to
//! the best model, paper vs measured, as an ASCII bar chart.
//!
//! `cargo run --release -p bench --bin fig_accuracy -- --scale small
//!  [--models logreg,nb,svm,rf]`

use bench::HarnessArgs;
use cuisine::report::render_accuracy_figure;
use cuisine::{ModelKind, Pipeline};

fn main() {
    let args = HarnessArgs::parse(&["--models LIST"]);
    let config = args.config();
    // default to the fast statistical models; pass --models to add the
    // neural ones
    let models: Vec<ModelKind> = match args.value_of("--models") {
        Some("all") => cuisine::ALL_MODELS.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|m| match m.trim() {
                "logreg" | "lr" => ModelKind::LogReg,
                "nb" => ModelKind::NaiveBayes,
                "svm" => ModelKind::SvmLinear,
                "rf" => ModelKind::RandomForest,
                "lstm" => ModelKind::Lstm,
                "bert" => ModelKind::Bert,
                "roberta" => ModelKind::Roberta,
                other => panic!("unknown model {other:?}"),
            })
            .collect(),
        None => vec![
            ModelKind::LogReg,
            ModelKind::NaiveBayes,
            ModelKind::SvmLinear,
            ModelKind::RandomForest,
        ],
    };

    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let results: Vec<_> = models
        .into_iter()
        .map(|kind| {
            eprintln!("running {}…", kind.name());
            pipeline.run(kind, &config)
        })
        .collect();

    print!("{}", render_accuracy_figure(&results));
}
