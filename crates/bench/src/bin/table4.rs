//! Table IV — the paper's main result: accuracy/loss/precision/recall/F1
//! for all seven models, paper vs measured, plus a shape check on the
//! model ordering.
//!
//! ```text
//! cargo run --release -p bench --bin table4 -- --scale small
//!     [--models logreg,nb,svm,rf,lstm,bert,roberta]
//!     [--csv out.csv] [--json out.json] [--adaboost]
//!     [--checkpoint-dir ckpts] [--resume] [--trace [--trace-out path]]
//! ```
//!
//! With `--checkpoint-dir` each neural model checkpoints every epoch into
//! its own subdirectory (atomic `latest.ckpt` / `previous.ckpt` pair);
//! re-running with `--resume` continues an interrupted run bit-identically
//! from the last epoch boundary.
//!
//! Always writes a machine-readable copy of the table to
//! `BENCH_table4.json` (override with `--json`).

use bench::HarnessArgs;
use cuisine::report::{render_table4, table4_csv, table4_json};
use cuisine::{paper_row, ExperimentResult, ModelKind, Pipeline};

fn parse_models(spec: &str) -> Vec<ModelKind> {
    spec.split(',')
        .map(|m| match m.trim() {
            "logreg" | "lr" => ModelKind::LogReg,
            "nb" | "bayes" => ModelKind::NaiveBayes,
            "svm" => ModelKind::SvmLinear,
            "rf" | "forest" => ModelKind::RandomForest,
            "lstm" => ModelKind::Lstm,
            "bert" => ModelKind::Bert,
            "roberta" => ModelKind::Roberta,
            other => panic!("unknown model {other:?}"),
        })
        .collect()
}

fn main() {
    let args = HarnessArgs::parse(&[
        "--models LIST",
        "--checkpoint-dir DIR",
        "--resume",
        "--adaboost",
        "--csv PATH",
        "--json PATH",
        "--trace",
        "--trace-out PATH",
    ]);
    args.init_trace();
    let mut config = args.config();
    if let Some(dir) = args.value_of("--checkpoint-dir") {
        config.checkpoint_dir = Some(dir.into());
    }
    config.resume = args.has_flag("--resume");
    if config.resume && config.checkpoint_dir.is_none() {
        panic!("--resume needs --checkpoint-dir");
    }
    let models = args
        .value_of("--models")
        .map(parse_models)
        .unwrap_or_else(|| cuisine::ALL_MODELS.to_vec());

    eprintln!("preparing corpus (scale {})…", config.generator.scale);
    let pipeline = Pipeline::prepare(&config);
    eprintln!(
        "{} recipes — train {} / val {} / test {}",
        pipeline.data.dataset.len(),
        pipeline.data.split.train.len(),
        pipeline.data.split.val.len(),
        pipeline.data.split.test.len()
    );

    let mut results: Vec<ExperimentResult> = Vec::new();
    for kind in models {
        eprintln!("running {}…", kind.name());
        let r = pipeline.run(kind, &config);
        eprintln!(
            "  {} — {:.2}% (paper {:.2}%) in {:.0}s",
            kind.name(),
            r.report.accuracy_pct(),
            paper_row(kind).accuracy_pct,
            r.train_seconds
        );
        results.push(r);
    }
    if args.has_flag("--adaboost") {
        eprintln!("running AdaBoost variant…");
        let r = cuisine::run_adaboost(&pipeline, &config);
        eprintln!("  AdaBoost — {:.2}%", r.report.accuracy_pct());
        results.push(r);
    }

    // render in Table IV order regardless of run order
    results.sort_by_key(|r| {
        cuisine::ALL_MODELS
            .iter()
            .position(|&k| k == r.kind)
            .unwrap_or(usize::MAX)
    });

    println!("\n{}", render_table4(&results));
    shape_check(&results);

    if let Some(path) = args.value_of("--csv") {
        std::fs::write(path, table4_csv(&results)).expect("write csv");
        eprintln!("wrote {path}");
    }

    let json_path = args.value_of("--json").unwrap_or("BENCH_table4.json");
    std::fs::write(json_path, table4_json(&results)).expect("write json");
    eprintln!("wrote {json_path}");

    args.finish_trace();
}

/// Prints whether the paper's qualitative ordering holds in this run.
fn shape_check(results: &[ExperimentResult]) {
    let acc = |k: ModelKind| {
        results
            .iter()
            .find(|r| r.kind == k)
            .map(|r| r.report.accuracy)
    };
    println!("shape checks (paper's qualitative claims):");
    let check = |label: &str, ok: Option<bool>| match ok {
        Some(true) => println!("  [ok]   {label}"),
        Some(false) => println!("  [MISS] {label}"),
        None => println!("  [skip] {label} (model not run)"),
    };
    check(
        "RoBERTa beats BERT",
        acc(ModelKind::Roberta)
            .zip(acc(ModelKind::Bert))
            .map(|(r, b)| r > b),
    );
    let best_stat = [
        ModelKind::LogReg,
        ModelKind::NaiveBayes,
        ModelKind::SvmLinear,
        ModelKind::RandomForest,
    ]
    .iter()
    .filter_map(|&k| acc(k))
    .fold(None::<f64>, |m, v| Some(m.map_or(v, |m| m.max(v))));
    check(
        "BERT beats every statistical model",
        acc(ModelKind::Bert).zip(best_stat).map(|(b, s)| b > s),
    );
    check(
        "LogReg is the best statistical model",
        acc(ModelKind::LogReg).zip(best_stat).map(|(l, s)| l >= s),
    );
    check(
        "Random Forest is the weakest statistical model",
        acc(ModelKind::RandomForest)
            .zip(best_stat)
            .map(|(rf, s)| rf <= s),
    );
    check(
        "LSTM trails the best statistical model (paper: 53.6 < 57.7)",
        acc(ModelKind::Lstm)
            .zip(acc(ModelKind::LogReg))
            .map(|(l, lr)| l < lr + 0.02),
    );
}
