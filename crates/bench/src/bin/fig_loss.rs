//! Figures `loss_training` / `loss_val` — per-epoch loss curves of the
//! neural models.
//!
//! `cargo run --release -p bench --bin fig_loss -- --which train|val
//!  [--models lstm,bert,roberta]`

use bench::HarnessArgs;
use cuisine::report::{render_loss_curves, LossKindSel};
use cuisine::{ModelKind, Pipeline};

fn main() {
    let args = HarnessArgs::parse(&["--which train|val", "--models LIST"]);
    let config = args.config();
    let which = match args.value_of("--which").unwrap_or("train") {
        "train" => LossKindSel::Train,
        "val" => LossKindSel::Validation,
        other => panic!("--which must be train or val, got {other:?}"),
    };
    let models: Vec<ModelKind> = args
        .value_of("--models")
        .unwrap_or("lstm,bert")
        .split(',')
        .map(|m| match m.trim() {
            "lstm" => ModelKind::Lstm,
            "bert" => ModelKind::Bert,
            "roberta" => ModelKind::Roberta,
            other => panic!("loss curves exist only for neural models, got {other:?}"),
        })
        .collect();

    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let results: Vec<_> = models
        .into_iter()
        .map(|kind| {
            eprintln!("training {}…", kind.name());
            pipeline.run(kind, &config)
        })
        .collect();

    print!("{}", render_loss_curves(&results, which));
    for r in &results {
        if let Some(pre) = &r.pretrain_losses {
            println!("{} MLM pre-training losses: {pre:?}", r.kind.name());
        }
    }
}
