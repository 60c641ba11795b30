//! Error analysis: the most confused cuisine pairs of the best statistical
//! model — §VII's "what features aid or hinder the classification" made
//! concrete. The generator plants continent-shared signatures, so the top
//! confusions should be continent-internal (Thai ↔ Southeast Asian, not
//! Thai ↔ Scandinavian).
//!
//! `cargo run --release -p bench --bin confusions [--top 15]`

use bench::HarnessArgs;
use cuisine::{ModelKind, Pipeline};
use recipedb::CuisineId;

fn main() {
    let args = HarnessArgs::parse(&["--top N", "--full"]);
    let config = args.config();
    let top: usize = args
        .value_of("--top")
        .map(|v| v.parse().expect("--top must be an integer"))
        .unwrap_or(15);

    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    eprintln!("running Logistic Regression…");
    let result = pipeline.run(ModelKind::LogReg, &config);

    println!(
        "top {top} confusions (LogReg, accuracy {:.2}%):",
        result.report.accuracy_pct()
    );
    println!(
        "{:<24} {:<24} {:>6} {:>14}",
        "gold", "predicted", "count", "same continent"
    );
    let mut within = 0u64;
    let mut total = 0u64;
    for (gold, pred, count) in result.report.confusion.top_confusions(top) {
        let g = CuisineId(gold as u8);
        let p = CuisineId(pred as u8);
        let same = g.info().continent == p.info().continent;
        if same {
            within += count;
        }
        total += count;
        println!(
            "{:<24} {:<24} {:>6} {:>14}",
            g.name(),
            p.name(),
            count,
            if same { "yes" } else { "no" }
        );
    }
    println!(
        "\n{}/{} of the top-confusion mass stays within one continent",
        within, total
    );

    println!("\nper-class recall (worst 6):");
    let mut per: Vec<(usize, f64, u64)> = (0..26)
        .map(|c| {
            (
                c,
                result.report.confusion.recall(c),
                result.report.confusion.support(c),
            )
        })
        .collect();
    per.sort_by(|a, b| a.1.total_cmp(&b.1));
    for &(c, recall, support) in per.iter().take(6) {
        println!(
            "  {:<24} recall {:.2}  (n = {support})",
            CuisineId(c as u8).name(),
            recall
        );
    }

    if args.has_flag("--full") {
        println!("\nfull per-class report:");
        print!(
            "{}",
            result
                .report
                .per_class_table(&|c| CuisineId(c as u8).name().to_string())
        );
    }
}
