//! Feature-frequency figures (`feat`, `feature`, `final_edit`): the
//! rank-frequency head of the vocabulary and the cumulative tail, the
//! dataset-shape evidence behind the paper's §III.
//!
//! `cargo run --release -p bench --bin fig_features [--top 25]`

use bench::HarnessArgs;
use cuisine::report::render_feature_figure;
use recipedb::{generate, DatasetStats, EntityId};

fn main() {
    let args = HarnessArgs::parse(&["--top N"]);
    let config = args.config();
    let top: usize = args
        .value_of("--top")
        .map(|v| v.parse().expect("--top must be an integer"))
        .unwrap_or(25);

    let dataset = generate(&config.generator);
    let stats = DatasetStats::compute(&dataset);

    let table = dataset.table.clone();
    let names = move |id: u32| table.name(EntityId(id)).to_string();
    print!("{}", render_feature_figure(&stats, &names, top));

    // tail summary: how many features sit below each small frequency
    println!("\ncumulative tail:");
    for bound in [2u64, 3, 5, 10, 20] {
        println!(
            "  features with frequency < {bound}: {}",
            stats.features_below(bound)
        );
    }
    println!(
        "\ndistinct features {} | total tokens {} | mean recipe length {:.1}",
        stats.distinct_features, stats.total_tokens, stats.mean_recipe_length
    );

    println!("\nrecipe-length histogram (width 5):");
    let hist = recipedb::length_histogram(&dataset, 5);
    let max = hist.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for (start, count) in hist {
        if count == 0 {
            continue;
        }
        let bar = "▇".repeat((count * 40 / max).max(1));
        println!("  {:>3}-{:>3} {bar} {count}", start, start + 4);
    }
}
