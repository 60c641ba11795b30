//! Table III — cumulative feature-frequency distribution, paper vs
//! generated. Paper numbers hold at `--scale paper`; smaller corpora keep
//! the shape but shrink the counts.
//!
//! `cargo run --release -p bench --bin table3 [--scale paper]`

use bench::HarnessArgs;
use cuisine::report::render_table3;
use recipedb::{generate, DatasetStats};

fn main() {
    let args = HarnessArgs::parse(&["--trace", "--trace-out PATH"]);
    args.init_trace();
    let config = args.config();
    let dataset = {
        let _s = trace::span("generate");
        generate(&config.generator)
    };
    let stats = {
        let _s = trace::span("stats");
        DatasetStats::compute(&dataset)
    };
    print!("{}", render_table3(&stats, config.generator.scale));
    args.finish_trace();
}
