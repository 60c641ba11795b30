//! Table II — recipes per cuisine, paper vs generated.
//!
//! `cargo run --release -p bench --bin table2 [--scale paper]`

use bench::HarnessArgs;
use cuisine::report::render_table2;
use recipedb::{generate, DatasetStats};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    let dataset = generate(&config.generator);
    let stats = DatasetStats::compute(&dataset);
    print!("{}", render_table2(&stats, config.generator.scale));
}
