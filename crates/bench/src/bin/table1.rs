//! Table I — sample rows of the (synthetic) RecipeDB: one sequential
//! recipe per continent, mirroring the paper's example table.
//!
//! `cargo run --release -p bench --bin table1 [--scale small] [--seed N]`

use bench::HarnessArgs;
use recipedb::{generate, Continent};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let dataset = generate(&args.config().generator);

    println!("Table I — sample dataset from synthetic RecipeDB");
    println!(
        "{:<10} {:<16} {:<24} Recipe",
        "Recipe ID", "Continent", "Cuisine"
    );
    for continent in Continent::all() {
        let Some(recipe) = dataset.recipes.iter().find(|r| r.continent() == continent) else {
            continue;
        };
        let names: Vec<&str> = recipe
            .tokens
            .iter()
            .map(|&t| dataset.table.name(t))
            .collect();
        let preview = if names.len() > 10 {
            format!(
                "['{}', …, '{}']",
                names[..5].join("', '"),
                names[names.len() - 4..].join("', '")
            )
        } else {
            format!("['{}']", names.join("', '"))
        };
        println!(
            "{:<10} {:<16} {:<24} {}",
            recipe.id.0,
            continent.name(),
            recipe.cuisine.name(),
            preview
        );
    }
}
