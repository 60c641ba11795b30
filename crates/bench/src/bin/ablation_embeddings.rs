//! Ablation: random vs skip-gram-pre-trained embedding initialisation for
//! the LSTM — §IV's "word embedding" vectorization path made explicit.
//!
//! `cargo run --release -p bench --bin ablation_embeddings`

use bench::HarnessArgs;
use cuisine::Pipeline;
use nn::{train_word2vec, AdamW, LstmClassifier, Trainer, Word2VecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let config = args.config();
    eprintln!("preparing corpus…");
    let pipeline = Pipeline::prepare(&config);
    let train = pipeline.examples_of(&pipeline.data.split.train);
    let val = pipeline.examples_of(&pipeline.data.split.val);
    let test = pipeline.examples_of(&pipeline.data.split.test);

    eprintln!("training skip-gram embeddings on the training split…");
    let corpus: Vec<Vec<usize>> = train.iter().map(|(ids, _)| ids.clone()).collect();
    let embeddings = train_word2vec(
        &corpus,
        config.models.lstm.vocab,
        &Word2VecConfig {
            dim: config.models.lstm.emb_dim,
            epochs: 5,
            seed: config.seed,
            ..Default::default()
        },
    );

    // show a couple of neighborhoods as a sanity check
    let vocab = &pipeline.data.vocab;
    for id in vocab.content_ids().take(3) {
        let names: Vec<String> = embeddings
            .nearest(id as usize, 3)
            .into_iter()
            .filter(|&(j, _)| j < vocab.len())
            .map(|(j, s)| format!("{} ({s:.2})", vocab.token(j as u32)))
            .collect();
        eprintln!("  '{}' → {}", vocab.token(id), names.join(", "));
    }

    let trainer = Trainer::new(config.models.lstm_trainer);
    println!("Ablation — LSTM embedding initialisation");
    for (label, pretrained) in [("random init", false), ("skip-gram init", true)] {
        let mut mrng = StdRng::seed_from_u64(config.seed);
        let mut model = LstmClassifier::new(config.models.lstm, &mut mrng);
        if pretrained {
            let mut table = embeddings.table().clone();
            // rescale to the layer's expected N(0, 0.02) magnitude
            let std = (table.norm_sq() / table.len() as f32).sqrt();
            if std > 0.0 {
                table.scale(0.02 / std);
            }
            model.set_pretrained_embeddings(table);
        }
        let mut opt = AdamW::default();
        let history = trainer
            .fit(&mut model, &mut opt, &train, Some(&val))
            .expect("LSTM training failed");
        let (_, acc, _, _) = trainer.evaluate(&model, &test).expect("evaluation failed");
        println!(
            "  {label:<16} test accuracy {:.2}%  (first-epoch val acc {:.2}%)",
            acc * 100.0,
            history.epochs[0].val_accuracy.unwrap_or(0.0) * 100.0
        );
    }
}
