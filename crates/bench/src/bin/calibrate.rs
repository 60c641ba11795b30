//! Generator-calibration sweep: measures statistical-model accuracy as a
//! function of the planted signal strength. Used to pick the
//! `SignalProfile` defaults that land the Table IV reproduction in the
//! paper's accuracy band; kept in-tree so the calibration is repeatable.
//!
//! `cargo run --release -p bench --bin calibrate`

use bench::HarnessArgs;
use cuisine::{ModelKind, Pipeline, PipelineConfig};
use recipedb::SignalProfile;

fn main() {
    let args = HarnessArgs::parse(&[]);

    let variants: Vec<(&str, SignalProfile)> = vec![
        (
            "sig160 tilt30 shared0.4",
            SignalProfile {
                signature_size: 160,
                bag_tilt: 30.0,
                shared_fraction: 0.4,
                ..Default::default()
            },
        ),
        (
            "sig200 tilt40 shared0.45",
            SignalProfile {
                signature_size: 200,
                bag_tilt: 40.0,
                shared_fraction: 0.45,
                ..Default::default()
            },
        ),
        (
            "sig240 tilt50 shared0.5",
            SignalProfile {
                signature_size: 240,
                bag_tilt: 50.0,
                shared_fraction: 0.5,
                ..Default::default()
            },
        ),
        (
            "sig280 tilt60 shared0.55",
            SignalProfile {
                signature_size: 280,
                bag_tilt: 60.0,
                shared_fraction: 0.55,
                ..Default::default()
            },
        ),
    ];

    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8}",
        "signal", "LogReg", "NB", "SVM", "RF"
    );
    for (label, signal) in variants {
        let mut config = PipelineConfig::new(args.scale, args.seed);
        config.generator.signal = signal;
        let pipeline = Pipeline::prepare(&config);
        let acc = |kind: ModelKind| pipeline.run(kind, &config).report.accuracy_pct();
        println!(
            "{:<26} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            label,
            acc(ModelKind::LogReg),
            acc(ModelKind::NaiveBayes),
            acc(ModelKind::SvmLinear),
            acc(ModelKind::RandomForest),
        );
    }
}
