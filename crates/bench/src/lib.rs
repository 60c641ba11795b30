//! Shared helpers for the table/figure harness binaries.
//!
//! Every binary accepts `--scale small|medium|paper|<fraction>` and
//! `--seed <n>`; run them with `cargo run --release -p bench --bin <name>`.

use cuisine::{PipelineConfig, Scale};

pub mod serving;

/// Command-line options shared by all harness binaries, plus the flags
/// one binary declares for itself.
///
/// A binary names every flag it reads, each as it would appear in a usage
/// line: `"--json PATH"` takes a value, a lone `"--csv"` is a switch.
/// Anything else on the command line, a misspelled or retired flag
/// included, fails the parse, so a gate flag that no binary reads any more
/// can never pass silently.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Seed.
    pub seed: u64,
    /// The declared flags that were given, in order, each with its value
    /// (`None` for a switch).
    given: Vec<(String, Option<String>)>,
    /// The binary's flag specs.
    flags: &'static [&'static str],
}

impl HarnessArgs {
    /// Parses `std::env::args` against the binary's flag specs. On an
    /// unknown argument, a missing value or a bad `--scale`/`--seed` it
    /// prints the error and a usage line, and exits with status 2 before
    /// the binary does any work.
    pub fn parse(flags: &'static [&'static str]) -> Self {
        Self::from_iter(std::env::args().skip(1), flags).unwrap_or_else(|e| {
            let bin = std::env::args()
                .next()
                .and_then(|p| {
                    std::path::Path::new(&p)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                })
                .unwrap_or_else(|| "harness".to_string());
            eprintln!("{bin}: {e}");
            eprintln!("{}", usage(&bin, flags));
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list against `flags` (testable).
    ///
    /// # Errors
    ///
    /// An argument that is neither `--scale`, `--seed` nor a declared flag,
    /// a value flag given last without its value, or an unparsable
    /// `--scale`/`--seed` value.
    #[allow(clippy::should_implement_trait)] // named after structopt's API
    pub fn from_iter(
        args: impl IntoIterator<Item = String>,
        flags: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut scale = Scale::Small;
        let mut seed = 2020;
        let mut given = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--scale" => scale = parse_scale(&value("--scale")?)?,
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?;
                }
                _ => {
                    let spec = flags
                        .iter()
                        .find(|spec| flag_name(spec) == arg)
                        .ok_or_else(|| format!("unknown argument {arg:?}"))?;
                    let v = if spec.contains(' ') {
                        Some(value(&arg)?)
                    } else {
                        None
                    };
                    given.push((arg, v));
                }
            }
        }
        Ok(Self {
            scale,
            seed,
            given,
            flags,
        })
    }

    /// The pipeline config these options select.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig::new(self.scale, self.seed)
    }

    /// The value given for a declared value flag, if it was given.
    ///
    /// # Panics
    ///
    /// Panics if the binary did not declare `key`: a flag it reads must be
    /// one the parse accepts.
    pub fn value_of(&self, key: &str) -> Option<&str> {
        self.assert_declared(key);
        self.given
            .iter()
            .find(|(flag, _)| flag == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether a declared switch was given.
    ///
    /// # Panics
    ///
    /// Panics if the binary did not declare `flag`.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.assert_declared(flag);
        self.given.iter().any(|(f, _)| f == flag)
    }

    fn assert_declared(&self, key: &str) {
        assert!(
            self.flags.iter().any(|spec| flag_name(spec) == key),
            "{key} is read but not among the declared flags {:?}",
            self.flags
        );
    }

    /// Turns tracing on when `--trace` was passed (or `CUISINE_TRACE` is
    /// set in the environment). Call once at binary startup, before any
    /// work worth timing.
    pub fn init_trace(&self) -> bool {
        let on = trace::init_from_env() || self.has_flag("--trace");
        if on {
            trace::enable();
        }
        on
    }

    /// Snapshots the trace, writes it to `RUN_trace.json` (override with
    /// `--trace-out <path>`) and prints the span tree to stderr. No-op
    /// returning `None` when tracing is off.
    pub fn finish_trace(&self) -> Option<std::path::PathBuf> {
        if !trace::enabled() {
            return None;
        }
        let snap = trace::snapshot();
        let path =
            std::path::PathBuf::from(self.value_of("--trace-out").unwrap_or("RUN_trace.json"));
        std::fs::write(&path, snap.to_json()).expect("write trace json");
        eprintln!("{}", cuisine::report::render_trace_tree(&snap));
        eprintln!("wrote {}", path.display());
        Some(path)
    }
}

/// The flag a spec declares: its first word.
fn flag_name(spec: &str) -> &str {
    spec.split(' ').next().unwrap_or(spec)
}

fn usage(bin: &str, flags: &[&str]) -> String {
    let mut line = format!("usage: {bin} [--scale small|medium|paper|FRACTION] [--seed N]");
    for spec in flags {
        line.push_str(&format!(" [{spec}]"));
    }
    line
}

fn parse_scale(v: &str) -> Result<Scale, String> {
    Ok(match v {
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "paper" => Scale::Paper,
        other => Scale::Custom(
            other
                .parse::<f64>()
                .map_err(|_| format!("bad scale {other:?}: use small|medium|paper|fraction"))?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["--which NAME", "--csv", "--json PATH"];

    fn try_parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::from_iter(args.iter().map(|s| s.to_string()), FLAGS)
    }

    fn parse(args: &[&str]) -> HarnessArgs {
        try_parse(args).unwrap()
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seed, 2020);
    }

    #[test]
    fn scale_variants() {
        assert_eq!(parse(&["--scale", "paper"]).scale, Scale::Paper);
        assert_eq!(parse(&["--scale", "medium"]).scale, Scale::Medium);
        assert_eq!(parse(&["--scale", "0.05"]).scale, Scale::Custom(0.05));
    }

    #[test]
    fn seed_and_rest() {
        let a = parse(&["--seed", "7", "--which", "train", "--csv"]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.value_of("--which"), Some("train"));
        assert!(a.has_flag("--csv"));
        assert_eq!(a.value_of("--json"), None);
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn bad_scale_panics() {
        let _ = parse(&["--scale", "banana"]);
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        for args in [
            &["--quant-json", "q.json"][..],
            &["--which", "train", "--min-agreement", "0.99"],
            &["--jsn", "out.json"],
            &["stray"],
        ] {
            let err = try_parse(args).unwrap_err();
            let named = args.iter().find(|a| !["--which", "train"].contains(a));
            assert!(err.contains(named.unwrap()), "{args:?}: {err}");
        }
        assert!(try_parse(&["--json"])
            .unwrap_err()
            .contains("--json needs a value"));
        assert!(try_parse(&["--seed", "x"]).is_err());
    }

    #[test]
    fn a_known_flag_takes_its_value_even_when_it_looks_like_a_flag() {
        let a = parse(&["--json", "--csv", "--which", "val"]);
        assert_eq!(a.value_of("--json"), Some("--csv"));
        assert_eq!(a.value_of("--which"), Some("val"));
        assert!(!a.has_flag("--csv"));
        assert_eq!(parse(&[]).value_of("--json"), None);
    }

    #[test]
    #[should_panic(expected = "--top is read but not among the declared flags")]
    fn reading_an_undeclared_flag_panics() {
        let _ = parse(&[]).value_of("--top");
    }
}
