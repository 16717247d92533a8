//! Shared helpers for the regeneration binaries.
//!
//! `paper_tables` regenerates the paper's tables and figures by name; the
//! other binaries sweep the extensions (faults, serving, multi-chip
//! packages, quantization, ablations) and `bench_history` judges host
//! time. See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured values. The effort level is chosen with the
//! `LTS_EFFORT` environment variable (`quick` or `paper`, default
//! `paper`), parsed once by [`effort_from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

use lts_core::experiment::EffortPreset;

/// Reads the effort preset from `LTS_EFFORT` (default: `paper`).
///
/// # Panics
///
/// Panics on an unrecognized value, listing the accepted ones.
pub fn effort_from_env() -> EffortPreset {
    match std::env::var("LTS_EFFORT").as_deref() {
        Ok("quick") => EffortPreset::quick(),
        Ok("paper") | Err(_) => EffortPreset::paper(),
        Ok(other) => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    }
}

/// Prints the standard experiment banner, with the training effort when
/// the run trains networks.
pub fn banner(what: &str, preset: Option<&EffortPreset>) {
    println!("=== Learn-to-Scale reproduction: {what} ===");
    if let Some(p) = preset {
        println!(
            "(effort: {} train / {} test samples, {} epochs, seed {})",
            p.train_samples, p.test_samples, p.epochs, p.seed
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_effort_is_paper() {
        // Unless the variable is set in the environment running the tests.
        if std::env::var("LTS_EFFORT").is_err() {
            assert_eq!(effort_from_env(), EffortPreset::paper());
        }
    }
}
