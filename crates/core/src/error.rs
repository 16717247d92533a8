//! Unified error type for the core crate.

use lts_nn::NnError;
use lts_noc::NocError;
use lts_partition::PlanError;
use std::error::Error;
use std::fmt;

/// Errors from pipelines, system modelling, or experiments.
#[derive(Debug)]
pub enum CoreError {
    /// Neural-network construction or training failed.
    Nn(NnError),
    /// NoC simulation failed.
    Noc(NocError),
    /// Plan construction failed.
    Plan(PlanError),
    /// An invalid experiment configuration.
    BadConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Noc(e) => write!(f, "NoC error: {e}"),
            CoreError::Plan(e) => write!(f, "plan error: {e}"),
            CoreError::BadConfig(msg) => write!(f, "bad experiment configuration: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Noc(e) => Some(e),
            CoreError::Plan(e) => Some(e),
            CoreError::BadConfig(_) => None,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<NocError> for CoreError {
    fn from(e: NocError) -> Self {
        CoreError::Noc(e)
    }
}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        CoreError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = NnError::BadConfig("x".into()).into();
        assert!(e.to_string().contains("network error"));
        let e: CoreError = NocError::BadConfig("y".into()).into();
        assert!(e.to_string().contains("NoC error"));
        let e: CoreError = PlanError::BadConfig("z".into()).into();
        assert!(e.to_string().contains("plan error"));
        assert!(CoreError::BadConfig("w".into()).to_string().contains("w"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<CoreError>();
    }

    #[test]
    fn source_exposes_the_wrapped_error() {
        let e: CoreError = PlanError::BadConfig("z".into()).into();
        let source = e.source().expect("plan errors wrap a source");
        assert_eq!(source.to_string(), PlanError::BadConfig("z".into()).to_string());
        assert!(CoreError::BadConfig("w".into()).source().is_none());
        let e: CoreError = NocError::BadConfig("y".into()).into();
        assert!(e.source().is_some());
        assert_eq!(CoreError::BadConfig("w".into()).to_string(), "bad experiment configuration: w");
    }
}
