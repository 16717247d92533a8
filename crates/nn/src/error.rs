//! Error type for the nn crate.

use lts_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced while building, running, or training networks.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A layer received an input whose shape it cannot process.
    BadInput {
        /// Name of the offending layer.
        layer: String,
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// An invalid layer or network configuration.
    BadConfig(String),
    /// A network snapshot could not be captured or serialized.
    SaveFailed(String),
    /// A persisted snapshot failed parsing or validation.
    MalformedSnapshot(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadInput { layer, reason } => {
                write!(f, "layer `{layer}` received bad input: {reason}")
            }
            NnError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            NnError::SaveFailed(msg) => write!(f, "could not save network: {msg}"),
            NnError::MalformedSnapshot(msg) => write!(f, "malformed network snapshot: {msg}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer_name() {
        let e = NnError::BadInput { layer: "conv1".into(), reason: "rank 2".into() };
        assert!(e.to_string().contains("conv1"));
    }

    #[test]
    fn tensor_errors_convert() {
        let te = TensorError::InvalidArgument("x".into());
        let ne: NnError = te.clone().into();
        assert_eq!(ne, NnError::Tensor(te));
    }

    #[test]
    fn snapshot_errors_render_their_context() {
        assert!(NnError::SaveFailed("no params".into()).to_string().contains("no params"));
        let e = NnError::MalformedSnapshot("truncated".into());
        assert!(e.to_string().contains("malformed network snapshot"));
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<NnError>();
    }
}
