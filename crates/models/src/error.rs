//! Typed errors for the model IR and the forward-pass engine.

use ndirect_tensor::ShapeError;

/// Why a forward pass (or shape derivation) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The input batch does not match the model's declared input geometry.
    InputMismatch {
        /// Model display name.
        model: String,
        /// `(C, H, W)` the model declares.
        expected: (usize, usize, usize),
        /// `(C, H, W)` of the activation handed in.
        got: (usize, usize, usize),
    },
    /// The activation arrived in a layout the engine does not run.
    Layout,
    /// A conv layer's filter disagrees with the incoming channel count.
    ChannelMismatch {
        /// Channels the layer's filter reduces over.
        layer_c: usize,
        /// Channels the activation actually has.
        input_c: usize,
    },
    /// A depthwise layer's filter is not `(C, 1, R, S)` with `k == c`.
    Depthwise {
        /// What was wrong, human-readable.
        context: String,
    },
    /// A `ResidualJoin` executed with no prior `Save`.
    MissingSave,
    /// The saved shortcut's dimensions disagree with the conv output it
    /// would fuse into.
    ShortcutMismatch {
        /// Output dims the conv produces.
        expected: (usize, usize, usize, usize),
        /// Dims of the saved shortcut.
        got: (usize, usize, usize, usize),
    },
    /// A layer induced an invalid convolution shape.
    Shape(ShapeError),
    /// A convolution the engine itself dispatches (depthwise, fused
    /// dw+pw) refused to run: unsupported ISA, scratch refusal, pool fault.
    Conv(ndirect_core::Error),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InputMismatch {
                model,
                expected,
                got,
            } => write!(
                f,
                "input does not match model {model}: expects (C, H, W) = {expected:?}, got {got:?}"
            ),
            ModelError::Layout => write!(f, "engine runs NCHW"),
            ModelError::ChannelMismatch { layer_c, input_c } => write!(
                f,
                "channel mismatch entering conv layer: filter reduces over C={layer_c}, activation has C={input_c}"
            ),
            ModelError::Depthwise { context } => write!(f, "{context}"),
            ModelError::MissingSave => write!(f, "ResidualJoin without Save"),
            ModelError::ShortcutMismatch { expected, got } => write!(
                f,
                "identity shortcut must match conv output {expected:?}, got {got:?}"
            ),
            ModelError::Shape(e) => write!(f, "{e}"),
            ModelError::Conv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Shape(e) => Some(e),
            ModelError::Conv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for ModelError {
    fn from(e: ShapeError) -> Self {
        ModelError::Shape(e)
    }
}

impl From<ndirect_core::Error> for ModelError {
    fn from(e: ndirect_core::Error) -> Self {
        ModelError::Conv(e)
    }
}
