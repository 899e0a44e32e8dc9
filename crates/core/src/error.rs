//! The typed error taxonomy for the fallible conv API layer.
//!
//! Every `try_`-prefixed entry point returns [`Error`]; the panicking
//! entry points are thin wrappers that `panic!("{error}")`, so the panic
//! messages users saw before the fallible layer existed are exactly the
//! [`std::fmt::Display`] strings here.
//!
//! Validation happens **once, at the API boundary**: the drivers check
//! shapes, layouts, dims and schedule/pool compatibility up front and the
//! inner loops run assertion-free on trusted values.

use ndirect_tensor::ShapeError;
use ndirect_threads::PoolError;

/// Why a convolution entry point could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The [`ndirect_tensor::ConvShape`] is internally inconsistent
    /// (zero dims, kernel larger than the padded input, element-count
    /// overflow, …).
    Shape(ShapeError),
    /// The thread pool could not execute the parallel region (nested
    /// region, failed worker respawn, …).
    Pool(PoolError),
    /// A tensor arrived in a layout this entry point does not accept.
    Layout {
        /// Which contract was violated, e.g. `"plan executes NCHW input"`.
        context: &'static str,
        /// The layout the entry point requires.
        expected: &'static str,
        /// The layout it received.
        got: &'static str,
    },
    /// A tensor's dimensions disagree with the [`ndirect_tensor::ConvShape`].
    DimMismatch {
        /// Which operand: `"input dims"`, `"filter dims"`, `"output dims"`.
        what: &'static str,
        /// Dimensions implied by the shape.
        expected: (usize, usize, usize, usize),
        /// Dimensions of the tensor actually passed.
        got: (usize, usize, usize, usize),
    },
    /// A depthwise entry point got a shape with a cross-channel reduction.
    NotDepthwise {
        /// Output channels of the offending shape.
        k: usize,
        /// Input channels of the offending shape.
        c: usize,
    },
    /// The schedule's thread grid wants more threads than the pool has.
    GridExceedsPool {
        /// `schedule.grid.threads()`.
        needed: usize,
        /// `pool.size()`.
        available: usize,
    },
    /// Allocating per-thread scratch (packing buffer, filter-transform
    /// block) failed even after degrading to the minimal-tile fallback.
    ScratchAlloc {
        /// Number of `f32` elements in the request that failed.
        elements: usize,
    },
    /// The requested execution path is not available on this build/CPU
    /// (e.g. a forced SIMD backend the host cannot run).
    Unsupported {
        /// Human-readable description of what was requested.
        what: &'static str,
    },
    /// The binary's kernels were compiled for an ISA extension the host
    /// CPU does not report (see [`ndirect_simd::verify_host`]).
    Isa(ndirect_simd::UnsupportedIsa),
    /// A model/graph-level inconsistency (layer chaining, engine inputs).
    Config {
        /// Human-readable description of the inconsistency.
        msg: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Shape(e) => write!(f, "{e}"),
            Error::Pool(e) => write!(f, "{e}"),
            Error::Layout {
                context,
                expected,
                got,
            } => write!(f, "{context}: expected {expected}, got {got}"),
            Error::DimMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} mismatch: shape implies {expected:?}, tensor is {got:?}"),
            Error::NotDepthwise { k, c } => write!(
                f,
                "depthwise convolution needs K == C (channel multiplier 1), got K={k}, C={c}"
            ),
            Error::GridExceedsPool { needed, available } => {
                write!(f, "schedule needs {needed} threads, pool has {available}")
            }
            Error::ScratchAlloc { elements } => {
                write!(f, "failed to allocate {elements}-element f32 scratch buffer")
            }
            Error::Unsupported { what } => write!(f, "unsupported on this build/CPU: {what}"),
            Error::Isa(e) => write!(f, "{e}"),
            Error::Config { msg } => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Shape(e) => Some(e),
            Error::Pool(e) => Some(e),
            Error::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for Error {
    fn from(e: ShapeError) -> Self {
        Error::Shape(e)
    }
}

impl From<PoolError> for Error {
    fn from(e: PoolError) -> Self {
        Error::Pool(e)
    }
}

impl From<ndirect_simd::UnsupportedIsa> for Error {
    fn from(e: ndirect_simd::UnsupportedIsa) -> Self {
        Error::Isa(e)
    }
}

/// Boundary-validation helpers shared by the drivers.
pub(crate) mod check {
    use super::Error;
    use ndirect_tensor::{ActLayout, ConvShape, Filter, FilterLayout, Tensor4};

    /// Confirms the host CPU supports the compiled SIMD backend. Called
    /// once per fallible entry so an ISA mismatch surfaces as a typed
    /// error instead of an illegal-instruction fault mid-kernel.
    pub(crate) fn isa() -> Result<(), Error> {
        ndirect_simd::verify_host()?;
        Ok(())
    }

    pub(crate) fn act_layout_name(l: ActLayout) -> &'static str {
        match l {
            ActLayout::Nchw => "NCHW",
            ActLayout::Nhwc => "NHWC",
        }
    }

    pub(crate) fn filter_layout_name(l: FilterLayout) -> &'static str {
        match l {
            FilterLayout::Kcrs => "KCRS",
            FilterLayout::Krsc => "KRSC",
        }
    }

    pub(crate) fn act_layout(
        t: &Tensor4,
        want: ActLayout,
        context: &'static str,
    ) -> Result<(), Error> {
        if t.layout() != want {
            return Err(Error::Layout {
                context,
                expected: act_layout_name(want),
                got: act_layout_name(t.layout()),
            });
        }
        Ok(())
    }

    pub(crate) fn filter_layout(
        t: &Filter,
        want: FilterLayout,
        context: &'static str,
    ) -> Result<(), Error> {
        if t.layout() != want {
            return Err(Error::Layout {
                context,
                expected: filter_layout_name(want),
                got: filter_layout_name(t.layout()),
            });
        }
        Ok(())
    }

    pub(crate) fn dims(
        what: &'static str,
        expected: (usize, usize, usize, usize),
        got: (usize, usize, usize, usize),
    ) -> Result<(), Error> {
        if expected != got {
            return Err(Error::DimMismatch {
                what,
                expected,
                got,
            });
        }
        Ok(())
    }

    /// A depthwise entry point needs `K == C` (channel multiplier 1).
    pub(crate) fn depthwise_shape(shape: &ConvShape) -> Result<(), Error> {
        if shape.k != shape.c {
            return Err(Error::NotDepthwise {
                k: shape.k,
                c: shape.c,
            });
        }
        Ok(())
    }

    /// A depthwise filter is `(C, 1, R, S)` in `KCRS`; `what` names the
    /// operand in the [`Error::DimMismatch`].
    pub(crate) fn depthwise_filter(
        shape: &ConvShape,
        filter: &Filter,
        what: &'static str,
        context: &'static str,
    ) -> Result<(), Error> {
        dims(what, (shape.c, 1, shape.r, shape.s), filter.dims())?;
        filter_layout(filter, FilterLayout::Kcrs, context)
    }

    /// The standard (input, filter) boundary check shared by the NCHW/KCRS
    /// entry points.
    pub(crate) fn standard_nchw(
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
        context: &'static str,
    ) -> Result<(), Error> {
        isa()?;
        shape.validate()?;
        act_layout(input, ActLayout::Nchw, context)?;
        filter_layout(filter, FilterLayout::Kcrs, context)?;
        dims(
            "input dims",
            (shape.n, shape.c, shape.h, shape.w),
            input.dims(),
        )?;
        dims(
            "filter dims",
            (shape.k, shape.c, shape.r, shape.s),
            filter.dims(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_panic_substrings() {
        // The panicking wrappers panic with these Display strings; tests
        // that used `should_panic(expected = …)` against the old asserts
        // must keep passing.
        let grid = Error::GridExceedsPool {
            needed: 8,
            available: 2,
        };
        assert!(grid.to_string().contains("schedule needs"));
        let dw = Error::NotDepthwise { k: 8, c: 4 };
        assert!(dw.to_string().contains("K == C"));
        let dims = Error::DimMismatch {
            what: "input dims",
            expected: (1, 2, 3, 4),
            got: (1, 2, 3, 5),
        };
        assert!(dims.to_string().contains("input dims"));
    }

    #[test]
    fn wraps_layer_errors_with_source() {
        use std::error::Error as _;
        let e = Error::from(ndirect_tensor::ShapeError::ZeroStride);
        assert!(e.source().is_some());
        let e = Error::from(ndirect_threads::PoolError::NestedRun);
        assert!(e.to_string().contains("not reentrant"));
    }
}
