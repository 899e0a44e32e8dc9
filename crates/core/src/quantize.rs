//! Quantization helpers around the INT16 kernel: symmetric linear
//! quantization `x ≈ scale · q` with i16 codes, plus an end-to-end
//! quantized convolution that returns dequantized FP32 — what a framework
//! integrating [`crate::try_conv_int16`] actually calls.

use ndirect_tensor::{ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

use crate::error::{check, Error};
use crate::int16::{Int16Filter, Int16Tensor};

/// Symmetric per-tensor quantization parameters: `real = scale · code`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step size: `real = scale · code`.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses the scale that maps the tensor's max magnitude to
    /// `max_code` (default headroom keeps `C·R·S` i32 accumulations safe:
    /// `max_code²·C·R·S < 2³¹`).
    pub fn fit(data: &[f32], max_code: i16) -> Self {
        let max_abs = data.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / max_code as f32
        };
        QuantParams { scale }
    }

    /// Quantizes one value (round-to-nearest, saturating).
    #[inline]
    pub fn quantize(&self, x: f32) -> i16 {
        let q = (x / self.scale).round();
        // CAST: f32 -> i16 after clamping to the exact i16 range, so the
        // truncation is the documented saturating behaviour (NaN maps to 0).
        q.clamp(i16::MIN as f32, i16::MAX as f32) as i16
    }

    /// Dequantizes one code.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

/// The accumulator-safe code bound for a reduction of `len` terms:
/// `max_code = ⌊√(2³¹ / len)⌋`, capped at `i16::MAX`.
pub fn safe_max_code(reduction_len: usize) -> i16 {
    let bound = ((i32::MAX as f64) / reduction_len.max(1) as f64).sqrt().floor();
    // CAST: f64 -> i16 after min() against i16::MAX; bound is >= 0 by
    // construction (sqrt of a non-negative quotient), so the cast is exact.
    bound.min(i16::MAX as f64) as i16
}

/// Quantized convolution: quantizes FP32 operands to i16 (per-tensor
/// symmetric scales sized for overflow-free i32 accumulation), runs
/// [`crate::try_conv_int16`], and dequantizes back to an FP32 `NCHW` tensor.
///
/// Returns the output and the achieved quantization parameters, so callers
/// can reason about the induced error (≈ `scale_x·scale_w` per MAC).
pub fn try_conv_quantized(
    pool: &StaticPool,
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<(Tensor4, QuantParams, QuantParams), Error> {
    check::standard_nchw(input, filter, shape, "quantized path takes NCHW/KCRS")?;

    let reduction = shape.c * shape.r * shape.s;
    let max_code = safe_max_code(reduction);
    let qx = QuantParams::fit(input.as_slice(), max_code);
    let qw = QuantParams::fit(filter.as_slice(), max_code);

    let mut qi = Int16Tensor::zeros(shape.n, shape.c, shape.h, shape.w);
    for (d, &x) in qi.data.iter_mut().zip(input.as_slice()) {
        *d = qx.quantize(x);
    }
    let mut qf = Int16Filter::zeros(shape.k, shape.c, shape.r, shape.s);
    for (d, &x) in qf.data.iter_mut().zip(filter.as_slice()) {
        *d = qw.quantize(x);
    }

    let acc = crate::int16::try_conv_int16(pool, &qi, &qf, shape)?;
    let mut out = Tensor4::output_for(shape, ActLayout::Nchw);
    let combined = qx.scale * qw.scale;
    for (o, &a) in out.as_mut_slice().iter_mut().zip(&acc) {
        *o = a as f32 * combined;
    }
    Ok((out, qx, qw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, max_rel_diff, FilterLayout, Padding};

    #[test]
    fn quantize_round_trips_within_half_step() {
        let data = [0.5f32, -1.0, 0.73, 0.0, 1.0];
        let q = QuantParams::fit(&data, 127);
        for &x in &data {
            let back = q.dequantize(q.quantize(x) as i32);
            assert!((back - x).abs() <= q.scale * 0.5 + 1e-7, "{x} -> {back}");
        }
    }

    #[test]
    fn zero_tensor_gets_unit_scale() {
        let q = QuantParams::fit(&[0.0; 8], 127);
        assert_eq!(q.scale, 1.0);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn safe_max_code_respects_accumulator() {
        // reduction of 1: full i16 range allowed.
        assert_eq!(safe_max_code(1), i16::MAX);
        // 1152 = 128·9 (layer-10-like reduction): code² · 1152 < 2³¹.
        let m = safe_max_code(1152) as i64;
        assert!(m * m * 1152 <= i32::MAX as i64);
        assert!((m + 1) * (m + 1) * 1152 > i32::MAX as i64);
    }

    #[test]
    fn quantized_conv_tracks_fp32_within_quantization_error() {
        let shape = ConvShape::new(1, 8, 10, 10, 6, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 70);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 70);
        let pool = StaticPool::new(1);
        let reference = ndirect_baselines::naive::conv_ref(&input, &filter, &shape);
        let (got, qx, qw) = try_conv_quantized(&pool, &input, &filter, &shape)
            .expect("valid problem");
        // Expected error scale: ~reduction · scale_x·scale_w / 2 worst case;
        // in practice far below. 1% relative is a comfortable bound here.
        let err = max_rel_diff(got.as_slice(), reference.as_slice());
        assert!(err < 1e-2, "err {err}, scales {} {}", qx.scale, qw.scale);
        // And it must not be exact — this is a quantized path.
        assert!(err > 0.0);
    }

    #[test]
    fn quantized_conv_multithreaded_bitwise_deterministic() {
        let shape = ConvShape::new(2, 4, 8, 8, 8, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 71);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 71);
        let (a, _, _) = try_conv_quantized(&StaticPool::new(1), &input, &filter, &shape)
            .expect("valid problem");
        let (b, _, _) = try_conv_quantized(&StaticPool::new(4), &input, &filter, &shape)
            .expect("valid problem");
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
