//! Algorithm 1: the naive seven-loop direct convolution.
//!
//! This is the workspace's correctness oracle. It is deliberately written
//! for clarity (logical indexing through accessor methods, implicit
//! zero-padding) rather than speed, and works for any activation/filter
//! layout combination because it never touches raw offsets.
//!
//! [`conv_ordered`] is its bitwise twin for nDirect: the same sum in the
//! order and rounding an nDirect plan uses, so plans are held to it with
//! `assert_eq!` rather than a tolerance.

use ndirect_tensor::{pad::at_padded, ActLayout, ConvShape, Filter, Tensor4};

use crate::error::{check_dims, BaselineError};

/// Computes the convolution with the naive algorithm, returning an output
/// tensor in the same layout family as the input (`NCHW` input → `NCHW`
/// output, `NHWC` → `NHWC`).
pub fn conv_ref(input: &Tensor4, filter: &Filter, shape: &ConvShape) -> Tensor4 {
    try_conv_ref(input, filter, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_ref`].
pub fn try_conv_ref(
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
) -> Result<Tensor4, BaselineError> {
    validate(input, filter, shape)?;
    let mut out = Tensor4::output_for(shape, input.layout());
    try_conv_ref_into(input, filter, shape, &mut out)?;
    Ok(out)
}

/// Naive convolution into a preallocated (zeroed) output tensor.
pub fn conv_ref_into(input: &Tensor4, filter: &Filter, shape: &ConvShape, out: &mut Tensor4) {
    try_conv_ref_into(input, filter, shape, out).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`conv_ref_into`].
pub fn try_conv_ref_into(
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    out: &mut Tensor4,
) -> Result<(), BaselineError> {
    validate(input, filter, shape)?;
    let (p, q) = (shape.p(), shape.q());
    check_dims("output dims", (shape.n, shape.k, p, q), out.dims())?;
    let (ph, pw) = (shape.pad.h as isize, shape.pad.w as isize);
    for n in 0..shape.n {
        for k in 0..shape.k {
            for oj in 0..p {
                for oi in 0..q {
                    let ij = (shape.stride * oj) as isize - ph;
                    let ii = (shape.stride * oi) as isize - pw;
                    let mut acc = 0.0f32;
                    for c in 0..shape.c {
                        for r in 0..shape.r {
                            for s in 0..shape.s {
                                let x = at_padded(input, n, c, ij + r as isize, ii + s as isize);
                                acc += x * filter.at(k, c, r, s);
                            }
                        }
                    }
                    *out.at_mut(n, k, oj, oi) = acc;
                }
            }
        }
    }
    Ok(())
}

/// The order-matched oracle: the convolution an nDirect plan whose channel
/// tile is `tc` computes, bit for bit. An f32 plan's per-output sum is
/// fixed by its schedule, not by its ISA, because vector lanes run over
/// output channels (or pixels), never over the reduction. So each output
/// sums its `(c, r, s)` products in that order within each `tc`-channel
/// group, from a zero accumulator, and the groups add into the output in
/// order, from zero. Padding taps are products with zero, as in the packed
/// strip. `fused` rounds each multiply-add once (`f32::mul_add`), as a
/// kernel whose vector fuses it does; otherwise the product rounds before
/// the add. `tc` is clamped to `[1, C]`, as the plans clamp it.
///
/// Panics on mismatched dimensions, like [`conv_ref`].
pub fn conv_ordered(
    input: &Tensor4,
    filter: &Filter,
    shape: &ConvShape,
    tc: usize,
    fused: bool,
) -> Tensor4 {
    validate(input, filter, shape).unwrap_or_else(|e| panic!("{e}"));
    let tc = tc.clamp(1, shape.c);
    let mut out = Tensor4::output_for(shape, input.layout());
    let (ph, pw) = (shape.pad.h as isize, shape.pad.w as isize);
    for n in 0..shape.n {
        for k in 0..shape.k {
            for oj in 0..shape.p() {
                for oi in 0..shape.q() {
                    let ij = (shape.stride * oj) as isize - ph;
                    let ii = (shape.stride * oi) as isize - pw;
                    let mut acc = 0.0f32;
                    for ct in (0..shape.c).step_by(tc) {
                        let mut group = 0.0f32;
                        for c in ct..(ct + tc).min(shape.c) {
                            for r in 0..shape.r {
                                for s in 0..shape.s {
                                    let x = at_padded(input, n, c, ij + r as isize, ii + s as isize);
                                    let w = filter.at(k, c, r, s);
                                    group = if fused { x.mul_add(w, group) } else { group + x * w };
                                }
                            }
                        }
                        acc += group;
                    }
                    *out.at_mut(n, k, oj, oi) = acc;
                }
            }
        }
    }
    out
}

fn validate(input: &Tensor4, filter: &Filter, shape: &ConvShape) -> Result<(), BaselineError> {
    shape.validate()?;
    check_dims(
        "input dims",
        (shape.n, shape.c, shape.h, shape.w),
        input.dims(),
    )?;
    check_dims(
        "filter dims",
        (shape.k, shape.c, shape.r, shape.s),
        filter.dims(),
    )
}

/// Convenience wrapper returning an `NCHW` output regardless of input
/// layout (what the cross-backend tests compare against).
pub fn conv_ref_nchw(input: &Tensor4, filter: &Filter, shape: &ConvShape) -> Tensor4 {
    conv_ref(input, filter, shape).to_layout(ActLayout::Nchw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, FilterLayout, Padding};

    #[test]
    fn identity_1x1_kernel_copies_input() {
        let shape = ConvShape::new(1, 1, 3, 3, 1, 1, 1, 1, Padding::NONE);
        let mut input = Tensor4::input_for(&shape, ActLayout::Nchw);
        fill::fill_iota(input.as_mut_slice());
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        filter.as_mut_slice()[0] = 1.0;
        let out = conv_ref(&input, &filter, &shape);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_window() {
        // 3x3 all-ones kernel over constant input of 2.0 -> 18 everywhere
        // (interior, valid conv).
        let shape = ConvShape::new(1, 1, 5, 5, 1, 3, 3, 1, Padding::NONE);
        let mut input = Tensor4::input_for(&shape, ActLayout::Nchw);
        fill::fill_const(input.as_mut_slice(), 2.0);
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        fill::fill_const(filter.as_mut_slice(), 1.0);
        let out = conv_ref(&input, &filter, &shape);
        assert!(out.as_slice().iter().all(|&x| (x - 18.0).abs() < 1e-6));
    }

    #[test]
    fn padding_zeroes_contribute_nothing() {
        // Same-padded box filter: corner output sums only the 2x2 live
        // window -> 4 * 2.0.
        let shape = ConvShape::new(1, 1, 4, 4, 1, 3, 3, 1, Padding::same(1));
        let mut input = Tensor4::input_for(&shape, ActLayout::Nchw);
        fill::fill_const(input.as_mut_slice(), 2.0);
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        fill::fill_const(filter.as_mut_slice(), 1.0);
        let out = conv_ref(&input, &filter, &shape);
        assert_eq!(out.at(0, 0, 0, 0), 8.0);
        assert_eq!(out.at(0, 0, 1, 1), 18.0);
    }

    #[test]
    fn stride_two_subsamples() {
        let shape = ConvShape::new(1, 1, 5, 5, 1, 1, 1, 2, Padding::NONE);
        let mut input = Tensor4::input_for(&shape, ActLayout::Nchw);
        fill::fill_iota(input.as_mut_slice());
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        filter.as_mut_slice()[0] = 1.0;
        let out = conv_ref(&input, &filter, &shape);
        assert_eq!(out.dims(), (1, 1, 3, 3));
        assert_eq!(out.at(0, 0, 0, 0), 0.0);
        assert_eq!(out.at(0, 0, 0, 1), 2.0);
        assert_eq!(out.at(0, 0, 1, 0), 10.0);
        assert_eq!(out.at(0, 0, 2, 2), 24.0);
    }

    #[test]
    fn channels_reduce() {
        // Two input channels with distinguishable filters.
        let shape = ConvShape::new(1, 2, 2, 2, 1, 1, 1, 1, Padding::NONE);
        let mut input = Tensor4::input_for(&shape, ActLayout::Nchw);
        fill::fill_iota(input.as_mut_slice()); // ch0: 0..4, ch1: 4..8
        let mut filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        *filter.at_mut(0, 0, 0, 0) = 1.0;
        *filter.at_mut(0, 1, 0, 0) = 10.0;
        let out = conv_ref(&input, &filter, &shape);
        assert_eq!(out.at(0, 0, 0, 0), 0.0 + 10.0 * 4.0);
        assert_eq!(out.at(0, 0, 1, 1), 3.0 + 10.0 * 7.0);
    }

    #[test]
    fn layout_independent_results() {
        let shape = ConvShape::square(2, 3, 4, 6, 3, 1);
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 7);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 7);
        let out_nchw = conv_ref(&input, &filter, &shape);

        let input_nhwc = input.to_layout(ActLayout::Nhwc);
        let filter_krsc = filter.to_layout(FilterLayout::Krsc);
        let out_nhwc = conv_ref(&input_nhwc, &filter_krsc, &shape);

        assert_eq!(out_nhwc.layout(), ActLayout::Nhwc);
        ndirect_tensor::assert_close(
            out_nhwc.to_layout(ActLayout::Nchw).as_slice(),
            out_nchw.as_slice(),
            1e-5,
            "layout independence",
        );
    }

    #[test]
    fn ordered_oracle_groups_and_rounds_as_asked() {
        let shape = ConvShape::new(1, 5, 6, 6, 3, 3, 3, 1, Padding::same(1));
        let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), 11);
        let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 12);
        // One group, unfused, is the naive loop's own order.
        let naive = conv_ref(&input, &filter, &shape);
        assert_eq!(conv_ordered(&input, &filter, &shape, 5, false).as_slice(), naive.as_slice());
        assert_eq!(conv_ordered(&input, &filter, &shape, 99, false).as_slice(), naive.as_slice());
        // Grouping and fusing move bits, not values.
        for (tc, fused) in [(2, false), (1, true), (5, true)] {
            let got = conv_ordered(&input, &filter, &shape, tc, fused);
            assert_ne!(got.as_slice(), naive.as_slice(), "tc {tc}, fused {fused}");
            ndirect_tensor::assert_close(got.as_slice(), naive.as_slice(), 1e-5, "ordered");
        }
    }

    #[test]
    #[should_panic(expected = "input dims")]
    fn rejects_mismatched_input() {
        let shape = ConvShape::square(1, 3, 4, 8, 3, 1);
        let input = Tensor4::zeros(1, 2, 8, 8, ActLayout::Nchw);
        let filter = Filter::for_shape(&shape, FilterLayout::Kcrs);
        conv_ref(&input, &filter, &shape);
    }
}
