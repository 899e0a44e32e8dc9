//! Non-convolution operators of the forward pass.
//!
//! All operate on `NCHW` activations. They are deliberately simple —
//! convolutions dominate CNN inference (>90% per the paper's §1), so these
//! only need to be correct and not embarrassing.

use ndirect_gemm::{par_gemm, BlockSizes};
use ndirect_tensor::Tensor4;
use ndirect_threads::StaticPool;

/// Per-channel affine `y = scale[c]·x + shift[c]` — a batch-norm layer
/// folded into inference form (also covers plain bias with `scale = 1`).
pub fn scale_shift(t: &mut Tensor4, scale: &[f32], shift: &[f32]) {
    let (n, c, h, w) = t.dims();
    assert_eq!(scale.len(), c, "scale len");
    assert_eq!(shift.len(), c, "shift len");
    let hw = h * w;
    let data = t.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let (s, b) = (scale[ci], shift[ci]);
            let base = (ni * c + ci) * hw;
            for x in &mut data[base..base + hw] {
                *x = s * *x + b;
            }
        }
    }
}

/// Inference-form batch normalization applied directly (the unfused
/// reference the folding test compares against):
/// `y = γ·(x − μ)/√(σ²+ε) + β` per channel.
pub fn batch_norm(t: &mut Tensor4, gamma: &[f32], beta: &[f32], mean: &[f32], var: &[f32], eps: f32) {
    let (_, c, _, _) = t.dims();
    let scale: Vec<f32> = (0..c).map(|i| gamma[i] / (var[i] + eps).sqrt()).collect();
    let shift: Vec<f32> = (0..c).map(|i| beta[i] - mean[i] * scale[i]).collect();
    scale_shift(t, &scale, &shift);
}

/// In-place ReLU.
pub fn relu(t: &mut Tensor4) {
    for x in t.as_mut_slice() {
        *x = x.max(0.0);
    }
}

/// In-place elementwise add: `dst += src` (the residual join).
pub fn add_inplace(dst: &mut Tensor4, src: &Tensor4) {
    assert_eq!(dst.dims(), src.dims(), "residual shapes");
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

/// Output extent of a `k`-wide pooling window at `stride` over `extent`
/// inputs padded by `pad` on both sides.
pub(crate) fn pooled_extent(extent: usize, k: usize, stride: usize, pad: usize) -> usize {
    (extent + 2 * pad - k) / stride + 1
}

/// Max pooling with square window `k`, stride `s`, symmetric padding `p`
/// (padding contributes `-inf`, i.e. never wins).
pub fn max_pool(t: &Tensor4, k: usize, stride: usize, pad: usize) -> Tensor4 {
    let (n, c, h, w) = t.dims();
    let (ph, pw) = (pooled_extent(h, k, stride, pad), pooled_extent(w, k, stride, pad));
    let mut out = Tensor4::zeros(n, c, ph, pw, t.layout());
    for ni in 0..n {
        for ci in 0..c {
            for oj in 0..ph {
                for oi in 0..pw {
                    let mut m = f32::NEG_INFINITY;
                    for dj in 0..k {
                        for di in 0..k {
                            let ij = (oj * stride + dj) as isize - pad as isize;
                            let ii = (oi * stride + di) as isize - pad as isize;
                            if ij >= 0 && ii >= 0 && (ij as usize) < h && (ii as usize) < w {
                                m = m.max(t.at(ni, ci, ij as usize, ii as usize));
                            }
                        }
                    }
                    *out.at_mut(ni, ci, oj, oi) = m;
                }
            }
        }
    }
    out
}

/// Global average pooling: `(N, C, H, W) → (N, C, 1, 1)`.
pub fn global_avg_pool(t: &Tensor4) -> Tensor4 {
    let (n, c, h, w) = t.dims();
    let mut out = Tensor4::zeros(n, c, 1, 1, t.layout());
    let inv = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let mut acc = 0.0;
            for hi in 0..h {
                for wi in 0..w {
                    acc += t.at(ni, ci, hi, wi);
                }
            }
            *out.at_mut(ni, ci, 0, 0) = acc * inv;
        }
    }
    out
}

/// Fully-connected layer: flattens `(N, C, H, W)` to `N × (C·H·W)` and
/// computes `Y = X·Wᵀ + b` with the workspace GEMM. Returns `(N, out, 1, 1)`.
///
/// The GEMM runs as `Yᵀ (out×N) = W (out×in) · Xᵀ (in×N)`, so the weights
/// are operand `A` exactly as stored and only activation-sized buffers are
/// staged; `M = out` also gives the thread team row stripes to split at
/// batch 1. Each output element is the same `KC`-blocked sum over `in` in
/// either operand order.
pub fn fully_connected(
    pool: &StaticPool,
    t: &Tensor4,
    weight: &[f32], // out × in, row-major
    bias: &[f32],   // out
) -> Tensor4 {
    let (n, c, h, w) = t.dims();
    let in_dim = c * h * w;
    let out_dim = bias.len();
    assert_eq!(weight.len(), out_dim * in_dim, "FC weight size");
    let x = t.as_slice();
    let mut xt = vec![0.0f32; in_dim * n];
    for ni in 0..n {
        for i in 0..in_dim {
            xt[i * n + ni] = x[ni * in_dim + i];
        }
    }
    let mut yt = vec![0.0f32; out_dim * n];
    par_gemm(pool, out_dim, n, in_dim, weight, &xt, &mut yt, BlockSizes::default());
    let mut out = Tensor4::zeros(n, out_dim, 1, 1, t.layout());
    for ni in 0..n {
        for o in 0..out_dim {
            *out.at_mut(ni, o, 0, 0) = yt[o * n + ni] + bias[o];
        }
    }
    out
}

/// Row-wise softmax over the channel dimension of `(N, C, 1, 1)` logits.
pub fn softmax(t: &mut Tensor4) {
    let (n, c, h, w) = t.dims();
    assert_eq!((h, w), (1, 1), "softmax expects flattened logits");
    let data = t.as_mut_slice();
    for ni in 0..n {
        let row = &mut data[ni * c..(ni + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_tensor::{fill, ActLayout};

    fn iota(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        let mut t = Tensor4::zeros(n, c, h, w, ActLayout::Nchw);
        fill::fill_iota(t.as_mut_slice());
        t
    }

    #[test]
    fn scale_shift_is_per_channel() {
        let mut t = iota(1, 2, 1, 2); // ch0: [0,1], ch1: [2,3]
        scale_shift(&mut t, &[2.0, 10.0], &[1.0, -1.0]);
        assert_eq!(t.as_slice(), &[1.0, 3.0, 19.0, 29.0]);
    }

    #[test]
    fn batch_norm_matches_formula() {
        let mut t = iota(1, 2, 1, 2);
        batch_norm(&mut t, &[2.0, 1.0], &[0.5, -0.5], &[1.0, 2.0], &[4.0, 0.25], 0.0);
        // ch0: 2*(x-1)/2 + 0.5 = x - 0.5; ch1: (x-2)/0.5 - 0.5 = 2x - 4.5.
        assert_eq!(t.as_slice(), &[-0.5, 0.5, -0.5, 1.5]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = iota(1, 1, 1, 3);
        t.as_mut_slice()[0] = -5.0;
        relu(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn add_inplace_sums() {
        let mut a = iota(1, 1, 1, 3);
        let b = iota(1, 1, 1, 3);
        add_inplace(&mut a, &b);
        assert_eq!(a.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn max_pool_2x2_stride2() {
        let t = iota(1, 1, 4, 4);
        let p = max_pool(&t, 2, 2, 0);
        assert_eq!(p.dims(), (1, 1, 2, 2));
        assert_eq!(p.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_padding_never_wins() {
        let mut t = iota(1, 1, 2, 2);
        for x in t.as_mut_slice() {
            *x -= 10.0; // all negative
        }
        let p = max_pool(&t, 3, 2, 1);
        assert_eq!(p.dims(), (1, 1, 1, 1));
        assert_eq!(p.as_slice()[0], -7.0);
    }

    #[test]
    fn global_avg_pool_averages() {
        let t = iota(1, 2, 2, 2); // ch0: 0..4 avg 1.5, ch1: 4..8 avg 5.5
        let g = global_avg_pool(&t);
        assert_eq!(g.dims(), (1, 2, 1, 1));
        assert_eq!(g.as_slice(), &[1.5, 5.5]);
    }

    #[test]
    fn fully_connected_matches_manual() {
        let pool = StaticPool::new(1);
        let t = iota(2, 1, 1, 3); // X = [[0,1,2],[3,4,5]]
        let weight = [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]; // W = [[1,0,0],[0,1,1]]
        let bias = [10.0, 20.0];
        let y = fully_connected(&pool, &t, &weight, &bias);
        assert_eq!(y.dims(), (2, 2, 1, 1));
        assert_eq!(y.as_slice(), &[10.0, 23.0, 13.0, 29.0]);
    }

    #[test]
    fn fully_connected_matches_naive_matmul_off_the_block_sizes() {
        // 1000 → 37: multiples of neither the GEMM's MR = 6 nor its
        // KC = 256, so the edge tile and the short last K block both run.
        let (in_dim, out_dim) = (1000, 37);
        let mut weight = vec![0.0; out_dim * in_dim];
        fill::fill_random(&mut weight, 1);
        let mut bias = vec![0.0; out_dim];
        fill::fill_random(&mut bias, 2);
        for n in [1, 2, 3] {
            let t = fill::random_tensor(Tensor4::zeros(n, 10, 10, 10, ActLayout::Nchw), 3);
            // Yᵀ = W·Xᵀ by the reference, one sample (= one column) at a time.
            let mut expect = Vec::new();
            for x in t.as_slice().chunks(in_dim) {
                let mut y = bias.clone();
                ndirect_gemm::naive::matmul(out_dim, 1, in_dim, &weight, x, &mut y);
                expect.extend(y);
            }
            let serial = fully_connected(&StaticPool::new(1), &t, &weight, &bias);
            assert_eq!(serial.dims(), (n, out_dim, 1, 1));
            ndirect_tensor::assert_close(serial.as_slice(), &expect, 1e-4, "fc vs naive");
            let team = fully_connected(&StaticPool::new(3), &t, &weight, &bias);
            assert_eq!(team.as_slice(), serial.as_slice(), "n={n}: 3 threads vs 1, bitwise");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = iota(2, 4, 1, 1);
        softmax(&mut t);
        for n in 0..2 {
            let sum: f32 = (0..4).map(|c| t.at(n, c, 0, 0)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone: larger logits keep larger probabilities.
        assert!(t.at(0, 3, 0, 0) > t.at(0, 0, 0, 0));
    }
}
