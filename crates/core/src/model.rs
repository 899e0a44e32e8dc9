//! The paper's analytic models (Eqs. 1–6).
//!
//! nDirect replaces auto-tuning with three closed-form models: a register
//! allocation model picking the micro-kernel tile `(Vw, Vk)`, cache-capacity
//! inequalities picking the loop tiles `(Tc, Tk, Th)`, and an arithmetic-
//! intensity model picking the thread grid `(PTn, PTk)`.

pub mod register_tile {
    //! Eqs. 3–4: the register-tile model.
    //!
    //! Constraint (Eq. 3): the micro-kernel's working set must fit the
    //! vector register file —
    //! `⌈(Vw+S−1)/4⌉` input registers + `Vk/4` filter registers +
    //! `Vw·Vk/4` output accumulators ≤ `num_vregs`, with `Vk % 4 == 0`.
    //!
    //! Objective (Eq. 4): maximize the floating-point arithmetic intensity
    //! of one `L9` iteration,
    //! `FAI = 2·S·Vw·Vk / (Vw + S − 1 + S·Vk)`
    //! (2 flops per FMA over `S` unrolled taps, against `Vw+S−1` input and
    //! `S·Vk` filter element loads).
    //!
    //! `Vw % 4 == 0` is implied by Algorithm 3's register scheme: input
    //! pixels are addressed as *lanes* of full vector registers (`V2[0]` …
    //! `V4[3]` covers exactly `Vw = 12` lanes of three registers), so the
    //! output-pixel count must tile into whole 4-lane groups.
    //!
    //! The paper solves this with Lagrange multipliers; with ≤ 32 registers
    //! the integer space is tiny, so we take the exact argmax by
    //! enumeration, breaking FAI ties toward larger `Vk` (more streaming
    //! filter reuse per packed input element) — this reproduces the paper's
    //! `(Vw, Vk) = (12, 8)` on 32 × 128-bit NEON for 3×3 kernels (the tied
    //! alternative `(24, 4)` loses the tie-break).
    //!
    //! Without lane-indexed FMA (x86), Eq. 3 counts what the row walk holds
    //! instead ([`registers_held`]): `Vk/L` filter registers, `Vw·Vk/L`
    //! accumulators, two broadcast registers whatever `S` (the one feeding
    //! a pixel's FMAs, and one the compiler needs beside it), and one
    //! product temporary when the multiply-add is unfused. Counted with one
    //! broadcast register, `(4, 24)` at 8 lanes fills 16 of 16; its stamped
    //! kernel moved 10–12 vectors to or from the stack per tap in two of
    //! its three row-source loops, where `(4, 16)` moves none. `Vw` keeps
    //! the paper's 4-pixel granularity at any lane count, and Eq. 4 becomes
    //! [`fai_splat`]. [`tile_for`] picks the register file a tile is
    //! derived over.

    use ndirect_platform::{Platform, SimdSpec};

    use crate::kernel::Body;
    use crate::microkernel::Kernel;

    /// Registers used by a candidate tile (the left side of Eq. 3) for
    /// 4-lane (128-bit) vectors with lane-indexed FMA.
    pub fn registers_used(vw: usize, vk: usize, s: usize) -> usize {
        registers_used_lanes(vw, vk, s, 4)
    }

    /// Eq. 3 generalized to `lanes` FP32 per vector register — the §10.1
    /// SVE portability story: a 512-bit SVE machine has `lanes = 16`, so
    /// the same inequality yields proportionally deeper/wider tiles.
    pub fn registers_used_lanes(vw: usize, vk: usize, s: usize, lanes: usize) -> usize {
        (vw + s - 1).div_ceil(lanes) + vk / lanes + vw * vk / lanes
    }

    /// Eq. 3's left side on `simd`: [`registers_used_lanes`] with
    /// lane-indexed FMA; otherwise two broadcast registers, `Vk/L` filter
    /// registers, `Vw·Vk/L` accumulators, and one product temporary when
    /// the multiply-add is unfused.
    pub fn registers_held(simd: &SimdSpec, vw: usize, vk: usize, s: usize) -> usize {
        let lanes = simd.f32_lanes().max(1);
        if simd.lane_fma {
            registers_used_lanes(vw, vk, s, lanes)
        } else {
            2 + vk / lanes + vw * vk / lanes + usize::from(!simd.fused)
        }
    }

    /// FAI of one loop-L9 iteration (Eq. 4), generalized to kernel width
    /// `s` (the paper writes it for `S = 3`).
    pub fn fai(vw: usize, vk: usize, s: usize) -> f64 {
        let flops = 2.0 * s as f64 * vw as f64 * vk as f64;
        let loads = (vw + s - 1) as f64 + (s * vk) as f64;
        flops / loads
    }

    /// Instruction-level FAI for ISAs *without* lane-indexed FMA: the input
    /// operand costs one broadcast load per pixel instead of one vector
    /// load per `lanes` pixels, so the relevant ratio is vector-FMAs per
    /// memory op, `(Vw·Vk/L) / (Vw + Vk/L)` per tap.
    pub fn fai_splat(vw: usize, vk: usize, lanes: usize) -> f64 {
        let fmas = (vw * vk / lanes) as f64;
        let ops = vw as f64 + (vk / lanes) as f64;
        fmas / ops
    }

    /// The FAI-optimal `(Vw, Vk)` under the register constraint (Eq. 3,
    /// [`registers_held`]), maximizing Eq. 4 on lane-FMA ISAs and the
    /// instruction-level [`fai_splat`] variant elsewhere.
    pub fn optimal_tile(simd: &SimdSpec, s: usize) -> (usize, usize) {
        let s = s.max(1);
        let lanes = simd.f32_lanes().max(1);
        let vw_step = if simd.lane_fma { lanes } else { 4 };
        let mut best = (vw_step, lanes);
        let mut best_key = (f64::MIN, 0usize);
        for vk in (lanes..=simd.num_vregs * lanes).step_by(lanes) {
            for vw in (vw_step..=simd.num_vregs * lanes).step_by(vw_step) {
                if registers_held(simd, vw, vk, s) > simd.num_vregs {
                    continue;
                }
                let score = if simd.lane_fma {
                    fai(vw, vk, s)
                } else {
                    fai_splat(vw, vk, lanes)
                };
                let key = (score, vk);
                if key.0 > best_key.0 + 1e-12
                    || ((key.0 - best_key.0).abs() <= 1e-12 && vk > best_key.1)
                {
                    best = (vw, vk);
                    best_key = key;
                }
            }
        }
        best
    }

    /// The register tile for an `R × S` filter on `platform` (`rdim` is
    /// `T·R` for 3-D): [`optimal_tile`] over the register file of the
    /// registry entry that will run the filter's [`Body`] when `platform`
    /// is the host, over the platform's own file for a preset.
    pub fn tile_for(platform: &Platform, rdim: usize, sdim: usize) -> (usize, usize) {
        let simd = if platform.is_host() {
            Kernel::best().register_file(Body::of(rdim, sdim))
        } else {
            platform.simd
        };
        optimal_tile(&simd, sdim)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ndirect_platform::SimdSpec;

        #[test]
        fn paper_tile_for_3x3_on_neon() {
            assert_eq!(optimal_tile(&SimdSpec::NEON, 3), (12, 8));
        }

        #[test]
        fn paper_register_accounting_for_12x8() {
            // ⌈14/4⌉ + 8/4 + 96/4 = 4 + 2 + 24 = 30 ≤ 32 (V2–V5, V0–V1,
            // V8–V31 in Algorithm 3).
            assert_eq!(registers_used(12, 8, 3), 30);
        }

        #[test]
        fn fai_matches_hand_computation() {
            // 2*3*12*8 / (12+2 + 3*8) = 576/38.
            assert!((fai(12, 8, 3) - 576.0 / 38.0).abs() < 1e-12);
        }

        #[test]
        fn constraint_is_respected_for_all_s() {
            for s in 1..=7 {
                let (vw, vk) = optimal_tile(&SimdSpec::NEON, s);
                assert!(registers_used(vw, vk, s) <= 32, "s={s} ({vw},{vk})");
                assert_eq!(vk % 4, 0);
            }
        }

        #[test]
        fn smaller_register_file_shrinks_tile() {
            // 16 XMM registers (x86_64), no lane-indexed FMA.
            let sse = SimdSpec {
                vector_bits: 128,
                num_vregs: 16,
                fma_per_cycle: 1.0,
                lane_fma: false,
                fused: false,
            };
            let (vw, vk) = optimal_tile(&sse, 3);
            assert!(registers_used(vw, vk, 3) <= 16);
            assert!(vw * vk < 12 * 8);
            // The splat-cost model prefers the deep (4, 8) tile measured
            // fastest on SSE hosts over Eq. 4's (8, 4).
            assert_eq!((vw, vk), (4, 8));
        }

        #[test]
        fn broadcast_accounting_counts_the_product_and_the_next_pixel() {
            let file = |vector_bits, fused| SimdSpec {
                vector_bits,
                num_vregs: 16,
                fma_per_cycle: 2.0,
                lane_fma: false,
                fused,
            };
            // Unfused 4-lane: (4, 12) is 2 + 3 + 12 + 1 = 18 > 16, so 1x1
            // filters get (4, 8) too; every S does.
            let sse = file(128, false);
            assert_eq!(registers_held(&sse, 4, 12, 1), 18);
            for s in 1..=7 {
                assert_eq!(optimal_tile(&sse, s), (4, 8), "s={s}");
            }
            // Fused 8-lane: (4, 24) is 2 + 3 + 12 = 17 (it would fit with
            // one broadcast register, and be the argmax); (4, 16) is 12.
            let avx2_fma = file(256, true);
            assert_eq!(registers_held(&avx2_fma, 4, 24, 3), 17);
            assert_eq!(registers_held(&avx2_fma, 4, 16, 3), 12);
            for s in 1..=7 {
                assert_eq!(optimal_tile(&avx2_fma, s), (4, 16), "s={s}");
            }
        }

        #[test]
        fn sve_512_scales_the_tile_with_lane_count() {
            // §10.1: the same Eq. 3/4 with 16-lane registers. Tiles must be
            // lane-multiples and respect the 32-register file.
            let sve = SimdSpec {
                vector_bits: 512,
                num_vregs: 32,
                fma_per_cycle: 2.0,
                lane_fma: true,
                fused: true,
            };
            let (vw, vk) = optimal_tile(&sve, 3);
            assert_eq!(vw % 16, 0);
            assert_eq!(vk % 16, 0);
            assert!(registers_used_lanes(vw, vk, 3, 16) <= 32);
            // The accumulator tile grows markedly over NEON's 96 elements
            // ((16,16) = 256: each accumulator register now holds 16
            // outputs, so fewer registers hold more of the tile).
            assert!(vw * vk >= 2 * 96, "({vw},{vk})");
        }

        #[test]
        fn one_by_one_kernels_still_fill_registers() {
            let (vw, vk) = optimal_tile(&SimdSpec::NEON, 1);
            assert!(registers_used(vw, vk, 1) <= 32);
            // FAI for S=1 is symmetric in (Vw, Vk); the optimum is the
            // 8×12-element tile (96 accumulators in 24 registers).
            assert_eq!(vw * vk, 96);
        }
    }
}

pub mod cache_tiles {
    //! Eqs. 1–2: the cache-capacity tile model.
    //!
    //! * Eq. 1 (L1): one `R × Tc × (Vw+S−1)` input slice plus two
    //!   `Vk × Tc × R × S` filter slices must fit the L1 data cache ⇒ `Tc`.
    //! * Eq. 2 (L2): one `Tk × Tc × R × S` filter block plus two
    //!   `R × Tc × (Vw+S−1)` input slices must fit (the paper reserves the
    //!   rest of L2 for instructions and output elements) ⇒ `Tk`.
    //! * `Th` analogously against the per-core LLC share when an L3 exists;
    //!   with no L3 (Phytium 2000+, RPi 4) the row loop is left untiled
    //!   (`Th = P`).

    use ndirect_platform::Platform;
    use ndirect_tensor::ConvShape;

    /// Derived cache tiles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CacheTiles {
        /// Channel tile (Eq. 1).
        pub tc: usize,
        /// Output-channel tile (Eq. 2).
        pub tk: usize,
        /// Output-row tile (L3 analogue).
        pub th: usize,
    }

    /// Solves Eqs. 1–2 (plus the L3 analogue) for a shape on a platform.
    pub fn derive(platform: &Platform, shape: &ConvShape, vw: usize, vk: usize) -> CacheTiles {
        let f = 4; // bytes per f32
        let (r, s) = (shape.r, shape.s);
        let win = vw + s - 1; // stride-1 presentation, as in the paper
        let l1 = platform.cache.l1d / f;
        let l2 = platform.cache.l2_per_core() / f;

        // Eq. 1: R·Tc·(Vw+S−1) + 2·Vk·Tc·R·S < C_L1.
        let tc_denom = r * win + 2 * vk * r * s;
        let tc = (l1 / tc_denom).clamp(1, shape.c);

        // Eq. 2: Tk·Tc·R·S + 2·R·Tc·(Vw+S−1) < C_L2 (half of L2 reserved
        // for instructions and output, per the paper's discussion).
        let budget = l2 / 2;
        let used_by_input = 2 * r * tc * win;
        let tk_raw = budget.saturating_sub(used_by_input) / (tc * r * s).max(1);
        let tk = ((tk_raw / vk).max(1) * vk).min(shape.k.div_ceil(vk) * vk);

        // L3 analogue: two Tc·((Th−1)·str+R)·W input row-blocks per core.
        let th = match platform.cache.l3 {
            Some(l3) => {
                let l3f = l3 / f / platform.cores;
                let rows = (l3f / 2) / (tc * shape.w).max(1);
                let th_raw = (rows.saturating_sub(r) / shape.stride).saturating_add(1);
                th_raw.clamp(1, shape.p())
            }
            None => shape.p(),
        };

        CacheTiles { tc, tk, th }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ndirect_platform::{kp920, phytium_2000p, rpi4};

        fn shape() -> ConvShape {
            ConvShape::square(64, 128, 128, 28, 3, 1)
        }

        #[test]
        fn l1_inequality_holds() {
            for p in [phytium_2000p(), kp920(), rpi4()] {
                let t = derive(&p, &shape(), 12, 8);
                let lhs = 3 * t.tc * (12 + 2) + 2 * 8 * t.tc * 9;
                assert!(lhs * 4 <= p.cache.l1d, "{}: lhs={lhs}", p.name);
                assert!(t.tc >= 1);
            }
        }

        #[test]
        fn l2_inequality_holds() {
            for p in [phytium_2000p(), kp920(), rpi4()] {
                let t = derive(&p, &shape(), 12, 8);
                let lhs = t.tk * t.tc * 9 + 2 * 3 * t.tc * 14;
                assert!(
                    lhs * 4 <= p.cache.l2_per_core(),
                    "{}: lhs bytes = {}",
                    p.name,
                    lhs * 4
                );
            }
        }

        #[test]
        fn tk_is_vk_multiple() {
            for p in [phytium_2000p(), kp920()] {
                let t = derive(&p, &shape(), 12, 8);
                assert_eq!(t.tk % 8, 0);
            }
        }

        #[test]
        fn no_l3_means_untiled_rows() {
            let t = derive(&phytium_2000p(), &shape(), 12, 8);
            assert_eq!(t.th, shape().p());
            let t = derive(&kp920(), &shape(), 12, 8);
            assert!(t.th >= 1 && t.th <= shape().p());
        }

        #[test]
        fn tiles_never_exceed_problem() {
            let tiny = ConvShape::square(1, 2, 4, 6, 3, 1);
            let t = derive(&kp920(), &tiny, 12, 8);
            assert!(t.tc <= 2);
            assert!(t.th <= tiny.p());
        }
    }
}

pub mod thread_map {
    //! Eqs. 5–6: the thread-mapping model.
    //!
    //! Per-thread FAI (Eq. 5) balances streamed filter traffic (split over
    //! `PTk`) against α-weighted non-streamed input traffic (split over
    //! `PTn`). The AM–GM optimum (Eq. 6) is
    //! `PTn* = √(α·N·H·W / (K·R·S·str²))`; the paper takes the ceiling and
    //! assigns `PTk = PT / PTn`. Since `PTn` must divide the team size, we
    //! pick the factorization of `PT` whose `PTn` is closest (in log space)
    //! to the unconstrained optimum.

    use ndirect_platform::Platform;
    use ndirect_tensor::ConvShape;
    use ndirect_threads::Grid2;

    /// The unconstrained optimum `PTn*` of Eq. 6.
    pub fn ideal_ptn(platform: &Platform, shape: &ConvShape) -> f64 {
        let num = platform.alpha * (shape.n * shape.h * shape.w) as f64;
        let den = (shape.k * shape.r * shape.s) as f64 * (shape.stride * shape.stride) as f64;
        (num / den).sqrt()
    }

    /// Per-thread FAI for a candidate grid (Eq. 5) — exposed so the
    /// ablation benches can score alternative grids.
    pub fn fai(platform: &Platform, shape: &ConvShape, grid: Grid2) -> f64 {
        let ptn = grid.ptn() as f64;
        let str2 = (shape.stride * shape.stride) as f64;
        let nhw = (shape.n * shape.h * shape.w) as f64;
        let krs = (shape.k * shape.r * shape.s) as f64;
        1.0 / (ptn * str2 / nhw + platform.alpha / (krs * ptn))
    }

    /// Picks the grid for `threads` threads: the factorization whose `PTn`
    /// is log-closest to the Eq. 6 optimum (ties toward more `PTn`, the
    /// paper's ceiling).
    pub fn derive(platform: &Platform, shape: &ConvShape, threads: usize) -> Grid2 {
        let ideal = ideal_ptn(platform, shape).max(1.0);
        Grid2::factorizations(threads)
            .into_iter()
            .min_by(|a, b| {
                let da = (a.ptn() as f64 / ideal).ln().abs();
                let db = (b.ptn() as f64 / ideal).ln().abs();
                da.total_cmp(&db).then(b.ptn().cmp(&a.ptn()))
            })
            // `factorizations(t)` is non-empty for every t >= 1; a
            // degenerate t == 0 request degrades to the sequential grid.
            .unwrap_or_else(Grid2::sequential)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ndirect_platform::phytium_2000p;

        #[test]
        fn grid_multiplies_to_thread_count() {
            let p = phytium_2000p();
            for threads in [1, 2, 4, 64] {
                let shape = ConvShape::square(64, 128, 128, 28, 3, 1);
                let g = derive(&p, &shape, threads);
                assert_eq!(g.threads(), threads);
            }
        }

        #[test]
        fn large_spatial_batches_favor_ptn() {
            // Layer 24-like: huge N·H·W, small K ⇒ parallelize N/H/W.
            let p = phytium_2000p();
            let shape = ConvShape::square(64, 64, 64, 224, 3, 1);
            let g = derive(&p, &shape, 64);
            assert!(g.ptn() >= g.ptk(), "{g:?}");
        }

        #[test]
        fn many_channels_favor_ptk() {
            // Layer 23-like: K=512 on tiny 7x7 images, batch 4.
            let p = phytium_2000p();
            let shape = ConvShape::square(4, 2048, 512, 7, 1, 1);
            let g = derive(&p, &shape, 64);
            assert!(g.ptk() > 1, "{g:?}");
        }

        #[test]
        fn derived_grid_maximizes_model_fai_among_factorizations() {
            let p = phytium_2000p();
            let shape = ConvShape::square(64, 256, 256, 14, 3, 1);
            let chosen = derive(&p, &shape, 64);
            let best = Grid2::factorizations(64)
                .into_iter()
                .map(|g| fai(&p, &shape, g))
                .fold(f64::MIN, f64::max);
            // log-closest PTn to the optimum is FAI-optimal up to the
            // integrality gap; allow 2%.
            assert!(fai(&p, &shape, chosen) >= 0.98 * best);
        }

        #[test]
        fn stride_reduces_ideal_ptn() {
            let p = phytium_2000p();
            let s1 = ConvShape::square(64, 128, 128, 28, 3, 1);
            let s2 = ConvShape::square(64, 128, 128, 28, 3, 2);
            assert!(ideal_ptn(&p, &s2) < ideal_ptn(&p, &s1));
        }
    }
}
