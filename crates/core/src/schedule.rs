//! Execution schedules: every tunable parameter of the nDirect algorithm.

use ndirect_platform::Platform;
use ndirect_support::{Json, JsonError};
use ndirect_tensor::ConvShape;
use ndirect_threads::{split_static, Grid2};

use crate::model;

/// How input packing interacts with computation (§5.3, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingMode {
    /// The paper's optimization: the packing gather for each `(c, r)` row is
    /// fused with the first `kv` iteration's FMAs, so stores into the linear
    /// buffer overlap with computation.
    Fused,
    /// The conventional strategy (im2col-style): pack the whole strip into
    /// the buffer, then start computing. The Figure 5 ablation baseline.
    Sequential,
}

/// Whether the filter is transformed per cache block on the fly (the
/// paper's design, zero preprocessing between framework calls) or once
/// ahead of time (the ablation: what a weight-caching integration would do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterState {
    /// Transform each `Tk × Tc` filter block inside loop L4 (Algorithm 2
    /// line 5). The transform cost is incurred once per block and amortized
    /// over the `L5 × L6` iterations.
    OnTheFly,
    /// Transform the whole filter before the main loops (excluded from the
    /// algorithm in the paper, measured as an ablation here).
    PreTransformed,
}

/// A complete parameterization of the nDirect convolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Register-tile width: output pixels per micro-kernel call (`Vw`).
    pub vw: usize,
    /// Register-tile depth: output channels per micro-kernel call (`Vk`,
    /// a multiple of 4).
    pub vk: usize,
    /// Channel cache tile (`Tc`, Eq. 1 — L1 occupancy).
    pub tc: usize,
    /// Output-channel cache tile (`Tk`, Eq. 2 — L2 occupancy; multiple of
    /// `vk`).
    pub tk: usize,
    /// Output-row cache tile (`Th`, L3 occupancy; `P` when no L3).
    pub th: usize,
    /// Static thread grid `PTn × PTk` (Eqs. 5–6).
    pub grid: Grid2,
    /// Packing strategy.
    pub packing: PackingMode,
    /// Filter transform strategy.
    pub filter_state: FilterState,
}

impl Schedule {
    /// Derives the model-optimal schedule for `shape` on `platform` with
    /// `threads` threads — the pipeline the paper describes: register tile
    /// from Eqs. 3–4, cache tiles from Eqs. 1–2, thread grid from Eqs. 5–6.
    /// On the host the register tile is derived over the register file of
    /// the kernel entry that will run the shape's body
    /// ([`model::register_tile::tile_for`]).
    pub fn derive(platform: &Platform, shape: &ConvShape, threads: usize) -> Schedule {
        let (vw, vk) = model::register_tile::tile_for(platform, shape.r, shape.s);
        let tiles = model::cache_tiles::derive(platform, shape, vw, vk);
        let grid = model::thread_map::derive(platform, shape, threads);
        Schedule {
            vw,
            vk,
            tc: tiles.tc,
            tk: tiles.tk,
            th: tiles.th,
            grid,
            packing: PackingMode::Fused,
            filter_state: FilterState::OnTheFly,
        }
    }

    /// A small, always-valid schedule for tests: 4×4 register tile, modest
    /// cache tiles, sequential grid.
    pub fn minimal(shape: &ConvShape) -> Schedule {
        Schedule {
            vw: 4,
            vk: 4,
            tc: shape.c.min(8),
            tk: shape.k.clamp(4, 8),
            th: shape.p(),
            grid: Grid2::sequential(),
            packing: PackingMode::Fused,
            filter_state: FilterState::OnTheFly,
        }
    }

    /// Clamps the schedule's tiles to a specific problem (tiles never exceed
    /// the dimension they tile) and normalizes granularities (`vk` multiple
    /// of 4, `tk` multiple of `vk`). Register tiles go through
    /// [`crate::kernel::clamp_tile`], so schedules derived for wider-vector
    /// platforms (e.g. the SVE analysis presets) still *execute* on this
    /// host's kernels instead of panicking. Returns the sanitized copy the
    /// loop nest runs.
    pub fn sanitized(&self, shape: &ConvShape) -> Schedule {
        let mut s = self.clone();
        (s.vw, s.vk) = crate::kernel::clamp_tile((s.vw, s.vk));
        s.tc = s.tc.clamp(1, shape.c);
        s.tk = s.tk.max(s.vk).min(shape.k.div_ceil(s.vk) * s.vk);
        s.tk = (s.tk / s.vk) * s.vk;
        s.th = s.th.clamp(1, shape.p());
        s
    }

    /// Total threads the schedule uses.
    pub fn threads(&self) -> usize {
        self.grid.threads()
    }

    /// The output region grid thread `tid` owns under this (sanitized)
    /// schedule: its `K` range `[k_lo, k_hi)`, split across `PTk` at `Vk`
    /// granularity, and its slice of the flat `N·P` output-row space, split
    /// across `PTn`. `None` when either is empty. The one partition both
    /// drivers run and [`Schedule::predicted_pack_bytes`] mirrors.
    pub(crate) fn partition(
        &self,
        shape: &ConvShape,
        tid: usize,
    ) -> Option<(usize, usize, std::ops::Range<usize>)> {
        let (tn, tk) = self.grid.coords(tid);
        let kvr = split_static(shape.k.div_ceil(self.vk), self.grid.ptk(), tk);
        let k_lo = kvr.start * self.vk;
        let k_hi = (kvr.end * self.vk).min(shape.k);
        let rows = split_static(shape.n * shape.p(), self.grid.ptn(), tn);
        (k_lo < k_hi && !rows.is_empty()).then_some((k_lo, k_hi, rows))
    }

    /// Cache-model prediction of the bytes the drivers pack for one full
    /// convolution under this schedule: the analytic mirror of the loop
    /// nest, against which the probe's `bytes_packed` counter is asserted.
    ///
    /// Per-strip modes: each `(output row, Tc tile, Tk tile, Vw strip)`
    /// packs `tcb·R·WIN` floats (`WIN = (valid_w−1)·stride + S`), in fused
    /// and sequential mode alike and for both layouts. Summing `tcb` over
    /// the `Tc` tiles gives `C`, so per thread the total is
    /// `|rows| · #Tk-tiles · C · R · Σ_strips WIN`; `#Tk-tiles` depends on
    /// the thread's K range, which is why the count is grid-dependent while
    /// the FLOP count ([`ConvShape::flops`]) is not.
    pub fn predicted_pack_bytes(&self, shape: &ConvShape) -> u128 {
        let s = self.sanitized(shape);
        let q = shape.q();
        // Window widths summed over one row's strips.
        let win_sum: u128 = (0..q)
            .step_by(s.vw)
            .map(|wv| ((s.vw.min(q - wv) - 1) * shape.stride + shape.s) as u128)
            .sum();
        let total_floats: u128 = (0..s.grid.threads())
            .filter_map(|tid| s.partition(shape, tid))
            .map(|(k_lo, k_hi, rows)| {
                let kt_tiles = (k_hi - k_lo).div_ceil(s.tk) as u128;
                rows.len() as u128 * kt_tiles * (shape.c * shape.r) as u128 * win_sum
            })
            .sum();
        total_floats * std::mem::size_of::<f32>() as u128
    }

    /// [`Schedule::predicted_pack_bytes`] narrowed to the `u64` that perf
    /// records serialize, saturating at `u64::MAX` instead of truncating.
    /// A prediction that large cannot correspond to a materializable
    /// buffer, so the clamp only ever marks "beyond measurement".
    pub fn predicted_pack_bytes_u64(&self, shape: &ConvShape) -> u64 {
        u64::try_from(self.predicted_pack_bytes(shape)).unwrap_or(u64::MAX)
    }

    /// Returns a copy with a different packing mode (ablation helper).
    pub fn with_packing(&self, packing: PackingMode) -> Schedule {
        let mut s = self.clone();
        s.packing = packing;
        s
    }

    /// Returns a copy with a different filter-transform strategy.
    pub fn with_filter_state(&self, filter_state: FilterState) -> Schedule {
        let mut s = self.clone();
        s.filter_state = filter_state;
        s
    }

    /// Returns a copy with a different thread grid.
    pub fn with_grid(&self, grid: Grid2) -> Schedule {
        let mut s = self.clone();
        s.grid = grid;
        s
    }

    /// JSON form for persistence (the autotune cache).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("vw".into(), Json::usize(self.vw)),
            ("vk".into(), Json::usize(self.vk)),
            ("tc".into(), Json::usize(self.tc)),
            ("tk".into(), Json::usize(self.tk)),
            ("th".into(), Json::usize(self.th)),
            ("grid".into(), self.grid.to_json()),
            ("packing".into(), Json::str(self.packing.as_str())),
            ("filter_state".into(), Json::str(self.filter_state.as_str())),
        ])
    }

    /// Parses the [`Schedule::to_json`] form; malformed or degenerate
    /// fields are typed errors, never panics. Fields it does not know (the
    /// `prefetch` flag older caches carry) are ignored.
    pub fn from_json(v: &Json) -> Result<Schedule, JsonError> {
        let field_err = |msg: String| JsonError { msg, at: 0 };
        let s = Schedule {
            vw: v.usize_field("vw")?,
            vk: v.usize_field("vk")?,
            tc: v.usize_field("tc")?,
            tk: v.usize_field("tk")?,
            th: v.usize_field("th")?,
            grid: Grid2::from_json(v.require("grid")?)?,
            packing: PackingMode::parse(v.str_field("packing")?)
                .ok_or_else(|| field_err("unknown packing mode".into()))?,
            filter_state: FilterState::parse(v.str_field("filter_state")?)
                .ok_or_else(|| field_err("unknown filter state".into()))?,
        };
        if s.vw == 0 || s.vk == 0 || s.tc == 0 || s.tk == 0 || s.th == 0 {
            return Err(field_err("schedule tiles must be >= 1".into()));
        }
        Ok(s)
    }
}

/// Splits a range of the flat `N·P` output-row space into per-image
/// pieces: `(n, oh range)` for every image the range touches.
pub(crate) fn image_rows(
    rows: std::ops::Range<usize>,
    p: usize,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
    (rows.start / p..rows.end.div_ceil(p))
        .map(move |n| (n, rows.start.max(n * p) - n * p..rows.end.min((n + 1) * p) - n * p))
}

impl PackingMode {
    /// Stable string form used by the JSON schedule encoding and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PackingMode::Fused => "fused",
            PackingMode::Sequential => "sequential",
        }
    }

    /// Inverse of [`PackingMode::as_str`]; any other name is `None`.
    pub fn parse(s: &str) -> Option<PackingMode> {
        match s {
            "fused" => Some(PackingMode::Fused),
            "sequential" => Some(PackingMode::Sequential),
            _ => None,
        }
    }
}

impl FilterState {
    /// Stable string form used by the JSON schedule encoding.
    pub fn as_str(&self) -> &'static str {
        match self {
            FilterState::OnTheFly => "on_the_fly",
            FilterState::PreTransformed => "pre_transformed",
        }
    }

    /// Inverse of [`FilterState::as_str`].
    pub fn parse(s: &str) -> Option<FilterState> {
        match s {
            "on_the_fly" => Some(FilterState::OnTheFly),
            "pre_transformed" => Some(FilterState::PreTransformed),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_platform::phytium_2000p;

    #[test]
    fn derive_produces_paper_register_tile() {
        let shape = ConvShape::square(64, 128, 128, 28, 3, 1);
        let s = Schedule::derive(&phytium_2000p(), &shape, 64);
        assert_eq!((s.vw, s.vk), (12, 8), "paper's (Vw, Vk) for 3x3 on NEON");
    }

    #[test]
    fn sanitize_clamps_to_problem() {
        let shape = ConvShape::square(1, 3, 5, 8, 3, 1);
        let s = Schedule::derive(&phytium_2000p(), &shape, 4).sanitized(&shape);
        assert!(s.tc <= 3);
        assert!(s.th <= shape.p());
        assert_eq!(s.tk % s.vk, 0);
        assert!(s.tk >= s.vk);
    }

    #[test]
    fn minimal_schedule_is_self_consistent() {
        let shape = ConvShape::square(2, 16, 16, 10, 3, 1);
        let s = Schedule::minimal(&shape).sanitized(&shape);
        assert_eq!(s.vk % 4, 0);
        assert!(s.tc >= 1 && s.tc <= 16);
        assert_eq!(s.threads(), 1);
    }

    #[test]
    fn sve_derived_schedules_are_executable_after_sanitize() {
        // A schedule derived for the SVE analysis preset picks 16-lane
        // multiples; sanitize must clamp it into the 4-lane kernels' dyn
        // bounds rather than letting the driver panic.
        let shape = ConvShape::square(1, 32, 64, 14, 3, 1);
        let s = Schedule::derive(&ndirect_platform::presets::a64fx_like(), &shape, 1)
            .sanitized(&shape);
        assert!(s.vw <= crate::kernel::VW_MAX);
        assert!(s.vk / 4 <= crate::kernel::VKV_MAX);
    }

    #[test]
    fn wide_5x5_model_tiles_survive_sanitize() {
        // Eq. 4 picks (24, 4) for 5x5 on NEON; sanitize must keep it (the
        // AArch64 table declares it), not silently shrink it.
        let shape = ConvShape::square(1, 8, 8, 16, 5, 1);
        let s = Schedule::derive(&phytium_2000p(), &shape, 1).sanitized(&shape);
        assert_eq!(s.vw, 24, "{s:?}");
    }

    #[test]
    fn ablation_helpers_change_one_field() {
        let shape = ConvShape::square(1, 8, 8, 8, 3, 1);
        let s = Schedule::minimal(&shape);
        assert_eq!(s.with_packing(PackingMode::Sequential).packing, PackingMode::Sequential);
        assert_eq!(
            s.with_filter_state(FilterState::PreTransformed).filter_state,
            FilterState::PreTransformed
        );
        assert_eq!(s.with_grid(Grid2::new(2, 2)).threads(), 4);
    }

    #[test]
    fn json_round_trip() {
        let shape = ConvShape::square(2, 16, 32, 14, 3, 1);
        let s = Schedule::derive(&phytium_2000p(), &shape, 8);
        let parsed = Schedule::from_json(&Json::parse(&s.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn json_with_legacy_prefetch_field_still_parses() {
        // An autotune cache entry written while schedules carried a
        // `prefetch` flag parses to the same schedule, the flag dropped.
        let entry = r#"{"vw": 12, "vk": 8, "tc": 16, "tk": 64, "th": 7,
            "grid": {"ptn": 2, "ptk": 1}, "packing": "sequential",
            "filter_state": "on_the_fly", "prefetch": true}"#;
        let parsed = Schedule::from_json(&Json::parse(entry).unwrap()).unwrap();
        let want = Schedule {
            vw: 12,
            vk: 8,
            tc: 16,
            tk: 64,
            th: 7,
            grid: Grid2::new(2, 1),
            packing: PackingMode::Sequential,
            filter_state: FilterState::OnTheFly,
        };
        assert_eq!(parsed, want);
        assert!(!parsed.to_json().pretty().contains("prefetch"));
    }

    #[test]
    fn json_rejects_degenerate_tiles() {
        let shape = ConvShape::square(1, 8, 8, 8, 3, 1);
        let mut j = Schedule::minimal(&shape).to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::usize(0); // vw = 0
        }
        assert!(Schedule::from_json(&j).is_err());
    }

    #[test]
    fn json_rejects_unknown_packing() {
        let shape = ConvShape::square(1, 8, 8, 8, 3, 1);
        let bad_modes = [
            "vectorized-harder", "none", "sliced", "sliced:", "sliced:abc", "sliced:0", "sliced:3",
            "none:4",
        ];
        for bad in bad_modes {
            let mut j = Schedule::minimal(&shape).to_json();
            if let Json::Obj(fields) = &mut j {
                for (k, v) in fields.iter_mut() {
                    if k == "packing" {
                        *v = Json::str(bad);
                    }
                }
            }
            let err = Schedule::from_json(&j).expect_err(bad);
            assert!(err.msg.contains("packing"), "{bad}: {}", err.msg);
        }
    }

    #[test]
    fn json_accepts_every_packing_variant() {
        // The positive polarity of `json_rejects_unknown_packing`: every
        // mode round-trips through the cache encoding.
        let shape = ConvShape::square(1, 8, 8, 8, 3, 1);
        for mode in [PackingMode::Fused, PackingMode::Sequential] {
            let s = Schedule::minimal(&shape).with_packing(mode);
            let parsed =
                Schedule::from_json(&Json::parse(&s.to_json().pretty()).unwrap()).unwrap();
            assert_eq!(parsed, s, "{mode:?}");
            assert_eq!(PackingMode::parse(mode.as_str()), Some(mode));
        }
    }

    #[test]
    fn predicted_pack_bytes_by_mode() {
        // Each (output row, Tk tile, Vw strip) packs C·R·WIN floats, fused
        // and sequential alike: Q = 10 at Vw = 4 gives windows of 6, 6 and
        // 4 columns, and K = 16 at Tk = 8 gives two Tk tiles.
        let shape = ConvShape::square(2, 8, 16, 10, 3, 1);
        let base = Schedule::minimal(&shape);
        let expect = shape.n * shape.p() * 2 * shape.c * shape.r * (6 + 6 + 4) * 4;
        for mode in [PackingMode::Fused, PackingMode::Sequential] {
            assert_eq!(base.with_packing(mode).predicted_pack_bytes(&shape), expect as u128);
        }
        // A 2×2 grid splits K into two single-tile halves and the rows in
        // two: the same total.
        let grid = base.with_grid(Grid2::new(2, 2));
        assert_eq!(grid.predicted_pack_bytes(&shape), expect as u128);
    }

    /// The per-thread work identity, without timing: on every Table 4
    /// shape (batch 2, so row ranges cross images) and the 3-D flat shape
    /// each lifts to, under every `PTn × PTk` grid of at most 8 threads,
    /// the partition's regions cover the `N·P × K` output exactly once and
    /// the per-thread FLOPs sum to `ConvShape::flops`.
    #[test]
    fn partition_covers_the_output_once_and_conserves_flops() {
        use crate::conv3d::Conv3dShape;
        use ndirect_workloads::TABLE4;
        let mut shapes: Vec<ConvShape> = TABLE4.iter().map(|l| l.shape(2)).collect();
        for l in &TABLE4 {
            let pad = l.rs / 2;
            let volume = Conv3dShape {
                n: 2, c: l.c, d: 4, h: l.hw, w: l.hw, k: l.k, t: l.rs, r: l.rs, s: l.rs,
                stride: l.stride, pad_d: pad, pad_h: pad, pad_w: pad,
            };
            let flat = volume.flat();
            assert_eq!(flat.flops(), volume.flops(), "{volume:?}");
            shapes.push(flat);
        }
        for shape in &shapes {
            let (rows, k) = (shape.n * shape.p(), shape.k);
            let mac = 2 * (shape.q() * shape.c * shape.r * shape.s) as u64;
            for (ptn, ptk) in (1..=8).flat_map(|n| (1..=8 / n).map(move |k| (n, k))) {
                let s = Schedule::derive(&phytium_2000p(), shape, ptn * ptk)
                    .with_grid(Grid2::new(ptn, ptk))
                    .sanitized(shape);
                let mut owners = vec![0u8; rows * k];
                let mut flops = 0;
                for tid in 0..s.threads() {
                    let Some((k_lo, k_hi, rs)) = s.partition(shape, tid) else { continue };
                    flops += rs.len() as u64 * (k_hi - k_lo) as u64 * mac;
                    for row in rs {
                        owners[row * k + k_lo..row * k + k_hi].iter_mut().for_each(|o| *o += 1);
                    }
                }
                let what = format!("{shape:?} on {ptn}×{ptk}");
                assert!(owners.iter().all(|&o| o == 1), "{what}: not covered exactly once");
                assert_eq!(flops, shape.flops(), "{what}: per-thread FLOPs");
            }
        }
    }
}
