//! The unified technique simulator: Stage A, then Stage B.
//!
//! [`Simulator::run`] renders a scene once and evaluates the whole log:
//!
//! * **Stage A (render + record)** — [`crate::render::render_scene`]
//!   rasterizes every tile once and records everything evaluation needs into
//!   a [`crate::render::RenderLog`]: access streams, signature-unit
//!   inputs, tile color identities/hashes, activity counters.
//! * **Stage B (evaluate)** — [`crate::passes::evaluate`] computes the
//!   log's sections (Baseline, RE's decision and replay, TE, fragment
//!   memoization; see [`crate::share`]), each machine section owning its
//!   own cache hierarchy, DRAM and energy model.
//!
//! This is sound because none of the techniques changes the rendered
//! colors (RE/TE reuse bit-identical tiles; collisions are *counted*, not
//! silently absorbed), so one ground-truth render serves all machines —
//! and any number of evaluation-side configurations (the sweep engine's
//! render-once grouping). A run holds the whole log in memory until its
//! report is assembled.

use re_gpu::api::FrameDesc;
use re_gpu::texture::TextureStore;
use re_gpu::GpuConfig;
use re_timing::energy::EnergyBreakdown;
use re_timing::TimingConfig;

use crate::memo::MemoStats;
use crate::passes::evaluate;
use crate::redundancy::TileClassCounts;
use crate::render::render_scene;
use crate::signature::SignatureUnitStats;
use crate::te::TeStats;

/// A workload: uploads its textures once, then produces one
/// [`FrameDesc`] per frame index.
///
/// Initialization is deliberately narrow — a scene only ever needs the
/// texture store, which keeps the trait independent of the render stage's
/// GPU plumbing (workloads never see a [`re_gpu::Gpu`]).
pub trait Scene {
    /// One-time setup (texture uploads).
    fn init(&mut self, textures: &mut TextureStore) {
        let _ = textures;
    }
    /// Command stream of frame `index`.
    fn frame(&mut self, index: usize) -> FrameDesc;
    /// Benchmark name for reports.
    fn name(&self) -> &str {
        "scene"
    }
}

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Screen/tile geometry (the render-side options: these — and only
    /// these — determine a [`crate::render::RenderLog`]'s contents).
    pub gpu: GpuConfig,
    /// Table I memory machine (evaluation-side): what the baseline, RE
    /// and TE replay the log on. RE's own Signature Unit parameters are
    /// the fields below.
    pub timing: TimingConfig,
    /// Frame distance for signature/color comparison: 2 with the
    /// double-buffered Frame Buffer (paper §IV-C), 1 for single-buffered.
    pub compare_distance: usize,
    /// Optional periodic refresh (paper §III-E: "RE could also be disabled
    /// during one frame periodically to guarantee Frame Buffer
    /// refreshing"): every `n`-th frame renders all tiles. `None` (the
    /// paper's evaluated configuration) never forces a refresh.
    pub refresh_period: Option<usize>,
    /// Bits of each tile signature the Signature Buffer stores and compares
    /// (1..=32). 32 is the paper's CRC32 design point; narrower widths trade
    /// Signature Buffer storage against false-positive (collision) risk and
    /// are an axis of the sweep subsystem's sensitivity studies.
    pub sig_bits: u32,
    /// Overlapped-Tiles queue depth of RE's Signature Unit (16 entries;
    /// paper §V: overflow stalls the Geometry Pipeline). Only RE's
    /// decision section reads it.
    pub ot_queue_entries: u32,
    /// Cycles RE charges per tile for reading and comparing a Signature
    /// Buffer entry at tile-scheduling time (paper: "a few cycles"; 4).
    /// Each cell adds them to its RE report when it assembles it.
    pub sig_compare_cycles: u64,
    /// Capacity of the fragment-memoization LUT in KiB
    /// ([`crate::memo::MEMO_ENTRY_BYTES`] per entry, 4-way). The paper's
    /// enlarged design point is 16 KiB (2048 entries); the sweep's
    /// `--memo-kb` axis scales it to study the ISCA'14 baseline's capacity
    /// sensitivity.
    pub memo_kb: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            gpu: GpuConfig::default(),
            timing: TimingConfig::mali450(),
            compare_distance: 2,
            refresh_period: None,
            sig_bits: 32,
            ot_queue_entries: 16,
            sig_compare_cycles: 4,
            memo_kb: crate::memo::DEFAULT_MEMO_KB,
        }
    }
}

/// Per-technique cycle/energy/traffic totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TechniqueReport {
    /// Geometry Pipeline cycles (including, for RE, signature stalls).
    pub geometry_cycles: u64,
    /// Raster Pipeline cycles.
    pub raster_cycles: u64,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// DRAM traffic by class.
    pub dram: re_timing::dram::DramStats,
    /// Tiles dispatched to the Raster Pipeline.
    pub tiles_rendered: u64,
    /// Tiles eliminated before rasterization.
    pub tiles_skipped: u64,
    /// Fragments shaded.
    pub fragments_shaded: u64,
}

impl TechniqueReport {
    /// Total execution cycles.
    pub fn total_cycles(&self) -> u64 {
        self.geometry_cycles + self.raster_cycles
    }
}

/// Everything measured over one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub name: String,
    /// Frames simulated.
    pub frames: usize,
    /// Tiles per frame.
    pub tile_count: u32,
    /// The baseline GPU.
    pub baseline: TechniqueReport,
    /// Rendering Elimination.
    pub re: TechniqueReport,
    /// Transaction Elimination.
    pub te: TechniqueReport,
    /// PFR fragment-memoization fragment counts.
    pub memo: MemoStats,
    /// Tile classification at the compare distance (Fig. 15a).
    pub classes: TileClassCounts,
    /// Tiles with equal colors at distance 1 (Fig. 2 numerator).
    pub equal_tiles_dist1: u64,
    /// Tiles classified at distance 1 (Fig. 2 denominator).
    pub classified_dist1: u64,
    /// RE skips whose colors actually differed (CRC collisions).
    pub false_positives: u64,
    /// Signature Unit activity.
    pub su_stats: SignatureUnitStats,
    /// Transaction Elimination hardware activity.
    pub te_stats: TeStats,
    /// Frames on which RE was disabled (global-state changes).
    pub re_frames_disabled: u64,
    /// Per-frame time series (phase analysis; paper §V discusses the three
    /// workload behaviour categories visible in these curves).
    pub per_frame: Vec<FrameSample>,
}

/// One frame's point in the run's time series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameSample {
    /// Tiles RE skipped this frame.
    pub tiles_skipped: u32,
    /// Baseline raster cycles spent on this frame.
    pub baseline_raster_cycles: u64,
    /// RE raster cycles spent on this frame (including signature compares).
    pub re_raster_cycles: u64,
}

impl RunReport {
    /// A report over `per_frame`'s frames with every technique section
    /// empty: what [`crate::passes::Evaluation::finish`] fills pass by pass
    /// and [`crate::share::evaluate_shared`] section by section.
    pub(crate) fn empty(name: &str, tile_count: u32, per_frame: Vec<FrameSample>) -> Self {
        RunReport {
            name: name.to_owned(),
            frames: per_frame.len(),
            tile_count,
            baseline: TechniqueReport::default(),
            re: TechniqueReport::default(),
            te: TechniqueReport::default(),
            memo: MemoStats::default(),
            classes: TileClassCounts::default(),
            equal_tiles_dist1: 0,
            classified_dist1: 0,
            false_positives: 0,
            su_stats: SignatureUnitStats::default(),
            te_stats: TeStats::default(),
            re_frames_disabled: 0,
            per_frame,
        }
    }

    /// Fig. 2 metric: % tiles with the same color as the preceding frame.
    pub fn equal_tiles_pct_dist1(&self) -> f64 {
        if self.classified_dist1 == 0 {
            0.0
        } else {
            100.0 * self.equal_tiles_dist1 as f64 / self.classified_dist1 as f64
        }
    }

    /// Speedup of RE over the baseline.
    pub fn re_speedup(&self) -> f64 {
        self.re.total_cycles() as f64 / self.baseline.total_cycles() as f64
    }
}

/// The simulator: Stage A render + Stage B evaluation, composed.
#[derive(Debug)]
pub struct Simulator {
    opts: SimOptions,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new(opts: SimOptions) -> Self {
        Simulator { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Runs `scene` for `frames` frames and reports every technique's
    /// results: [`render_scene`] followed by [`evaluate`]. To evaluate one
    /// render under many options, call those two directly.
    pub fn run(&mut self, scene: &mut dyn Scene, frames: usize) -> RunReport {
        evaluate(&render_scene(scene, self.opts.gpu, frames), &self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::api::{DrawCall, PipelineState, Vertex};
    use re_math::{Mat4, Vec4};

    /// A scene drawing one triangle that moves every `period` frames.
    struct MovingTri {
        period: usize,
    }

    impl Scene for MovingTri {
        fn frame(&mut self, index: usize) -> FrameDesc {
            let step = (index / self.period) as f32 * 0.05;
            let verts = [(-0.5 + step, -0.5), (0.5 + step, -0.5), (step, 0.5)]
                .iter()
                .map(|&(x, y)| {
                    Vertex::new(vec![
                        Vec4::new(x, y, 0.0, 1.0),
                        Vec4::new(0.9, 0.2, 0.1, 1.0),
                    ])
                })
                .collect();
            let mut frame = FrameDesc::new();
            frame.drawcalls.push(DrawCall {
                state: PipelineState::flat_2d(),
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices: verts,
            });
            frame
        }
        fn name(&self) -> &str {
            "moving-tri"
        }
    }

    fn small_opts() -> SimOptions {
        SimOptions {
            gpu: GpuConfig {
                width: 64,
                height: 64,
                tile_size: 16,
                ..Default::default()
            },
            ..SimOptions::default()
        }
    }

    #[test]
    fn static_scene_skips_almost_everything() {
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut MovingTri { period: 1_000_000 }, 8);
        // 16 tiles × 8 frames; the first `distance` frames cannot skip.
        assert_eq!(report.baseline.tiles_rendered, 16 * 8);
        assert!(
            report.re.tiles_skipped >= 16 * 5,
            "skipped {}",
            report.re.tiles_skipped
        );
        assert_eq!(report.false_positives, 0);
        assert!(report.re.total_cycles() < report.baseline.total_cycles());
        assert!(report.re.energy.total_pj() < report.baseline.energy.total_pj());
        assert!(report.re.dram.total_bytes() < report.baseline.dram.total_bytes());
    }

    #[test]
    fn every_frame_motion_defeats_re() {
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut MovingTri { period: 1 }, 8);
        // Tiles the triangle covers change inputs each frame; only empty
        // tiles (zero signature, empty bin) can match.
        assert_eq!(report.false_positives, 0);
        // RE must not be dramatically slower than baseline even when
        // useless (paper: <1% overhead).
        let ratio = report.re.total_cycles() as f64 / report.baseline.total_cycles() as f64;
        assert!(ratio < 1.05, "RE overhead ratio {ratio}");
    }

    #[test]
    fn re_never_misrenders_without_collisions() {
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut MovingTri { period: 3 }, 12);
        assert_eq!(report.false_positives, 0, "CRC32 collision would be news");
        assert_eq!(report.classes.diff_color_eq_input, 0);
    }

    #[test]
    fn te_skips_flushes_on_static_scene() {
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut MovingTri { period: 1_000_000 }, 8);
        assert!(report.te_stats.flushes_skipped > 0);
        // TE saves colors traffic relative to baseline but keeps texel
        // and primitive traffic.
        assert!(
            report.te.dram.class_bytes(re_timing::TrafficClass::Colors)
                < report
                    .baseline
                    .dram
                    .class_bytes(re_timing::TrafficClass::Colors)
        );
        // And RE saves at least as much total DRAM as TE.
        assert!(report.re.dram.total_bytes() <= report.te.dram.total_bytes());
    }

    #[test]
    fn fig2_metric_reflects_motion() {
        let mut sim = Simulator::new(small_opts());
        let still = sim.run(&mut MovingTri { period: 1_000_000 }, 8);
        let mut sim2 = Simulator::new(small_opts());
        let moving = sim2.run(&mut MovingTri { period: 1 }, 8);
        assert!(still.equal_tiles_pct_dist1() > moving.equal_tiles_pct_dist1());
        assert!(still.equal_tiles_pct_dist1() > 99.0);
    }

    #[test]
    fn memo_counts_fragments() {
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut MovingTri { period: 1_000_000 }, 8);
        assert_eq!(report.memo.total(), report.baseline.fragments_shaded);
        // A static scene is highly memoizable (flat color fragments).
        assert!(report.memo.fragments_reused > 0);
    }

    #[test]
    fn per_frame_series_reflects_motion_phases() {
        let mut sim = Simulator::new(small_opts());
        // Moves every 4 frames: skip counts dip right after each move.
        let report = sim.run(&mut MovingTri { period: 4 }, 12);
        assert_eq!(report.per_frame.len(), 12);
        let total: u64 = report
            .per_frame
            .iter()
            .map(|s| s.tiles_skipped as u64)
            .sum();
        assert_eq!(total, report.re.tiles_skipped);
        let base_total: u64 = report
            .per_frame
            .iter()
            .map(|s| s.baseline_raster_cycles)
            .sum();
        assert_eq!(base_total, report.baseline.raster_cycles);
        // Frames 0 and 1 (warmup) skip nothing.
        assert_eq!(report.per_frame[0].tiles_skipped, 0);
        assert_eq!(report.per_frame[1].tiles_skipped, 0);
    }

    #[test]
    fn refresh_period_forces_periodic_full_renders() {
        let mut opts = small_opts();
        opts.refresh_period = Some(4);
        let mut sim = Simulator::new(opts);
        let with_refresh = sim.run(&mut MovingTri { period: 1_000_000 }, 12);
        let mut sim2 = Simulator::new(small_opts());
        let without = sim2.run(&mut MovingTri { period: 1_000_000 }, 12);
        // Frames 4 and 8 are forced renders: 2 × 16 tiles fewer skips.
        assert_eq!(
            without.re.tiles_skipped - with_refresh.re.tiles_skipped,
            2 * 16
        );
        assert_eq!(with_refresh.false_positives, 0);
    }

    #[test]
    fn re_unsafe_frames_disable_skipping() {
        struct Unsafe;
        impl Scene for Unsafe {
            fn frame(&mut self, _i: usize) -> FrameDesc {
                let mut f = MovingTri { period: 1_000_000 }.frame(0);
                f.re_unsafe = true;
                f
            }
        }
        let mut sim = Simulator::new(small_opts());
        let report = sim.run(&mut Unsafe, 6);
        assert_eq!(report.re.tiles_skipped, 0);
        assert_eq!(report.re_frames_disabled, 6);
    }

    #[test]
    fn sig_compare_cost_is_a_timing_knob() {
        // Doubling the signature-compare cost adds exactly one extra
        // compare's worth of raster cycles per tile per frame to RE.
        let cheap = small_opts();
        let per_compare = cheap.sig_compare_cycles;
        let mut dear = small_opts();
        dear.sig_compare_cycles = 2 * per_compare;
        let a = Simulator::new(cheap).run(&mut MovingTri { period: 1_000_000 }, 6);
        let b = Simulator::new(dear).run(&mut MovingTri { period: 1_000_000 }, 6);
        assert_eq!(
            b.re.raster_cycles - a.re.raster_cycles,
            per_compare * 16 * 6
        );
        assert_eq!(a.baseline.raster_cycles, b.baseline.raster_cycles);
    }
}
