//! Stage B of the simulator: replay a [`RenderLog`] through technique
//! passes.
//!
//! An [`Evaluation`] owns an ordered set of [`TechniquePass`] objects and
//! drives them over a recorded render, frame by frame and tile by tile.
//! Each pass owns its own machine state (memory system, energy model,
//! signature buffers, …) and contributes its section of the final
//! [`RunReport`]; passes never touch pixels — the ground-truth color
//! verdicts come interned from the log.
//!
//! The default stack reproduces the paper's evaluation exactly:
//!
//! 1. [`BaselinePass`] — renders everything; the denominator.
//! 2. [`RePass`] — Rendering Elimination: Signature Unit timing, Signature
//!    Buffer compares, skip decisions, false-positive cross-checks.
//! 3. [`RedundancyPass`] — ground-truth tile classification (Figs. 2, 15a);
//!    reads the RE verdict published in [`TileCtx`].
//! 4. [`TePass`] — Transaction Elimination flush elision.
//! 5. [`MemoPass`] — PFR-aided fragment memoization counters.
//!
//! # Adding a technique
//!
//! Implement [`TechniquePass`], keep any cross-frame state in your struct,
//! and either append it to the default stack or build a custom stack with
//! [`Evaluation::with_passes`]. A pass that depends on another pass's
//! per-tile verdict (as the classifier depends on RE) reads it from
//! [`TileCtx`] — order in the stack is evaluation order.
//!
//! # Sharing work between evaluations
//!
//! Each built-in pass declares, as `share_key`, the [`SimOptions`] fields
//! it reads. Evaluations of one log that agree on those fields compute the
//! same pass output, so [`crate::share::evaluate_shared`] runs each
//! distinct pass once among the cells of a render key.

use re_gpu::stats::{GeometryStats, TileStats};
use re_timing::energy::EnergyModel;
use re_timing::{MemorySystem, TimingConfig};

use crate::memo::FragmentMemo;
use crate::record::Event;
use crate::redundancy::{classify, TileClassCounts};
use crate::render::{FrameLog, RenderLog, TileLog};
use crate::share::SectionKey;
use crate::signature::{SignatureBuffer, SignatureUnit, SignatureUnitStats};
use crate::sim::{FrameSample, RunReport, SimOptions, TechniqueReport};
use crate::te::TransactionElimination;

/// Replays recorded events into a technique machine's memory system.
fn replay(events: &[Event], sink: &mut MemorySystem, include_flush: bool) {
    crate::record::replay_events(events, sink, include_flush);
}

/// Per-technique mutable machine state: a cache hierarchy + DRAM fed by
/// replay, an energy model, and cycle/tile accounting.
pub struct Machine {
    /// The technique's private memory system.
    pub mem: MemorySystem,
    /// The technique's energy accumulator.
    pub energy: EnergyModel,
    /// Geometry Pipeline cycles charged so far.
    pub geometry_cycles: u64,
    /// Raster Pipeline cycles charged so far.
    pub raster_cycles: u64,
    /// Tiles dispatched to the Raster Pipeline.
    pub tiles_rendered: u64,
    /// Tiles eliminated before rasterization.
    pub tiles_skipped: u64,
    /// Fragments shaded.
    pub fragments_shaded: u64,
}

impl Machine {
    /// A fresh machine under `cfg`.
    pub fn new(cfg: TimingConfig) -> Self {
        Machine {
            mem: MemorySystem::new(cfg),
            energy: EnergyModel::new(),
            geometry_cycles: 0,
            raster_cycles: 0,
            tiles_rendered: 0,
            tiles_skipped: 0,
            fragments_shaded: 0,
        }
    }

    /// Charges one frame's geometry work (call after replaying the frame's
    /// geometry events).
    pub fn charge_geometry(&mut self, cfg: &TimingConfig, g: &GeometryStats) {
        let epoch = self.mem.take_epoch();
        self.geometry_cycles += re_timing::geometry_cycles(cfg, g, &epoch);
        self.energy.add_geometry(g);
    }

    /// Charges one rendered tile (call after replaying the tile's events).
    pub fn charge_tile(&mut self, cfg: &TimingConfig, t: &TileStats) {
        let epoch = self.mem.take_epoch();
        self.raster_cycles += re_timing::raster_tile_cycles(cfg, t, &epoch);
        self.energy.add_raster(t, cfg);
        self.tiles_rendered += 1;
        self.fragments_shaded += t.fragments_shaded;
    }

    /// Settles SRAM/DRAM/leakage energy and produces the report section.
    pub fn finish(mut self) -> TechniqueReport {
        for (size, n) in self.mem.sram_accesses() {
            self.energy.add_sram(size, n);
        }
        self.energy.add_dram(self.mem.dram_stats());
        self.energy
            .add_cycles(self.geometry_cycles + self.raster_cycles);
        TechniqueReport {
            geometry_cycles: self.geometry_cycles,
            raster_cycles: self.raster_cycles,
            energy: self.energy.breakdown(),
            dram: *self.mem.dram_stats(),
            tiles_rendered: self.tiles_rendered,
            tiles_skipped: self.tiles_skipped,
            fragments_shaded: self.fragments_shaded,
        }
    }
}

/// Shared per-tile facts: ground-truth color verdicts computed by the
/// [`Evaluation`] driver, plus verdicts published by earlier passes for
/// later ones (RE's input-match feeds the redundancy classifier).
#[derive(Debug, Clone, Copy, Default)]
pub struct TileCtx {
    /// Whether the tile's colors equal those `compare_distance` frames ago
    /// (`None` while history is too short).
    pub colors_eq_cmp: Option<bool>,
    /// Whether the tile's colors equal those 1 frame ago (Fig. 2).
    pub colors_eq_d1: Option<bool>,
    /// RE's signature verdict for this tile, set by [`RePass`].
    pub inputs_eq: Option<bool>,
}

/// One technique's evaluation logic, driven tile by tile over a render log.
pub trait TechniquePass {
    /// Display name (diagnostics).
    fn name(&self) -> &'static str;

    /// Starts frame `index`: replay geometry, update per-frame state.
    fn begin_frame(&mut self, index: usize, frame: &FrameLog);

    /// Evaluates one tile. Passes run in stack order; later passes see the
    /// `ctx` fields earlier ones published.
    fn tile(&mut self, frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx);

    /// Ends the frame; contribute this frame's point of the time series.
    fn end_frame(&mut self, frame: &FrameLog, sample: &mut FrameSample);

    /// Settles totals into the report.
    fn finish(self: Box<Self>, report: &mut RunReport);
}

/// The baseline GPU: renders every tile, skips nothing.
pub struct BaselinePass {
    tcfg: TimingConfig,
    machine: Machine,
    frame_raster_mark: u64,
}

impl BaselinePass {
    /// A baseline machine under `opts`' timing config.
    pub fn new(opts: &SimOptions) -> Self {
        BaselinePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            frame_raster_mark: 0,
        }
    }

    /// The options the baseline reads: the timing config alone.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Baseline {
            timing: opts.timing,
        }
    }
}

impl TechniquePass for BaselinePass {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        self.frame_raster_mark = self.machine.raster_cycles;
        replay(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);
    }

    fn tile(&mut self, _frame: &FrameLog, _tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        replay(&tile.events, &mut self.machine.mem, true);
        self.machine.charge_tile(&self.tcfg, &tile.stats);
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        sample.baseline_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        report.baseline = self.machine.finish();
    }
}

/// Rendering Elimination: Signature Unit timing, Signature Buffer
/// compares, skip decisions and false-positive cross-checks.
pub struct RePass {
    tcfg: TimingConfig,
    machine: Machine,
    su: SignatureUnit,
    su_stats: SignatureUnitStats,
    sig_buffer: SignatureBuffer,
    sigs: Vec<u32>,
    tile_count: u32,
    distance: usize,
    refresh_period: Option<usize>,
    /// RE stays disabled for `distance` frames after a global-state change,
    /// because comparisons reach that far back.
    re_disabled_for: usize,
    re_enabled: bool,
    re_frames_disabled: u64,
    false_positives: u64,
    frame_skip_mark: u64,
    frame_raster_mark: u64,
}

impl RePass {
    /// RE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        let distance = opts.compare_distance;
        RePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            su: SignatureUnit::new(opts.timing.ot_queue_entries as usize),
            su_stats: SignatureUnitStats::default(),
            sig_buffer: SignatureBuffer::with_sig_bits(tile_count, distance, opts.sig_bits),
            sigs: Vec::new(),
            tile_count,
            distance,
            refresh_period: opts.refresh_period,
            re_disabled_for: 0,
            re_enabled: true,
            re_frames_disabled: 0,
            false_positives: 0,
            frame_skip_mark: 0,
            frame_raster_mark: 0,
        }
    }

    /// The options RE reads, which the [`RedundancyPass`] after it shares
    /// through [`TileCtx::inputs_eq`]: timing, compare distance, signature
    /// width and refresh period.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Re {
            timing: opts.timing,
            compare_distance: opts.compare_distance,
            sig_bits: opts.sig_bits,
            refresh_period: opts.refresh_period,
        }
    }
}

impl TechniquePass for RePass {
    fn name(&self) -> &'static str {
        "re"
    }

    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        self.frame_skip_mark = self.machine.tiles_skipped;
        self.frame_raster_mark = self.machine.raster_cycles;
        if frame.re_unsafe {
            self.re_disabled_for = self.re_disabled_for.max(self.distance + 1);
        }
        let refresh_frame = self
            .refresh_period
            .is_some_and(|p| p > 0 && index > 0 && index.is_multiple_of(p));
        self.re_enabled = self.re_disabled_for == 0 && !refresh_frame;
        if !self.re_enabled {
            self.re_frames_disabled += 1;
        }

        replay(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);

        // The Signature Unit overlaps with geometry; only stalls count as
        // extra time.
        let sigs = self.su.process_frame(&frame.geo, self.tile_count);
        self.machine.geometry_cycles += sigs.stats.stall_cycles;
        self.su_stats.merge(&sigs.stats);
        self.sigs = sigs.sigs;
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
        let inputs_eq = self.sig_buffer.matches(&self.sigs, tile_id);
        ctx.inputs_eq = Some(inputs_eq);
        self.machine.raster_cycles += self.tcfg.sig_compare_cycles;
        if self.re_enabled && inputs_eq {
            self.machine.tiles_skipped += 1;
            if ctx.colors_eq_cmp == Some(false) {
                self.false_positives += 1;
            }
        } else {
            replay(&tile.events, &mut self.machine.mem, true);
            self.machine.charge_tile(&self.tcfg, &tile.stats);
        }
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        sample.tiles_skipped = (self.machine.tiles_skipped - self.frame_skip_mark) as u32;
        sample.re_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
        self.sig_buffer.push(std::mem::take(&mut self.sigs));
        self.re_disabled_for = self.re_disabled_for.saturating_sub(1);
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        // RE hardware energy: Signature Buffer, CRC LUTs, bitmap, OT queue.
        let sigbuf_bytes = self.sig_buffer.storage_bytes() as u32;
        self.machine.energy.add_sram(
            sigbuf_bytes,
            self.su_stats.sig_buffer_accesses + self.sig_buffer.compare_reads,
        );
        self.machine
            .energy
            .add_sram(1024, self.su_stats.lut_accesses);
        self.machine.energy.add_sram(
            self.tile_count.div_ceil(8).max(1),
            self.su_stats.bitmap_accesses,
        );
        self.machine
            .energy
            .add_sram(64, self.su_stats.ot_pushes * 2); // queue push + pop
        report.re = self.machine.finish();
        report.su_stats = self.su_stats;
        report.false_positives = self.false_positives;
        report.re_frames_disabled = self.re_frames_disabled;
    }
}

/// Ground-truth tile classification (Figs. 2 and 15a) — consumes the RE
/// verdict published in [`TileCtx`], so it shares RE's
/// [`share_key`](RePass::share_key).
#[derive(Default)]
pub struct RedundancyPass {
    classes: TileClassCounts,
    equal_tiles_dist1: u64,
    classified_dist1: u64,
}

impl RedundancyPass {
    /// A fresh classifier.
    pub fn new() -> Self {
        RedundancyPass::default()
    }
}

impl TechniquePass for RedundancyPass {
    fn name(&self) -> &'static str {
        "redundancy"
    }

    fn begin_frame(&mut self, _index: usize, _frame: &FrameLog) {}

    fn tile(&mut self, _frame: &FrameLog, _tile_id: u32, _tile: &TileLog, ctx: &mut TileCtx) {
        if let Some(eq) = ctx.colors_eq_d1 {
            self.classified_dist1 += 1;
            if eq {
                self.equal_tiles_dist1 += 1;
            }
        }
        if let (Some(ceq), Some(ieq)) = (ctx.colors_eq_cmp, ctx.inputs_eq) {
            classify(&mut self.classes, ceq, ieq);
        }
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {}

    fn finish(self: Box<Self>, report: &mut RunReport) {
        report.classes = self.classes;
        report.equal_tiles_dist1 = self.equal_tiles_dist1;
        report.classified_dist1 = self.classified_dist1;
    }
}

/// Transaction Elimination: hashes rendered colors, may drop the flush.
pub struct TePass {
    tcfg: TimingConfig,
    machine: Machine,
    te: TransactionElimination,
}

impl TePass {
    /// TE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        TePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            te: TransactionElimination::new(tile_count, opts.compare_distance),
        }
    }

    /// The options TE reads: timing and compare distance.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Te {
            timing: opts.timing,
            compare_distance: opts.compare_distance,
        }
    }
}

impl TechniquePass for TePass {
    fn name(&self) -> &'static str {
        "te"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        replay(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        let skip_flush = self
            .te
            .observe_signature(tile_id, tile.te_sig, tile.color_bytes);
        replay(&tile.events, &mut self.machine.mem, !skip_flush);
        let mut stats = tile.stats;
        if skip_flush {
            stats.color_bytes_flushed = 0;
        }
        self.machine.charge_tile(&self.tcfg, &stats);
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.te.end_frame();
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        // TE hardware energy: CRC unit + its signature buffer.
        self.machine.energy.add_sram(
            self.te.storage_bytes() as u32,
            self.te.stats.sig_buffer_accesses,
        );
        self.machine
            .energy
            .add_sram(1024, self.te.stats.lut_accesses);
        report.te_stats = self.te.stats;
        report.te = self.machine.finish();
    }
}

/// PFR-aided fragment memoization fragment counts (ISCA'14 baseline).
pub struct MemoPass {
    memo: FragmentMemo,
    current: Vec<Vec<u32>>,
}

impl MemoPass {
    /// Memoization state for `tile_count` tiles with the LUT capacity
    /// `opts.memo_kb` selects (the paper's 16 KiB by default).
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        MemoPass {
            memo: FragmentMemo::with_lut(crate::memo::MemoLut::with_kb(opts.memo_kb)),
            current: vec![Vec::new(); tile_count as usize],
        }
    }

    /// The options memoization reads: the LUT capacity alone.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Memo {
            memo_kb: opts.memo_kb,
        }
    }
}

impl TechniquePass for MemoPass {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        self.current = vec![Vec::new(); frame.tiles.len()];
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        self.current[tile_id as usize] = tile.frag_hashes().collect();
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.memo.push_frame(std::mem::take(&mut self.current));
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        self.memo.finish();
        report.memo = self.memo.stats;
    }
}

/// The paper's full evaluation stack for `opts` over `tile_count` tiles.
pub fn default_passes(opts: &SimOptions, tile_count: u32) -> Vec<Box<dyn TechniquePass>> {
    vec![
        Box::new(BaselinePass::new(opts)),
        Box::new(RePass::new(opts, tile_count)),
        Box::new(RedundancyPass::new()),
        Box::new(TePass::new(opts, tile_count)),
        Box::new(MemoPass::new(opts, tile_count)),
    ]
}

/// Stage B driver: streams [`FrameLog`]s through the pass stack.
///
/// Incremental by design — [`crate::Simulator::run`] feeds frames as Stage A
/// produces them (memory stays bounded to one frame), while the sweep
/// engine evaluates a complete shared [`RenderLog`] through
/// [`crate::share::evaluate_shared`], which drives one `Evaluation` over
/// the passes a cell has to compute itself.
pub struct Evaluation {
    opts: SimOptions,
    tile_count: u32,
    passes: Vec<Box<dyn TechniquePass>>,
    /// Interned color ids of the last `compare_distance.max(1)` frames.
    color_ids: std::collections::VecDeque<Vec<u32>>,
    per_frame: Vec<FrameSample>,
}

impl Evaluation {
    /// An evaluation with the default (paper) pass stack.
    pub fn new(opts: SimOptions, tile_count: u32) -> Self {
        let passes = default_passes(&opts, tile_count);
        Evaluation::with_passes(opts, tile_count, passes)
    }

    /// An evaluation over a custom pass stack (stack order = evaluation
    /// order; see the module docs on pass dependencies).
    pub fn with_passes(
        opts: SimOptions,
        tile_count: u32,
        passes: Vec<Box<dyn TechniquePass>>,
    ) -> Self {
        Evaluation {
            opts,
            tile_count,
            passes,
            color_ids: std::collections::VecDeque::new(),
            per_frame: Vec::new(),
        }
    }

    /// Ground-truth color equality of tile `t` against `distance` frames
    /// ago (`None` while history is too short).
    fn colors_eq(&self, frame: &FrameLog, t: usize, distance: usize) -> Option<bool> {
        if self.color_ids.len() < distance {
            return None;
        }
        let past = &self.color_ids[self.color_ids.len() - distance];
        Some(past[t] == frame.tiles[t].color_id)
    }

    /// Feeds one recorded frame through every pass.
    ///
    /// # Panics
    /// Panics if the frame's tile count does not match the evaluation's.
    pub fn push_frame(&mut self, frame: &FrameLog) {
        assert_eq!(
            frame.tiles.len(),
            self.tile_count as usize,
            "frame tile count mismatch"
        );
        let index = self.per_frame.len();
        for pass in &mut self.passes {
            pass.begin_frame(index, frame);
        }
        let distance = self.opts.compare_distance;
        for t in 0..self.tile_count {
            let mut ctx = TileCtx {
                colors_eq_cmp: self.colors_eq(frame, t as usize, distance),
                colors_eq_d1: self.colors_eq(frame, t as usize, 1),
                inputs_eq: None,
            };
            for pass in &mut self.passes {
                pass.tile(frame, t, &frame.tiles[t as usize], &mut ctx);
            }
        }
        let mut sample = FrameSample::default();
        for pass in &mut self.passes {
            pass.end_frame(frame, &mut sample);
        }
        self.per_frame.push(sample);

        // Commit this frame's color ids, retiring the oldest (the exact
        // semantics of the ground-truth ColorHistory this replaces).
        let depth = distance.max(1);
        if self.color_ids.len() == depth {
            self.color_ids.pop_front();
        }
        self.color_ids
            .push_back(frame.tiles.iter().map(|t| t.color_id).collect());
    }

    /// Settles every pass and assembles the report.
    pub fn finish(self, name: &str) -> RunReport {
        // One completed evaluation, however it was driven (simulator,
        // in-memory replay, streamed `.relog`, or the sections one sweep
        // cell computes), and one pass execution per stack entry — the
        // registry counters behind the sweep's `metrics.json`.
        re_obs::metrics::counter(re_obs::names::EVALUATIONS).incr();
        re_obs::metrics::counter(re_obs::names::EVAL_PASSES).add(self.passes.len() as u64);
        let mut report = RunReport::empty(name, self.tile_count, self.per_frame);
        for pass in self.passes {
            pass.finish(&mut report);
        }
        report
    }
}

/// Replays a complete [`RenderLog`] under `opts` — the render-once /
/// evaluate-many entry point.
///
/// `opts.gpu` must match the geometry the log was rendered under: the log
/// *is* the render, so only evaluation-side options (timing, signature
/// width, compare distance, refresh) may vary across calls.
///
/// # Panics
/// Panics if `opts.gpu` differs from the log's recorded configuration.
pub fn evaluate(log: &RenderLog, opts: &SimOptions) -> RunReport {
    assert_eq!(
        opts.gpu, log.config,
        "evaluation gpu config must match the render log's"
    );
    let mut eval = Evaluation::new(*opts, log.tile_count());
    for frame in &log.frames {
        eval.push_frame(frame);
    }
    eval.finish(&log.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_scene;
    use crate::sim::Scene;
    use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use re_gpu::GpuConfig;
    use re_math::{Mat4, Vec4};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    struct Tri;
    impl Scene for Tri {
        fn frame(&mut self, _i: usize) -> FrameDesc {
            let verts = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
                .iter()
                .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
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
            "tri"
        }
    }

    #[test]
    fn one_log_many_evaluations() {
        let log = render_scene(&mut Tri, cfg(), 6);
        let base_opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let a = evaluate(&log, &base_opts);
        // Same log, narrower signatures and single buffering: evaluation
        // axes vary without touching the render.
        let b = evaluate(
            &log,
            &SimOptions {
                sig_bits: 8,
                compare_distance: 1,
                ..base_opts
            },
        );
        assert_eq!(a.baseline.total_cycles(), b.baseline.total_cycles());
        assert!(a.re.tiles_skipped > 0);
        assert!(b.re.tiles_skipped >= a.re.tiles_skipped, "d=1 skips sooner");
    }

    #[test]
    fn custom_stack_runs_subset() {
        let log = render_scene(&mut Tri, cfg(), 3);
        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let mut eval = Evaluation::with_passes(
            opts,
            log.tile_count(),
            vec![Box::new(BaselinePass::new(&opts))],
        );
        for f in &log.frames {
            eval.push_frame(f);
        }
        let report = eval.finish("baseline-only");
        assert!(report.baseline.total_cycles() > 0);
        assert_eq!(report.re.total_cycles(), 0, "no RE pass in the stack");
        assert_eq!(report.classes.total(), 0);
    }

    #[test]
    #[should_panic(expected = "must match the render log")]
    fn mismatched_gpu_config_panics() {
        let log = render_scene(&mut Tri, cfg(), 1);
        let opts = SimOptions {
            gpu: GpuConfig {
                tile_size: 32,
                ..cfg()
            },
            ..SimOptions::default()
        };
        let _ = evaluate(&log, &opts);
    }
}
