//! Stage B of the simulator: the technique passes over a [`RenderLog`].
//!
//! Each pass owns its own machine state (caches, accounting machine,
//! signature buffers, …) and contributes its section of the final
//! [`RunReport`]; passes never touch pixels — the ground-truth color
//! verdicts come interned from the log. The paper's evaluation is five
//! passes:
//!
//! 1. [`BaselinePass`] — renders everything; the denominator.
//! 2. [`RePass`] — Rendering Elimination: Signature Unit timing, Signature
//!    Buffer compares, skip decisions, false-positive cross-checks. It is
//!    built from two halves: a *decision* half that decides every tile's
//!    fate from signatures alone and touches no memory system, and a
//!    *replay* half that replays the tiles it did not skip.
//! 3. [`RedundancyPass`] — ground-truth tile classification (Figs. 2, 15a);
//!    reads RE's per-tile signature verdict.
//! 4. [`TePass`] — Transaction Elimination flush elision.
//! 5. [`MemoPass`] — PFR-aided fragment memoization counters.
//!
//! # One Stage B path
//!
//! Each pass declares, as `share_key`, the [`SimOptions`] fields it reads,
//! and [`crate::share::evaluate_shared`] computes each distinct section
//! once among the cells of a render key. RE's decision half and the
//! classifier form one section; RE's replay half reads the memory
//! machine ([`TimingConfig`]) and its decision half's [`SkipBitmap`]
//! alone, so cells whose skip verdicts agree replay once, whatever their
//! OT-queue depth or compare cost. Each cell adds RE's Signature Unit
//! cycles (OT-queue stalls, one Signature Buffer compare per tile) when
//! it assembles its report. [`evaluate`] is one cell over a fresh
//! table, and [`crate::Simulator::run`] is `render_scene` then `evaluate`.
//!
//! # One replay machine
//!
//! The baseline, RE and TE run on the same memory hierarchy and differ
//! only in which tiles reach it (RE skips whole tiles) and which Color
//! Buffer flushes reach DRAM (TE elides those of unchanged tiles). Each
//! charges one [`Machine`]: a DRAM, an energy model and cycle and tile
//! counters, fed epoch by epoch (a frame's geometry, or one tile) by a
//! source of DRAM-bound requests with the epoch's cache-side counters.
//! Live [`Caches`] are the source of RE's replay, the lockstep passes and
//! the baseline section, which appends each epoch it charges to a
//! [`DramStream`]; TE's sections charge that recorded stream instead of
//! replaying the caches again ([`TePass::section`]).
//! [`Machine::charge_tile`]'s `flush` flag is the only place a flush is
//! elided.
//!
//! The memo section reads each tile's fragment-hash column alone
//! ([`MemoPass::section`]).
//!
//! [`Evaluation`] drives a stack of [`TechniquePass`]es frame by frame,
//! for the benchmark's per-layer walk and the tests.

use std::collections::VecDeque;
use std::sync::Arc;

use re_gpu::stats::{GeometryStats, TileStats};
use re_timing::dram::{Dram, DramRequest, DramStats};
use re_timing::energy::EnergyModel;
use re_timing::{Caches, DramStream, MemEpoch, TimingConfig, TrafficClass};

use crate::memo::{FragmentMemo, MemoLut, MemoStats};
use crate::redundancy::{classify, TileClassCounts};
use crate::render::{FrameLog, RenderLog, TileLog};
use crate::share::{evaluate_shared, SectionKey, SectionTable};
use crate::signature::{SignatureBuffer, SignatureUnit, SignatureUnitStats};
use crate::sim::{FrameSample, RunReport, SimOptions, TechniqueReport};
use crate::te::{TeStats, TransactionElimination};

/// One technique's accounting machine: a DRAM, an energy model, and
/// cycle and tile counters. A source feeds it each epoch's DRAM-bound
/// requests with the epoch's cache-side counters: live [`Caches`]
/// replaying the log ([`Caches::replay`]), or the baseline's recorded
/// [`DramStream`]. The machine services the requests and charges the
/// epoch.
pub struct Machine {
    tcfg: TimingConfig,
    dram: Dram,
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
            tcfg: cfg,
            dram: Dram::new(cfg),
            energy: EnergyModel::new(),
            geometry_cycles: 0,
            raster_cycles: 0,
            tiles_rendered: 0,
            tiles_skipped: 0,
            fragments_shaded: 0,
        }
    }

    /// Charges one frame's geometry work: services the geometry epoch's
    /// `requests` and charges `epoch`, its cache-side counters.
    pub fn charge_geometry<'r>(
        &mut self,
        g: &GeometryStats,
        requests: impl IntoIterator<Item = &'r DramRequest>,
        mut epoch: MemEpoch,
    ) {
        self.dram.service(requests, &mut epoch);
        self.geometry_cycles += re_timing::geometry_cycles(&self.tcfg, g, &epoch);
        self.energy.add_geometry(g);
    }

    /// Charges one rendered tile: services the tile epoch's `requests`
    /// and charges `epoch`, its cache-side counters. Without `flush`, the
    /// tile's Color Buffer flush is elided (Transaction Elimination): its
    /// `Colors` requests never reach DRAM. This is the one place a flush
    /// is elided.
    pub fn charge_tile<'r>(
        &mut self,
        t: &TileStats,
        requests: impl IntoIterator<Item = &'r DramRequest>,
        mut epoch: MemEpoch,
        flush: bool,
    ) {
        let requests = requests
            .into_iter()
            .filter(|r| flush || r.class != TrafficClass::Colors);
        self.dram.service(requests, &mut epoch);
        self.raster_cycles += re_timing::raster_tile_cycles(&self.tcfg, t, &epoch);
        self.energy.add_raster(t, &self.tcfg);
        self.tiles_rendered += 1;
        self.fragments_shaded += t.fragments_shaded;
    }

    /// Settles SRAM/DRAM/leakage energy, with `sram_accesses` the
    /// source caches' access counts, and produces the report section.
    pub fn finish(self, sram_accesses: Vec<(u32, u64)>) -> TechniqueReport {
        self.totals(sram_accesses).settle()
    }

    /// What settling reads of the machine and its source caches'
    /// `sram_accesses`.
    fn totals(self, sram_accesses: Vec<(u32, u64)>) -> MachineTotals {
        MachineTotals {
            sram_accesses,
            dram: *self.dram.stats(),
            energy: self.energy,
            geometry_cycles: self.geometry_cycles,
            raster_cycles: self.raster_cycles,
            tiles_rendered: self.tiles_rendered,
            tiles_skipped: self.tiles_skipped,
            fragments_shaded: self.fragments_shaded,
        }
    }
}

/// A finished [`Machine`] with its SRAM, DRAM and leakage energy not yet
/// charged: its source caches' access counts in place of the caches
/// themselves. RE's shared replay section is one of these, and every
/// cell sharing it adds its own Signature Unit cycles and SRAM first and
/// then settles a copy, so each cell's energy sums in the same order as a
/// private [`RePass`].
#[derive(Debug, Clone)]
pub(crate) struct MachineTotals {
    energy: EnergyModel,
    sram_accesses: Vec<(u32, u64)>,
    dram: DramStats,
    geometry_cycles: u64,
    raster_cycles: u64,
    tiles_rendered: u64,
    tiles_skipped: u64,
    fragments_shaded: u64,
}

impl MachineTotals {
    /// Charges SRAM, DRAM and leakage energy, in that order, and produces
    /// the report section.
    fn settle(mut self) -> TechniqueReport {
        for (size, n) in self.sram_accesses {
            self.energy.add_sram(size, n);
        }
        self.energy.add_dram(&self.dram);
        self.energy
            .add_cycles(self.geometry_cycles + self.raster_cycles);
        TechniqueReport {
            geometry_cycles: self.geometry_cycles,
            raster_cycles: self.raster_cycles,
            energy: self.energy.breakdown(),
            dram: self.dram,
            tiles_rendered: self.tiles_rendered,
            tiles_skipped: self.tiles_skipped,
            fragments_shaded: self.fragments_shaded,
        }
    }
}

/// Shared per-tile facts: ground-truth color verdicts computed by the
/// [`Evaluation`] driver, plus verdicts published by earlier passes for
/// later ones (RE's input-match feeds the redundancy classifier).
///
/// The benchmark's per-layer walk (`sweepbench/src/walk.rs`) is its only
/// user outside the sections. ROADMAP direction 4 deletes it once that
/// walk runs the sections (direction 2).
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
///
/// No section runs through it: the tests use the lockstep baseline and TE
/// passes as oracles, and the benchmark's per-layer walk
/// (`sweepbench/src/walk.rs`) drives the whole [`default_passes`] stack.
/// ROADMAP direction 4 deletes it once that walk runs the sections
/// (direction 2).
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
///
/// The sections compute it with [`BaselinePass::section`]; the lockstep
/// [`TechniquePass`] impl serves the benchmark's per-layer walk and the
/// tests.
pub struct BaselinePass {
    caches: Caches,
    machine: Machine,
    frame_raster_mark: u64,
}

impl BaselinePass {
    /// A baseline machine under `opts`' timing config.
    pub fn new(opts: &SimOptions) -> Self {
        BaselinePass {
            caches: Caches::new(opts.timing),
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

    /// The baseline section over a whole log under `timing`, in one pass:
    /// the caches replay each epoch (a frame's geometry, or one tile), the
    /// machine charges it, and the section appends it to a
    /// [`DramStream`], which it keeps for [`TePass::section`].
    pub fn section(log: &RenderLog, timing: TimingConfig) -> BaselineSection {
        let mut caches = Caches::new(timing);
        let mut machine = Machine::new(timing);
        let mut stream = DramStream::default();
        let mut raster_cycles = Vec::with_capacity(log.frames.len());
        for frame in &log.frames {
            let mark = machine.raster_cycles;
            let (requests, epoch) = caches.replay(&frame.geo_events);
            machine.charge_geometry(&frame.geo.stats, requests, epoch);
            stream.push(requests, epoch);
            for tile in &frame.tiles {
                let (requests, epoch) = caches.replay(&tile.events);
                machine.charge_tile(&tile.stats, requests, epoch, true);
                stream.push(requests, epoch);
            }
            raster_cycles.push(machine.raster_cycles - mark);
        }
        let sram_accesses = caches.sram_accesses();
        BaselineSection {
            report: machine.finish(sram_accesses.clone()),
            raster_cycles,
            timing,
            stream,
            sram_accesses,
        }
    }
}

/// The baseline section ([`BaselinePass::section`]): the baseline's report
/// and per-frame raster cycles, with what TE reads of its cache replay —
/// the DRAM-bound stream and the caches' SRAM access counts.
#[derive(Debug, Clone)]
pub struct BaselineSection {
    /// The baseline's report section.
    pub report: TechniqueReport,
    /// Each frame's baseline raster cycles.
    pub raster_cycles: Vec<u64>,
    timing: TimingConfig,
    stream: DramStream,
    sram_accesses: Vec<(u32, u64)>,
}

impl TechniquePass for BaselinePass {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        self.frame_raster_mark = self.machine.raster_cycles;
        let (requests, epoch) = self.caches.replay(&frame.geo_events);
        self.machine
            .charge_geometry(&frame.geo.stats, requests, epoch);
    }

    fn tile(&mut self, _frame: &FrameLog, _tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        let (requests, epoch) = self.caches.replay(&tile.events);
        self.machine.charge_tile(&tile.stats, requests, epoch, true);
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        sample.baseline_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        report.baseline = self.machine.finish(self.caches.sram_accesses());
    }
}

/// RE's skip verdicts over a whole log, one bit per tile in frame-major
/// order: all that RE's memory replay reads of its decisions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkipBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SkipBitmap {
    fn push(&mut self, skip: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if skip {
            *self.words.last_mut().expect("a word per 64 bits") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    fn get(&self, index: usize) -> bool {
        self.words[index / 64] >> (index % 64) & 1 == 1
    }
}

/// RE's decision half: the Signature Unit, the Signature Buffer compares,
/// the enable/refresh logic and the false-positive count. It touches no
/// memory system; its verdicts drive [`ReReplay`].
struct ReDecision {
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
    skips: SkipBitmap,
}

impl ReDecision {
    /// Decision state for `tile_count` tiles under `opts`.
    fn new(opts: &SimOptions, tile_count: u32) -> Self {
        let distance = opts.compare_distance;
        ReDecision {
            su: SignatureUnit::new(opts.ot_queue_entries as usize),
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
            skips: SkipBitmap::default(),
        }
    }

    /// Starts frame `index`: enable/refresh logic and the frame's
    /// signatures.
    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
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
        let sigs = self.su.process_frame(&frame.geo, self.tile_count);
        self.su_stats.merge(&sigs.stats);
        self.sigs = sigs.sigs;
    }

    /// Decides tile `tile_id` and publishes its signature verdict in
    /// `ctx`. Returns whether RE skips the tile.
    fn tile(&mut self, tile_id: u32, ctx: &mut TileCtx) -> bool {
        let inputs_eq = self.sig_buffer.matches(&self.sigs, tile_id);
        ctx.inputs_eq = Some(inputs_eq);
        let skip = self.re_enabled && inputs_eq;
        if skip && ctx.colors_eq_cmp == Some(false) {
            self.false_positives += 1;
        }
        self.skips.push(skip);
        skip
    }

    fn end_frame(&mut self) {
        self.sig_buffer.push(std::mem::take(&mut self.sigs));
        self.re_disabled_for = self.re_disabled_for.saturating_sub(1);
    }

    fn finish(self) -> ReVerdicts {
        ReVerdicts {
            skips: Arc::new(self.skips),
            su_stats: self.su_stats,
            false_positives: self.false_positives,
            re_frames_disabled: self.re_frames_disabled,
            sig_buffer_bytes: self.sig_buffer.storage_bytes() as u32,
            compare_reads: self.sig_buffer.compare_reads,
            tile_count: self.tile_count,
        }
    }
}

/// What RE's decision half hands on: the skip verdicts its replay reads,
/// and the counts, stall cycles and SRAM activity of its own hardware.
#[derive(Debug)]
pub(crate) struct ReVerdicts {
    skips: Arc<SkipBitmap>,
    su_stats: SignatureUnitStats,
    false_positives: u64,
    re_frames_disabled: u64,
    sig_buffer_bytes: u32,
    compare_reads: u64,
    tile_count: u32,
}

impl ReVerdicts {
    /// The section key of RE's replay under `opts`: the memory machine
    /// and these verdicts' skip bitmap.
    pub(crate) fn replay_key(&self, opts: &SimOptions) -> SectionKey {
        SectionKey::ReReplay {
            timing: opts.timing,
            skips: Arc::clone(&self.skips),
        }
    }

    /// Writes RE's section of `report`: adds the Signature Unit's stall
    /// cycles to the replayed `machine`'s geometry cycles and a Signature
    /// Buffer compare of `sig_compare_cycles` per tile to its raster
    /// cycles, charges the Signature Buffer, CRC LUT, bitmap and OT-queue
    /// SRAM, then settles it.
    pub(crate) fn write(
        &self,
        mut machine: MachineTotals,
        sig_compare_cycles: u64,
        report: &mut RunReport,
    ) {
        // The Signature Unit overlaps with geometry; only stalls count as
        // extra time.
        machine.geometry_cycles += self.su_stats.stall_cycles;
        machine.raster_cycles += self.skips.len as u64 * sig_compare_cycles;
        let energy = &mut machine.energy;
        energy.add_sram(
            self.sig_buffer_bytes,
            self.su_stats.sig_buffer_accesses + self.compare_reads,
        );
        energy.add_sram(1024, self.su_stats.lut_accesses);
        energy.add_sram(
            self.tile_count.div_ceil(8).max(1),
            self.su_stats.bitmap_accesses,
        );
        energy.add_sram(64, self.su_stats.ot_pushes * 2); // queue push + pop
        report.re = machine.settle();
        report.su_stats = self.su_stats;
        report.false_positives = self.false_positives;
        report.re_frames_disabled = self.re_frames_disabled;
    }
}

/// RE's replay half: live caches feeding a [`Machine`] the tiles RE did
/// not skip, driven by skip verdicts. It is a pure memory replay: the
/// Signature Unit's own cycles are added per cell ([`ReVerdicts::write`]).
struct ReReplay {
    caches: Caches,
    machine: Machine,
    frame_skip_mark: u64,
    frame_raster_mark: u64,
}

impl ReReplay {
    fn new(timing: TimingConfig) -> Self {
        ReReplay {
            caches: Caches::new(timing),
            machine: Machine::new(timing),
            frame_skip_mark: 0,
            frame_raster_mark: 0,
        }
    }

    fn begin_frame(&mut self, frame: &FrameLog) {
        self.frame_skip_mark = self.machine.tiles_skipped;
        self.frame_raster_mark = self.machine.raster_cycles;
        let (requests, epoch) = self.caches.replay(&frame.geo_events);
        self.machine
            .charge_geometry(&frame.geo.stats, requests, epoch);
    }

    fn tile(&mut self, tile: &TileLog, skip: bool) {
        if skip {
            self.machine.tiles_skipped += 1;
        } else {
            let (requests, epoch) = self.caches.replay(&tile.events);
            self.machine.charge_tile(&tile.stats, requests, epoch, true);
        }
    }

    fn end_frame(&self, sample: &mut FrameSample) {
        sample.tiles_skipped = (self.machine.tiles_skipped - self.frame_skip_mark) as u32;
        sample.re_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
    }

    /// The replayed machine's totals.
    fn totals(self) -> MachineTotals {
        self.machine.totals(self.caches.sram_accesses())
    }
}

/// Rendering Elimination: Signature Unit timing, Signature Buffer
/// compares, skip decisions and false-positive cross-checks.
///
/// The sections run its decision and replay halves as two sections, and
/// each cell adds its Signature Buffer compare cost when it assembles its
/// report.
pub struct RePass {
    decision: ReDecision,
    replay: ReReplay,
    sig_compare_cycles: u64,
}

impl RePass {
    /// RE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        RePass {
            decision: ReDecision::new(opts, tile_count),
            replay: ReReplay::new(opts.timing),
            sig_compare_cycles: opts.sig_compare_cycles,
        }
    }

    /// The options RE's decision half reads, which the [`RedundancyPass`]
    /// after it shares through [`TileCtx::inputs_eq`]: OT-queue depth,
    /// compare distance, signature width and refresh period. The replay
    /// half's key ([`SectionKey::ReReplay`]) is the memory machine and the
    /// skip verdicts the decision half produces.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::ReDecision {
            ot_queue_entries: opts.ot_queue_entries,
            compare_distance: opts.compare_distance,
            sig_bits: opts.sig_bits,
            refresh_period: opts.refresh_period,
        }
    }

    /// RE's decision section over a whole log: the decision half and the
    /// [`RedundancyPass`] that classifies tiles by its verdicts.
    pub(crate) fn decide(log: &RenderLog, opts: &SimOptions) -> (ReVerdicts, RedundancyPass) {
        let tile_count = log.tile_count();
        let mut colors = ColorIds::new(opts.compare_distance);
        let mut decision = ReDecision::new(opts, tile_count);
        let mut redundancy = RedundancyPass::new();
        for (index, frame) in log.frames.iter().enumerate() {
            decision.begin_frame(index, frame);
            for (t, tile) in (0..tile_count).zip(&frame.tiles) {
                let mut ctx = colors.ctx(frame, t as usize);
                decision.tile(t, &mut ctx);
                redundancy.tile(frame, t, tile, &mut ctx);
            }
            decision.end_frame();
            colors.push(frame);
        }
        (decision.finish(), redundancy)
    }

    /// RE's replay section over a whole log: the tiles `skips` does not
    /// skip, replayed on a fresh machine under `timing`, with RE's points
    /// of the per-frame series. It charges memory work alone; each cell
    /// adds its Signature Unit cycles when it assembles its report.
    pub(crate) fn replay(
        log: &RenderLog,
        timing: TimingConfig,
        skips: &SkipBitmap,
    ) -> (MachineTotals, Vec<FrameSample>) {
        let mut replay = ReReplay::new(timing);
        let mut per_frame = vec![FrameSample::default(); log.frames.len()];
        let mut bit = 0;
        for (frame, sample) in log.frames.iter().zip(&mut per_frame) {
            replay.begin_frame(frame);
            for tile in &frame.tiles {
                replay.tile(tile, skips.get(bit));
                bit += 1;
            }
            replay.end_frame(sample);
        }
        (replay.totals(), per_frame)
    }
}

/// RE's two halves in lockstep, tile by tile. The benchmark's per-layer
/// walk (`sweepbench/src/walk.rs`) is its only caller. ROADMAP direction 4
/// deletes it once that walk runs the sections (direction 2).
impl TechniquePass for RePass {
    fn name(&self) -> &'static str {
        "re"
    }

    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        self.decision.begin_frame(index, frame);
        self.replay.begin_frame(frame);
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
        let skip = self.decision.tile(tile_id, ctx);
        self.replay.tile(tile, skip);
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        self.replay.end_frame(sample);
        sample.re_raster_cycles += u64::from(self.decision.tile_count) * self.sig_compare_cycles;
        self.decision.end_frame();
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        let RePass {
            decision,
            replay,
            sig_compare_cycles,
        } = *self;
        decision
            .finish()
            .write(replay.totals(), sig_compare_cycles, report);
    }
}

/// Ground-truth tile classification (Figs. 2 and 15a) — consumes the RE
/// verdict published in [`TileCtx`], so it shares the section of RE's
/// decision half ([`RePass::share_key`]).
#[derive(Debug, Default)]
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

    /// Writes the classification into `report`.
    pub(crate) fn write(&self, report: &mut RunReport) {
        report.classes = self.classes;
        report.equal_tiles_dist1 = self.equal_tiles_dist1;
        report.classified_dist1 = self.classified_dist1;
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
        self.write(report);
    }
}

/// Transaction Elimination: hashes rendered colors, may drop the flush.
///
/// The sections compute TE with [`TePass::section`], from the baseline's
/// recorded DRAM-bound stream. The lockstep [`TechniquePass`] impl feeds
/// its machine from live caches; it serves only the benchmark's per-layer
/// walk (`sweepbench/src/walk.rs`, through [`default_passes`]) and the
/// tests, as the oracle `TePass::section` must equal bit for bit.
pub struct TePass {
    caches: Caches,
    machine: Machine,
    te: TransactionElimination,
}

impl TePass {
    /// TE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        TePass {
            caches: Caches::new(opts.timing),
            machine: Machine::new(opts.timing),
            te: TransactionElimination::new(tile_count, opts.compare_distance),
        }
    }

    /// The options TE reads: timing and compare distance, with its
    /// baseline's DRAM-bound stream.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Te {
            timing: opts.timing,
            compare_distance: opts.compare_distance,
        }
    }

    /// TE's section over a whole log at `compare_distance`, from
    /// `baseline`, the log's baseline section (whose timing config TE
    /// shares).
    ///
    /// A Color Buffer flush touches only DRAM, so TE's caches behave
    /// exactly as the baseline's: TE probes no cache. A fresh machine
    /// charges the baseline's recorded stream, eliding the flushes of the
    /// tiles whose colors match, and charges every frame and tile in the
    /// lockstep pass's order, so its report equals the lockstep
    /// [`TePass`]'s bit for bit.
    pub fn section(
        log: &RenderLog,
        compare_distance: usize,
        baseline: &BaselineSection,
    ) -> (TechniqueReport, TeStats) {
        let stream = &baseline.stream;
        let mut epochs = (0..stream.epoch_count()).map(|i| stream.epoch(i));
        let mut next = || epochs.next().expect("a recorded epoch per frame and tile");
        let mut te = TransactionElimination::new(log.tile_count(), compare_distance);
        let mut machine = Machine::new(baseline.timing);
        for frame in &log.frames {
            let (requests, epoch) = next();
            machine.charge_geometry(&frame.geo.stats, requests, epoch);
            for (tile_id, tile) in (0..).zip(&frame.tiles) {
                let skip_flush =
                    te.observe_signature(tile_id, tile.te_sig, tile.stats.color_bytes_flushed);
                let (requests, epoch) = next();
                machine.charge_tile(&tile.stats, requests, epoch, !skip_flush);
            }
            te.end_frame();
        }
        assert!(epochs.next().is_none(), "every recorded epoch charged");
        let mut totals = machine.totals(baseline.sram_accesses.clone());
        charge_te_hardware(&mut totals.energy, &te);
        (totals.settle(), te.stats)
    }
}

/// TE hardware energy: the CRC unit and its signature buffer.
fn charge_te_hardware(energy: &mut EnergyModel, te: &TransactionElimination) {
    energy.add_sram(te.storage_bytes() as u32, te.stats.sig_buffer_accesses);
    energy.add_sram(1024, te.stats.lut_accesses);
}

/// TE over live caches, tile by tile: the benchmark's per-layer walk and
/// the tests' oracle for [`TePass::section`].
impl TechniquePass for TePass {
    fn name(&self) -> &'static str {
        "te"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        let (requests, epoch) = self.caches.replay(&frame.geo_events);
        self.machine
            .charge_geometry(&frame.geo.stats, requests, epoch);
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        let skip_flush =
            self.te
                .observe_signature(tile_id, tile.te_sig, tile.stats.color_bytes_flushed);
        let (requests, epoch) = self.caches.replay(&tile.events);
        self.machine
            .charge_tile(&tile.stats, requests, epoch, !skip_flush);
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.te.end_frame();
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        charge_te_hardware(&mut self.machine.energy, &self.te);
        report.te_stats = self.te.stats;
        report.te = self.machine.finish(self.caches.sram_accesses());
    }
}

/// PFR-aided fragment memoization fragment counts (ISCA'14 baseline).
///
/// The sections compute it with [`MemoPass::section`]; the lockstep
/// [`TechniquePass`] impl serves the benchmark's per-layer walk.
pub struct MemoPass {
    memo: FragmentMemo,
    current: Vec<Vec<u32>>,
}

impl MemoPass {
    /// Memoization state for `tile_count` tiles with the LUT capacity
    /// `opts.memo_kb` selects (the paper's 16 KiB by default).
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        MemoPass {
            memo: FragmentMemo::with_lut(MemoLut::with_kb(opts.memo_kb)),
            current: vec![Vec::new(); tile_count as usize],
        }
    }

    /// The options memoization reads: the LUT capacity alone.
    pub fn share_key(opts: &SimOptions) -> SectionKey {
        SectionKey::Memo {
            memo_kb: opts.memo_kb,
        }
    }

    /// The memo section over a whole log with a `memo_kb` KiB LUT, read
    /// straight from the tiles' hash columns: each PFR pair of frames
    /// probes the LUT tile by tile, the pair's two tiles back to back, and
    /// a trailing unpaired frame probes alone — [`FragmentMemo`]'s order.
    pub fn section(log: &RenderLog, memo_kb: u32) -> MemoStats {
        let mut memo = FragmentMemo::with_lut(MemoLut::with_kb(memo_kb));
        for pair in log.frames.chunks(2) {
            for t in 0..pair[0].tiles.len() {
                for frame in pair {
                    memo.probe_tile(&frame.tiles[t].hashes);
                }
            }
        }
        memo.stats
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
        self.current[tile_id as usize] = tile.hashes.clone();
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.memo.push_frame(std::mem::take(&mut self.current));
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        self.memo.finish();
        report.memo = self.memo.stats;
    }
}

/// The paper's full evaluation stack for `opts` over `tile_count` tiles,
/// in lockstep order.
///
/// The benchmark's per-layer walk (`sweepbench/src/walk.rs`) is its only
/// caller. ROADMAP direction 4 deletes it once that walk runs the sections
/// (direction 2).
pub fn default_passes(opts: &SimOptions, tile_count: u32) -> Vec<Box<dyn TechniquePass>> {
    vec![
        Box::new(BaselinePass::new(opts)),
        Box::new(RePass::new(opts, tile_count)),
        Box::new(RedundancyPass::new()),
        Box::new(TePass::new(opts, tile_count)),
        Box::new(MemoPass::new(opts, tile_count)),
    ]
}

/// Lockstep driver: streams [`FrameLog`]s through a pass stack.
///
/// The benchmark's per-layer walk (`sweepbench/src/walk.rs`) is its only
/// caller outside the tests; no section uses it. ROADMAP direction 4
/// deletes it once that walk runs the sections (direction 2).
pub struct Evaluation {
    tile_count: u32,
    passes: Vec<Box<dyn TechniquePass>>,
    colors: ColorIds,
    per_frame: Vec<FrameSample>,
}

/// Interned color ids of the last `compare_distance.max(1)` frames: the
/// ground truth behind [`TileCtx`]'s color verdicts.
struct ColorIds {
    distance: usize,
    frames: VecDeque<Vec<u32>>,
}

impl ColorIds {
    fn new(distance: usize) -> Self {
        ColorIds {
            distance,
            frames: VecDeque::new(),
        }
    }

    /// Ground-truth color equality of tile `t` against `distance` frames
    /// ago (`None` while history is too short).
    fn eq(&self, frame: &FrameLog, t: usize, distance: usize) -> Option<bool> {
        if self.frames.len() < distance {
            return None;
        }
        let past = &self.frames[self.frames.len() - distance];
        Some(past[t] == frame.tiles[t].color_id)
    }

    /// Tile `t`'s context before any pass has published a verdict.
    fn ctx(&self, frame: &FrameLog, t: usize) -> TileCtx {
        TileCtx {
            colors_eq_cmp: self.eq(frame, t, self.distance),
            colors_eq_d1: self.eq(frame, t, 1),
            inputs_eq: None,
        }
    }

    /// Commits `frame`'s color ids, retiring the oldest (the exact
    /// semantics of the ground-truth `ColorHistory` this replaces).
    fn push(&mut self, frame: &FrameLog) {
        if self.frames.len() == self.distance.max(1) {
            self.frames.pop_front();
        }
        self.frames
            .push_back(frame.tiles.iter().map(|t| t.color_id).collect());
    }
}

impl Evaluation {
    /// An evaluation over a pass stack (stack order = evaluation order: a
    /// pass reads the [`TileCtx`] verdicts of the passes before it).
    ///
    /// The benchmark's per-layer walk is its caller; see [`Evaluation`].
    pub fn with_passes(
        opts: SimOptions,
        tile_count: u32,
        passes: Vec<Box<dyn TechniquePass>>,
    ) -> Self {
        Evaluation {
            tile_count,
            passes,
            colors: ColorIds::new(opts.compare_distance),
            per_frame: Vec::new(),
        }
    }

    /// Feeds one recorded frame through every pass. The benchmark's
    /// per-layer walk is its caller; see [`Evaluation`].
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
        for t in 0..self.tile_count {
            let mut ctx = self.colors.ctx(frame, t as usize);
            for pass in &mut self.passes {
                pass.tile(frame, t, &frame.tiles[t as usize], &mut ctx);
            }
        }
        let mut sample = FrameSample::default();
        for pass in &mut self.passes {
            pass.end_frame(frame, &mut sample);
        }
        self.per_frame.push(sample);
        self.colors.push(frame);
    }

    /// Settles every pass, counts the evaluation, and assembles the
    /// report. The benchmark's per-layer walk is its only caller; see
    /// [`Evaluation`].
    pub fn finish(self, name: &str) -> RunReport {
        // One completed evaluation and one pass execution per stack entry,
        // the registry counters behind `metrics.json`. Sections count
        // themselves in `evaluate_shared`.
        re_obs::metrics::counter(re_obs::names::EVALUATIONS).incr();
        re_obs::metrics::counter(re_obs::names::EVAL_PASSES).add(self.passes.len() as u64);
        let mut report = RunReport::empty(name, self.tile_count, self.per_frame);
        for pass in self.passes {
            pass.finish(&mut report);
        }
        report
    }
}

/// Evaluates a complete [`RenderLog`] under `opts`: one cell over a fresh
/// [`SectionTable`], so it computes every section itself.
///
/// `opts.gpu` must match the geometry the log was rendered under: the log
/// *is* the render, so only evaluation-side options (timing, signature
/// width, compare distance, refresh) may vary across calls.
///
/// # Panics
/// Panics if `opts.gpu` differs from the log's recorded configuration or
/// a frame's tile count differs from it.
pub fn evaluate(log: &RenderLog, opts: &SimOptions) -> RunReport {
    evaluate_shared(log, opts, &SectionTable::new()).report
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

    #[test]
    #[should_panic(expected = "fragment processors")]
    fn the_lockstep_stack_checks_the_texel_run_contract() {
        let mut opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        opts.timing.num_fragment_processors = 2;
        let tile_count = render_scene(&mut Tri, cfg(), 1).tile_count();
        let _ = Evaluation::with_passes(opts, tile_count, default_passes(&opts, tile_count));
    }

    #[test]
    #[should_panic(expected = "frame tile count mismatch")]
    fn a_frame_missing_a_tile_panics_with_its_tile_count() {
        let mut log = render_scene(&mut Tri, cfg(), 4);
        log.frames[2].tiles.pop();
        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let _ = evaluate(&log, &opts);
    }
}
