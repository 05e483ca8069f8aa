//! Stage B work sharing among the cells of one render log.
//!
//! Each built-in pass reads only a few [`SimOptions`] fields, and RE's
//! replay reads its own decisions:
//!
//! | section | passes | reads |
//! |---|---|---|
//! | RE decision | [`RePass`]'s decision half, [`RedundancyPass`] | `timing.ot_queue_entries`, `compare_distance`, `sig_bits`, `refresh_period` |
//! | RE replay | [`RePass`]'s replay half | `timing`, the decision's [`SkipBitmap`] |
//! | baseline | [`BaselinePass`] | `timing` |
//! | TE | [`TePass`] | `timing`, `compare_distance` |
//! | memo | [`MemoPass`] | `memo_kb` |
//!
//! RE decides a tile's fate from signatures alone, before any memory
//! access, so its decision half (Signature Unit, Signature Buffer
//! compares, enable/refresh logic, false-positive count) touches no
//! memory system, and its replay half depends on the timing config and
//! the per-tile skip verdicts only. The replay key holds the whole skip
//! bitmap and compares it bit for bit: cells whose verdicts agree replay
//! the memory system once. Redundancy rides in the decision section
//! because it classifies tiles by RE's
//! [`TileCtx::inputs_eq`](crate::passes::TileCtx::inputs_eq) verdict.
//!
//! Two cells over the same log whose options agree on a section's
//! [`SectionKey`] get the same section, so [`evaluate_shared`] computes
//! each distinct section once and assembles every cell's [`RunReport`]
//! from the sections it computed and the ones other cells already had.
//! A shared replay is a machine whose SRAM, DRAM and leakage energy is
//! not yet charged; each cell charges its own Signature Unit SRAM on it
//! first and then settles it, in the order a private machine would, so
//! every `f64` energy sum is the same whichever cells share the section.
//!
//! These sections are the only Stage B path: [`crate::passes::evaluate`]
//! is one cell over a fresh table. Its oracle is `reference_run` in
//! `crates/core/tests/staged_equivalence.rs`, the seed's monolithic
//! render-and-evaluate loop, which every report must equal bit for bit.
//!
//! # Claim, publish, wait
//!
//! The cells of one log share a [`SectionTable`]. A cell claims **one**
//! section it needs that nobody has claimed, computes it, publishes it,
//! and repeats; only when every section it still needs is claimed by
//! other cells does it wait. Claiming one section per round lets the cells
//! of a key split its sections across workers instead of one cell
//! computing them all while the others wait. A cell learns its replay key
//! once its decision section is published. A cell never waits while it
//! holds an unpublished claim, so the owner of any section it waits on is
//! computing, not waiting: no wait can deadlock. A cell that panics
//! withdraws its unpublished claim, and a waiting cell claims it instead.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use re_timing::TimingConfig;

use crate::passes::{
    BaselinePass, Evaluation, MachineTotals, MemoPass, RePass, ReVerdicts, RedundancyPass,
    SkipBitmap, TePass, TechniquePass,
};
use crate::render::RenderLog;
use crate::sim::{FrameSample, RunReport, SimOptions};

/// The inputs one section of the default pass stack reads (each pass
/// declares its key next to its definition, as `share_key`).
#[derive(Debug, Clone, PartialEq)]
pub enum SectionKey {
    /// [`RePass`]'s decision half and the [`RedundancyPass`] that reads its
    /// verdicts.
    ReDecision {
        /// Signature Unit OT-queue depth.
        ot_queue_entries: u32,
        /// Frame distance of signature and color compares.
        compare_distance: usize,
        /// Stored signature width.
        sig_bits: u32,
        /// Forced full-render period.
        refresh_period: Option<usize>,
    },
    /// [`RePass`]'s replay half.
    ReReplay {
        /// Table I machine parameters.
        timing: TimingConfig,
        /// The decision half's per-tile skip verdicts.
        skips: Arc<SkipBitmap>,
    },
    /// [`BaselinePass`].
    Baseline {
        /// Table I machine parameters.
        timing: TimingConfig,
    },
    /// [`TePass`].
    Te {
        /// Table I machine parameters.
        timing: TimingConfig,
        /// Frame distance of color-hash compares.
        compare_distance: usize,
    },
    /// [`MemoPass`].
    Memo {
        /// Memoization LUT capacity in KiB.
        memo_kb: u32,
    },
}

impl SectionKey {
    /// The sections a cell under `opts` needs before it has RE's verdicts,
    /// in claim order. Its [`SectionKey::ReReplay`] follows from the
    /// published decision section.
    pub fn for_options(opts: &SimOptions) -> [SectionKey; 4] {
        [
            RePass::share_key(opts),
            BaselinePass::share_key(opts),
            TePass::share_key(opts),
            MemoPass::share_key(opts),
        ]
    }

    /// Computes the section over `log` under `opts` (whose fields match
    /// the key). A replay reads `decision`, the cell's published decision
    /// section.
    fn compute(&self, log: &RenderLog, opts: &SimOptions, decision: Option<&Section>) -> Section {
        let tile_count = log.tile_count();
        let pass: Box<dyn TechniquePass> = match self {
            SectionKey::ReDecision { .. } => {
                let (verdicts, redundancy) = RePass::decide(log, opts);
                return Section::Decision(verdicts, redundancy);
            }
            SectionKey::ReReplay { timing, .. } => {
                let Some(Section::Decision(verdicts, _)) = decision else {
                    unreachable!("a replay is computed after its decision");
                };
                let (machine, per_frame) = RePass::replay(log, *timing, verdicts);
                return Section::Replay(machine, per_frame);
            }
            SectionKey::Baseline { .. } => Box::new(BaselinePass::new(opts)),
            SectionKey::Te { .. } => Box::new(TePass::new(opts, tile_count)),
            SectionKey::Memo { .. } => Box::new(MemoPass::new(opts, tile_count)),
        };
        let mut eval = Evaluation::with_passes(*opts, tile_count, vec![pass]);
        for frame in &log.frames {
            eval.push_frame(frame);
        }
        eval.settle(&log.name).into()
    }
}

/// A computed section.
#[derive(Debug)]
enum Section {
    /// The report of the evaluation that computed a baseline, TE or memo
    /// section.
    Report(Box<RunReport>),
    /// RE's verdicts and the redundancy classification.
    Decision(ReVerdicts, RedundancyPass),
    /// RE's replayed machine, not yet settled, and its per-frame series.
    Replay(MachineTotals, Vec<FrameSample>),
}

impl From<RunReport> for Section {
    fn from(report: RunReport) -> Self {
        Section::Report(Box::new(report))
    }
}

/// A section's state in a [`SectionTable`].
#[derive(Debug)]
enum Entry {
    /// Needed, but nobody is computing it (yet, or any more).
    Open,
    /// A cell is computing it.
    Claimed,
    /// The computed section.
    Ready(Arc<Section>),
}

/// The sections computed so far over one render log, shared by the cells
/// evaluating it (see the module docs for the claim/publish/wait rule).
#[derive(Debug, Default)]
pub struct SectionTable {
    entries: Mutex<Vec<(SectionKey, Entry)>>,
    published: Condvar,
}

impl SectionTable {
    /// An empty table.
    pub fn new() -> Self {
        SectionTable::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(SectionKey, Entry)>> {
        self.entries.lock().expect("section table poisoned")
    }
}

/// The slot of `key` in `entries`, added as [`Entry::Open`] if new.
/// Entries are never removed, so a slot stays valid for the table's whole
/// life.
fn slot(entries: &mut Vec<(SectionKey, Entry)>, key: &SectionKey) -> usize {
    match entries.iter().position(|(k, _)| k == key) {
        Some(slot) => slot,
        None => {
            entries.push((key.clone(), Entry::Open));
            entries.len() - 1
        }
    }
}

/// Claims the first open section among `slots`, one per round, and
/// returns its index in `slots` with the claim.
fn claim_next<'t>(
    table: &'t SectionTable,
    entries: &mut [(SectionKey, Entry)],
    slots: &[usize],
) -> Option<(usize, Claim<'t>)> {
    let i = slots
        .iter()
        .position(|&slot| matches!(entries[slot].1, Entry::Open))?;
    entries[slots[i]].1 = Entry::Claimed;
    let claim = Claim {
        table,
        slot: slots[i],
    };
    Some((i, claim))
}

/// The table slot a cell has claimed. Dropping the claim wakes the
/// waiters; dropped unpublished (the cell panicked), it first reopens
/// the slot.
struct Claim<'t> {
    table: &'t SectionTable,
    slot: usize,
}

impl Claim<'_> {
    fn publish(self, section: impl Into<Section>) {
        self.table.lock()[self.slot].1 = Entry::Ready(Arc::new(section.into()));
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Ok(mut entries) = self.table.entries.lock() {
            let entry = &mut entries[self.slot].1;
            if matches!(entry, Entry::Claimed) {
                *entry = Entry::Open;
            }
        }
        self.table.published.notify_all();
    }
}

/// One cell's [`evaluate_shared`] result.
#[derive(Debug)]
pub struct SharedEval {
    /// The cell's report, equal to the one it gets computing every section
    /// itself ([`crate::passes::evaluate`]).
    pub report: RunReport,
    /// Sections this call computed, one pass execution each: baseline, TE,
    /// memo, RE's decision half (with the redundancy classifier that
    /// reads its verdicts) and RE's replay half. A cell that computes
    /// every section (as `evaluate` does) counts five; a reused section
    /// counts none.
    pub pass_executions: usize,
    /// Time spent computing this call's own sections (waiting for other
    /// cells' sections is not included).
    pub busy: Duration,
}

/// Evaluates one cell over `log`, sharing sections through `table` with
/// the other cells of the same log: computes, one at a time, the sections
/// nobody has claimed, then assembles the report from those and the
/// sections other cells computed. The report does not depend on which
/// cells share the table or in which order they run.
///
/// # Panics
/// Panics if `opts.gpu` differs from the log's recorded configuration or
/// a frame's tile count differs from it.
pub fn evaluate_shared(log: &RenderLog, opts: &SimOptions, table: &SectionTable) -> SharedEval {
    assert_eq!(
        opts.gpu, log.config,
        "evaluation gpu config must match the render log's"
    );
    let tile_count = log.tile_count() as usize;
    for frame in &log.frames {
        assert_eq!(frame.tiles.len(), tile_count, "frame tile count mismatch");
    }
    // A cell needs five sections: the four `for_options` keys, RE's
    // decision first, and RE's replay, appended once the decision is
    // published.
    const SECTIONS: usize = 5;
    let mut keys = SectionKey::for_options(opts).to_vec();
    let mut entries = table.lock();
    let mut slots: Vec<usize> = keys.iter().map(|key| slot(&mut entries, key)).collect();
    let mut pass_executions = 0;
    let mut busy = Duration::ZERO;
    loop {
        let decision = match &entries[slots[0]].1 {
            Entry::Ready(section) => Some(Arc::clone(section)),
            _ => None,
        };
        match decision.as_deref() {
            Some(Section::Decision(verdicts, _)) if keys.len() < SECTIONS => {
                let key = verdicts.replay_key(opts);
                slots.push(slot(&mut entries, &key));
                keys.push(key);
            }
            _ => {}
        }
        if let Some((i, claim)) = claim_next(table, &mut entries, &slots) {
            drop(entries);
            let start = Instant::now();
            claim.publish(keys[i].compute(log, opts, decision.as_deref()));
            busy += start.elapsed();
            pass_executions += 1;
            entries = table.lock();
            continue;
        }
        let sections: Option<Vec<Arc<Section>>> = slots
            .iter()
            .map(|&slot| match &entries[slot].1 {
                Entry::Ready(section) => Some(Arc::clone(section)),
                _ => None,
            })
            .collect();
        match sections {
            Some(sections) if keys.len() == SECTIONS => {
                drop(entries);
                if pass_executions > 0 {
                    re_obs::metrics::counter(re_obs::names::EVALUATIONS).incr();
                    re_obs::metrics::counter(re_obs::names::EVAL_PASSES)
                        .add(pass_executions as u64);
                }
                return SharedEval {
                    report: assemble(log, &keys, &sections),
                    pass_executions,
                    busy,
                };
            }
            _ => {
                entries = table
                    .published
                    .wait(entries)
                    .expect("section table poisoned");
            }
        }
    }
}

/// A cell's report from its sections, one per key.
fn assemble(log: &RenderLog, keys: &[SectionKey], sections: &[Arc<Section>]) -> RunReport {
    let mut report = RunReport::empty(
        &log.name,
        log.tile_count(),
        vec![FrameSample::default(); log.frames.len()],
    );
    let mut verdicts = None;
    let mut machine = None;
    for (key, section) in keys.iter().zip(sections) {
        let frames = report.per_frame.iter_mut();
        match (key, &**section) {
            (SectionKey::ReDecision { .. }, Section::Decision(v, redundancy)) => {
                redundancy.write(&mut report);
                verdicts = Some(v);
            }
            (SectionKey::ReReplay { .. }, Section::Replay(m, per_frame)) => {
                for (to, f) in frames.zip(per_frame) {
                    to.tiles_skipped = f.tiles_skipped;
                    to.re_raster_cycles = f.re_raster_cycles;
                }
                machine = Some(m);
            }
            (SectionKey::Baseline { .. }, Section::Report(from)) => {
                for (to, f) in frames.zip(&from.per_frame) {
                    to.baseline_raster_cycles = f.baseline_raster_cycles;
                }
                report.baseline = from.baseline.clone();
            }
            (SectionKey::Te { .. }, Section::Report(from)) => {
                report.te = from.te.clone();
                report.te_stats = from.te_stats;
            }
            (SectionKey::Memo { .. }, Section::Report(from)) => report.memo = from.memo,
            _ => unreachable!("a section matches its key"),
        }
    }
    let (Some(verdicts), Some(machine)) = (verdicts, machine) else {
        unreachable!("a cell has RE's decision and replay");
    };
    verdicts.write(machine.clone(), &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::evaluate;
    use crate::render::render_scene;
    use crate::sim::Scene;
    use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use re_gpu::GpuConfig;
    use re_math::{Mat4, Vec4};

    /// A triangle that steps right every other frame.
    struct Stepper;

    impl Scene for Stepper {
        fn frame(&mut self, i: usize) -> FrameDesc {
            let dx = (i / 2) as f32 * 0.1;
            let verts = [(-0.5 + dx, -0.5), (0.5 + dx, -0.5), (dx, 0.5)]
                .iter()
                .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(0.5)]))
                .collect();
            let mut frame = FrameDesc::new();
            frame.drawcalls.push(DrawCall {
                state: PipelineState::flat_2d(),
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices: verts,
            });
            frame
        }
    }

    fn setup() -> (RenderLog, SimOptions) {
        let gpu = GpuConfig {
            width: 64,
            height: 32,
            tile_size: 16,
            ..GpuConfig::default()
        };
        let opts = SimOptions {
            gpu,
            ..SimOptions::default()
        };
        (render_scene(&mut Stepper, gpu, 5), opts)
    }

    /// Marks `key` as claimed by a stand-in for another running cell.
    fn claim<'t>(table: &'t SectionTable, key: &SectionKey) -> Claim<'t> {
        let mut entries = table.lock();
        entries.push((key.clone(), Entry::Claimed));
        Claim {
            table,
            slot: entries.len() - 1,
        }
    }

    #[test]
    fn a_cell_reuses_a_section_another_cell_is_computing() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        let other = claim(&table, &BaselinePass::share_key(&opts));
        std::thread::scope(|s| {
            // The cell computes the four passes nobody holds, then waits
            // for the baseline until the other cell publishes it.
            let cell = s.spawn(|| evaluate_shared(&log, &opts, &table));
            other.publish(evaluate(&log, &opts));
            let shared = cell.join().expect("cell");
            assert_eq!(shared.pass_executions, 4);
            assert_eq!(shared.report, evaluate(&log, &opts));
        });
    }

    #[test]
    fn a_cell_claims_one_open_section_per_round() {
        let (_, opts) = setup();
        let table = SectionTable::new();
        let other = claim(&table, &BaselinePass::share_key(&opts));
        let keys = SectionKey::for_options(&opts);
        let mut entries = table.lock();
        let slots: Vec<usize> = keys.iter().map(|key| slot(&mut entries, key)).collect();
        let open = |entries: &[(SectionKey, Entry)]| {
            slots
                .iter()
                .filter(|&&slot| matches!(entries[slot].1, Entry::Open))
                .count()
        };
        assert_eq!(open(&entries), 3, "decision, TE and memo are open");
        // A cell's round claims the first open section alone, leaving TE
        // and memo to the other cells of the key ...
        let (first, decision) = claim_next(&table, &mut entries, &slots).expect("open sections");
        assert_eq!(keys[first], RePass::share_key(&opts));
        assert_eq!(open(&entries), 2);
        // ... so the next cell to arrive claims the next one.
        let (second, te) = claim_next(&table, &mut entries, &slots).expect("open sections");
        assert_eq!(keys[second], TePass::share_key(&opts));
        assert_eq!(open(&entries), 1);
        drop(entries);
        drop((decision, te, other));
    }

    #[test]
    fn a_dropped_claim_reopens_its_sections() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        // A claim dropped unpublished, as unwinding from a panicking cell
        // drops it, reopens its section: this cell computes all of them
        // instead of waiting forever.
        for key in &SectionKey::for_options(&opts) {
            drop(claim(&table, key));
        }
        let shared = evaluate_shared(&log, &opts, &table);
        assert_eq!(shared.pass_executions, 5);
        assert_eq!(shared.report, evaluate(&log, &opts));
    }
}
