//! Stage B work sharing among the cells of one render log.
//!
//! Each built-in pass reads only a few [`SimOptions`] fields:
//!
//! | section | passes | reads |
//! |---|---|---|
//! | baseline | [`BaselinePass`] | `timing` |
//! | RE | [`RePass`], [`RedundancyPass`] | `timing`, `compare_distance`, `sig_bits`, `refresh_period` |
//! | TE | [`TePass`] | `timing`, `compare_distance` |
//! | memo | [`MemoPass`] | `memo_kb` |
//!
//! Redundancy rides in RE's section because it classifies tiles by RE's
//! [`TileCtx::inputs_eq`](crate::passes::TileCtx::inputs_eq) verdict. Two
//! cells over the same log whose options agree on a section's
//! [`SectionKey`] get the same section, so [`evaluate_shared`] computes
//! each distinct section once and assembles every cell's [`RunReport`]
//! from the sections it computed and the ones other cells already had.
//!
//! # Claim, publish, wait
//!
//! The cells of one log share a [`SectionTable`]. A cell claims every
//! section it needs that nobody has claimed, computes them in one pass
//! over the frames, publishes them, and only then waits for the sections
//! other cells claimed. A cell never waits while it holds an unpublished
//! claim, so the owner of any section it waits on is computing, not
//! waiting: no wait can deadlock. A cell that panics withdraws its
//! unpublished claims, and a waiting cell claims them instead.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use re_timing::TimingConfig;

use crate::passes::{
    BaselinePass, Evaluation, MemoPass, RePass, RedundancyPass, TePass, TechniquePass,
};
use crate::render::RenderLog;
use crate::sim::{FrameSample, RunReport, SimOptions};

/// The [`SimOptions`] fields one section of the default pass stack reads
/// (each pass declares its key next to its definition, as `share_key`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SectionKey {
    /// [`BaselinePass`].
    Baseline {
        /// Table I machine parameters.
        timing: TimingConfig,
    },
    /// [`RePass`] and the [`RedundancyPass`] that reads its verdicts.
    Re {
        /// Table I machine parameters.
        timing: TimingConfig,
        /// Frame distance of signature and color compares.
        compare_distance: usize,
        /// Stored signature width.
        sig_bits: u32,
        /// Forced full-render period.
        refresh_period: Option<usize>,
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
    /// The sections a cell under `opts` needs, in default-stack order.
    pub fn for_options(opts: &SimOptions) -> [SectionKey; 4] {
        [
            BaselinePass::share_key(opts),
            RePass::share_key(opts),
            TePass::share_key(opts),
            MemoPass::share_key(opts),
        ]
    }

    /// The section's passes under `opts` (whose fields match the key).
    fn passes(&self, opts: &SimOptions, tile_count: u32) -> Vec<Box<dyn TechniquePass>> {
        match self {
            SectionKey::Baseline { .. } => vec![Box::new(BaselinePass::new(opts))],
            SectionKey::Re { .. } => vec![
                Box::new(RePass::new(opts, tile_count)),
                Box::new(RedundancyPass::new()),
            ],
            SectionKey::Te { .. } => vec![Box::new(TePass::new(opts, tile_count))],
            SectionKey::Memo { .. } => vec![Box::new(MemoPass::new(opts, tile_count))],
        }
    }

    /// Copies the section's report and per-frame fields from `from`, the
    /// report of the evaluation that computed it, into `into`.
    fn copy(&self, from: &RunReport, into: &mut RunReport) {
        let frames = into.per_frame.iter_mut().zip(&from.per_frame);
        match self {
            SectionKey::Baseline { .. } => {
                for (to, f) in frames {
                    to.baseline_raster_cycles = f.baseline_raster_cycles;
                }
                into.baseline = from.baseline.clone();
            }
            SectionKey::Re { .. } => {
                for (to, f) in frames {
                    to.tiles_skipped = f.tiles_skipped;
                    to.re_raster_cycles = f.re_raster_cycles;
                }
                into.re = from.re.clone();
                into.su_stats = from.su_stats;
                into.false_positives = from.false_positives;
                into.re_frames_disabled = from.re_frames_disabled;
                into.classes = from.classes;
                into.equal_tiles_dist1 = from.equal_tiles_dist1;
                into.classified_dist1 = from.classified_dist1;
            }
            SectionKey::Te { .. } => {
                into.te = from.te.clone();
                into.te_stats = from.te_stats;
            }
            SectionKey::Memo { .. } => into.memo = from.memo,
        }
    }
}

/// A section's state in a [`SectionTable`].
#[derive(Debug)]
enum Entry {
    /// Needed, but nobody is computing it (yet, or any more).
    Open,
    /// A cell is computing it.
    Claimed,
    /// The report of the evaluation that computed it.
    Ready(Arc<RunReport>),
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

/// Table slots a cell has claimed and not yet published. Dropping it
/// unpublished (the cell panicked) reopens them and wakes the waiters.
struct Claim<'t> {
    table: &'t SectionTable,
    slots: Vec<usize>,
}

impl Claim<'_> {
    fn publish(mut self, report: RunReport) {
        let report = Arc::new(report);
        let mut entries = self.table.lock();
        for slot in std::mem::take(&mut self.slots) {
            entries[slot].1 = Entry::Ready(Arc::clone(&report));
        }
        drop(entries);
        self.table.published.notify_all();
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.slots.is_empty() {
            return;
        }
        if let Ok(mut entries) = self.table.entries.lock() {
            for &slot in &self.slots {
                entries[slot].1 = Entry::Open;
            }
        }
        self.table.published.notify_all();
    }
}

/// One cell's [`evaluate_shared`] result.
#[derive(Debug)]
pub struct SharedEval {
    /// The cell's report, equal to [`crate::passes::evaluate`]'s.
    pub report: RunReport,
    /// Passes this call ran. The RE section counts two passes, every other
    /// section one; a reused section counts none.
    pub pass_executions: usize,
    /// Time spent computing this call's own sections (waiting for other
    /// cells' sections is not included).
    pub busy: Duration,
}

/// Evaluates one cell over `log`, sharing sections through `table` with
/// the other cells of the same log: runs only the sections nobody has
/// claimed, in one pass over the frames, then assembles the report from
/// those and the sections other cells computed. The report equals
/// [`crate::passes::evaluate`]`(log, opts)` exactly.
///
/// # Panics
/// Panics if `opts.gpu` differs from the log's recorded configuration.
pub fn evaluate_shared(log: &RenderLog, opts: &SimOptions, table: &SectionTable) -> SharedEval {
    assert_eq!(
        opts.gpu, log.config,
        "evaluation gpu config must match the render log's"
    );
    let keys = SectionKey::for_options(opts);
    // Entries are never removed, so a slot index stays valid for the
    // table's whole life.
    let mut entries = table.lock();
    let slots = keys.map(|key| match entries.iter().position(|(k, _)| *k == key) {
        Some(slot) => slot,
        None => {
            entries.push((key, Entry::Open));
            entries.len() - 1
        }
    });
    let mut pass_executions = 0;
    let mut busy = Duration::ZERO;
    loop {
        let mine: Vec<usize> = (0..keys.len())
            .filter(|&i| matches!(entries[slots[i]].1, Entry::Open))
            .collect();
        if mine.is_empty() {
            let sections: Option<Vec<Arc<RunReport>>> = slots
                .iter()
                .map(|&slot| match &entries[slot].1 {
                    Entry::Ready(section) => Some(Arc::clone(section)),
                    _ => None,
                })
                .collect();
            if let Some(sections) = sections {
                drop(entries);
                let mut report = RunReport::empty(
                    &log.name,
                    log.tile_count(),
                    vec![FrameSample::default(); log.frames.len()],
                );
                for (key, section) in keys.iter().zip(&sections) {
                    key.copy(section, &mut report);
                }
                return SharedEval {
                    report,
                    pass_executions,
                    busy,
                };
            }
            entries = table
                .published
                .wait(entries)
                .expect("section table poisoned");
            continue;
        }
        for &i in &mine {
            entries[slots[i]].1 = Entry::Claimed;
        }
        drop(entries);
        let claim = Claim {
            table,
            slots: mine.iter().map(|&i| slots[i]).collect(),
        };
        let start = Instant::now();
        let passes: Vec<Box<dyn TechniquePass>> = mine
            .iter()
            .flat_map(|&i| keys[i].passes(opts, log.tile_count()))
            .collect();
        pass_executions += passes.len();
        let mut eval = Evaluation::with_passes(*opts, log.tile_count(), passes);
        for frame in &log.frames {
            eval.push_frame(frame);
        }
        claim.publish(eval.finish(&log.name));
        busy += start.elapsed();
        entries = table.lock();
    }
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

    /// Marks `keys` as claimed by a stand-in for another running cell.
    fn claim<'t>(table: &'t SectionTable, keys: &[SectionKey]) -> Claim<'t> {
        let mut entries = table.lock();
        let slots = keys
            .iter()
            .map(|&key| {
                entries.push((key, Entry::Claimed));
                entries.len() - 1
            })
            .collect();
        Claim { table, slots }
    }

    #[test]
    fn a_cell_reuses_a_section_another_cell_is_computing() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        let other = claim(&table, &[BaselinePass::share_key(&opts)]);
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
    fn a_dropped_claim_reopens_its_sections() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        // A claim dropped unpublished, as unwinding from a panicking cell
        // drops it, reopens its sections: this cell computes all of them
        // instead of waiting forever.
        drop(claim(&table, &SectionKey::for_options(&opts)));
        let shared = evaluate_shared(&log, &opts, &table);
        assert_eq!(shared.pass_executions, 5);
        assert_eq!(shared.report, evaluate(&log, &opts));
    }
}
