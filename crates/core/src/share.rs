//! Stage B work sharing among the cells of one render log.
//!
//! Each built-in pass reads only a few [`SimOptions`] fields, RE's replay
//! reads its own decisions, and TE reads the baseline's cache replay:
//!
//! | section | passes | reads |
//! |---|---|---|
//! | RE decision | [`RePass`]'s decision half, [`RedundancyPass`] | `timing.ot_queue_entries`, `compare_distance`, `sig_bits`, `refresh_period` |
//! | RE replay | [`RePass`]'s replay half | `timing`, the decision's [`SkipBitmap`] |
//! | baseline | [`BaselinePass`] | `timing` |
//! | TE | [`TePass`] | `timing`, `compare_distance`, the baseline's DRAM-bound stream |
//! | memo | [`MemoPass`] | `memo_kb`, the tiles' fragment-hash columns |
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
//! TE differs from the baseline only in which Color Buffer flushes reach
//! DRAM, and a flush touches no cache. So the baseline section keeps the
//! stream its caches send to DRAM, and a TE section services that stream
//! on a fresh DRAM, minus the flushes it elides, instead of replaying the
//! caches again ([`TePass::section`]).
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
//! computing them all while the others wait. A section that reads another
//! becomes claimable only once that one is published: a cell learns its
//! replay key once its decision section is published, and its TE key once
//! its baseline is. A cell never waits while it holds an unpublished
//! claim, so the owner of any section it waits on is computing, not
//! waiting: no wait can deadlock. A cell that panics withdraws its
//! unpublished claim, and a waiting cell claims it instead.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use re_timing::TimingConfig;

use crate::memo::MemoStats;
use crate::passes::{
    BaselinePass, BaselineSection, MachineTotals, MemoPass, RePass, ReVerdicts, RedundancyPass,
    SkipBitmap, TePass,
};
use crate::render::RenderLog;
use crate::sim::{FrameSample, RunReport, SimOptions, TechniqueReport};
use crate::te::TeStats;

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
    /// [`TePass`], which also reads the [`SectionKey::Baseline`] of its
    /// `timing`.
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
    /// The sections a cell under `opts` needs that read no other section,
    /// in claim order. Its [`SectionKey::ReReplay`] follows from its
    /// published decision section, and its [`SectionKey::Te`] from its
    /// published baseline.
    pub fn for_options(opts: &SimOptions) -> [SectionKey; 3] {
        [
            RePass::share_key(opts),
            BaselinePass::share_key(opts),
            MemoPass::share_key(opts),
        ]
    }

    /// The key of the section a cell under `opts` computes from this one's
    /// published `section`, if any: RE's replay reads its decision's
    /// verdicts, and TE reads its baseline's DRAM-bound stream.
    fn dependent(&self, section: &Section, opts: &SimOptions) -> Option<SectionKey> {
        match (self, section) {
            (SectionKey::ReDecision { .. }, Section::Decision(verdicts, _)) => {
                Some(verdicts.replay_key(opts))
            }
            (SectionKey::Baseline { .. }, Section::Baseline(_)) => Some(TePass::share_key(opts)),
            _ => None,
        }
    }

    /// Computes the section over `log` under `opts` (whose fields match
    /// the key). A replay reads `parent`, the cell's published decision
    /// section, and TE its published baseline section.
    fn compute(&self, log: &RenderLog, opts: &SimOptions, parent: Option<&Section>) -> Section {
        match (self, parent) {
            (SectionKey::ReDecision { .. }, _) => {
                let (verdicts, redundancy) = RePass::decide(log, opts);
                Section::Decision(verdicts, redundancy)
            }
            (SectionKey::ReReplay { timing, .. }, Some(Section::Decision(verdicts, _))) => {
                let (machine, per_frame) = RePass::replay(log, *timing, verdicts);
                Section::Replay(machine, per_frame)
            }
            (SectionKey::Baseline { timing }, _) => {
                Section::Baseline(BaselinePass::section(log, *timing))
            }
            (
                SectionKey::Te {
                    compare_distance, ..
                },
                Some(Section::Baseline(baseline)),
            ) => {
                let (report, stats) = TePass::section(log, *compare_distance, baseline);
                Section::Te(report, stats)
            }
            (SectionKey::Memo { memo_kb }, _) => Section::Memo(MemoPass::section(log, *memo_kb)),
            _ => unreachable!("a dependent section is computed after its parent"),
        }
    }
}

/// A computed section.
#[derive(Debug)]
enum Section {
    /// RE's verdicts and the redundancy classification.
    Decision(ReVerdicts, RedundancyPass),
    /// RE's replayed machine, not yet settled, and its per-frame series.
    Replay(MachineTotals, Vec<FrameSample>),
    /// The baseline's report, with the DRAM-bound stream TE reads.
    Baseline(BaselineSection),
    /// TE's report section and hardware counters.
    Te(TechniqueReport, TeStats),
    /// Memoization's fragment counts.
    Memo(MemoStats),
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
    fn publish(self, section: Section) {
        self.table.lock()[self.slot].1 = Entry::Ready(Arc::new(section));
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
/// a frame's tile count differs from it, or if `opts.timing` breaks the
/// texel-run contract [`Caches::new`](re_timing::Caches::new) checks:
/// fewer fragment processors (texture caches) than recorded texture
/// units, or a texture or L2 line that is not a multiple of the run line
/// ([`re_gpu::access`]).
pub fn evaluate_shared(log: &RenderLog, opts: &SimOptions, table: &SectionTable) -> SharedEval {
    assert_eq!(
        opts.gpu, log.config,
        "evaluation gpu config must match the render log's"
    );
    let tile_count = log.tile_count() as usize;
    for frame in &log.frames {
        assert_eq!(frame.tiles.len(), tile_count, "frame tile count mismatch");
    }
    // A cell needs five sections: the three `for_options` keys, then RE's
    // replay and TE, each added once the section it reads is published.
    const SECTIONS: usize = 5;
    let mut entries = table.lock();
    let mut cell = CellSections::new(&mut entries, opts);
    let mut pass_executions = 0;
    let mut busy = Duration::ZERO;
    loop {
        cell.unlock(&mut entries, opts);
        if let Some((i, claim)) = claim_next(table, &mut entries, &cell.slots) {
            let parent = cell.parents[i]
                .map(|p| ready(&entries, cell.slots[p]).expect("a published parent"));
            drop(entries);
            let start = Instant::now();
            claim.publish(cell.keys[i].compute(log, opts, parent.as_deref()));
            busy += start.elapsed();
            pass_executions += 1;
            entries = table.lock();
            continue;
        }
        let sections: Option<Vec<Arc<Section>>> = cell
            .slots
            .iter()
            .map(|&slot| ready(&entries, slot))
            .collect();
        match sections {
            Some(sections) if cell.keys.len() == SECTIONS => {
                drop(entries);
                if pass_executions > 0 {
                    re_obs::metrics::counter(re_obs::names::EVALUATIONS).incr();
                    re_obs::metrics::counter(re_obs::names::EVAL_PASSES)
                        .add(pass_executions as u64);
                }
                return SharedEval {
                    report: assemble(log, &cell.keys, &sections),
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

/// The published section in `slot`, if any.
fn ready(entries: &[(SectionKey, Entry)], slot: usize) -> Option<Arc<Section>> {
    match &entries[slot].1 {
        Entry::Ready(section) => Some(Arc::clone(section)),
        _ => None,
    }
}

/// The sections one cell needs so far: their keys, their table slots, and
/// for each key the index of the key whose section it reads.
struct CellSections {
    keys: Vec<SectionKey>,
    slots: Vec<usize>,
    parents: Vec<Option<usize>>,
}

impl CellSections {
    /// The sections a cell under `opts` needs that read no other section
    /// ([`SectionKey::for_options`]), slotted in `entries`.
    fn new(entries: &mut Vec<(SectionKey, Entry)>, opts: &SimOptions) -> Self {
        let keys = SectionKey::for_options(opts).to_vec();
        CellSections {
            slots: keys.iter().map(|key| slot(entries, key)).collect(),
            parents: vec![None; keys.len()],
            keys,
        }
    }

    /// Adds the key of each section that reads one of the cell's sections,
    /// once that section is published. Until then the dependent key is in
    /// none of the cell's slots, so the cell cannot claim it.
    fn unlock(&mut self, entries: &mut Vec<(SectionKey, Entry)>, opts: &SimOptions) {
        for parent in 0..self.keys.len() {
            if self.parents.contains(&Some(parent)) {
                continue;
            }
            let Some(section) = ready(entries, self.slots[parent]) else {
                continue;
            };
            if let Some(key) = self.keys[parent].dependent(&section, opts) {
                self.slots.push(slot(entries, &key));
                self.keys.push(key);
                self.parents.push(Some(parent));
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
            (SectionKey::Baseline { .. }, Section::Baseline(baseline)) => {
                for (to, &cycles) in frames.zip(&baseline.raster_cycles) {
                    to.baseline_raster_cycles = cycles;
                }
                report.baseline = baseline.report.clone();
            }
            (SectionKey::Te { .. }, Section::Te(te, stats)) => {
                report.te = te.clone();
                report.te_stats = *stats;
            }
            (SectionKey::Memo { .. }, Section::Memo(memo)) => report.memo = *memo,
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
            // The cell computes RE's decision and replay and memo, waits
            // for the baseline until the other cell publishes it, and then
            // computes TE from it.
            let cell = s.spawn(|| evaluate_shared(&log, &opts, &table));
            other.publish(Section::Baseline(BaselinePass::section(&log, opts.timing)));
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
        assert_eq!(open(&entries), 2, "decision and memo are open");
        // A cell's round claims the first open section alone, leaving memo
        // to the other cells of the key ...
        let (first, decision) = claim_next(&table, &mut entries, &slots).expect("open sections");
        assert_eq!(keys[first], RePass::share_key(&opts));
        assert_eq!(open(&entries), 1);
        // ... so the next cell to arrive claims the next one.
        let (second, memo) = claim_next(&table, &mut entries, &slots).expect("open sections");
        assert_eq!(keys[second], MemoPass::share_key(&opts));
        assert_eq!(open(&entries), 0);
        drop(entries);
        drop((decision, memo, other));
    }

    #[test]
    fn a_te_slot_is_not_claimable_while_its_baseline_is_open_or_claimed() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        let mut entries = table.lock();
        let mut cell = CellSections::new(&mut entries, &opts);
        let baseline = 1;
        assert_eq!(cell.keys[baseline], BaselinePass::share_key(&opts));
        let te = TePass::share_key(&opts);
        // Open, then claimed: the cell has no TE slot to claim.
        for state in [Entry::Open, Entry::Claimed] {
            entries[cell.slots[baseline]].1 = state;
            cell.unlock(&mut entries, &opts);
            assert!(!cell.keys.contains(&te));
            assert!(entries.iter().all(|(key, _)| *key != te));
        }
        // Published: TE reads it, and is the section left to claim.
        let section = Section::Baseline(BaselinePass::section(&log, opts.timing));
        entries[cell.slots[baseline]].1 = Entry::Ready(Arc::new(section));
        entries[cell.slots[0]].1 = Entry::Claimed;
        entries[cell.slots[2]].1 = Entry::Claimed;
        cell.unlock(&mut entries, &opts);
        assert_eq!(cell.keys.last(), Some(&te));
        assert_eq!(cell.parents.last(), Some(&Some(baseline)));
        let (i, claim) = claim_next(&table, &mut entries, &cell.slots).expect("TE is open");
        assert_eq!(cell.keys[i], te);
        drop(entries);
        drop(claim);
    }

    #[test]
    fn a_dropped_baseline_claim_reopens_and_the_waiting_cell_computes_baseline_then_te() {
        let (log, opts) = setup();
        let table = SectionTable::new();
        let other = claim(&table, &BaselinePass::share_key(&opts));
        let published = |table: &SectionTable| {
            let entries = table.lock();
            entries
                .iter()
                .filter(|(_, entry)| matches!(entry, Entry::Ready(_)))
                .count()
        };
        std::thread::scope(|s| {
            let cell = s.spawn(|| evaluate_shared(&log, &opts, &table));
            // RE's decision and replay and memo need no baseline; once they
            // are published the cell waits on the baseline's claim.
            while published(&table) < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The claim's owner panics: its claim drops unpublished.
            drop(other);
            let shared = cell.join().expect("cell");
            assert_eq!(shared.pass_executions, 5, "baseline and TE too");
            assert_eq!(shared.report, evaluate(&log, &opts));
        });
        assert_eq!(published(&table), 5);
    }

    #[test]
    #[should_panic(expected = "fragment processors")]
    fn fewer_texture_caches_than_texel_units_panics() {
        let (log, mut opts) = setup();
        opts.timing.num_fragment_processors = 2;
        let _ = evaluate(&log, &opts);
    }

    #[test]
    #[should_panic(expected = "texture cache line of 32 bytes")]
    fn a_texture_line_shorter_than_a_run_panics() {
        let (log, mut opts) = setup();
        opts.timing.texture_cache.line_bytes = 32;
        let _ = evaluate(&log, &opts);
    }

    #[test]
    #[should_panic(expected = "L2 cache line of 32 bytes")]
    fn an_l2_line_shorter_than_a_run_panics() {
        let (log, mut opts) = setup();
        opts.timing.l2_cache.line_bytes = 32;
        let _ = evaluate(&log, &opts);
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
